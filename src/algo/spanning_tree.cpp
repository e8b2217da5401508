#include "algo/spanning_tree.hpp"

#include <numeric>
#include <utility>

#include "algo/components.hpp"
#include "algo/min_degree_tree.hpp"

namespace tgroom {

const char* tree_policy_name(TreePolicy policy) {
  switch (policy) {
    case TreePolicy::kBfs:
      return "bfs";
    case TreePolicy::kDfs:
      return "dfs";
    case TreePolicy::kRandom:
      return "random";
    case TreePolicy::kMinMaxDegree:
      return "min-max-degree";
  }
  return "?";
}

namespace {

// Every traversal below draws its scratch from `arena` (heap when null via
// the allocator's fallback) and appends tree edges to `tree`; visit order
// is identical to the classic queue/stack forms, so outputs are unchanged.

// Returns as soon as the frontier holds all n nodes: the rest of the sweep
// could only scan incidences of visited nodes, so the tree is the same.
void bfs_forest_into(const CsrGraph& g, std::vector<EdgeId>& tree,
                     MonotonicArena* arena) {
  const auto n = static_cast<std::size_t>(g.node_count());
  ArenaVector<char> visited(n, 0, ArenaAllocator<char>(arena));
  ArenaVector<NodeId> frontier{ArenaAllocator<NodeId>(arena)};
  frontier.reserve(n);
  for (NodeId start = 0; start < g.node_count(); ++start) {
    if (visited[static_cast<std::size_t>(start)]) continue;
    visited[static_cast<std::size_t>(start)] = 1;
    std::size_t head = frontier.size();
    frontier.push_back(start);
    while (head < frontier.size()) {
      NodeId v = frontier[head++];
      for (const Incidence& inc : g.incident(v)) {
        if (visited[static_cast<std::size_t>(inc.neighbor)]) continue;
        visited[static_cast<std::size_t>(inc.neighbor)] = 1;
        tree.push_back(inc.edge);
        frontier.push_back(inc.neighbor);
        if (frontier.size() == n) return;
      }
    }
  }
}

void dfs_forest_into(const CsrGraph& g, std::vector<EdgeId>& tree,
                     MonotonicArena* arena) {
  const auto n = static_cast<std::size_t>(g.node_count());
  ArenaVector<char> visited(n, 0, ArenaAllocator<char>(arena));
  // Explicit stack of (node, incidence cursor) to avoid deep recursion.
  using Frame = std::pair<NodeId, std::size_t>;
  ArenaVector<Frame> stack{ArenaAllocator<Frame>(arena)};
  for (NodeId start = 0; start < g.node_count(); ++start) {
    if (visited[static_cast<std::size_t>(start)]) continue;
    visited[static_cast<std::size_t>(start)] = 1;
    stack.push_back({start, 0});
    while (!stack.empty()) {
      auto& [v, cursor] = stack.back();
      auto inc = g.incident(v);
      if (cursor >= inc.size()) {
        stack.pop_back();
        continue;
      }
      const Incidence& step = inc[cursor++];
      if (visited[static_cast<std::size_t>(step.neighbor)]) continue;
      visited[static_cast<std::size_t>(step.neighbor)] = 1;
      tree.push_back(step.edge);
      stack.push_back({step.neighbor, 0});
    }
  }
}

// Union-find for Kruskal.
class Dsu {
 public:
  explicit Dsu(std::size_t n, MonotonicArena* arena = nullptr)
      : parent_(n, NodeId{0}, ArenaAllocator<NodeId>(arena)) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }
  NodeId find(NodeId x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[static_cast<std::size_t>(a)] = b;
    return true;
  }

 private:
  ArenaVector<NodeId> parent_;
};

void random_kruskal_forest_into(const CsrGraph& g, Rng& rng,
                                std::vector<EdgeId>& tree,
                                MonotonicArena* arena) {
  ArenaVector<EdgeId> order(static_cast<std::size_t>(g.edge_count()),
                            EdgeId{0}, ArenaAllocator<EdgeId>(arena));
  std::iota(order.begin(), order.end(), EdgeId{0});
  rng.shuffle(order);
  Dsu dsu(static_cast<std::size_t>(g.node_count()), arena);
  for (EdgeId e : order) {
    const Edge& edge = g.edge(e);
    if (dsu.unite(edge.u, edge.v)) tree.push_back(e);
  }
}

}  // namespace

void spanning_forest(const CsrGraph& g, TreePolicy policy, Rng* rng,
                     std::vector<EdgeId>& out, MonotonicArena* arena) {
  out.clear();
  switch (policy) {
    case TreePolicy::kBfs:
      return bfs_forest_into(g, out, arena);
    case TreePolicy::kDfs:
      return dfs_forest_into(g, out, arena);
    case TreePolicy::kRandom: {
      TGROOM_CHECK_MSG(rng != nullptr, "random tree policy needs an Rng");
      return random_kruskal_forest_into(g, *rng, out, arena);
    }
    case TreePolicy::kMinMaxDegree: {
      out = min_max_degree_forest(g);
      return;
    }
  }
  TGROOM_CHECK_MSG(false, "unknown tree policy");
}

bool is_spanning_forest(const Graph& g,
                        const std::vector<EdgeId>& tree_edges) {
  Dsu dsu(static_cast<std::size_t>(g.node_count()));
  for (EdgeId e : tree_edges) {
    if (e < 0 || e >= g.edge_count()) return false;
    const Edge& edge = g.edge(e);
    if (!dsu.unite(edge.u, edge.v)) return false;  // cycle
  }
  // Acyclic with (n - #components) edges spans every component.
  int components = connected_components(CsrGraph(g)).count;
  return static_cast<int>(tree_edges.size()) ==
         g.node_count() - components;
}

}  // namespace tgroom
