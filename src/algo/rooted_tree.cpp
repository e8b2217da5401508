#include "algo/rooted_tree.hpp"

namespace tgroom {

// The tree adjacency is a throwaway touched once per node, so it is built
// as a flat counting-sorted array (offset table + incidence array) rather
// than a vector-of-vectors; per-node order matches the order nodes appear
// in `tree_edges`, preserving the DFS visit order of the old nested form.
// All throwaway scratch draws from `arena` (heap fallback when null).
void root_forest(const CsrGraph& g, const std::vector<EdgeId>& tree_edges,
                 RootedForest& forest, MonotonicArena* arena) {
  const auto n = static_cast<std::size_t>(g.node_count());

  ArenaVector<std::size_t> offset(n + 1, 0, ArenaAllocator<std::size_t>(arena));
  for (EdgeId e : tree_edges) {
    const Edge& edge = g.edge(e);
    ++offset[static_cast<std::size_t>(edge.u) + 1];
    ++offset[static_cast<std::size_t>(edge.v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offset[v + 1] += offset[v];
  ArenaVector<Incidence> inc(2 * tree_edges.size(), Incidence{},
                             ArenaAllocator<Incidence>(arena));
  ArenaVector<std::size_t> cursor(offset.begin(), offset.end() - 1,
                                  ArenaAllocator<std::size_t>(arena));
  for (EdgeId e : tree_edges) {
    const Edge& edge = g.edge(e);
    inc[cursor[static_cast<std::size_t>(edge.u)]++] = Incidence{edge.v, e};
    inc[cursor[static_cast<std::size_t>(edge.v)]++] = Incidence{edge.u, e};
  }

  forest.parent.assign(n, kInvalidNode);
  forest.parent_edge.assign(n, kInvalidEdge);
  forest.root_of.assign(n, kInvalidNode);
  forest.preorder.clear();
  forest.preorder.reserve(n);

  ArenaVector<char> visited(n, 0, ArenaAllocator<char>(arena));
  ArenaVector<NodeId> stack{ArenaAllocator<NodeId>(arena)};
  for (NodeId root = 0; root < g.node_count(); ++root) {
    if (visited[static_cast<std::size_t>(root)]) continue;
    visited[static_cast<std::size_t>(root)] = 1;
    forest.root_of[static_cast<std::size_t>(root)] = root;
    stack.push_back(root);
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      forest.preorder.push_back(v);
      const auto lo = offset[static_cast<std::size_t>(v)];
      const auto hi = offset[static_cast<std::size_t>(v) + 1];
      for (std::size_t i = lo; i < hi; ++i) {
        const Incidence& step = inc[i];
        if (visited[static_cast<std::size_t>(step.neighbor)]) continue;
        visited[static_cast<std::size_t>(step.neighbor)] = 1;
        forest.parent[static_cast<std::size_t>(step.neighbor)] = v;
        forest.parent_edge[static_cast<std::size_t>(step.neighbor)] =
            step.edge;
        forest.root_of[static_cast<std::size_t>(step.neighbor)] = root;
        stack.push_back(step.neighbor);
      }
    }
  }
}

std::vector<long long> subtree_sums(const RootedForest& forest,
                                    const std::vector<long long>& weight) {
  TGROOM_CHECK(weight.size() == forest.parent.size());
  std::vector<long long> total = weight;
  // Children appear after parents in preorder, so a reverse sweep pushes
  // subtree totals upward in one pass.
  for (auto it = forest.preorder.rbegin(); it != forest.preorder.rend();
       ++it) {
    NodeId v = *it;
    NodeId p = forest.parent[static_cast<std::size_t>(v)];
    if (p != kInvalidNode) {
      total[static_cast<std::size_t>(p)] += total[static_cast<std::size_t>(v)];
    }
  }
  return total;
}

void odd_subtree_edges_parity(const RootedForest& forest,
                              const std::vector<std::uint64_t>& parity,
                              std::vector<EdgeId>& out, MonotonicArena* arena) {
  const std::size_t n = forest.parent.size();
  TGROOM_CHECK(parity.size() >= parity_word_count(n));
  ArenaVector<std::uint64_t> total(parity.begin(),
                                   parity.begin() + static_cast<long>(
                                                        parity_word_count(n)),
                                   ArenaAllocator<std::uint64_t>(arena));
  // Same reverse-preorder sweep as the weighted form, with XOR in place of
  // addition: a subtree's parity is the XOR of its nodes' parities.
  for (auto it = forest.preorder.rbegin(); it != forest.preorder.rend();
       ++it) {
    NodeId v = *it;
    NodeId p = forest.parent[static_cast<std::size_t>(v)];
    if (p == kInvalidNode) continue;
    std::uint64_t bit =
        (total[static_cast<std::size_t>(v) >> 6] >>
         (static_cast<std::size_t>(v) & 63)) &
        1;
    total[static_cast<std::size_t>(p) >> 6] ^=
        bit << (static_cast<std::size_t>(p) & 63);
  }
  out.clear();
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    EdgeId pe = forest.parent_edge[static_cast<std::size_t>(v)];
    if (pe == kInvalidEdge) continue;
    if ((total[static_cast<std::size_t>(v) >> 6] >>
         (static_cast<std::size_t>(v) & 63)) &
        1) {
      out.push_back(pe);
    }
  }
}

std::vector<EdgeId> odd_subtree_edges(const RootedForest& forest,
                                      const std::vector<long long>& weight) {
  const std::vector<long long> total = subtree_sums(forest, weight);
  std::vector<EdgeId> odd_edges;
  for (NodeId v = 0; v < static_cast<NodeId>(forest.parent.size()); ++v) {
    EdgeId pe = forest.parent_edge[static_cast<std::size_t>(v)];
    if (pe == kInvalidEdge) continue;
    if (total[static_cast<std::size_t>(v)] % 2 != 0) odd_edges.push_back(pe);
  }
  return odd_edges;
}

}  // namespace tgroom
