#include "algo/components.hpp"

#include <algorithm>
#include <queue>

namespace tgroom {

std::vector<std::vector<NodeId>> Components::groups() const {
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(count));
  for (NodeId v = 0; v < static_cast<NodeId>(label.size()); ++v) {
    out[static_cast<std::size_t>(label[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  return out;
}

namespace {
// Flat-frontier BFS: an append-only array with a read head visits nodes in
// exactly the order the classic std::queue form does, but touches one
// contiguous buffer instead of a deque's chunk list.  Labelling (and so
// every caller's output) is unchanged.
Components bfs_components(const CsrGraph& g, const std::vector<char>* mask,
                          MonotonicArena* arena) {
  const auto n = static_cast<std::size_t>(g.node_count());
  Components comp;
  comp.label.assign(n, -1);
  ArenaVector<NodeId> frontier{ArenaAllocator<NodeId>(arena)};
  frontier.reserve(n);
  for (NodeId start = 0; start < g.node_count(); ++start) {
    if (comp.label[static_cast<std::size_t>(start)] != -1) continue;
    int id = comp.count++;
    comp.label[static_cast<std::size_t>(start)] = id;
    std::size_t head = frontier.size();
    frontier.push_back(start);
    while (head < frontier.size()) {
      NodeId v = frontier[head++];
      for (const Incidence& inc : g.incident(v)) {
        if (mask && !(*mask)[static_cast<std::size_t>(inc.edge)]) continue;
        if (comp.label[static_cast<std::size_t>(inc.neighbor)] != -1) continue;
        comp.label[static_cast<std::size_t>(inc.neighbor)] = id;
        frontier.push_back(inc.neighbor);
      }
    }
  }
  return comp;
}
}  // namespace

Components connected_components(const CsrGraph& g, MonotonicArena* arena) {
  return bfs_components(g, nullptr, arena);
}

Components connected_components_masked(const CsrGraph& g,
                                       const std::vector<char>& edge_mask) {
  TGROOM_CHECK(edge_mask.size() == static_cast<std::size_t>(g.edge_count()));
  return bfs_components(g, &edge_mask, nullptr);
}

ComponentSplit split_components(const CsrGraph& g, const Components& comp) {
  const auto n = static_cast<std::size_t>(g.node_count());
  const auto m = static_cast<std::size_t>(g.edge_count());
  const auto count = static_cast<std::size_t>(comp.count);
  TGROOM_CHECK(comp.label.size() == n);

  ComponentSplit split;
  split.node_offset.assign(count + 1, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    ++split.node_offset[static_cast<std::size_t>(
                            comp.label[static_cast<std::size_t>(v)]) +
                        1];
  }
  for (std::size_t c = 0; c < count; ++c) {
    split.node_offset[c + 1] += split.node_offset[c];
  }
  split.nodes.resize(n);
  split.local_node.assign(n, kInvalidNode);
  {
    std::vector<std::size_t> cursor(split.node_offset.begin(),
                                    split.node_offset.end() - 1);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      auto c = static_cast<std::size_t>(comp.label[static_cast<std::size_t>(v)]);
      split.local_node[static_cast<std::size_t>(v)] =
          static_cast<NodeId>(cursor[c] - split.node_offset[c]);
      split.nodes[cursor[c]++] = v;
    }
  }

  split.edge_offset.assign(count + 1, 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    ++split.edge_offset[static_cast<std::size_t>(comp.label[static_cast<std::size_t>(
                            g.edge(e).u)]) +
                        1];
  }
  for (std::size_t c = 0; c < count; ++c) {
    split.edge_offset[c + 1] += split.edge_offset[c];
  }
  split.edges.resize(m);
  {
    std::vector<std::size_t> cursor(split.edge_offset.begin(),
                                    split.edge_offset.end() - 1);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      auto c = static_cast<std::size_t>(
          comp.label[static_cast<std::size_t>(g.edge(e).u)]);
      split.edges[cursor[c]++] = e;
    }
  }
  return split;
}

bool is_connected(const Graph& g) {
  return connected_components(CsrGraph(g)).count <= 1;
}

namespace {
// Unit-capacity max flow via BFS augmentation (Edmonds–Karp).  Each
// undirected edge becomes a pair of directed arcs with capacity 1.
struct UnitFlow {
  struct Arc {
    NodeId to;
    int cap;
  };
  std::vector<Arc> arcs;
  std::vector<std::vector<int>> out;  // per node: arc indices

  explicit UnitFlow(const Graph& g)
      : out(static_cast<std::size_t>(g.node_count())) {
    for (const Edge& e : g.edges()) {
      add_arc(e.u, e.v);
      add_arc(e.v, e.u);
    }
  }

  void add_arc(NodeId from, NodeId to) {
    out[static_cast<std::size_t>(from)].push_back(
        static_cast<int>(arcs.size()));
    arcs.push_back({to, 1});
  }

  int max_flow(NodeId s, NodeId t) {
    int flow = 0;
    const auto n = out.size();
    while (true) {
      std::vector<int> via(n, -1);  // arc used to reach node
      std::vector<char> seen(n, 0);
      std::queue<NodeId> q;
      q.push(s);
      seen[static_cast<std::size_t>(s)] = 1;
      while (!q.empty() && !seen[static_cast<std::size_t>(t)]) {
        NodeId v = q.front();
        q.pop();
        for (int ai : out[static_cast<std::size_t>(v)]) {
          const Arc& a = arcs[static_cast<std::size_t>(ai)];
          if (a.cap == 0 || seen[static_cast<std::size_t>(a.to)]) continue;
          seen[static_cast<std::size_t>(a.to)] = 1;
          via[static_cast<std::size_t>(a.to)] = ai;
          q.push(a.to);
        }
      }
      if (!seen[static_cast<std::size_t>(t)]) break;
      for (NodeId v = t; v != s;) {
        int ai = via[static_cast<std::size_t>(v)];
        arcs[static_cast<std::size_t>(ai)].cap -= 1;
        arcs[static_cast<std::size_t>(ai ^ 1)].cap += 1;
        // paired arcs are adjacent because add_arc is called in pairs
        NodeId from = arcs[static_cast<std::size_t>(ai ^ 1)].to;
        v = from;
      }
      ++flow;
    }
    return flow;
  }
};
}  // namespace

int edge_connectivity(const Graph& g) {
  if (g.node_count() <= 1) return 0;
  if (!is_connected(g)) return 0;
  int best = g.edge_count();
  for (NodeId t = 1; t < g.node_count(); ++t) {
    UnitFlow flow(g);
    best = std::min(best, flow.max_flow(0, t));
    if (best == 0) break;
  }
  return best;
}

}  // namespace tgroom
