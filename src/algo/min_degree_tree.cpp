#include "algo/min_degree_tree.hpp"

#include <algorithm>
#include <queue>

#include "algo/spanning_tree.hpp"

namespace tgroom {

namespace {

// Tree path between u and v inside the masked forest, as edge ids; empty if
// disconnected (cannot happen for endpoints of a non-tree edge).
std::vector<EdgeId> tree_path(const CsrGraph& g,
                              const std::vector<char>& in_tree, NodeId u,
                              NodeId v) {
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<EdgeId> via(n, kInvalidEdge);
  std::vector<char> seen(n, 0);
  std::queue<NodeId> q;
  q.push(u);
  seen[static_cast<std::size_t>(u)] = 1;
  while (!q.empty() && !seen[static_cast<std::size_t>(v)]) {
    NodeId x = q.front();
    q.pop();
    for (const Incidence& inc : g.incident(x)) {
      if (!in_tree[static_cast<std::size_t>(inc.edge)]) continue;
      if (seen[static_cast<std::size_t>(inc.neighbor)]) continue;
      seen[static_cast<std::size_t>(inc.neighbor)] = 1;
      via[static_cast<std::size_t>(inc.neighbor)] = inc.edge;
      q.push(inc.neighbor);
    }
  }
  std::vector<EdgeId> path;
  if (!seen[static_cast<std::size_t>(v)]) return path;
  for (NodeId x = v; x != u;) {
    EdgeId e = via[static_cast<std::size_t>(x)];
    path.push_back(e);
    x = g.edge(e).other(x);
  }
  return path;
}

}  // namespace

std::vector<EdgeId> min_max_degree_forest(const CsrGraph& g) {
  std::vector<EdgeId> tree;
  spanning_forest(g, TreePolicy::kBfs, nullptr, tree, nullptr);
  std::vector<char> in_tree(static_cast<std::size_t>(g.edge_count()), 0);
  std::vector<NodeId> deg(static_cast<std::size_t>(g.node_count()), 0);
  for (EdgeId e : tree) {
    in_tree[static_cast<std::size_t>(e)] = 1;
    ++deg[static_cast<std::size_t>(g.edge(e).u)];
    ++deg[static_cast<std::size_t>(g.edge(e).v)];
  }

  const int iteration_cap = 4 * g.edge_count() + 64;
  for (int iter = 0; iter < iteration_cap; ++iter) {
    NodeId delta = 0;
    for (NodeId v = 0; v < g.node_count(); ++v)
      delta = std::max(delta, deg[static_cast<std::size_t>(v)]);
    if (delta <= 2) break;  // a Hamiltonian path; cannot improve

    bool improved = false;
    for (EdgeId e = 0; e < g.edge_count() && !improved; ++e) {
      if (in_tree[static_cast<std::size_t>(e)]) continue;
      const Edge& cand = g.edge(e);
      // The swap must strictly help: both endpoints stay below Δ after +1.
      if (deg[static_cast<std::size_t>(cand.u)] + 1 >= delta) continue;
      if (deg[static_cast<std::size_t>(cand.v)] + 1 >= delta) continue;
      std::vector<EdgeId> cycle = tree_path(g, in_tree, cand.u, cand.v);
      for (EdgeId path_edge : cycle) {
        const Edge& pe = g.edge(path_edge);
        if (deg[static_cast<std::size_t>(pe.u)] == delta ||
            deg[static_cast<std::size_t>(pe.v)] == delta) {
          in_tree[static_cast<std::size_t>(path_edge)] = 0;
          --deg[static_cast<std::size_t>(pe.u)];
          --deg[static_cast<std::size_t>(pe.v)];
          in_tree[static_cast<std::size_t>(e)] = 1;
          ++deg[static_cast<std::size_t>(cand.u)];
          ++deg[static_cast<std::size_t>(cand.v)];
          improved = true;
          break;
        }
      }
    }
    if (!improved) break;
  }

  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (in_tree[static_cast<std::size_t>(e)]) out.push_back(e);
  }
  return out;
}

NodeId forest_max_degree(const CsrGraph& g,
                         const std::vector<EdgeId>& tree_edges) {
  std::vector<NodeId> deg(static_cast<std::size_t>(g.node_count()), 0);
  NodeId best = 0;
  for (EdgeId e : tree_edges) {
    const Edge& edge = g.edge(e);
    best = std::max(best, ++deg[static_cast<std::size_t>(edge.u)]);
    best = std::max(best, ++deg[static_cast<std::size_t>(edge.v)]);
  }
  return best;
}

}  // namespace tgroom
