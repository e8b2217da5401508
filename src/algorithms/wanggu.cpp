#include "algorithms/wanggu.hpp"

#include <queue>

#include "algo/components.hpp"
#include "algorithms/workspace.hpp"
#include "graph/properties.hpp"
#include "partition/cover_transform.hpp"

namespace tgroom {

namespace {

// BFS over a masked edge set from `start`; returns (farthest node, via-edge
// array for path recovery).
struct BfsResult {
  NodeId farthest = kInvalidNode;
  std::vector<EdgeId> via;
};

BfsResult masked_bfs(const CsrGraph& g, const std::vector<char>& mask,
                     NodeId start) {
  const auto n = static_cast<std::size_t>(g.node_count());
  BfsResult result;
  result.via.assign(n, kInvalidEdge);
  std::vector<int> dist(n, -1);
  std::queue<NodeId> q;
  dist[static_cast<std::size_t>(start)] = 0;
  q.push(start);
  result.farthest = start;
  int best = 0;
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop();
    for (const Incidence& inc : g.incident(v)) {
      if (!mask[static_cast<std::size_t>(inc.edge)]) continue;
      if (dist[static_cast<std::size_t>(inc.neighbor)] != -1) continue;
      dist[static_cast<std::size_t>(inc.neighbor)] =
          dist[static_cast<std::size_t>(v)] + 1;
      result.via[static_cast<std::size_t>(inc.neighbor)] = inc.edge;
      if (dist[static_cast<std::size_t>(inc.neighbor)] > best) {
        best = dist[static_cast<std::size_t>(inc.neighbor)];
        result.farthest = inc.neighbor;
      }
      q.push(inc.neighbor);
    }
  }
  return result;
}

// BFS spanning-tree mask of the alive subgraph.
std::vector<char> alive_bfs_forest(const CsrGraph& g,
                                   const std::vector<char>& alive) {
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<char> tree(static_cast<std::size_t>(g.edge_count()), 0);
  std::vector<char> visited(n, 0);
  std::queue<NodeId> q;
  for (NodeId start = 0; start < g.node_count(); ++start) {
    if (visited[static_cast<std::size_t>(start)]) continue;
    visited[static_cast<std::size_t>(start)] = 1;
    q.push(start);
    while (!q.empty()) {
      NodeId v = q.front();
      q.pop();
      for (const Incidence& inc : g.incident(v)) {
        if (!alive[static_cast<std::size_t>(inc.edge)]) continue;
        if (visited[static_cast<std::size_t>(inc.neighbor)]) continue;
        visited[static_cast<std::size_t>(inc.neighbor)] = 1;
        tree[static_cast<std::size_t>(inc.edge)] = 1;
        q.push(inc.neighbor);
      }
    }
  }
  return tree;
}

}  // namespace

EdgePartition wanggu_skeleton_cover(const CsrGraph& g, int k,
                                    const GroomingOptions& options,
                                    WangGuTrace* trace,
                                    GroomingWorkspace* workspace) {
  (void)options;  // deterministic peeling
  check_algorithm_input(g, k);

  GroomingWorkspace local;
  GroomingWorkspace& ws = workspace ? *workspace : local;
  ws.prepare_for(g);
  MonotonicArena& arena = ws.arena;
  std::vector<char> alive(static_cast<std::size_t>(g.edge_count()), 1);
  std::size_t alive_count = static_cast<std::size_t>(g.edge_count());
  ArenaSkeletonCover cover{ArenaAllocator<ArenaSkeleton>(&arena)};

  while (alive_count > 0) {
    // One peel pass: a diameter-path skeleton per remaining component.
    std::vector<char> tree = alive_bfs_forest(g, alive);
    std::vector<NodeId> deg = masked_degrees(g, alive);
    std::vector<char> handled(static_cast<std::size_t>(g.node_count()), 0);
    Components comps = connected_components_masked(g, alive);
    std::vector<char> comp_done(static_cast<std::size_t>(comps.count), 0);

    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (deg[static_cast<std::size_t>(v)] == 0) continue;
      auto c =
          static_cast<std::size_t>(comps.label[static_cast<std::size_t>(v)]);
      if (comp_done[c]) continue;
      comp_done[c] = 1;

      // Longest tree path through this component: double BFS on the tree.
      NodeId a = masked_bfs(g, tree, v).farthest;
      BfsResult second = masked_bfs(g, tree, a);
      NodeId b = second.farthest;

      // Recover the backbone walk a..b.
      ArenaWalk backbone(&arena);
      std::vector<EdgeId> rev_edges;
      for (NodeId x = b; x != a;) {
        EdgeId e = second.via[static_cast<std::size_t>(x)];
        rev_edges.push_back(e);
        x = g.edge(e).other(x);
      }
      backbone.nodes.push_back(a);
      for (auto it = rev_edges.rbegin(); it != rev_edges.rend(); ++it) {
        backbone.edges.push_back(*it);
        backbone.nodes.push_back(g.edge(*it).other(backbone.nodes.back()));
      }
      for (EdgeId e : backbone.edges) {
        alive[static_cast<std::size_t>(e)] = 0;
        --alive_count;
      }

      ArenaSkeleton skeleton =
          ArenaSkeleton::from_walk(std::move(backbone), &arena);
      // Attach every remaining edge touching the backbone as a branch.
      const ArenaVector<NodeId>& nodes = skeleton.walk_nodes();
      for (std::size_t pos = 0; pos < nodes.size(); ++pos) {
        NodeId node = nodes[pos];
        if (handled[static_cast<std::size_t>(node)]) continue;
        handled[static_cast<std::size_t>(node)] = 1;
        for (const Incidence& inc : g.incident(node)) {
          if (!alive[static_cast<std::size_t>(inc.edge)]) continue;
          skeleton.add_branch(pos, inc.edge);
          alive[static_cast<std::size_t>(inc.edge)] = 0;
          --alive_count;
        }
      }
      cover.push_back(std::move(skeleton));
    }
  }

  if (trace) {
    trace->cover.clear();
    trace->cover.reserve(cover.size());
    for (const ArenaSkeleton& s : cover) {
      trace->cover.push_back(s.to_skeleton());
    }
  }
  return partition_from_cover(g, cover, k, arena);
}

}  // namespace tgroom
