#include "algorithms/brauner.hpp"

#include <algorithm>

#include "algo/components.hpp"
#include "algo/euler.hpp"
#include "algorithms/workspace.hpp"
#include "partition/cover_transform.hpp"

namespace tgroom {

EdgePartition brauner_euler(const CsrGraph& g, int k,
                            const GroomingOptions& options,
                            BraunerTrace* trace,
                            GroomingWorkspace* workspace) {
  (void)options;  // deterministic pairing in edge-list order
  check_algorithm_input(g, k);
  if (trace) *trace = BraunerTrace{};
  EdgePartition partition;
  partition.k = k;
  if (g.edge_count() == 0) return partition;

  GroomingWorkspace local;
  GroomingWorkspace& ws = workspace ? *workspace : local;
  ws.prepare_for(g);
  MonotonicArena& arena = ws.arena;
  const auto n = static_cast<std::size_t>(g.node_count());
  const auto m = static_cast<std::size_t>(g.edge_count());

  // deg[v]: v's degree counting the virtual edges added so far.
  ArenaVector<NodeId> deg(n, 0, ArenaAllocator<NodeId>(&arena));
  for (std::size_t v = 0; v < n; ++v) deg[v] = g.degree(static_cast<NodeId>(v));
  ArenaVector<Edge> virtuals{ArenaAllocator<Edge>(&arena)};
  auto add_virtual = [&](NodeId a, NodeId b) {
    virtuals.push_back(Edge{a, b, /*is_virtual=*/true});
    ++deg[static_cast<std::size_t>(a)];
    ++deg[static_cast<std::size_t>(b)];
  };

  // Two ports per edge-bearing component: its first two odd-degree nodes,
  // or, for a circuit component, its first node used for both.  Then chain
  // the components into one, each second port to the next first port.
  const Components comps = connected_components(g, &arena);
  const auto count = static_cast<std::size_t>(comps.count);
  ArenaVector<NodeId> first_odd(count, kInvalidNode,
                                ArenaAllocator<NodeId>(&arena));
  ArenaVector<NodeId> second_odd(count, kInvalidNode,
                                 ArenaAllocator<NodeId>(&arena));
  ArenaVector<NodeId> any_active(count, kInvalidNode,
                                 ArenaAllocator<NodeId>(&arena));
  for (std::size_t v = 0; v < n; ++v) {
    if (deg[v] == 0) continue;
    const auto c = static_cast<std::size_t>(comps.label[v]);
    if (deg[v] % 2 == 1) {
      if (first_odd[c] == kInvalidNode) {
        first_odd[c] = static_cast<NodeId>(v);
      } else if (second_odd[c] == kInvalidNode) {
        second_odd[c] = static_cast<NodeId>(v);
      }
    }
    if (any_active[c] == kInvalidNode) any_active[c] = static_cast<NodeId>(v);
  }
  NodeId chain_from = kInvalidNode;
  for (std::size_t c = 0; c < count; ++c) {
    if (any_active[c] == kInvalidNode) continue;  // isolated node
    // A component has an even number of odd nodes, so 0 or at least 2.
    const bool open = second_odd[c] != kInvalidNode;
    if (chain_from != kInvalidNode) {
      add_virtual(chain_from, open ? first_odd[c] : any_active[c]);
    }
    chain_from = open ? second_odd[c] : any_active[c];
  }

  // Pair all but the first two of the remaining odd-degree nodes, leaving
  // those two as the ends of one open Euler path.
  std::size_t seen = 0;
  NodeId pending = kInvalidNode;
  for (std::size_t v = 0; v < n; ++v) {
    if (deg[v] % 2 == 0 || seen++ < 2) continue;
    if (pending == kInvalidNode) {
      pending = static_cast<NodeId>(v);
    } else {
      virtuals.push_back(Edge{pending, static_cast<NodeId>(v), true});
      pending = kInvalidNode;
    }
  }
  TGROOM_DCHECK(seen % 2 == 0);

  // One Euler walk over everything; cut at the virtual edges and chunk.
  // Virtual edges take the ids after g's, so incidence order is kept.
  const CsrGraph* working = &g;
  if (!virtuals.empty()) {
    ws.csr.rebuild_with(g, virtuals);
    working = &ws.csr;
  }
  std::fill(ws.g2_mask.begin(), ws.g2_mask.end(), 1);
  ws.g2_mask.resize(m + virtuals.size(), 1);
  ArenaWalkList walks = euler_decomposition(*working, ws.g2_mask, arena);
  TGROOM_DCHECK(walks.size() == 1);
  ArenaSkeletonCover cover{ArenaAllocator<ArenaSkeleton>(&arena)};
  for (const ArenaWalk& walk : walks) {
    for_each_real_segment(*working, walk, arena, [&](ArenaWalk&& segment) {
      cover.push_back(ArenaSkeleton::from_walk(std::move(segment), &arena));
    });
  }
  if (trace) {
    trace->virtual_edges = static_cast<int>(virtuals.size());
    trace->segments = static_cast<int>(cover.size());
  }
  return partition_from_cover(g, cover, k, arena);
}

}  // namespace tgroom
