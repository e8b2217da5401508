#include "algorithms/regular_euler.hpp"

#include <algorithm>

#include "algo/components.hpp"
#include "algo/euler.hpp"
#include "algorithms/workspace.hpp"
#include "graph/properties.hpp"
#include "partition/cover_transform.hpp"
#include "util/rng.hpp"

namespace tgroom {

namespace {

// Everything one run builds its cover with: the workspace scratch and the
// cover itself, on the workspace arena.
struct CoverAssembly {
  GroomingWorkspace& ws;
  ArenaSkeletonCover cover;

  explicit CoverAssembly(GroomingWorkspace& workspace)
      : ws(workspace), cover(ArenaAllocator<ArenaSkeleton>(&workspace.arena)) {}

  // One backbone; records each node's first backbone occurrence for branch
  // attachment.
  void add_backbone(ArenaWalk&& walk) {
    const std::size_t idx = cover.size();
    for (std::size_t pos = 0; pos < walk.nodes.size(); ++pos) {
      auto v = static_cast<std::size_t>(walk.nodes[pos]);
      if (!ws.on_backbone[v]) {
        ws.on_backbone[v] = 1;
        ws.site[v] = GroomingWorkspace::Site{idx, pos};
      }
    }
    cover.push_back(ArenaSkeleton::from_walk(std::move(walk), &ws.arena));
  }

  // The matching edges attach as branches at a backbone endpoint.
  void add_branches(const CsrGraph& g, const std::vector<EdgeId>& matching) {
    for (EdgeId e : matching) {
      const Edge& edge = g.edge(e);
      NodeId anchor;
      if (ws.on_backbone[static_cast<std::size_t>(edge.u)]) {
        anchor = edge.u;
      } else if (ws.on_backbone[static_cast<std::size_t>(edge.v)]) {
        anchor = edge.v;
      } else {
        // Unreachable for r >= 3 (every node keeps degree >= 2 in G-M), but
        // kept as a safe degradation path.
        anchor = edge.u;
        ws.on_backbone[static_cast<std::size_t>(anchor)] = 1;
        ws.site[static_cast<std::size_t>(anchor)] =
            GroomingWorkspace::Site{cover.size(), 0};
        cover.push_back(ArenaSkeleton::single_node(anchor, &ws.arena));
      }
      const auto& s = ws.site[static_cast<std::size_t>(anchor)];
      cover[s.skeleton].add_branch(s.position, e);
    }
  }
};

// Odd r >= 3: matching M, Euler walks of G - M (plus virtual edges when M
// is not perfect), M attached as branches.
void odd_regular_cover(const CsrGraph& g, const GroomingOptions& options,
                       CoverAssembly& assembly, RegularEulerTrace* trace) {
  GroomingWorkspace& ws = assembly.ws;
  MonotonicArena& arena = ws.arena;
  const auto n = static_cast<std::size_t>(g.node_count());
  const auto m = static_cast<std::size_t>(g.edge_count());

  Rng rng(options.seed);
  find_matching(g, options.matching_policy, &rng, ws.matching, &arena);
  std::fill(ws.g2_mask.begin(), ws.g2_mask.end(), 1);
  // odd[v]: v's degree parity in G - M (odd exactly when M misses v).
  ArenaVector<char> odd(n, 1, ArenaAllocator<char>(&arena));
  for (EdgeId e : ws.matching) {
    ws.g2_mask[static_cast<std::size_t>(e)] = 0;
    odd[static_cast<std::size_t>(g.edge(e).u)] = 0;
    odd[static_cast<std::size_t>(g.edge(e).v)] = 0;
  }

  // A perfect M leaves every degree even (r - 1): the walks need neither
  // component labels nor virtual edges.
  const bool perfect = 2 * ws.matching.size() == n;
  const CsrGraph* working = &g;
  int even_components = 0;
  int odd_components = 0;
  ArenaVector<Edge> virtuals{ArenaAllocator<Edge>(&arena)};
  if (!perfect) {
    // Components of G - M with unsaturated (odd, degree-r) nodes are the
    // odd components; note the first two unsaturated nodes of each.
    const Components comps = connected_components_masked(g, ws.g2_mask);
    const auto count = static_cast<std::size_t>(comps.count);
    ArenaVector<NodeId> first(count, kInvalidNode,
                              ArenaAllocator<NodeId>(&arena));
    ArenaVector<NodeId> second(count, kInvalidNode,
                               ArenaAllocator<NodeId>(&arena));
    for (std::size_t v = 0; v < n; ++v) {
      if (!odd[v]) continue;
      const auto c = static_cast<std::size_t>(comps.label[v]);
      if (first[c] == kInvalidNode) {
        first[c] = static_cast<NodeId>(v);
      } else if (second[c] == kInvalidNode) {
        second[c] = static_cast<NodeId>(v);
      }
    }
    auto add_virtual = [&](NodeId a, NodeId b) {
      virtuals.push_back(Edge{a, b, /*is_virtual=*/true});
      odd[static_cast<std::size_t>(a)] ^= 1;
      odd[static_cast<std::size_t>(b)] ^= 1;
    };
    // Chain the odd components into one connected G_odd: the second
    // unsaturated node of each to the first of the next.
    NodeId chain_from = kInvalidNode;
    for (std::size_t c = 0; c < count; ++c) {
      if (first[c] == kInvalidNode) continue;
      TGROOM_DCHECK(second[c] != kInvalidNode);
      ++odd_components;
      if (chain_from != kInvalidNode) add_virtual(chain_from, first[c]);
      chain_from = second[c];
    }
    even_components = comps.count - odd_components;

    // Pair all but the first two of the remaining odd-degree nodes so
    // G_odd has an Euler path.
    std::size_t seen = 0;
    NodeId pending = kInvalidNode;
    for (std::size_t v = 0; v < n; ++v) {
      if (!odd[v] || seen++ < 2) continue;
      if (pending == kInvalidNode) {
        pending = static_cast<NodeId>(v);
      } else {
        virtuals.push_back(Edge{pending, static_cast<NodeId>(v), true});
        pending = kInvalidNode;
      }
    }
    TGROOM_DCHECK(seen >= 2 && seen % 2 == 0);
    if (!virtuals.empty()) {
      // Virtual edges take the ids after g's, as Graph::add_edge gives
      // them, so every incidence list keeps its order.
      ws.csr.rebuild_with(g, virtuals);
      ws.g2_mask.resize(m + virtuals.size(), 1);
      working = &ws.csr;
    }
  }

  // Euler walks: a tour per even component, plus one open path through
  // G_odd whose virtual edges split it into segments.
  ArenaWalkList walks = euler_decomposition(
      *working, ws.g2_mask, arena,
      perfect ? MaskDegrees::kAllEven : MaskDegrees::kAny);
  // G - M has no isolated node (r - 1 >= 2), so with a perfect M every
  // component is even and has exactly one walk.
  if (perfect) even_components = static_cast<int>(walks.size());
  for (ArenaWalk& walk : walks) {
    if (virtuals.empty()) {
      assembly.add_backbone(std::move(walk));
    } else {
      for_each_real_segment(*working, walk, arena, [&](ArenaWalk&& segment) {
        assembly.add_backbone(std::move(segment));
      });
    }
  }
  assembly.add_branches(g, ws.matching);

  if (trace) {
    trace->matching = ws.matching;
    trace->even_components = even_components;
    trace->odd_components = odd_components;
  }
}

}  // namespace

EdgePartition regular_euler(const CsrGraph& g, int k,
                            const GroomingOptions& options,
                            RegularEulerTrace* trace,
                            GroomingWorkspace* workspace) {
  check_algorithm_input(g, k);
  std::optional<NodeId> reg = regularity(g);
  TGROOM_CHECK_MSG(reg.has_value(),
                   "Regular_Euler requires an r-regular traffic graph");
  const NodeId r = *reg;
  if (trace) *trace = RegularEulerTrace{};
  if (trace) trace->r = r;

  EdgePartition empty;
  empty.k = k;
  if (g.edge_count() == 0) return empty;

  GroomingWorkspace local;
  GroomingWorkspace& ws = workspace ? *workspace : local;
  ws.prepare_for(g);
  MonotonicArena& arena = ws.arena;
  CoverAssembly assembly(ws);

  if (r % 2 == 0) {
    // Even r: Euler tour per component, no branches.
    std::fill(ws.g2_mask.begin(), ws.g2_mask.end(), 1);
    for (ArenaWalk& walk : euler_decomposition(g, ws.g2_mask, arena,
                                               MaskDegrees::kAllEven)) {
      assembly.cover.push_back(
          ArenaSkeleton::from_walk(std::move(walk), &arena));
    }
    if (trace) {
      trace->even_components = static_cast<int>(assembly.cover.size());
    }
  } else if (r == 1) {
    // Perfect matching: every edge is its own skeleton; chunking yields the
    // optimal 2 SADMs per demand.
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      ArenaWalk walk(&arena);
      walk.nodes.assign({g.edge(e).u, g.edge(e).v});
      walk.edges.assign(1, e);
      assembly.cover.push_back(
          ArenaSkeleton::from_walk(std::move(walk), &arena));
    }
  } else {
    odd_regular_cover(g, options, assembly, trace);
  }

  if (trace) {
    trace->cover.reserve(assembly.cover.size());
    for (const ArenaSkeleton& s : assembly.cover) {
      trace->cover.push_back(s.to_skeleton());
    }
  }
  return partition_from_cover(g, assembly.cover, k, arena);
}

long long lemma9_cover_bound(NodeId n, NodeId r) {
  TGROOM_CHECK(r >= 3 && r % 2 == 1);
  // ceil(3n / (r+1)) from Lemma 9: s + (n - 2|M|) with s <= 2|M|/r and
  // |M| >= nr/(2(r+1)).
  return (3LL * n + r) / (r + 1);
}

long long regular_euler_cost_bound(NodeId n, NodeId r, long long real_edges,
                                   int k, int components) {
  if (real_edges == 0) return 0;
  if (r % 2 == 0) {
    return prop2_cost_bound(real_edges, k,
                            static_cast<std::size_t>(std::max(1, components)));
  }
  if (r == 1) {
    return 2 * real_edges;
  }
  return prop2_cost_bound(real_edges, k,
                          static_cast<std::size_t>(lemma9_cover_bound(n, r)));
}

}  // namespace tgroom
