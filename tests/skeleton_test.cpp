#include <gtest/gtest.h>

#include "gen/families.hpp"
#include "graph/properties.hpp"
#include "partition/cover_transform.hpp"
#include "partition/skeleton.hpp"
#include "util/rng.hpp"

namespace tgroom {
namespace {

/// Proposition 2 on a heap cover: the skeletons copied onto an arena, then
/// partition_from_cover on a CsrGraph(g) snapshot.
EdgePartition transform(const Graph& g, const SkeletonCover& cover, int k) {
  MonotonicArena arena;
  ArenaSkeletonCover arena_cover{ArenaAllocator<ArenaSkeleton>(&arena)};
  for (const Skeleton& skeleton : cover) {
    ArenaWalk walk(&arena);
    walk.nodes.assign(skeleton.walk_nodes().begin(),
                      skeleton.walk_nodes().end());
    walk.edges.assign(skeleton.walk_edges().begin(),
                      skeleton.walk_edges().end());
    ArenaSkeleton copy = ArenaSkeleton::from_walk(std::move(walk), &arena);
    for (std::size_t pos = 0; pos < skeleton.branches_at().size(); ++pos) {
      for (EdgeId e : skeleton.branches_at()[pos]) copy.add_branch(pos, e);
    }
    arena_cover.push_back(std::move(copy));
  }
  return partition_from_cover(CsrGraph(g), arena_cover, k, arena);
}

/// A caterpillar skeleton on the path 0-1-2-3 with legs.
struct Fixture {
  Graph g;
  Skeleton skeleton;

  Fixture() : g(8) {
    EdgeId e01 = g.add_edge(0, 1);
    EdgeId e12 = g.add_edge(1, 2);
    EdgeId e23 = g.add_edge(2, 3);
    EdgeId leg0 = g.add_edge(0, 4);
    EdgeId leg1a = g.add_edge(1, 5);
    EdgeId leg1b = g.add_edge(1, 6);
    EdgeId leg3 = g.add_edge(3, 7);
    Walk walk{{0, 1, 2, 3}, {e01, e12, e23}};
    skeleton = Skeleton::from_walk(walk);
    skeleton.add_branch(0, leg0);
    skeleton.add_branch(1, leg1a);
    skeleton.add_branch(1, leg1b);
    skeleton.add_branch(3, leg3);
  }
};

TEST(Skeleton, SizeAndOrder) {
  Fixture f;
  EXPECT_EQ(f.skeleton.size(), 7u);
  EXPECT_TRUE(f.skeleton.validate(f.g));
  auto order = f.skeleton.canonical_order();
  ASSERT_EQ(order.size(), 7u);
  // Canonical order: leg0, e01, leg1a, leg1b, e12, e23, leg3.
  EXPECT_EQ(order[0], 3);  // leg0
  EXPECT_EQ(order[1], 0);  // e01
  EXPECT_EQ(order[4], 1);  // e12
  EXPECT_EQ(order[6], 6);  // leg3
}

TEST(Skeleton, EveryPrefixOfCanonicalOrderIsConnected) {
  Fixture f;
  auto order = f.skeleton.canonical_order();
  for (std::size_t len = 1; len <= order.size(); ++len) {
    std::vector<EdgeId> prefix(order.begin(),
                               order.begin() + static_cast<long>(len));
    // Connected subgraph with e edges spans at most e+1 nodes.
    EXPECT_LE(spanned_node_count(f.g, prefix), static_cast<NodeId>(len + 1));
  }
}

TEST(Skeleton, EveryContiguousRangeSpansAtMostLenPlusOne) {
  Fixture f;
  auto order = f.skeleton.canonical_order();
  for (std::size_t lo = 0; lo < order.size(); ++lo) {
    for (std::size_t hi = lo + 1; hi <= order.size(); ++hi) {
      std::vector<EdgeId> range(order.begin() + static_cast<long>(lo),
                                order.begin() + static_cast<long>(hi));
      EXPECT_LE(spanned_node_count(f.g, range),
                static_cast<NodeId>(hi - lo + 1));
    }
  }
}

TEST(Skeleton, SingleNode) {
  Graph g(2);
  EdgeId e = g.add_edge(0, 1);
  Skeleton s = Skeleton::single_node(0);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
  s.add_branch(0, e);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.validate(g));
}

TEST(Skeleton, ValidateRejectsDetachedBranch) {
  Graph g(4);
  EdgeId e01 = g.add_edge(0, 1);
  EdgeId e23 = g.add_edge(2, 3);
  Walk walk{{0, 1}, {e01}};
  Skeleton s = Skeleton::from_walk(walk);
  s.add_branch(0, e23);  // neither endpoint is node 0
  EXPECT_FALSE(s.validate(g));
}

TEST(Skeleton, ValidateRejectsDuplicateEdge) {
  Graph g(3);
  EdgeId e01 = g.add_edge(0, 1);
  Walk walk{{0, 1}, {e01}};
  Skeleton s = Skeleton::from_walk(walk);
  s.add_branch(0, e01);
  EXPECT_FALSE(s.validate(g));
}

TEST(Skeleton, ClosedWalkBackbone) {
  Graph g = cycle_graph(4);
  Walk walk{{0, 1, 2, 3, 0}, {0, 1, 2, 3}};
  Skeleton s = Skeleton::from_walk(walk);
  EXPECT_TRUE(s.validate(g));
  EXPECT_EQ(s.size(), 4u);
}

TEST(ArenaSkeleton, FlatBranchesKeepTheCanonicalOrder) {
  // Random covers whose branches attach in scrambled position order:
  // every arena skeleton's counting-sort order must equal the nested
  // heap skeleton built by the same calls, and its own to_skeleton()
  // copy; partition_from_cover must chunk the heap canonical orders.
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    MonotonicArena arena;
    ArenaSkeletonCover cover{ArenaAllocator<ArenaSkeleton>(&arena)};
    SkeletonCover heap_cover;
    EdgeId next_edge = 0;
    const auto skeletons = rng.uniform_int(1, 6);
    for (long long sk = 0; sk < skeletons; ++sk) {
      // Backbone edge ids and node ids are arbitrary here: the canonical
      // order depends only on positions and attachment order.
      const auto length = static_cast<std::size_t>(rng.uniform_int(0, 12));
      ArenaWalk walk(&arena);
      Walk heap_walk;
      for (std::size_t pos = 0; pos <= length; ++pos) {
        walk.nodes.push_back(static_cast<NodeId>(pos));
        heap_walk.nodes.push_back(static_cast<NodeId>(pos));
      }
      for (std::size_t i = 0; i < length; ++i) {
        walk.edges.push_back(next_edge);
        heap_walk.edges.push_back(next_edge++);
      }
      ArenaSkeleton arena_skeleton =
          ArenaSkeleton::from_walk(std::move(walk), &arena);
      Skeleton heap_skeleton = Skeleton::from_walk(std::move(heap_walk));
      const auto branches = rng.uniform_int(0, 20);
      for (long long b = 0; b < branches; ++b) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<long long>(length)));
        arena_skeleton.add_branch(pos, next_edge);
        heap_skeleton.add_branch(pos, next_edge++);
      }
      std::vector<EdgeId> order(arena_skeleton.size());
      arena_skeleton.write_canonical_order(order.data(), arena);
      EXPECT_EQ(order, heap_skeleton.canonical_order());
      EXPECT_EQ(order, arena_skeleton.to_skeleton().canonical_order());
      cover.push_back(std::move(arena_skeleton));
      heap_cover.push_back(std::move(heap_skeleton));
    }
    Graph g(2);
    for (EdgeId e = 0; e < next_edge; ++e) g.add_edge(0, 1);
    const CsrGraph csr(g);
    const int k = static_cast<int>(rng.uniform_int(1, 9));
    std::vector<EdgeId> heap_order;
    for (const Skeleton& skeleton : heap_cover) {
      for (EdgeId e : skeleton.canonical_order()) heap_order.push_back(e);
    }
    EXPECT_EQ(partition_from_cover(csr, cover, k, arena).parts,
              FlatParts::chunks(std::move(heap_order), k));
  }
}

TEST(Proposition1, SplitsAtEveryPoint) {
  Fixture f;
  for (std::size_t t = 0; t <= f.skeleton.size(); ++t) {
    auto [first, second] = split_skeleton(f.g, f.skeleton, t);
    EXPECT_EQ(first.size(), t) << "t=" << t;
    EXPECT_EQ(second.size(), f.skeleton.size() - t) << "t=" << t;
    EXPECT_TRUE(first.validate(f.g)) << "t=" << t;
    EXPECT_TRUE(second.validate(f.g)) << "t=" << t;
    // The two halves partition the skeleton's edges.
    std::vector<char> seen(static_cast<std::size_t>(f.g.edge_count()), 0);
    for (EdgeId e : first.canonical_order()) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(e)]);
      seen[static_cast<std::size_t>(e)] = 1;
    }
    for (EdgeId e : second.canonical_order()) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(e)]);
      seen[static_cast<std::size_t>(e)] = 1;
    }
    std::size_t covered = 0;
    for (char c : seen) covered += static_cast<std::size_t>(c);
    EXPECT_EQ(covered, f.skeleton.size());
  }
}

TEST(Proposition1, SplitsClosedWalkBackbone) {
  // Circuit backbone (node 0 appears twice): splits must stay valid at
  // every cut point, including cuts at the repeated node.
  Graph g = cycle_graph(5);
  Walk walk{{0, 1, 2, 3, 4, 0}, {0, 1, 2, 3, 4}};
  Skeleton s = Skeleton::from_walk(walk);
  for (std::size_t t = 0; t <= s.size(); ++t) {
    auto [first, second] = split_skeleton(g, s, t);
    EXPECT_TRUE(first.validate(g)) << "t=" << t;
    EXPECT_TRUE(second.validate(g)) << "t=" << t;
    EXPECT_EQ(first.size() + second.size(), s.size());
  }
}

TEST(Proposition1, SplitWithBranchesAtRepeatedNode) {
  // Branches attached at the second occurrence of the repeated node.
  Graph g(6);
  EdgeId e01 = g.add_edge(0, 1);
  EdgeId e12 = g.add_edge(1, 2);
  EdgeId e20 = g.add_edge(2, 0);
  EdgeId leg = g.add_edge(0, 5);
  Walk walk{{0, 1, 2, 0}, {e01, e12, e20}};
  Skeleton s = Skeleton::from_walk(walk);
  s.add_branch(3, leg);  // at the closing occurrence of node 0
  EXPECT_TRUE(s.validate(g));
  for (std::size_t t = 0; t <= s.size(); ++t) {
    auto [first, second] = split_skeleton(g, s, t);
    EXPECT_TRUE(first.validate(g)) << "t=" << t;
    EXPECT_TRUE(second.validate(g)) << "t=" << t;
  }
}

TEST(Proposition1, SplitRejectsOutOfRange) {
  Fixture f;
  EXPECT_THROW(split_skeleton(f.g, f.skeleton, f.skeleton.size() + 1),
               CheckError);
}

TEST(Proposition2, TransformProducesMinWavelengthPartition) {
  Fixture f;
  SkeletonCover cover{f.skeleton};
  for (int k = 1; k <= 8; ++k) {
    EdgePartition p = transform(f.g, cover, k);
    EXPECT_TRUE(validate_partition(f.g, p).ok) << "k=" << k;
    EXPECT_TRUE(uses_min_wavelengths(f.g, p)) << "k=" << k;
    // All parts except possibly the last have exactly k edges.
    for (std::size_t i = 0; i + 1 < p.parts.size(); ++i) {
      EXPECT_EQ(p.parts[i].size(), static_cast<std::size_t>(k));
    }
    EXPECT_LE(sadm_cost(f.g, p),
              prop2_cost_bound(f.g.real_edge_count(), k, cover.size()));
  }
}

TEST(Proposition2, MultiSkeletonCoverRespectsBound) {
  Graph g(9);
  // Two disjoint caterpillars.
  EdgeId a01 = g.add_edge(0, 1);
  EdgeId a12 = g.add_edge(1, 2);
  EdgeId legA = g.add_edge(1, 3);
  EdgeId b45 = g.add_edge(4, 5);
  EdgeId b56 = g.add_edge(5, 6);
  EdgeId legB = g.add_edge(5, 7);
  Skeleton s1 = Skeleton::from_walk(Walk{{0, 1, 2}, {a01, a12}});
  s1.add_branch(1, legA);
  Skeleton s2 = Skeleton::from_walk(Walk{{4, 5, 6}, {b45, b56}});
  s2.add_branch(1, legB);
  SkeletonCover cover{s1, s2};
  EXPECT_TRUE(validate_cover(g, cover));
  EXPECT_TRUE(cover_spans_all_edges(g, cover));
  for (int k = 1; k <= 6; ++k) {
    EdgePartition p = transform(g, cover, k);
    EXPECT_TRUE(validate_partition(g, p).ok);
    EXPECT_LE(sadm_cost(g, p),
              prop2_cost_bound(g.real_edge_count(), k, cover.size()));
  }
}

TEST(Proposition2, RejectsVirtualEdgesInCover) {
  Graph g(3);
  g.add_edge(0, 1);
  EdgeId v = g.add_edge(1, 2, /*is_virtual=*/true);
  Skeleton s = Skeleton::from_walk(Walk{{1, 2}, {v}});
  EXPECT_THROW(transform(g, {s}, 2), CheckError);
}

TEST(CoverValidation, DetectsOverlap) {
  Graph g = path_graph(3);
  Skeleton s1 = Skeleton::from_walk(Walk{{0, 1}, {0}});
  Skeleton s2 = Skeleton::from_walk(Walk{{0, 1, 2}, {0, 1}});
  EXPECT_FALSE(validate_cover(g, {s1, s2}));
  EXPECT_FALSE(cover_spans_all_edges(g, {s1}));
}

TEST(Prop2Bound, Formula) {
  // m=10, k=4 -> W=3; cover size 2 -> 10 + 3 + 1 = 14.
  EXPECT_EQ(prop2_cost_bound(10, 4, 2), 14);
  EXPECT_EQ(prop2_cost_bound(0, 4, 1), 0);
  EXPECT_EQ(prop2_cost_bound(6, 3, 1), 8);
}

}  // namespace
}  // namespace tgroom
