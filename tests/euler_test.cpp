#include <gtest/gtest.h>

#include <set>

#include "algo/euler.hpp"
#include "algo/rooted_tree.hpp"
#include "algo/spanning_tree.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "gen/regular_graph.hpp"
#include "graph/properties.hpp"
#include "test_graphs.hpp"

namespace tgroom {
namespace {

std::vector<char> full_mask(const Graph& g) {
  return std::vector<char>(static_cast<std::size_t>(g.edge_count()), 1);
}

// The decomposition of a CsrGraph(g) snapshot, copied into heap walks for
// is_valid_walk.
std::vector<Walk> decompose(const Graph& g, const std::vector<char>& mask) {
  MonotonicArena arena;
  std::vector<Walk> walks;
  for (const ArenaWalk& w : euler_decomposition(CsrGraph(g), mask, arena)) {
    walks.push_back(Walk{{w.nodes.begin(), w.nodes.end()},
                         {w.edges.begin(), w.edges.end()}});
  }
  return walks;
}

// for_each_real_segment's segments of `walk`, as heap walks.
std::vector<Walk> real_segments(const Graph& g, const Walk& walk) {
  MonotonicArena arena;
  ArenaWalk arena_walk(&arena);
  arena_walk.nodes.assign(walk.nodes.begin(), walk.nodes.end());
  arena_walk.edges.assign(walk.edges.begin(), walk.edges.end());
  std::vector<Walk> segments;
  for_each_real_segment(CsrGraph(g), arena_walk, arena, [&](ArenaWalk&& w) {
    segments.push_back(Walk{{w.nodes.begin(), w.nodes.end()},
                            {w.edges.begin(), w.edges.end()}});
  });
  return segments;
}

TEST(Euler, CycleHasCircuit) {
  Graph g = cycle_graph(6);
  auto walks = decompose(g, full_mask(g));
  ASSERT_EQ(walks.size(), 1u);
  EXPECT_EQ(walks[0].edges.size(), 6u);
  EXPECT_EQ(walks[0].nodes.front(), walks[0].nodes.back());  // closed
  EXPECT_TRUE(is_valid_walk(g, walks[0]));
}

TEST(Euler, PathHasOpenWalk) {
  Graph g = path_graph(5);
  auto walks = decompose(g, full_mask(g));
  ASSERT_EQ(walks.size(), 1u);
  EXPECT_EQ(walks[0].edges.size(), 4u);
  EXPECT_NE(walks[0].nodes.front(), walks[0].nodes.back());
}

TEST(Euler, StartsAtOddNodeWhenPresent) {
  Graph g = path_graph(4);
  auto walks = decompose(g, full_mask(g));
  ASSERT_EQ(walks.size(), 1u);
  NodeId start = walks[0].nodes.front();
  EXPECT_TRUE(start == 0 || start == 3);
}

TEST(Euler, StarWithThreeLeavesRejected) {
  Graph g = star_graph(4);  // 4 odd-degree nodes
  EXPECT_THROW(decompose(g, full_mask(g)), CheckError);
}

TEST(Euler, WalkFromWrongStartRejected) {
  Graph g = path_graph(4);
  // Node 1 is a mid-point (even degree), start there -> invalid walk.
  EXPECT_THROW(euler_walk_from(CsrGraph(g), full_mask(g), 1), CheckError);
}

TEST(Euler, SingleNodeComponentGivesTrivialWalk) {
  Graph g(3);
  g.add_edge(0, 1);
  auto walk = euler_walk_from(CsrGraph(g), full_mask(g), 2);
  EXPECT_TRUE(walk.empty());
  EXPECT_EQ(walk.nodes, (std::vector<NodeId>{2}));
}

TEST(Euler, MultipleComponents) {
  Graph g(9);
  // Triangle 0-1-2, square 3-4-5-6, isolated edgeless 7, 8.
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  g.add_edge(6, 3);
  auto walks = decompose(g, full_mask(g));
  EXPECT_EQ(walks.size(), 2u);
  std::size_t total = 0;
  for (const auto& w : walks) total += w.edges.size();
  EXPECT_EQ(total, 7u);
}

TEST(Euler, MaskRestrictsEdges) {
  Graph g = complete_graph(4);  // all degrees 3 (odd)
  // Mask to a 4-cycle 0-1-2-3: edges {0,1},{1,2},{2,3},{0,3}.
  std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 0);
  auto set_pair = [&](NodeId a, NodeId b) {
    mask[static_cast<std::size_t>(g.find_edge(a, b))] = 1;
  };
  set_pair(0, 1);
  set_pair(1, 2);
  set_pair(2, 3);
  set_pair(0, 3);
  auto walks = decompose(g, mask);
  ASSERT_EQ(walks.size(), 1u);
  EXPECT_EQ(walks[0].edges.size(), 4u);
}

TEST(Euler, HandlesParallelVirtualEdges) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1, /*is_virtual=*/true);
  auto walks = decompose(g, full_mask(g));
  ASSERT_EQ(walks.size(), 1u);
  EXPECT_EQ(walks[0].edges.size(), 2u);
}

TEST(Euler, ValidWalkChecker) {
  Graph g = path_graph(3);
  Walk good{{0, 1, 2}, {0, 1}};
  EXPECT_TRUE(is_valid_walk(g, good));
  Walk wrong_nodes{{0, 2, 1}, {0, 1}};
  EXPECT_FALSE(is_valid_walk(g, wrong_nodes));
  Walk repeated_edge{{0, 1, 0}, {0, 0}};
  EXPECT_FALSE(is_valid_walk(g, repeated_edge));
  Walk size_mismatch{{0, 1}, {0, 1}};
  EXPECT_FALSE(is_valid_walk(g, size_mismatch));
  Walk empty{{}, {}};
  EXPECT_FALSE(is_valid_walk(g, empty));
}

TEST(Euler, SplitWalkOnVirtual) {
  Graph g(5);
  EdgeId e01 = g.add_edge(0, 1);
  EdgeId e12 = g.add_edge(1, 2, /*is_virtual=*/true);
  EdgeId e23 = g.add_edge(2, 3);
  EdgeId e34 = g.add_edge(3, 4);
  Walk walk{{0, 1, 2, 3, 4}, {e01, e12, e23, e34}};
  auto segments = real_segments(g, walk);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].edges, (std::vector<EdgeId>{e01}));
  EXPECT_EQ(segments[1].edges, (std::vector<EdgeId>{e23, e34}));
  EXPECT_EQ(segments[1].nodes, (std::vector<NodeId>{2, 3, 4}));
}

TEST(Euler, SplitWalkDropsEmptySegments) {
  Graph g(4);
  EdgeId v01 = g.add_edge(0, 1, true);
  EdgeId v12 = g.add_edge(1, 2, true);
  EdgeId e23 = g.add_edge(2, 3);
  Walk walk{{0, 1, 2, 3}, {v01, v12, e23}};
  auto segments = real_segments(g, walk);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].edges, (std::vector<EdgeId>{e23}));
}

class EulerRandomP : public ::testing::TestWithParam<int> {};

TEST_P(EulerRandomP, EvenRegularGraphsDecomposeFully) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Graph g = random_regular(20, 4, rng);
  auto walks = decompose(g, full_mask(g));
  std::set<EdgeId> used;
  for (const auto& w : walks) {
    EXPECT_TRUE(is_valid_walk(g, w));
    for (EdgeId e : w.edges) EXPECT_TRUE(used.insert(e).second);
  }
  EXPECT_EQ(used.size(), static_cast<std::size_t>(g.edge_count()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EulerRandomP, ::testing::Range(0, 8));

// A random graph of several components of different densities, some
// isolated nodes between them, and node ids interleaved across components.
Graph scattered_graph(Rng& rng) {
  const NodeId n = 40 + static_cast<NodeId>(rng.below(80));
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  Graph g(n);
  NodeId next = 0;
  while (next < n) {
    const NodeId size = std::min<NodeId>(
        n - next, 1 + static_cast<NodeId>(rng.below(30)));
    const double p = 0.05 + 0.5 * rng.uniform01();
    for (NodeId a = 0; a < size; ++a) {
      for (NodeId b = a + 1; b < size; ++b) {
        if (!rng.chance(p)) continue;
        g.add_edge(perm[static_cast<std::size_t>(next + a)],
                   perm[static_cast<std::size_t>(next + b)]);
      }
    }
    next += size;
  }
  return g;
}

// An even mask of g: a random edge subset S, made even by Lemma 4 (XOR
// the tree edges with an odd count of S-odd nodes below them).  `density`
// near 0 leaves many components edgeless.
std::vector<char> random_even_mask(const Graph& g, double density,
                                   Rng& rng) {
  std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 0);
  std::vector<long long> odd(static_cast<std::size_t>(g.node_count()), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!rng.chance(density)) continue;
    mask[static_cast<std::size_t>(e)] = 1;
    odd[static_cast<std::size_t>(g.edge(e).u)] ^= 1;
    odd[static_cast<std::size_t>(g.edge(e).v)] ^= 1;
  }
  const CsrGraph csr(g);
  const RootedForest forest = rooted(csr, forest_of(csr, TreePolicy::kBfs));
  for (EdgeId e : odd_subtree_edges(forest, odd)) {
    mask[static_cast<std::size_t>(e)] ^= 1;
  }
  return mask;
}

void expect_same_walks(const ArenaWalkList& actual,
                       const std::vector<Walk>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(std::equal(actual[i].nodes.begin(), actual[i].nodes.end(),
                           expected[i].nodes.begin(), expected[i].nodes.end()))
        << "walk " << i;
    EXPECT_TRUE(std::equal(actual[i].edges.begin(), actual[i].edges.end(),
                           expected[i].edges.begin(), expected[i].edges.end()))
        << "walk " << i;
  }
}

TEST(EulerLabelFree, EqualsLabelledWalksOnRandomEvenMasks) {
  Rng rng(4242);
  int multi_walk = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = scattered_graph(rng);
    const CsrGraph csr(g);
    const double density = trial % 3 == 0 ? 0.05 : rng.uniform01();
    const std::vector<char> mask = random_even_mask(g, density, rng);
    for (NodeId d : masked_degrees(g, mask)) ASSERT_EQ(d % 2, 0);

    // The labelled decomposition is the reference.
    const std::vector<Walk> expected = decompose(g, mask);
    MonotonicArena arena;
    const ArenaWalkList label_free =
        euler_decomposition(csr, mask, arena, MaskDegrees::kAllEven);
    expect_same_walks(label_free, expected);

    std::size_t streamed = 0;
    euler_decomposition_stream(
        csr, mask, arena,
        [&](const ArenaWalk& walk) {
          ASSERT_LT(streamed, expected.size());
          EXPECT_TRUE(std::equal(walk.edges.begin(), walk.edges.end(),
                                 expected[streamed].edges.begin(),
                                 expected[streamed].edges.end()));
          ++streamed;
        },
        MaskDegrees::kAllEven);
    EXPECT_EQ(streamed, expected.size());
    if (expected.size() > 1) ++multi_walk;
  }
  EXPECT_GT(multi_walk, 20);  // the generator reaches disconnected masks
}

TEST(EulerLabelFree, RejectsMasksWithOddNodes) {
  MonotonicArena arena;
  for (const Graph& g : {path_graph(5), star_graph(4), complete_graph(4)}) {
    const CsrGraph csr(g);
    EXPECT_THROW(
        euler_decomposition(csr, full_mask(g), arena, MaskDegrees::kAllEven),
        CheckError);
  }
  // Two triangles joined by a path: even nodes first, odd nodes later.
  Graph g(8);
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4},
                      {5, 6}, {6, 7}, {7, 5}, {4, 5}}) {
    g.add_edge(u, v);
  }
  std::vector<char> mask = full_mask(g);
  mask[static_cast<std::size_t>(g.find_edge(4, 5))] = 0;  // 2 and 4 odd
  EXPECT_THROW(euler_decomposition(CsrGraph(g), mask, arena,
                                   MaskDegrees::kAllEven),
               CheckError);
}

TEST(EulerLabelled, HandlesClosedAndOpenComponents) {
  // Components: a square (closed), a path 4-5-6-7 (open, two odd nodes),
  // an isolated node, a triangle with a pendant path (open), a bowtie
  // (closed, start at its lowest node).
  Graph g(18);
  for (auto [u, v] :
       {std::pair{9, 1}, {1, 2}, {2, 3}, {3, 9}, {4, 5}, {5, 6}, {6, 7},
        {10, 11}, {11, 12}, {12, 10}, {12, 13}, {13, 14}, {15, 16},
        {16, 0}, {0, 15}, {0, 17}, {17, 8}, {8, 0}}) {
    g.add_edge(u, v);
  }
  const CsrGraph csr(g);
  MonotonicArena arena;
  const ArenaWalkList actual =
      euler_decomposition(csr, full_mask(g), arena, MaskDegrees::kAny);
  ASSERT_EQ(actual.size(), 4u);
  // Walks come out by their component's lowest node: 0, 1, 4, 10.
  EXPECT_EQ(actual[0].nodes.front(), 0);   // bowtie: closed at 0
  EXPECT_EQ(actual[0].nodes.back(), 0);
  EXPECT_EQ(actual[1].nodes.front(), 1);   // square: closed at 1
  EXPECT_EQ(actual[1].nodes.back(), 1);
  EXPECT_EQ(actual[2].nodes.front(), 7);   // path: the last odd node starts
  EXPECT_EQ(actual[2].nodes.back(), 4);
  EXPECT_EQ(actual[3].nodes.front(), 14);  // triangle + tail: open
  EXPECT_EQ(actual[3].nodes.back(), 12);
  for (const ArenaWalk& walk : actual) {
    Walk heap;
    heap.nodes.assign(walk.nodes.begin(), walk.nodes.end());
    heap.edges.assign(walk.edges.begin(), walk.edges.end());
    EXPECT_TRUE(is_valid_walk(g, heap));
  }
}

}  // namespace
}  // namespace tgroom
