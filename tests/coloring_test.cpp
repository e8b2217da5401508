#include <gtest/gtest.h>

#include "algo/edge_coloring.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "gen/regular_graph.hpp"
#include "graph/properties.hpp"

namespace tgroom {
namespace {

TEST(EdgeColoring, EmptyAndSingleEdge) {
  Graph empty(4);
  auto c0 = misra_gries_edge_coloring(CsrGraph(empty));
  EXPECT_EQ(c0.color_count, 0);
  EXPECT_TRUE(is_proper_edge_coloring(empty, c0));

  Graph one(2);
  one.add_edge(0, 1);
  auto c1 = misra_gries_edge_coloring(CsrGraph(one));
  EXPECT_EQ(c1.color_count, 1);
  EXPECT_TRUE(is_proper_edge_coloring(one, c1));
}

TEST(EdgeColoring, PathWithinVizingBound) {
  // Paths are class 1 (χ' = 2) but Misra–Gries only promises Δ+1; it may
  // legitimately use the extra color depending on fan orientation.
  Graph g = path_graph(6);
  auto c = misra_gries_edge_coloring(CsrGraph(g));
  EXPECT_TRUE(is_proper_edge_coloring(g, c));
  EXPECT_LE(c.color_count, 3);
  EXPECT_GE(c.color_count, 2);
}

TEST(EdgeColoring, OddCycleNeedsThreeColors) {
  Graph g = cycle_graph(5);
  auto c = misra_gries_edge_coloring(CsrGraph(g));
  EXPECT_TRUE(is_proper_edge_coloring(g, c));
  EXPECT_EQ(c.color_count, 3);  // Δ+1 is forced for odd cycles
}

TEST(EdgeColoring, StarUsesExactlyDeltaColors) {
  Graph g = star_graph(7);
  auto c = misra_gries_edge_coloring(CsrGraph(g));
  EXPECT_TRUE(is_proper_edge_coloring(g, c));
  EXPECT_EQ(c.color_count, 6);
}

TEST(EdgeColoring, PetersenWithinVizing) {
  Graph g = petersen_graph();  // class 2: chromatic index 4 = Δ+1
  auto c = misra_gries_edge_coloring(CsrGraph(g));
  EXPECT_TRUE(is_proper_edge_coloring(g, c));
  EXPECT_LE(c.color_count, 4);
  EXPECT_GE(c.color_count, 3);
}

TEST(EdgeColoring, RejectsParallelRealEdges) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_THROW(misra_gries_edge_coloring(CsrGraph(g)), CheckError);
}

TEST(EdgeColoring, SkipsVirtualEdges) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2, /*is_virtual=*/true);
  auto c = misra_gries_edge_coloring(CsrGraph(g));
  EXPECT_EQ(c.color[1], -1);
  EXPECT_TRUE(is_proper_edge_coloring(g, c));
}

TEST(EdgeColoringChecker, CatchesConflicts) {
  Graph g = path_graph(3);
  EdgeColoring bad;
  bad.color_count = 1;
  bad.color = {0, 0};  // both edges share node 1
  EXPECT_FALSE(is_proper_edge_coloring(g, bad));
  EdgeColoring uncolored;
  uncolored.color_count = 2;
  uncolored.color = {0, -1};
  EXPECT_FALSE(is_proper_edge_coloring(g, uncolored));
}

class ColoringRandomP
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ColoringRandomP, ProperAndWithinVizingBound) {
  auto [n, m, seed] = GetParam();
  long long cap = static_cast<long long>(n) * (n - 1) / 2;
  Rng rng(static_cast<std::uint64_t>(seed));
  Graph g = random_gnm(static_cast<NodeId>(n), std::min<long long>(m, cap),
                       rng);
  auto c = misra_gries_edge_coloring(CsrGraph(g));
  EXPECT_TRUE(is_proper_edge_coloring(g, c));
  EXPECT_LE(c.color_count, max_degree(g) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Random, ColoringRandomP,
    ::testing::Combine(::testing::Values(10, 20, 36),
                       ::testing::Values(15, 60, 150),
                       ::testing::Values(1, 2, 3, 4)));

class ColoringRegularP : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(ColoringRegularP, RegularGraphsGetAtMostRPlusOne) {
  auto [n, r] = GetParam();
  Rng rng(42);
  Graph g = random_regular(static_cast<NodeId>(n), static_cast<NodeId>(r),
                           rng);
  auto c = misra_gries_edge_coloring(CsrGraph(g));
  EXPECT_TRUE(is_proper_edge_coloring(g, c));
  EXPECT_LE(c.color_count, r + 1);
}

INSTANTIATE_TEST_SUITE_P(Regular, ColoringRegularP,
                         ::testing::Values(std::pair{36, 7}, std::pair{36, 8},
                                           std::pair{36, 15},
                                           std::pair{36, 16},
                                           std::pair{36, 35}));

TEST(EdgeColoring, CompleteBipartiteWithinVizing) {
  // K_{n,n} is class 1 (χ' = Δ); Misra–Gries must stay within Δ+1 and be
  // proper on this maximally constrained family.
  for (NodeId n : {3, 5, 8}) {
    Graph g = complete_bipartite(n, n);
    auto c = misra_gries_edge_coloring(CsrGraph(g));
    EXPECT_TRUE(is_proper_edge_coloring(g, c)) << "K_" << n << "," << n;
    EXPECT_LE(c.color_count, n + 1);
  }
}

TEST(EdgeColoring, CompleteGraphsStress) {
  for (NodeId n : {4, 5, 6, 7, 8, 9}) {
    Graph g = complete_graph(n);
    auto c = misra_gries_edge_coloring(CsrGraph(g));
    EXPECT_TRUE(is_proper_edge_coloring(g, c)) << "K" << n;
    EXPECT_LE(c.color_count, n);  // K_n is (n-1)- or n-edge-chromatic
  }
}

}  // namespace
}  // namespace tgroom
