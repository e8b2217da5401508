#include <gtest/gtest.h>

#include "algorithms/brauner.hpp"
#include "algorithms/goldschmidt.hpp"
#include "algorithms/wanggu.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "graph/properties.hpp"
#include "partition/skeleton.hpp"

namespace tgroom {
namespace {

void expect_valid(const Graph& g, const EdgePartition& p) {
  auto v = validate_partition(g, p);
  EXPECT_TRUE(v.ok) << v.reason;
}

class BaselineP
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {
 protected:
  Graph make_graph() const {
    auto [seed, dense, n] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed));
    return random_dense_ratio(static_cast<NodeId>(n), dense, rng);
  }
};

TEST_P(BaselineP, GoldschmidtValidMinWavelengths) {
  Graph g = make_graph();
  for (int k : {3, 8, 16}) {
    EdgePartition p = goldschmidt_spanning_tree(CsrGraph(g), k);
    expect_valid(g, p);
    EXPECT_TRUE(uses_min_wavelengths(g, p)) << "k=" << k;
  }
}

TEST_P(BaselineP, BraunerValidMinWavelengths) {
  Graph g = make_graph();
  for (int k : {3, 8, 16}) {
    EdgePartition p = brauner_euler(CsrGraph(g), k);
    expect_valid(g, p);
    EXPECT_TRUE(uses_min_wavelengths(g, p)) << "k=" << k;
  }
}

TEST_P(BaselineP, WangGuValidMinWavelengths) {
  Graph g = make_graph();
  for (int k : {3, 8, 16}) {
    EdgePartition p = wanggu_skeleton_cover(CsrGraph(g), k);
    expect_valid(g, p);
    EXPECT_TRUE(uses_min_wavelengths(g, p)) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, BaselineP,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.3, 0.5, 0.8),
                       ::testing::Values(20, 36)));

TEST(Brauner, EulerianGraphHasNoVirtualEdges) {
  Graph g = cycle_graph(10);
  BraunerTrace trace;
  EdgePartition p = brauner_euler(CsrGraph(g), 4, {}, &trace);
  expect_valid(g, p);
  EXPECT_EQ(trace.virtual_edges, 0);
  EXPECT_EQ(trace.segments, 1);
}

TEST(Brauner, OpenPathGraphNeedsNoVirtualEdges) {
  Graph g = path_graph(9);  // exactly two odd nodes
  BraunerTrace trace;
  EdgePartition p = brauner_euler(CsrGraph(g), 3, {}, &trace);
  expect_valid(g, p);
  EXPECT_EQ(trace.virtual_edges, 0);
}

TEST(Brauner, StarNeedsManyVirtualEdges) {
  Graph g = star_graph(9);  // 8 leaves odd + hub even(8): 8 odd nodes
  BraunerTrace trace;
  EdgePartition p = brauner_euler(CsrGraph(g), 4, {}, &trace);
  expect_valid(g, p);
  // 8 odd nodes: 2 stay path ends, 6 are paired -> 3 virtual edges.
  EXPECT_EQ(trace.virtual_edges, 3);
  EXPECT_EQ(trace.segments, 4);
}

TEST(Brauner, DisconnectedComponentsChained) {
  Graph g(9);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // triangle (even)
  g.add_edge(4, 5);  // lone edge (two odd)
  g.add_edge(6, 7);
  g.add_edge(7, 8);  // path (two odd)
  BraunerTrace trace;
  EdgePartition p = brauner_euler(CsrGraph(g), 3, {}, &trace);
  expect_valid(g, p);
  EXPECT_EQ(trace.virtual_edges, 2);  // two chaining edges
}

TEST(Goldschmidt, TreeInputGivesSubtreeParts) {
  Graph g = caterpillar_graph(6, 1);  // 11 edges
  EdgePartition p = goldschmidt_spanning_tree(CsrGraph(g), 4);
  expect_valid(g, p);
  // Parts of a tree have >= k+1 nodes each; with contiguous subtree cutting
  // the first two parts have exactly 5 nodes.
  EXPECT_LE(sadm_cost(g, p), 11 + 3 + 2);
}

TEST(Goldschmidt, DeterministicAcrossCalls) {
  Rng rng(5);
  Graph g = random_gnm(20, 50, rng);
  EdgePartition a = goldschmidt_spanning_tree(CsrGraph(g), 8);
  EdgePartition b = goldschmidt_spanning_tree(CsrGraph(g), 8);
  EXPECT_EQ(a.parts, b.parts);
}

TEST(WangGu, ProducesRealSkeletonCover) {
  Rng rng(6);
  Graph g = random_gnm(24, 100, rng);
  WangGuTrace trace;
  EdgePartition p = wanggu_skeleton_cover(CsrGraph(g), 8, {}, &trace);
  expect_valid(g, p);
  EXPECT_TRUE(validate_cover(g, trace.cover));
  EXPECT_TRUE(cover_spans_all_edges(g, trace.cover));
}

TEST(WangGu, PathGraphIsOneSkeleton) {
  Graph g = path_graph(10);
  WangGuTrace trace;
  EdgePartition p = wanggu_skeleton_cover(CsrGraph(g), 4, {}, &trace);
  expect_valid(g, p);
  EXPECT_EQ(trace.cover.size(), 1u);
}

TEST(WangGu, StarIsOneSkeleton) {
  Graph g = star_graph(10);
  WangGuTrace trace;
  wanggu_skeleton_cover(CsrGraph(g), 4, {}, &trace);
  EXPECT_EQ(trace.cover.size(), 1u);  // 2-edge backbone + 7 branches
}

TEST(Baselines, EmptyGraphsAreFine) {
  Graph g(4);
  EXPECT_TRUE(goldschmidt_spanning_tree(CsrGraph(g), 3).parts.empty());
  EXPECT_TRUE(brauner_euler(CsrGraph(g), 3).parts.empty());
  EXPECT_TRUE(wanggu_skeleton_cover(CsrGraph(g), 3).parts.empty());
}

TEST(Baselines, SparseVsDenseCharacteristics) {
  // The paper's §5 observation, as a coarse sanity check over several
  // seeds: tree-based Algo 1 beats Euler-based Algo 2 on trees (lots of
  // odd nodes), and Algo 2 beats Algo 1 on Eulerian dense graphs.
  long long tree_algo1 = 0, tree_algo2 = 0;
  long long dense_algo1 = 0, dense_algo2 = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const CsrGraph sparse(caterpillar_graph(12, 2));  // a tree
    tree_algo1 += sadm_cost(sparse, goldschmidt_spanning_tree(sparse, 4));
    tree_algo2 += sadm_cost(sparse, brauner_euler(sparse, 4));

    // d=0.8 clamps to the complete graph where both do similarly; d=0.7
    // (m ~ 441 of 630) is the dense-but-not-complete regime the paper
    // plots.
    Rng rng(seed);
    const CsrGraph dense(random_dense_ratio(36, 0.7, rng));
    dense_algo1 += sadm_cost(dense, goldschmidt_spanning_tree(dense, 4));
    dense_algo2 += sadm_cost(dense, brauner_euler(dense, 4));
  }
  EXPECT_LE(tree_algo1, tree_algo2);
  EXPECT_LE(dense_algo2, dense_algo1);
}

}  // namespace
}  // namespace tgroom
