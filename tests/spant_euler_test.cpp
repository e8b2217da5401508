#include <gtest/gtest.h>

#include "algo/components.hpp"
#include "algorithms/spant_euler.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "graph/properties.hpp"
#include "partition/cover_transform.hpp"

namespace tgroom {
namespace {

void expect_valid_min_wavelength(const Graph& g, const EdgePartition& p,
                                 int k) {
  auto v = validate_partition(g, p);
  EXPECT_TRUE(v.ok) << v.reason;
  EXPECT_EQ(p.k, k);
  EXPECT_TRUE(uses_min_wavelengths(g, p));
  for (std::size_t i = 0; i + 1 < p.parts.size(); ++i) {
    EXPECT_EQ(p.parts[i].size(), static_cast<std::size_t>(k));
  }
}

TEST(SpanTEuler, EmptyGraph) {
  Graph g(5);
  EdgePartition p = spant_euler(CsrGraph(g), 4);
  EXPECT_TRUE(p.parts.empty());
}

TEST(SpanTEuler, SingleEdge) {
  Graph g(2);
  g.add_edge(0, 1);
  EdgePartition p = spant_euler(CsrGraph(g), 4);
  expect_valid_min_wavelength(g, p, 4);
  EXPECT_EQ(sadm_cost(g, p), 2);
}

TEST(SpanTEuler, TreeInput) {
  // On a tree, G\T is empty: everything becomes branches on singleton
  // skeletons.
  Graph g = caterpillar_graph(5, 2);
  for (int k : {2, 3, 5}) {
    EdgePartition p = spant_euler(CsrGraph(g), k);
    expect_valid_min_wavelength(g, p, k);
  }
}

TEST(SpanTEuler, StarGetsOptimalCost) {
  Graph g = star_graph(9);  // 8 edges, all share the hub
  EdgePartition p = spant_euler(CsrGraph(g), 4);
  expect_valid_min_wavelength(g, p, 4);
  // Each part: 4 edges through the hub = 5 nodes; 2 parts -> 10 SADMs.
  EXPECT_EQ(sadm_cost(g, p), 10);
}

TEST(SpanTEuler, CycleIsOneBackbone) {
  Graph g = cycle_graph(12);
  SpanTEulerTrace trace;
  EdgePartition p = spant_euler(CsrGraph(g), 4, {}, &trace);
  expect_valid_min_wavelength(g, p, 4);
  EXPECT_EQ(sadm_cost(g, p), 12 + 3);  // three segments of 4 edges, 5 nodes
}

TEST(SpanTEuler, TraceInvariants) {
  Rng rng(5);
  Graph g = random_gnm(20, 60, rng);
  SpanTEulerTrace trace;
  EdgePartition p = spant_euler(CsrGraph(g), 8, {}, &trace);
  auto v = validate_partition(g, p);
  ASSERT_TRUE(v.ok) << v.reason;

  EXPECT_TRUE(is_spanning_forest(g, trace.tree));
  // E_odd is a subset of the tree.
  std::vector<char> in_tree(static_cast<std::size_t>(g.edge_count()), 0);
  for (EdgeId e : trace.tree) in_tree[static_cast<std::size_t>(e)] = 1;
  for (EdgeId e : trace.e_odd)
    EXPECT_TRUE(in_tree[static_cast<std::size_t>(e)]);

  // G'' = E_odd ∪ (E\T) has all even degrees (Lemma 4's core claim).
  std::vector<char> g2(static_cast<std::size_t>(g.edge_count()), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    g2[static_cast<std::size_t>(e)] = !in_tree[static_cast<std::size_t>(e)];
  for (EdgeId e : trace.e_odd) g2[static_cast<std::size_t>(e)] = 1;
  for (NodeId deg : masked_degrees(g, g2)) EXPECT_EQ(deg % 2, 0);

  // The cover is a genuine skeleton cover of G.
  EXPECT_TRUE(validate_cover(g, trace.cover));
  EXPECT_TRUE(cover_spans_all_edges(g, trace.cover));

  // Lemma 4: cover size <= c = #components of G\T.
  EXPECT_LE(static_cast<int>(trace.cover.size()), trace.g2_component_count);
}

class SpanTEulerBoundP
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(SpanTEulerBoundP, Theorem5BoundHolds) {
  auto [seed, dense, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  Graph g = random_dense_ratio(36, dense, rng);
  SpanTEulerTrace trace;
  EdgePartition p = spant_euler(CsrGraph(g), k, {}, &trace);
  auto v = validate_partition(g, p);
  ASSERT_TRUE(v.ok) << v.reason;
  EXPECT_TRUE(uses_min_wavelengths(g, p));
  // Theorem 5: cost <= m + ceil(m/k) + (c-1) via the realized cover size
  // (which Lemma 4 bounds by c).
  EXPECT_LE(sadm_cost(g, p),
            prop2_cost_bound(g.real_edge_count(), k, trace.cover.size()));
  EXPECT_LE(sadm_cost(g, p),
            spant_euler_cost_bound(g.real_edge_count(), k,
                                   trace.g2_component_count));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpanTEulerBoundP,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.3, 0.5, 0.8),
                       ::testing::Values(3, 4, 16, 48)));

class SpanTEulerTreePolicyP : public ::testing::TestWithParam<TreePolicy> {};

TEST_P(SpanTEulerTreePolicyP, AllTreePoliciesProduceValidPartitions) {
  Rng rng(11);
  Graph g = random_gnm(24, 80, rng);
  GroomingOptions options;
  options.tree_policy = GetParam();
  options.seed = 3;
  EdgePartition p = spant_euler(CsrGraph(g), 8, options);
  expect_valid_min_wavelength(g, p, 8);
}

INSTANTIATE_TEST_SUITE_P(Policies, SpanTEulerTreePolicyP,
                         ::testing::Values(TreePolicy::kBfs, TreePolicy::kDfs,
                                           TreePolicy::kRandom,
                                           TreePolicy::kMinMaxDegree));

TEST(SpanTEuler, DisconnectedInput) {
  Graph g(10);
  // Triangle + path + isolated nodes.
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  EdgePartition p = spant_euler(CsrGraph(g), 2);
  expect_valid_min_wavelength(g, p, 2);
}

TEST(SpanTEuler, RejectsVirtualEdgesInInput) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2, /*is_virtual=*/true);
  EXPECT_THROW(spant_euler(CsrGraph(g), 2), CheckError);
}

TEST(SpanTEuler, RejectsBadK) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(spant_euler(CsrGraph(g), 0), CheckError);
}

TEST(SpanTEuler, SmartBranchesStaysValid) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    Graph g = random_gnm(24, 60, rng);
    GroomingOptions smart;
    smart.smart_branches = true;
    EdgePartition p = spant_euler(CsrGraph(g), 8, smart);
    expect_valid_min_wavelength(g, p, 8);
  }
}

TEST(SpanTEuler, SmartBranchesHelpsOnDoubleStar) {
  // Two hubs with many leaves joined by an edge: hub-anchored attachment
  // must keep each hub's leaves together.
  Graph g(22);
  g.add_edge(0, 1);
  for (NodeId leaf = 2; leaf < 12; ++leaf) g.add_edge(0, leaf);
  for (NodeId leaf = 12; leaf < 22; ++leaf) g.add_edge(1, leaf);
  GroomingOptions plain;
  GroomingOptions smart;
  smart.smart_branches = true;
  long long base = sadm_cost(g, spant_euler(CsrGraph(g), 5, plain));
  long long clustered = sadm_cost(g, spant_euler(CsrGraph(g), 5, smart));
  EXPECT_LE(clustered, base);
}

TEST(SpanTEuler, KOneDegenerate) {
  Graph g = complete_graph(5);
  EdgePartition p = spant_euler(CsrGraph(g), 1);
  expect_valid_min_wavelength(g, p, 1);
  EXPECT_EQ(sadm_cost(g, p), 2 * g.real_edge_count());
}

TEST(SpanTEuler, KLargerThanM) {
  Graph g = complete_graph(5);  // m=10, one wavelength when k=16
  EdgePartition p = spant_euler(CsrGraph(g), 16);
  expect_valid_min_wavelength(g, p, 16);
  EXPECT_EQ(p.parts.size(), 1u);
  EXPECT_EQ(sadm_cost(g, p), 5);
}

}  // namespace
}  // namespace tgroom
