#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "graph/csr_graph.hpp"
#include "graph/properties.hpp"
#include "partition/edge_partition.hpp"

namespace tgroom {
namespace {

TEST(EdgePartition, TotalsAndWavelengths) {
  EdgePartition p;
  p.k = 3;
  p.parts = {{0, 1, 2}, {3, 4}};
  EXPECT_EQ(p.total_edges(), 5);
  EXPECT_EQ(p.wavelength_count(), 2);
}

TEST(SadmCost, TriangleVersusPath) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // triangle
  g.add_edge(3, 4);  // stray edge
  EdgePartition triangle_first;
  triangle_first.k = 3;
  triangle_first.parts = {{0, 1, 2}, {3}};
  EXPECT_EQ(sadm_cost(g, triangle_first), 3 + 2);

  EdgePartition mixed;
  mixed.k = 3;
  mixed.parts = {{0, 1, 3}, {2}};
  EXPECT_EQ(sadm_cost(g, mixed), 5 + 2);
}

TEST(SadmCost, StampedCountEqualsSpannedNodeSum) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(rng.uniform_int(2, 40));
    const long long max_m = static_cast<long long>(n) * (n - 1) / 2;
    Graph g = random_gnm(n, rng.uniform_int(0, max_m), rng);
    // A few virtual edges: sadm_cost counts their endpoints too, and the
    // lower bound must skip them.
    if (trial % 4 == 0 && n >= 2) g.add_edge(0, n - 1, /*is_virtual=*/true);
    const int k = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<EdgeId> ids(static_cast<std::size_t>(g.edge_count()));
    std::iota(ids.begin(), ids.end(), EdgeId{0});
    rng.shuffle(ids);
    EdgePartition p;
    p.k = k;
    for (std::size_t i = 0; i < ids.size();) {
      const auto size = static_cast<std::size_t>(rng.uniform_int(1, k));
      const std::size_t end = std::min(ids.size(), i + size);
      p.parts.push_back(FlatParts::Part(ids.data() + i, end - i));
      i = end;
    }
    long long spanned = 0;
    for (FlatParts::Part part : p.parts) {
      spanned += spanned_node_count(g, {part.begin(), part.end()});
    }
    const CsrGraph csr(g);
    EXPECT_EQ(sadm_cost(g, p), spanned);
    EXPECT_EQ(sadm_cost(csr, p), spanned);

    long long degree_term = 0;
    for (NodeId v = 0; v < n; ++v) {
      degree_term += (static_cast<long long>(g.real_degree(v)) + k - 1) / k;
    }
    const long long m = g.real_edge_count();
    const long long packing = (m / k) * min_nodes_for_edges(k) +
                              min_nodes_for_edges(m % k);
    EXPECT_EQ(degree_lower_bound(csr, k), degree_term);
    EXPECT_EQ(partition_cost_lower_bound(g, k),
              std::max(degree_term, packing));
    EXPECT_EQ(partition_cost_lower_bound(csr, k),
              std::max(degree_term, packing));
  }
}

TEST(Validate, AcceptsProperPartition) {
  Graph g = cycle_graph(4);
  EdgePartition p;
  p.k = 2;
  p.parts = {{0, 1}, {2, 3}};
  EXPECT_TRUE(validate_partition(g, p).ok);
}

TEST(Validate, RejectsMissingEdge) {
  Graph g = cycle_graph(4);
  EdgePartition p;
  p.k = 4;
  p.parts = {{0, 1, 2}};
  auto v = validate_partition(g, p);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("appears 0 times"), std::string::npos);
}

TEST(Validate, RejectsDuplicateEdge) {
  Graph g = cycle_graph(4);
  EdgePartition p;
  p.k = 4;
  p.parts = {{0, 1}, {1, 2, 3}};
  EXPECT_FALSE(validate_partition(g, p).ok);
}

TEST(Validate, RejectsOversizedPart) {
  Graph g = cycle_graph(4);
  EdgePartition p;
  p.k = 2;
  p.parts = {{0, 1, 2}, {3}};
  EXPECT_FALSE(validate_partition(g, p).ok);
}

TEST(Validate, RejectsEmptyPartAndVirtualEdge) {
  Graph g(3);
  g.add_edge(0, 1);
  EdgeId v = g.add_edge(1, 2, /*is_virtual=*/true);
  EdgePartition with_empty;
  with_empty.k = 2;
  with_empty.parts = {{0}, {}};
  EXPECT_FALSE(validate_partition(g, with_empty).ok);

  EdgePartition with_virtual;
  with_virtual.k = 2;
  with_virtual.parts = {{0, v}};
  EXPECT_FALSE(validate_partition(g, with_virtual).ok);
}

TEST(Validate, RejectsBadK) {
  Graph g(2);
  EdgePartition p;
  p.k = 0;
  EXPECT_FALSE(validate_partition(g, p).ok);
}

TEST(MinWavelengths, CeilFormula) {
  EXPECT_EQ(min_wavelengths(10, 4), 3);
  EXPECT_EQ(min_wavelengths(12, 4), 3);
  EXPECT_EQ(min_wavelengths(0, 4), 0);
  EXPECT_EQ(min_wavelengths(1, 16), 1);
}

TEST(MinNodesForEdges, TriangularInverse) {
  EXPECT_EQ(min_nodes_for_edges(0), 0);
  EXPECT_EQ(min_nodes_for_edges(1), 2);
  EXPECT_EQ(min_nodes_for_edges(3), 3);   // triangle
  EXPECT_EQ(min_nodes_for_edges(4), 4);
  EXPECT_EQ(min_nodes_for_edges(6), 4);   // K4
  EXPECT_EQ(min_nodes_for_edges(7), 5);
  EXPECT_EQ(min_nodes_for_edges(16), 7);  // 6*7/2=21 >= 16, 5*6/2=15 < 16
}

TEST(LowerBound, CompleteGraphTightCases) {
  Graph k4 = complete_graph(4);
  // k=3: best is two triangles? K4 has 6 edges; parts of 3 edges each need
  // >= 3 nodes -> LB = 6; actual best for K4/k=3 is 3+... (triangle +
  // remaining star of 3 edges spans 4 nodes) = 7.
  EXPECT_EQ(partition_cost_lower_bound(k4, 3), 6);
  // k=6: one part, at least 4 nodes (and 4 active nodes).
  EXPECT_EQ(partition_cost_lower_bound(k4, 6), 4);
}

TEST(LowerBound, DegreeTermDominatesWhenSparse) {
  Graph g(10);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  // 6 degree-1 nodes each need one SADM; packing with k=3 only gives 3.
  EXPECT_EQ(degree_lower_bound(CsrGraph(g), 3), 6);
  EXPECT_EQ(partition_cost_lower_bound(g, 3), 6);
}

TEST(LowerBound, DegreeTermOnStarIsTight) {
  Graph g = star_graph(9);  // hub degree 8
  // hub needs ceil(8/4) = 2 SADMs, leaves one each: 10 — and SpanT_Euler
  // achieves exactly 10 (see SpanTEuler.StarGetsOptimalCost).
  EXPECT_EQ(degree_lower_bound(CsrGraph(g), 4), 10);
  EXPECT_EQ(partition_cost_lower_bound(g, 4), 10);
}

TEST(LowerBound, NeverExceedsOptimalOnKnownCases) {
  // K4 at k=3: OPT = 7 (triangle + co-star); LB must stay <= 7.
  EXPECT_LE(partition_cost_lower_bound(complete_graph(4), 3), 7);
}

}  // namespace
}  // namespace tgroom
