// Scale and adversarial-shape stress: the algorithms must stay valid and
// fast well beyond the paper's n = 36 experiments.
#include <gtest/gtest.h>

#include "algo/blossom.hpp"
#include "algo/components.hpp"
#include "algo/spanning_tree.hpp"
#include "algorithms/algorithm.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "gen/regular_graph.hpp"
#include "graph/properties.hpp"
#include "test_graphs.hpp"
#include "util/stopwatch.hpp"

namespace tgroom {
namespace {

void expect_valid_min_wavelength(const Graph& g, const EdgePartition& p) {
  auto v = validate_partition(g, p);
  ASSERT_TRUE(v.ok) << v.reason;
  EXPECT_TRUE(uses_min_wavelengths(g, p));
}

TEST(Stress, LargeRandomGraphAllAlgorithms) {
  Rng rng(1);
  Graph g = random_gnm(200, 2400, rng);
  Stopwatch sw;
  for (AlgorithmId id :
       {AlgorithmId::kGoldschmidt, AlgorithmId::kBrauner,
        AlgorithmId::kWangGuIcc06, AlgorithmId::kSpanTEuler,
        AlgorithmId::kCliquePack}) {
    EdgePartition p = run_algorithm(id, g, 16);
    expect_valid_min_wavelength(g, p);
  }
  // Generous single-core budget; catches accidental quadratic regressions
  // in the linear-time algorithms without being flaky.
  EXPECT_LT(sw.elapsed_seconds(), 30.0);
}

TEST(Stress, VeryLargeSpanTEuler) {
  Rng rng(2);
  Graph g = random_gnm(2000, 12000, rng);
  Stopwatch sw;
  EdgePartition p = run_algorithm(AlgorithmId::kSpanTEuler, g, 48);
  double elapsed = sw.elapsed_seconds();
  expect_valid_min_wavelength(g, p);
  EXPECT_LT(elapsed, 5.0);  // the paper's linear-time claim, generously
}

TEST(Stress, LargeRegularEulerOddDegree) {
  Rng rng(3);
  Graph g = random_regular(400, 9, rng);
  EdgePartition p = run_algorithm(AlgorithmId::kRegularEuler, g, 16);
  expect_valid_min_wavelength(g, p);
}

TEST(Stress, GiantStar) {
  Graph g = star_graph(800);
  for (AlgorithmId id : {AlgorithmId::kBrauner, AlgorithmId::kSpanTEuler,
                         AlgorithmId::kGoldschmidt}) {
    EdgePartition p = run_algorithm(id, g, 16);
    expect_valid_min_wavelength(g, p);
  }
  // The star's hub is in every part: SpanT_Euler gets the optimal
  // 17 nodes per full part.
  EdgePartition p = run_algorithm(AlgorithmId::kSpanTEuler, g, 16);
  EXPECT_EQ(sadm_cost(g, p), 799 + min_wavelengths(799, 16));
}

TEST(Stress, LongPath) {
  Graph g = path_graph(3000);
  EdgePartition p = run_algorithm(AlgorithmId::kSpanTEuler, g, 10);
  expect_valid_min_wavelength(g, p);
  // A path cut into 10-edge segments: 11 nodes per full part.
  EXPECT_EQ(sadm_cost(g, p), 2999 + min_wavelengths(2999, 10));
}

TEST(Stress, ManyTinyComponents) {
  Graph g = triangle_forest(300);  // 900 edges, 300 components
  for (AlgorithmId id : {AlgorithmId::kBrauner, AlgorithmId::kSpanTEuler,
                         AlgorithmId::kCliquePack}) {
    EdgePartition p = run_algorithm(id, g, 3);
    expect_valid_min_wavelength(g, p);
  }
  // CliquePack must recover the disjoint triangles exactly.
  EdgePartition p = run_algorithm(AlgorithmId::kCliquePack, g, 3);
  EXPECT_EQ(sadm_cost(g, p), 900);
}

TEST(Stress, CompleteGraphModerate) {
  Graph g = complete_graph(40);  // 780 edges, all degrees odd
  for (int k : {3, 16, 64}) {
    EdgePartition p = run_algorithm(AlgorithmId::kSpanTEuler, g, k);
    expect_valid_min_wavelength(g, p);
  }
}

TEST(Stress, DeepDfsDoesNotOverflowStack) {
  // Path graphs force maximal DFS depth in tree construction; the
  // implementation is iterative, so 50k nodes must be fine.
  Graph g = path_graph(50000);
  auto tree = forest_of(CsrGraph(g), TreePolicy::kDfs);
  EXPECT_TRUE(is_spanning_forest(g, tree));
}

TEST(Stress, BlossomOnLargeBipartite) {
  Graph g = complete_bipartite(150, 150);
  Stopwatch sw;
  const auto matching = matching_of(CsrGraph(g), MatchingPolicy::kBlossom);
  EXPECT_TRUE(is_matching(g, matching));
  EXPECT_EQ(matching.size(), 150u);
  EXPECT_LT(sw.elapsed_seconds(), 10.0);
}

}  // namespace
}  // namespace tgroom
