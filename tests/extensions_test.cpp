#include <gtest/gtest.h>

#include "algorithms/algorithm.hpp"
#include "algorithms/clique_pack.hpp"
#include "algorithms/refine.hpp"
#include "algorithms/spant_euler.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"

namespace tgroom {
namespace {

void expect_valid_min_wavelength(const Graph& g, const EdgePartition& p) {
  auto v = validate_partition(g, p);
  EXPECT_TRUE(v.ok) << v.reason;
  EXPECT_TRUE(uses_min_wavelengths(g, p));
}

TEST(CliquePack, TriangleForestIsOptimal) {
  Graph g = triangle_forest(4);  // 12 edges in 4 disjoint triangles
  EdgePartition p = clique_pack(CsrGraph(g), 3);
  expect_valid_min_wavelength(g, p);
  EXPECT_EQ(sadm_cost(g, p), 12);  // each part exactly one triangle
}

TEST(CliquePack, CompleteGraphBlocks) {
  Graph g = complete_graph(6);  // 15 edges
  EdgePartition p = clique_pack(CsrGraph(g), 5);
  expect_valid_min_wavelength(g, p);
  // K6 with k=5: three parts; dense packing keeps each around 4-5 nodes.
  EXPECT_LE(sadm_cost(g, p), 15);
}

class CliquePackP : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(CliquePackP, ValidOnRandomGraphs) {
  auto [seed, dense] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  Graph g = random_dense_ratio(36, dense, rng);
  for (int k : {3, 6, 16}) {
    EdgePartition p = clique_pack(CsrGraph(g), k);
    expect_valid_min_wavelength(g, p);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CliquePackP,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0.3, 0.8)));

TEST(Refine, NeverWorsensAndStaysValid) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    Graph g = random_gnm(20, 60, rng);
    EdgePartition p = spant_euler(CsrGraph(g), 6);
    long long before = sadm_cost(g, p);
    RefineStats stats = refine_partition(CsrGraph(g), p);
    EXPECT_EQ(stats.cost_before, before);
    EXPECT_LE(stats.cost_after, stats.cost_before);
    EXPECT_EQ(sadm_cost(g, p), stats.cost_after);
    auto v = validate_partition(g, p);
    EXPECT_TRUE(v.ok) << v.reason;
    EXPECT_LE(p.parts.size(),
              static_cast<std::size_t>(
                  min_wavelengths(g.real_edge_count(), 6)));
  }
}

TEST(Refine, FindsObviousImprovement) {
  // Two triangles, deliberately mis-partitioned across parts.
  Graph g = triangle_forest(2);
  EdgePartition bad;
  bad.k = 3;
  bad.parts = {{0, 3, 1}, {2, 4, 5}};  // mixes the triangles
  long long before = sadm_cost(g, bad);
  EXPECT_EQ(before, 10);  // {e0,e3,e1} spans 5 nodes, {e2,e4,e5} spans 5
  RefineStats stats = refine_partition(CsrGraph(g), bad);
  EXPECT_EQ(stats.cost_after, 6);  // swaps reassemble both triangles
  EXPECT_GT(stats.swaps + stats.relocations, 0);
}

TEST(Refine, FixedPointOnOptimal) {
  Graph g = triangle_forest(3);
  EdgePartition p = clique_pack(CsrGraph(g), 3);
  RefineStats stats = refine_partition(CsrGraph(g), p);
  EXPECT_EQ(stats.cost_before, stats.cost_after);
  EXPECT_EQ(stats.passes, 1);
}

TEST(RunAlgorithm, RegistryDispatchesAllIds) {
  Rng rng(4);
  Graph g = random_gnm(16, 40, rng);
  for (AlgorithmId id :
       {AlgorithmId::kGoldschmidt, AlgorithmId::kBrauner,
        AlgorithmId::kWangGuIcc06, AlgorithmId::kSpanTEuler,
        AlgorithmId::kCliquePack}) {
    EdgePartition p = run_algorithm(id, g, 8);
    auto v = validate_partition(g, p);
    EXPECT_TRUE(v.ok) << algorithm_name(id) << ": " << v.reason;
  }
}

TEST(RunAlgorithm, RefineOptionImprovesOrTies) {
  Rng rng(8);
  Graph g = random_gnm(24, 90, rng);
  GroomingOptions plain;
  GroomingOptions refined;
  refined.refine = true;
  long long base =
      sadm_cost(g, run_algorithm(AlgorithmId::kWangGuIcc06, g, 6, plain));
  long long better =
      sadm_cost(g, run_algorithm(AlgorithmId::kWangGuIcc06, g, 6, refined));
  EXPECT_LE(better, base);
}

TEST(RunAlgorithm, NamesAreStable) {
  EXPECT_STREQ(algorithm_name(AlgorithmId::kSpanTEuler), "SpanT_Euler");
  EXPECT_STREQ(algorithm_name(AlgorithmId::kRegularEuler), "Regular_Euler");
  EXPECT_EQ(figure4_algorithms().size(), 4u);
  EXPECT_EQ(figure5_algorithms().size(), 4u);
  EXPECT_EQ(figure4_algorithms().back(), AlgorithmId::kSpanTEuler);
  EXPECT_EQ(figure5_algorithms().back(), AlgorithmId::kRegularEuler);
}

TEST(RunAlgorithm, EveryNameAndAliasParsesToItsId) {
  for (AlgorithmId id : all_algorithms()) {
    EXPECT_EQ(parse_algorithm_name(algorithm_name(id)), id);
  }
  const std::pair<const char*, AlgorithmId> aliases[] = {
      {"algo1", AlgorithmId::kGoldschmidt},
      {"Goldschmidt", AlgorithmId::kGoldschmidt},
      {"ALGO2", AlgorithmId::kBrauner},
      {"brauner", AlgorithmId::kBrauner},
      {"algo3", AlgorithmId::kWangGuIcc06},
      {"WangGu", AlgorithmId::kWangGuIcc06},
      {"spant", AlgorithmId::kSpanTEuler},
      {"spant_euler", AlgorithmId::kSpanTEuler},
      {"regular", AlgorithmId::kRegularEuler},
      {"REGULAR_EULER", AlgorithmId::kRegularEuler},
      {"clique", AlgorithmId::kCliquePack},
      {"cliquepack", AlgorithmId::kCliquePack},
      {"algo3-wanggu", AlgorithmId::kWangGuIcc06},
  };
  for (const auto& [alias, id] : aliases) {
    EXPECT_EQ(parse_algorithm_name(alias), id) << alias;
  }
  for (const char* bad : {"", "spant_", "algo", "algo4", "spant euler"}) {
    EXPECT_FALSE(parse_algorithm_name(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace tgroom
