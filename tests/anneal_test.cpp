#include <gtest/gtest.h>

#include "algorithms/anneal.hpp"
#include "algorithms/refine.hpp"
#include "algorithms/spant_euler.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"

namespace tgroom {
namespace {

TEST(Anneal, NeverRegressesAndStaysValid) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    Graph g = random_gnm(20, 60, rng);
    EdgePartition p = spant_euler(CsrGraph(g), 6);
    long long before = sadm_cost(g, p);
    AnnealOptions options;
    options.seed = seed + 1;
    options.iterations = 5000;
    AnnealStats stats = anneal_partition(g, p, options);
    EXPECT_EQ(stats.cost_before, before);
    EXPECT_LE(stats.cost_after, before);
    EXPECT_EQ(sadm_cost(g, p), stats.cost_after);
    auto v = validate_partition(g, p);
    EXPECT_TRUE(v.ok) << v.reason;
    EXPECT_LE(p.parts.size(),
              static_cast<std::size_t>(
                  min_wavelengths(g.real_edge_count(), 6)));
  }
}

TEST(Anneal, RecoversMixedTriangles) {
  Graph g = triangle_forest(2);
  EdgePartition bad;
  bad.k = 3;
  bad.parts = {{0, 3, 1}, {2, 4, 5}};
  AnnealOptions options;
  options.iterations = 3000;
  AnnealStats stats = anneal_partition(g, bad, options);
  EXPECT_EQ(stats.cost_after, 6);
}

TEST(Anneal, EscapesWhereHillClimbingCanHelpFurther) {
  // On dense instances annealing (then polishing) should never be worse
  // than a single hill-climb from the same start.
  Rng rng(4);
  Graph g = random_gnm(24, 120, rng);
  EdgePartition hill = spant_euler(CsrGraph(g), 8);
  EdgePartition annealed = hill;  // same starting point
  refine_partition(CsrGraph(g), hill);
  AnnealOptions options;
  options.iterations = 30000;
  options.seed = 9;
  anneal_partition(g, annealed, options);
  refine_partition(CsrGraph(g), annealed);  // final polish
  EXPECT_LE(sadm_cost(g, annealed), sadm_cost(g, hill) + 2);
}

TEST(Anneal, ZeroIterationsIsIdentity) {
  Rng rng(2);
  Graph g = random_gnm(10, 20, rng);
  EdgePartition p = spant_euler(CsrGraph(g), 4);
  EdgePartition copy = p;
  AnnealOptions options;
  options.iterations = 0;
  AnnealStats stats = anneal_partition(g, p, options);
  EXPECT_EQ(p.parts, copy.parts);
  EXPECT_EQ(stats.cost_before, stats.cost_after);
  EXPECT_EQ(stats.accepted_moves, 0);
}

TEST(Anneal, SinglePartIsIdentity) {
  Graph g = complete_graph(4);
  EdgePartition p;
  p.k = 6;
  p.parts = {{0, 1, 2, 3, 4, 5}};
  AnnealStats stats = anneal_partition(g, p);
  EXPECT_EQ(stats.cost_before, 4);
  EXPECT_EQ(stats.cost_after, 4);
}

TEST(Anneal, DeterministicForFixedSeed) {
  Rng rng(6);
  Graph g = random_gnm(16, 40, rng);
  EdgePartition a = spant_euler(CsrGraph(g), 4);
  EdgePartition b = a;
  AnnealOptions options;
  options.seed = 42;
  options.iterations = 2000;
  anneal_partition(g, a, options);
  anneal_partition(g, b, options);
  EXPECT_EQ(a.parts, b.parts);
}

TEST(Anneal, UphillMovesActuallyHappen) {
  Rng rng(8);
  Graph g = random_gnm(20, 80, rng);
  EdgePartition p = spant_euler(CsrGraph(g), 8);
  AnnealOptions options;
  options.iterations = 10000;
  options.start_temperature = 3.0;
  AnnealStats stats = anneal_partition(g, p, options);
  EXPECT_GT(stats.accepted_uphill, 0);
  EXPECT_GT(stats.accepted_moves, stats.accepted_uphill);
}

TEST(Anneal, RejectsBadOptions) {
  Graph g = complete_graph(3);
  EdgePartition p;
  p.k = 3;
  p.parts = {{0, 1, 2}};
  AnnealOptions bad;
  bad.start_temperature = 0;
  EXPECT_THROW(anneal_partition(g, p, bad), CheckError);
  bad = {};
  bad.iterations = -1;
  EXPECT_THROW(anneal_partition(g, p, bad), CheckError);
}

}  // namespace
}  // namespace tgroom
