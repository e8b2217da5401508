// Validator fuzzing: take valid partitions/plans and apply random
// corruptions; every corruption must be rejected by the corresponding
// checker.  Guards against validators silently rubber-stamping.
#include <gtest/gtest.h>

#include "algorithms/algorithm.hpp"
#include "gen/random_graph.hpp"
#include "grooming/plan.hpp"
#include "sonet/simulator.hpp"

namespace tgroom {
namespace {

// The mutations move edges between parts, so they work on nested parts
// and the corrupted partition is rebuilt from them.
using Parts = std::vector<std::vector<EdgeId>>;

struct Mutation {
  const char* name;
  // Returns false if the mutation was not applicable to this partition.
  bool (*apply)(Rng&, const Graph&, Parts&, int k);
};

bool drop_edge(Rng& rng, const Graph&, Parts& parts, int) {
  if (parts.empty()) return false;
  auto& part = parts[static_cast<std::size_t>(rng.below(parts.size()))];
  if (part.size() < 2) return false;  // dropping may leave an empty part;
                                      // keep the mutation purely "missing
                                      // edge" shaped
  part.pop_back();
  return true;
}

bool duplicate_edge(Rng& rng, const Graph&, Parts& parts, int k) {
  if (parts.size() < 2) return false;
  std::size_t from = static_cast<std::size_t>(rng.below(parts.size()));
  std::size_t to = static_cast<std::size_t>(rng.below(parts.size()));
  if (from == to) to = (to + 1) % parts.size();
  if (parts[to].size() >= static_cast<std::size_t>(k)) return false;
  parts[to].push_back(parts[from].front());
  return true;
}

bool oversize_part(Rng& rng, const Graph&, Parts& parts, int k) {
  if (parts.size() < 2) return false;
  // Move edges from one part into another until it exceeds k.
  std::size_t to = static_cast<std::size_t>(rng.below(parts.size()));
  std::size_t from = (to + 1) % parts.size();
  while (parts[to].size() <= static_cast<std::size_t>(k)) {
    if (parts[from].empty()) return false;
    parts[to].push_back(parts[from].back());
    parts[from].pop_back();
  }
  if (parts[from].empty()) parts.erase(parts.begin() + static_cast<long>(from));
  return true;
}

bool bogus_edge_id(Rng& rng, const Graph& g, Parts& parts, int) {
  if (parts.empty()) return false;
  auto& part = parts[static_cast<std::size_t>(rng.below(parts.size()))];
  part.back() = g.edge_count() + 5;
  return true;
}

bool empty_part(Rng&, const Graph&, Parts& parts, int) {
  parts.emplace_back();
  return true;
}

class FuzzPartitionP : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPartitionP, CorruptionsAreAlwaysRejected) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 13);
  Graph g = random_gnm(14, 24, rng);
  EdgePartition valid = run_algorithm(AlgorithmId::kSpanTEuler, g, 4);
  ASSERT_TRUE(validate_partition(g, valid).ok);

  const Mutation mutations[] = {
      {"drop_edge", drop_edge},
      {"duplicate_edge", duplicate_edge},
      {"oversize_part", oversize_part},
      {"bogus_edge_id", bogus_edge_id},
      {"empty_part", empty_part},
  };
  for (const Mutation& mutation : mutations) {
    Parts parts = valid.parts.to_nested();
    if (!mutation.apply(rng, g, parts, valid.k)) continue;
    EdgePartition corrupted;
    corrupted.k = valid.k;
    corrupted.parts = FlatParts::from_nested(parts);
    EXPECT_FALSE(validate_partition(g, corrupted).ok) << mutation.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPartitionP, ::testing::Range(0, 10));

class FuzzPlanP : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPlanP, SimulatorRejectsCorruptedPlans) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  Graph g = random_gnm(12, 18, rng);
  DemandSet demands = DemandSet::from_traffic_graph(g);
  EdgePartition p = run_algorithm(AlgorithmId::kBrauner, g, 3);
  GroomingPlan plan = plan_from_partition(demands, g, p);
  UpsrRing ring(12);
  ASSERT_TRUE(simulate_plan(ring, plan).ok);
  ASSERT_FALSE(plan.pairs.empty());

  auto pick = [&]() -> GroomedPair& {
    return plan.pairs[static_cast<std::size_t>(rng.below(plan.pairs.size()))];
  };
  {
    GroomingPlan bad = plan;
    GroomedPair& victim =
        bad.pairs[static_cast<std::size_t>(rng.below(bad.pairs.size()))];
    victim.timeslot = bad.grooming_factor;  // out of range
    EXPECT_FALSE(simulate_plan(ring, bad).ok);
  }
  {
    GroomingPlan bad = plan;
    GroomedPair& victim =
        bad.pairs[static_cast<std::size_t>(rng.below(bad.pairs.size()))];
    victim.pair.b = victim.pair.a;  // degenerate demand
    EXPECT_FALSE(simulate_plan(ring, bad).ok);
  }
  {
    GroomingPlan bad = plan;
    // Duplicate an assignment: same wavelength+timeslot twice.
    bad.pairs.push_back(pick());
    EXPECT_FALSE(simulate_plan(ring, bad).ok);
  }
  {
    GroomingPlan bad = plan;
    bad.pairs[0].wavelength = -1;
    EXPECT_FALSE(simulate_plan(ring, bad).ok);
  }
  {
    GroomingPlan bad = plan;
    bad.ring_size = 13;  // mismatched ring
    EXPECT_FALSE(simulate_plan(ring, bad).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPlanP, ::testing::Range(0, 10));

}  // namespace
}  // namespace tgroom
