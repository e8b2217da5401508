#include <gtest/gtest.h>

#include <functional>

#include "algo/blossom.hpp"
#include "algo/matching.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "gen/regular_graph.hpp"
#include "graph/properties.hpp"
#include "test_graphs.hpp"

namespace tgroom {
namespace {

/// Reference maximum matching size by exhaustive search (tiny graphs).
std::size_t brute_force_matching_size(const Graph& g) {
  std::size_t best = 0;
  std::vector<char> used(static_cast<std::size_t>(g.node_count()), 0);
  std::function<void(EdgeId, std::size_t)> go = [&](EdgeId from,
                                                    std::size_t size) {
    best = std::max(best, size);
    for (EdgeId e = from; e < g.edge_count(); ++e) {
      const Edge& edge = g.edge(e);
      if (edge.is_virtual) continue;
      if (used[static_cast<std::size_t>(edge.u)] ||
          used[static_cast<std::size_t>(edge.v)])
        continue;
      used[static_cast<std::size_t>(edge.u)] = 1;
      used[static_cast<std::size_t>(edge.v)] = 1;
      go(e + 1, size + 1);
      used[static_cast<std::size_t>(edge.u)] = 0;
      used[static_cast<std::size_t>(edge.v)] = 0;
    }
  };
  go(0, 0);
  return best;
}

TEST(GreedyMatching, MaximalAndValid) {
  Graph g = complete_graph(7);
  auto m = matching_of(CsrGraph(g), MatchingPolicy::kGreedy);
  EXPECT_TRUE(is_matching(g, m));
  EXPECT_EQ(m.size(), 3u);  // maximal on K7 is always 3
}

TEST(GreedyMatching, IgnoresVirtualEdges) {
  Graph g(4);
  g.add_edge(0, 1, /*is_virtual=*/true);
  g.add_edge(2, 3);
  auto m = matching_of(CsrGraph(g), MatchingPolicy::kGreedy);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_FALSE(g.edge(m[0]).is_virtual);
}

TEST(IsMatching, RejectsSharedEndpointAndVirtual) {
  Graph g(4);
  EdgeId a = g.add_edge(0, 1);
  EdgeId b = g.add_edge(1, 2);
  EdgeId v = g.add_edge(2, 3, /*is_virtual=*/true);
  EXPECT_TRUE(is_matching(g, {a}));
  EXPECT_FALSE(is_matching(g, {a, b}));
  EXPECT_FALSE(is_matching(g, {v}));
  EXPECT_FALSE(is_matching(g, {static_cast<EdgeId>(99)}));
}

TEST(Blossom, PerfectMatchingOnEvenCycle) {
  Graph g = cycle_graph(8);
  auto m = matching_of(CsrGraph(g), MatchingPolicy::kBlossom);
  EXPECT_TRUE(is_matching(g, m));
  EXPECT_EQ(m.size(), 4u);
}

TEST(Blossom, OddCycleLeavesOneExposed) {
  Graph g = cycle_graph(9);
  EXPECT_EQ(matching_of(CsrGraph(g), MatchingPolicy::kBlossom).size(), 4u);
}

TEST(Blossom, PetersenHasPerfectMatching) {
  Graph g = petersen_graph();
  auto m = matching_of(CsrGraph(g), MatchingPolicy::kBlossom);
  EXPECT_TRUE(is_matching(g, m));
  EXPECT_EQ(m.size(), 5u);
}

TEST(Blossom, RequiresAugmentationThroughBlossom) {
  // Two triangles joined by a bridge: maximum matching is 3 and needs
  // blossom handling (greedy from bad order gets 2).
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  EXPECT_EQ(matching_of(CsrGraph(g), MatchingPolicy::kBlossom).size(), 3u);
}

class BlossomRandomP : public ::testing::TestWithParam<int> {};

TEST_P(BlossomRandomP, MatchesBruteForceOnSmallGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  NodeId n = static_cast<NodeId>(5 + rng.below(4));        // 5..8 nodes
  long long max_m = static_cast<long long>(n) * (n - 1) / 2;
  long long m = static_cast<long long>(rng.below(
      static_cast<std::uint64_t>(max_m)));
  Graph g = random_gnm(n, m, rng);
  auto matching = matching_of(CsrGraph(g), MatchingPolicy::kBlossom);
  EXPECT_TRUE(is_matching(g, matching));
  EXPECT_EQ(matching.size(), brute_force_matching_size(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomRandomP, ::testing::Range(0, 20));

TEST(Blossom, NestedBlossoms) {
  // A pentagon with a triangle hanging off one node plus a pendant tail:
  // augmentation must pass through nested odd structures.
  Graph g(9);
  for (NodeId v = 0; v < 5; ++v) g.add_edge(v, static_cast<NodeId>((v + 1) % 5));
  g.add_edge(0, 5);
  g.add_edge(5, 6);
  g.add_edge(6, 0);  // triangle 0-5-6 sharing node 0 with the pentagon
  g.add_edge(6, 7);
  g.add_edge(7, 8);  // tail
  auto m = matching_of(CsrGraph(g), MatchingPolicy::kBlossom);
  EXPECT_TRUE(is_matching(g, m));
  EXPECT_EQ(m.size(), 4u);  // 9 nodes: at most 4; achievable
}

TEST(Blossom, ChainOfOddCycles) {
  // Three triangles connected in a path by bridges: each bridge can be
  // matched only by breaking into the blossoms correctly.
  Graph g(9);
  for (NodeId base : {0, 3, 6}) {
    g.add_edge(base, static_cast<NodeId>(base + 1));
    g.add_edge(static_cast<NodeId>(base + 1), static_cast<NodeId>(base + 2));
    g.add_edge(base, static_cast<NodeId>(base + 2));
  }
  g.add_edge(2, 3);
  g.add_edge(5, 6);
  auto m = matching_of(CsrGraph(g), MatchingPolicy::kBlossom);
  EXPECT_TRUE(is_matching(g, m));
  EXPECT_EQ(m.size(), 4u);
}

TEST(Blossom, MatesArrayConsistent) {
  Graph g = complete_bipartite(3, 3);
  std::vector<NodeId> mates(static_cast<std::size_t>(g.node_count()),
                            kInvalidNode);
  for (EdgeId e : matching_of(CsrGraph(g), MatchingPolicy::kBlossom)) {
    EXPECT_EQ(mates[static_cast<std::size_t>(g.edge(e).u)], kInvalidNode);
    EXPECT_EQ(mates[static_cast<std::size_t>(g.edge(e).v)], kInvalidNode);
    mates[static_cast<std::size_t>(g.edge(e).u)] = g.edge(e).v;
    mates[static_cast<std::size_t>(g.edge(e).v)] = g.edge(e).u;
  }
  int matched = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    NodeId mate = mates[static_cast<std::size_t>(v)];
    if (mate == kInvalidNode) continue;
    ++matched;
    EXPECT_EQ(mates[static_cast<std::size_t>(mate)], v);
    EXPECT_TRUE(g.has_edge(v, mate));
  }
  EXPECT_EQ(matched, 6);
}

class Lemma8P : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Lemma8P, MaximumMatchingMeetsLemma8Bound) {
  auto [n, r] = GetParam();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    Graph g = random_regular(static_cast<NodeId>(n), static_cast<NodeId>(r),
                             rng);
    auto m = matching_of(CsrGraph(g), MatchingPolicy::kBlossom);
    EXPECT_GE(static_cast<long long>(m.size()),
              lemma8_matching_lower_bound(static_cast<NodeId>(n),
                                          static_cast<NodeId>(r)))
        << "n=" << n << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(RegularGraphs, Lemma8P,
                         ::testing::Values(std::pair{36, 7}, std::pair{36, 15},
                                           std::pair{20, 3}, std::pair{14, 5},
                                           std::pair{12, 9}));

TEST(Lemma8, BoundFormula) {
  // ceil(n*r / (2(r+1))): for n=36, r=7 -> ceil(252/16) = 16.
  EXPECT_EQ(lemma8_matching_lower_bound(36, 7), 16);
  EXPECT_EQ(lemma8_matching_lower_bound(36, 15), 17);
  EXPECT_EQ(lemma8_matching_lower_bound(10, 0), 0);
}

TEST(ColorClassMatching, ValidAndMeetsLemma8OnRegular) {
  Rng rng(3);
  Graph g = random_regular(36, 7, rng);
  auto m = matching_of(CsrGraph(g), MatchingPolicy::kColorClass);
  EXPECT_TRUE(is_matching(g, m));
  // Lemma 8's proof *is* this construction, so the bound must hold.
  EXPECT_GE(static_cast<long long>(m.size()),
            lemma8_matching_lower_bound(36, 7));
}

TEST(MatchingPolicies, AllProduceValidMatchings) {
  Rng rng(9);
  Graph g = random_gnm(18, 40, rng);
  for (auto policy : {MatchingPolicy::kGreedy, MatchingPolicy::kBlossom,
                      MatchingPolicy::kColorClass}) {
    Rng policy_rng(4);
    auto m = matching_of(CsrGraph(g), policy, &policy_rng);
    EXPECT_TRUE(is_matching(g, m)) << matching_policy_name(policy);
    EXPECT_FALSE(m.empty());
  }
}

TEST(MatchingPolicies, BlossomDominatesGreedy) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    Graph g = random_gnm(16, 30, rng);
    Rng greedy_rng(seed);
    auto greedy =
        matching_of(CsrGraph(g), MatchingPolicy::kGreedy, &greedy_rng);
    auto blossom = matching_of(CsrGraph(g), MatchingPolicy::kBlossom);
    EXPECT_GE(blossom.size(), greedy.size());
  }
}

}  // namespace
}  // namespace tgroom
