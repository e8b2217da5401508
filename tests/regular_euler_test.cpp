#include <gtest/gtest.h>

#include <string>

#include "algo/components.hpp"
#include "algo/euler.hpp"
#include "algo/matching.hpp"
#include "algorithms/regular_euler.hpp"
#include "algorithms/workspace.hpp"
#include "gen/families.hpp"
#include "gen/regular_graph.hpp"
#include "graph/properties.hpp"
#include "partition/cover_transform.hpp"
#include "test_graphs.hpp"

namespace tgroom {
namespace {

void expect_valid_min_wavelength(const Graph& g, const EdgePartition& p,
                                 int k) {
  EXPECT_EQ(p.k, k);
  auto v = validate_partition(g, p);
  EXPECT_TRUE(v.ok) << v.reason;
  EXPECT_TRUE(uses_min_wavelengths(g, p));
}

TEST(RegularEuler, RejectsIrregularGraph) {
  Graph g = star_graph(4);
  EXPECT_THROW(regular_euler(CsrGraph(g), 3), CheckError);
}

TEST(RegularEuler, EmptyAndZeroRegular) {
  Graph g(5);  // 0-regular
  EdgePartition p = regular_euler(CsrGraph(g), 3);
  EXPECT_TRUE(p.parts.empty());
}

TEST(RegularEuler, OneRegularIsOptimal) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  EdgePartition p = regular_euler(CsrGraph(g), 2);
  expect_valid_min_wavelength(g, p, 2);
  EXPECT_EQ(sadm_cost(g, p), 6);  // 2 per demand; unavoidable
}

TEST(RegularEuler, EvenRegularConnectedIsSingleTour) {
  Rng rng(1);
  Graph g = random_regular(20, 4, rng);
  RegularEulerTrace trace;
  EdgePartition p = regular_euler(CsrGraph(g), 5, {}, &trace);
  expect_valid_min_wavelength(g, p, 5);
  EXPECT_TRUE(trace.matching.empty());
  if (is_connected(g)) {
    EXPECT_EQ(trace.cover.size(), 1u);
    // Theorem 10 even case: cost <= m(1 + 1/k) with no cover slack.
    EXPECT_LE(sadm_cost(g, p),
              prop2_cost_bound(g.real_edge_count(), 5, 1));
  }
}

TEST(RegularEuler, CycleExactCost) {
  Graph g = cycle_graph(12);  // 2-regular
  EdgePartition p = regular_euler(CsrGraph(g), 6);
  expect_valid_min_wavelength(g, p, 6);
  EXPECT_EQ(sadm_cost(g, p), 12 + 2);
}

TEST(RegularEuler, OddRegularTraceInvariants) {
  Rng rng(2);
  Graph g = random_regular(36, 7, rng);
  RegularEulerTrace trace;
  EdgePartition p = regular_euler(CsrGraph(g), 8, {}, &trace);
  expect_valid_min_wavelength(g, p, 8);
  EXPECT_EQ(trace.r, 7);
  EXPECT_TRUE(is_matching(g, trace.matching));
  // Blossom matching meets Lemma 8.
  EXPECT_GE(static_cast<long long>(trace.matching.size()),
            lemma8_matching_lower_bound(36, 7));
  EXPECT_TRUE(validate_cover(g, trace.cover));
  EXPECT_TRUE(cover_spans_all_edges(g, trace.cover));
  // Lemma 9: cover size <= 3n/(r+1).
  EXPECT_LE(static_cast<long long>(trace.cover.size()),
            lemma9_cover_bound(36, 7));
}

TEST(RegularEuler, PetersenGraph) {
  Graph g = petersen_graph();  // 3-regular, perfect matching exists
  RegularEulerTrace trace;
  EdgePartition p = regular_euler(CsrGraph(g), 4, {}, &trace);
  expect_valid_min_wavelength(g, p, 4);
  EXPECT_EQ(trace.matching.size(), 5u);
  // G-M is 2-regular: every component is even (all saturated).
  EXPECT_EQ(trace.odd_components, 0);
}

TEST(RegularEuler, CompleteGraphOddDegree) {
  Graph g = complete_graph(8);  // 7-regular
  RegularEulerTrace trace;
  EdgePartition p = regular_euler(CsrGraph(g), 4, {}, &trace);
  expect_valid_min_wavelength(g, p, 4);
  EXPECT_LE(static_cast<long long>(trace.cover.size()),
            lemma9_cover_bound(8, 7));
}

class RegularEulerGridP
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RegularEulerGridP, Theorem10BoundsHold) {
  auto [r, k, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  Graph g = random_regular(36, static_cast<NodeId>(r), rng);
  RegularEulerTrace trace;
  EdgePartition p = regular_euler(CsrGraph(g), k, {}, &trace);
  auto v = validate_partition(g, p);
  ASSERT_TRUE(v.ok) << v.reason;
  EXPECT_TRUE(uses_min_wavelengths(g, p));

  long long cost = sadm_cost(g, p);
  int components =
      trace.r % 2 == 0 ? static_cast<int>(trace.cover.size()) : 0;
  EXPECT_LE(cost, regular_euler_cost_bound(36, static_cast<NodeId>(r),
                                           g.real_edge_count(), k,
                                           components))
      << "r=" << r << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, RegularEulerGridP,
    ::testing::Combine(::testing::Values(3, 7, 8, 15, 16, 35),
                       ::testing::Values(3, 4, 16, 48),
                       ::testing::Values(1, 2)));

class RegularEulerMatchingPolicyP
    : public ::testing::TestWithParam<MatchingPolicy> {};

TEST_P(RegularEulerMatchingPolicyP, AllMatchingPoliciesValid) {
  Rng rng(7);
  Graph g = random_regular(36, 15, rng);
  GroomingOptions options;
  options.matching_policy = GetParam();
  options.seed = 11;
  EdgePartition p = regular_euler(CsrGraph(g), 8, options);
  expect_valid_min_wavelength(g, p, 8);
}

INSTANTIATE_TEST_SUITE_P(Policies, RegularEulerMatchingPolicyP,
                         ::testing::Values(MatchingPolicy::kGreedy,
                                           MatchingPolicy::kBlossom,
                                           MatchingPolicy::kColorClass));

TEST(RegularEuler, DisconnectedEvenRegular) {
  // Two disjoint 4-cycles: 2-regular, two components.
  Graph g(8);
  for (NodeId base : {0, 4}) {
    for (NodeId i = 0; i < 4; ++i) {
      g.add_edge(static_cast<NodeId>(base + i),
                 static_cast<NodeId>(base + (i + 1) % 4));
    }
  }
  RegularEulerTrace trace;
  EdgePartition p = regular_euler(CsrGraph(g), 3, {}, &trace);
  expect_valid_min_wavelength(g, p, 3);
  EXPECT_EQ(trace.even_components, 2);
}

TEST(RegularEuler, DisconnectedOddRegularWithOddComponents) {
  // Two disjoint K4s: 3-regular; with a maximum matching the components
  // stay fully saturated, so force odd components via a *greedy* matching
  // that may differ — instead verify correctness only.
  Graph g(8);
  for (NodeId base : {0, 4}) {
    for (NodeId i = 0; i < 4; ++i) {
      for (NodeId j = static_cast<NodeId>(i + 1); j < 4; ++j) {
        g.add_edge(static_cast<NodeId>(base + i),
                   static_cast<NodeId>(base + j));
      }
    }
  }
  EdgePartition p = regular_euler(CsrGraph(g), 4);
  expect_valid_min_wavelength(g, p, 4);
}

TEST(RegularEuler, WorksOnRegularMultigraph) {
  // A doubled 4-cycle: 4-regular multigraph (weighted traffic shape).
  Graph g(4);
  for (int rep = 0; rep < 2; ++rep) {
    for (NodeId v = 0; v < 4; ++v) {
      g.add_edge(v, static_cast<NodeId>((v + 1) % 4));
    }
  }
  EdgePartition p = regular_euler(CsrGraph(g), 3);
  expect_valid_min_wavelength(g, p, 3);
}

// The labelled Euler decomposition of CsrGraph(g), as heap walks.
std::vector<Walk> heap_walks(const Graph& g, const std::vector<char>& mask) {
  MonotonicArena arena;
  std::vector<Walk> walks;
  for (const ArenaWalk& w : euler_decomposition(CsrGraph(g), mask, arena)) {
    walks.push_back(Walk{{w.nodes.begin(), w.nodes.end()},
                         {w.edges.begin(), w.edges.end()}});
  }
  return walks;
}

// Regular_Euler as it ran on the adjacency-list Graph before it moved onto
// the CSR kernels: a working copy with virtual edges appended, labelled
// components and degrees of G - M, the labelled Euler decomposition cut at
// the virtual edges, and heap skeletons chunked in canonical order.  The
// reference the CSR implementation must equal.
EdgePartition graph_regular_euler(const Graph& g, int k,
                                  const GroomingOptions& options,
                                  RegularEulerTrace& trace) {
  const NodeId r = *regularity(g);
  trace = RegularEulerTrace{};
  trace.r = r;
  EdgePartition empty;
  empty.k = k;
  if (g.edge_count() == 0) return empty;
  SkeletonCover cover;
  std::vector<EdgeId> matching;
  if (r % 2 == 0) {
    std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 1);
    for (Walk& walk : heap_walks(g, mask)) {
      cover.push_back(Skeleton::from_walk(std::move(walk)));
    }
    trace.even_components = static_cast<int>(cover.size());
  } else if (r == 1) {
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      Walk walk{{g.edge(e).u, g.edge(e).v}, {e}};
      cover.push_back(Skeleton::from_walk(std::move(walk)));
    }
  } else {
    Rng rng(options.seed);
    matching = matching_of(CsrGraph(g), options.matching_policy, &rng);
    Graph working = g;
    std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 1);
    for (EdgeId e : matching) mask[static_cast<std::size_t>(e)] = 0;
    const Components comps =
        connected_components_masked(CsrGraph(working), mask);
    const std::vector<NodeId> degrees = masked_degrees(working, mask);
    std::vector<std::vector<NodeId>> unsaturated(
        static_cast<std::size_t>(comps.count));
    for (NodeId v = 0; v < working.node_count(); ++v) {
      if (degrees[static_cast<std::size_t>(v)] % 2 == 1) {
        unsaturated[static_cast<std::size_t>(
                        comps.label[static_cast<std::size_t>(v)])]
            .push_back(v);
      }
    }
    std::vector<int> odd_ids;
    for (int c = 0; c < comps.count; ++c) {
      if (!unsaturated[static_cast<std::size_t>(c)].empty()) {
        odd_ids.push_back(c);
      } else {
        ++trace.even_components;
      }
    }
    trace.odd_components = static_cast<int>(odd_ids.size());
    auto add_virtual = [&](NodeId a, NodeId b) {
      working.add_edge(a, b, /*is_virtual=*/true);
      mask.push_back(1);
    };
    for (std::size_t i = 0; i + 1 < odd_ids.size(); ++i) {
      add_virtual(unsaturated[static_cast<std::size_t>(odd_ids[i])][1],
                  unsaturated[static_cast<std::size_t>(odd_ids[i + 1])][0]);
    }
    if (!odd_ids.empty()) {
      std::vector<NodeId> odd_now;
      const std::vector<NodeId> deg_now = masked_degrees(working, mask);
      for (NodeId v = 0; v < working.node_count(); ++v) {
        if (deg_now[static_cast<std::size_t>(v)] % 2 == 1) odd_now.push_back(v);
      }
      for (std::size_t j = 2; j + 1 < odd_now.size(); j += 2) {
        add_virtual(odd_now[j], odd_now[j + 1]);
      }
    }
    std::vector<NodeId> first_site_skeleton(
        static_cast<std::size_t>(g.node_count()), kInvalidNode);
    std::vector<std::size_t> first_site_pos(
        static_cast<std::size_t>(g.node_count()), 0);
    for (const Walk& walk : heap_walks(working, mask)) {
      // Maximal real runs, split at the virtual edges.
      std::vector<Walk> segments(1);
      for (std::size_t i = 0; i < walk.edges.size(); ++i) {
        const EdgeId e = walk.edges[i];
        if (working.edge(e).is_virtual) {
          if (!segments.back().edges.empty()) segments.emplace_back();
          continue;
        }
        Walk& current = segments.back();
        if (current.nodes.empty()) current.nodes.push_back(walk.nodes[i]);
        current.nodes.push_back(walk.nodes[i + 1]);
        current.edges.push_back(e);
      }
      if (segments.back().edges.empty()) segments.pop_back();
      for (Walk& segment : segments) {
        for (std::size_t pos = 0; pos < segment.nodes.size(); ++pos) {
          auto v = static_cast<std::size_t>(segment.nodes[pos]);
          if (first_site_skeleton[v] != kInvalidNode) continue;
          first_site_skeleton[v] = static_cast<NodeId>(cover.size());
          first_site_pos[v] = pos;
        }
        cover.push_back(Skeleton::from_walk(std::move(segment)));
      }
    }
    for (EdgeId e : matching) {
      NodeId anchor = g.edge(e).u;
      if (first_site_skeleton[static_cast<std::size_t>(anchor)] ==
          kInvalidNode) {
        anchor = g.edge(e).v;
      }
      const auto a = static_cast<std::size_t>(anchor);
      cover[static_cast<std::size_t>(first_site_skeleton[a])].add_branch(
          first_site_pos[a], e);
    }
  }
  trace.matching = matching;
  trace.cover = cover;
  std::vector<EdgeId> order;
  for (const Skeleton& skeleton : cover) {
    for (EdgeId e : skeleton.canonical_order()) order.push_back(e);
  }
  EdgePartition partition;
  partition.k = k;
  partition.parts = FlatParts::chunks(std::move(order), k);
  return partition;
}

TEST(RegularEuler, CsrRunEqualsTheGraphReference) {
  struct Case {
    std::string name;
    Graph graph;
    MatchingPolicy policy = MatchingPolicy::kBlossom;
  };
  Rng rng(909);
  std::vector<Case> cases;
  cases.push_back({"cycle", cycle_graph(15)});
  cases.push_back({"r=1", random_regular(20, 1, rng)});
  cases.push_back({"even r=6", random_regular(70, 6, rng)});
  cases.push_back({"odd r=5", random_regular(64, 5, rng)});
  cases.push_back({"odd r=17", random_regular(120, 17, rng)});
  cases.push_back({"petersen", petersen_graph()});
  cases.push_back({"K8", complete_graph(8)});
  for (NodeId r : {3, 5, 7, 9}) {
    cases.push_back({"no perfect matching r=" + std::to_string(r),
                     no_perfect_matching_regular(r, rng)});
  }
  cases.push_back({"greedy r=7", random_regular(96, 7, rng),
                   MatchingPolicy::kGreedy});
  cases.push_back({"greedy r=3", random_regular(50, 3, rng),
                   MatchingPolicy::kGreedy});
  cases.push_back({"color class r=9", random_regular(60, 9, rng),
                   MatchingPolicy::kColorClass});
  {
    // Two components, one of them without a perfect matching.
    Graph a = no_perfect_matching_regular(3, rng);
    Graph b = random_regular(10, 3, rng);
    Graph g(a.node_count() + b.node_count());
    for (const Edge& e : b.edges()) g.add_edge(e.u, e.v);
    for (const Edge& e : a.edges()) {
      g.add_edge(e.u + b.node_count(), e.v + b.node_count());
    }
    cases.push_back({"two components", std::move(g)});
  }

  GroomingWorkspace ws;
  int with_odd_components = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    GroomingOptions options;
    options.matching_policy = c.policy;
    options.seed = 5;
    int odd_components = 0;
    for (int k : {3, 16}) {
      RegularEulerTrace expected;
      const EdgePartition want =
          graph_regular_euler(c.graph, k, options, expected);
      RegularEulerTrace fresh_trace;  // no workspace
      EXPECT_EQ(
          regular_euler(CsrGraph(c.graph), k, options, &fresh_trace).parts,
          want.parts);
      RegularEulerTrace csr_trace;
      const CsrGraph csr(c.graph);
      EXPECT_EQ(regular_euler(csr, k, options, &csr_trace, &ws).parts,
                want.parts);
      for (const RegularEulerTrace* t : {&fresh_trace, &csr_trace}) {
        EXPECT_EQ(t->r, expected.r);
        EXPECT_EQ(t->matching, expected.matching);
        EXPECT_EQ(t->even_components, expected.even_components);
        EXPECT_EQ(t->odd_components, expected.odd_components);
        ASSERT_EQ(t->cover.size(), expected.cover.size());
        for (std::size_t i = 0; i < expected.cover.size(); ++i) {
          EXPECT_EQ(t->cover[i].walk_nodes(), expected.cover[i].walk_nodes());
          EXPECT_EQ(t->cover[i].walk_edges(), expected.cover[i].walk_edges());
          EXPECT_EQ(t->cover[i].branches_at(),
                    expected.cover[i].branches_at());
        }
      }
      odd_components = expected.odd_components;
      const NodeId r = expected.r;
      if (r >= 3 && r % 2 == 1 && c.policy == MatchingPolicy::kBlossom) {
        EXPECT_LE(static_cast<long long>(csr_trace.cover.size()),
                  lemma9_cover_bound(c.graph.node_count(), r));
      }
    }
    if (odd_components > 0) ++with_odd_components;
  }
  EXPECT_GE(with_odd_components, 6);
}

TEST(Lemma9Bound, Formula) {
  EXPECT_EQ(lemma9_cover_bound(36, 7), 14);   // ceil(108/8)
  EXPECT_EQ(lemma9_cover_bound(36, 15), 7);   // ceil(108/16)
  EXPECT_THROW(lemma9_cover_bound(36, 8), CheckError);  // even r
}

}  // namespace
}  // namespace tgroom
