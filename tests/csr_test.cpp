// CsrGraph: structural equality with Graph, and bit-identical kernel output
// whichever way the snapshot was built (from a Graph or straight from its
// edge list) and wherever the kernel's scratch lives — the determinism
// contract the hot path relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "algo/components.hpp"
#include "algo/euler.hpp"
#include "algo/min_degree_tree.hpp"
#include "algo/rooted_tree.hpp"
#include "algo/spanning_tree.hpp"
#include "algorithms/algorithm.hpp"
#include "algorithms/workspace.hpp"
#include "gen/random_graph.hpp"
#include "gen/regular_graph.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fingerprint.hpp"
#include "graph/properties.hpp"
#include "test_graphs.hpp"

namespace tgroom {
namespace {

std::vector<Graph> test_graphs() {
  std::vector<Graph> graphs;
  graphs.emplace_back(0);           // empty
  graphs.emplace_back(5);           // isolated nodes only
  graphs.push_back(make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
  {
    Rng rng(42);
    graphs.push_back(random_gnm(24, 60, rng));
  }
  {
    Rng rng(43);
    graphs.push_back(random_gnm(36, 200, rng));
  }
  {
    Rng rng(44);
    graphs.push_back(random_regular(20, 4, rng));
  }
  {
    // Parallel + virtual edges exercise the full incidence layout.
    Graph g(6);
    g.add_edge(0, 1);
    g.add_edge(0, 1);
    g.add_edge(1, 2, /*is_virtual=*/true);
    g.add_edge(2, 3);
    g.add_edge(4, 5, /*is_virtual=*/true);
    graphs.push_back(std::move(g));
  }
  return graphs;
}

void expect_same_structure(const Graph& g, const CsrGraph& csr) {
  ASSERT_EQ(csr.node_count(), g.node_count());
  ASSERT_EQ(csr.edge_count(), g.edge_count());
  ASSERT_EQ(csr.real_edge_count(), g.real_edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(csr.edge(e).u, g.edge(e).u);
    EXPECT_EQ(csr.edge(e).v, g.edge(e).v);
    EXPECT_EQ(csr.edge(e).is_virtual, g.edge(e).is_virtual);
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    auto expected = g.incident(v);
    auto actual = csr.incident(v);
    ASSERT_EQ(actual.size(), expected.size()) << "node " << v;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].neighbor, expected[i].neighbor);
      EXPECT_EQ(actual[i].edge, expected[i].edge);
    }
    EXPECT_EQ(csr.degree(v), g.degree(v));
    EXPECT_EQ(csr.real_degree(v), g.real_degree(v));
  }
}

// The snapshot a parsed request carries: built straight from g's edge list.
CsrGraph assigned(const Graph& g) {
  CsrGraph csr;
  csr.assign(g.node_count(),
             std::vector<Edge>(g.edges().begin(), g.edges().end()));
  return csr;
}

TEST(CsrGraph, MatchesGraphStructure) {
  for (const Graph& g : test_graphs()) {
    expect_same_structure(g, CsrGraph(g));
  }
}

TEST(CsrGraph, RebuildReusesAcrossSizeChanges) {
  CsrGraph csr;
  // Big, then small, then big again: stale tails from a larger snapshot
  // must not leak into a smaller one.
  std::vector<Graph> graphs = test_graphs();
  for (int round = 0; round < 2; ++round) {
    for (const Graph& g : graphs) {
      csr.rebuild(g);
      expect_same_structure(g, csr);
    }
    std::reverse(graphs.begin(), graphs.end());
  }
}

TEST(CsrGraph, AssignFromEdgeListMatchesGraphSnapshot) {
  CsrGraph csr;  // reused: assign() must not keep stale state either
  for (int round = 0; round < 2; ++round) {
    for (const Graph& g : test_graphs()) {
      csr.assign(g.node_count(),
                 std::vector<Edge>(g.edges().begin(), g.edges().end()));
      expect_same_structure(g, csr);
      EXPECT_EQ(graph_fingerprint(csr), graph_fingerprint(g));
      EXPECT_EQ(graph_fingerprint(csr), graph_fingerprint(CsrGraph(g)));
    }
  }
}

TEST(CsrGraph, AssignRejectsMalformedEdges) {
  CsrGraph csr;
  EXPECT_THROW(csr.assign(3, {Edge{0, 3}}), CheckError);
  EXPECT_THROW(csr.assign(3, {Edge{-1, 2}}), CheckError);
  EXPECT_THROW(csr.assign(3, {Edge{1, 1}}), CheckError);
  EXPECT_THROW(csr.assign(-1, {}), CheckError);
}

// Reference for is_simple: sort the real edges' endpoint pairs and look
// for a repeat.
bool has_no_parallel_real_edges(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const Edge& e : g.edges()) {
    if (!e.is_virtual) pairs.push_back(std::minmax(e.u, e.v));
  }
  std::sort(pairs.begin(), pairs.end());
  return std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end();
}

TEST(CsrGraph, IsSimpleMatchesGraph) {
  std::vector<Graph> graphs = test_graphs();
  // Parallel real edges in either orientation; a virtual twin is allowed.
  graphs.push_back(make_graph(3, {{0, 1}, {2, 1}, {1, 0}}));
  graphs.push_back(make_graph(3, {{0, 1}, {0, 1}}));
  Graph with_virtual = make_graph(3, {{0, 1}, {1, 2}});
  with_virtual.add_edge(1, 0, /*is_virtual=*/true);
  graphs.push_back(with_virtual);
  Graph doubled = graphs[4];  // random_gnm(36, 200) plus one reversed twin
  const Edge last = doubled.edge(doubled.edge_count() - 1);
  doubled.add_edge(last.v, last.u);
  graphs.push_back(doubled);
  int parallel = 0;
  for (const Graph& g : graphs) {
    const bool expected = has_no_parallel_real_edges(g);
    EXPECT_EQ(is_simple(g), expected);
    EXPECT_EQ(is_simple(CsrGraph(g)), expected);
    if (!expected) ++parallel;
  }
  EXPECT_EQ(parallel, 4);
}

TEST(CsrGraph, SpanningForestIdenticalPerPolicy) {
  for (const Graph& g : test_graphs()) {
    const CsrGraph csr(g);
    const CsrGraph parsed = assigned(g);
    for (TreePolicy policy : {TreePolicy::kBfs, TreePolicy::kDfs,
                              TreePolicy::kMinMaxDegree}) {
      const std::vector<EdgeId> expected = forest_of(csr, policy);
      EXPECT_EQ(forest_of(parsed, policy), expected)
          << tree_policy_name(policy);
      MonotonicArena arena;
      std::vector<EdgeId> out;
      spanning_forest(csr, policy, nullptr, out, &arena);
      EXPECT_EQ(out, expected) << tree_policy_name(policy);
    }
    // The randomized policy must consume its RNG identically too.
    Rng rng_graph(7), rng_csr(7);
    EXPECT_EQ(forest_of(parsed, TreePolicy::kRandom, &rng_csr),
              forest_of(csr, TreePolicy::kRandom, &rng_graph));
    EXPECT_EQ(rng_csr(), rng_graph());
  }
}

TEST(CsrGraph, ComponentsIdentical) {
  for (const Graph& g : test_graphs()) {
    const CsrGraph csr(g);
    const Components expected = connected_components(csr);
    MonotonicArena arena;
    const Components actual = connected_components(assigned(g), &arena);
    EXPECT_EQ(actual.count, expected.count);
    EXPECT_EQ(actual.label, expected.label);

    // A full mask labels as the unmasked sweep; then mask out every other
    // edge.
    std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 1);
    const Components full = connected_components_masked(csr, mask);
    EXPECT_EQ(full.count, expected.count);
    EXPECT_EQ(full.label, expected.label);
    for (std::size_t e = 1; e < mask.size(); e += 2) mask[e] = 0;
    const Components expected_masked = connected_components_masked(csr, mask);
    const Components actual_masked =
        connected_components_masked(assigned(g), mask);
    EXPECT_EQ(actual_masked.count, expected_masked.count);
    EXPECT_EQ(actual_masked.label, expected_masked.label);
  }
}

TEST(CsrGraph, MaskedDegreesIdentical) {
  for (const Graph& g : test_graphs()) {
    CsrGraph csr(g);
    std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 0);
    for (std::size_t e = 0; e < mask.size(); e += 3) mask[e] = 1;
    EXPECT_EQ(masked_degrees(csr, mask), masked_degrees(g, mask));
  }
}

TEST(CsrGraph, EulerDecompositionIdentical) {
  // Even-regular graphs are Eulerian in every component under a full mask.
  for (NodeId r : {2, 4, 8}) {
    Rng rng(static_cast<std::uint64_t>(100 + r));
    Graph g = random_regular(18, r, rng);
    const CsrGraph csr(g);
    std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 1);
    MonotonicArena arena;
    const ArenaWalkList expected = euler_decomposition(csr, mask, arena);
    const ArenaWalkList actual =
        euler_decomposition(assigned(g), mask, arena, MaskDegrees::kAllEven);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].nodes, expected[i].nodes);
      EXPECT_EQ(actual[i].edges, expected[i].edges);
    }
    // Single-walk entry point from node 0, the first walk's start: it
    // walks node 0's component exactly as the decomposition does.
    const Walk walk = euler_walk_from(csr, mask, 0);
    EXPECT_TRUE(std::equal(walk.nodes.begin(), walk.nodes.end(),
                           expected[0].nodes.begin(), expected[0].nodes.end()));
    EXPECT_TRUE(std::equal(walk.edges.begin(), walk.edges.end(),
                           expected[0].edges.begin(), expected[0].edges.end()));
    EXPECT_TRUE(is_valid_walk(g, walk));
  }
}

TEST(CsrGraph, RootedForestAndOddSubtreesIdentical) {
  for (const Graph& g : test_graphs()) {
    const CsrGraph csr(g);
    const std::vector<EdgeId> tree = forest_of(csr, TreePolicy::kBfs);
    const RootedForest expected = rooted(csr, tree);
    MonotonicArena arena;
    RootedForest actual;
    root_forest(assigned(g), tree, actual, &arena);
    EXPECT_EQ(actual.parent, expected.parent);
    EXPECT_EQ(actual.parent_edge, expected.parent_edge);
    EXPECT_EQ(actual.preorder, expected.preorder);
    EXPECT_EQ(actual.root_of, expected.root_of);

    // The packed-parity form equals the weighted form on the weights'
    // parities.
    const auto n = static_cast<std::size_t>(g.node_count());
    std::vector<long long> weight(n, 0);
    std::vector<std::uint64_t> parity(parity_word_count(n), 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      weight[static_cast<std::size_t>(v)] = v % 3;
      if (v % 3 == 1) parity_flip(parity, v);
    }
    std::vector<EdgeId> odd;
    odd_subtree_edges_parity(actual, parity, odd, &arena);
    EXPECT_EQ(odd, odd_subtree_edges(expected, weight));
  }
}

TEST(CsrGraph, MinMaxDegreeForestIdentical) {
  for (const Graph& g : test_graphs()) {
    const CsrGraph csr(g);
    const std::vector<EdgeId> expected =
        forest_of(csr, TreePolicy::kMinMaxDegree);
    const std::vector<EdgeId> actual = min_max_degree_forest(assigned(g));
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(forest_max_degree(assigned(g), actual),
              forest_max_degree(csr, expected));
  }
}

// The workspace overload of run_algorithm must be a pure optimization:
// identical partitions whether the workspace is fresh, reused, or absent,
// including across graphs of different sizes (stale-buffer hazard).
TEST(Workspace, ReusedWorkspaceMatchesFreshRuns) {
  GroomingWorkspace shared;
  std::vector<std::pair<NodeId, long long>> sizes = {
      {16, 40}, {48, 300}, {12, 20}, {36, 180}};
  for (std::size_t trial = 0; trial < sizes.size(); ++trial) {
    Rng rng(900 + trial);
    Graph g = random_gnm(sizes[trial].first, sizes[trial].second, rng);
    for (int k : {4, 16}) {
      GroomingOptions options;
      options.seed = trial * 31 + static_cast<std::uint64_t>(k);
      EdgePartition baseline =
          run_algorithm(AlgorithmId::kSpanTEuler, g, k, options);
      EdgePartition with_ws = run_algorithm(AlgorithmId::kSpanTEuler, g, k,
                                            options, &shared);
      EXPECT_EQ(with_ws.k, baseline.k);
      EXPECT_EQ(with_ws.parts, baseline.parts);
    }
  }
}

TEST(Workspace, CsrInputMatchesGraphInputForEveryAlgorithm) {
  GroomingWorkspace shared;
  Rng rng(31);
  const Graph sparse = random_gnm(30, 90, rng);
  const Graph regular = random_regular(24, 5, rng);
  for (AlgorithmId id : all_algorithms()) {
    const Graph& g = id == AlgorithmId::kRegularEuler ? regular : sparse;
    const CsrGraph csr(g);
    for (bool refine : {false, true}) {
      GroomingOptions options;
      options.seed = 9;
      options.refine = refine;
      const EdgePartition from_graph = run_algorithm(id, g, 6, options);
      const EdgePartition from_csr =
          run_algorithm(id, csr, 6, options, &shared);
      EXPECT_EQ(from_csr.k, from_graph.k) << algorithm_name(id);
      EXPECT_EQ(from_csr.parts, from_graph.parts) << algorithm_name(id);
    }
  }
  // Input guards hold on the CSR entry too.
  EXPECT_THROW(run_algorithm(AlgorithmId::kSpanTEuler, CsrGraph(sparse), 0,
                             {}, &shared),
               CheckError);
  EXPECT_THROW(run_algorithm(AlgorithmId::kRegularEuler, CsrGraph(sparse), 4,
                             {}, &shared),
               CheckError);
}

TEST(Workspace, SmartBranchesAndRefineMatchToo) {
  GroomingWorkspace shared;
  Rng rng(77);
  Graph g = random_gnm(30, 120, rng);
  GroomingOptions options;
  options.seed = 5;
  options.smart_branches = true;
  options.refine = true;
  EdgePartition baseline =
      run_algorithm(AlgorithmId::kSpanTEuler, g, 8, options);
  EdgePartition with_ws =
      run_algorithm(AlgorithmId::kSpanTEuler, g, 8, options, &shared);
  EXPECT_EQ(with_ws.parts, baseline.parts);
}

}  // namespace
}  // namespace tgroom
