// Big-graph hot path (DESIGN.md §16): per-component parallel SpanT_Euler
// bit-identity, streaming Euler walk-identity, component splitting /
// subgraph renumbering, the big-graph generators, arena peak tracking, and
// the n = 10^5 Proposition 2 property check.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "algo/components.hpp"
#include "algo/euler.hpp"
#include "algo/spanning_tree.hpp"
#include "algorithms/spant_euler.hpp"
#include "algorithms/workspace.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "partition/cover_transform.hpp"
#include "partition/edge_partition.hpp"
#include "service/metrics.hpp"
#include "util/check.hpp"
#include "test_graphs.hpp"
#include "util/thread_pool.hpp"

namespace tgroom {
namespace {

// Two interleaved components: even nodes form one path, odd nodes another,
// so component node ids alternate — the adversarial case for the parallel
// merge (contiguous-component graphs cannot catch a wrong merge key).
Graph interleaved_two_paths(NodeId n) {
  Graph g(n);
  for (NodeId v = 0; v + 2 < n; ++v) g.add_edge(v, v + 2);
  return g;
}

// Three interleaved ring clusters by node-id stride, with chords.
Graph interleaved_rings(NodeId per_ring, int rings) {
  Graph g(per_ring * rings);
  for (int r = 0; r < rings; ++r) {
    for (NodeId i = 0; i < per_ring; ++i) {
      NodeId a = i * rings + r;
      NodeId b = ((i + 1) % per_ring) * rings + r;
      g.add_edge(a, b);
    }
    // A couple of chords per ring so branches and E_odd are non-trivial.
    g.add_edge(r, 4 * rings + r);
    g.add_edge(2 * rings + r, 7 * rings + r);
  }
  return g;
}

void expect_partitions_equal(const EdgePartition& a, const EdgePartition& b) {
  ASSERT_EQ(a.parts.size(), b.parts.size());
  for (std::size_t i = 0; i < a.parts.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.parts[i], b.parts[i])) << "part " << i;
  }
}

TEST(ParallelSpanTEuler, BitIdenticalAcrossWorkerCounts) {
  Rng rng(7);
  std::vector<Graph> graphs;
  graphs.push_back(interleaved_two_paths(25));
  graphs.push_back(interleaved_rings(10, 3));
  graphs.push_back(ring_cluster_graph(120, 6, 30, rng));
  graphs.push_back(random_gnm_big(80, 90, rng));  // several components
  Graph isolated(6);  // edgeless graph
  graphs.push_back(std::move(isolated));

  for (const Graph& g : graphs) {
    for (TreePolicy policy : {TreePolicy::kBfs, TreePolicy::kDfs}) {
      for (bool smart : {false, true}) {
        for (int k : {1, 4, 16}) {
          GroomingOptions options;
          options.tree_policy = policy;
          options.smart_branches = smart;
          EdgePartition sequential = spant_euler(CsrGraph(g), k, options);
          for (std::size_t workers : {0u, 1u, 4u}) {
            ThreadPool pool(workers);
            GroomingWorkspace ws;
            EdgePartition parallel =
                spant_euler_parallel(CsrGraph(g), k, options, &pool, &ws);
            SCOPED_TRACE(testing::Message()
                         << "n=" << g.node_count() << " m=" << g.edge_count()
                         << " policy=" << tree_policy_name(policy)
                         << " smart=" << smart << " k=" << k
                         << " workers=" << workers);
            expect_partitions_equal(sequential, parallel);
          }
        }
      }
    }
  }
}

TEST(ParallelSpanTEuler, IneligiblePolicyFallsBackToSequential) {
  Rng rng(11);
  Graph g = ring_cluster_graph(60, 3, 12, rng);
  for (TreePolicy policy :
       {TreePolicy::kRandom, TreePolicy::kMinMaxDegree}) {
    GroomingOptions options;
    options.tree_policy = policy;
    EdgePartition sequential = spant_euler(CsrGraph(g), 4, options);
    ThreadPool pool(2);
    EdgePartition parallel =
        spant_euler_parallel(CsrGraph(g), 4, options, &pool);
    expect_partitions_equal(sequential, parallel);
  }
}

TEST(ParallelSpanTEuler, MatchesSequentialRunAlgorithm) {
  Rng rng(3);
  Graph g = ring_cluster_graph(90, 3, 21, rng);
  GroomingOptions options;
  EdgePartition plain =
      run_algorithm(AlgorithmId::kSpanTEuler, g, 8, options);
  ThreadPool pool(2);
  EdgePartition pooled =
      spant_euler_parallel(CsrGraph(g), 8, options, &pool, nullptr);
  expect_partitions_equal(plain, pooled);
}

TEST(StreamingEuler, WalksMatchMaterializedAndPeakIsLower) {
  Rng rng(5);
  // Disjoint cycles: every degree even, so the all-edges mask is Eulerian.
  Graph g = ring_cluster_graph(600, 12, 0, rng);
  CsrGraph csr(g);
  std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 1);

  MonotonicArena mat_arena;
  ArenaWalkList walks = euler_decomposition(csr, mask, mat_arena);

  MonotonicArena stream_arena;
  std::size_t next = 0;
  euler_decomposition_stream(
      csr, mask, stream_arena, [&](const ArenaWalk& walk) {
        ASSERT_LT(next, walks.size());
        const ArenaWalk& expected = walks[next++];
        ASSERT_EQ(walk.nodes.size(), expected.nodes.size());
        ASSERT_EQ(walk.edges.size(), expected.edges.size());
        for (std::size_t i = 0; i < walk.nodes.size(); ++i) {
          EXPECT_EQ(walk.nodes[i], expected.nodes[i]);
        }
        for (std::size_t i = 0; i < walk.edges.size(); ++i) {
          EXPECT_EQ(walk.edges[i], expected.edges[i]);
        }
      });
  EXPECT_EQ(next, walks.size());
  // One reused buffer vs 12 retained walks: the streaming peak must be
  // strictly below the materializing peak on a multi-walk mask.
  EXPECT_LT(stream_arena.peak_bytes(), mat_arena.peak_bytes());
}

TEST(StreamingEuler, OpenWalkAndEmptyMask) {
  Graph g = path_graph(5);
  CsrGraph csr(g);
  std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 1);
  MonotonicArena arena;
  int count = 0;
  euler_decomposition_stream(csr, mask, arena,
                             [&count](const ArenaWalk& walk) {
                               ++count;
                               EXPECT_EQ(walk.edges.size(), 4u);
                             });
  EXPECT_EQ(count, 1);

  std::fill(mask.begin(), mask.end(), 0);
  euler_decomposition_stream(csr, mask, arena,
                             [](const ArenaWalk&) { FAIL(); });
}

TEST(ComponentSplit, GroupsAndRenumbersRankPreserving) {
  Graph g = interleaved_two_paths(9);  // evens 0-2-4-6-8, odds 1-3-5-7
  CsrGraph csr(g);
  Components comp = connected_components(csr);
  ASSERT_EQ(comp.count, 2);
  ComponentSplit split = split_components(csr, comp);

  auto nodes0 = split.component_nodes(0);
  ASSERT_EQ(nodes0.size(), 5u);
  for (std::size_t i = 0; i < nodes0.size(); ++i) {
    EXPECT_EQ(nodes0[i], static_cast<NodeId>(2 * i));
    EXPECT_EQ(split.local_node[static_cast<std::size_t>(nodes0[i])],
              static_cast<NodeId>(i));
  }
  auto edges1 = split.component_edges(1);
  ASSERT_EQ(edges1.size(), 3u);

  // Rebuild component 1 and check the rank-preservation property the
  // parallel merge relies on: the local spanning forest is the global
  // forest's component-1 edges, renumbered by rank.
  CsrGraph local;
  local.rebuild_subgraph(csr, split.component_nodes(1), edges1,
                         split.local_node);
  EXPECT_EQ(local.node_count(), 4);
  EXPECT_EQ(local.edge_count(), 3);
  std::vector<EdgeId> local_tree = forest_of(local, TreePolicy::kBfs);
  std::vector<EdgeId> global_tree = forest_of(csr, TreePolicy::kBfs);
  std::vector<EdgeId> global_in_comp;
  std::set<EdgeId> comp_edges(edges1.begin(), edges1.end());
  for (EdgeId e : global_tree) {
    if (comp_edges.count(e)) global_in_comp.push_back(e);
  }
  ASSERT_EQ(local_tree.size(), global_in_comp.size());
  for (std::size_t i = 0; i < local_tree.size(); ++i) {
    EXPECT_EQ(edges1[static_cast<std::size_t>(local_tree[i])],
              global_in_comp[i]);
  }
}

TEST(BigGenerators, GnmBigMatchesSetBasedSparsePath) {
  // Same rng state -> identical draw sequence -> identical graph; only
  // the dedup structure differs.
  Rng rng_a(42);
  Rng rng_b(42);
  Graph a = random_gnm(300, 500, rng_a);
  Graph b = random_gnm_big(300, 500, rng_b);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
  }
}

TEST(BigGenerators, RingClusterShape) {
  Rng rng(9);
  Graph g = ring_cluster_graph(1003, 7, 50, rng);
  EXPECT_EQ(g.node_count(), 1003);
  EXPECT_EQ(g.edge_count(), 1003 + 50);
  EXPECT_EQ(connected_components(CsrGraph(g)).count, 7);
  // Simple graph: no duplicate pairs, no self-loops.
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : g.edges()) {
    NodeId u = std::min(e.u, e.v);
    NodeId v = std::max(e.u, e.v);
    EXPECT_NE(u, v);
    EXPECT_TRUE(seen.insert({u, v}).second);
  }
  EXPECT_THROW(ring_cluster_graph(8, 3, 0, rng), CheckError);
  EXPECT_THROW(ring_cluster_graph(9, 3, 1, rng), CheckError);  // no free pair
}

TEST(BigGenerators, EdgeCountGuardRejectsOverflowingReserve) {
  Graph g(5);
  EXPECT_THROW(g.reserve_edges(kMaxEdgeCount + 1), CheckError);
}

TEST(ArenaPeak, TracksHighWaterAcrossResets) {
  MonotonicArena arena;
  EXPECT_EQ(arena.peak_bytes(), 0u);
  arena.allocate(1000, 8);
  EXPECT_EQ(arena.peak_bytes(), 1000u);
  arena.reset();
  arena.allocate(64, 8);
  EXPECT_EQ(arena.peak_bytes(), 1000u);  // high-water survives the rewind
  arena.allocate(2000, 8);
  EXPECT_EQ(arena.peak_bytes(), 2064u);
}

TEST(ArenaPeak, ExportedThroughServiceMetricsJson) {
  ServiceMetrics metrics;
  metrics.observe_arena_peak(123);
  metrics.observe_arena_peak(77);  // max wins
  std::string json = metrics.to_json();
  EXPECT_NE(json.find("\"arena\":{\"peak_bytes\":123}"), std::string::npos)
      << json;
}

TEST(SpanTEulerTraceOptions, WantCoverFalseStillReportsCoverSize) {
  Rng rng(13);
  Graph g = ring_cluster_graph(90, 3, 15, rng);
  SpanTEulerTrace full;
  EdgePartition p1 = spant_euler(CsrGraph(g), 4, {}, &full);
  SpanTEulerTrace slim;
  slim.want_cover = false;
  EdgePartition p2 = spant_euler(CsrGraph(g), 4, {}, &slim);
  EXPECT_EQ(full.cover_size, full.cover.size());
  EXPECT_EQ(slim.cover_size, full.cover_size);
  EXPECT_TRUE(slim.cover.empty());
  expect_partitions_equal(p1, p2);
}

// The n = 10^5 property check: the Theorem 5 / Proposition 2 SADM bound
// and the minimum wavelength count hold on big seeded instances, for both
// the sequential and the parallel path.
TEST(ScaleProperty, PlanWithinProp2BoundAtN100k) {
  const NodeId n = 100000;
  for (std::uint64_t seed : {1ull, 2ull}) {
    Rng rng(seed);
    Graph g = seed % 2 == 1 ? ring_cluster_graph(n, 100, n / 2, rng)
                            : random_gnm_big(n, 2 * n, rng);
    const int k = 16;
    SpanTEulerTrace trace;
    trace.want_cover = false;
    GroomingWorkspace ws;
    EdgePartition p = spant_euler(CsrGraph(g), k, {}, &trace, &ws);
    auto v = validate_partition(g, p);
    ASSERT_TRUE(v.ok) << v.reason;
    EXPECT_TRUE(uses_min_wavelengths(g, p));
    long long bound =
        spant_euler_cost_bound(g.edge_count(), k, trace.g2_component_count);
    EXPECT_LE(sadm_cost(g, p), bound) << "seed " << seed;
    EXPECT_GT(ws.arena.peak_bytes(), 0u);

    ThreadPool pool(2);
    EdgePartition parallel = spant_euler_parallel(CsrGraph(g), k, {}, &pool);
    expect_partitions_equal(p, parallel);
  }
}

}  // namespace
}  // namespace tgroom
