// graph_fingerprint is a *labeled* identity: equal exactly when the node
// count and the edge table are equal.  Relabeled-isomorphic graphs must therefore collide
// only by (astronomically unlikely) accident — the cache must not treat
// them as the same instance, because partitions are reported in edge ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gen/random_graph.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph.hpp"

namespace tgroom {
namespace {

TEST(Fingerprint, DeterministicAcrossRebuilds) {
  Graph a = make_graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  Graph b = make_graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  EXPECT_EQ(graph_fingerprint(a), graph_fingerprint(b));
}

TEST(Fingerprint, GraphAndCsrAgree) {
  Rng rng(123);
  Graph g = random_dense_ratio(40, 0.2, rng);
  CsrGraph csr(g);
  EXPECT_EQ(graph_fingerprint(g), graph_fingerprint(csr));
}

TEST(Fingerprint, RelabeledIsomorphReadsDifferent) {
  // Swap labels 0 <-> 2 in a path: isomorphic, different labeled graph.
  Graph a = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph b = make_graph(4, {{2, 1}, {1, 0}, {0, 3}});
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(b));
}

TEST(Fingerprint, EdgeInsertionOrderMatters) {
  // Same edge set, different edge ids — distinct identities, because
  // responses reference partitions by edge id.
  Graph a = make_graph(3, {{0, 1}, {1, 2}});
  Graph b = make_graph(3, {{1, 2}, {0, 1}});
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(b));
}

TEST(Fingerprint, SensitiveToSmallChanges) {
  Graph base = make_graph(6, {{0, 1}, {2, 3}, {4, 5}});
  Graph more_nodes = make_graph(7, {{0, 1}, {2, 3}, {4, 5}});
  Graph extra_edge = make_graph(6, {{0, 1}, {2, 3}, {4, 5}, {0, 2}});
  EXPECT_NE(graph_fingerprint(base), graph_fingerprint(more_nodes));
  EXPECT_NE(graph_fingerprint(base), graph_fingerprint(extra_edge));

  Graph empty0 = make_graph(0, {});
  Graph empty1 = make_graph(1, {});
  EXPECT_NE(graph_fingerprint(empty0), graph_fingerprint(empty1));
}

TEST(Fingerprint, VirtualEdgeFlagMatters) {
  Graph a = make_graph(3, {{0, 1}, {1, 2}});
  Graph b = make_graph(3, {{0, 1}});
  b.add_edge(1, 2, /*is_virtual=*/true);
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(b));
}

TEST(Fingerprint, PairwiseDistinctOverRandomFamily) {
  // 64 random graphs of 65-128 edges, so every lane absorbs many words and
  // every m mod 4 (a short tail in one to three lanes) occurs: all
  // fingerprints distinct (a collision would mean structure is discarded).
  std::vector<std::uint64_t> seen;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    Graph g = random_gnm(24, 64 + static_cast<long long>(seed), rng);
    ASSERT_GE(g.edge_count(), 64);
    seen.push_back(graph_fingerprint(g));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Fingerprint, EdgeSwapsWithinAndAcrossLanesReadDifferent) {
  // Edge i feeds lane i mod 4.  Swapping two edges of one lane reorders
  // that lane's chain; swapping edges of two lanes moves words between
  // chains.  Both are different labeled graphs and must read different,
  // including swaps that touch the tail of a graph whose m is not a
  // multiple of 4.
  for (long long m = 64; m < 68; ++m) {
    Rng rng(static_cast<std::uint64_t>(m));
    const Graph g = random_gnm(24, m, rng);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (const Edge& e : g.edges()) edges.emplace_back(e.u, e.v);
    const std::uint64_t base = graph_fingerprint(make_graph(24, edges));
    ASSERT_EQ(base, graph_fingerprint(g));
    const auto last = static_cast<std::size_t>(m - 1);
    const std::pair<std::size_t, std::size_t> swaps[] = {
        {0, 4}, {5, 61}, {last - 4, last},  // same lane
        {0, 1}, {6, 7}, {last - 1, last},   // different lanes
    };
    for (const auto& [a, b] : swaps) {
      auto swapped = edges;
      std::swap(swapped[a], swapped[b]);
      EXPECT_NE(graph_fingerprint(make_graph(24, swapped)), base)
          << "m=" << m << " swap " << a << "<->" << b;
    }
  }
}

TEST(Fingerprint, TopByteCarriesFormatVersion) {
  // Fingerprints are persisted in the durable store as cache-prewarm
  // keys; the embedded version byte is what lets recovery reject keys
  // computed by a different absorption scheme.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    Graph g = random_dense_ratio(12, 0.3, rng);
    const std::uint64_t fp = graph_fingerprint(g);
    EXPECT_EQ(fingerprint_version(fp), kFingerprintFormatVersion);
  }
}

}  // namespace
}  // namespace tgroom
