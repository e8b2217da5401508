#include <gtest/gtest.h>

#include "algo/components.hpp"
#include "algo/min_degree_tree.hpp"
#include "algo/rooted_tree.hpp"
#include "algo/spanning_tree.hpp"
#include "gen/families.hpp"
#include "gen/random_graph.hpp"
#include "graph/properties.hpp"
#include "test_graphs.hpp"

namespace tgroom {
namespace {

TEST(Components, CountsAndLabels) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  Components c = connected_components(CsrGraph(g));
  EXPECT_EQ(c.count, 3);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_NE(c.label[0], c.label[3]);
  auto groups = c.groups();
  ASSERT_EQ(groups.size(), 3u);
}

TEST(Components, MaskedVariant) {
  Graph g = cycle_graph(6);
  std::vector<char> mask(6, 1);
  mask[0] = 0;
  mask[3] = 0;
  Components c = connected_components_masked(CsrGraph(g), mask);
  EXPECT_EQ(c.count, 2);
}

TEST(Components, IsConnected) {
  EXPECT_TRUE(is_connected(cycle_graph(5)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
  Graph g(2);
  EXPECT_FALSE(is_connected(g));
}

TEST(Components, EdgeConnectivity) {
  EXPECT_EQ(edge_connectivity(cycle_graph(6)), 2);
  EXPECT_EQ(edge_connectivity(path_graph(5)), 1);
  EXPECT_EQ(edge_connectivity(complete_graph(5)), 4);
  EXPECT_EQ(edge_connectivity(petersen_graph()), 3);
  Graph disconnected(3);
  disconnected.add_edge(0, 1);
  EXPECT_EQ(edge_connectivity(disconnected), 0);
}

class SpanningTreeP : public ::testing::TestWithParam<TreePolicy> {};

TEST_P(SpanningTreeP, ValidForestOnVariousGraphs) {
  Rng rng(17);
  std::vector<Graph> graphs;
  graphs.push_back(cycle_graph(8));
  graphs.push_back(complete_graph(7));
  graphs.push_back(petersen_graph());
  graphs.push_back(random_gnm(20, 40, rng));
  Graph two_comp(7);
  two_comp.add_edge(0, 1);
  two_comp.add_edge(1, 2);
  two_comp.add_edge(4, 5);
  two_comp.add_edge(5, 6);
  two_comp.add_edge(6, 4);
  graphs.push_back(two_comp);

  for (const Graph& g : graphs) {
    Rng tree_rng(7);
    auto tree = forest_of(CsrGraph(g), GetParam(), &tree_rng);
    EXPECT_TRUE(is_spanning_forest(g, tree));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SpanningTreeP,
                         ::testing::Values(TreePolicy::kBfs, TreePolicy::kDfs,
                                           TreePolicy::kRandom,
                                           TreePolicy::kMinMaxDegree),
                         [](const auto& param_info) {
                           std::string name = tree_policy_name(param_info.param);
                           for (auto& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

// The BFS forest swept to the end: every node's incidences scanned, with
// no early return once all nodes are reached.
std::vector<EdgeId> full_sweep_bfs_forest(const Graph& g) {
  std::vector<char> visited(static_cast<std::size_t>(g.node_count()), 0);
  std::vector<EdgeId> tree;
  std::vector<NodeId> frontier;
  for (NodeId start = 0; start < g.node_count(); ++start) {
    if (visited[static_cast<std::size_t>(start)]) continue;
    visited[static_cast<std::size_t>(start)] = 1;
    std::size_t head = frontier.size();
    frontier.push_back(start);
    while (head < frontier.size()) {
      const NodeId v = frontier[head++];
      for (const Incidence& inc : g.incident(v)) {
        if (visited[static_cast<std::size_t>(inc.neighbor)]) continue;
        visited[static_cast<std::size_t>(inc.neighbor)] = 1;
        tree.push_back(inc.edge);
        frontier.push_back(inc.neighbor);
      }
    }
  }
  return tree;
}

TEST(SpanningTree, BfsEarlyExitGivesTheFullSweepTree) {
  Rng rng(23);
  std::vector<Graph> graphs = {cycle_graph(9), complete_graph(12),
                               petersen_graph(), star_graph(7), Graph(5)};
  for (int i = 0; i < 20; ++i) {
    graphs.push_back(random_gnm(60, 90 + 40 * i, rng));  // connected or not
  }
  Graph tail_isolated(10);  // the last node is reached only by the outer loop
  for (NodeId v = 0; v + 2 < 10; ++v) tail_isolated.add_edge(v, v + 1);
  graphs.push_back(tail_isolated);
  for (const Graph& g : graphs) {
    const std::vector<EdgeId> expected = full_sweep_bfs_forest(g);
    const CsrGraph csr(g);
    EXPECT_EQ(forest_of(csr, TreePolicy::kBfs), expected);
    MonotonicArena arena;
    std::vector<EdgeId> out;
    spanning_forest(csr, TreePolicy::kBfs, nullptr, out, &arena);
    EXPECT_EQ(out, expected);
  }
}

TEST(SpanningTree, RandomPolicyNeedsRng) {
  Graph g = cycle_graph(4);
  std::vector<EdgeId> out;
  EXPECT_THROW(
      spanning_forest(CsrGraph(g), TreePolicy::kRandom, nullptr, out, nullptr),
      CheckError);
}

TEST(SpanningTree, IsSpanningForestRejectsCycles) {
  Graph g = cycle_graph(3);
  EXPECT_FALSE(is_spanning_forest(g, {0, 1, 2}));  // all three edges
  EXPECT_TRUE(is_spanning_forest(g, {0, 1}));
}

TEST(SpanningTree, IsSpanningForestRejectsNonSpanning) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_spanning_forest(g, {0}));  // misses component {2,3}
  EXPECT_TRUE(is_spanning_forest(g, {0, 1}));
}

TEST(MinDegreeTree, BeatsBfsOnStarOfPaths) {
  // A wheel-like graph: hub joined to all cycle nodes; BFS from the hub
  // yields a star (degree n-1); local search should do much better because
  // the cycle offers degree-2 alternatives.
  NodeId n = 12;
  Graph g = cycle_graph(n);
  NodeId hub = g.add_node();
  for (NodeId v = 0; v < n; ++v) g.add_edge(hub, v);
  const CsrGraph csr(g);
  auto tree = min_max_degree_forest(csr);
  EXPECT_TRUE(is_spanning_forest(g, tree));
  EXPECT_LE(forest_max_degree(csr, tree), 3);
}

TEST(MinDegreeTree, HamiltonianPathStaysDegreeTwo) {
  const CsrGraph g(cycle_graph(10));
  auto tree = min_max_degree_forest(g);
  EXPECT_EQ(forest_max_degree(g, tree), 2);
}

TEST(RootedForest, ParentStructure) {
  const CsrGraph g(path_graph(5));
  RootedForest f = rooted(g, forest_of(g, TreePolicy::kBfs));
  EXPECT_EQ(f.preorder.size(), 5u);
  EXPECT_EQ(f.parent[static_cast<std::size_t>(f.preorder[0])], kInvalidNode);
  // Every non-root's parent appears earlier in preorder.
  std::vector<int> pos(5);
  for (int i = 0; i < 5; ++i)
    pos[static_cast<std::size_t>(f.preorder[static_cast<std::size_t>(i)])] = i;
  for (NodeId v = 0; v < 5; ++v) {
    if (f.parent[static_cast<std::size_t>(v)] == kInvalidNode) continue;
    EXPECT_LT(pos[static_cast<std::size_t>(
                  f.parent[static_cast<std::size_t>(v)])],
              pos[static_cast<std::size_t>(v)]);
  }
}

TEST(RootedForest, SubtreeSums) {
  // Star with hub 0: the hub's subtree holds everything; leaves hold 1.
  const CsrGraph g(star_graph(5));
  RootedForest f = rooted(g, forest_of(g, TreePolicy::kBfs));
  std::vector<long long> weight(5, 1);
  auto sums = subtree_sums(f, weight);
  EXPECT_EQ(sums[static_cast<std::size_t>(f.preorder[0])], 5);
}

TEST(RootedForest, OddSubtreeEdges) {
  // Path 0-1-2-3 with odd weight only at the two ends: the middle edge has
  // an odd-weight subtree below it; end edges too.
  RootedForest f = rooted(CsrGraph(path_graph(4)), {0, 1, 2});
  std::vector<long long> weight{1, 0, 0, 1};
  auto odd = odd_subtree_edges(f, weight);
  // Rooted at 0: edges below subtrees {1,2,3}(w=1), {2,3}(w=1), {3}(w=1):
  // all three edges are odd.
  EXPECT_EQ(odd.size(), 3u);
}

}  // namespace
}  // namespace tgroom
