#include "algorithms/goldschmidt.hpp"

#include "algo/rooted_tree.hpp"
#include "algo/spanning_tree.hpp"

namespace tgroom {

EdgePartition goldschmidt_spanning_tree(const CsrGraph& g, int k,
                                        const GroomingOptions& options) {
  (void)options;  // the baseline is deterministic: a fixed DFS tree
  check_algorithm_input(g, k);
  const auto n = static_cast<std::size_t>(g.node_count());

  std::vector<EdgeId> tree;
  spanning_forest(g, TreePolicy::kDfs, nullptr, tree, nullptr);
  std::vector<char> in_tree(static_cast<std::size_t>(g.edge_count()), 0);
  for (EdgeId e : tree) in_tree[static_cast<std::size_t>(e)] = 1;

  RootedForest forest;
  root_forest(g, tree, forest, nullptr);
  std::vector<std::size_t> preorder_pos(n, 0);
  for (std::size_t i = 0; i < forest.preorder.size(); ++i) {
    preorder_pos[static_cast<std::size_t>(forest.preorder[i])] = i;
  }

  // Anchor each non-tree edge at its later-visited endpoint, so the edge is
  // emitted while that endpoint's subtree is being flushed.
  std::vector<std::vector<EdgeId>> anchored(n);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (in_tree[static_cast<std::size_t>(e)]) continue;
    const Edge& edge = g.edge(e);
    NodeId anchor =
        preorder_pos[static_cast<std::size_t>(edge.u)] >
                preorder_pos[static_cast<std::size_t>(edge.v)]
            ? edge.u
            : edge.v;
    anchored[static_cast<std::size_t>(anchor)].push_back(e);
  }

  // Reverse preorder keeps every subtree's nodes contiguous and children
  // ahead of parents: flush each node's anchored edges, then its parent
  // edge, cutting every k edges.
  std::vector<EdgeId> order;
  order.reserve(static_cast<std::size_t>(g.edge_count()));
  for (auto it = forest.preorder.rbegin(); it != forest.preorder.rend();
       ++it) {
    NodeId v = *it;
    for (EdgeId e : anchored[static_cast<std::size_t>(v)]) order.push_back(e);
    EdgeId parent_edge = forest.parent_edge[static_cast<std::size_t>(v)];
    if (parent_edge != kInvalidEdge) order.push_back(parent_edge);
  }
  EdgePartition partition;
  partition.k = k;
  partition.parts = FlatParts::chunks(std::move(order), k);
  return partition;
}

}  // namespace tgroom
