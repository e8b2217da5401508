// Graph constructions shared by the grooming tests, plus value-returning
// forms of the out-param kernels.
#pragma once

#include <numeric>
#include <vector>

#include "algo/matching.hpp"
#include "algo/rooted_tree.hpp"
#include "algo/spanning_tree.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace tgroom {

/// g with its node ids shuffled; edges keep their order.
inline Graph relabelled(const Graph& g, Rng& rng) {
  std::vector<NodeId> perm(static_cast<std::size_t>(g.node_count()));
  std::iota(perm.begin(), perm.end(), NodeId{0});
  rng.shuffle(perm);
  Graph out(g.node_count());
  for (const Edge& e : g.edges()) {
    out.add_edge(perm[static_cast<std::size_t>(e.u)],
                 perm[static_cast<std::size_t>(e.v)]);
  }
  return out;
}

/// An r-regular graph (odd r >= 3) with no perfect matching, relabelled by
/// `rng`: a centre joined to r gadgets of r + 2 nodes each.  A gadget is
/// K_{r+2} minus a near-perfect matching that misses s, minus the edges
/// s-a and s-b for one matched pair {a, b}, with a-b put back; s then has
/// degree r - 1 inside the gadget and takes the centre as its r-th
/// neighbour.  Removing the centre leaves r odd components, so (Tutte) no
/// matching is perfect and Regular_Euler's virtual edges and odd
/// components run.
inline Graph no_perfect_matching_regular(NodeId r, Rng& rng) {
  const NodeId size = r + 2;
  Graph g(1 + r * size);
  for (NodeId gadget = 0; gadget < r; ++gadget) {
    const NodeId base = 1 + gadget * size;  // base = s
    for (NodeId i = 0; i < size; ++i) {
      for (NodeId j = i + 1; j < size; ++j) {
        // The near-perfect matching pairs (1,2), (3,4), ...; (1,2) is the
        // pair whose s-edges go and whose matching edge stays.
        const bool matched = i >= 1 && i % 2 == 1 && j == i + 1;
        const bool s_to_pair = i == 0 && (j == 1 || j == 2);
        if ((matched && i != 1) || s_to_pair) continue;
        g.add_edge(base + i, base + j);
      }
    }
    g.add_edge(0, base);
  }
  return relabelled(g, rng);
}

/// spanning_forest's tree edges, with heap scratch.
inline std::vector<EdgeId> forest_of(const CsrGraph& g, TreePolicy policy,
                                     Rng* rng = nullptr) {
  std::vector<EdgeId> tree;
  spanning_forest(g, policy, rng, tree, nullptr);
  return tree;
}

/// root_forest's rooting of `tree`, with heap scratch.
inline RootedForest rooted(const CsrGraph& g,
                           const std::vector<EdgeId>& tree) {
  RootedForest forest;
  root_forest(g, tree, forest, nullptr);
  return forest;
}

/// find_matching's matching, with heap scratch.
inline std::vector<EdgeId> matching_of(const CsrGraph& g,
                                       MatchingPolicy policy,
                                       Rng* rng = nullptr) {
  std::vector<EdgeId> matching;
  find_matching(g, policy, rng, matching, nullptr);
  return matching;
}

}  // namespace tgroom
