// Spanning forest construction with pluggable policies.
//
// The choice of spanning tree affects SpanT_Euler through c, the number of
// connected components of G\T (Theorem 5); the paper's concluding remarks
// call out tree selection as the lever for tightening the bound, so the
// policy is a first-class parameter and an ablation axis (ABL-TREE).
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace tgroom {

enum class TreePolicy {
  kBfs,           // breadth-first tree (shallow, high-degree roots)
  kDfs,           // depth-first tree (path-like, few leaves)
  kRandom,        // random-order Kruskal (uniformly scrambled edge order)
  kMinMaxDegree,  // Fürer–Raghavachari-style local search minimizing Δ(T)
};

const char* tree_policy_name(TreePolicy policy);

/// Writes the tree edge ids of a spanning forest of g (n - #components
/// edges) into `out` (cleared first, capacity retained), with traversal
/// scratch drawn from `arena` when given (heap otherwise).  `rng` is
/// required for kRandom and optional elsewhere.  kMinMaxDegree still
/// allocates internally (its local search is not on the hot path).
void spanning_forest(const CsrGraph& g, TreePolicy policy, Rng* rng,
                     std::vector<EdgeId>& out, MonotonicArena* arena);

/// True when `tree_edges` forms a spanning forest (acyclic, spans every
/// component).
bool is_spanning_forest(const Graph& g, const std::vector<EdgeId>& tree_edges);

}  // namespace tgroom
