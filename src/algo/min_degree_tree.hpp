// Fürer–Raghavachari-style local search for a spanning tree of small
// maximum degree [6 in the paper].
//
// The exact FR algorithm guarantees Δ(T) <= Δ* + 1; this implementation is
// the standard local-search core (swap a non-tree edge for a tree edge
// incident to a maximum-degree node on the induced cycle) iterated to a
// fixed point or an iteration cap.  It is used as an ablation policy for
// SpanT_Euler, where a low-degree tree tends to leave G\T with fewer
// components.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"

namespace tgroom {

/// Spanning forest whose maximum degree is locally minimal under single
/// edge swaps.
std::vector<EdgeId> min_max_degree_forest(const CsrGraph& g);

/// Maximum degree of the forest given by `tree_edges`.
NodeId forest_max_degree(const CsrGraph& g,
                         const std::vector<EdgeId>& tree_edges);

}  // namespace tgroom
