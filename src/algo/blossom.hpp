// Maximum matching in general graphs: Edmonds' blossom algorithm.
//
// O(V^3) contract-and-augment formulation (base/parent arrays, BFS forest).
// Traffic graphs in the paper's experiments are tiny (n = 36), so the
// simple cubic variant is the right trade-off over Micali–Vazirani.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "util/arena.hpp"

namespace tgroom {

/// Edge ids of a maximum matching (virtual edges ignored), written into
/// `out` (cleared first, capacity retained) with the solver's scratch
/// drawn from `arena` when given — the zero-allocation form the grooming
/// hot path uses.
void maximum_matching(const CsrGraph& g, std::vector<EdgeId>& out,
                      MonotonicArena* arena);

}  // namespace tgroom
