// Algo. 1 — Goldschmidt, Hochbaum, Levin, Olinick, "The SONET
// edge-partition problem" [9]: the spanning-tree partition baseline.
//
// Reconstruction (no public code exists): root a DFS spanning tree per
// component and accumulate edges in postorder — child subtrees first, then
// the non-tree edges anchored at the node (each non-tree edge is assigned
// to its later-finishing endpoint), then the node's parent edge.  The
// running sequence is cut into parts of exactly k edges.  Parts are unions
// of adjacent subtrees, matching the m(1 + 2/sqrt(k)) style guarantee the
// paper quotes for [9] and the reported behaviour (strong on sparse
// graphs, weaker on dense ones where non-tree edges scatter).
#pragma once

#include "algorithms/algorithm.hpp"

namespace tgroom {

EdgePartition goldschmidt_spanning_tree(const CsrGraph& g, int k,
                                        const GroomingOptions& options = {});

}  // namespace tgroom
