// CliquePack — the paper's §6 future-work direction: "partitioning the
// traffic graph into sub-graphs which are cliques or close to cliques".
//
// Greedy dense-subgraph packing: seed each part with the edge of highest
// remaining degree sum, then grow by preferring edges that close inside the
// part's node set (0 new nodes) over edges adding one node, until the part
// holds k edges or nothing adjacent remains.  A final repair pass merges
// the surplus parts so the result still uses the minimum ceil(m/k)
// wavelengths.
#pragma once

#include "algorithms/algorithm.hpp"

namespace tgroom {

EdgePartition clique_pack(const CsrGraph& g, int k,
                          const GroomingOptions& options = {});

}  // namespace tgroom
