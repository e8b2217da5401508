// Local-search refinement of a k-edge partition (paper §6: "heuristics on
// constructing denser sub-graphs in the k-edge partition").
//
// Two move types, applied first-improvement until a fixed point or pass
// cap:
//   - relocate: move an edge into another part with free capacity;
//   - swap: exchange two edges between (possibly full) parts.
// Moves never increase the part count, so a minimum-wavelength partition
// stays minimum-wavelength; empty parts are dropped.
#pragma once

#include "partition/edge_partition.hpp"

namespace tgroom {

struct RefineStats {
  long long cost_before = 0;
  long long cost_after = 0;
  int relocations = 0;
  int swaps = 0;
  int passes = 0;
};

/// Refines in place; returns statistics.  `max_passes` bounds the sweeps.
RefineStats refine_partition(const CsrGraph& g, EdgePartition& partition,
                             int max_passes = 40);

}  // namespace tgroom
