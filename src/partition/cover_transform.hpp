// Proposition 2: transform a skeleton cover into a k-edge partition that
// uses the minimum number ceil(m/k) of wavelengths.
//
// Conceptually the paper joins the skeletons with virtual edges into one
// skeleton, cuts it into pieces of exactly k real edges (Proposition 1),
// and deletes the virtual edges.  Operationally that is equivalent to
// concatenating the canonical edge orders of the skeletons and chunking
// into groups of k, which is what we do; the virtual join edges never
// materialize.  Each part is then a union of at most (1 + #skeleton
// boundaries inside it) connected ranges, giving the paper's bound
//   Σ|V_i| <= m + ceil(m/k) + (j - 1)
// for a cover of size j (each of the j-1 boundaries lands in at most one
// part and adds at most one extra connected component there).
#pragma once

#include "partition/edge_partition.hpp"
#include "partition/skeleton.hpp"

namespace tgroom {

/// Builds the k-edge partition from a skeleton cover.  Skeletons must not
/// contain virtual edges (the paper's algorithms strip them before skeleton
/// construction); empty skeletons add nothing.  The skeletons write their
/// canonical orders straight into the partition's id array (`arena` holds
/// their scratch), so the escaping partition is the only heap touch.
EdgePartition partition_from_cover(const CsrGraph& g,
                                   const ArenaSkeletonCover& cover, int k,
                                   MonotonicArena& arena);

/// The Proposition 2 cost bound for `real_edges` edges, grooming factor k,
/// and a cover of size `cover_size`.
long long prop2_cost_bound(long long real_edges, int k,
                           std::size_t cover_size);

}  // namespace tgroom
