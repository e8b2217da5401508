// Algo. 3 — Wang & Gu, "Grooming of symmetric traffic in unidirectional
// SONET/WDM rings" (ICC'06) [19]: skeleton cover by spanning-tree
// partition.
//
// Reconstruction of the stated approach: repeatedly peel a skeleton off the
// remaining graph — a longest tree path (the diameter path of a BFS tree of
// the component) as the backbone, with every remaining edge incident to a
// backbone node attached as a branch — until no edge is left, then apply
// Proposition 2.  Backbones are simple tree paths, so skeletons stay
// relatively small and the cover relatively large, which is exactly the
// weakness (§3) that motivates SpanT_Euler.
#pragma once

#include "algorithms/algorithm.hpp"
#include "partition/skeleton.hpp"

namespace tgroom {

struct GroomingWorkspace;

struct WangGuTrace {
  SkeletonCover cover;
};

/// Builds its cover on the workspace arena (`workspace` optional; results
/// are identical with or without one).
EdgePartition wanggu_skeleton_cover(const CsrGraph& g, int k,
                                    const GroomingOptions& options = {},
                                    WangGuTrace* trace = nullptr,
                                    GroomingWorkspace* workspace = nullptr);

}  // namespace tgroom
