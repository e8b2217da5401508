// Algorithm Regular_Euler (paper §4, Figure 3): grooming for r-regular
// traffic graphs with guaranteed bounds (Theorem 10).
//
// Even r: every component is Eulerian; the tours are branch-free skeleton
// backbones (cover size = #components, 1 for connected G).
//
// Odd r: compute a (maximum) matching M; in G-M, saturated nodes have even
// degree r-1 and unsaturated nodes odd degree r.  Components containing an
// unsaturated node ("odd components") are chained into one graph G_odd with
// virtual edges between unsaturated nodes; remaining odd-degree nodes are
// virtually paired leaving exactly two, so G_odd has an Euler path.  Even
// components get Euler tours.  Deleting the virtual edges splits the G_odd
// path into real segments; all segments plus the even tours are backbones,
// and M attaches as branches.  Lemma 9 bounds the cover size by
// 3n/(r+1); Proposition 2 finishes.
#pragma once

#include "algorithms/algorithm.hpp"
#include "partition/skeleton.hpp"

namespace tgroom {

struct GroomingWorkspace;

struct RegularEulerTrace {
  NodeId r = 0;
  std::vector<EdgeId> matching;   // empty for even r
  int even_components = 0;        // components of G-M with all-even degrees
  int odd_components = 0;         // components of G-M with unsaturated nodes
  SkeletonCover cover;
};

/// Requires a simple r-regular traffic graph.  r = 1 degenerates to
/// grouping the perfect matching k edges per wavelength (optimal there).
/// Runs with its scratch, walks and cover on the workspace arena
/// (`workspace` optional; results are identical with or without one); the
/// workspace `csr` receives g plus the virtual edges when M is not
/// perfect.
EdgePartition regular_euler(const CsrGraph& g, int k,
                            const GroomingOptions& options = {},
                            RegularEulerTrace* trace = nullptr,
                            GroomingWorkspace* workspace = nullptr);

/// Lemma 9 bound on the skeleton cover size for odd nontrivial r.
long long lemma9_cover_bound(NodeId n, NodeId r);

/// Theorem 10 cost bound (uses the Lemma 9 cover bound for odd r and
/// cover size `components` for even r).
long long regular_euler_cost_bound(NodeId n, NodeId r, long long real_edges,
                                   int k, int components);

}  // namespace tgroom
