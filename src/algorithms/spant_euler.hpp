// Algorithm SpanT_Euler (paper §3, Figure 1): the paper's main
// contribution for arbitrary traffic graphs.
//
// Pipeline (Lemma 4 / Theorem 5):
//  1. spanning forest T of G;
//  2. V_odd = odd-degree nodes of G\T; E_odd = tree edges crossed by an odd
//     number of pairing paths — computed pairing-free as tree edges whose
//     below-subtree contains an odd number of V_odd nodes;
//  3. G'' = (V, E_odd ∪ (E\T)) has all even degrees; its Euler tours become
//     skeleton backbones (singleton backbones for nodes G'' misses);
//  4. the remaining tree edges E(T)\E_odd attach as branches;
//  5. Proposition 2 turns the cover into a k-edge partition with exactly
//     ceil(m/k) wavelengths.
#pragma once

#include "algorithms/algorithm.hpp"
#include "partition/skeleton.hpp"

namespace tgroom {

struct GroomingWorkspace;
class ThreadPool;

/// White-box intermediates for tests and ablations.
struct SpanTEulerTrace {
  std::vector<EdgeId> tree;
  std::vector<EdgeId> e_odd;
  int g2_component_count = 0;  // Lemma 4's c (components of G\T)
  /// Set want_cover = false to skip the heap copy of the skeleton cover
  /// (cover_size is always filled) — the big-graph Prop-2 harness checks
  /// the Theorem 5 bound at n = 10^6 without materializing 10^6 skeletons
  /// twice.
  bool want_cover = true;
  std::size_t cover_size = 0;
  SkeletonCover cover;
};

/// Walks g in place (never copied into the workspace).  `workspace`
/// (optional) supplies reusable scratch; results are identical with or
/// without one.
EdgePartition spant_euler(const CsrGraph& g, int k,
                          const GroomingOptions& options = {},
                          SpanTEulerTrace* trace = nullptr,
                          GroomingWorkspace* workspace = nullptr);

/// Per-component parallel SpanT_Euler: splits g into connected components,
/// runs the sequential pipeline on each (rank-renumbered local subgraph,
/// chunks fanned out over `pool`), and merges the per-component skeleton
/// sequences back into the exact sequential cover order.  The partition is
/// BIT-IDENTICAL to spant_euler(g, k, options) for any worker count
/// (including 0, where the pool runs chunks inline) — the merge key
/// (phase, min-node / creating-edge id) reconstructs the global order; see
/// DESIGN.md §16 for the argument.
///
/// Falls back to the sequential path when `pool` is null or the tree
/// policy is not component-local (kRandom shuffles edge ids globally,
/// kMinMaxDegree's local search is whole-graph).
EdgePartition spant_euler_parallel(const CsrGraph& g, int k,
                                   const GroomingOptions& options,
                                   ThreadPool* pool,
                                   GroomingWorkspace* workspace = nullptr);

/// Theorem 5 cost bound: m + ceil(m/k) + (c - 1) extra part-components.
long long spant_euler_cost_bound(long long real_edges, int k,
                                 int gminus_t_components);

}  // namespace tgroom
