// Rooted-forest utilities over an explicit tree-edge set.
//
// Used by SpanT_Euler to compute the E_odd parity labels: a tree edge
// belongs to E_odd iff the subtree below it contains an odd number of
// odd-degree (in G\T) nodes — the pairing-independent form of the paper's
// "edges appearing in an odd number of pairing paths".
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "util/arena.hpp"

namespace tgroom {

struct RootedForest {
  std::vector<NodeId> parent;       // kInvalidNode for roots
  std::vector<EdgeId> parent_edge;  // kInvalidEdge for roots
  std::vector<NodeId> preorder;     // roots first, parents before children
  std::vector<NodeId> root_of;      // root of each node's tree
};

/// Roots the forest given by `tree_edges` into `out` (buffers resized in
/// place, capacity retained); every node appears (isolated nodes become
/// their own roots).  The throwaway tree adjacency is drawn from `arena`
/// when given (heap otherwise).
void root_forest(const CsrGraph& g, const std::vector<EdgeId>& tree_edges,
                 RootedForest& out, MonotonicArena* arena);

/// For each node, sums `weight` over its subtree (weight has one entry per
/// node); returns per-node subtree totals.  Linear via reverse preorder.
std::vector<long long> subtree_sums(const RootedForest& forest,
                                    const std::vector<long long>& weight);

/// Tree edges whose below-subtree weight sum is odd.  With weight = 1 on
/// odd-degree nodes of G\T, this is exactly E_odd of the paper's Lemma 4.
std::vector<EdgeId> odd_subtree_edges(const RootedForest& forest,
                                      const std::vector<long long>& weight);

/// Number of 64-bit words a packed per-node parity bitset needs.
inline std::size_t parity_word_count(std::size_t node_count) {
  return (node_count + 63) / 64;
}

inline void parity_flip(std::vector<std::uint64_t>& bits, NodeId v) {
  bits[static_cast<std::size_t>(v) >> 6] ^=
      std::uint64_t{1} << (static_cast<std::size_t>(v) & 63);
}

inline bool parity_test(const std::vector<std::uint64_t>& bits, NodeId v) {
  return (bits[static_cast<std::size_t>(v) >> 6] >>
          (static_cast<std::size_t>(v) & 63)) &
         1;
}

/// Parity-only form of odd_subtree_edges for the big-graph hot path:
/// `parity` is a packed bitset (parity_word_count(n) words, bit v set when
/// node v has odd weight).  Output is identical, in the same edge order,
/// to odd_subtree_edges with 0/1 weights, at 1/64th the scratch
/// footprint (the subtree sweep XORs bits instead of summing 64-bit
/// counters).
void odd_subtree_edges_parity(const RootedForest& forest,
                              const std::vector<std::uint64_t>& parity,
                              std::vector<EdgeId>& out, MonotonicArena* arena);

}  // namespace tgroom
