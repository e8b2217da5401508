// Matching strategies.
//
// Regular_Euler (paper §4) needs a large matching of the r-regular traffic
// graph; Lemma 8 guarantees a maximum matching of size >= n*r/(2(r+1)).
// Three strategies are provided as an ablation axis (ABL-MATCH):
//   - kGreedy:     maximal matching by scanning edges (edge id order, or
//                  shuffled with an rng; no guarantee beyond maximality).
//   - kBlossom:    true maximum matching (Edmonds' blossom algorithm).
//   - kColorClass: largest color class of a (Δ+1)-edge-coloring, the
//                  constructive proof of Lemma 8 via Vizing's theorem.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace tgroom {

enum class MatchingPolicy { kGreedy, kBlossom, kColorClass };

const char* matching_policy_name(MatchingPolicy policy);

/// Edge ids of a matching under the chosen policy, written into `out`
/// (cleared first, capacity retained).  Virtual edges are ignored.  `rng`
/// randomizes the greedy scan order when provided.  kBlossom draws its
/// scratch from `arena` when given, the zero-allocation form the grooming
/// hot path uses; the other policies still allocate internally.
void find_matching(const CsrGraph& g, MatchingPolicy policy, Rng* rng,
                   std::vector<EdgeId>& out, MonotonicArena* arena);

/// True when no two listed edges share an endpoint and none is virtual.
bool is_matching(const Graph& g, const std::vector<EdgeId>& edges);

/// Lemma 8 lower bound on maximum matching size for an r-regular graph on
/// n nodes: ceil(n*r / (2*(r+1))).
long long lemma8_matching_lower_bound(NodeId n, NodeId r);

}  // namespace tgroom
