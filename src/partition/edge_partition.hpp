// The k-edge partition — the combinatorial object the paper optimizes.
//
// A partition of E(G) into parts of at most k edges; its cost Σ|V_i| equals
// the SADM count of the corresponding UPSR grooming (one wavelength per
// part, one SADM per distinct node per wavelength).
#pragma once

#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace tgroom {

struct EdgePartition {
  int k = 1;                             // grooming factor
  std::vector<std::vector<EdgeId>> parts;

  EdgeId total_edges() const;
  int wavelength_count() const { return static_cast<int>(parts.size()); }
};

/// Σ over parts of the number of distinct nodes spanned — the SADM count.
/// One pass over the parts' edges with a node array stamped per part.
long long sadm_cost(const Graph& g, const EdgePartition& partition);
long long sadm_cost(const CsrGraph& g, const EdgePartition& partition);

struct PartitionValidation {
  bool ok = true;
  std::string reason;
};

/// Checks: every real edge appears exactly once, no virtual edges, every
/// part nonempty with at most k edges.
PartitionValidation validate_partition(const Graph& g,
                                       const EdgePartition& partition);

/// Minimum number of wavelengths: ceil(m / k).
long long min_wavelengths(long long real_edges, int k);

/// True when the partition uses exactly ceil(m/k) parts.
bool uses_min_wavelengths(const Graph& g, const EdgePartition& partition);

/// Fewest nodes a subgraph with `edges` edges can span (inverse triangular
/// number): min t with t(t-1)/2 >= edges.
NodeId min_nodes_for_edges(long long edges);

/// A lower bound on OPT over all valid k-edge partitions:
///   max( Σ_v ceil(deg(v)/k),
///        floor(m/k)*t(k) + t(m mod k) )   where t = min_nodes_for_edges.
/// The first term holds because a part carries at most k of v's edges, so
/// v appears in (and pays an SADM on) at least ceil(deg(v)/k) parts; it
/// subsumes the #non-isolated-nodes bound.  The second is valid because t
/// is subadditive and concave, so the per-part node bound is minimized by
/// filling parts to k edges.
long long partition_cost_lower_bound(const Graph& g, int k);
long long partition_cost_lower_bound(const CsrGraph& g, int k);

/// Just the degree term Σ_v ceil(deg(v)/k) (the classic UPSR grooming
/// lower bound).
long long degree_lower_bound(const Graph& g, int k);
long long degree_lower_bound(const CsrGraph& g, int k);

}  // namespace tgroom
