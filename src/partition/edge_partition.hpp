// The k-edge partition — the combinatorial object the paper optimizes.
//
// A partition of E(G) into parts of at most k edges; its cost Σ|V_i| equals
// the SADM count of the corresponding UPSR grooming (one wavelength per
// part, one SADM per distinct node per wavelength).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace tgroom {

/// The parts of a partition, stored flat: every part's edge ids back to
/// back in one array plus each part's end offset, so a partition of any
/// size is two heap blocks.  part(i) / operator[] view one part as a span;
/// iterating yields the parts in order.
class FlatParts {
 public:
  using Part = std::span<const EdgeId>;

  class const_iterator {
   public:
    using value_type = Part;
    using difference_type = std::ptrdiff_t;
    const_iterator() = default;
    const_iterator(const FlatParts* parts, std::size_t i)
        : parts_(parts), i_(i) {}
    Part operator*() const { return parts_->part(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    const FlatParts* parts_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = const_iterator;

  FlatParts() = default;
  FlatParts(std::initializer_list<std::initializer_list<EdgeId>> parts);

  /// Consecutive chunks of k ids of `ids` (the last may be shorter) — the
  /// shape every cover transform produces.
  static FlatParts chunks(std::vector<EdgeId> ids, int k);

  /// For algorithms that move edges between parts: they work on nested
  /// vectors and convert once at their boundary.
  static FlatParts from_nested(const std::vector<std::vector<EdgeId>>& parts);
  std::vector<std::vector<EdgeId>> to_nested() const;

  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  Part part(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return Part(ids_.data() + begin, ends_[i] - begin);
  }
  Part operator[](std::size_t i) const { return part(i); }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, ends_.size()}; }

  /// Every part's ids, part by part.
  const std::vector<EdgeId>& ids() const { return ids_; }

  void reserve(std::size_t parts, std::size_t edges) {
    ends_.reserve(parts);
    ids_.reserve(edges);
  }
  void push_back(Part part);
  void push_back(std::initializer_list<EdgeId> part) {
    push_back(Part(part.begin(), part.size()));
  }

  friend bool operator==(const FlatParts&, const FlatParts&) = default;

 private:
  std::vector<EdgeId> ids_;
  std::vector<std::size_t> ends_;  // ends_[i] = one past part i's last id
};

struct EdgePartition {
  int k = 1;  // grooming factor
  FlatParts parts;

  EdgeId total_edges() const {
    return static_cast<EdgeId>(parts.ids().size());
  }
  int wavelength_count() const { return static_cast<int>(parts.size()); }
};

/// Σ over parts of the number of distinct nodes spanned — the SADM count.
/// One pass over the parts' edges with a node array stamped per part.
/// The Graph overloads of sadm_cost and partition_cost_lower_bound snapshot
/// g and run the CsrGraph body; they stay for the grooming layer, the CLI
/// and the benchmark client, which hold Graphs.
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
long long degree_lower_bound(const CsrGraph& g, int k);

}  // namespace tgroom
