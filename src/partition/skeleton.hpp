// Skeletons and skeleton covers (paper §2).
//
// A skeleton is a connected subgraph made of a *backbone* (a walk — the
// paper's "path": edge-distinct, node repeats allowed) plus *branches*
// (edges with at least one endpoint on the backbone).  Skeleton covers are
// the intermediate representation both paper algorithms build before
// cutting into the final k-edge partition.
//
// Branches are stored per backbone *position* (not per node) so that any
// contiguous range of the canonical edge order induces a connected
// subgraph; that property is what makes Proposition 1 splits and the
// Proposition 2 transform produce parts with at most (#edges + 1) nodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "algo/euler.hpp"
#include "graph/graph.hpp"
#include "util/arena.hpp"

namespace tgroom {

class Skeleton {
 public:
  /// Single-node skeleton (the paper's degenerate Euler path of one node).
  static Skeleton single_node(NodeId v);

  /// Skeleton whose backbone is the given walk (no branches yet).
  static Skeleton from_walk(Walk walk);

  const std::vector<NodeId>& walk_nodes() const { return walk_nodes_; }
  const std::vector<EdgeId>& walk_edges() const { return walk_edges_; }
  const std::vector<std::vector<EdgeId>>& branches_at() const {
    return branches_at_;
  }

  /// Attach a branch edge at backbone position `pos` (its attachment node
  /// is walk_nodes()[pos], which must be an endpoint of the edge).
  void add_branch(std::size_t pos, EdgeId e);

  /// Number of edges (backbone + branches) — the paper's skeleton size s(S).
  std::size_t size() const;

  bool empty() const { return size() == 0; }

  /// Edges in canonical order: branches at position 0, backbone edge 0,
  /// branches at position 1, backbone edge 1, …, branches at the last
  /// position.  Every prefix and every contiguous range of this order is a
  /// connected subgraph.
  std::vector<EdgeId> canonical_order() const;

  /// Structural check against g: walk validity, branch attachment, no
  /// duplicate edges.
  bool validate(const Graph& g) const;

 private:
  std::vector<NodeId> walk_nodes_;                // p >= 1
  std::vector<EdgeId> walk_edges_;                // p - 1
  std::vector<std::vector<EdgeId>> branches_at_;  // size p
};

using SkeletonCover = std::vector<Skeleton>;

/// Arena-backed skeleton for the zero-allocation grooming hot path: same
/// structure and canonical order as Skeleton, bump-allocated from a
/// MonotonicArena.  Branches are one flat list of (position, edge) in
/// attachment order rather than a bucket per backbone position;
/// write_canonical_order interleaves them with the backbone by a stable
/// counting sort on position.  Must not outlive the arena's next reset();
/// SpanT_Euler builds one cover per run and consumes it before the
/// workspace rewinds.
class ArenaSkeleton {
 public:
  /// Single-node skeleton (the paper's degenerate Euler path of one node).
  static ArenaSkeleton single_node(NodeId v, MonotonicArena* arena);

  /// Skeleton whose backbone is the given walk (no branches yet).  The
  /// walk's storage is adopted, not copied.
  static ArenaSkeleton from_walk(ArenaWalk&& walk, MonotonicArena* arena);

  const ArenaVector<NodeId>& walk_nodes() const { return walk_nodes_; }
  const ArenaVector<EdgeId>& walk_edges() const { return walk_edges_; }

  /// Attach a branch edge at backbone position `pos`.
  void add_branch(std::size_t pos, EdgeId e);

  /// Number of edges (backbone + branches) — the paper's skeleton size s(S).
  std::size_t size() const { return walk_edges_.size() + branches_.size(); }

  /// Writes the canonical edge order (branches at position 0, backbone
  /// edge 0, branches at position 1, …) to out[0, size()).  `scratch`
  /// holds the per-position counts.
  void write_canonical_order(EdgeId* out, MonotonicArena& scratch) const;

  /// Heap copy with the same structure, for traces and debugging.
  Skeleton to_skeleton() const;

 private:
  struct Branch {
    std::uint32_t position;
    EdgeId edge;
  };

  explicit ArenaSkeleton(MonotonicArena* arena);

  ArenaVector<NodeId> walk_nodes_;  // p >= 1
  ArenaVector<EdgeId> walk_edges_;  // p - 1
  ArenaVector<Branch> branches_;    // in attachment order
};

using ArenaSkeletonCover = ArenaVector<ArenaSkeleton>;

/// Proposition 1: split a skeleton into two skeletons of sizes t and
/// size()-t along the canonical order.  0 <= t <= size().
std::pair<Skeleton, Skeleton> split_skeleton(const Graph& g,
                                             const Skeleton& skeleton,
                                             std::size_t t);

/// True when the cover's edge sets are disjoint and each skeleton is valid.
bool validate_cover(const Graph& g, const SkeletonCover& cover);

/// True when the cover's skeletons together contain every real edge of g
/// exactly once (a skeleton cover in the paper's sense).
bool cover_spans_all_edges(const Graph& g, const SkeletonCover& cover);

}  // namespace tgroom
