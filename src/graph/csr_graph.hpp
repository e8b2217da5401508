// Flat, immutable CSR snapshot of a traffic graph: the one graph type the
// kernels (src/algo/), the grooming algorithms and the cover transform
// take.  The service builds one straight from a request's edge list
// (assign()); everything else snapshots its adjacency-list Graph with
// CsrGraph(g), which is explicit because it copies O(n + m).
//
// Graph stores adjacency as vector<vector<Incidence>>, which is convenient
// while edges are being added but pointer-chasing to traverse: every
// incident() call lands in a separately allocated inner vector.  CsrGraph
// packs all incidences into one contiguous array indexed by a per-node
// offset table, so BFS/DFS/Euler sweeps walk memory linearly.
//
// Determinism contract: incidences appear in ascending edge-id order per
// node — exactly the order Graph::incident() yields (each add_edge appends
// to both endpoint lists) — so a snapshot, and a snapshot assigned from
// the same edge list, traverse exactly as the Graph would.  csr_test.cpp
// pins this.
//
// rebuild() reuses the snapshot's storage, so a long-lived CsrGraph (e.g.
// inside a GroomingWorkspace) makes repeat runs allocation-free once its
// buffers have grown to the working-set size.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace tgroom {

class CsrGraph {
 public:
  CsrGraph() = default;
  explicit CsrGraph(const Graph& g) { rebuild(g); }

  /// Re-snapshots `g`, reusing existing capacity.
  void rebuild(const Graph& g);

  /// Builds the snapshot straight from an edge list by counting sort:
  /// edge ids are list positions.  Equals CsrGraph(g) for the Graph `g`
  /// that adds the same edges in the same order — same edge table, same
  /// per-node incidence order, same graph_fingerprint.  Throws CheckError
  /// on endpoints out of range, self-loops or more than kMaxEdgeCount
  /// edges.
  void assign(NodeId node_count, std::vector<Edge> edges);

  /// assign() for a caller that has already checked every edge: real,
  /// endpoints in [0, node_count), no self-loop, at most kMaxEdgeCount of
  /// them (the service parser checks each pair as it decodes it).  Skips
  /// assign()'s range pass; debug builds still assert it.
  void assign_checked(NodeId node_count, std::vector<Edge> edges);

  /// Rebuilds this snapshot as `base` with `extra` appended to its edge
  /// table (ids edge_count(base), ...), as Graph::add_edge would: each new
  /// edge lands after the old ones in its endpoints' incidence lists.
  /// `base` may be this snapshot.  Endpoints of `extra` must be nodes of
  /// `base` (unchecked).  Reuses existing capacity like rebuild().
  void rebuild_with(const CsrGraph& base, std::span<const Edge> extra);

  /// Rebuilds this snapshot as the subgraph of `parent` induced by `nodes`
  /// and `edges` (every edge's endpoints must be listed in `nodes`),
  /// renumbered to local ids 0..nodes.size()-1 / 0..edges.size()-1 by list
  /// position.  `local_node[v]` gives the local id of a listed global node
  /// (entries for unlisted ids are ignored).  Both lists must be
  /// ascending; because the renumbering is then rank-preserving, every
  /// traversal kernel run on the local snapshot visits nodes and edges in
  /// the same relative order as on `parent` — the property the
  /// per-component parallel SpanT_Euler path relies on for bit-identical
  /// output.  Reuses existing capacity like rebuild().
  void rebuild_subgraph(const CsrGraph& parent, std::span<const NodeId> nodes,
                        std::span<const EdgeId> edges,
                        std::span<const NodeId> local_node);

  NodeId node_count() const { return node_count_; }
  EdgeId edge_count() const { return static_cast<EdgeId>(edges_.size()); }

  /// Number of non-virtual edges.
  EdgeId real_edge_count() const { return real_edges_; }

  const Edge& edge(EdgeId e) const {
    TGROOM_DCHECK(e >= 0 && e < edge_count());
    return edges_[static_cast<std::size_t>(e)];
  }

  /// All edges in id order.
  std::span<const Edge> edges() const { return edges_; }

  /// Incidences of `v`, ascending by edge id (same order as Graph).
  std::span<const Incidence> incident(NodeId v) const {
    TGROOM_DCHECK(valid_node(v));
    const auto lo =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
    const auto hi =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
    return {incidences_.data() + lo, hi - lo};
  }

  /// Degree counting all incident edges (virtual included).
  NodeId degree(NodeId v) const {
    return static_cast<NodeId>(incident(v).size());
  }

  /// Degree counting only non-virtual edges.
  NodeId real_degree(NodeId v) const;

  bool valid_node(NodeId v) const { return v >= 0 && v < node_count_; }

 private:
  /// Rebuilds offsets_/incidences_ from the current edges_ / node_count_.
  void rebuild_index();

  NodeId node_count_ = 0;
  EdgeId real_edges_ = 0;
  std::vector<EdgeId> offsets_;        // node_count_ + 1 entries
  std::vector<Incidence> incidences_;  // 2 * edge_count entries
  std::vector<Edge> edges_;            // edge copy, id order
};

}  // namespace tgroom
