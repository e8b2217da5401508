#include "graph/csr_graph.hpp"

#include <utility>

namespace tgroom {

void CsrGraph::rebuild_index() {
  const auto n = static_cast<std::size_t>(node_count_);
  const auto m = edges_.size();
  const Edge* const edge = edges_.data();

  // Counting sort by endpoint, with offsets_[v + 1] doubling as v's fill
  // cursor: it first counts the degree of v - 1 (node x lands in slot
  // x + 2), so after the prefix sum offsets_[v + 1] is v's start, and
  // filling advances it to v's end, which is v + 1's start.
  offsets_.assign(n + 1, 0);
  EdgeId* const cursor = offsets_.data() + 1;
  for (std::size_t id = 0; id < m; ++id) {
    const auto u = static_cast<std::size_t>(edge[id].u);
    const auto v = static_cast<std::size_t>(edge[id].v);
    if (u + 1 < n) ++cursor[u + 1];
    if (v + 1 < n) ++cursor[v + 1];
  }
  for (std::size_t v = 1; v < n; ++v) cursor[v] += cursor[v - 1];

  incidences_.resize(2 * m);
  Incidence* const out = incidences_.data();
  // Filling in edge-id order reproduces Graph's per-node adjacency order.
  for (std::size_t id = 0; id < m; ++id) {
    const Edge e = edge[id];
    const auto u = static_cast<std::size_t>(e.u);
    const auto v = static_cast<std::size_t>(e.v);
    out[static_cast<std::size_t>(cursor[u]++)] =
        Incidence{e.v, static_cast<EdgeId>(id)};
    out[static_cast<std::size_t>(cursor[v]++)] =
        Incidence{e.u, static_cast<EdgeId>(id)};
  }
}

void CsrGraph::rebuild(const Graph& g) {
  node_count_ = g.node_count();
  real_edges_ = g.real_edge_count();
  edges_.assign(g.edges().begin(), g.edges().end());
  rebuild_index();
}

void CsrGraph::assign(NodeId node_count, std::vector<Edge> edges) {
  TGROOM_CHECK(node_count >= 0);
  TGROOM_CHECK_MSG(edges.size() <= static_cast<std::size_t>(kMaxEdgeCount),
                   "edge count would exceed kMaxEdgeCount");
  real_edges_ = 0;
  for (const Edge& e : edges) {
    TGROOM_CHECK_MSG(e.u >= 0 && e.u < node_count && e.v >= 0 &&
                         e.v < node_count,
                     "edge endpoint out of range");
    TGROOM_CHECK_MSG(e.u != e.v, "self-loops are not allowed");
    if (!e.is_virtual) ++real_edges_;
  }
  node_count_ = node_count;
  edges_ = std::move(edges);
  rebuild_index();
}

void CsrGraph::assign_checked(NodeId node_count, std::vector<Edge> edges) {
  TGROOM_DCHECK(edges.size() <= static_cast<std::size_t>(kMaxEdgeCount));
#ifndef NDEBUG
  for (const Edge& e : edges) {
    TGROOM_DCHECK(!e.is_virtual && e.u >= 0 && e.u < node_count &&
                  e.v >= 0 && e.v < node_count && e.u != e.v);
  }
#endif
  node_count_ = node_count;
  real_edges_ = static_cast<EdgeId>(edges.size());
  edges_ = std::move(edges);
  rebuild_index();
}

void CsrGraph::rebuild_with(const CsrGraph& base,
                            std::span<const Edge> extra) {
  if (&base != this) {
    node_count_ = base.node_count_;
    real_edges_ = base.real_edges_;
    edges_.assign(base.edges_.begin(), base.edges_.end());
  }
  TGROOM_CHECK_MSG(edges_.size() + extra.size() <=
                       static_cast<std::size_t>(kMaxEdgeCount),
                   "edge count would exceed kMaxEdgeCount");
  for (const Edge& e : extra) {
    TGROOM_DCHECK(valid_node(e.u) && valid_node(e.v) && e.u != e.v);
    if (!e.is_virtual) ++real_edges_;
  }
  edges_.insert(edges_.end(), extra.begin(), extra.end());
  rebuild_index();
}

NodeId CsrGraph::real_degree(NodeId v) const {
  NodeId d = 0;
  for (const Incidence& inc : incident(v)) {
    if (!edge(inc.edge).is_virtual) ++d;
  }
  return d;
}

void CsrGraph::rebuild_subgraph(const CsrGraph& parent,
                                std::span<const NodeId> nodes,
                                std::span<const EdgeId> edges,
                                std::span<const NodeId> local_node) {
  node_count_ = static_cast<NodeId>(nodes.size());
  real_edges_ = 0;
  edges_.clear();
  edges_.reserve(edges.size());
  for (EdgeId ge : edges) {
    const Edge& e = parent.edge(ge);
    TGROOM_DCHECK(local_node[static_cast<std::size_t>(e.u)] != kInvalidNode &&
                  local_node[static_cast<std::size_t>(e.v)] != kInvalidNode);
    edges_.push_back(Edge{local_node[static_cast<std::size_t>(e.u)],
                          local_node[static_cast<std::size_t>(e.v)],
                          e.is_virtual});
    if (!e.is_virtual) ++real_edges_;
  }
  rebuild_index();
}

}  // namespace tgroom
