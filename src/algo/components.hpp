// Connected components over the whole graph or a masked edge subset.
#pragma once

#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/arena.hpp"

namespace tgroom {

/// Component labelling: every node gets a label in [0, count); nodes with no
/// (masked) incident edge form singleton components.
struct Components {
  int count = 0;
  std::vector<int> label;  // size = node_count

  /// Node lists per component, in node order.
  std::vector<std::vector<NodeId>> groups() const;
};

/// Components using every edge of g (virtual included), with traversal
/// scratch drawn from `arena` when given (heap otherwise).
Components connected_components(const CsrGraph& g,
                                MonotonicArena* arena = nullptr);

/// Components using only edges where edge_mask[e] != 0.
Components connected_components_masked(const CsrGraph& g,
                                       const std::vector<char>& edge_mask);

/// Flat component grouping for per-component task parallelism: the nodes
/// and edges of each component as contiguous ascending-id runs, plus each
/// node's rank within its component (the local id rebuild_subgraph uses).
/// An edge belongs to the component of its endpoints.
struct ComponentSplit {
  std::vector<std::size_t> node_offset;  // count + 1 entries
  std::vector<NodeId> nodes;             // grouped by component, ascending
  std::vector<std::size_t> edge_offset;  // count + 1 entries
  std::vector<EdgeId> edges;             // grouped by component, ascending
  std::vector<NodeId> local_node;        // size n: rank of v within its comp

  std::span<const NodeId> component_nodes(std::size_t c) const {
    return {nodes.data() + node_offset[c], node_offset[c + 1] - node_offset[c]};
  }
  std::span<const EdgeId> component_edges(std::size_t c) const {
    return {edges.data() + edge_offset[c], edge_offset[c + 1] - edge_offset[c]};
  }
};

/// Groups g's nodes and edges by the labelling in `comp` (one counting
/// sort each; O(n + m), deterministic).
ComponentSplit split_components(const CsrGraph& g, const Components& comp);

/// True when the whole node set is one component (n <= 1 counts as
/// connected; isolated nodes make a graph with n >= 2 disconnected).
bool is_connected(const Graph& g);

/// Edge connectivity λ(G) of a simple graph, by max-flow between a fixed
/// node and all others (O(n * m^2) worst case; intended for tests and small
/// instances, e.g. checking Jaeger's λ >= 4 condition from the paper).
int edge_connectivity(const Graph& g);

}  // namespace tgroom
