// Structural queries on graphs used throughout the algorithms and tests.
#pragma once

#include <optional>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace tgroom {

/// Maximum degree Δ(G) over all nodes (0 for an empty node set).
NodeId max_degree(const Graph& g);

/// Minimum degree over all nodes.
NodeId min_degree(const Graph& g);

/// If every node has the same degree r, returns r; otherwise nullopt.
std::optional<NodeId> regularity(const Graph& g);
std::optional<NodeId> regularity(const CsrGraph& g);

/// Nodes of odd degree (virtual edges included unless `real_only`).
std::vector<NodeId> odd_degree_nodes(const Graph& g, bool real_only = false);

/// True when no two real edges share both endpoints (no parallel real
/// edges); virtual edges are ignored.  One O(n + m) pass that stamps each
/// node's neighbours.
bool is_simple(const Graph& g);
bool is_simple(const CsrGraph& g);

/// Number of distinct nodes touched by the given edge ids.
NodeId spanned_node_count(const Graph& g, const std::vector<EdgeId>& edges);

/// The distinct nodes touched by the given edge ids, in ascending order.
std::vector<NodeId> spanned_nodes(const Graph& g,
                                  const std::vector<EdgeId>& edges);

/// Per-node degree restricted to edges where mask[e] is true.
std::vector<NodeId> masked_degrees(const Graph& g,
                                   const std::vector<char>& edge_mask);
std::vector<NodeId> masked_degrees(const CsrGraph& g,
                                   const std::vector<char>& edge_mask);

/// Number of nodes with degree > 0.
NodeId active_node_count(const Graph& g);

}  // namespace tgroom
