#include "graph/properties.hpp"

#include <algorithm>

namespace tgroom {

NodeId max_degree(const Graph& g) {
  NodeId best = 0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    best = std::max(best, g.degree(v));
  return best;
}

NodeId min_degree(const Graph& g) {
  if (g.node_count() == 0) return 0;
  NodeId best = g.degree(0);
  for (NodeId v = 1; v < g.node_count(); ++v)
    best = std::min(best, g.degree(v));
  return best;
}

namespace {

template <typename G>
std::optional<NodeId> regularity_impl(const G& g) {
  if (g.node_count() == 0) return 0;
  NodeId r = g.degree(0);
  for (NodeId v = 1; v < g.node_count(); ++v) {
    if (g.degree(v) != r) return std::nullopt;
  }
  return r;
}

}  // namespace

std::optional<NodeId> regularity(const Graph& g) { return regularity_impl(g); }

std::optional<NodeId> regularity(const CsrGraph& g) {
  return regularity_impl(g);
}

std::vector<NodeId> odd_degree_nodes(const Graph& g, bool real_only) {
  std::vector<NodeId> odd;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    NodeId d = real_only ? g.real_degree(v) : g.degree(v);
    if (d % 2 == 1) odd.push_back(v);
  }
  return odd;
}

namespace {

// One O(n + m) pass: seen[w] == v + 1 once v's incidence list has reached
// w, so a second edge {v, w} finds its stamp already set.
template <typename G>
bool is_simple_impl(const G& g) {
  const bool all_real = g.real_edge_count() == g.edge_count();
  std::vector<NodeId> seen(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const Incidence& inc : g.incident(v)) {
      if (!all_real && g.edge(inc.edge).is_virtual) continue;
      NodeId& s = seen[static_cast<std::size_t>(inc.neighbor)];
      if (s == v + 1) return false;
      s = v + 1;
    }
  }
  return true;
}

}  // namespace

bool is_simple(const Graph& g) { return is_simple_impl(g); }

bool is_simple(const CsrGraph& g) { return is_simple_impl(g); }

NodeId spanned_node_count(const Graph& g, const std::vector<EdgeId>& edges) {
  return static_cast<NodeId>(spanned_nodes(g, edges).size());
}

std::vector<NodeId> spanned_nodes(const Graph& g,
                                  const std::vector<EdgeId>& edges) {
  std::vector<NodeId> nodes;
  nodes.reserve(edges.size() * 2);
  for (EdgeId e : edges) {
    nodes.push_back(g.edge(e).u);
    nodes.push_back(g.edge(e).v);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

namespace {

template <typename G>
std::vector<NodeId> masked_degrees_impl(const G& g,
                                        const std::vector<char>& edge_mask) {
  TGROOM_CHECK(edge_mask.size() ==
               static_cast<std::size_t>(g.edge_count()));
  std::vector<NodeId> deg(static_cast<std::size_t>(g.node_count()), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!edge_mask[static_cast<std::size_t>(e)]) continue;
    ++deg[static_cast<std::size_t>(g.edge(e).u)];
    ++deg[static_cast<std::size_t>(g.edge(e).v)];
  }
  return deg;
}

}  // namespace

std::vector<NodeId> masked_degrees(const Graph& g,
                                   const std::vector<char>& edge_mask) {
  return masked_degrees_impl(g, edge_mask);
}

std::vector<NodeId> masked_degrees(const CsrGraph& g,
                                   const std::vector<char>& edge_mask) {
  return masked_degrees_impl(g, edge_mask);
}

NodeId active_node_count(const Graph& g) {
  NodeId count = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.degree(v) > 0) ++count;
  }
  return count;
}

}  // namespace tgroom
