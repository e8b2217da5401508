#include "grooming/demand.hpp"

#include <algorithm>
#include <sstream>

#include "graph/io.hpp"
#include "graph/properties.hpp"

namespace tgroom {

DemandSet::DemandSet(NodeId ring_size) : ring_size_(ring_size) {
  TGROOM_CHECK_MSG(ring_size >= 0, "ring size must be non-negative");
}

void DemandSet::add_pair(NodeId x, NodeId y) {
  TGROOM_CHECK_MSG(x >= 0 && y >= 0 && x < ring_size_ && y < ring_size_,
                   "demand endpoint outside the ring");
  TGROOM_CHECK_MSG(x != y, "a demand pair needs two distinct nodes");
  if (x > y) std::swap(x, y);
  TGROOM_CHECK_MSG(!contains(x, y), "duplicate demand pair");
  pairs_.push_back(DemandPair{x, y});
}

bool DemandSet::contains(NodeId x, NodeId y) const {
  if (x > y) std::swap(x, y);
  return std::find(pairs_.begin(), pairs_.end(), DemandPair{x, y}) !=
         pairs_.end();
}

Graph DemandSet::traffic_graph() const {
  Graph g(ring_size_);
  g.reserve_edges(static_cast<EdgeId>(pairs_.size()));
  for (const DemandPair& p : pairs_) g.add_edge(p.a, p.b);
  return g;
}

template <typename G>
DemandSet DemandSet::from_simple_graph(const G& g) {
  TGROOM_CHECK_MSG(is_simple(g), "duplicate demand pair");
  DemandSet demands(g.node_count());
  demands.pairs_.reserve(static_cast<std::size_t>(g.real_edge_count()));
  for (const Edge& e : g.edges()) {
    if (e.is_virtual) continue;
    demands.pairs_.push_back(
        DemandPair{std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  return demands;
}

DemandSet DemandSet::from_traffic_graph(const Graph& g) {
  return from_simple_graph(g);
}

DemandSet DemandSet::from_traffic_graph(const CsrGraph& g) {
  return from_simple_graph(g);
}

DemandSet DemandSet::parse(const std::string& text) {
  Graph g = read_edge_list_string(text);
  return from_traffic_graph(g);
}

std::string DemandSet::serialize() const {
  std::ostringstream out;
  out << ring_size_ << ' ' << pairs_.size() << '\n';
  for (const DemandPair& p : pairs_) out << p.a << ' ' << p.b << '\n';
  return out.str();
}

}  // namespace tgroom
