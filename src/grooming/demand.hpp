// Symmetric unitary traffic demands on a UPSR ring.
//
// A demand pair {x, y} stands for the two unit-bandwidth directed demands
// (x, y) and (y, x); by the paper's §1 argument (citing [18]) both are
// always carried on the same wavelength, so the demand set is exactly an
// undirected simple graph — the *traffic graph* — and grooming is k-edge
// partitioning of that graph.
#pragma once

#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace tgroom {

struct DemandPair {
  NodeId a;  // a < b after normalization
  NodeId b;

  friend bool operator==(const DemandPair&, const DemandPair&) = default;
  friend auto operator<=>(const DemandPair&, const DemandPair&) = default;
};

class DemandSet {
 public:
  /// `ring_size` is the number of nodes on the UPSR ring.
  explicit DemandSet(NodeId ring_size);

  NodeId ring_size() const { return ring_size_; }
  std::size_t size() const { return pairs_.size(); }
  const std::vector<DemandPair>& pairs() const { return pairs_; }

  /// Adds symmetric pair {x, y}; rejects x == y and duplicates.
  void add_pair(NodeId x, NodeId y);

  bool contains(NodeId x, NodeId y) const;

  /// The traffic graph: ring nodes as vertices, one edge per pair, with
  /// edge id i corresponding to pairs()[i].
  Graph traffic_graph() const;

  /// Inverse mapping: one pair per real edge of g (in edge-id order);
  /// rejects duplicate pairs in one O(n + m) pass.
  static DemandSet from_traffic_graph(const Graph& g);
  static DemandSet from_traffic_graph(const CsrGraph& g);

  /// Text round-trip: "<ring_size> <pair_count>" then "x y" lines.
  static DemandSet parse(const std::string& text);
  std::string serialize() const;

 private:
  template <typename G>
  static DemandSet from_simple_graph(const G& g);

  NodeId ring_size_;
  std::vector<DemandPair> pairs_;
};

}  // namespace tgroom
