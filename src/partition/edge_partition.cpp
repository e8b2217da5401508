#include "partition/edge_partition.hpp"

#include <algorithm>
#include <vector>

namespace tgroom {

FlatParts::FlatParts(
    std::initializer_list<std::initializer_list<EdgeId>> parts) {
  ends_.reserve(parts.size());
  for (const auto& part : parts) push_back(part);
}

FlatParts FlatParts::chunks(std::vector<EdgeId> ids, int k) {
  TGROOM_CHECK(k >= 1);
  FlatParts parts;
  const auto step = static_cast<std::size_t>(k);
  parts.ends_.reserve((ids.size() + step - 1) / step);
  for (std::size_t end = step; end < ids.size() + step; end += step) {
    parts.ends_.push_back(std::min(end, ids.size()));
  }
  parts.ids_ = std::move(ids);
  return parts;
}

FlatParts FlatParts::from_nested(
    const std::vector<std::vector<EdgeId>>& nested) {
  std::size_t total = 0;
  for (const auto& part : nested) total += part.size();
  FlatParts parts;
  parts.reserve(nested.size(), total);
  for (const auto& part : nested) parts.push_back(Part(part));
  return parts;
}

std::vector<std::vector<EdgeId>> FlatParts::to_nested() const {
  std::vector<std::vector<EdgeId>> nested;
  nested.reserve(size());
  for (Part part : *this) nested.emplace_back(part.begin(), part.end());
  return nested;
}

void FlatParts::push_back(Part part) {
  ids_.insert(ids_.end(), part.begin(), part.end());
  ends_.push_back(ids_.size());
}

long long sadm_cost(const CsrGraph& g, const EdgePartition& partition) {
  // stamp[v] == i + 1 once part i has counted node v, so the array is
  // cleared once per call rather than once per part.
  std::vector<std::size_t> stamp(static_cast<std::size_t>(g.node_count()), 0);
  long long cost = 0;
  for (std::size_t i = 0; i < partition.parts.size(); ++i) {
    for (EdgeId id : partition.parts.part(i)) {
      const Edge& e = g.edge(id);
      for (NodeId x : {e.u, e.v}) {
        std::size_t& s = stamp[static_cast<std::size_t>(x)];
        if (s != i + 1) {
          s = i + 1;
          ++cost;
        }
      }
    }
  }
  return cost;
}

long long sadm_cost(const Graph& g, const EdgePartition& partition) {
  return sadm_cost(CsrGraph(g), partition);
}

PartitionValidation validate_partition(const Graph& g,
                                       const EdgePartition& partition) {
  PartitionValidation result;
  auto fail = [&](std::string reason) {
    result.ok = false;
    result.reason = std::move(reason);
    return result;
  };
  if (partition.k < 1) return fail("grooming factor k must be >= 1");

  std::vector<int> times_seen(static_cast<std::size_t>(g.edge_count()), 0);
  for (std::size_t i = 0; i < partition.parts.size(); ++i) {
    const FlatParts::Part part = partition.parts[i];
    if (part.empty()) return fail("part " + std::to_string(i) + " is empty");
    if (part.size() > static_cast<std::size_t>(partition.k)) {
      return fail("part " + std::to_string(i) + " has " +
                  std::to_string(part.size()) + " > k edges");
    }
    for (EdgeId e : part) {
      if (e < 0 || e >= g.edge_count())
        return fail("part " + std::to_string(i) + " has invalid edge id");
      if (g.edge(e).is_virtual)
        return fail("part " + std::to_string(i) + " contains a virtual edge");
      ++times_seen[static_cast<std::size_t>(e)];
    }
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).is_virtual) continue;
    int seen = times_seen[static_cast<std::size_t>(e)];
    if (seen != 1) {
      return fail("edge " + std::to_string(e) + " appears " +
                  std::to_string(seen) + " times");
    }
  }
  return result;
}

long long min_wavelengths(long long real_edges, int k) {
  TGROOM_CHECK(k >= 1);
  return (real_edges + k - 1) / k;
}

bool uses_min_wavelengths(const Graph& g, const EdgePartition& partition) {
  return static_cast<long long>(partition.parts.size()) ==
         min_wavelengths(g.real_edge_count(), partition.k);
}

NodeId min_nodes_for_edges(long long edges) {
  if (edges <= 0) return 0;
  NodeId t = 1;
  while (static_cast<long long>(t) * (t - 1) / 2 < edges) ++t;
  return t;
}

long long degree_lower_bound(const CsrGraph& g, int k) {
  TGROOM_CHECK(k >= 1);
  const bool all_real = g.real_edge_count() == g.edge_count();
  long long total = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const NodeId degree = all_real ? g.degree(v) : g.real_degree(v);
    total += (static_cast<long long>(degree) + k - 1) / k;
  }
  return total;
}

long long partition_cost_lower_bound(const CsrGraph& g, int k) {
  TGROOM_CHECK(k >= 1);
  long long m = g.real_edge_count();
  long long full_parts = m / k;
  long long rest = m % k;
  long long packing = full_parts * min_nodes_for_edges(k) +
                      min_nodes_for_edges(rest);
  return std::max(degree_lower_bound(g, k), packing);
}

long long partition_cost_lower_bound(const Graph& g, int k) {
  return partition_cost_lower_bound(CsrGraph(g), k);
}

}  // namespace tgroom
