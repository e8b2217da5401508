#include "algo/matching.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "algo/blossom.hpp"
#include "algo/edge_coloring.hpp"

namespace tgroom {

const char* matching_policy_name(MatchingPolicy policy) {
  switch (policy) {
    case MatchingPolicy::kGreedy:
      return "greedy";
    case MatchingPolicy::kBlossom:
      return "blossom";
    case MatchingPolicy::kColorClass:
      return "color-class";
  }
  return "?";
}

namespace {

std::vector<EdgeId> greedy_matching(const CsrGraph& g, Rng* rng) {
  std::vector<EdgeId> order(static_cast<std::size_t>(g.edge_count()));
  std::iota(order.begin(), order.end(), EdgeId{0});
  if (rng) rng->shuffle(order);
  std::vector<char> saturated(static_cast<std::size_t>(g.node_count()), 0);
  std::vector<EdgeId> matching;
  for (EdgeId e : order) {
    const Edge& edge = g.edge(e);
    if (edge.is_virtual) continue;
    if (saturated[static_cast<std::size_t>(edge.u)] ||
        saturated[static_cast<std::size_t>(edge.v)])
      continue;
    saturated[static_cast<std::size_t>(edge.u)] = 1;
    saturated[static_cast<std::size_t>(edge.v)] = 1;
    matching.push_back(e);
  }
  return matching;
}

std::vector<EdgeId> color_class_matching(const CsrGraph& g) {
  EdgeColoring coloring = misra_gries_edge_coloring(g);
  // Bucket real edges by color and return the largest bucket; each color
  // class of a proper edge coloring is a matching.
  std::map<int, std::vector<EdgeId>> classes;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).is_virtual) continue;
    classes[coloring.color[static_cast<std::size_t>(e)]].push_back(e);
  }
  std::vector<EdgeId> best;
  for (auto& [color, edges] : classes) {
    if (edges.size() > best.size()) best = std::move(edges);
  }
  return best;
}

}  // namespace

void find_matching(const CsrGraph& g, MatchingPolicy policy, Rng* rng,
                   std::vector<EdgeId>& out, MonotonicArena* arena) {
  switch (policy) {
    case MatchingPolicy::kGreedy:
      out = greedy_matching(g, rng);
      return;
    case MatchingPolicy::kBlossom:
      maximum_matching(g, out, arena);
      return;
    case MatchingPolicy::kColorClass:
      out = color_class_matching(g);
      return;
  }
  TGROOM_CHECK_MSG(false, "unknown matching policy");
}

bool is_matching(const Graph& g, const std::vector<EdgeId>& edges) {
  std::vector<char> saturated(static_cast<std::size_t>(g.node_count()), 0);
  for (EdgeId e : edges) {
    if (e < 0 || e >= g.edge_count()) return false;
    const Edge& edge = g.edge(e);
    if (edge.is_virtual) return false;
    if (saturated[static_cast<std::size_t>(edge.u)] ||
        saturated[static_cast<std::size_t>(edge.v)])
      return false;
    saturated[static_cast<std::size_t>(edge.u)] = 1;
    saturated[static_cast<std::size_t>(edge.v)] = 1;
  }
  return true;
}

long long lemma8_matching_lower_bound(NodeId n, NodeId r) {
  if (r <= 0) return 0;
  long long num = static_cast<long long>(n) * r;
  long long den = 2LL * (r + 1);
  return (num + den - 1) / den;
}

}  // namespace tgroom
