#include "algorithms/exact.hpp"

#include <algorithm>
#include <map>
#include <queue>

#include "graph/properties.hpp"

namespace tgroom {

namespace {

/// Edge order that keeps adjacent edges close (BFS over the line-graph
/// neighbourhood), improving bound tightness early in the search.
std::vector<EdgeId> connectivity_order(const Graph& g) {
  std::vector<EdgeId> order;
  std::vector<char> taken(static_cast<std::size_t>(g.edge_count()), 0);
  for (EdgeId seed = 0; seed < g.edge_count(); ++seed) {
    if (taken[static_cast<std::size_t>(seed)]) continue;
    std::queue<EdgeId> q;
    q.push(seed);
    taken[static_cast<std::size_t>(seed)] = 1;
    while (!q.empty()) {
      EdgeId e = q.front();
      q.pop();
      order.push_back(e);
      for (NodeId endpoint : {g.edge(e).u, g.edge(e).v}) {
        for (const Incidence& inc : g.incident(endpoint)) {
          if (taken[static_cast<std::size_t>(inc.edge)]) continue;
          taken[static_cast<std::size_t>(inc.edge)] = 1;
          q.push(inc.edge);
        }
      }
    }
  }
  return order;
}

class Searcher {
 public:
  Searcher(const Graph& g, int k, const ExactOptions& options)
      : g_(g), k_(k), options_(options), order_(connectivity_order(g)) {
    remaining_deg_.assign(static_cast<std::size_t>(g.node_count()), 0);
    for (EdgeId e : order_) {
      ++remaining_deg_[static_cast<std::size_t>(g.edge(e).u)];
      ++remaining_deg_[static_cast<std::size_t>(g.edge(e).v)];
    }
    slack_scratch_.assign(static_cast<std::size_t>(g.node_count()), 0);
  }

  ExactResult run() {
    best_cost_ = 4LL * g_.edge_count() + 1;  // worse than any partition
    descend(0, 0);
    ExactResult result;
    result.partition.k = k_;
    result.partition.parts = FlatParts::from_nested(best_parts_);
    result.feasible = !best_parts_.empty() || order_.empty();
    result.cost = result.feasible ? best_cost_ : 0;
    result.nodes_explored = nodes_;
    result.proven_optimal = nodes_ < options_.node_budget;
    return result;
  }

 private:
  /// Per-node admissible bound: node v already appears in its parts; its
  /// remaining edges beyond the slack of those parts force at least
  /// ceil(overflow/k) further appearances of v somewhere.  Summing over
  /// nodes lower-bounds the final cost because the final cost is exactly
  /// the sum of per-node appearance counts.
  long long degree_completion_bound(long long cost) {
    std::fill(slack_scratch_.begin(), slack_scratch_.end(), 0);
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      int slack = k_ - static_cast<int>(parts_[p].size());
      if (slack <= 0) continue;
      for (const auto& [v, count] : node_use_[p]) {
        slack_scratch_[static_cast<std::size_t>(v)] += slack;
      }
    }
    long long extra = 0;
    for (std::size_t v = 0; v < remaining_deg_.size(); ++v) {
      int overflow = remaining_deg_[v] - slack_scratch_[v];
      if (overflow > 0) extra += (overflow + k_ - 1) / k_;
    }
    return cost + extra;
  }

  /// Admissible completion bound: current node counts never shrink, and
  /// the edges not yet placed need at least enough *new* parts once the
  /// existing slack is spent — each new full part of e edges spans at
  /// least min_nodes_for_edges(e) nodes.
  long long completion_bound(std::size_t index, long long cost) const {
    long long remaining =
        static_cast<long long>(order_.size()) - static_cast<long long>(index);
    long long slack = 0;
    for (const auto& part : parts_) {
      slack += k_ - static_cast<long long>(part.size());
    }
    long long overflow = remaining - slack;
    if (overflow <= 0) return cost;
    if (options_.max_parts >= 0 &&
        static_cast<long long>(parts_.size()) >= options_.max_parts) {
      return best_cost_ + 1;  // cannot open parts: dead branch
    }
    long long new_full = overflow / k_;
    long long rest = overflow % k_;
    long long extra = new_full * min_nodes_for_edges(k_) +
                      min_nodes_for_edges(rest);
    if (options_.max_parts >= 0) {
      long long new_parts = new_full + (rest > 0 ? 1 : 0);
      if (static_cast<long long>(parts_.size()) + new_parts >
          options_.max_parts) {
        return best_cost_ + 1;
      }
    }
    return cost + extra;
  }

  void descend(std::size_t index, long long cost) {
    if (nodes_ >= options_.node_budget) return;
    ++nodes_;
    if (completion_bound(index, cost) >= best_cost_) return;
    if (degree_completion_bound(cost) >= best_cost_) return;
    if (index == order_.size()) {
      best_cost_ = cost;
      best_parts_ = parts_;
      return;
    }
    const Edge& e = g_.edge(order_[index]);
    --remaining_deg_[static_cast<std::size_t>(e.u)];
    --remaining_deg_[static_cast<std::size_t>(e.v)];

    // Children cheapest-first: placements adding fewer new nodes explored
    // first so good incumbents arrive early.
    std::vector<std::pair<int, std::size_t>> children;
    children.reserve(parts_.size());
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      if (parts_[p].size() >= static_cast<std::size_t>(k_)) continue;
      int delta = (node_use_[p].count(e.u) ? 0 : 1) +
                  (node_use_[p].count(e.v) ? 0 : 1);
      children.push_back({delta, p});
    }
    std::stable_sort(children.begin(), children.end());

    for (const auto& [delta_hint, p] : children) {
      (void)delta_hint;
      int delta = place(p, e);
      parts_[p].push_back(order_[index]);
      descend(index + 1, cost + delta);
      parts_[p].pop_back();
      unplace(p, e);
    }
    // Open one new part (symmetry-broken: only ever the next index).
    if (options_.max_parts < 0 ||
        parts_.size() < static_cast<std::size_t>(options_.max_parts)) {
      parts_.emplace_back();
      node_use_.emplace_back();
      int delta = place(parts_.size() - 1, e);
      parts_.back().push_back(order_[index]);
      descend(index + 1, cost + delta);
      parts_.back().pop_back();
      unplace(parts_.size() - 1, e);
      node_use_.pop_back();
      parts_.pop_back();
    }
    ++remaining_deg_[static_cast<std::size_t>(e.u)];
    ++remaining_deg_[static_cast<std::size_t>(e.v)];
  }

  int place(std::size_t p, const Edge& e) {
    int delta = 0;
    for (NodeId v : {e.u, e.v}) {
      if (node_use_[p][v]++ == 0) ++delta;
    }
    return delta;
  }

  void unplace(std::size_t p, const Edge& e) {
    for (NodeId v : {e.u, e.v}) {
      auto it = node_use_[p].find(v);
      if (--it->second == 0) node_use_[p].erase(it);
    }
  }

  const Graph& g_;
  int k_;
  ExactOptions options_;
  std::vector<EdgeId> order_;
  std::vector<int> remaining_deg_;
  std::vector<int> slack_scratch_;
  std::vector<std::vector<EdgeId>> parts_;
  std::vector<std::map<NodeId, int>> node_use_;
  long long best_cost_ = 0;
  std::vector<std::vector<EdgeId>> best_parts_;
  long long nodes_ = 0;
};

}  // namespace

ExactResult exact_optimal_partition(const Graph& g, int k,
                                    const ExactOptions& options) {
  TGROOM_CHECK(k >= 1);
  TGROOM_CHECK_MSG(g.real_edge_count() <= 30,
                   "exact solver is restricted to tiny instances");
  TGROOM_CHECK_MSG(g.real_edge_count() == g.edge_count(),
                   "exact solver expects a traffic graph without virtual "
                   "edges");
  if (g.edge_count() == 0) {
    ExactResult empty;
    empty.partition.k = k;
    empty.cost = 0;
    return empty;
  }
  return Searcher(g, k, options).run();
}

}  // namespace tgroom
