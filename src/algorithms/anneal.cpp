#include "algorithms/anneal.hpp"

#include <cmath>

#include "partition/part_profile.hpp"
#include "util/rng.hpp"

namespace tgroom {

AnnealStats anneal_partition(const Graph& g, EdgePartition& partition,
                             const AnnealOptions& options) {
  TGROOM_CHECK(options.iterations >= 0);
  TGROOM_CHECK(options.start_temperature > 0 &&
               options.end_temperature > 0);
  AnnealStats stats;
  std::vector<std::vector<EdgeId>> parts = partition.parts.to_nested();
  const auto k = static_cast<std::size_t>(partition.k);

  std::vector<PartProfile> profiles(parts.size());
  long long cost = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (EdgeId e : parts[i]) profiles[i].add(g.edge(e));
    cost += static_cast<long long>(profiles[i].node_count());
  }
  stats.cost_before = cost;
  if (parts.size() < 2 || options.iterations == 0) {
    stats.cost_after = cost;
    return stats;
  }

  Rng rng(options.seed);
  long long best_cost = cost;
  std::vector<std::vector<EdgeId>> best_parts = parts;

  const double cooling =
      std::pow(options.end_temperature / options.start_temperature,
               1.0 / options.iterations);
  double temperature = options.start_temperature;

  for (int iter = 0; iter < options.iterations; ++iter, temperature *= cooling) {
    std::size_t a = static_cast<std::size_t>(rng.below(parts.size()));
    std::size_t b = static_cast<std::size_t>(rng.below(parts.size()));
    if (a == b || parts[a].empty()) continue;
    std::size_t ia = static_cast<std::size_t>(rng.below(parts[a].size()));
    const Edge& ea = g.edge(parts[a][ia]);

    // Choose move type: relocate when b has slack and a coin says so,
    // otherwise swap.
    bool relocate = parts[b].size() < k && rng.chance(0.5);
    long long delta;
    std::size_t ib = 0;
    if (relocate) {
      delta = profiles[a].remove_delta(ea) + profiles[b].add_delta(ea);
    } else {
      if (parts[b].empty()) continue;
      ib = static_cast<std::size_t>(rng.below(parts[b].size()));
      const Edge& eb = g.edge(parts[b][ib]);
      delta = profiles[a].swap_delta(ea, eb) + profiles[b].swap_delta(eb, ea);
    }

    bool accept = delta <= 0 ||
                  rng.uniform01() <
                      std::exp(-static_cast<double>(delta) / temperature);
    if (!accept) continue;
    ++stats.accepted_moves;
    if (delta > 0) ++stats.accepted_uphill;

    if (relocate) {
      profiles[a].remove(ea);
      profiles[b].add(ea);
      parts[b].push_back(parts[a][ia]);
      parts[a].erase(parts[a].begin() + static_cast<long>(ia));
    } else {
      const Edge& eb = g.edge(parts[b][ib]);
      profiles[a].remove(ea);
      profiles[a].add(eb);
      profiles[b].remove(eb);
      profiles[b].add(ea);
      std::swap(parts[a][ia], parts[b][ib]);
    }
    cost += delta;
    if (cost < best_cost) {
      best_cost = cost;
      best_parts = parts;
    }
  }

  parts = std::move(best_parts);
  // Relocations may have emptied parts in the best snapshot.
  for (std::size_t i = parts.size(); i-- > 0;) {
    if (parts[i].empty()) parts.erase(parts.begin() + static_cast<long>(i));
  }
  partition.parts = FlatParts::from_nested(parts);
  stats.cost_after = best_cost;
  return stats;
}

}  // namespace tgroom
