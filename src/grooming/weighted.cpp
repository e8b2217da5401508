#include "grooming/weighted.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace tgroom {

WeightedDemandSet::WeightedDemandSet(NodeId ring_size)
    : ring_size_(ring_size) {
  TGROOM_CHECK(ring_size >= 0);
}

long long WeightedDemandSet::total_units() const {
  long long total = 0;
  for (const WeightedDemand& d : demands_) total += d.units;
  return total;
}

void WeightedDemandSet::add(NodeId x, NodeId y, int units) {
  TGROOM_CHECK_MSG(x >= 0 && y >= 0 && x < ring_size_ && y < ring_size_,
                   "demand endpoint outside the ring");
  TGROOM_CHECK_MSG(x != y, "a demand needs two distinct nodes");
  TGROOM_CHECK_MSG(units > 0, "units must be positive");
  if (x > y) std::swap(x, y);
  for (WeightedDemand& d : demands_) {
    if (d.a == x && d.b == y) {
      d.units += units;
      return;
    }
  }
  demands_.push_back(WeightedDemand{x, y, units});
}

Graph WeightedDemandSet::traffic_multigraph() const {
  Graph g(ring_size_);
  for (const WeightedDemand& d : demands_) {
    for (int unit = 0; unit < d.units; ++unit) g.add_edge(d.a, d.b);
  }
  return g;
}

std::size_t WeightedDemandSet::demand_of_edge(EdgeId e) const {
  TGROOM_CHECK(e >= 0);
  long long remaining = e;
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    if (remaining < demands_[i].units) return i;
    remaining -= demands_[i].units;
  }
  TGROOM_CHECK_MSG(false, "edge id beyond the demand expansion");
  return 0;
}

WeightedDemandSet WeightedDemandSet::parse(const std::string& text) {
  std::istringstream in(text);
  long long n = -1, count = -1;
  in >> n >> count;
  TGROOM_CHECK_MSG(n >= 0 && count >= 0, "weighted demands: bad header");
  WeightedDemandSet set(static_cast<NodeId>(n));
  for (long long i = 0; i < count; ++i) {
    long long x, y, units;
    TGROOM_CHECK_MSG(static_cast<bool>(in >> x >> y >> units),
                     "weighted demands: truncated input");
    set.add(static_cast<NodeId>(x), static_cast<NodeId>(y),
            static_cast<int>(units));
  }
  return set;
}

std::string WeightedDemandSet::serialize() const {
  std::ostringstream out;
  out << ring_size_ << ' ' << demands_.size() << '\n';
  for (const WeightedDemand& d : demands_) {
    out << d.a << ' ' << d.b << ' ' << d.units << '\n';
  }
  return out.str();
}

GroomingPlan plan_from_weighted_partition(const WeightedDemandSet& demands,
                                          const Graph& multigraph,
                                          const EdgePartition& partition) {
  TGROOM_CHECK_MSG(
      multigraph.real_edge_count() ==
          static_cast<EdgeId>(demands.total_units()),
      "multigraph does not match the demand expansion");
  GroomingPlan plan;
  plan.ring_size = demands.ring_size();
  plan.grooming_factor = partition.k;
  for (std::size_t w = 0; w < partition.parts.size(); ++w) {
    const FlatParts::Part part = partition.parts[w];
    TGROOM_CHECK_MSG(part.size() <= static_cast<std::size_t>(partition.k),
                     "part exceeds grooming factor");
    for (std::size_t slot = 0; slot < part.size(); ++slot) {
      const Edge& e = multigraph.edge(part[slot]);
      plan.pairs.push_back(GroomedPair{
          DemandPair{std::min(e.u, e.v), std::max(e.u, e.v)},
          static_cast<int>(w), static_cast<int>(slot)});
    }
  }
  return plan;
}

std::vector<int> demand_wavelength_spread(const WeightedDemandSet& demands,
                                          const Graph& multigraph,
                                          const EdgePartition& partition) {
  (void)multigraph;
  std::vector<std::set<int>> wavelengths(demands.size());
  for (std::size_t w = 0; w < partition.parts.size(); ++w) {
    for (EdgeId e : partition.parts[w]) {
      wavelengths[demands.demand_of_edge(e)].insert(static_cast<int>(w));
    }
  }
  std::vector<int> spread;
  spread.reserve(wavelengths.size());
  for (const auto& set : wavelengths) {
    spread.push_back(static_cast<int>(set.size()));
  }
  return spread;
}

}  // namespace tgroom
