#include "grooming/plan.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace tgroom {

int GroomingPlan::wavelength_count() const {
  int count = 0;
  for (const GroomedPair& gp : pairs) {
    count = std::max(count, gp.wavelength + 1);
  }
  return count;
}

namespace {

// Graph and CsrGraph expose the same edge table.
template <typename G>
GroomingPlan plan_from_partition_impl(const DemandSet& demands,
                                      const G& traffic_graph,
                                      const FlatParts& parts, int k) {
  TGROOM_CHECK_MSG(
      traffic_graph.real_edge_count() ==
          static_cast<EdgeId>(demands.size()),
      "traffic graph and demand set disagree");
  GroomingPlan plan;
  plan.ring_size = demands.ring_size();
  plan.grooming_factor = k;
  plan.pairs.reserve(parts.ids().size());
  for (std::size_t w = 0; w < parts.size(); ++w) {
    const FlatParts::Part part = parts[w];
    TGROOM_CHECK_MSG(part.size() <= static_cast<std::size_t>(k),
                     "part exceeds grooming factor");
    for (std::size_t slot = 0; slot < part.size(); ++slot) {
      const Edge& e = traffic_graph.edge(part[slot]);
      plan.pairs.push_back(GroomedPair{DemandPair{std::min(e.u, e.v),
                                                  std::max(e.u, e.v)},
                                       static_cast<int>(w),
                                       static_cast<int>(slot)});
    }
  }
  return plan;
}

}  // namespace

GroomingPlan plan_from_partition(const DemandSet& demands,
                                 const Graph& traffic_graph,
                                 const EdgePartition& partition) {
  return plan_from_partition_impl(demands, traffic_graph, partition.parts,
                                  partition.k);
}

GroomingPlan plan_from_partition(const DemandSet& demands,
                                 const CsrGraph& traffic_graph,
                                 const FlatParts& parts, int k) {
  return plan_from_partition_impl(demands, traffic_graph, parts, k);
}

long long plan_sadm_count(const GroomingPlan& plan) {
  std::set<std::pair<int, NodeId>> sadms;
  for (const GroomedPair& gp : plan.pairs) {
    sadms.insert({gp.wavelength, gp.pair.a});
    sadms.insert({gp.wavelength, gp.pair.b});
  }
  return static_cast<long long>(sadms.size());
}

std::vector<int> plan_sadms_per_wavelength(const GroomingPlan& plan) {
  std::vector<std::set<NodeId>> nodes(
      static_cast<std::size_t>(plan.wavelength_count()));
  for (const GroomedPair& gp : plan.pairs) {
    nodes[static_cast<std::size_t>(gp.wavelength)].insert(gp.pair.a);
    nodes[static_cast<std::size_t>(gp.wavelength)].insert(gp.pair.b);
  }
  std::vector<int> counts;
  counts.reserve(nodes.size());
  for (const auto& s : nodes) counts.push_back(static_cast<int>(s.size()));
  return counts;
}

long long plan_bypass_count(const GroomingPlan& plan) {
  return static_cast<long long>(plan.ring_size) * plan.wavelength_count() -
         plan_sadm_count(plan);
}

std::string serialize_plan(const GroomingPlan& plan) {
  std::ostringstream out;
  out << plan.ring_size << ' ' << plan.grooming_factor << ' '
      << plan.pairs.size() << '\n';
  for (const GroomedPair& gp : plan.pairs) {
    out << gp.pair.a << ' ' << gp.pair.b << ' ' << gp.wavelength << ' '
        << gp.timeslot << '\n';
  }
  return out.str();
}

GroomingPlan parse_plan(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  auto next_line = [&]() {
    while (std::getline(in, line)) {
      std::size_t i = line.find_first_not_of(" \t\r");
      if (i == std::string::npos || line[i] == '#') continue;
      return true;
    }
    return false;
  };
  TGROOM_CHECK_MSG(next_line(), "plan: missing header");
  std::istringstream header(line);
  long long ring = -1, k = -1, count = -1;
  header >> ring >> k >> count;
  TGROOM_CHECK_MSG(ring >= 0 && k >= 1 && count >= 0, "plan: bad header");
  GroomingPlan plan;
  plan.ring_size = static_cast<NodeId>(ring);
  plan.grooming_factor = static_cast<int>(k);
  for (long long i = 0; i < count; ++i) {
    TGROOM_CHECK_MSG(next_line(), "plan: truncated pair list");
    std::istringstream row(line);
    long long a = -1, b = -1, w = -1, slot = -1;
    row >> a >> b >> w >> slot;
    TGROOM_CHECK_MSG(a >= 0 && b >= 0 && w >= 0 && slot >= 0,
                     "plan: bad pair line '" + line + "'");
    plan.pairs.push_back(GroomedPair{
        DemandPair{static_cast<NodeId>(std::min(a, b)),
                   static_cast<NodeId>(std::max(a, b))},
        static_cast<int>(w), static_cast<int>(slot)});
  }
  return plan;
}

}  // namespace tgroom
