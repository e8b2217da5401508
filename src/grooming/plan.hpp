// Grooming plans: the network-facing form of a k-edge partition.
//
// A plan assigns every demand pair a wavelength and a timeslot within that
// wavelength.  On a UPSR a symmetric pair {x, y} occupies its timeslot on
// *every* link of the working ring (the two directed halves together wrap
// the full ring), so a wavelength carries at most k pairs and each pair
// needs a distinct timeslot — exactly the |E_i| <= k constraint.
#pragma once

#include <vector>

#include "grooming/demand.hpp"
#include "partition/edge_partition.hpp"

namespace tgroom {

struct GroomedPair {
  DemandPair pair;
  int wavelength = 0;
  int timeslot = 0;
};

struct GroomingPlan {
  NodeId ring_size = 0;
  int grooming_factor = 1;
  std::vector<GroomedPair> pairs;

  int wavelength_count() const;
};

/// Builds a plan from a k-edge partition of the demand set's traffic graph:
/// part i becomes wavelength i; timeslots are positions within the part.
GroomingPlan plan_from_partition(const DemandSet& demands,
                                 const Graph& traffic_graph,
                                 const EdgePartition& partition);
/// Same, from a partition's parts alone (the service holds a cached
/// result this way without copying its parts).
GroomingPlan plan_from_partition(const DemandSet& demands,
                                 const CsrGraph& traffic_graph,
                                 const FlatParts& parts, int k);
inline GroomingPlan plan_from_partition(const DemandSet& demands,
                                        const CsrGraph& traffic_graph,
                                        const EdgePartition& partition) {
  return plan_from_partition(demands, traffic_graph, partition.parts,
                             partition.k);
}

/// SADM count of a plan: number of distinct (node, wavelength) pairs where
/// the node adds/drops traffic on that wavelength.
long long plan_sadm_count(const GroomingPlan& plan);

/// Per-wavelength SADM counts (index = wavelength).
std::vector<int> plan_sadms_per_wavelength(const GroomingPlan& plan);

/// Optical bypass count: ring_size * wavelengths - SADMs (node-wavelength
/// incidences where the wavelength passes through optically).
long long plan_bypass_count(const GroomingPlan& plan);

/// Text round-trip.  Format:
///   line 1: "<ring_size> <grooming_factor> <pair_count>"
///   then one "<a> <b> <wavelength> <timeslot>" line per groomed pair.
/// Comment lines starting with '#' and blank lines are skipped on parse.
std::string serialize_plan(const GroomingPlan& plan);
GroomingPlan parse_plan(const std::string& text);

}  // namespace tgroom
