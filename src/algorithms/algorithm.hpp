// Common interface over the grooming algorithms: the paper's two
// contributions (SpanT_Euler, Regular_Euler), the three baselines it
// compares against, and the clique-packing extension from its concluding
// remarks.  All of them consume a traffic graph plus grooming factor k and
// emit a k-edge partition.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algo/matching.hpp"
#include "algo/spanning_tree.hpp"
#include "partition/edge_partition.hpp"

namespace tgroom {

enum class AlgorithmId {
  kGoldschmidt,   // Algo. 1 [9]: spanning-tree partition
  kBrauner,       // Algo. 2 [3]: Euler path with virtual edges
  kWangGuIcc06,   // Algo. 3 [19]: skeleton cover by spanning-tree peeling
  kSpanTEuler,    // the paper's §3 algorithm
  kRegularEuler,  // the paper's §4 algorithm (regular graphs only)
  kCliquePack,    // §6 future-work extension: dense-subgraph packing
};

const char* algorithm_name(AlgorithmId id);

/// Inverse of algorithm_name; also accepts the short aliases "algo1",
/// "algo2", "algo3", "spant", "regular", "clique" (case-insensitive).
/// Compares in place: no allocation.
std::optional<AlgorithmId> parse_algorithm_name(std::string_view name);

/// All ids, for enumeration in tools.
std::span<const AlgorithmId> all_algorithms();

/// Tunables; the defaults reproduce the paper's configuration.
struct GroomingOptions {
  TreePolicy tree_policy = TreePolicy::kBfs;
  MatchingPolicy matching_policy = MatchingPolicy::kBlossom;
  std::uint64_t seed = 1;      // randomized tie-breaks
  bool refine = false;         // run the local-search post-pass
  /// SpanT_Euler only: attach each tree branch at its hub endpoint (the
  /// one carrying more branches) instead of the first backbone occurrence.
  /// An extension beyond the paper; clusters branches so large-k parts
  /// share more nodes (ABL-TREE in bench_ablation quantifies it).
  bool smart_branches = false;
};

struct GroomingWorkspace;

/// Runs the chosen algorithm on a CSR snapshot (the service's parsed
/// request), which every algorithm walks in place.  `workspace` is
/// caller-owned reusable scratch (see algorithms/workspace.hpp); output is
/// identical with or without one, and nullptr falls back to per-call
/// scratch.  Throws CheckError on invalid input (e.g. Regular_Euler on a
/// non-regular graph, virtual edges in the input).
EdgePartition run_algorithm(AlgorithmId id, const CsrGraph& traffic_graph,
                            int k, const GroomingOptions& options = {},
                            GroomingWorkspace* workspace = nullptr);

/// Same, on an adjacency-list Graph, for the CLI, examples, benches and
/// tests: snapshots `traffic_graph` into a CsrGraph of its own (never the
/// workspace's `csr`, which Brauner and Regular_Euler grow with their
/// virtual edges) and forwards.  Output is identical to the CSR overload
/// on the same edge list.
EdgePartition run_algorithm(AlgorithmId id, const Graph& traffic_graph, int k,
                            const GroomingOptions& options = {},
                            GroomingWorkspace* workspace = nullptr);

/// The four algorithms of the paper's Figure 4 comparison, in its order.
std::vector<AlgorithmId> figure4_algorithms();

/// The four algorithms of the paper's Figure 5 comparison, in its order.
std::vector<AlgorithmId> figure5_algorithms();

/// Guards shared by all algorithm entry points.
void check_algorithm_input(const CsrGraph& traffic_graph, int k);

}  // namespace tgroom
