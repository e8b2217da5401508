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

/// Runs the chosen algorithm.  Throws CheckError on invalid input (e.g.
/// Regular_Euler on a non-regular graph, virtual edges in the input).
EdgePartition run_algorithm(AlgorithmId id, const Graph& traffic_graph, int k,
                            const GroomingOptions& options = {});

struct GroomingWorkspace;

/// Same, with caller-owned reusable scratch (see algorithms/workspace.hpp).
/// Output is identical to the workspace-free overload; algorithms that do
/// not yet use a workspace simply ignore it.  Pass nullptr to fall back to
/// per-call scratch.
EdgePartition run_algorithm(AlgorithmId id, const Graph& traffic_graph, int k,
                            const GroomingOptions& options,
                            GroomingWorkspace* workspace);

class ThreadPool;

/// Same, with a thread pool for per-component parallelism INSIDE the one
/// run (currently kSpanTEuler only; other algorithms ignore the pool).
/// Output is bit-identical to the pool-free overloads for every worker
/// count — see algorithms/spant_euler.hpp.  Pass nullptr to run
/// sequentially.
EdgePartition run_algorithm(AlgorithmId id, const Graph& traffic_graph, int k,
                            const GroomingOptions& options,
                            GroomingWorkspace* workspace, ThreadPool* pool);

/// Same, on a CSR snapshot (the service's parsed request).  SpanT_Euler and
/// Regular_Euler without refine walk `traffic_graph` in place; every other
/// algorithm, and the refine pass, runs on the Graph that
/// CsrGraph::to_graph() builds.
/// Output is identical to the Graph overloads on the same edge list.
EdgePartition run_algorithm(AlgorithmId id, const CsrGraph& traffic_graph,
                            int k, const GroomingOptions& options,
                            GroomingWorkspace* workspace);

/// The four algorithms of the paper's Figure 4 comparison, in its order.
std::vector<AlgorithmId> figure4_algorithms();

/// The four algorithms of the paper's Figure 5 comparison, in its order.
std::vector<AlgorithmId> figure5_algorithms();

/// Guards shared by all algorithm entry points.
void check_algorithm_input(const Graph& traffic_graph, int k);
void check_algorithm_input(const CsrGraph& traffic_graph, int k);

}  // namespace tgroom
