#include "algorithms/algorithm.hpp"

#include <cctype>

#include "algorithms/brauner.hpp"
#include "algorithms/clique_pack.hpp"
#include "algorithms/goldschmidt.hpp"
#include "algorithms/refine.hpp"
#include "algorithms/regular_euler.hpp"
#include "algorithms/spant_euler.hpp"
#include "algorithms/wanggu.hpp"

namespace tgroom {

const char* algorithm_name(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kGoldschmidt:
      return "Algo1-Goldschmidt";
    case AlgorithmId::kBrauner:
      return "Algo2-Brauner";
    case AlgorithmId::kWangGuIcc06:
      return "Algo3-WangGu";
    case AlgorithmId::kSpanTEuler:
      return "SpanT_Euler";
    case AlgorithmId::kRegularEuler:
      return "Regular_Euler";
    case AlgorithmId::kCliquePack:
      return "CliquePack";
  }
  return "?";
}

std::optional<AlgorithmId> parse_algorithm_name(const std::string& name) {
  std::string lower;
  for (char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (AlgorithmId id : all_algorithms()) {
    std::string canonical = algorithm_name(id);
    for (char& c : canonical) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (lower == canonical) return id;
  }
  if (lower == "algo1" || lower == "goldschmidt")
    return AlgorithmId::kGoldschmidt;
  if (lower == "algo2" || lower == "brauner") return AlgorithmId::kBrauner;
  if (lower == "algo3" || lower == "wanggu") return AlgorithmId::kWangGuIcc06;
  if (lower == "spant" || lower == "spant_euler")
    return AlgorithmId::kSpanTEuler;
  if (lower == "regular" || lower == "regular_euler")
    return AlgorithmId::kRegularEuler;
  if (lower == "clique" || lower == "cliquepack")
    return AlgorithmId::kCliquePack;
  return std::nullopt;
}

std::vector<AlgorithmId> all_algorithms() {
  return {AlgorithmId::kGoldschmidt, AlgorithmId::kBrauner,
          AlgorithmId::kWangGuIcc06, AlgorithmId::kSpanTEuler,
          AlgorithmId::kRegularEuler, AlgorithmId::kCliquePack};
}

namespace {

template <typename G>
void check_input_impl(const G& traffic_graph, int k) {
  TGROOM_CHECK_MSG(k >= 1, "grooming factor must be >= 1");
  TGROOM_CHECK_MSG(
      traffic_graph.real_edge_count() == traffic_graph.edge_count(),
      "traffic graphs must not contain virtual edges");
}

}  // namespace

void check_algorithm_input(const Graph& traffic_graph, int k) {
  check_input_impl(traffic_graph, k);
}

void check_algorithm_input(const CsrGraph& traffic_graph, int k) {
  check_input_impl(traffic_graph, k);
}

EdgePartition run_algorithm(AlgorithmId id, const Graph& traffic_graph, int k,
                            const GroomingOptions& options) {
  return run_algorithm(id, traffic_graph, k, options, nullptr);
}

EdgePartition run_algorithm(AlgorithmId id, const Graph& traffic_graph, int k,
                            const GroomingOptions& options,
                            GroomingWorkspace* workspace) {
  return run_algorithm(id, traffic_graph, k, options, workspace, nullptr);
}

EdgePartition run_algorithm(AlgorithmId id, const Graph& traffic_graph, int k,
                            const GroomingOptions& options,
                            GroomingWorkspace* workspace, ThreadPool* pool) {
  EdgePartition partition;
  switch (id) {
    case AlgorithmId::kGoldschmidt:
      partition = goldschmidt_spanning_tree(traffic_graph, k, options);
      break;
    case AlgorithmId::kBrauner:
      partition = brauner_euler(traffic_graph, k, options);
      break;
    case AlgorithmId::kWangGuIcc06:
      partition = wanggu_skeleton_cover(traffic_graph, k, options);
      break;
    case AlgorithmId::kSpanTEuler:
      partition = pool ? spant_euler_parallel(traffic_graph, k, options, pool,
                                              workspace)
                       : spant_euler(traffic_graph, k, options, nullptr,
                                     workspace);
      break;
    case AlgorithmId::kRegularEuler:
      partition = regular_euler(traffic_graph, k, options);
      break;
    case AlgorithmId::kCliquePack:
      partition = clique_pack(traffic_graph, k, options);
      break;
  }
  if (options.refine) refine_partition(traffic_graph, partition);
  return partition;
}

EdgePartition run_algorithm(AlgorithmId id, const CsrGraph& traffic_graph,
                            int k, const GroomingOptions& options,
                            GroomingWorkspace* workspace) {
  if (id == AlgorithmId::kSpanTEuler && !options.refine) {
    return spant_euler(traffic_graph, k, options, nullptr, workspace);
  }
  return run_algorithm(id, traffic_graph.to_graph(), k, options, workspace);
}

std::vector<AlgorithmId> figure4_algorithms() {
  return {AlgorithmId::kGoldschmidt, AlgorithmId::kBrauner,
          AlgorithmId::kWangGuIcc06, AlgorithmId::kSpanTEuler};
}

std::vector<AlgorithmId> figure5_algorithms() {
  return {AlgorithmId::kGoldschmidt, AlgorithmId::kBrauner,
          AlgorithmId::kWangGuIcc06, AlgorithmId::kRegularEuler};
}

}  // namespace tgroom
