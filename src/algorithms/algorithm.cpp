#include "algorithms/algorithm.hpp"

#include <algorithm>
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

namespace {

constexpr AlgorithmId kAllAlgorithms[] = {
    AlgorithmId::kGoldschmidt, AlgorithmId::kBrauner,
    AlgorithmId::kWangGuIcc06, AlgorithmId::kSpanTEuler,
    AlgorithmId::kRegularEuler, AlgorithmId::kCliquePack};

struct Alias {
  std::string_view name;
  AlgorithmId id;
};

constexpr Alias kAliases[] = {
    {"algo1", AlgorithmId::kGoldschmidt},
    {"goldschmidt", AlgorithmId::kGoldschmidt},
    {"algo2", AlgorithmId::kBrauner},
    {"brauner", AlgorithmId::kBrauner},
    {"algo3", AlgorithmId::kWangGuIcc06},
    {"wanggu", AlgorithmId::kWangGuIcc06},
    {"spant", AlgorithmId::kSpanTEuler},
    {"regular", AlgorithmId::kRegularEuler},
    {"clique", AlgorithmId::kCliquePack},
};

bool equals_ignoring_case(std::string_view a, std::string_view b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](char x, char y) {
                      return std::tolower(static_cast<unsigned char>(x)) ==
                             std::tolower(static_cast<unsigned char>(y));
                    });
}

}  // namespace

std::optional<AlgorithmId> parse_algorithm_name(std::string_view name) {
  for (AlgorithmId id : kAllAlgorithms) {
    if (equals_ignoring_case(name, algorithm_name(id))) return id;
  }
  for (const Alias& alias : kAliases) {
    if (equals_ignoring_case(name, alias.name)) return alias.id;
  }
  return std::nullopt;
}

std::span<const AlgorithmId> all_algorithms() { return kAllAlgorithms; }

void check_algorithm_input(const CsrGraph& traffic_graph, int k) {
  TGROOM_CHECK_MSG(k >= 1, "grooming factor must be >= 1");
  TGROOM_CHECK_MSG(
      traffic_graph.real_edge_count() == traffic_graph.edge_count(),
      "traffic graphs must not contain virtual edges");
}

EdgePartition run_algorithm(AlgorithmId id, const CsrGraph& traffic_graph,
                            int k, const GroomingOptions& options,
                            GroomingWorkspace* workspace) {
  EdgePartition partition;
  switch (id) {
    case AlgorithmId::kGoldschmidt:
      partition = goldschmidt_spanning_tree(traffic_graph, k, options);
      break;
    case AlgorithmId::kBrauner:
      partition = brauner_euler(traffic_graph, k, options, nullptr, workspace);
      break;
    case AlgorithmId::kWangGuIcc06:
      partition =
          wanggu_skeleton_cover(traffic_graph, k, options, nullptr, workspace);
      break;
    case AlgorithmId::kSpanTEuler:
      partition = spant_euler(traffic_graph, k, options, nullptr, workspace);
      break;
    case AlgorithmId::kRegularEuler:
      partition = regular_euler(traffic_graph, k, options, nullptr, workspace);
      break;
    case AlgorithmId::kCliquePack:
      partition = clique_pack(traffic_graph, k, options);
      break;
  }
  if (options.refine) refine_partition(traffic_graph, partition);
  return partition;
}

EdgePartition run_algorithm(AlgorithmId id, const Graph& traffic_graph, int k,
                            const GroomingOptions& options,
                            GroomingWorkspace* workspace) {
  return run_algorithm(id, CsrGraph(traffic_graph), k, options, workspace);
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
