// RUNTIME — the paper's complexity claims as measurements:
//   §3: SpanT_Euler runs in O(m) (linear) time;
//   §4: Regular_Euler runs in O(sqrt(V) * m) dominated by the matching
//       (our blossom is O(V^3)-ish, documented in DESIGN.md);
//   baselines for scale context.
// google-benchmark sweeps the instance size so the complexity exponent can
// be read off the reported Big-O fit.
#include <benchmark/benchmark.h>

#include "algorithms/algorithm.hpp"
#include "algorithms/workspace.hpp"
#include "bench_support/workload.hpp"
#include "gen/random_graph.hpp"
#include "gen/regular_graph.hpp"

namespace {

using namespace tgroom;

void run_on_random(benchmark::State& state, AlgorithmId id) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(n));
  // Average degree fixed at 12 so m scales linearly with n.
  long long m = std::min<long long>(6LL * n,
                                    static_cast<long long>(n) * (n - 1) / 2);
  Graph g = random_gnm(n, m, rng);
  // Workspace and snapshot outlive the loop: measures the steady-state
  // (reused-buffer) hot path, matching how BatchGroomer drives the
  // algorithms.
  GroomingWorkspace ws;
  CsrGraph snapshot;
  for (auto _ : state) {
    snapshot.rebuild(g);
    benchmark::DoNotOptimize(run_algorithm(id, snapshot, 16, {}, &ws));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}

void run_on_regular(benchmark::State& state, AlgorithmId id, NodeId r) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(static_cast<std::uint64_t>(n) * 3 + 1);
  Graph g = random_regular(n, r, rng);
  GroomingWorkspace ws;
  CsrGraph snapshot;
  for (auto _ : state) {
    snapshot.rebuild(g);
    benchmark::DoNotOptimize(run_algorithm(id, snapshot, 16, {}, &ws));
  }
  state.SetComplexityN(
      static_cast<benchmark::IterationCount>(g.edge_count()));
}

void register_all() {
  struct Entry {
    const char* name;
    AlgorithmId id;
  };
  for (Entry e : {Entry{"runtime/SpanT_Euler", AlgorithmId::kSpanTEuler},
                  Entry{"runtime/Algo1-Goldschmidt",
                        AlgorithmId::kGoldschmidt},
                  Entry{"runtime/Algo2-Brauner", AlgorithmId::kBrauner},
                  Entry{"runtime/Algo3-WangGu", AlgorithmId::kWangGuIcc06}}) {
    benchmark::RegisterBenchmark(e.name,
                                 [id = e.id](benchmark::State& s) {
                                   run_on_random(s, id);
                                 })
        ->RangeMultiplier(2)
        ->Range(64, 2048)
        ->Complexity();
  }
  // Regular_Euler: odd r exercises the matching-dominated path.
  benchmark::RegisterBenchmark("runtime/Regular_Euler_odd_r7",
                               [](benchmark::State& s) {
                                 run_on_regular(s, AlgorithmId::kRegularEuler,
                                                7);
                               })
      ->RangeMultiplier(2)
      ->Range(64, 1024)
      ->Complexity();
  benchmark::RegisterBenchmark("runtime/Regular_Euler_even_r8",
                               [](benchmark::State& s) {
                                 run_on_regular(s, AlgorithmId::kRegularEuler,
                                                8);
                               })
      ->RangeMultiplier(2)
      ->Range(64, 2048)
      ->Complexity();
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
