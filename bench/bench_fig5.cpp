// FIG5 — reproduces the paper's Figure 5: SADM counts vs grooming factor
// for random r-regular traffic graphs on n = 36 nodes, r in {7, 8, 15, 16},
// comparing the three baselines against Regular_Euler.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_support/report.hpp"
#include "bench_support/sweep.hpp"
#include "util/cli.hpp"

namespace {

using namespace tgroom;

void print_fig5(const CliArgs& args) {
  SweepConfig config;
  config.seeds = static_cast<int>(args.get_int("seeds", 20));
  config.grooming_factors =
      args.get_int_list("k", {4, 8, 12, 16, 20, 24, 28, 32, 40, 48});
  config.workers = static_cast<std::size_t>(args.get_int("workers", 0));
  const auto n = static_cast<NodeId>(args.get_int("n", 36));

  std::cout << "== Figure 5 reproduction: SADMs vs grooming factor, "
               "regular traffic graphs ==\n\n";
  for (int r : {7, 8, 15, 16}) {
    SweepResult result =
        run_sweep(WorkloadSpec::regular(n, static_cast<NodeId>(r)),
                  figure5_algorithms(), config);
    sweep_table(result, "Figure 5, degree r=" + std::to_string(r))
        .print(std::cout);
    std::cout << '\n';
    write_sweep_csv(result, "fig5_r" + std::to_string(r) + ".csv");
  }
  std::cout << "series exported to fig5_r{7,8,15,16}.csv\n\n";
}

void timing_case(benchmark::State& state, AlgorithmId id, int r) {
  Rng rng(777);
  Graph g = make_workload(WorkloadSpec::regular(36, static_cast<NodeId>(r)),
                          rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_algorithm(id, g, 16));
  }
  state.counters["edges"] = static_cast<double>(g.edge_count());
}

void register_timings() {
  // Regular_Euler's odd-r path (matching + chaining) vs the even-r fast
  // path, against the strongest baseline.
  for (int r : {7, 8, 15, 16}) {
    std::string name =
        "fig5_time/Regular_Euler/r=" + std::to_string(r);
    benchmark::RegisterBenchmark(name.c_str(), [r](benchmark::State& s) {
      timing_case(s, AlgorithmId::kRegularEuler, r);
    });
  }
  benchmark::RegisterBenchmark("fig5_time/SpanT_Euler/r=15",
                               [](benchmark::State& s) {
                                 timing_case(s, AlgorithmId::kSpanTEuler, 15);
                               });
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_fig5 [--n N] [--k K,...] [--seeds S] [--workers W] "
    "[google-benchmark flags]\n"
    "Figure 5: SADMs vs k on r-regular graphs (n = 36).\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  print_fig5(args);
  register_timings();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
