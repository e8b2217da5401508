// FIG4 — reproduces the paper's Figure 4: SADM counts vs grooming factor
// for random traffic graphs of n = 36 nodes at three dense ratios,
// comparing Algo 1 [9], Algo 2 [3], Algo 3 [19] and SpanT_Euler.
//
// Prints the reproduction tables first (with CSV export), then runs
// google-benchmark timings of the four algorithms on the middle workload.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_support/report.hpp"
#include "bench_support/sweep.hpp"
#include "util/cli.hpp"

namespace {

using namespace tgroom;

void print_fig4(const CliArgs& args) {
  SweepConfig config;
  config.seeds = static_cast<int>(args.get_int("seeds", 20));
  config.grooming_factors =
      args.get_int_list("k", {4, 8, 12, 16, 20, 24, 28, 32, 40, 48});
  config.workers = static_cast<std::size_t>(args.get_int("workers", 0));
  const auto n = static_cast<NodeId>(args.get_int("n", 36));

  std::cout << "== Figure 4 reproduction: SADMs vs grooming factor, "
               "random traffic graphs ==\n\n";
  for (double d : {0.3, 0.5, 0.8}) {
    SweepResult result =
        run_sweep(WorkloadSpec::dense(n, d), figure4_algorithms(), config);
    sweep_table(result, "Figure 4, dense ratio d=" + TextTable::num(d, 1))
        .print(std::cout);
    std::cout << '\n';
    write_sweep_csv(result,
                    "fig4_d" + std::to_string(static_cast<int>(d * 10)) +
                        ".csv");
  }
  std::cout << "series exported to fig4_d{3,5,8}.csv\n\n";
}

void timing_case(benchmark::State& state, AlgorithmId id, double dense) {
  Rng rng(1234);
  Graph g = make_workload(WorkloadSpec::dense(36, dense), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_algorithm(id, g, 16));
  }
  state.counters["edges"] = static_cast<double>(g.edge_count());
}

void register_timings() {
  for (AlgorithmId id : figure4_algorithms()) {
    for (double d : {0.3, 0.8}) {
      std::string name = std::string("fig4_time/") + algorithm_name(id) +
                         "/d=" + TextTable::num(d, 1);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [id, d](benchmark::State& state) { timing_case(state, id, d); });
    }
  }
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_fig4 [--n N] [--k K,...] [--seeds S] [--workers W] "
    "[google-benchmark flags]\n"
    "Figure 4: SADMs vs k on random graphs (n = 36).\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  print_fig4(args);
  register_timings();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
