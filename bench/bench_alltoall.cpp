// TAB-A2A (supplementary) — the all-to-all traffic pattern the paper's
// introduction singles out (r = n-1; studied in its refs [1], [11], [13],
// [21]).  No figure in this paper plots it, but it is the canonical
// benchmark of the surrounding literature, so the harness regenerates the
// series: for K_n, every algorithm vs the combinatorial lower bound
// max(Σ_v ceil((n-1)/k), ⌊m/k⌋·t(k) + t(m mod k)).
#include <benchmark/benchmark.h>

#include <iostream>

#include "algorithms/algorithm.hpp"
#include "gen/families.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace tgroom;

void print_all_to_all(const CliArgs& args) {
  std::cout << "== All-to-all traffic (K_n): SADMs vs grooming factor ==\n\n";
  std::vector<int> ks = args.get_int_list("k", {4, 8, 16, 32, 48, 64});
  for (NodeId n : {8, 12, 16}) {
    Graph g = complete_graph(n);
    TextTable table("n=" + std::to_string(n) + " (m=" +
                    std::to_string(g.edge_count()) + ")");
    std::vector<std::string> header{"k"};
    std::vector<AlgorithmId> algos{
        AlgorithmId::kGoldschmidt, AlgorithmId::kBrauner,
        AlgorithmId::kWangGuIcc06, AlgorithmId::kSpanTEuler,
        AlgorithmId::kRegularEuler, AlgorithmId::kCliquePack};
    for (AlgorithmId id : algos) header.push_back(algorithm_name(id));
    header.push_back("LB");
    table.set_header(std::move(header));
    for (int k : ks) {
      std::vector<std::string> row{std::to_string(k)};
      for (AlgorithmId id : algos) {
        EdgePartition p = run_algorithm(id, g, k);
        if (!validate_partition(g, p).ok) {
          std::cerr << "INVALID partition from " << algorithm_name(id)
                    << "\n";
          std::exit(1);
        }
        row.push_back(TextTable::num(sadm_cost(g, p)));
      }
      row.push_back(TextTable::num(partition_cost_lower_bound(g, k)));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << '\n';
  }
}

void bench_k16(benchmark::State& state, AlgorithmId id) {
  Graph g = complete_graph(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_algorithm(id, g, 16));
  }
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_alltoall [--k K] [google-benchmark flags]\n"
    "SADM counts on all-to-all traffic.\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  print_all_to_all(args);
  benchmark::RegisterBenchmark("alltoall/SpanT_Euler_K16",
                               [](benchmark::State& s) {
                                 bench_k16(s, AlgorithmId::kSpanTEuler);
                               });
  benchmark::RegisterBenchmark("alltoall/Regular_Euler_K16",
                               [](benchmark::State& s) {
                                 bench_k16(s, AlgorithmId::kRegularEuler);
                               });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
