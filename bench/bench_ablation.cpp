// ABL-* — ablations of the design choices DESIGN.md calls out:
//   ABL-TREE:   spanning-tree policy inside SpanT_Euler (the paper's §6
//               "bound the number of components after deleting T");
//   ABL-MATCH:  matching policy inside Regular_Euler (Lemma 8's coloring
//               construction vs greedy vs true maximum matching);
//   ABL-REFINE: the §6 "denser sub-graphs" extensions (CliquePack and the
//               local-search refiner) against the paper algorithms.
#include <benchmark/benchmark.h>

#include <iostream>

#include "algo/components.hpp"
#include "algorithms/anneal.hpp"
#include "algorithms/clique_pack.hpp"
#include "algorithms/refine.hpp"
#include "algorithms/regular_euler.hpp"
#include "algorithms/spant_euler.hpp"
#include "bench_support/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace tgroom;

constexpr int kSeeds = 15;

void ablate_tree_policy(NodeId n) {
  std::cout << "-- ABL-TREE: spanning-tree policy in SpanT_Euler (n=" << n
            << ", mean SADMs over " << kSeeds << " seeds) --\n";
  TextTable table("");
  table.set_header({"d", "k", "bfs", "dfs", "random", "min-max-degree",
                    "bfs+smart", "mean cover size (bfs)"});
  for (double d : {0.3, 0.5, 0.8}) {
    for (int k : {4, 16, 48}) {
      std::vector<double> totals(5, 0);
      double cover = 0;
      for (int seed = 0; seed < kSeeds; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 7 + 1);
        const CsrGraph g(make_workload(WorkloadSpec::dense(n, d), rng));
        TreePolicy policies[] = {TreePolicy::kBfs, TreePolicy::kDfs,
                                 TreePolicy::kRandom,
                                 TreePolicy::kMinMaxDegree};
        for (int i = 0; i < 4; ++i) {
          GroomingOptions options;
          options.tree_policy = policies[i];
          options.seed = static_cast<std::uint64_t>(seed);
          SpanTEulerTrace trace;
          EdgePartition p = spant_euler(g, k, options, &trace);
          totals[static_cast<std::size_t>(i)] +=
              static_cast<double>(sadm_cost(g, p));
          if (i == 0) cover += static_cast<double>(trace.cover.size());
        }
        GroomingOptions smart;
        smart.smart_branches = true;
        smart.seed = static_cast<std::uint64_t>(seed);
        totals[4] += static_cast<double>(sadm_cost(g, spant_euler(g, k, smart)));
      }
      table.add_row({TextTable::num(d, 1), std::to_string(k),
                     TextTable::num(totals[0] / kSeeds, 1),
                     TextTable::num(totals[1] / kSeeds, 1),
                     TextTable::num(totals[2] / kSeeds, 1),
                     TextTable::num(totals[3] / kSeeds, 1),
                     TextTable::num(totals[4] / kSeeds, 1),
                     TextTable::num(cover / kSeeds, 2)});
    }
  }
  table.print(std::cout);
  std::cout << '\n';
}

void ablate_matching_policy(NodeId n) {
  std::cout << "-- ABL-MATCH: matching policy in Regular_Euler (n=" << n
            << ", odd r, mean SADMs over " << kSeeds << " seeds) --\n";
  TextTable table("");
  table.set_header({"r", "k", "greedy", "blossom", "color-class",
                    "cover(greedy)", "cover(blossom)"});
  for (int r : {7, 15}) {
    for (int k : {4, 16, 48}) {
      double totals[3] = {0, 0, 0};
      double covers[3] = {0, 0, 0};
      for (int seed = 0; seed < kSeeds; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 11 + 3);
        const CsrGraph g(make_workload(
            WorkloadSpec::regular(n, static_cast<NodeId>(r)), rng));
        MatchingPolicy policies[] = {MatchingPolicy::kGreedy,
                                     MatchingPolicy::kBlossom,
                                     MatchingPolicy::kColorClass};
        for (int i = 0; i < 3; ++i) {
          GroomingOptions options;
          options.matching_policy = policies[i];
          options.seed = static_cast<std::uint64_t>(seed);
          RegularEulerTrace trace;
          EdgePartition p = regular_euler(g, k, options, &trace);
          totals[i] += static_cast<double>(sadm_cost(g, p));
          covers[i] += static_cast<double>(trace.cover.size());
        }
      }
      table.add_row({std::to_string(r), std::to_string(k),
                     TextTable::num(totals[0] / kSeeds, 1),
                     TextTable::num(totals[1] / kSeeds, 1),
                     TextTable::num(totals[2] / kSeeds, 1),
                     TextTable::num(covers[0] / kSeeds, 2),
                     TextTable::num(covers[1] / kSeeds, 2)});
    }
  }
  table.print(std::cout);
  std::cout << '\n';
}

void ablate_extensions(NodeId n) {
  std::cout << "-- ABL-REFINE: §6 extensions vs the paper algorithm (n=" << n
            << ", mean SADMs over " << kSeeds << " seeds) --\n";
  TextTable table("");
  table.set_header({"d", "k", "SpanT", "SpanT+refine", "SpanT+anneal",
                    "CliquePack", "CliquePack+refine"});
  for (double d : {0.3, 0.5, 0.8}) {
    for (int k : {4, 16, 48}) {
      double totals[5] = {0, 0, 0, 0, 0};
      for (int seed = 0; seed < kSeeds; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 13 + 5);
        Graph g = make_workload(WorkloadSpec::dense(n, d), rng);
        const CsrGraph csr(g);
        EdgePartition spant = spant_euler(csr, k);
        totals[0] += static_cast<double>(sadm_cost(csr, spant));
        EdgePartition annealed = spant;
        refine_partition(csr, spant);
        totals[1] += static_cast<double>(sadm_cost(csr, spant));
        AnnealOptions anneal_options;
        anneal_options.iterations = 8000;
        anneal_options.seed = static_cast<std::uint64_t>(seed) + 1;
        anneal_partition(g, annealed, anneal_options);
        refine_partition(csr, annealed);  // final polish
        totals[2] += static_cast<double>(sadm_cost(csr, annealed));
        EdgePartition packed = clique_pack(csr, k);
        totals[3] += static_cast<double>(sadm_cost(csr, packed));
        refine_partition(csr, packed);
        totals[4] += static_cast<double>(sadm_cost(csr, packed));
      }
      table.add_row({TextTable::num(d, 1), std::to_string(k),
                     TextTable::num(totals[0] / kSeeds, 1),
                     TextTable::num(totals[1] / kSeeds, 1),
                     TextTable::num(totals[2] / kSeeds, 1),
                     TextTable::num(totals[3] / kSeeds, 1),
                     TextTable::num(totals[4] / kSeeds, 1)});
    }
  }
  table.print(std::cout);
  std::cout << '\n';
}

void bench_refine(benchmark::State& state) {
  Rng rng(21);
  const CsrGraph g(make_workload(WorkloadSpec::dense(36, 0.5), rng));
  for (auto _ : state) {
    EdgePartition p = spant_euler(g, 16);
    refine_partition(g, p);
    benchmark::DoNotOptimize(p);
  }
}

void bench_clique_pack(benchmark::State& state) {
  Rng rng(22);
  const CsrGraph g(make_workload(WorkloadSpec::dense(36, 0.5), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clique_pack(g, 16));
  }
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_ablation [--n N] [google-benchmark flags]\n"
    "Ablations of SpanT_Euler design choices (tree policy, branch\n"
    "attachment, refine).\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  const auto n = static_cast<NodeId>(args.get_int("n", 36));
  std::cout << "== Ablations ==\n\n";
  ablate_tree_policy(n);
  ablate_matching_policy(n);
  ablate_extensions(n);
  benchmark::RegisterBenchmark("ablation/spant16_plus_refine", bench_refine);
  benchmark::RegisterBenchmark("ablation/clique_pack16", bench_clique_pack);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
