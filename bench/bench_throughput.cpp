// THROUGHPUT — batch-grooming engine scaling: instances/sec vs worker
// count.  Generates a fixed pool of random traffic graphs, grooms the same
// cell list under each worker count, checks the results are bit-identical
// (the BatchGroomer determinism contract), and emits BENCH_throughput.json
// for CI artifact upload.  Plain main — wall-clock over a whole batch is
// the quantity of interest, not per-call latency, so google-benchmark's
// iteration model does not fit here.
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_support/workload.hpp"
#include "grooming/batch.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace tgroom;

struct Measurement {
  std::size_t workers = 0;
  double seconds = 0;
  double instances_per_sec = 0;
  long long sadm_checksum = 0;
};

long long checksum(const std::vector<BatchCellResult>& results) {
  long long sum = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    // Position-weighted so permuted results do not collide.
    sum += results[i].sadms * static_cast<long long>(i + 1);
  }
  return sum;
}

bool write_json(const std::string& path, NodeId n, double dense, int k,
                std::size_t instances,
                const std::vector<Measurement>& measurements) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"batch_grooming_throughput\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"workload\": {\"pattern\": \"dense\", \"n\": " << n
      << ", \"dense\": " << dense << ", \"k\": " << k
      << ", \"instances\": " << instances << "},\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    out << "    {\"workers\": " << m.workers << ", \"seconds\": " << m.seconds
        << ", \"instances_per_sec\": " << m.instances_per_sec
        << ", \"sadm_checksum\": " << m.sadm_checksum << "}"
        << (i + 1 < measurements.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_throughput [--instances N] [--n N] [--dense D] [--k K] "
    "[--base-seed S] [--workers W,...] [--warmup N] [--min-time S] [--out "
    "FILE]\n"
    "Batch-grooming instances/s across worker counts; writes a JSON report.\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  const auto instances = static_cast<std::size_t>(args.get_int("instances", 192));
  const auto n = static_cast<NodeId>(args.get_int("n", 64));
  const double dense = args.get_double("dense", 0.5);
  const int k = static_cast<int>(args.get_int("k", 16));
  const auto base_seed = static_cast<std::uint64_t>(
      args.get_int("base-seed", 20060101));
  std::vector<int> worker_counts = args.get_int_list("workers", {1, 2, 4});
  const int warmup = static_cast<int>(args.get_int("warmup", 1));
  const double min_time = args.get_double("min-time", 0.0);
  const std::string out_path = args.get("out", "BENCH_throughput.json");

  std::vector<Graph> graphs;
  graphs.reserve(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    Rng rng(BatchGroomer::cell_seed(base_seed, i));
    graphs.push_back(make_workload(WorkloadSpec::dense(n, dense), rng));
  }

  std::vector<BatchCell> cells(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    cells[i].graph = &graphs[i];
    cells[i].algorithm = AlgorithmId::kSpanTEuler;
    cells[i].k = k;
    cells[i].options.seed = BatchGroomer::cell_seed(base_seed ^ 0xb47cull, i);
  }

  std::cout << "== Batch grooming throughput: " << instances
            << " random instances, n=" << n << " d=" << dense << " k=" << k
            << " ==\n\n";

  std::vector<Measurement> measurements;
  for (int workers : worker_counts) {
    BatchGroomer groomer(BatchConfig{static_cast<std::size_t>(workers),
                                     /*validate=*/false,
                                     /*keep_partitions=*/false});
    // Warm-up passes so thread start-up and first-touch page faults are
    // not billed to the measured run; then repeat timed passes until the
    // accumulated measured time reaches --min-time (at least one pass).
    for (int i = 0; i < warmup; ++i) groomer.run(cells);
    Measurement m;
    m.workers = static_cast<std::size_t>(workers);
    int passes = 0;
    do {
      Stopwatch watch;
      std::vector<BatchCellResult> results = groomer.run(cells);
      m.seconds += watch.elapsed_seconds();
      ++passes;
      m.sadm_checksum = checksum(results);
    } while (m.seconds < min_time);
    m.instances_per_sec =
        static_cast<double>(instances) * passes / m.seconds;
    measurements.push_back(m);
  }

  for (const Measurement& m : measurements) {
    if (m.sadm_checksum != measurements.front().sadm_checksum) {
      std::cerr << "FAIL: results differ across worker counts ("
                << measurements.front().sadm_checksum << " vs "
                << m.sadm_checksum << " at workers=" << m.workers << ")\n";
      return 1;
    }
  }

  TextTable table("batch throughput (bit-identical across worker counts)");
  table.set_header({"workers", "seconds", "instances/sec", "speedup"});
  for (const Measurement& m : measurements) {
    table.add_row({TextTable::num(static_cast<long long>(m.workers)),
                   TextTable::num(m.seconds, 3),
                   TextTable::num(m.instances_per_sec, 1),
                   TextTable::num(m.instances_per_sec /
                                      measurements.front().instances_per_sec,
                                  2)});
  }
  table.print(std::cout);

  const unsigned cpus = std::thread::hardware_concurrency();
  for (const Measurement& m : measurements) {
    if (cpus != 0 && m.workers > cpus) {
      std::cout << "\nnote: this machine has " << cpus
                << " hardware thread" << (cpus == 1 ? "" : "s")
                << "; rows with workers > " << cpus
                << " measure oversubscription, not parallel speedup\n";
      break;
    }
  }

  if (!write_json(out_path, n, dense, k, instances, measurements)) {
    std::cerr << "FAIL: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nresults written to " << out_path << "\n";
  return 0;
}
