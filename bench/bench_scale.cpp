// SCALE — one SpanT_Euler run at n up to 10^6: runtime, per-kernel phase
// breakdown, and peak arena bytes, on a multi-component ring-cluster
// workload (EXPERIMENTS.md SCALE).  Also the big-graph quality harness:
// every row asserts the Theorem 5 / Proposition 2 SADM bound, the minimum
// wavelength count, bit-identical parallel-vs-sequential partitions for
// every requested worker count, and walk-identical streaming-vs-
// materializing Euler decompositions — exit 1 on any violation.  Plain
// main: one run at n = 10^6 is seconds of wall clock, which does not fit
// google-benchmark's iteration model.
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "algo/components.hpp"
#include "algo/euler.hpp"
#include "algo/rooted_tree.hpp"
#include "algo/spanning_tree.hpp"
#include "algorithms/spant_euler.hpp"
#include "algorithms/workspace.hpp"
#include "gen/random_graph.hpp"
#include "partition/edge_partition.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tgroom;

struct ScaleRow {
  NodeId n = 0;
  long long m = 0;
  int rings = 0;
  double gen_seconds = 0;
  double seconds = 0;  // full sequential spant_euler, warm workspace
  double edges_per_sec = 0;
  double forest_seconds = 0;
  double parity_seconds = 0;
  double euler_seconds = 0;
  std::size_t arena_peak_bytes = 0;
  std::size_t euler_materialize_peak_bytes = 0;
  std::size_t euler_stream_peak_bytes = 0;
  long long sadms = 0;
  long long wavelengths = 0;
  long long bound = 0;  // Theorem 5: m + ceil(m/k) + (c - 1)
  std::size_t cover_size = 0;
};

struct ParallelRow {
  NodeId n = 0;
  int workers = 0;
  double seconds = 0;
  double edges_per_sec = 0;
};

// Position-weighted FNV over part boundaries and edge ids: two partitions
// collide only if they are identical part-for-part.
std::uint64_t partition_checksum(const EdgePartition& p) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (const auto& part : p.parts) {
    mix(0x9e3779b97f4a7c15ull + part.size());
    for (EdgeId e : part) mix(static_cast<std::uint64_t>(e));
  }
  return h;
}

std::uint64_t walk_checksum(std::uint64_t h, const ArenaWalk& walk) {
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(0x9e3779b97f4a7c15ull + walk.length());
  for (NodeId v : walk.nodes) mix(static_cast<std::uint64_t>(v));
  for (EdgeId e : walk.edges) mix(static_cast<std::uint64_t>(e));
  return h;
}

bool write_json(const std::string& path, int k,
                const std::vector<ScaleRow>& rows,
                const std::vector<ParallelRow>& parallel) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"spant_euler_scale\",\n"
      << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"workload\": {\"pattern\": \"ring_cluster\", \"k\": " << k
      << "},\n"
      << "  \"runs\": [\n";
  bool first = true;
  auto sep = [&first, &out] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const ScaleRow& r : rows) {
    sep();
    out << "    {\"n\": " << r.n << ", \"m\": " << r.m
        << ", \"rings\": " << r.rings << ", \"seconds\": " << r.seconds
        << ", \"edges_per_sec\": " << r.edges_per_sec
        << ", \"gen_seconds\": " << r.gen_seconds
        << ", \"forest_seconds\": " << r.forest_seconds
        << ", \"parity_seconds\": " << r.parity_seconds
        << ", \"euler_seconds\": " << r.euler_seconds
        << ", \"arena_peak_bytes\": " << r.arena_peak_bytes
        << ", \"euler_materialize_peak_bytes\": "
        << r.euler_materialize_peak_bytes
        << ", \"euler_stream_peak_bytes\": " << r.euler_stream_peak_bytes
        << ", \"sadms\": " << r.sadms
        << ", \"wavelengths\": " << r.wavelengths
        << ", \"prop2_bound\": " << r.bound
        << ", \"cover_size\": " << r.cover_size << "}";
  }
  for (const ParallelRow& r : parallel) {
    sep();
    out << "    {\"n\": " << r.n << ", \"workers\": " << r.workers
        << ", \"seconds\": " << r.seconds
        << ", \"edges_per_sec\": " << r.edges_per_sec << "}";
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_scale [--n-list N,...] [--k K] [--seed S] [--workers W] "
    "[--warmup N] [--min-time S] [--out FILE]\n"
    "One SpanT_Euler run at n up to 10^6: runtime, phases, arena peak;\n"
    "writes a JSON report.\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  std::vector<int> n_list =
      args.get_int_list("n-list", {10000, 100000, 1000000});
  const int k = static_cast<int>(args.get_int("k", 16));
  std::vector<int> worker_counts = args.get_int_list("workers", {0, 2});
  const int warmup = static_cast<int>(args.get_int("warmup", 1));
  const double min_time = args.get_double("min-time", 0.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20250808));
  const std::string out_path = args.get("out", "BENCH_scale.json");

  std::cout << "== SpanT_Euler scale: one run per n, ring-cluster workload"
            << ", k=" << k << " ==\n\n";

  std::vector<ScaleRow> rows;
  std::vector<ParallelRow> parallel_rows;
  const GroomingOptions options;  // kBfs — the parallel-eligible default

  for (int n_int : n_list) {
    const auto n = static_cast<NodeId>(n_int);
    ScaleRow row;
    row.n = n;
    // ~1000-node rings (>= 1 ring), chords = n/2 -> m = 1.5n, and a
    // component count that scales with n so per-component parallelism and
    // walk streaming both have structure to exploit.
    row.rings = std::max(1, n_int / 1000);

    Rng gen_rng(seed);
    Stopwatch gen_watch;
    const Graph g = ring_cluster_graph(n, row.rings, n / 2, gen_rng);
    row.gen_seconds = gen_watch.elapsed_seconds();
    const CsrGraph csr(g);
    row.m = g.edge_count();

    // -- Full sequential run (warm workspace, min-time loop) -------------
    GroomingWorkspace ws;
    EdgePartition sequential;
    for (int i = 0; i < warmup; ++i) {
      sequential = spant_euler(csr, k, options, nullptr, &ws);
    }
    int passes = 0;
    do {
      Stopwatch watch;
      sequential = spant_euler(csr, k, options, nullptr, &ws);
      row.seconds += watch.elapsed_seconds();
      ++passes;
    } while (row.seconds < min_time);
    row.seconds /= passes;
    row.edges_per_sec = static_cast<double>(row.m) / row.seconds;
    row.arena_peak_bytes = ws.arena.peak_bytes();
    row.sadms = sadm_cost(csr, sequential);
    row.wavelengths = sequential.wavelength_count();
    const std::uint64_t seq_checksum = partition_checksum(sequential);

    // -- Quality harness: Theorem 5 bound at this scale ------------------
    // The trace's forest and E_odd also pin the phase breakdown below.
    SpanTEulerTrace trace;
    trace.want_cover = false;  // cover_size without 10^6 heap skeletons
    {
      EdgePartition traced = spant_euler(csr, k, options, &trace);
      row.cover_size = trace.cover_size;
      row.bound =
          spant_euler_cost_bound(row.m, k, trace.g2_component_count);
      if (partition_checksum(traced) != seq_checksum) {
        std::cerr << "FAIL: traced run differs from plain run at n=" << n
                  << "\n";
        return 1;
      }
      if (row.sadms > row.bound) {
        std::cerr << "FAIL: SADM cost " << row.sadms
                  << " exceeds the Theorem 5 bound " << row.bound
                  << " at n=" << n << "\n";
        return 1;
      }
      if (!uses_min_wavelengths(g, sequential)) {
        std::cerr << "FAIL: partition does not use ceil(m/k) wavelengths"
                  << " at n=" << n << "\n";
        return 1;
      }
    }

    // -- Phase breakdown + streaming-vs-materializing Euler --------------
    {
      GroomingWorkspace pw;
      pw.prepare_for(csr);
      Rng rng(options.seed);
      Stopwatch forest_watch;
      spanning_forest(csr, options.tree_policy, &rng, pw.tree, &pw.arena);
      row.forest_seconds = forest_watch.elapsed_seconds();
      for (NodeId v = 0; v < n; ++v) {
        if (csr.degree(v) % 2 == 1) parity_flip(pw.odd_parity, v);
      }
      for (EdgeId e : pw.tree) {
        pw.in_tree[static_cast<std::size_t>(e)] = 1;
        const Edge& edge = csr.edge(e);
        parity_flip(pw.odd_parity, edge.u);
        parity_flip(pw.odd_parity, edge.v);
      }
      Stopwatch parity_watch;
      root_forest(csr, pw.tree, pw.forest, &pw.arena);
      odd_subtree_edges_parity(pw.forest, pw.odd_parity, pw.e_odd, &pw.arena);
      row.parity_seconds = parity_watch.elapsed_seconds();
      // The phases rebuild spant_euler's pipeline inline; if it drifts
      // from the algorithm, the timings describe code that no longer runs.
      if (pw.tree != trace.tree || pw.e_odd != trace.e_odd) {
        std::cerr << "FAIL: phase breakdown's forest or E_odd differs from"
                  << " spant_euler's at n=" << n << "\n";
        return 1;
      }
      for (std::size_t e = 0; e < pw.in_tree.size(); ++e) {
        pw.g2_mask[e] = pw.in_tree[e] ^ 1;
      }
      for (EdgeId e : pw.e_odd) pw.g2_mask[static_cast<std::size_t>(e)] = 1;

      std::uint64_t materialized = 1469598103934665603ull;
      {
        MonotonicArena arena;
        Stopwatch euler_watch;
        ArenaWalkList walks = euler_decomposition(csr, pw.g2_mask, arena,
                                                  MaskDegrees::kAllEven);
        row.euler_seconds = euler_watch.elapsed_seconds();
        for (const ArenaWalk& walk : walks) {
          materialized = walk_checksum(materialized, walk);
        }
        row.euler_materialize_peak_bytes = arena.peak_bytes();
      }
      std::uint64_t streamed = 1469598103934665603ull;
      {
        MonotonicArena arena;
        euler_decomposition_stream(
            csr, pw.g2_mask, arena,
            [&streamed](const ArenaWalk& walk) {
              streamed = walk_checksum(streamed, walk);
            },
            MaskDegrees::kAllEven);
        row.euler_stream_peak_bytes = arena.peak_bytes();
      }
      if (streamed != materialized) {
        std::cerr << "FAIL: streamed walks differ from materialized walks"
                  << " at n=" << n << "\n";
        return 1;
      }
    }

    // -- Parallel-within-one-run: timing + bit-identity ------------------
    for (int workers : worker_counts) {
      ThreadPool pool(static_cast<std::size_t>(workers));
      GroomingWorkspace pws;
      EdgePartition parallel =
          spant_euler_parallel(csr, k, options, &pool, &pws);
      if (partition_checksum(parallel) != seq_checksum) {
        std::cerr << "FAIL: parallel partition differs from sequential at n="
                  << n << " workers=" << workers << "\n";
        return 1;
      }
      ParallelRow pr;
      pr.n = n;
      pr.workers = workers;
      int ppasses = 0;
      do {
        Stopwatch watch;
        parallel = spant_euler_parallel(csr, k, options, &pool, &pws);
        pr.seconds += watch.elapsed_seconds();
        ++ppasses;
      } while (pr.seconds < min_time);
      pr.seconds /= ppasses;
      pr.edges_per_sec = static_cast<double>(row.m) / pr.seconds;
      parallel_rows.push_back(pr);
    }

    rows.push_back(row);
  }

  TextTable table("SpanT_Euler scale (bound + parallel/stream parity checked)");
  table.set_header({"n", "m", "seconds", "edges/sec", "arena peak MB",
                    "euler mat MB", "euler stream MB"});
  for (const ScaleRow& r : rows) {
    table.add_row(
        {TextTable::num(static_cast<long long>(r.n)), TextTable::num(r.m),
         TextTable::num(r.seconds, 3), TextTable::num(r.edges_per_sec, 0),
         TextTable::num(static_cast<double>(r.arena_peak_bytes) / 1e6, 2),
         TextTable::num(
             static_cast<double>(r.euler_materialize_peak_bytes) / 1e6, 2),
         TextTable::num(static_cast<double>(r.euler_stream_peak_bytes) / 1e6,
                        2)});
  }
  table.print(std::cout);

  TextTable ptable("parallel within one run (bit-identical to sequential)");
  ptable.set_header({"n", "workers", "seconds", "edges/sec"});
  for (const ParallelRow& r : parallel_rows) {
    ptable.add_row({TextTable::num(static_cast<long long>(r.n)),
                    TextTable::num(static_cast<long long>(r.workers)),
                    TextTable::num(r.seconds, 3),
                    TextTable::num(r.edges_per_sec, 0)});
  }
  std::cout << "\n";
  ptable.print(std::cout);

  if (!write_json(out_path, k, rows, parallel_rows)) {
    std::cerr << "FAIL: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nresults written to " << out_path << "\n";
  return 0;
}
