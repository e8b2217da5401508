// CHURN — dynamic-traffic event rate: arrivals through the incremental
// groomer plus departures through release_demands, measured end to end
// over a pre-generated DemandScript.  Runs the identical script with local
// repair on and off (runs keyed by "mode"), checks each mode's outcome is
// bit-identical across timed passes (the simulator determinism contract),
// and emits BENCH_churn.json for CI artifact upload and bench_compare.py.
// Plain main like bench_throughput: whole-script wall clock is the
// quantity of interest.  Latency percentiles come from the simulator's
// opt-in collection and are reported, not regression-compared (only
// *_per_sec metrics are).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace tgroom;

struct Measurement {
  std::string mode;  // "repair" | "norepair"
  double seconds = 0;
  double events_per_sec = 0;
  SimResult result;  // from the last timed pass (identical across passes)
};

/// Order-sensitive digest of the deterministic outcome fields.
long long outcome_checksum(const SimResult& r) {
  long long sum = 0;
  const long long fields[] = {
      static_cast<long long>(r.accepted), static_cast<long long>(r.blocked),
      static_cast<long long>(r.departures), r.sadms_added, r.sadms_removed,
      r.repair_moves, r.freed_wavelengths, r.peak_sadms,
      static_cast<long long>(r.peak_wavelengths), r.final_sadms,
      static_cast<long long>(r.residual_demands)};
  long long weight = 1;
  for (long long field : fields) sum += field * weight++;
  return sum;
}

bool write_json(const std::string& path, const TrafficConfig& traffic,
                const SimOptions& sim, std::size_t events,
                const std::vector<Measurement>& measurements) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"dynamic_churn\",\n"
      << "  \"workload\": {\"traffic\": \""
      << traffic_model_name(traffic.model) << "\", \"ring\": "
      << traffic.ring_size << ", \"k\": " << sim.k << ", \"arrivals\": "
      << traffic.arrivals << ", \"events\": " << events
      << ", \"max_wavelengths\": " << sim.max_wavelengths << ", \"seed\": "
      << traffic.seed << "},\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    const SimResult& r = m.result;
    out << "    {\"mode\": \"" << m.mode << "\", \"seconds\": " << m.seconds
        << ", \"events_per_sec\": " << m.events_per_sec
        << ", \"blocking_rate\": " << r.blocking_rate
        << ", \"sadms_removed\": " << r.sadms_removed
        << ", \"repair_moves\": " << r.repair_moves
        << ", \"peak_wavelengths\": " << r.peak_wavelengths
        << ", \"release_p50_us\": " << r.release_latency.p50_us
        << ", \"release_p99_us\": " << r.release_latency.p99_us
        << ", \"arrival_p99_us\": " << r.arrival_latency.p99_us << "}"
        << (i + 1 < measurements.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_churn [--events N] [--holding T] [--k K] [--load L] "
    "[--max-wavelengths W] [--ring N] [--rate R] [--seed S] [--warmup N] "
    "[--min-time S] [--out FILE]\n"
    "Dynamic-traffic event rate with and without local repair; writes a\n"
    "JSON report.\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  TrafficConfig traffic;
  traffic.model = TrafficModel::kPoisson;
  traffic.ring_size = static_cast<NodeId>(args.get_int("ring", 16));
  traffic.arrival_rate = args.get_double("rate", 8.0);
  traffic.mean_holding = args.get_double("holding", 4.0);
  traffic.load = args.get_double("load", 1.0);
  traffic.arrivals = static_cast<std::size_t>(args.get_int("events", 4000));
  traffic.seed = static_cast<std::uint64_t>(args.get_int("seed", 20060101));

  SimOptions sim;
  sim.k = static_cast<int>(args.get_int("k", 16));
  // A finite budget keeps the plan dense enough that releases actually
  // repair something, and exercises the blocking/rollback path.
  sim.max_wavelengths = static_cast<int>(args.get_int("max-wavelengths", 12));
  sim.check_bound = true;
  sim.collect_latency = true;

  const int warmup = static_cast<int>(args.get_int("warmup", 1));
  const double min_time = args.get_double("min-time", 0.0);
  const std::string out_path = args.get("out", "BENCH_churn.json");

  const DemandScript script = generate_script(traffic);

  std::cout << "== Dynamic churn: " << traffic.arrivals << " arrivals ("
            << script.events.size() << " events), ring=" << traffic.ring_size
            << " k=" << sim.k << " max_wavelengths=" << sim.max_wavelengths
            << " ==\n\n";

  std::vector<Measurement> measurements;
  for (bool repair : {true, false}) {
    sim.repair = repair;
    for (int i = 0; i < warmup; ++i) simulate_script(script, sim);
    Measurement m;
    m.mode = repair ? "repair" : "norepair";
    int passes = 0;
    long long digest = 0;
    do {
      Stopwatch watch;
      SimResult result = simulate_script(script, sim);
      m.seconds += watch.elapsed_seconds();
      ++passes;
      if (!result.bound_ok) {
        std::cerr << "FAIL: Prop-2 fragment bound violated (mode=" << m.mode
                  << ")\n";
        return 1;
      }
      const long long sum = outcome_checksum(result);
      if (passes > 1 && sum != digest) {
        std::cerr << "FAIL: outcome differs across passes (mode=" << m.mode
                  << ")\n";
        return 1;
      }
      digest = sum;
      m.result = result;
    } while (m.seconds < min_time);
    m.events_per_sec =
        static_cast<double>(script.events.size()) * passes / m.seconds;
    measurements.push_back(m);
  }

  TextTable table("dynamic churn (outcome bit-identical across passes)");
  table.set_header({"mode", "seconds", "events/sec", "blocking", "repairs",
                    "peak waves", "release p99 us"});
  for (const Measurement& m : measurements) {
    table.add_row(
        {m.mode, TextTable::num(m.seconds, 3),
         TextTable::num(m.events_per_sec, 1),
         TextTable::num(m.result.blocking_rate * 100.0, 2) + "%",
         TextTable::num(m.result.repair_moves),
         TextTable::num(static_cast<long long>(m.result.peak_wavelengths)),
         TextTable::num(m.result.release_latency.p99_us, 1)});
  }
  table.print(std::cout);

  if (!write_json(out_path, traffic, sim, script.events.size(),
                  measurements)) {
    std::cerr << "FAIL: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nresults written to " << out_path << "\n";
  return 0;
}
