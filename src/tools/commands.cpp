#include "tools/commands.hpp"

#include <algorithm>
#include <csignal>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>

#include "algorithms/algorithm.hpp"
#include "algorithms/anneal.hpp"
#include "bench_support/sweep.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/router.hpp"
#include "gen/traffic_patterns.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "grooming/incremental.hpp"
#include "grooming/plan.hpp"
#include "nphard/gadget.hpp"
#include "replication/replica.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/simulator.hpp"
#include "sonet/protection.hpp"
#include "store/durable_store.hpp"
#include "store/format.hpp"
#include "sonet/simulator.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace tgroom::tools {

namespace {

std::string slurp(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses --algorithm (default spant); reports to err and returns nullopt
/// on an unknown name.
std::optional<AlgorithmId> algorithm_flag(const CliArgs& args,
                                          std::ostream& err) {
  std::string name = args.get("algorithm", "spant");
  auto id = parse_algorithm_name(name);
  if (!id) err << "unknown algorithm '" << name << "'\n";
  return id;
}

GroomingOptions options_from_flags(const CliArgs& args) {
  GroomingOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.refine = args.get_bool("refine", false);
  options.smart_branches = args.get_bool("smart-branches", false);
  return options;
}

/// Parses --format (default "text"); reports unknown values to err.
std::optional<bool> json_format_flag(const CliArgs& args, std::ostream& err) {
  std::string format = args.get("format", "text");
  if (format == "text") return false;
  if (format == "json") return true;
  err << "--format expects text|json, got '" << format << "'\n";
  return std::nullopt;
}

/// Parses an "a-b,c-d" pair list (shared by grow/provision so the CLI and
/// service provisioning paths feed identical inputs).  Throws CheckError.
std::vector<DemandPair> parse_pair_list(const std::string& spec_text) {
  std::vector<DemandPair> pairs;
  std::stringstream spec(spec_text);
  std::string item;
  while (std::getline(spec, item, ',')) {
    auto dash = item.find('-');
    TGROOM_CHECK_MSG(dash != std::string::npos,
                     "--add expects a-b pairs, got '" + item + "'");
    NodeId a = static_cast<NodeId>(std::atoi(item.substr(0, dash).c_str()));
    NodeId b = static_cast<NodeId>(std::atoi(item.substr(dash + 1).c_str()));
    pairs.push_back(DemandPair{std::min(a, b), std::max(a, b)});
  }
  TGROOM_CHECK_MSG(!pairs.empty(), "--add lists no pairs");
  return pairs;
}

/// Parses a comma-separated integer list, e.g. "4,8,16".
std::optional<std::vector<int>> int_list_flag(const CliArgs& args,
                                              const std::string& flag,
                                              const std::string& fallback,
                                              std::ostream& err) {
  std::vector<int> values;
  std::stringstream spec(args.get(flag, fallback));
  std::string item;
  while (std::getline(spec, item, ',')) {
    if (item.empty()) continue;
    int value = std::atoi(item.c_str());
    if (value <= 0) {
      err << "--" << flag << " expects positive integers, got '" << item
          << "'\n";
      return std::nullopt;
    }
    values.push_back(value);
  }
  if (values.empty()) {
    err << "--" << flag << " lists no values\n";
    return std::nullopt;
  }
  return values;
}

void write_latency_json(JsonWriter& w, std::string_view key,
                        const LatencySummary& latency) {
  w.key(key).begin_object();
  w.kv("count", static_cast<long long>(latency.count));
  w.kv("p50_us", latency.p50_us);
  w.kv("p90_us", latency.p90_us);
  w.kv("p99_us", latency.p99_us);
  w.kv("max_us", latency.max_us);
  w.end_object();
}

void write_sim_result_json(JsonWriter& w, const SimResult& result,
                           bool timing) {
  w.kv("arrivals", static_cast<long long>(result.arrivals));
  w.kv("accepted", static_cast<long long>(result.accepted));
  w.kv("blocked", static_cast<long long>(result.blocked));
  w.kv("blocking_rate", result.blocking_rate);
  w.kv("departures", static_cast<long long>(result.departures));
  w.kv("sadms_added", result.sadms_added);
  w.kv("sadms_removed", result.sadms_removed);
  w.kv("repair_moves", result.repair_moves);
  w.kv("freed_wavelengths", result.freed_wavelengths);
  w.kv("peak_sadms", result.peak_sadms);
  w.kv("peak_wavelengths", static_cast<long long>(result.peak_wavelengths));
  w.kv("final_sadms", result.final_sadms);
  w.kv("final_wavelengths",
       static_cast<long long>(result.final_wavelengths));
  w.kv("residual_demands",
       static_cast<long long>(result.residual_demands));
  w.kv("bound_ok", result.bound_ok);
  if (timing) {
    write_latency_json(w, "arrival_latency", result.arrival_latency);
    write_latency_json(w, "release_latency", result.release_latency);
  }
}

void print_latency_text(std::ostream& out, const char* label,
                        const LatencySummary& latency) {
  out << label << "p50=" << TextTable::num(latency.p50_us, 1)
      << "us p90=" << TextTable::num(latency.p90_us, 1)
      << "us p99=" << TextTable::num(latency.p99_us, 1)
      << "us max=" << TextTable::num(latency.max_us, 1) << "us (n="
      << latency.count << ")\n";
}

void print_sim_result_text(std::ostream& out, const SimResult& result,
                           bool timing) {
  out << "arrivals:          " << result.arrivals << "\n"
      << "accepted:          " << result.accepted << "\n"
      << "blocked:           " << result.blocked << "\n"
      << "blocking rate:     "
      << TextTable::num(result.blocking_rate * 100.0, 2) << "%\n"
      << "departures:        " << result.departures << "\n"
      << "SADMs added:       " << result.sadms_added << "\n"
      << "SADMs removed:     " << result.sadms_removed << "\n"
      << "repair moves:      " << result.repair_moves << "\n"
      << "freed wavelengths: " << result.freed_wavelengths << "\n"
      << "peak SADMs:        " << result.peak_sadms << "\n"
      << "peak wavelengths:  " << result.peak_wavelengths << "\n"
      << "final SADMs:       " << result.final_sadms << "\n"
      << "final wavelengths: " << result.final_wavelengths << "\n"
      << "residual demands:  " << result.residual_demands << "\n"
      << "prop2 bound:       " << (result.bound_ok ? "ok" : "VIOLATED")
      << "\n";
  if (timing) {
    print_latency_text(out, "arrival latency:   ", result.arrival_latency);
    print_latency_text(out, "release latency:   ", result.release_latency);
  }
}

/// The dynamic-traffic mode of `tgroom simulate` (active when --traffic is
/// given): generates a seeded DemandScript and plays it through the
/// arrival/release event loop, or sweeps load until blocking crosses the
/// threshold when --load-steps is set.
int cmd_simulate_dynamic(const CliArgs& args, std::ostream& out,
                         std::ostream& err) {
  auto json = json_format_flag(args, err);
  if (!json) return 2;
  const std::string model_name = args.get("traffic", "poisson");
  auto model = parse_traffic_model(model_name);
  if (!model) {
    err << "--traffic expects poisson|diurnal|flash, got '" << model_name
        << "'\n";
    return 2;
  }

  TrafficConfig traffic;
  traffic.model = *model;
  traffic.ring_size = static_cast<NodeId>(args.get_int("ring", 16));
  traffic.arrival_rate = args.get_double("rate", 4.0);
  traffic.mean_holding = args.get_double("holding", 4.0);
  traffic.load = args.get_double("load", 1.0);
  traffic.diurnal_depth = args.get_double("depth", 0.5);
  traffic.diurnal_period = args.get_double("period", 64.0);
  traffic.flash_start = args.get_double("flash-start", 32.0);
  traffic.flash_duration = args.get_double("flash-duration", 8.0);
  traffic.flash_multiplier = args.get_double("flash-mult", 4.0);
  traffic.arrivals = static_cast<std::size_t>(args.get_int("events", 1000));
  traffic.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  SimOptions sim;
  sim.k = static_cast<int>(args.get_int("k", 16));
  sim.max_wavelengths = static_cast<int>(args.get_int("max-wavelengths", 0));
  sim.repair = args.get_bool("repair", true);
  sim.check_bound = args.get_bool("check-bound", true);
  sim.collect_latency = args.get_bool("timing", false);

  const int load_steps = static_cast<int>(args.get_int("load-steps", 0));
  try {
    if (load_steps <= 0) {
      const SimResult result = simulate_script(generate_script(traffic), sim);
      if (*json) {
        JsonWriter w;
        w.begin_object();
        w.kv("traffic", traffic_model_name(traffic.model));
        w.kv("ring", static_cast<long long>(traffic.ring_size));
        w.kv("k", static_cast<long long>(sim.k));
        w.kv("seed", traffic.seed);
        w.kv("load", traffic.load);
        w.kv("max_wavelengths",
             static_cast<long long>(sim.max_wavelengths));
        w.kv("repair", sim.repair);
        write_sim_result_json(w, result, sim.collect_latency);
        w.end_object();
        out << w.str() << "\n";
      } else {
        out << "# tgroom simulate: traffic="
            << traffic_model_name(traffic.model) << " ring="
            << traffic.ring_size << " k=" << sim.k << " arrivals="
            << traffic.arrivals << " seed=" << traffic.seed << " load="
            << TextTable::num(traffic.load, 2) << " max_wavelengths="
            << sim.max_wavelengths << " repair="
            << (sim.repair ? "on" : "off") << "\n";
        print_sim_result_text(out, result, sim.collect_latency);
      }
      return result.bound_ok ? 0 : 1;
    }

    LoadSweepOptions sweep_options;
    sweep_options.traffic = traffic;
    sweep_options.sim = sim;
    sweep_options.load_start = args.get_double("load-start", 0.5);
    sweep_options.load_step = args.get_double("load-step", 0.5);
    sweep_options.load_steps = load_steps;
    sweep_options.blocking_threshold = args.get_double("threshold", 0.01);
    sweep_options.workers =
        static_cast<std::size_t>(args.get_int("workers", 0));
    const LoadSweepResult sweep = run_load_sweep(sweep_options);
    bool all_bounds_ok = true;
    for (const LoadPoint& point : sweep.points) {
      all_bounds_ok = all_bounds_ok && point.result.bound_ok;
    }
    if (*json) {
      JsonWriter w;
      w.begin_object();
      w.kv("traffic", traffic_model_name(traffic.model));
      w.kv("ring", static_cast<long long>(traffic.ring_size));
      w.kv("k", static_cast<long long>(sim.k));
      w.kv("seed", traffic.seed);
      w.kv("max_wavelengths", static_cast<long long>(sim.max_wavelengths));
      w.kv("repair", sim.repair);
      w.kv("blocking_threshold", sweep_options.blocking_threshold);
      w.kv("threshold_index",
           static_cast<long long>(sweep.threshold_index));
      if (sweep.threshold_index >= 0) {
        w.kv("threshold_load",
             sweep.points[static_cast<std::size_t>(sweep.threshold_index)]
                 .load);
      } else {
        w.key("threshold_load").null();
      }
      w.key("points").begin_array();
      for (const LoadPoint& point : sweep.points) {
        w.begin_object();
        w.kv("load", point.load);
        write_sim_result_json(w, point.result, sim.collect_latency);
        w.end_object();
      }
      w.end_array();
      w.end_object();
      out << w.str() << "\n";
    } else {
      TextTable table(
          "load sweep: traffic=" +
          std::string(traffic_model_name(traffic.model)) + ", ring=" +
          std::to_string(traffic.ring_size) + ", k=" + std::to_string(sim.k) +
          ", max_wavelengths=" + std::to_string(sim.max_wavelengths) +
          ", threshold=" +
          TextTable::num(sweep_options.blocking_threshold * 100.0, 2) + "%");
      table.set_header({"load", "arrivals", "blocked", "blocking",
                        "peak waves", "peak SADMs", "bound"});
      for (const LoadPoint& point : sweep.points) {
        table.add_row(
            {TextTable::num(point.load, 2),
             TextTable::num(static_cast<long long>(point.result.arrivals)),
             TextTable::num(static_cast<long long>(point.result.blocked)),
             TextTable::num(point.result.blocking_rate * 100.0, 2) + "%",
             TextTable::num(
                 static_cast<long long>(point.result.peak_wavelengths)),
             TextTable::num(point.result.peak_sadms),
             point.result.bound_ok ? "ok" : "VIOLATED"});
      }
      table.print(out);
      if (sweep.threshold_index >= 0) {
        out << "blocking crosses "
            << TextTable::num(sweep_options.blocking_threshold * 100.0, 2)
            << "% at load "
            << TextTable::num(
                   sweep.points[static_cast<std::size_t>(
                                    sweep.threshold_index)]
                       .load,
                   2)
            << "\n";
      } else {
        out << "blocking never crosses "
            << TextTable::num(sweep_options.blocking_threshold * 100.0, 2)
            << "% on this load grid\n";
      }
    }
    return all_bounds_ok ? 0 : 1;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

// SIGTERM requests a graceful drain (`serve` and `route`).  No
// SA_RESTART: a read blocked in getline fails with EINTR, so the session
// reaches its drain path instead of blocking until the next request line.
void drain_on_sigterm() {
  struct sigaction action {};
  action.sa_handler = [](int) { GroomingService::request_stop(); };
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  GroomingService::clear_stop();
}

}  // namespace

std::string usage() {
  return
      "tgroom <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate   --pattern random|regular|all-to-all|hub --n N\n"
      "             [--dense D] [--r R] [--hubs H] [--seed S]\n"
      "             writes a demand file to stdout\n"
      "  groom      --k K [--algorithm NAME] [--refine] [--anneal]\n"
      "             [--anneal-iterations I] [--smart-branches]\n"
      "             [--format text|json]\n"
      "             reads a demand file on stdin, writes a plan file\n"
      "  simulate   reads a plan file on stdin, prints the ring report;\n"
      "             with --traffic poisson|diurnal|flash runs the dynamic\n"
      "             event-driven simulator instead: [--ring N] [--k K]\n"
      "             [--events E] [--rate R] [--holding H] [--load L]\n"
      "             [--max-wavelengths W] [--repair BOOL] [--seed S]\n"
      "             [--depth D] [--period P] [--flash-start T]\n"
      "             [--flash-duration T] [--flash-mult M] [--timing]\n"
      "             [--format text|json]; add --load-steps N [--load-start\n"
      "             L0] [--load-step DL] [--threshold B] [--workers W] to\n"
      "             sweep load until blocking crosses the threshold\n"
      "  survive    reads a plan file on stdin, prints survivability\n"
      "  compare    --k K  reads a demand file, prints per-algorithm table\n"
      "  grow       --add a-b,c-d  reads a plan file, provisions the new\n"
      "             pairs incrementally (existing circuits untouched)\n"
      "  provision  --add a-b,c-d [--format text|json]  same operation as\n"
      "             the service's provision op, shared code path\n"
      "  gadget     reads an even-degree graph, writes the Lemma 6\n"
      "             Δ-regular EPT gadget\n"
      "  sweep      --pattern dense|regular|all-to-all --n N [--dense D]\n"
      "             [--r R] [--k K1,K2,...] [--seeds S] [--workers W]\n"
      "             [--algorithms a,b,...] [--csv | --format json] runs the\n"
      "             batch engine over a (seed x k) grid, aggregate SADMs\n"
      "  serve      [--workers W] [--queue Q] [--cache C] [--cache-shards S]\n"
      "             [--deadline-ms D] [--port P] [--data-dir PATH]\n"
      "             [--fsync always|batch|none] [--snapshot-every N]\n"
      "             [--prewarm-cache BOOL] NDJSON request daemon on\n"
      "             stdin/stdout; --port P serves many concurrent loopback\n"
      "             TCP connections via an epoll event loop (P=0 picks an\n"
      "             ephemeral port, announced on stderr); ops groom,\n"
      "             provision, stats, shutdown — see DESIGN.md 10/12/14;\n"
      "             --data-dir makes held plans survive crashes (WAL +\n"
      "             snapshots, recovered on restart); --replica-of H:P\n"
      "             tails that primary's WAL and serves read-only until a\n"
      "             `promote` op flips it to primary (DESIGN.md 15);\n"
      "             --node-id NAME --shard-index I --shard-count N name\n"
      "             this node's place in a sharded cluster (echoed in\n"
      "             health, validated by `route`); --port-file PATH\n"
      "             writes the bound port atomically once listening\n"
      "  route      --shards host:port[,replica:port...];host:port;...\n"
      "             [--port P] [--port-file PATH] [--workers W]\n"
      "             [--queue Q] [--deadline-ms D] [--probe-ms MS]\n"
      "             [--timeout-ms MS] [--connect-wait-ms MS]\n"
      "             cluster front-end: fingerprint-routes requests across\n"
      "             the shard groups (',' separates a group's primary and\n"
      "             replicas, ';' separates groups), fails over to a\n"
      "             promoted replica when a primary dies (DESIGN.md 17)\n"
      "  store-dump --data-dir PATH  read-only recovery: prints the\n"
      "             held-plan table a restarted daemon would serve; a\n"
      "             summary with the store format version, WAL first/last\n"
      "             seq, per-record-type counts, and the store's fsync\n"
      "             policy goes to stderr\n"
      "\n"
      "algorithms: Algo1-Goldschmidt, Algo2-Brauner, Algo3-WangGu,\n"
      "            SpanT_Euler, Regular_Euler, CliquePack (aliases: algo1,\n"
      "            algo2, algo3, spant, regular, clique)\n";
}

int cmd_generate(const CliArgs& args, std::ostream& out, std::ostream& err) {
  const auto n = static_cast<NodeId>(args.get_int("n", 16));
  const std::string pattern = args.get("pattern", "random");
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  try {
    DemandSet demands(0);
    if (pattern == "random") {
      demands = random_traffic(n, args.get_double("dense", 0.5), rng);
    } else if (pattern == "regular") {
      demands = regular_traffic(
          n, static_cast<NodeId>(args.get_int("r", 4)), rng);
    } else if (pattern == "all-to-all") {
      demands = all_to_all_traffic(n);
    } else if (pattern == "hub") {
      demands = hub_traffic(n, static_cast<NodeId>(args.get_int("hubs", 2)));
    } else {
      err << "unknown pattern '" << pattern << "'\n";
      return 2;
    }
    out << "# tgroom demand file: pattern=" << pattern << " n=" << n << "\n";
    out << demands.serialize();
    return 0;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int cmd_groom(const CliArgs& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  auto id = algorithm_flag(args, err);
  if (!id) return 2;
  auto json = json_format_flag(args, err);
  if (!json) return 2;
  const int k = static_cast<int>(args.get_int("k", 16));
  try {
    DemandSet demands = DemandSet::parse(slurp(in));
    Graph traffic = demands.traffic_graph();
    EdgePartition partition =
        run_algorithm(*id, traffic, k, options_from_flags(args));
    if (args.get_bool("anneal", false)) {
      AnnealOptions anneal_options;
      anneal_options.seed =
          static_cast<std::uint64_t>(args.get_int("seed", 1));
      anneal_options.iterations =
          static_cast<int>(args.get_int("anneal-iterations", 20000));
      anneal_partition(traffic, partition, anneal_options);
    }
    auto valid = validate_partition(traffic, partition);
    TGROOM_CHECK_MSG(valid.ok, valid.reason);
    GroomingPlan plan = plan_from_partition(demands, traffic, partition);
    if (*json) {
      JsonWriter w;
      w.begin_object();
      w.kv("algorithm", algorithm_name(*id));
      w.kv("k", static_cast<long long>(k));
      w.kv("sadms", plan_sadm_count(plan));
      w.kv("wavelengths", static_cast<long long>(plan.wavelength_count()));
      w.kv("lower_bound", partition_cost_lower_bound(traffic, k));
      w.key("plan");
      write_plan_json(w, plan);
      w.end_object();
      out << w.str() << "\n";
      return 0;
    }
    out << "# tgroom plan: algorithm=" << algorithm_name(*id) << " k=" << k
        << " sadms=" << plan_sadm_count(plan)
        << " wavelengths=" << plan.wavelength_count() << "\n";
    out << serialize_plan(plan);
    return 0;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int cmd_simulate(const CliArgs& args, std::istream& in, std::ostream& out,
                 std::ostream& err) {
  // --traffic switches to the dynamic event-driven mode; without it the
  // command keeps its original contract (plan file on stdin, ring report).
  if (args.has("traffic")) return cmd_simulate_dynamic(args, out, err);
  try {
    GroomingPlan plan = parse_plan(slurp(in));
    UpsrRing ring(plan.ring_size);
    SimulationResult sim = simulate_plan(ring, plan);
    out << "ring nodes:        " << ring.node_count() << "\n"
        << "grooming factor:   " << plan.grooming_factor << "\n"
        << "demand pairs:      " << plan.pairs.size() << "\n"
        << "wavelengths:       " << sim.wavelengths_used << "\n"
        << "SADMs:             " << sim.sadm_count << "\n"
        << "optical bypasses:  " << sim.bypass_count << "\n"
        << "unit-hops:         " << sim.unit_hops << "\n"
        << "mean utilization:  "
        << TextTable::num(sim.mean_utilization * 100.0, 1) << "%\n"
        << "valid:             " << (sim.ok ? "yes" : "NO — " + sim.issue)
        << "\n\n"
        << render_sadm_map(ring, plan);
    return sim.ok ? 0 : 1;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int cmd_survive(const CliArgs& args, std::istream& in, std::ostream& out,
                std::ostream& err) {
  (void)args;
  try {
    GroomingPlan plan = parse_plan(slurp(in));
    UpsrRing ring(plan.ring_size);
    SurvivabilityReport report = survivability_report(ring, plan);
    out << render_survivability(report);
    return report.survives_all_single_failures ? 0 : 1;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int cmd_compare(const CliArgs& args, std::istream& in, std::ostream& out,
                std::ostream& err) {
  const int k = static_cast<int>(args.get_int("k", 16));
  try {
    DemandSet demands = DemandSet::parse(slurp(in));
    Graph traffic = demands.traffic_graph();
    TextTable table("k=" + std::to_string(k) + ", m=" +
                    std::to_string(traffic.real_edge_count()) +
                    ", lower bound=" +
                    std::to_string(partition_cost_lower_bound(traffic, k)));
    table.set_header({"algorithm", "SADMs", "wavelengths"});
    for (AlgorithmId id : all_algorithms()) {
      if (id == AlgorithmId::kRegularEuler &&
          !regularity(traffic).has_value()) {
        continue;  // needs a regular traffic graph
      }
      EdgePartition p = run_algorithm(id, traffic, k,
                                      options_from_flags(args));
      table.add_row({algorithm_name(id),
                     TextTable::num(sadm_cost(traffic, p)),
                     TextTable::num(static_cast<long long>(
                         p.wavelength_count()))});
    }
    table.print(out);
    return 0;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int cmd_grow(const CliArgs& args, std::istream& in, std::ostream& out,
             std::ostream& err) {
  try {
    GroomingPlan plan = parse_plan(slurp(in));
    std::vector<DemandPair> new_pairs = parse_pair_list(args.get("add", ""));
    IncrementalResult grown = add_demands_incremental(plan, new_pairs);
    out << "# tgroom grow: added=" << new_pairs.size()
        << " new_sadms=" << grown.new_sadms
        << " new_wavelengths=" << grown.new_wavelengths
        << " reused_sites=" << grown.reused_sites << "\n";
    out << serialize_plan(grown.plan);
    return 0;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int cmd_provision(const CliArgs& args, std::istream& in, std::ostream& out,
                  std::ostream& err) {
  auto json = json_format_flag(args, err);
  if (!json) return 2;
  try {
    // Same pipeline as the service's `provision` op: parse a base plan,
    // add the pairs with add_demands_incremental, report via the shared
    // JSON serializer.  tests pin CLI/service output equality.
    GroomingPlan plan = parse_plan(slurp(in));
    std::vector<DemandPair> new_pairs = parse_pair_list(args.get("add", ""));
    IncrementalResult grown = add_demands_incremental(plan, new_pairs);
    if (*json) {
      JsonWriter w;
      w.begin_object();
      w.kv("added", static_cast<long long>(new_pairs.size()));
      write_incremental_json(w, grown, /*include_plan=*/true);
      w.end_object();
      out << w.str() << "\n";
      return 0;
    }
    out << "# tgroom provision: added=" << new_pairs.size()
        << " new_sadms=" << grown.new_sadms
        << " new_wavelengths=" << grown.new_wavelengths
        << " reused_sites=" << grown.reused_sites << "\n";
    out << serialize_plan(grown.plan);
    return 0;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int cmd_gadget(const CliArgs& args, std::istream& in, std::ostream& out,
               std::ostream& err) {
  (void)args;
  try {
    Graph g = read_edge_list_string(slurp(in));
    RegularEptGadget gadget = build_regular_ept_gadget(g);
    out << "# Lemma 6 gadget: delta=" << gadget.delta
        << " helper_triangles=" << gadget.helper_triangles.size() << "\n";
    write_edge_list(out, gadget.gstar);
    return 0;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int cmd_sweep(const CliArgs& args, std::ostream& out, std::ostream& err) {
  const auto n = static_cast<NodeId>(args.get_int("n", 36));
  const std::string pattern = args.get("pattern", "dense");
  WorkloadSpec workload;
  if (pattern == "dense") {
    workload = WorkloadSpec::dense(n, args.get_double("dense", 0.5));
  } else if (pattern == "regular") {
    workload =
        WorkloadSpec::regular(n, static_cast<NodeId>(args.get_int("r", 8)));
  } else if (pattern == "all-to-all") {
    workload = WorkloadSpec::all_to_all(n);
  } else {
    err << "unknown pattern '" << pattern << "'\n";
    return 2;
  }

  auto factors = int_list_flag(args, "k", "4,8,12,16,20,24,28,32,40,48", err);
  if (!factors) return 2;

  std::vector<AlgorithmId> algorithms;
  std::stringstream names(args.get("algorithms", ""));
  std::string name;
  while (std::getline(names, name, ',')) {
    if (name.empty()) continue;
    auto id = parse_algorithm_name(name);
    if (!id) {
      err << "unknown algorithm '" << name << "'\n";
      return 2;
    }
    algorithms.push_back(*id);
  }
  if (algorithms.empty()) algorithms = figure4_algorithms();

  SweepConfig config;
  config.grooming_factors = *factors;
  config.seeds = static_cast<int>(args.get_int("seeds", 20));
  config.base_seed = static_cast<std::uint64_t>(
      args.get_int("base-seed", 20060101));
  config.workers = static_cast<std::size_t>(args.get_int("workers", 0));
  config.options = options_from_flags(args);

  auto json = json_format_flag(args, err);
  if (!json) return 2;

  try {
    SweepResult result = run_sweep(workload, algorithms, config);
    if (*json) {
      JsonWriter w;
      w.begin_object();
      w.kv("workload", workload_label(workload));
      w.kv("seeds", static_cast<long long>(config.seeds));
      w.kv("mean_edges", result.mean_edges);
      w.key("series").begin_array();
      for (const auto& series : result.series) {
        w.begin_object();
        w.kv("algorithm", algorithm_name(series.algorithm));
        w.key("cells").begin_array();
        for (std::size_t ki = 0; ki < series.cells.size(); ++ki) {
          const SweepCell& cell = series.cells[ki];
          w.begin_object();
          w.kv("k", static_cast<long long>(config.grooming_factors[ki]));
          w.kv("mean_sadms", cell.mean_sadms);
          w.kv("min_sadms", cell.min_sadms);
          w.kv("max_sadms", cell.max_sadms);
          w.kv("mean_wavelengths", cell.mean_wavelengths);
          w.kv("mean_lower_bound", cell.mean_lower_bound);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
      w.end_array();
      w.end_object();
      out << w.str() << "\n";
      return 0;
    }
    if (args.get_bool("csv", false)) {
      out << "algorithm,k,mean_sadms,min_sadms,max_sadms,"
             "mean_wavelengths,mean_lower_bound\n";
      for (const auto& series : result.series) {
        for (std::size_t ki = 0; ki < series.cells.size(); ++ki) {
          const SweepCell& cell = series.cells[ki];
          out << algorithm_name(series.algorithm) << ','
              << config.grooming_factors[ki] << ',' << cell.mean_sadms << ','
              << cell.min_sadms << ',' << cell.max_sadms << ','
              << cell.mean_wavelengths << ',' << cell.mean_lower_bound
              << '\n';
        }
      }
      return 0;
    }
    TextTable table(workload_label(workload) + ", seeds=" +
                    std::to_string(config.seeds) + ", mean edges=" +
                    TextTable::num(result.mean_edges, 1));
    table.set_header({"algorithm", "k", "mean SADMs", "min", "max",
                      "mean waves", "mean LB"});
    for (const auto& series : result.series) {
      for (std::size_t ki = 0; ki < series.cells.size(); ++ki) {
        const SweepCell& cell = series.cells[ki];
        table.add_row({algorithm_name(series.algorithm),
                       TextTable::num(static_cast<long long>(
                           config.grooming_factors[ki])),
                       TextTable::num(cell.mean_sadms, 2),
                       TextTable::num(cell.min_sadms, 0),
                       TextTable::num(cell.max_sadms, 0),
                       TextTable::num(cell.mean_wavelengths, 2),
                       TextTable::num(cell.mean_lower_bound, 2)});
      }
    }
    table.print(out);
    return 0;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int cmd_serve(const CliArgs& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  ServiceConfig config;
  config.workers = static_cast<std::size_t>(args.get_int("workers", 0));
  config.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 256));
  config.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 128));
  config.cache_shards =
      static_cast<std::size_t>(args.get_int("cache-shards", 0));
  config.default_deadline_ms = args.get_int("deadline-ms", 0);
  config.metrics_on_exit = args.get_bool("exit-metrics", true);
  config.data_dir = args.get("data-dir", "");
  config.snapshot_every =
      static_cast<std::uint64_t>(args.get_int("snapshot-every", 1024));
  config.prewarm_cache = args.get_bool("prewarm-cache", true);
  config.replica_of = args.get("replica-of", "");
  config.node_id = args.get("node-id", "");
  config.shard_index = static_cast<int>(args.get_int("shard-index", -1));
  config.shard_count = static_cast<int>(args.get_int("shard-count", 0));
  try {
    config.fsync = parse_fsync_policy(args.get("fsync", "batch"));
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 2;
  }
  if (config.queue_capacity == 0) {
    err << "--queue must be >= 1\n";
    return 2;
  }
  if (!config.replica_of.empty() && config.data_dir.empty()) {
    err << "--replica-of needs --data-dir (the replica persists the "
           "shipped WAL into its own store)\n";
    return 2;
  }
  if (config.shard_count > 0 &&
      (config.shard_index < 0 || config.shard_index >= config.shard_count)) {
    err << "--shard-index must be in [0, --shard-count)\n";
    return 2;
  }
  drain_on_sigterm();
  GroomingService service(config);
  // Open (and recover) the store before accepting any request, so a
  // format-version mismatch or unrepairable corruption is a structured
  // error up front, not a mid-session surprise.
  try {
    service.open_store();
  } catch (const StoreIncompatibleError& e) {
    out << make_error_response(0, false, ServiceError::kStoreIncompatible,
                               e.what())
        << "\n";
    err << e.what() << "\n";
    return 1;
  } catch (const CheckError& e) {
    out << make_error_response(0, false, ServiceError::kInternal, e.what())
        << "\n";
    err << e.what() << "\n";
    return 1;
  }
  // Replica mode: start the stream client tailing the primary before
  // accepting any request, and keep it alive for the whole serve session
  // (stop_and_drain on the way out unless `promote` already did it).
  std::unique_ptr<ReplicationClient> replica_link;
  if (!config.replica_of.empty()) {
    ReplicationClientConfig link_config;
    link_config.primary = config.replica_of;
    link_config.follower_id = config.node_id;
    replica_link = std::make_unique<ReplicationClient>(service, link_config);
    service.set_replica_link(replica_link.get());
    err << "tgroom serve: replica of " << config.replica_of
        << " (read-only until promoted)\n";
    replica_link->start();
  }
  // --port present selects TCP mode; --port 0 binds an ephemeral port
  // (the chosen port is announced on the "listening on" log line, which
  // is how tests and smoke scripts avoid port collisions).
  int rc;
  if (args.has("port")) {
    const int port = static_cast<int>(args.get_int("port", 0));
    rc = serve_tcp(service, port, err, args.get("port-file", ""));
  } else {
    rc = service.run(in, out);
  }
  if (replica_link != nullptr) replica_link->stop_and_drain();
  return rc;
}

int cmd_route(const CliArgs& args, std::ostream& out, std::ostream& err) {
  (void)out;  // the router speaks TCP only; logs go to stderr
  const std::string spec = args.get("shards", "");
  if (spec.empty()) {
    err << "route needs --shards "
           "host:port[,replica:port...];host:port[,...];...\n";
    return 2;
  }
  cluster::RouterConfig config;
  std::string error;
  if (!cluster::parse_cluster_map(spec, config.map, error)) {
    err << "route: bad --shards: " << error << "\n";
    return 2;
  }
  config.workers = static_cast<std::size_t>(args.get_int("workers", 8));
  config.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 256));
  config.default_deadline_ms = args.get_int("deadline-ms", 0);
  config.metrics_on_exit = args.get_bool("exit-metrics", true);
  config.probe_interval_ms =
      static_cast<int>(args.get_int("probe-ms", 200));
  config.backend_timeout_ms =
      static_cast<int>(args.get_int("timeout-ms", 10000));
  config.connect_wait_ms =
      static_cast<int>(args.get_int("connect-wait-ms", 2000));
  if (config.workers == 0) {
    // Forwarding blocks on backend round trips; inline execution would
    // block the event loop itself.
    err << "route needs --workers >= 1\n";
    return 2;
  }
  if (config.queue_capacity == 0) {
    err << "--queue must be >= 1\n";
    return 2;
  }
  drain_on_sigterm();
  cluster::ClusterRouter router(config);
  if (!router.start(err, error)) {
    err << "tgroom route: " << error << "\n";
    return 1;
  }
  // The router's destructor stops its backends on every return path.
  return serve_tcp(router, static_cast<int>(args.get_int("port", 0)), err,
                   args.get("port-file", ""));
}

int cmd_store_dump(const CliArgs& args, std::ostream& out,
                   std::ostream& err) {
  const std::string dir = args.get("data-dir", "");
  if (dir.empty()) {
    err << "store-dump needs --data-dir\n";
    return 2;
  }
  StoreRecovery recovery;
  try {
    // repair=false: inspection never mutates the store, so it is safe to
    // run against the data dir of a live daemon or a fresh crash site.
    RecoveredState state = recover_store_state(dir, &recovery,
                                               /*repair=*/false);
    std::vector<std::pair<std::int64_t, GroomingPlan>> plans(
        std::make_move_iterator(state.plans.begin()),
        std::make_move_iterator(state.plans.end()));
    std::sort(plans.begin(), plans.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Recovery details go to stderr so stdout is a pure function of the
    // recovered state (the crash harness diffs stdout across runs).
    const std::string fsync_policy = read_store_meta_fsync(dir);
    err << "store-dump: version=" << kStoreFormatVersion
        << " snapshot_seq=" << recovery.snapshot_seq
        << " wal_first_seq=" << recovery.wal_first_seq
        << " wal_last_seq=" << recovery.last_seq
        << " wal_records=" << recovery.wal_records_replayed
        << " torn=" << (recovery.torn_truncated ? 1 : 0)
        << " hold=" << recovery.hold_records
        << " provision=" << recovery.provision_records
        << " release=" << recovery.release_records
        << " fsync=" << (fsync_policy.empty() ? "unknown" : fsync_policy)
        << "\n";
    out << "# tgroom store: last_seq=" << recovery.last_seq
        << " plans=" << plans.size() << " next_plan_id=" << state.next_plan_id
        << "\n";
    for (const auto& [id, plan] : plans) {
      out << "plan " << id << "\n" << serialize_plan(plan);
    }
    return 0;
  } catch (const CheckError& e) {
    err << e.what() << "\n";
    return 1;
  }
}

int run_tool(int argc, const char* const* argv, std::istream& in,
             std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    err << usage();
    return 2;
  }
  std::string command = argv[1];
  CliArgs args(argc - 1, argv + 1);
  if (command == "generate") return cmd_generate(args, out, err);
  if (command == "groom") return cmd_groom(args, in, out, err);
  if (command == "simulate") return cmd_simulate(args, in, out, err);
  if (command == "survive") return cmd_survive(args, in, out, err);
  if (command == "compare") return cmd_compare(args, in, out, err);
  if (command == "grow") return cmd_grow(args, in, out, err);
  if (command == "provision") return cmd_provision(args, in, out, err);
  if (command == "gadget") return cmd_gadget(args, in, out, err);
  if (command == "sweep") return cmd_sweep(args, out, err);
  if (command == "serve") return cmd_serve(args, in, out, err);
  if (command == "route") return cmd_route(args, out, err);
  if (command == "store-dump") return cmd_store_dump(args, out, err);
  if (command == "help" || command == "--help") {
    out << usage();
    return 0;
  }
  err << "unknown command '" << command << "'\n\n" << usage();
  return 2;
}

}  // namespace tgroom::tools
