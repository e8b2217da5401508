// CLUSTER — routed throughput: requests/sec through the `tgroom route`
// front-end as the shard count behind it varies, against the same
// workload served by one node directly.  Three rows:
//
//   direct  / 1 shard   clients -> one event-loop node (no router)
//   routed  / 1 shard   clients -> router -> one node (router overhead)
//   routed  / 2 shards  clients -> router -> two nodes (aggregate)
//
// The direct-vs-routed-1 gap is what forwarding costs (one extra hop,
// id splice, in-flight table); routed-2 vs routed-1 is what sharding
// buys.  On a single-core host the 2-shard row cannot exceed 1x — the
// shards and the router time-slice one CPU — so read the scaling column
// against the "cpus" field in BENCH_cluster.json, same caveat as
// BENCH_service.json's worker sweep.  The request stream is stateless
// grooms plus inline provisions (reads, no held plans), so every line
// routes by content hash and the shards split the cache-primed load.
// Emits BENCH_cluster.json for scripts/bench_compare.py.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "cluster/router.hpp"
#include "gen/traffic_patterns.hpp"
#include "grooming/plan.hpp"
#include "service/event_loop.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

constexpr const char* kUsage =
    "usage: bench_cluster [--n N] [--k K] [--graphs G] [--requests R] "
    "[--connections C] [--pipeline P] [--workers W] [--router-workers W] "
    "[--warmup N] [--min-time S] [--json FILE]\n"
    "Routed throughput: direct node vs router vs 2 shards; writes a JSON\n"
    "report.\n";

namespace {

using namespace tgroom;

struct Measurement {
  std::string mode;       // "direct" | "routed"
  std::size_t shards = 1;
  std::size_t connections = 0;
  int pipeline = 1;
  double warm_seconds = 0;
  double warm_rps = 0;
};

// Mixed stateless stream, same shape as bench_service's: 3:1 grooms to
// inline provisions, over a pool of distinct graphs so the router
// spreads by fingerprint and each shard's cache holds its share.
std::string build_stream(int requests, int graphs, NodeId n, int k) {
  std::vector<Graph> pool;
  std::vector<GroomingPlan> plans;
  for (int i = 0; i < graphs; ++i) {
    Rng rng(static_cast<std::uint64_t>(7 + i));
    pool.push_back(random_traffic(n, 0.5, rng).traffic_graph());
    EdgePartition partition =
        run_algorithm(AlgorithmId::kSpanTEuler, pool.back(), k);
    plans.push_back(plan_from_partition(
        DemandSet::from_traffic_graph(pool.back()), pool.back(), partition));
  }
  std::string stream;
  for (int i = 0; i < requests; ++i) {
    const std::size_t gi = static_cast<std::size_t>(i % graphs);
    JsonWriter w;
    w.begin_object();
    if (i % 4 != 3) {
      w.kv("op", "groom");
      w.kv("id", static_cast<long long>(i));
      w.key("graph");
      write_graph_json(w, pool[gi]);
      w.kv("k", static_cast<long long>(k));
      w.kv("seed", std::uint64_t{1});
    } else {
      w.kv("op", "provision");
      w.kv("id", static_cast<long long>(i));
      w.key("plan");
      write_plan_json(w, plans[gi]);
      const NodeId a = static_cast<NodeId>(i % (n - 1));
      w.key("add")
          .begin_array()
          .begin_array()
          .value(static_cast<long long>(a))
          .value(static_cast<long long>(a + 1))
          .end_array()
          .end_array();
    }
    w.end_object();
    stream += w.take();
    stream += '\n';
  }
  return stream;
}

struct ClientSlice {
  std::string bytes;
  std::vector<std::size_t> ends;
};

std::vector<ClientSlice> split_stream(const std::string& stream,
                                      std::size_t conns) {
  std::vector<ClientSlice> slices(conns);
  std::size_t begin = 0, i = 0;
  while (begin < stream.size()) {
    const std::size_t nl = stream.find('\n', begin);
    ClientSlice& s = slices[i++ % conns];
    s.bytes.append(stream, begin, nl - begin + 1);
    s.ends.push_back(s.bytes.size());
    begin = nl + 1;
  }
  return slices;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    std::cerr << "cluster bench: connect to 127.0.0.1:" << port
              << " failed\n";
    std::exit(1);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void send_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n <= 0) {
      std::cerr << "cluster bench: send failed\n";
      std::exit(1);
    }
    off += static_cast<std::size_t>(n);
  }
}

void drive_client(int port, const ClientSlice& slice, int pipeline) {
  const std::size_t total = slice.ends.size();
  if (total == 0) return;
  const int fd = connect_loopback(port);
  std::size_t sent = 0, got = 0;
  char buf[64 * 1024];
  while (got < total) {
    const std::size_t target =
        std::min(total, got + static_cast<std::size_t>(pipeline));
    if (sent < target) {
      const std::size_t from = sent == 0 ? 0 : slice.ends[sent - 1];
      send_all(fd, slice.bytes.data() + from, slice.ends[target - 1] - from);
      sent = target;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      std::cerr << "cluster bench: connection lost after " << got << " of "
                << total << " responses\n";
      std::exit(1);
    }
    for (ssize_t j = 0; j < n; ++j) got += buf[j] == '\n' ? 1u : 0u;
  }
  ::close(fd);
}

double pass(int port, const std::vector<ClientSlice>& slices,
            int pipeline) {
  Stopwatch timer;
  std::vector<std::thread> clients;
  clients.reserve(slices.size());
  for (const ClientSlice& s : slices) {
    clients.emplace_back(
        [port, &s, pipeline] { drive_client(port, s, pipeline); });
  }
  for (std::thread& t : clients) t.join();
  return timer.elapsed_seconds();
}

struct TimedRun {
  double seconds = 0;
  int passes = 0;
};

template <typename F>
TimedRun measure(double min_time, F&& one_pass) {
  TimedRun r;
  do {
    r.seconds += one_pass();
    ++r.passes;
  } while (r.seconds < min_time);
  return r;
}

/// One shard node on its own thread and ephemeral port.
struct ShardNode {
  GroomingService service;
  EventLoopServer server;
  std::ostringstream log;
  std::thread thread;

  static ServiceConfig make_config(std::size_t workers, int requests,
                                   std::size_t cache_capacity) {
    ServiceConfig config;
    config.workers = workers;
    config.queue_capacity = static_cast<std::size_t>(requests) + 1;
    config.cache_capacity = cache_capacity;
    config.metrics_on_exit = false;
    return config;
  }

  ShardNode(std::size_t workers, int requests, std::size_t cache_capacity)
      : service(make_config(workers, requests, cache_capacity)),
        server(service, EventLoopConfig{}) {
    if (!server.valid()) {
      std::cerr << "cluster bench: " << server.error() << "\n";
      std::exit(1);
    }
    thread = std::thread([this] { server.run(log); });
  }
};

void shutdown_port(int port) {
  const int fd = connect_loopback(port);
  static const char kShutdown[] = "{\"op\":\"shutdown\"}\n";
  send_all(fd, kShutdown, sizeof(kShutdown) - 1);
  char buf[4096];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
}

/// A full routed cluster: `shard_count` single-member groups plus the
/// router front-end, all in-process.  Shutdown through the router drains
/// the shards too.
struct RoutedCluster {
  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::unique_ptr<cluster::ClusterRouter> router;
  std::unique_ptr<EventLoopServer> front;
  std::ostringstream log;
  std::thread thread;

  RoutedCluster(std::size_t shard_count, std::size_t node_workers,
                std::size_t router_workers, int requests,
                std::size_t cache_capacity) {
    cluster::RouterConfig config;
    for (std::size_t s = 0; s < shard_count; ++s) {
      nodes.push_back(std::make_unique<ShardNode>(node_workers, requests,
                                                  cache_capacity));
      cluster::ShardSpec spec;
      spec.members.push_back(
          cluster::BackendAddress{"127.0.0.1", nodes.back()->server.port()});
      config.map.shards.push_back(std::move(spec));
    }
    config.workers = router_workers;
    config.queue_capacity = static_cast<std::size_t>(requests) + 1;
    config.metrics_on_exit = false;
    GroomingService::clear_stop();
    router = std::make_unique<cluster::ClusterRouter>(config);
    std::string error;
    if (!router->start(log, error)) {
      std::cerr << "cluster bench: " << error << "\n";
      std::exit(1);
    }
    front = std::make_unique<EventLoopServer>(*router, EventLoopConfig{});
    if (!front->valid()) {
      std::cerr << "cluster bench: " << front->error() << "\n";
      std::exit(1);
    }
    thread = std::thread([this] { front->run(log); });
  }

  int port() const { return front->port(); }

  void shutdown() {
    shutdown_port(port());
    thread.join();
    for (auto& node : nodes) node->thread.join();
  }
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  const int requests = static_cast<int>(args.get_int("requests", 2000));
  const auto n = static_cast<NodeId>(args.get_int("n", 16));
  const int k = static_cast<int>(args.get_int("k", 8));
  const int graphs = static_cast<int>(args.get_int("graphs", 32));
  const int warmup = static_cast<int>(args.get_int("warmup", 1));
  const double min_time = args.get_double("min-time", 0.0);
  const int connections = static_cast<int>(args.get_int("connections", 4));
  const int pipeline =
      std::max(1, static_cast<int>(args.get_int("pipeline", 16)));
  const auto node_workers =
      static_cast<std::size_t>(args.get_int("workers", 2));
  const auto router_workers =
      static_cast<std::size_t>(args.get_int("router-workers", 4));
  const std::string json_path = args.get("json", "BENCH_cluster.json");

  const std::string stream = build_stream(requests, graphs, n, k);
  const std::vector<ClientSlice> slices =
      split_stream(stream, static_cast<std::size_t>(connections));
  const std::size_t cache = static_cast<std::size_t>(graphs) * 2;
  std::cout << "cluster bench: " << requests << " requests, " << graphs
            << " graphs, n=" << n << ", k=" << k << ", " << connections
            << " connections x pipeline " << pipeline << "\n\n";

  std::vector<Measurement> measurements;
  const auto record = [&](const std::string& mode, std::size_t shards,
                          int port, auto&& teardown) {
    for (int i = 0; i < std::max(1, warmup); ++i) {
      pass(port, slices, pipeline);  // prime every shard's cache
    }
    TimedRun warm =
        measure(min_time, [&] { return pass(port, slices, pipeline); });
    teardown();
    Measurement m;
    m.mode = mode;
    m.shards = shards;
    m.connections = static_cast<std::size_t>(connections);
    m.pipeline = pipeline;
    m.warm_seconds = warm.seconds;
    m.warm_rps = static_cast<double>(requests) * warm.passes / warm.seconds;
    measurements.push_back(m);
  };

  {
    ShardNode direct(node_workers, requests, cache);
    record("direct", 1, direct.server.port(), [&] {
      shutdown_port(direct.server.port());
      direct.thread.join();
    });
  }
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    RoutedCluster routed(shards, node_workers, router_workers, requests,
                         cache);
    record("routed", shards, routed.port(), [&] { routed.shutdown(); });
  }

  TextTable table("cluster throughput (warm caches)");
  table.set_header({"mode", "shards", "req/s", "vs direct"});
  const double base = measurements[0].warm_rps;
  for (const Measurement& m : measurements) {
    table.add_row({m.mode, TextTable::num(static_cast<long long>(m.shards)),
                   TextTable::num(m.warm_rps, 0),
                   TextTable::num(m.warm_rps / base, 2)});
  }
  table.print(std::cout);

  std::ofstream out(json_path);
  JsonWriter w;
  w.begin_object();
  w.kv("benchmark", "cluster_throughput");
  w.kv("cpus",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("workload").begin_object();
  w.kv("requests", static_cast<long long>(requests));
  w.kv("graphs", static_cast<long long>(graphs));
  w.kv("n", static_cast<long long>(n));
  w.kv("k", static_cast<long long>(k));
  w.end_object();
  w.key("runs").begin_array();
  for (const Measurement& m : measurements) {
    w.begin_object();
    w.kv("mode", m.mode);
    w.kv("shards", static_cast<std::uint64_t>(m.shards));
    w.kv("workers", static_cast<std::uint64_t>(node_workers));
    w.kv("connections", static_cast<std::uint64_t>(m.connections));
    w.kv("pipeline", static_cast<long long>(m.pipeline));
    w.kv("warm_seconds", m.warm_seconds);
    w.kv("warm_rps", m.warm_rps);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << w.take() << "\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
