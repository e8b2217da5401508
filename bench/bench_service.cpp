// SERVICE — end-to-end NDJSON daemon throughput: requests/sec through
// GroomingService::run() as worker count varies, on a mixed groom +
// provision request stream.  Measures the whole service path (parse,
// admission, dispatch, compute, serialize) rather than the bare
// algorithms, so it exposes protocol and locking overhead.  A second pass
// over the same stream isolates the LRU cache: every groom repeats, so the
// cached requests/sec gives the protocol-only ceiling.  Emits
// BENCH_service.json for CI artifact upload.  Plain main for the same
// reason as bench_throughput: wall clock over a fixed stream is the
// quantity of interest.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "gen/traffic_patterns.hpp"
#include "grooming/plan.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/event_loop.hpp"

namespace {

using namespace tgroom;

struct Measurement {
  std::size_t workers = 0;
  double cold_seconds = 0;
  double cold_rps = 0;
  double warm_seconds = 0;  // same stream again: grooms hit the cache
  double warm_rps = 0;
};

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
    if (i % 4 != 3) {  // 3:1 groom:provision mix
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

// Repeats a timed pass until the accumulated measured time reaches
// min_time (always at least one pass), so short streams still produce a
// stable rate on noisy machines.
struct TimedRun {
  double seconds = 0;
  int passes = 0;
};

template <typename F>
TimedRun measure(double min_time, F&& pass) {
  TimedRun r;
  do {
    r.seconds += pass();
    ++r.passes;
  } while (r.seconds < min_time);
  return r;
}

// ---- TCP mode: drive the epoll event loop over real loopback sockets.

struct TcpMeasurement {
  std::size_t connections = 0;
  int pipeline = 1;
  double cold_seconds = 0;
  double cold_rps = 0;
  double warm_seconds = 0;
  double warm_rps = 0;
};

// One client's share of the request stream: its lines joined into a
// single buffer plus the offset just past each line's newline, so a
// pipeline window refill is one send() over a contiguous range.
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
    std::cerr << "tcp bench: connect to 127.0.0.1:" << port << " failed\n";
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
      std::cerr << "tcp bench: send failed\n";
      std::exit(1);
    }
    off += static_cast<std::size_t>(n);
  }
}

// Sends the slice keeping at most `pipeline` requests outstanding and
// returns once every response line came back.  Window refills are a
// single send() (that is what pipelining buys: one syscall, and one
// server-side read, for many requests).
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
      std::cerr << "tcp bench: connection lost after " << got << " of "
                << total << " responses\n";
      std::exit(1);
    }
    for (ssize_t j = 0; j < n; ++j) got += buf[j] == '\n' ? 1u : 0u;
  }
  ::close(fd);
}

// One timed pass: all clients connect, pump their slices, disconnect.
double tcp_pass(int port, const std::vector<ClientSlice>& slices,
                int pipeline) {
  Stopwatch timer;
  std::vector<std::thread> clients;
  clients.reserve(slices.size());
  for (const ClientSlice& s : slices) {
    clients.emplace_back([port, &s, pipeline] {
      drive_client(port, s, pipeline);
    });
  }
  for (std::thread& t : clients) t.join();
  return timer.elapsed_seconds();
}

// An in-process server on an ephemeral port, torn down by a real
// `shutdown` request so the bench exercises the drain path it ships.
struct TcpServer {
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

  TcpServer(std::size_t workers, int requests, std::size_t cache_capacity)
      : service(make_config(workers, requests, cache_capacity)),
        server(service, EventLoopConfig{}) {
    if (!server.valid()) {
      std::cerr << "tcp bench: " << server.error() << "\n";
      std::exit(1);
    }
    thread = std::thread([this] { server.run(log); });
  }

  void shutdown() {
    const int fd = connect_loopback(server.port());
    static const char kShutdown[] = "{\"op\":\"shutdown\"}\n";
    send_all(fd, kShutdown, sizeof(kShutdown) - 1);
    char buf[4096];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    ::close(fd);
    thread.join();
  }
};

double run_once(const std::string& stream, std::size_t workers,
                std::size_t cache_capacity, int requests) {
  ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = static_cast<std::size_t>(requests) + 1;
  config.cache_capacity = cache_capacity;
  config.metrics_on_exit = false;
  GroomingService service(config);
  std::istringstream in(stream);
  std::ostringstream out;
  Stopwatch timer;
  service.run(in, out);
  double seconds = timer.elapsed_seconds();
  if (service.metrics().count(ServiceMetrics::Counter::kOk) != requests) {
    std::cerr << "BUG: only "
              << service.metrics().count(ServiceMetrics::Counter::kOk)
              << " of " << requests << " requests succeeded\n";
    std::exit(1);
  }
  return seconds;
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_service [--n N] [--k K] [--graphs G] [--requests R] "
    "[--connections C] [--pipeline P] [--workers W,...] [--warmup N] "
    "[--min-time S] [--json FILE]\n"
    "NDJSON daemon requests/s across worker counts; writes a JSON report.\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  const int requests = static_cast<int>(args.get_int("requests", 2000));
  const auto n = static_cast<NodeId>(args.get_int("n", 24));
  const int k = static_cast<int>(args.get_int("k", 8));
  const int graphs = static_cast<int>(args.get_int("graphs", 32));
  const int warmup = static_cast<int>(args.get_int("warmup", 1));
  const double min_time = args.get_double("min-time", 0.0);
  const std::string json_path = args.get("json", "BENCH_service.json");
  // TCP mode: sweep client connection counts against the epoll event loop
  // (0 = skip).  `--pipeline` is the per-connection window of outstanding
  // requests; `--workers` the server worker-pool size for the TCP rows.
  const int connections = static_cast<int>(args.get_int("connections", 0));
  const int pipeline =
      std::max(1, static_cast<int>(args.get_int("pipeline", 8)));
  const auto tcp_workers =
      static_cast<std::size_t>(args.get_int("workers", 8));

  const std::string stream = build_stream(requests, graphs, n, k);
  std::cout << "service bench: " << requests << " requests, " << graphs
            << " graphs, n=" << n << ", k=" << k << ", stream "
            << stream.size() / 1024 << " KiB\n\n";

  std::vector<Measurement> measurements;
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8}}) {
    Measurement m;
    m.workers = workers;
    // Cold: cache disabled, every groom pays full compute.  A fresh
    // service per pass keeps every pass genuinely cold.
    for (int i = 0; i < warmup; ++i) run_once(stream, workers, 0, requests);
    TimedRun cold = measure(min_time, [&] {
      return run_once(stream, workers, 0, requests);
    });
    m.cold_seconds = cold.seconds;
    m.cold_rps =
        static_cast<double>(requests) * cold.passes / cold.seconds;
    // Warm: one long-lived service, cache big enough that each distinct
    // groom computes once; priming passes also serve as warm-up.
    {
      ServiceConfig config;
      config.workers = workers;
      config.queue_capacity = static_cast<std::size_t>(requests) + 1;
      config.cache_capacity = static_cast<std::size_t>(graphs) * 2;
      config.metrics_on_exit = false;
      GroomingService service(config);
      for (int i = 0; i < std::max(1, warmup); ++i) {
        std::istringstream prime(stream);
        std::ostringstream sink;
        service.run(prime, sink);  // populate the cache
      }
      TimedRun warm = measure(min_time, [&] {
        std::istringstream in(stream);
        std::ostringstream out;
        Stopwatch timer;
        service.run(in, out);
        return timer.elapsed_seconds();
      });
      m.warm_seconds = warm.seconds;
      m.warm_rps =
          static_cast<double>(requests) * warm.passes / warm.seconds;
    }
    measurements.push_back(m);
  }

  TextTable table("service throughput (cold = cache off, warm = all hits)");
  table.set_header({"workers", "cold req/s", "warm req/s", "speedup"});
  const double base = measurements[0].cold_rps;
  for (const Measurement& m : measurements) {
    table.add_row({TextTable::num(static_cast<long long>(m.workers)),
                   TextTable::num(m.cold_rps, 0), TextTable::num(m.warm_rps, 0),
                   TextTable::num(m.cold_rps / base, 2)});
  }
  table.print(std::cout);

  std::vector<TcpMeasurement> tcp_measurements;
  if (connections > 0) {
    // Row (1,1) is the serial baseline: one RTT-bound client, the
    // behavior of the old single-connection accept loop.  Then double the
    // connection count at the requested pipeline depth.
    std::vector<std::pair<int, int>> rows;
    rows.emplace_back(1, 1);
    for (int c = 1; c <= connections; c *= 2) {
      if (c != 1 || pipeline != 1) rows.emplace_back(c, pipeline);
      if (c < connections && c * 2 > connections) {
        rows.emplace_back(connections, pipeline);
        break;
      }
    }
    for (const auto& [conns, depth] : rows) {
      const std::vector<ClientSlice> slices =
          split_stream(stream, static_cast<std::size_t>(conns));
      TcpMeasurement m;
      m.connections = static_cast<std::size_t>(conns);
      m.pipeline = depth;
      // Cold: fresh server (cache off) per pass.
      const auto cold_pass = [&] {
        TcpServer srv(tcp_workers, requests, 0);
        const double seconds = tcp_pass(srv.server.port(), slices, depth);
        srv.shutdown();
        return seconds;
      };
      for (int i = 0; i < warmup; ++i) cold_pass();
      TimedRun cold = measure(min_time, cold_pass);
      m.cold_seconds = cold.seconds;
      m.cold_rps =
          static_cast<double>(requests) * cold.passes / cold.seconds;
      // Warm: one long-lived server, cache primed by the warm-up passes.
      {
        TcpServer srv(tcp_workers, requests,
                      static_cast<std::size_t>(graphs) * 2);
        for (int i = 0; i < std::max(1, warmup); ++i) {
          tcp_pass(srv.server.port(), slices, depth);
        }
        TimedRun warm = measure(min_time, [&] {
          return tcp_pass(srv.server.port(), slices, depth);
        });
        m.warm_seconds = warm.seconds;
        m.warm_rps =
            static_cast<double>(requests) * warm.passes / warm.seconds;
        srv.shutdown();
      }
      tcp_measurements.push_back(m);
    }

    std::cout << "\n";
    TextTable tcp_table("event-loop TCP throughput (workers=" +
                        std::to_string(tcp_workers) + ")");
    tcp_table.set_header(
        {"conns", "pipeline", "cold req/s", "warm req/s", "speedup"});
    const double tcp_base = tcp_measurements[0].warm_rps;
    for (const TcpMeasurement& m : tcp_measurements) {
      tcp_table.add_row(
          {TextTable::num(static_cast<long long>(m.connections)),
           TextTable::num(static_cast<long long>(m.pipeline)),
           TextTable::num(m.cold_rps, 0), TextTable::num(m.warm_rps, 0),
           TextTable::num(m.warm_rps / tcp_base, 2)});
    }
    tcp_table.print(std::cout);
  }

  std::ofstream out(json_path);
  JsonWriter w;
  w.begin_object();
  w.kv("benchmark", "service_throughput");
  // Worker counts above this are oversubscription, not parallelism —
  // read the scaling columns against it.
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
    w.kv("workers", static_cast<std::uint64_t>(m.workers));
    w.kv("cold_seconds", m.cold_seconds);
    w.kv("cold_rps", m.cold_rps);
    w.kv("warm_seconds", m.warm_seconds);
    w.kv("warm_rps", m.warm_rps);
    w.end_object();
  }
  for (const TcpMeasurement& m : tcp_measurements) {
    w.begin_object();
    w.kv("mode", "tcp");
    w.kv("workers", static_cast<std::uint64_t>(tcp_workers));
    w.kv("connections", static_cast<std::uint64_t>(m.connections));
    w.kv("pipeline", static_cast<long long>(m.pipeline));
    w.kv("cold_seconds", m.cold_seconds);
    w.kv("cold_rps", m.cold_rps);
    w.kv("warm_seconds", m.warm_seconds);
    w.kv("warm_rps", m.warm_rps);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << w.str() << "\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
