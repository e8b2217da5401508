// Replication — can a replica keep pace with a primary ingesting at
// fsync=batch?  One in-process primary (event-loop front-end serving the
// repl_* stream ops) takes a provision workload on its service thread
// while a real ReplicationClient tails it into a second service's store
// over loopback TCP.  Reported: primary ingest rate, replica apply rate,
// the lag (records and fetch batches) at the moment ingest stops, and
// the drain time to full catch-up.  The acceptance bar from ISSUE 8 is
// steady-state lag <= 1 fetch batch.  Emits BENCH_replication.json for
// CI artifact upload and bench_compare.  Plain main (no
// google-benchmark): one wall-clocked run over a fixed record count with
// live threads is the honest shape here.
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "gen/traffic_patterns.hpp"
#include "replication/replica.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace tgroom;

namespace fs = std::filesystem;

struct Measurement {
  std::string mode = "stream";
  long long records = 0;          // mutations ingested by the primary
  long long batch = 0;            // repl_fetch max_records
  double ingest_seconds = 0;
  double primary_appends_per_sec = 0;
  double replica_applies_per_sec = 0;
  long long lag_at_ingest_end = 0;  // records behind when ingest stopped
  double lag_batches = 0;           // same, in fetch batches
  double drain_seconds = 0;         // ingest end -> fully caught up
};

/// Clean event-loop stop: a `shutdown` request from any connection
/// drains the loop (the bench's only other client, the replication
/// stream, is already stopped by then).
void send_shutdown(int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (getaddrinfo("127.0.0.1", service.c_str(), &hints, &res) != 0) return;
  const int fd = ::socket(res->ai_family, res->ai_socktype, 0);
  if (fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) == 0) {
    const char line[] = "{\"op\":\"shutdown\"}\n";
    (void)::send(fd, line, sizeof(line) - 1, MSG_NOSIGNAL);
    char sink[256];
    while (::recv(fd, sink, sizeof(sink), 0) > 0) {
    }
  }
  if (fd >= 0) ::close(fd);
  freeaddrinfo(res);
}

ServiceRequest parse_line(const std::string& line) {
  RequestParse parsed = parse_request(line);
  if (!parsed.request.has_value()) {
    std::cerr << "bad bench request: " << parsed.error << "\n" << line
              << "\n";
    std::exit(1);
  }
  return std::move(*parsed.request);
}

std::string hold_line(int which) {
  Rng rng(static_cast<std::uint64_t>(77 + which));
  const Graph g = random_traffic(12, 0.6, rng).traffic_graph();
  JsonWriter w;
  w.begin_object();
  w.kv("op", "groom");
  w.key("graph");
  write_graph_json(w, g);
  w.kv("k", 4);
  w.kv("seed", std::uint64_t{1});
  w.kv("hold", true);
  w.end_object();
  return w.take();
}

Measurement run_stream(const fs::path& base, long long records,
                       long long batch) {
  const fs::path primary_dir = base / "primary";
  const fs::path replica_dir = base / "replica";
  for (const fs::path& dir : {primary_dir, replica_dir}) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }

  GroomingService::clear_stop();
  ServiceConfig primary_config;
  primary_config.workers = 0;
  primary_config.data_dir = primary_dir.string();
  primary_config.fsync = FsyncPolicy::kBatch;
  primary_config.metrics_on_exit = false;
  GroomingService primary(primary_config);
  primary.open_store();
  EventLoopServer server(primary, EventLoopConfig{});
  if (!server.valid()) {
    std::cerr << "bench server failed: " << server.error() << "\n";
    std::exit(1);
  }
  std::ostringstream log;
  std::thread server_thread([&server, &log] { server.run(log); });
  const std::string primary_addr =
      "127.0.0.1:" + std::to_string(server.port());

  ServiceConfig replica_config;
  replica_config.data_dir = replica_dir.string();
  replica_config.fsync = FsyncPolicy::kBatch;
  replica_config.replica_of = primary_addr;
  replica_config.metrics_on_exit = false;
  GroomingService replica(replica_config);
  replica.open_store();
  ReplicationClientConfig link_config;
  link_config.primary = primary_addr;
  link_config.batch_records = static_cast<std::size_t>(batch);
  link_config.poll_interval_ms = 1;
  ReplicationClient client(replica, link_config);
  replica.set_replica_link(&client);
  client.start();

  // Held plans for the provision stream to extend (4 slots, round-robin
  // like the service/crash-harness workloads).
  constexpr int kPlans = 4;
  GroomingWorkspace* no_workspace = nullptr;
  for (int p = 0; p < kPlans; ++p) {
    ServiceRequest hold = parse_line(hold_line(p));
    primary.execute(hold, no_workspace);
  }

  // Pre-parse the provision stream so the clocked loop measures the
  // service ingest path (table mutation + WAL append + batch fsync),
  // not JSON parsing.
  std::vector<ServiceRequest> stream;
  stream.reserve(static_cast<std::size_t>(records));
  for (long long i = 0; i < records; ++i) {
    const int a = static_cast<int>(i % 11);
    int b = static_cast<int>((i * 5 + 3) % 11) + 1;
    if (b == a) ++b;
    stream.push_back(parse_line(
        "{\"op\":\"provision\",\"plan_id\":" +
        std::to_string(1 + i % kPlans) + ",\"add\":[[" + std::to_string(a) +
        "," + std::to_string(b) + "]]}"));
  }

  Measurement m;
  m.records = records;
  m.batch = batch;
  Stopwatch timer;
  for (ServiceRequest& request : stream) {
    primary.execute(request, no_workspace);
  }
  m.ingest_seconds = timer.elapsed_seconds();
  const std::uint64_t target = primary.applied_seq();
  m.lag_at_ingest_end =
      static_cast<long long>(target - client.applied_seq());
  m.lag_batches = batch > 0
                      ? static_cast<double>(m.lag_at_ingest_end) /
                            static_cast<double>(batch)
                      : 0.0;
  while (client.applied_seq() < target) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double caught_up_seconds = timer.elapsed_seconds();
  m.drain_seconds = caught_up_seconds - m.ingest_seconds;
  m.primary_appends_per_sec =
      static_cast<double>(records) / m.ingest_seconds;
  m.replica_applies_per_sec =
      static_cast<double>(target) / caught_up_seconds;

  client.stop_and_drain();
  send_shutdown(server.port());
  server_thread.join();
  replica.finalize_store();

  fs::remove_all(primary_dir);
  fs::remove_all(replica_dir);
  return m;
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_replication [--records N] [--batch B] [--dir D]\n"
    "                         [--json FILE]\n"
    "Replica apply rate against a primary at fsync=batch; writes a JSON\n"
    "report.\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  const long long records = args.get_int("records", 5000);
  const long long batch = args.get_int("batch", 512);
  const std::string json_path = args.get("json", "BENCH_replication.json");
  const fs::path base =
      args.get("dir", (fs::temp_directory_path() / "tgroom_bench_repl")
                          .string());

  std::cout << "replication bench: " << records
            << " provisions through a live primary/replica pair (fetch "
               "batch "
            << batch << "), dir " << base << "\n\n";

  const Measurement m = run_stream(base, records, batch);
  std::error_code ec;
  fs::remove_all(base, ec);

  TextTable table("WAL-shipping replication (primary fsync=batch)");
  table.set_header({"mode", "records", "primary rec/s", "replica rec/s",
                    "lag@end", "lag batches", "drain ms"});
  table.add_row({m.mode, TextTable::num(m.records),
                 TextTable::num(m.primary_appends_per_sec, 0),
                 TextTable::num(m.replica_applies_per_sec, 0),
                 TextTable::num(m.lag_at_ingest_end),
                 TextTable::num(m.lag_batches, 2),
                 TextTable::num(m.drain_seconds * 1000.0, 1)});
  table.print(std::cout);
  std::cout << (m.lag_batches <= 1.0
                    ? "\nsteady-state lag within one fetch batch\n"
                    : "\nWARNING: lag exceeded one fetch batch\n");

  std::ofstream out(json_path);
  JsonWriter w;
  w.begin_object();
  w.kv("benchmark", "replication_stream");
  w.key("workload").begin_object();
  w.kv("records", records);
  w.kv("batch", batch);
  w.kv("plans", 4);
  w.end_object();
  w.key("runs").begin_array();
  w.begin_object();
  w.kv("mode", m.mode);
  w.kv("records", m.records);
  w.kv("batch", m.batch);
  w.kv("ingest_seconds", m.ingest_seconds);
  w.kv("primary_appends_per_sec", m.primary_appends_per_sec);
  w.kv("replica_applies_per_sec", m.replica_applies_per_sec);
  w.kv("lag_at_ingest_end", m.lag_at_ingest_end);
  w.kv("lag_batches", m.lag_batches);
  w.kv("drain_seconds", m.drain_seconds);
  w.end_object();
  w.end_array();
  w.end_object();
  out << w.str() << "\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
