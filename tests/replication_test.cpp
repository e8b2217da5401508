// Tests of WAL-shipping replication (src/replication/): parity between a
// primary and a live replica over real loopback sockets, mid-log
// catch-up, snapshot bootstrap after compaction, handshake version
// gating, read-only enforcement, promotion, and the health probe.
//
// Suite naming matters for CI: everything here is in Replication* suites
// so the TSan job includes the concurrent stream-apply path by regex.
#include <gtest/gtest.h>

#include "replication/replica.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/traffic_patterns.hpp"
#include "graph/fingerprint.hpp"
#include "grooming/plan.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "store/durable_store.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace tgroom {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- fixtures

struct TempDir {
  fs::path path;

  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("tgroom_repl_test_" +
            std::to_string(static_cast<long long>(::getpid())) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

int connect_port(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

void send_str(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads until `lines` newlines arrived (EOF fails the test).
std::string recv_lines(int fd, std::size_t lines) {
  std::string data;
  std::size_t seen = 0;
  char buf[64 * 1024];
  while (seen < lines) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    EXPECT_GT(n, 0) << "connection ended after " << seen << " of " << lines
                    << " lines";
    if (n <= 0) return data;
    for (ssize_t i = 0; i < n; ++i) seen += buf[i] == '\n' ? 1u : 0u;
    data.append(buf, static_cast<std::size_t>(n));
  }
  return data;
}

std::string recv_until_eof(int fd) {
  std::string data;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return data;
    data.append(buf, static_cast<std::size_t>(n));
  }
}

/// An event-loop primary on an ephemeral port, on its own thread.
struct PrimaryServer {
  GroomingService service;
  EventLoopServer server;
  std::ostringstream log;
  std::thread thread;
  int rc = -1;

  explicit PrimaryServer(const ServiceConfig& config)
      : service(config), server(service, EventLoopConfig{}) {
    GroomingService::clear_stop();
    EXPECT_TRUE(server.valid()) << server.error();
    service.open_store();
    thread = std::thread([this] { rc = server.run(log); });
  }

  ~PrimaryServer() {
    if (thread.joinable()) stop();
  }

  int port() const { return server.port(); }

  int stop() {
    if (thread.joinable()) {
      const int fd = connect_port(port());
      send_str(fd, "{\"op\":\"shutdown\"}\n");
      recv_until_eof(fd);
      ::close(fd);
      thread.join();
    }
    return rc;
  }
};

// ---------------------------------------------------------------- workload

Graph seeded_graph(int which, NodeId n = 12) {
  Rng rng(static_cast<std::uint64_t>(100 + which));
  return random_traffic(n, 0.6, rng).traffic_graph();
}

std::string groom_hold_request(long long id, const Graph& g, int k) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "groom");
  w.kv("id", id);
  w.key("graph");
  write_graph_json(w, g);
  w.kv("k", static_cast<long long>(k));
  w.kv("seed", std::uint64_t{1});
  w.kv("hold", true);
  w.end_object();
  return w.take() + "\n";
}

/// Sends each line and waits for its response before the next, so the
/// workload is valid under any worker count.
void drive(int fd, const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    send_str(fd, line);
    recv_lines(fd, 1);
  }
}

/// A deterministic mutation mix over `plan_count` held plans (provision
/// pairs, partial releases, one drop-all) — every op references a plan
/// the holds above it created.
std::vector<std::string> mutation_mix(int plan_count, int rounds,
                                      int id_base) {
  std::vector<std::string> lines;
  int id = id_base;
  for (int r = 0; r < rounds; ++r) {
    for (int p = 1; p <= plan_count; ++p) {
      const int a = (r + p) % 11;
      const int b = (r + 2 * p + 1) % 11 + 1;
      lines.push_back("{\"op\":\"provision\",\"id\":" + std::to_string(id++) +
                      ",\"plan_id\":" + std::to_string(p) + ",\"add\":[[" +
                      std::to_string(a) + "," + std::to_string(b == a ? b + 1
                                                                      : b) +
                      "]]}\n");
    }
    lines.push_back("{\"op\":\"release\",\"id\":" + std::to_string(id++) +
                    ",\"plan_id\":" + std::to_string(1 + r % plan_count) +
                    ",\"remove\":[[" + std::to_string(r % 11) + "," +
                    std::to_string(r % 11 + 1) + "]],\"repair\":true}\n");
  }
  return lines;
}

/// Canonical text of a store directory's recovered state: last seq,
/// next_plan_id, and every held plan serialized — the bit-identity
/// oracle for primary/replica parity.
std::string dump_store(const std::string& dir) {
  StoreRecovery recovery;
  RecoveredState state =
      recover_store_state(dir, &recovery, /*repair=*/false);
  std::vector<std::pair<std::int64_t, GroomingPlan>> plans(
      std::make_move_iterator(state.plans.begin()),
      std::make_move_iterator(state.plans.end()));
  std::sort(plans.begin(), plans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream out;
  out << "last_seq=" << recovery.last_seq
      << " next_plan_id=" << state.next_plan_id << "\n";
  for (const auto& [id, plan] : plans) {
    out << "plan " << id << "\n" << serialize_plan(plan);
  }
  return out.str();
}

/// Polls until the replica has applied the primary's last_seq (or the
/// deadline fails the test).
void wait_caught_up(ReplicationClient& client, std::uint64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.applied_seq() < target) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "replica stuck at " << client.applied_seq() << " of " << target
        << " (last_error: " << client.last_error() << ")";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

ServiceRequest parse_or_die(const std::string& line) {
  RequestParse parsed = parse_request(line);
  EXPECT_TRUE(parsed.request.has_value()) << parsed.error << " <- " << line;
  return std::move(*parsed.request);
}

// ---------------------------------------------------------------- parity

TEST(Replication, ParityFromSeqZeroOverLiveStream) {
  TempDir primary_dir;
  TempDir replica_dir;
  ServiceConfig primary_config;
  primary_config.workers = 2;
  primary_config.data_dir = primary_dir.str();
  primary_config.metrics_on_exit = false;
  PrimaryServer primary(primary_config);

  ServiceConfig replica_config;
  replica_config.data_dir = replica_dir.str();
  replica_config.replica_of = "127.0.0.1:" + std::to_string(primary.port());
  replica_config.metrics_on_exit = false;
  GroomingService replica(replica_config);
  replica.open_store();
  EXPECT_TRUE(replica.is_replica());

  ReplicationClientConfig link_config;
  link_config.primary = replica_config.replica_of;
  link_config.batch_records = 16;  // many fetch round-trips, not one
  ReplicationClient client(replica, link_config);
  replica.set_replica_link(&client);
  client.start();

  const int fd = connect_port(primary.port());
  std::vector<std::string> lines;
  for (int i = 0; i < 4; ++i) {
    lines.push_back(groom_hold_request(i + 1, seeded_graph(i), 4));
  }
  for (std::string& line : mutation_mix(4, 6, 100)) {
    lines.push_back(std::move(line));
  }
  drive(fd, lines);

  // Health and stats on the replica race the live apply thread — the
  // TSan-visible surface of the lag counters.
  ServiceRequest health = parse_or_die("{\"op\":\"health\"}");
  std::string health_line = replica.execute(health, nullptr);
  EXPECT_NE(health_line.find("\"role\":\"replica\""), std::string::npos)
      << health_line;
  ServiceRequest stats = parse_or_die("{\"op\":\"stats\"}");
  std::string stats_line = replica.execute(stats, nullptr);
  EXPECT_NE(stats_line.find("\"replication\":{"), std::string::npos)
      << stats_line;
  EXPECT_NE(stats_line.find("\"primary\":\"127.0.0.1:"), std::string::npos)
      << stats_line;

  const std::uint64_t target = primary.service.applied_seq();
  ASSERT_GT(target, 0u);
  wait_caught_up(client, target);
  client.stop_and_drain();
  ::close(fd);
  primary.stop();  // flushes + snapshots the primary store

  replica.store()->flush();
  EXPECT_EQ(dump_store(replica_dir.str()), dump_store(primary_dir.str()));
}

TEST(Replication, MidLogCatchUpAfterClientRestart) {
  TempDir primary_dir;
  TempDir replica_dir;
  ServiceConfig primary_config;
  primary_config.workers = 0;
  primary_config.data_dir = primary_dir.str();
  primary_config.metrics_on_exit = false;
  PrimaryServer primary(primary_config);

  ServiceConfig replica_config;
  replica_config.data_dir = replica_dir.str();
  replica_config.replica_of = "127.0.0.1:" + std::to_string(primary.port());
  replica_config.metrics_on_exit = false;
  GroomingService replica(replica_config);
  replica.open_store();

  const int fd = connect_port(primary.port());
  std::vector<std::string> phase1;
  for (int i = 0; i < 3; ++i) {
    phase1.push_back(groom_hold_request(i + 1, seeded_graph(10 + i), 4));
  }
  drive(fd, phase1);

  // First client: stream the first phase, then stop (as a restart
  // would).
  {
    ReplicationClientConfig link_config;
    link_config.primary = replica_config.replica_of;
    ReplicationClient client(replica, link_config);
    client.start();
    wait_caught_up(client, primary.service.applied_seq());
    client.stop_and_drain();
  }
  const std::uint64_t mid = replica.applied_seq();
  ASSERT_GT(mid, 0u);

  // More primary history while no client is attached.
  drive(fd, mutation_mix(3, 4, 200));

  // Second client: handshakes at a mid-log start_seq and must resume
  // from exactly there (no snapshot, no re-apply).
  {
    ReplicationClientConfig link_config;
    link_config.primary = replica_config.replica_of;
    ReplicationClient client(replica, link_config);
    client.start();
    wait_caught_up(client, primary.service.applied_seq());
    EXPECT_GE(client.applied_seq(), mid);
    client.stop_and_drain();
  }
  ::close(fd);
  primary.stop();

  replica.store()->flush();
  EXPECT_EQ(dump_store(replica_dir.str()), dump_store(primary_dir.str()));
}

TEST(Replication, SnapshotBootstrapWhenPrimaryCompactedAwayTheLog) {
  TempDir primary_dir;
  TempDir replica_dir;
  // Pre-build a primary store whose early WAL history is already
  // compacted away: tiny segments so every hold rolls its own file, then
  // a snapshot that retires all but the live segment.  A fresh replica's
  // cursor (0) now predates first_available.
  {
    DurableStoreOptions options;
    options.dir = primary_dir.str();
    options.segment_bytes = 32;
    DurableStore store(options);
    GroomCacheKey key;
    key.fingerprint = 42;
    GroomCacheValue value;
    value.sadms = 3;
    SnapshotData snap;
    for (std::int64_t i = 1; i <= 4; ++i) {
      GroomingPlan plan;
      plan.ring_size = 12;
      plan.grooming_factor = 4;
      store.append_hold(i, plan, key, value);
      snap.plans.emplace_back(i, plan);
    }
    snap.last_seq = 4;
    snap.next_plan_id = 5;
    ASSERT_TRUE(store.write_snapshot(snap));
    store.flush();
  }
  {
    const std::vector<std::string> segs = list_wal_segments(primary_dir.str());
    ASSERT_EQ(segs.size(), 1u);
    ASSERT_GT(wal_segment_first_seq(segs.front()), 1u);
  }

  ServiceConfig primary_config;
  primary_config.workers = 0;
  primary_config.data_dir = primary_dir.str();
  primary_config.metrics_on_exit = false;
  PrimaryServer primary(primary_config);

  const int fd = connect_port(primary.port());
  drive(fd, mutation_mix(4, 3, 300));

  // A fresh replica's cursor (0) predates everything the compacted WAL
  // still holds, so the handshake must route it through repl_snapshot.
  ServiceConfig replica_config;
  replica_config.data_dir = replica_dir.str();
  replica_config.replica_of = "127.0.0.1:" + std::to_string(primary.port());
  replica_config.metrics_on_exit = false;
  GroomingService replica(replica_config);
  replica.open_store();
  ReplicationClientConfig link_config;
  link_config.primary = replica_config.replica_of;
  ReplicationClient client(replica, link_config);
  replica.set_replica_link(&client);
  client.start();
  wait_caught_up(client, primary.service.applied_seq());

  JsonWriter status;
  status.begin_object();
  client.write_status_json(status);
  status.end_object();
  EXPECT_NE(status.str().find("\"snapshot_bootstraps\":1"),
            std::string::npos)
      << status.str();

  client.stop_and_drain();
  ::close(fd);
  primary.stop();

  // The bootstrap resets the replica's store to the snapshot, so the
  // recovered tables (and the seq cursor) still match the primary.
  replica.store()->flush();
  StoreRecovery primary_rec;
  StoreRecovery replica_rec;
  RecoveredState primary_state =
      recover_store_state(primary_dir.str(), &primary_rec, false);
  RecoveredState replica_state =
      recover_store_state(replica_dir.str(), &replica_rec, false);
  EXPECT_EQ(primary_rec.last_seq, replica_rec.last_seq);
  EXPECT_EQ(primary_state.next_plan_id, replica_state.next_plan_id);
  ASSERT_EQ(primary_state.plans.size(), replica_state.plans.size());
  for (const auto& [id, plan] : primary_state.plans) {
    auto it = replica_state.plans.find(id);
    ASSERT_NE(it, replica_state.plans.end()) << "plan " << id;
    EXPECT_EQ(serialize_plan(plan), serialize_plan(it->second));
  }
}

TEST(Replication, DivergedHistoryForcesSnapshotBootstrapNotAForkedWal) {
  TempDir primary_dir;
  TempDir replica_dir;
  // Two stores that agree on record 1 but hold *different bytes* at
  // seq 2 — the post-failover shape: an old primary re-attaching as a
  // replica of the promoted node wrote its own record at a seq the new
  // primary also assigned.  Appending the stream past it would silently
  // fork the stores; the handshake CRC check must route this replica
  // through a snapshot bootstrap instead.
  GroomCacheKey key;
  key.fingerprint = 7;
  GroomCacheValue value;
  value.sadms = 1;
  GroomingPlan shared;
  shared.ring_size = 8;
  shared.grooming_factor = 4;
  {
    DurableStoreOptions options;
    options.dir = primary_dir.str();
    DurableStore store(options);
    store.append_hold(1, shared, key, value);
    GroomingPlan own = shared;
    own.ring_size = 10;
    store.append_hold(2, own, key, value);
    store.flush();
  }
  {
    DurableStoreOptions options;
    options.dir = replica_dir.str();
    DurableStore store(options);
    store.append_hold(1, shared, key, value);
    GroomingPlan diverged = shared;
    diverged.ring_size = 12;  // same seq, different bytes
    store.append_hold(2, diverged, key, value);
    store.flush();
  }

  ServiceConfig primary_config;
  primary_config.workers = 0;
  primary_config.data_dir = primary_dir.str();
  primary_config.metrics_on_exit = false;
  PrimaryServer primary(primary_config);
  const int fd = connect_port(primary.port());
  drive(fd, {groom_hold_request(1, seeded_graph(20), 4)});  // seq 3

  ServiceConfig replica_config;
  replica_config.data_dir = replica_dir.str();
  replica_config.replica_of = "127.0.0.1:" + std::to_string(primary.port());
  replica_config.metrics_on_exit = false;
  GroomingService replica(replica_config);
  replica.open_store();
  ASSERT_EQ(replica.applied_seq(), 2u);  // cursor sits on the diverged record

  ReplicationClientConfig link_config;
  link_config.primary = replica_config.replica_of;
  ReplicationClient client(replica, link_config);
  replica.set_replica_link(&client);
  client.start();
  wait_caught_up(client, primary.service.applied_seq());

  // The catch-up must have gone through repl_snapshot (CRC mismatch),
  // not a plain WAL resume that would have appended past the fork.
  JsonWriter status;
  status.begin_object();
  client.write_status_json(status);
  status.end_object();
  EXPECT_NE(status.str().find("\"snapshot_bootstraps\":1"),
            std::string::npos)
      << status.str();

  client.stop_and_drain();
  ::close(fd);
  primary.stop();

  replica.store()->flush();
  EXPECT_EQ(dump_store(replica_dir.str()), dump_store(primary_dir.str()));
}

// ---------------------------------------------------------------- gating

TEST(Replication, HandshakeRejectsForeignFormatVersions) {
  TempDir dir;
  ServiceConfig config;
  config.data_dir = dir.str();
  GroomingService service(config);
  service.open_store();

  ServiceRequest wrong_store = parse_or_die(
      "{\"op\":\"repl_handshake\",\"store_version\":9999,"
      "\"fingerprint_version\":1,\"start_seq\":0}");
  std::string line = service.execute(wrong_store, nullptr);
  EXPECT_NE(line.find("\"error\":\"store_incompatible\""), std::string::npos)
      << line;

  ServiceRequest wrong_fp = parse_or_die(
      "{\"op\":\"repl_handshake\",\"store_version\":" +
      std::to_string(kStoreFormatVersion) +
      ",\"fingerprint_version\":9999,\"start_seq\":0}");
  line = service.execute(wrong_fp, nullptr);
  EXPECT_NE(line.find("\"error\":\"store_incompatible\""), std::string::npos)
      << line;

  ServiceRequest good = parse_or_die(
      "{\"op\":\"repl_handshake\",\"store_version\":" +
      std::to_string(kStoreFormatVersion) + ",\"fingerprint_version\":" +
      std::to_string(static_cast<int>(kFingerprintFormatVersion)) +
      ",\"start_seq\":0}");
  line = service.execute(good, nullptr);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"mode\":"), std::string::npos) << line;
}

TEST(Replication, ReplicaRejectsMutationsButServesReads) {
  TempDir dir;
  ServiceConfig config;
  config.data_dir = dir.str();
  config.replica_of = "198.51.100.1:9";  // never dialed in this test
  GroomingService service(config);
  service.open_store();

  // A held groom is a mutation: rejected with the structured code and
  // the primary's address in the message.
  const Graph g = seeded_graph(0);
  ServiceRequest hold = parse_or_die(groom_hold_request(1, g, 4));
  std::string line = service.execute(hold, nullptr);
  EXPECT_NE(line.find("\"error\":\"read_only\""), std::string::npos) << line;
  EXPECT_NE(line.find("198.51.100.1:9"), std::string::npos) << line;
  EXPECT_EQ(service.held_plan_count(), 0u);
  EXPECT_EQ(
      service.metrics().count(ServiceMetrics::Counter::kReadOnlyRejected), 1);

  // A plain groom only reads: allowed.
  ServiceRequest plain = parse_or_die(groom_hold_request(2, g, 4));
  plain.hold = false;
  line = service.execute(plain, nullptr);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;

  // Held-plan provision/release are mutations; the stateless inline-plan
  // form of provision stays read-only-safe.
  ServiceRequest held_provision = parse_or_die(
      "{\"op\":\"provision\",\"plan_id\":1,\"add\":[[0,1]]}");
  line = service.execute(held_provision, nullptr);
  EXPECT_NE(line.find("\"error\":\"read_only\""), std::string::npos) << line;
  ServiceRequest held_release = parse_or_die(
      "{\"op\":\"release\",\"plan_id\":1,\"remove\":[[0,1]]}");
  line = service.execute(held_release, nullptr);
  EXPECT_NE(line.find("\"error\":\"read_only\""), std::string::npos) << line;
  ServiceRequest inline_provision = parse_or_die(
      "{\"op\":\"provision\",\"plan\":{\"ring_size\":4,\"k\":2,\"pairs\":[]},"
      "\"add\":[[0,1]]}");
  line = service.execute(inline_provision, nullptr);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
}

// ---------------------------------------------------------------- promote

/// A link that only records the drain call (promotion without sockets).
class FakeLink : public ReplicaLink {
 public:
  void stop_and_drain() override { drained = true; }
  void write_status_json(JsonWriter&) const override {}
  std::uint64_t applied_seq() const override { return 7; }
  std::uint64_t primary_last_seq() const override { return 9; }
  bool drained = false;
};

TEST(Replication, PromoteDrainsFlushesAndAcceptsMutations) {
  TempDir dir;
  ServiceConfig config;
  config.data_dir = dir.str();
  config.replica_of = "203.0.113.7:9";
  GroomingService service(config);
  service.open_store();
  FakeLink link;
  service.set_replica_link(&link);

  ServiceRequest promote = parse_or_die("{\"op\":\"promote\"}");
  std::string line = service.execute(promote, nullptr);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"role\":\"primary\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"was_replica_of\":\"203.0.113.7:9\""),
            std::string::npos)
      << line;
  EXPECT_TRUE(link.drained);
  EXPECT_FALSE(service.is_replica());

  // The flipped node takes mutations.
  ServiceRequest hold = parse_or_die(groom_hold_request(1, seeded_graph(1), 4));
  line = service.execute(hold, nullptr);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_EQ(service.held_plan_count(), 1u);

  // Promoting a primary is a structured error, and idempotent-safe.
  ServiceRequest again = parse_or_die("{\"op\":\"promote\"}");
  line = service.execute(again, nullptr);
  EXPECT_NE(line.find("\"error\":\"bad_request\""), std::string::npos)
      << line;
}

// ---------------------------------------------------------------- health

TEST(Replication, HealthReportsRoleSeqAndLag) {
  ServiceConfig config;
  GroomingService service(config);
  ServiceRequest health = parse_or_die("{\"op\":\"health\",\"id\":5}");
  std::string line = service.execute(health, nullptr);
  EXPECT_NE(line.find("\"id\":5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"role\":\"primary\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"last_seq\":0"), std::string::npos) << line;
  EXPECT_NE(line.find("\"uptime_s\":"), std::string::npos) << line;

  ServiceConfig replica_config;
  replica_config.replica_of = "192.0.2.3:4";
  GroomingService replica(replica_config);
  FakeLink link;
  replica.set_replica_link(&link);
  ServiceRequest probe = parse_or_die("{\"op\":\"health\"}");
  line = replica.execute(probe, nullptr);
  EXPECT_NE(line.find("\"role\":\"replica\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"primary\":\"192.0.2.3:4\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"applied_seq\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"primary_last_seq\":9"), std::string::npos) << line;
  EXPECT_NE(line.find("\"lag\":2"), std::string::npos) << line;
}

}  // namespace
}  // namespace tgroom
