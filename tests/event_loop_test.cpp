// Tests of the epoll event-loop front-end (service/event_loop.hpp): real
// loopback sockets against an in-process server.  Multi-client responses
// are pinned bit-for-bit against the serial GroomingService::run() path
// (the event loop is a transport, not a semantics change); the rest
// exercises the transport edges — pipelining, partial writes through a
// tiny SO_SNDBUF, abrupt disconnects, admission backpressure, and the
// cross-connection shutdown drain.  A golden transcript
// (tests/data/session_golden.*) pins the exact bytes of one session on
// both transports, and the drain order is checked: a `shutdown` ack
// follows the store's snapshot.
#include <gtest/gtest.h>

#include "service/event_loop.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "gen/traffic_patterns.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "store/snapshot.hpp"
#include "util/json.hpp"

namespace tgroom {
namespace {

// ---------------------------------------------------------------- sockets

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

/// Reads until `lines` newlines arrived (or EOF, which fails the test).
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

std::vector<std::string> split_lines(const std::string& data) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < data.size()) {
    const std::size_t nl = data.find('\n', begin);
    if (nl == std::string::npos) break;
    lines.push_back(data.substr(begin, nl - begin));
    begin = nl + 1;
  }
  return lines;
}

long long extract_id(const std::string& line) {
  const std::size_t key = line.find("\"id\":");
  EXPECT_NE(key, std::string::npos) << line;
  return std::stoll(line.substr(key + 5));
}

// ---------------------------------------------------------------- server

/// An event-loop server on an ephemeral port, run()ning on its own
/// thread.  Tests stop it with a real `shutdown` request (stop()), so
/// every test also exercises the drain path.
struct TestServer {
  GroomingService service;
  EventLoopServer server;
  std::ostringstream log;
  std::thread thread;
  int rc = -1;

  explicit TestServer(const ServiceConfig& config,
                      const EventLoopConfig& el = EventLoopConfig{})
      : service(config), server(service, el) {
    GroomingService::clear_stop();
    EXPECT_TRUE(server.valid()) << server.error();
    thread = std::thread([this] { rc = server.run(log); });
  }

  ~TestServer() {
    if (thread.joinable()) stop();
  }

  int port() const { return server.port(); }

  /// Sends `shutdown`, waits for the server to drain, returns run()'s rc.
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

ServiceConfig make_config(std::size_t workers, std::size_t cache_capacity,
                          std::size_t queue_capacity = 256) {
  ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = queue_capacity;
  config.cache_capacity = cache_capacity;
  config.metrics_on_exit = false;
  return config;
}

// ---------------------------------------------------------------- workload

std::string groom_request(long long id, const Graph& g, int k,
                          bool include_partition = false) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "groom");
  w.kv("id", id);
  w.key("graph");
  write_graph_json(w, g);
  w.kv("k", static_cast<long long>(k));
  w.kv("seed", std::uint64_t{1});
  if (include_partition) w.kv("include_partition", true);
  w.end_object();
  std::string line = w.take();
  line += '\n';
  return line;
}

Graph client_graph(int client, NodeId n = 16) {
  Rng rng(static_cast<std::uint64_t>(1000 + client));
  return random_traffic(n, 0.5, rng).traffic_graph();
}

/// Runs the same request lines through the serial stdin/stdout service
/// (the semantics reference) and indexes the responses by id.
std::map<long long, std::string> run_serial(const ServiceConfig& config,
                                            const std::string& stream) {
  GroomingService service(config);
  std::istringstream in(stream);
  std::ostringstream out;
  service.run(in, out);
  std::map<long long, std::string> by_id;
  for (const std::string& line : split_lines(out.str())) {
    by_id[extract_id(line)] = line;
  }
  return by_id;
}

// ---------------------------------------------------------------- tests

// Many concurrent clients, each with its own request set, must receive
// byte-identical responses to the serial single-stream service.  Cache
// off, so every response says "cached":false under both transports.
TEST(EventLoop, MultiClientParityWithSerial) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::vector<std::string> streams(kClients);
  std::string all;
  for (int c = 0; c < kClients; ++c) {
    const Graph g = client_graph(c);
    for (int i = 0; i < kPerClient; ++i) {
      const std::string line =
          groom_request(c * 100 + i, g, 4 + i % 3, /*include_partition=*/true);
      streams[static_cast<std::size_t>(c)] += line;
      all += line;
    }
  }
  const std::map<long long, std::string> expected =
      run_serial(make_config(2, 0), all);
  ASSERT_EQ(expected.size(),
            static_cast<std::size_t>(kClients * kPerClient));

  TestServer srv(make_config(2, 0));
  std::map<long long, std::string> got;
  std::mutex got_mutex;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_port(srv.port());
      send_str(fd, streams[static_cast<std::size_t>(c)]);
      ::shutdown(fd, SHUT_WR);  // EOF: server drains, answers, closes
      const std::string data = recv_until_eof(fd);
      ::close(fd);
      std::lock_guard<std::mutex> lock(got_mutex);
      for (const std::string& line : split_lines(data)) {
        got[extract_id(line)] = line;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(got, expected);
  EXPECT_GE(srv.service.metrics().count(
                ServiceMetrics::Counter::kConnAccepted),
            static_cast<long long>(kClients));
  EXPECT_EQ(srv.stop(), 0);
}

// With workers=0 every request executes inline on the loop thread, so a
// pipelined burst must come back in exact request order.
TEST(EventLoop, PipelinedBurstKeepsOrderInline) {
  constexpr int kRequests = 20;
  const Graph g = client_graph(7);
  std::string burst;
  for (int i = 0; i < kRequests; ++i) burst += groom_request(i, g, 4);

  TestServer srv(make_config(0, 0));
  const int fd = connect_port(srv.port());
  send_str(fd, burst);  // one send: the server sees one readiness event
  const std::vector<std::string> lines =
      split_lines(recv_lines(fd, kRequests));
  ::close(fd);

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(extract_id(lines[static_cast<std::size_t>(i)]), i)
        << "responses reordered at position " << i;
  }
  EXPECT_GT(srv.service.metrics().count(ServiceMetrics::Counter::kPipelined),
            0);
  EXPECT_EQ(srv.stop(), 0);
}

// A tiny SO_SNDBUF plus a deliberately slow reader forces the outbox
// through many partial writes and EPOLLOUT cycles; the reassembled
// responses must still be bit-identical to the serial reference.
TEST(EventLoop, PartialWriteTortureTinySndbuf) {
  constexpr int kRequests = 4;
  Rng rng(424242);
  const Graph g = random_traffic(200, 0.5, rng).traffic_graph();
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += groom_request(i, g, 8, /*include_partition=*/true);
  }
  const std::map<long long, std::string> expected =
      run_serial(make_config(0, 0), burst);

  EventLoopConfig el;
  el.sndbuf = 2048;  // the kernel clamps up, but stays far below one response
  TestServer srv(make_config(0, 0), el);
  const int fd = connect_port(srv.port());
  send_str(fd, burst);
  std::string data;
  std::size_t seen = 0;
  char buf[512];
  while (seen < kRequests) {  // small, throttled reads
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    for (ssize_t i = 0; i < n; ++i) seen += buf[i] == '\n' ? 1u : 0u;
    data.append(buf, static_cast<std::size_t>(n));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ::close(fd);

  std::map<long long, std::string> got;
  for (const std::string& line : split_lines(data)) {
    got[extract_id(line)] = line;
  }
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [id, line] : expected) {
    EXPECT_GT(line.size(), static_cast<std::size_t>(el.sndbuf) * 2)
        << "response too small to exercise partial writes";
    EXPECT_EQ(got[id], line);
  }
  EXPECT_EQ(srv.stop(), 0);
}

// Clients that vanish mid-request (half a line, or a full request with an
// immediate hard close) must not take the server down or wedge the loop.
TEST(EventLoop, MidRequestDisconnectLeavesServerServing) {
  TestServer srv(make_config(2, 0));

  // Half a request line, then a hard close.
  {
    const int fd = connect_port(srv.port());
    send_str(fd, "{\"op\":\"groom\",\"id\":1,\"graph\":{\"n\":8,");
    ::close(fd);
  }
  // A full request whose client disappears before the response.
  {
    const int fd = connect_port(srv.port());
    send_str(fd, groom_request(2, client_graph(3), 4));
    ::close(fd);
  }
  // The server must still answer a well-behaved client.
  const Graph g = client_graph(4);
  const std::map<long long, std::string> expected =
      run_serial(make_config(2, 0), groom_request(3, g, 4));
  const int fd = connect_port(srv.port());
  send_str(fd, groom_request(3, g, 4));
  const std::vector<std::string> lines = split_lines(recv_lines(fd, 1));
  ::close(fd);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], expected.at(3));
  EXPECT_EQ(srv.stop(), 0);
}

// A pipelined burst far beyond the admission queue gets structured
// `overloaded` rejections, never silence: one response per request, on a
// connection that stays usable afterwards.  The burst opens with a refine
// groom of a few hundred edges, which holds the one worker far longer
// than the loop takes to parse the other requests, so the queue is full
// when they arrive however the burst is split into reads.
TEST(EventLoop, OverloadedBurstAnswersEveryRequest) {
  constexpr int kRequests = 16;
  const Graph g = client_graph(9, /*n=*/24);
  std::string burst = groom_request(0, client_graph(10, /*n=*/36), 8);
  burst.insert(burst.find("\"k\":"), "\"refine\":true,");
  for (int i = 1; i < kRequests; ++i) burst += groom_request(i, g, 8);

  TestServer srv(make_config(1, 0, /*queue_capacity=*/1));
  const int fd = connect_port(srv.port());
  send_str(fd, burst);
  const std::vector<std::string> lines =
      split_lines(recv_lines(fd, kRequests));
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  int overloaded = 0;
  for (const std::string& line : lines) {
    if (line.find("\"overloaded\"") != std::string::npos) ++overloaded;
  }
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(srv.service.metrics().count(ServiceMetrics::Counter::kOverloaded),
            overloaded);

  // The connection survives the rejections.
  send_str(fd, groom_request(99, g, 8));
  const std::vector<std::string> more = split_lines(recv_lines(fd, 1));
  ::close(fd);
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(extract_id(more[0]), 99);
  EXPECT_EQ(srv.stop(), 0);
}

// `shutdown` from one connection drains the whole server: other clients'
// accepted work still completes, every outbox flushes, run() returns 0,
// and every accepted connection is accounted closed.
TEST(EventLoop, ShutdownDrainsAcrossConnections) {
  TestServer srv(make_config(2, 0));
  const Graph g = client_graph(11);

  const int other = connect_port(srv.port());
  send_str(other, groom_request(1, g, 4));
  EXPECT_EQ(extract_id(split_lines(recv_lines(other, 1)).at(0)), 1);

  const int closer = connect_port(srv.port());
  send_str(closer, "{\"op\":\"shutdown\",\"id\":50}\n");
  const std::string reply = recv_until_eof(closer);
  ::close(closer);
  EXPECT_NE(reply.find("\"op\":\"shutdown\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"id\":50"), std::string::npos) << reply;

  // The drained server closes the other connection too (EOF, not reset).
  EXPECT_EQ(recv_until_eof(other), "");
  ::close(other);

  srv.thread.join();
  EXPECT_EQ(srv.rc, 0);
  const long long accepted =
      srv.service.metrics().count(ServiceMetrics::Counter::kConnAccepted);
  const long long closed =
      srv.service.metrics().count(ServiceMetrics::Counter::kConnClosed);
  EXPECT_GE(accepted, 2);
  EXPECT_EQ(accepted, closed);
}

// ---------------------------------------------------------------- golden

std::string read_data_file(const std::string& name) {
  std::ifstream in(std::string(TGROOM_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// A fixed session — a groom per algorithm with its partition, a held
// plan's hold/provision/release, an unknown plan, malformed JSON, an
// unknown op, a request without an id, and a final shutdown — and the
// exact bytes it must produce.  Both transports replay it; neither may
// change a byte.
TEST(EventLoop, GoldenTranscriptStdin) {
  const std::string requests = read_data_file("session_golden.ndjson");
  GroomingService service(make_config(0, 0));
  std::istringstream in(requests);
  std::ostringstream out;
  EXPECT_EQ(service.run(in, out), 0);
  EXPECT_EQ(out.str(), read_data_file("session_golden.expected.ndjson"));
}

TEST(EventLoop, GoldenTranscriptTcp) {
  const std::string requests = read_data_file("session_golden.ndjson");
  TestServer srv(make_config(0, 0));
  const int fd = connect_port(srv.port());
  send_str(fd, requests);
  const std::string got = recv_until_eof(fd);  // closed after the ack
  ::close(fd);
  srv.thread.join();
  EXPECT_EQ(srv.rc, 0);
  EXPECT_EQ(got, read_data_file("session_golden.expected.ndjson"));
}

// The shutdown ack means the store is flushed and snapshotted: with
// periodic snapshots off, the drain's finalize() writes the only
// snapshot, and it is on disk by the time the client reads the ack —
// before the server thread has even returned.  finalize() runs once.
TEST(EventLoop, ShutdownAckFollowsStoreFinalize) {
  struct CountingService : GroomingService {
    using GroomingService::GroomingService;
    std::atomic<int> finalized{0};
    void finalize() override {
      ++finalized;
      GroomingService::finalize();
    }
  };
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tgroom_event_loop_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ServiceConfig config = make_config(0, 0);  // the hold runs before shutdown
  config.data_dir = dir.string();
  config.snapshot_every = 0;
  CountingService service(config);
  service.open_store();
  GroomingService::clear_stop();
  EventLoopServer server(service, EventLoopConfig{});
  ASSERT_TRUE(server.valid()) << server.error();
  std::ostringstream log;
  int rc = -1;
  std::thread thread([&] { rc = server.run(log); });

  const int fd = connect_port(server.port());
  send_str(fd,
           "{\"op\":\"groom\",\"id\":1,\"graph\":{\"n\":6,\"edges\":[[0,1],"
           "[1,2],[2,3],[3,4],[4,5],[0,5],[0,3]]},\"k\":4,\"hold\":true}\n"
           "{\"op\":\"shutdown\",\"id\":2}\n");
  const std::vector<std::string> lines = split_lines(recv_lines(fd, 2));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"plan_id\":1"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"op\":\"shutdown\""), std::string::npos)
      << lines[1];
  EXPECT_FALSE(list_snapshot_files(dir.string()).empty())
      << "shutdown acked before the store was snapshotted";
  recv_until_eof(fd);
  ::close(fd);
  thread.join();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(service.finalized.load(), 1);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace tgroom
