// Tests of the sharded cluster front-end (src/cluster/): the routing
// function is pinned against golden shard assignments so the key→shard
// mapping can never silently move held plans between stores, the id
// splice helpers are exercised over the tricky JSON shapes, and a real
// in-process cluster — router + two single-member shard groups, all on
// loopback sockets — serves a 500-request mixed workload whose responses
// must be byte-identical to replaying each shard's subsequence against a
// plain unsharded node (the router is a transport; it may not change a
// single payload byte).
#include <gtest/gtest.h>

#include "cluster/cluster_map.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "grooming/demand.hpp"

namespace tgroom::cluster {
namespace {

// ---------------------------------------------------------------- map

TEST(ClusterMap, ParsesGroupsAndReplicas) {
  ClusterMap map;
  std::string error;
  ASSERT_TRUE(parse_cluster_map(
      "127.0.0.1:7001,127.0.0.1:7002;10.0.0.5:7010", map, error))
      << error;
  ASSERT_EQ(map.size(), 2u);
  ASSERT_EQ(map.shards[0].members.size(), 2u);
  EXPECT_EQ(map.shards[0].members[0].host, "127.0.0.1");
  EXPECT_EQ(map.shards[0].members[0].port, 7001);
  EXPECT_EQ(map.shards[0].members[1].port, 7002);
  ASSERT_EQ(map.shards[1].members.size(), 1u);
  EXPECT_EQ(map.shards[1].members[0].host, "10.0.0.5");
  EXPECT_EQ(map.shards[1].members[0].port, 7010);
}

TEST(ClusterMap, RejectsMalformedSpecs) {
  ClusterMap map;
  std::string error;
  EXPECT_FALSE(parse_cluster_map("", map, error));
  EXPECT_FALSE(parse_cluster_map("127.0.0.1", map, error));
  EXPECT_FALSE(parse_cluster_map("127.0.0.1:x", map, error));
  EXPECT_FALSE(parse_cluster_map("127.0.0.1:0", map, error));
  EXPECT_FALSE(parse_cluster_map("127.0.0.1:70000", map, error));
  EXPECT_FALSE(parse_cluster_map("127.0.0.1:7001;;127.0.0.1:7002", map,
                                 error));
  EXPECT_FALSE(parse_cluster_map("127.0.0.1:7001,,127.0.0.1:7002", map,
                                 error));
  // The same address twice — whether inside one group or across two —
  // would route distinct key ranges into one store.
  EXPECT_FALSE(
      parse_cluster_map("127.0.0.1:7001,127.0.0.1:7001", map, error));
  EXPECT_FALSE(
      parse_cluster_map("127.0.0.1:7001;127.0.0.1:7001", map, error));
}

// ---------------------------------------------------------------- routing

// The key→shard mapping is part of the cluster's persistent contract: a
// held plan lives on the shard its key routed to, so these assignments
// may never change across builds.  Golden values pinned for shard counts
// 1, 2, and 8.
TEST(Routing, PinnedShardAssignments) {
  const std::uint64_t keys[] = {0,    1,    2,         7,
                                42,   77,   1000,      123456789ULL,
                                0xffffffffffffffffULL};
  for (const std::uint64_t key : keys) {
    EXPECT_EQ(shard_for_key(key, 1), 0u) << key;
  }
  const std::size_t expect2[] = {1, 1, 1, 0, 1, 0, 0, 0, 1};
  const std::size_t expect8[] = {7, 4, 4, 3, 5, 3, 1, 1, 7};
  for (std::size_t i = 0; i < std::size(keys); ++i) {
    EXPECT_EQ(shard_for_key(keys[i], 2), expect2[i]) << keys[i];
    EXPECT_EQ(shard_for_key(keys[i], 8), expect8[i]) << keys[i];
  }
}

TEST(Routing, SpreadsSequentialKeysAcrossAllShards) {
  // Sequential small-integer keys (typical client route_keys) must not
  // clump: every shard of 8 sees roughly 1/8 of 10k keys.
  int counts[8] = {0};
  for (std::uint64_t key = 0; key < 10000; ++key) {
    ++counts[shard_for_key(key, 8)];
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_GT(counts[i], 1000) << "shard " << i;
    EXPECT_LT(counts[i], 1500) << "shard " << i;
  }
}

TEST(Routing, PairsRouteKeyIsOrderSensitiveButStable) {
  const std::vector<DemandPair> a = {{1, 2}, {3, 4}};
  const std::vector<DemandPair> b = {{3, 4}, {1, 2}};
  EXPECT_EQ(pairs_route_key(a), pairs_route_key(a));
  EXPECT_NE(pairs_route_key(a), pairs_route_key(b));
  EXPECT_NE(pairs_route_key(a), pairs_route_key({}));
}

// ---------------------------------------------------------------- splice

TEST(IdSplice, StripsLeadingMiddleAndTrailingId) {
  EXPECT_EQ(strip_top_level_id(R"({"id":7,"op":"stats"})"),
            R"({"op":"stats"})");
  EXPECT_EQ(strip_top_level_id(R"({"op":"stats","id":7,"k":4})"),
            R"({"op":"stats","k":4})");
  EXPECT_EQ(strip_top_level_id(R"({"op":"stats","id":7})"),
            R"({"op":"stats"})");
  EXPECT_EQ(strip_top_level_id(R"({"id":7})"), R"({})");
  EXPECT_EQ(strip_top_level_id(R"({"id":-42,"op":"x"})"), R"({"op":"x"})");
}

TEST(IdSplice, LeavesNestedAndAbsentIdsAlone) {
  EXPECT_EQ(strip_top_level_id(R"({"op":"stats"})"), R"({"op":"stats"})");
  // "id" inside a nested object is a different member entirely.
  EXPECT_EQ(strip_top_level_id(R"({"plan":{"id":9},"op":"x"})"),
            R"({"plan":{"id":9},"op":"x"})");
  // "id" inside an array of objects likewise.
  EXPECT_EQ(strip_top_level_id(R"({"a":[{"id":1}],"op":"x"})"),
            R"({"a":[{"id":1}],"op":"x"})");
  // ...and inside a string value, even an escaped one.
  EXPECT_EQ(strip_top_level_id(R"({"m":"has \"id\":1 inside","op":"x"})"),
            R"({"m":"has \"id\":1 inside","op":"x"})");
}

TEST(IdSplice, ComposeInjectsInternalId) {
  EXPECT_EQ(compose_with_id(R"({"op":"stats"})", 12),
            R"({"id":12,"op":"stats"})");
  EXPECT_EQ(compose_with_id(R"({})", 3), R"({"id":3})");
}

TEST(IdSplice, RestoreReplacesThePrefixOnly) {
  std::string out;
  ASSERT_TRUE(restore_response_id(R"({"id":981,"ok":true,"op":"groom"})",
                                  true, 7, out));
  EXPECT_EQ(out, R"({"id":7,"ok":true,"op":"groom"})");
  ASSERT_TRUE(restore_response_id(R"({"id":981,"ok":true})", false, 0, out));
  EXPECT_EQ(out, R"({"id":null,"ok":true})");
  ASSERT_TRUE(restore_response_id(R"({"id":null,"ok":true})", true, -5, out));
  EXPECT_EQ(out, R"({"id":-5,"ok":true})");
  EXPECT_FALSE(restore_response_id(R"({"ok":true})", true, 1, out));
}

TEST(IdSplice, RoundTripPreservesEveryOtherByte) {
  const std::string line =
      R"({"op":"groom","id":33,"graph":{"n":3,"edges":[[0,1],[1,2]]},"k":4})";
  const std::string stripped = strip_top_level_id(line);
  EXPECT_EQ(stripped.find("\"id\""), std::string::npos);
  const std::string forwarded = compose_with_id(stripped, 555);
  EXPECT_EQ(forwarded.substr(0, 9), "{\"id\":555");
  // Everything but the id member survives both directions.
  EXPECT_NE(forwarded.find(R"("graph":{"n":3,"edges":[[0,1],[1,2]]})"),
            std::string::npos);
}

}  // namespace
}  // namespace tgroom::cluster

// ------------------------------------------------------------------------
// In-process cluster parity: router + 2 shard nodes on loopback sockets.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <sstream>
#include <thread>

#include "cluster/router.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/json.hpp"

namespace tgroom::cluster {
namespace {

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

/// Reads exactly one '\n'-terminated line (lockstep client).
std::string recv_line(int fd) {
  std::string line;
  char c;
  while (true) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    EXPECT_GT(n, 0) << "EOF mid-line after: " << line;
    if (n <= 0) return line;
    if (c == '\n') return line;
    line.push_back(c);
  }
}

/// A grooming node on an ephemeral port, serving on its own thread.
struct ShardNode {
  GroomingService service;
  EventLoopServer server;
  std::ostringstream log;
  std::thread thread;

  explicit ShardNode(const ServiceConfig& config)
      : service(config), server(service, EventLoopConfig{}) {
    EXPECT_TRUE(server.valid()) << server.error();
    thread = std::thread([this] { server.run(log); });
  }
  ~ShardNode() { stop(); }

  int port() const { return server.port(); }
  void stop() {
    if (!thread.joinable()) return;
    const int fd = connect_port(port());
    send_str(fd, "{\"op\":\"shutdown\"}\n");
    recv_line(fd);
    ::close(fd);
    thread.join();
  }
};

ServiceConfig shard_config(int shard_index, int shard_count) {
  ServiceConfig config;
  config.workers = 0;  // inline, in-order: deterministic
  config.cache_capacity = 64;
  config.metrics_on_exit = false;
  if (shard_count > 0) {
    config.node_id = "s";
    config.node_id += std::to_string(shard_index);
    config.shard_index = shard_index;
    config.shard_count = shard_count;
  }
  return config;
}

/// The deterministic 500-request mixed workload.  Every request line is
/// generated up front; holds/provisions/releases thread plan ids through
/// a per-route_key table filled in as responses arrive.
struct WorkloadStep {
  std::string line;       // complete request line (no newline)
  bool needs_plan_id;     // line contains the placeholder "%PLAN%"
  std::int64_t route_key; // the hold this step references (plan ops)
};

std::string small_graph_json(int variant) {
  // A ring of 4..11 nodes with a chord that varies by step: distinct
  // fingerprints, trivial groom cost.
  const int n = 4 + variant % 8;
  JsonWriter w;
  w.begin_object();
  w.kv("n", static_cast<long long>(n));
  w.key("edges").begin_array();
  for (int i = 0; i < n; ++i) {
    w.begin_array();
    w.value(static_cast<long long>(i));
    w.value(static_cast<long long>((i + 1) % n));
    w.end_array();
  }
  if (variant % 3 == 0 && n > 4) {
    w.begin_array();
    w.value(0LL);
    w.value(static_cast<long long>(n / 2));
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::vector<WorkloadStep> make_workload(int count) {
  std::vector<WorkloadStep> steps;
  std::vector<std::int64_t> held;  // route_keys with a live held plan
  for (int i = 0; i < count; ++i) {
    WorkloadStep step;
    step.needs_plan_id = false;
    step.route_key = 0;
    const int kind = i % 5;
    if (kind == 3 && !held.empty()) {
      // Provision two more pairs onto a held plan, pinned by route_key.
      const std::int64_t rk = held[static_cast<std::size_t>(i / 5) %
                                   held.size()];
      step.line = "{\"op\":\"provision\",\"id\":" + std::to_string(i) +
                  ",\"route_key\":" + std::to_string(rk) +
                  ",\"plan_id\":%PLAN%,\"add\":[[0," +
                  std::to_string(2 + i % 2) + "]]}";
      step.needs_plan_id = true;
      step.route_key = rk;
    } else if (kind == 4 && held.size() > 3) {
      // Release the whole oldest held plan.
      const std::int64_t rk = held.front();
      held.erase(held.begin());
      step.line = "{\"op\":\"release\",\"id\":" + std::to_string(i) +
                  ",\"route_key\":" + std::to_string(rk) +
                  ",\"plan_id\":%PLAN%,\"all\":true}";
      step.needs_plan_id = true;
      step.route_key = rk;
    } else if (kind == 2) {
      // Hold a plan under an explicit route_key.
      const std::int64_t rk = 1000 + i;
      held.push_back(rk);
      step.line = "{\"op\":\"groom\",\"id\":" + std::to_string(i) +
                  ",\"route_key\":" + std::to_string(rk) +
                  ",\"hold\":true,\"graph\":" + small_graph_json(i) +
                  ",\"k\":4}";
      step.route_key = rk;
    } else {
      // Stateless groom, routed by fingerprint.
      step.line = "{\"op\":\"groom\",\"id\":" + std::to_string(i) +
                  ",\"graph\":" + small_graph_json(i) + ",\"k\":4}";
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

std::int64_t extract_plan_id(const std::string& response) {
  const std::size_t at = response.find("\"plan_id\":");
  EXPECT_NE(at, std::string::npos) << response;
  if (at == std::string::npos) return -1;
  return std::stoll(response.substr(at + 10));
}

/// Runs the workload in lockstep against `fd`, appending one response
/// line per step.  `plan_ids` maps route_key → plan_id, filled from hold
/// responses (shared across the router run and the per-shard replays so
/// replayed lines are byte-identical to forwarded ones).
void run_lockstep_into(int fd, const std::vector<WorkloadStep>& steps,
                       std::map<std::int64_t, std::int64_t>& plan_ids,
                       std::vector<std::string>& responses) {
  for (const WorkloadStep& step : steps) {
    std::string line = step.line;
    if (step.needs_plan_id) {
      const std::size_t at = line.find("%PLAN%");
      ASSERT_NE(at, std::string::npos);
      line.replace(at, 6, std::to_string(plan_ids.at(step.route_key)));
    }
    send_str(fd, line + "\n");
    std::string response = recv_line(fd);
    if (line.find("\"hold\":true") != std::string::npos &&
        response.find("\"ok\":true") != std::string::npos) {
      plan_ids[step.route_key] = extract_plan_id(response);
    }
    responses.push_back(std::move(response));
  }
}

/// The shard the router will pick for one workload line (recomputed in
/// the test so the reference replay splits the stream the same way).
int expected_shard(const std::string& line, const ClusterRouter& router) {
  RequestParse parsed = parse_request(line);
  EXPECT_TRUE(parsed.request.has_value()) << line;
  if (!parsed.request.has_value()) return -1;
  std::string error;
  const int shard = router.shard_for_request(*parsed.request, error);
  EXPECT_GE(shard, 0) << error << " for " << line;
  return shard;
}

TEST(ClusterParity, RoutedMixedWorkloadMatchesPerShardReplay) {
  constexpr int kShards = 2;
  constexpr int kRequests = 500;

  // --- the sharded cluster: two single-member groups plus the router.
  std::vector<std::unique_ptr<ShardNode>> nodes;
  for (std::size_t s = 0; s < kShards; ++s) {
    nodes.push_back(std::make_unique<ShardNode>(
        shard_config(static_cast<int>(s), kShards)));
  }
  RouterConfig router_config;
  for (std::size_t s = 0; s < kShards; ++s) {
    ShardSpec spec;
    spec.members.push_back(BackendAddress{"127.0.0.1", nodes[s]->port()});
    router_config.map.shards.push_back(std::move(spec));
  }
  router_config.workers = 2;
  router_config.metrics_on_exit = false;
  GroomingService::clear_stop();
  ClusterRouter router(router_config);
  std::ostringstream router_log;
  std::string error;
  ASSERT_TRUE(router.start(router_log, error)) << error;
  EventLoopServer front(router, EventLoopConfig{});
  ASSERT_TRUE(front.valid()) << front.error();
  std::thread front_thread([&] { front.run(router_log); });

  const std::vector<WorkloadStep> steps = make_workload(kRequests);
  std::map<std::int64_t, std::int64_t> plan_ids;
  std::vector<std::string> routed;
  {
    const int fd = connect_port(front.port());
    run_lockstep_into(fd, steps, plan_ids, routed);
    send_str(fd, "{\"op\":\"shutdown\"}\n");
    recv_line(fd);
    ::close(fd);
  }
  front_thread.join();  // shard nodes are shut down by the router's drain
  for (auto& node : nodes) {
    if (node->thread.joinable()) node->thread.join();
  }
  ASSERT_EQ(routed.size(), steps.size());
  for (const std::string& response : routed) {
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  }

  // --- split the stream by the router's own routing decision.
  std::vector<std::vector<std::size_t>> by_shard(kShards);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    std::string line = steps[i].line;
    if (steps[i].needs_plan_id) {
      const std::size_t at = line.find("%PLAN%");
      ASSERT_NE(at, std::string::npos);
      line.replace(at, 6, std::to_string(plan_ids.at(steps[i].route_key)));
    }
    const int shard = expected_shard(line, router);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    by_shard[static_cast<std::size_t>(shard)].push_back(i);
  }
  // Both shards must have actually participated for this to test
  // anything.
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(by_shard[s].size(), 100u) << "lopsided split, shard " << s;
  }

  // --- replay each shard's subsequence against a plain unsharded node;
  // responses must match the routed run byte for byte.
  for (std::size_t s = 0; s < kShards; ++s) {
    ShardNode reference(shard_config(0, 0));
    const int fd = connect_port(reference.port());
    std::vector<WorkloadStep> subset;
    for (const std::size_t i : by_shard[s]) subset.push_back(steps[i]);
    std::map<std::int64_t, std::int64_t> replay_plan_ids = plan_ids;
    std::vector<std::string> replayed;
    run_lockstep_into(fd, subset, replay_plan_ids, replayed);
    ::close(fd);
    ASSERT_EQ(replayed.size(), by_shard[s].size());
    for (std::size_t j = 0; j < replayed.size(); ++j) {
      EXPECT_EQ(replayed[j], routed[by_shard[s][j]])
          << "shard " << s << " line " << by_shard[s][j];
    }
  }
}

TEST(ClusterRouterOps, HealthStatsAndErrorsEndToEnd) {
  ShardNode node(shard_config(0, 1));
  RouterConfig router_config;
  ShardSpec spec;
  spec.members.push_back(BackendAddress{"127.0.0.1", node.port()});
  router_config.map.shards.push_back(std::move(spec));
  router_config.workers = 1;
  router_config.metrics_on_exit = false;
  GroomingService::clear_stop();
  ClusterRouter router(router_config);
  std::ostringstream log;
  std::string error;
  ASSERT_TRUE(router.start(log, error)) << error;
  EventLoopServer front(router, EventLoopConfig{});
  ASSERT_TRUE(front.valid()) << front.error();
  std::thread front_thread([&] { front.run(log); });

  const int fd = connect_port(front.port());
  send_str(fd, "{\"op\":\"health\",\"id\":1}\n");
  std::string health = recv_line(fd);
  EXPECT_NE(health.find("\"role\":\"router\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"shard_count\":1"), std::string::npos) << health;

  send_str(fd, "{\"op\":\"stats\",\"id\":2}\n");
  std::string stats = recv_line(fd);
  EXPECT_NE(stats.find("\"role\":\"router\""), std::string::npos) << stats;
  // The merged document embeds the shard's own stats response, re-id'd
  // to null.
  EXPECT_NE(stats.find("\"response\":{\"id\":null,\"ok\":true,\"op\":\"stats\""),
            std::string::npos)
      << stats;

  // A replication op is not routable.
  send_str(fd, "{\"op\":\"repl_snapshot\",\"id\":3}\n");
  std::string repl = recv_line(fd);
  EXPECT_NE(repl.find("\"error\":\"bad_request\""), std::string::npos)
      << repl;

  // One-shard maps accept held-plan ops without a route_key...
  send_str(fd,
           "{\"op\":\"groom\",\"id\":4,\"hold\":true,"
           "\"graph\":{\"n\":3,\"edges\":[[0,1],[1,2]]},\"k\":4}\n");
  std::string hold = recv_line(fd);
  EXPECT_NE(hold.find("\"plan_id\":"), std::string::npos) << hold;
  send_str(fd, "{\"op\":\"provision\",\"id\":5,\"plan_id\":1,"
               "\"add\":[[0,2]]}\n");
  std::string provision = recv_line(fd);
  EXPECT_NE(provision.find("\"ok\":true"), std::string::npos) << provision;

  send_str(fd, "{\"op\":\"shutdown\",\"id\":6}\n");
  recv_line(fd);
  ::close(fd);
  front_thread.join();
  if (node.thread.joinable()) node.thread.join();
}

TEST(ClusterRouterOps, MultiShardHeldPlanOpWithoutRouteKeyIsRejected) {
  // Pure routing-layer check, no sockets: two shards, a plan_id op with
  // no route_key cannot name its owner.
  RouterConfig config;
  for (int s = 0; s < 2; ++s) {
    ShardSpec spec;
    spec.members.push_back(BackendAddress{"127.0.0.1", 7001 + s});
    config.map.shards.push_back(std::move(spec));
  }
  ClusterRouter router(config);
  RequestParse parsed = parse_request(
      R"({"op":"provision","plan_id":3,"add":[[0,1]]})");
  ASSERT_TRUE(parsed.request.has_value()) << parsed.error;
  std::string error;
  EXPECT_EQ(router.shard_for_request(*parsed.request, error), -1);
  EXPECT_NE(error.find("route_key"), std::string::npos) << error;

  // With a route_key it routes, and consistently with shard_for_key.
  parsed = parse_request(
      R"({"op":"provision","plan_id":3,"route_key":77,"add":[[0,1]]})");
  ASSERT_TRUE(parsed.request.has_value()) << parsed.error;
  EXPECT_EQ(router.shard_for_request(*parsed.request, error),
            static_cast<int>(shard_for_key(77, 2)));
}

}  // namespace
}  // namespace tgroom::cluster
