// Tests of the grooming service: protocol parsing, queue/cache/metrics
// units, and loopback NDJSON sessions pinned bit-for-bit against direct
// library calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "gen/traffic_patterns.hpp"
#include "graph/fingerprint.hpp"
#include "grooming/incremental.hpp"
#include "grooming/plan.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "service/server.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace tgroom {
namespace {

// ---------------------------------------------------------------- helpers

std::string groom_request(long long id, const Graph& g, AlgorithmId algorithm,
                          int k, std::uint64_t seed,
                          bool include_partition = true, bool hold = false) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "groom");
  w.kv("id", id);
  w.key("graph");
  write_graph_json(w, g);
  w.kv("algorithm", algorithm_name(algorithm));
  w.kv("k", static_cast<long long>(k));
  w.kv("seed", seed);
  if (include_partition) w.kv("include_partition", true);
  if (hold) w.kv("hold", true);
  w.end_object();
  return w.take();
}

std::string provision_request(long long id, const GroomingPlan& plan,
                              const std::vector<DemandPair>& add,
                              bool include_plan = true) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "provision");
  w.kv("id", id);
  w.key("plan");
  write_plan_json(w, plan);
  w.key("add").begin_array();
  for (const DemandPair& p : add) {
    w.begin_array()
        .value(static_cast<long long>(p.a))
        .value(static_cast<long long>(p.b))
        .end_array();
  }
  w.end_array();
  if (include_plan) w.kv("include_plan", true);
  w.end_object();
  return w.take();
}

struct Session {
  std::vector<JsonValue> responses;  // protocol responses, output order
  std::vector<JsonValue> events;     // {"event":...} lines (exit metrics)
  GroomingService* service = nullptr;

  const JsonValue* by_id(long long id) const {
    for (const JsonValue& r : responses) {
      const JsonValue* rid = r.find("id");
      if (rid && rid->is_number() && rid->as_int() == id) return &r;
    }
    return nullptr;
  }
};

Session run_session(GroomingService& service,
                    const std::vector<std::string>& lines) {
  std::string input;
  for (const std::string& line : lines) {
    input += line;
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(service.run(in, out), 0);
  Session session;
  session.service = &service;
  std::istringstream parse(out.str());
  std::string line;
  while (std::getline(parse, line)) {
    EXPECT_FALSE(line.empty()) << "blank response line";
    JsonValue v = parse_json(line);
    if (v.find("event")) {
      session.events.push_back(std::move(v));
    } else {
      session.responses.push_back(std::move(v));
    }
  }
  return session;
}

Graph test_graph(NodeId n, double density, std::uint64_t seed) {
  Rng rng(seed);
  return random_traffic(n, density, rng).traffic_graph();
}

FlatParts parts_from_json(const JsonValue& v) {
  EXPECT_TRUE(v.is_array());
  std::vector<std::vector<EdgeId>> parts;
  for (const JsonValue& part : v.array) {
    EXPECT_TRUE(part.is_array());
    std::vector<EdgeId> edges;
    for (const JsonValue& e : part.array) {
      edges.push_back(static_cast<EdgeId>(e.as_int()));
    }
    parts.push_back(std::move(edges));
  }
  return FlatParts::from_nested(parts);
}

// ------------------------------------------------------------ unit pieces

TEST(BoundedQueue, RejectsWhenFullAndDrains) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.try_push(4));
  std::vector<int> leftover = queue.close_and_drain();
  ASSERT_EQ(leftover.size(), 2u);
  EXPECT_EQ(leftover[0], 2);
  EXPECT_EQ(leftover[1], 4);
  EXPECT_FALSE(queue.try_push(5));
  EXPECT_FALSE(queue.pop(out));
}

TEST(BoundedQueue, CloseLetsConsumersFinish) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.try_push(7));
  EXPECT_TRUE(queue.try_push(8));
  queue.close();
  EXPECT_FALSE(queue.try_push(9));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.pop(out));
}

TEST(PlanCache, LruEvictionAndRefresh) {
  PlanCache cache(2, /*shards=*/1);  // one shard: exact global LRU order
  GroomCacheKey a{1, 0, 4, 1, 0}, b{2, 0, 4, 1, 0}, c{3, 0, 4, 1, 0};
  GroomCacheValue value;
  value.sadms = 10;
  cache.put(a, value);
  value.sadms = 20;
  cache.put(b, value);
  EXPECT_NE(cache.get(a), nullptr);  // refresh a; b becomes LRU
  value.sadms = 30;
  cache.put(c, value);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.get(a), nullptr);
  EXPECT_EQ(cache.get(b), nullptr);
  ASSERT_NE(cache.get(c), nullptr);
  EXPECT_EQ(cache.get(c)->sadms, 30);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.evictions, 1);
}

TEST(PlanCache, HitSharesThePayloadInsteadOfCopying) {
  PlanCache cache(4, /*shards=*/1);
  GroomCacheKey key{42, 0, 8, 1, 0};
  GroomCacheValue value;
  value.parts = {{0, 1, 2}, {3, 4}};
  cache.put(key, std::move(value));

  auto first = cache.get(key);
  auto second = cache.get(key);
  ASSERT_NE(first, nullptr);
  // Both hits hand back the same immutable object — a refcount bump, not
  // a deep copy of the partition payload.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->parts.ids().data(), second->parts.ids().data());
  EXPECT_EQ(first->parts[0].data(), second->parts[0].data());

  // The pointee outlives eviction: overflow the cache, then read through
  // the handle obtained before the eviction.
  for (std::uint64_t i = 0; i < 16; ++i) {
    cache.put(GroomCacheKey{100 + i, 0, 8, 1, 0}, GroomCacheValue{});
  }
  EXPECT_EQ(cache.get(key), nullptr);
  EXPECT_EQ(first->parts[1][1], 4);
}

TEST(PlanCache, ConcurrentOverlappingKeysKeepInvariants) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  constexpr std::uint64_t kKeySpace = 24;  // overlapping across threads
  constexpr std::size_t kCapacity = 16;    // smaller than the key space
  PlanCache cache(kCapacity, /*shards=*/4);

  std::atomic<long long> observed_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t fp = static_cast<std::uint64_t>(
            (i + t * 7) % static_cast<int>(kKeySpace));
        GroomCacheKey key{fp, 0, 4, 1, 0};
        if (auto hit = cache.get(key)) {
          // Values are immutable; a concurrent eviction must not free
          // them under us.
          EXPECT_EQ(hit->sadms, static_cast<long long>(fp));
          observed_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          GroomCacheValue value;
          value.sadms = static_cast<long long>(fp);
          cache.put(key, std::move(value));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Size never exceeds the sharded bound, and the counters reconcile:
  // every get was a hit or a miss, and entries still resident plus
  // entries evicted cannot exceed the number of puts (refreshes allowed).
  EXPECT_LE(cache.size(),
            cache.shard_count() *
                ((kCapacity + cache.shard_count() - 1) / cache.shard_count()));
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<long long>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(static_cast<long long>(cache.size()) + stats.evictions,
            stats.misses);  // puts happen only after a miss
}

TEST(BoundedQueue, BlockingPushWaitsForASlot) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.try_push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(2));  // blocks until the consumer pops
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still parked: queue is full
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);

  // close() releases producers blocked on a full queue.
  EXPECT_TRUE(queue.try_push(3));
  std::thread blocked([&] { EXPECT_FALSE(queue.push(4)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  blocked.join();
}

TEST(PlanCache, ZeroCapacityDisables) {
  PlanCache cache(0);
  cache.put(GroomCacheKey{1, 0, 4, 1, 0}, GroomCacheValue{});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(GroomCacheKey{1, 0, 4, 1, 0}), nullptr);
}

TEST(ServiceMetrics, CountersAndHistogram) {
  ServiceMetrics metrics;
  metrics.increment(ServiceMetrics::Counter::kOk, 3);
  metrics.increment(ServiceMetrics::Counter::kCacheHits);
  metrics.observe_latency(std::chrono::microseconds(3));    // bucket [2,4)
  metrics.observe_latency(std::chrono::microseconds(100));  // bucket [64,128)
  EXPECT_EQ(metrics.count(ServiceMetrics::Counter::kOk), 3);
  JsonValue v = parse_json(metrics.to_json());
  const JsonValue* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("ok")->as_int(), 3);
  EXPECT_EQ(counters->find("cache_hits")->as_int(), 1);
  const JsonValue* latency = v.find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->find("count")->as_int(), 2);
  EXPECT_EQ(latency->find("sum_us")->as_int(), 103);
  EXPECT_EQ(latency->find("max_us")->as_int(), 100);
  long long bucketed = 0;
  for (const JsonValue& bucket : latency->find("buckets")->array) {
    bucketed += bucket.array[1].as_int();
  }
  EXPECT_EQ(bucketed, 2);
}

TEST(Protocol, ParseErrorsAreStructured) {
  EXPECT_FALSE(parse_request("not json").request.has_value());
  EXPECT_FALSE(parse_request("[1,2]").request.has_value());
  EXPECT_FALSE(parse_request(R"({"id":5})").request.has_value());
  EXPECT_FALSE(parse_request(R"({"op":"warp","id":5})").request.has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"groom","k":4})").request.has_value());
  // id is echoed even when the body is bad.
  RequestParse bad = parse_request(R"({"op":"warp","id":5})");
  EXPECT_TRUE(bad.has_id);
  EXPECT_EQ(bad.id, 5);
  // provision needs exactly one plan source.
  EXPECT_FALSE(parse_request(
                   R"({"op":"provision","plan_id":1,)"
                   R"("plan":{"ring_size":4,"k":2,"pairs":[]},"add":[[0,1]]})")
                   .request.has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"provision","plan_id":1,"add":[]})")
          .request.has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"provision","plan_id":1,"add":[[2,2]]})")
          .request.has_value());
}

TEST(Protocol, GraphAndPlanRoundTrip) {
  Graph g = test_graph(10, 0.5, 7);
  JsonWriter w;
  write_graph_json(w, g);
  Graph back = graph_from_json(parse_json(w.str()));
  EXPECT_EQ(graph_fingerprint(g), graph_fingerprint(back));

  EdgePartition partition = run_algorithm(AlgorithmId::kSpanTEuler, g, 4);
  GroomingPlan plan =
      plan_from_partition(DemandSet::from_traffic_graph(g), g, partition);
  JsonWriter pw;
  write_plan_json(pw, plan);
  GroomingPlan plan_back = plan_from_json(parse_json(pw.str()));
  EXPECT_EQ(serialize_plan(plan), serialize_plan(plan_back));
}

void expect_same_csr(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.real_edge_count(), b.real_edge_count());
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
    EXPECT_EQ(a.edge(e).is_virtual, b.edge(e).is_virtual);
  }
  for (NodeId v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v));
    for (std::size_t i = 0; i < a.incident(v).size(); ++i) {
      EXPECT_EQ(a.incident(v)[i].neighbor, b.incident(v)[i].neighbor);
      EXPECT_EQ(a.incident(v)[i].edge, b.incident(v)[i].edge);
    }
  }
  EXPECT_EQ(graph_fingerprint(a), graph_fingerprint(b));
}

TEST(Protocol, ParsedGraphEqualsGraphSnapshot) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = test_graph(static_cast<NodeId>(8 + 7 * seed), 0.4, seed);
    const RequestParse parsed = parse_request(
        groom_request(1, g, AlgorithmId::kSpanTEuler, 4, seed));
    ASSERT_TRUE(parsed.request.has_value()) << parsed.error;
    expect_same_csr(parsed.request->graph, CsrGraph(g));
    EXPECT_EQ(graph_fingerprint(parsed.request->graph), graph_fingerprint(g));
  }
}

// One integer token for a parser differential: in range, negative, past
// the range, 17 to 23 digits, around 2^53, or with a leading zero.
std::string number_token(Rng& rng, long long in_range) {
  switch (rng.below(20)) {
    case 0: return std::to_string(-1 - static_cast<long long>(rng.below(3)));
    case 1:
      return std::to_string(in_range + static_cast<long long>(rng.below(2)));
    case 2: return "1234567890123456789";
    case 3: return "-1234567890123456789";
    case 4: return "12345678901234567";
    case 5: return "9007199254740992";
    case 6: return "9007199254740993";
    case 7: return std::string("0").append(std::to_string(rng.below(5)));
    case 8: return "-0";
    case 9: return "99999999999999999999999";
    case 10: return "-18446744073709551616";
    default:
      return std::to_string(
          in_range <= 0 ? 0 : static_cast<long long>(rng.below(
                                  static_cast<std::uint64_t>(in_range))));
  }
}

// "name":value
std::string member(const char* name, const std::string& value) {
  std::string out = "\"";
  out += name;
  out += "\":";
  out += value;
  return out;
}

std::string random_space(Rng& rng) {
  static const char* const kSpaces[] = {"", "", "", " ", "\t", "  ", "\r\n"};
  return kSpaces[rng.below(7)];
}

// A groom request whose graph mixes valid edges with duplicates in both
// orientations, whitespace inside pairs, and odd or out-of-range ids.
std::string random_groom_line(Rng& rng) {
  const long long n = static_cast<long long>(rng.below(9));
  std::vector<std::pair<std::string, std::string>> edges;
  const std::size_t m = rng.below(14);
  for (std::size_t i = 0; i < m; ++i) {
    if (!edges.empty() && rng.chance(0.15)) {
      auto dup = edges[rng.below(edges.size())];
      if (rng.chance(0.5)) std::swap(dup.first, dup.second);
      edges.push_back(dup);
    } else if (rng.chance(0.1)) {
      std::string u = number_token(rng, n);
      edges.emplace_back(std::move(u), number_token(rng, n));
    } else if (n >= 2) {
      const auto bound = static_cast<std::uint64_t>(n);
      const std::uint64_t u = rng.below(bound);
      edges.emplace_back(std::to_string(u), std::to_string(rng.below(bound)));
    }
  }
  std::string graph = "{";
  graph += member("n", rng.chance(0.1) ? number_token(rng, 8)
                                       : std::to_string(n));
  graph += ",\"edges\":[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) graph += ",";
    for (const std::string& piece :
         {std::string("["), edges[i].first, std::string(","),
          edges[i].second, std::string("]")}) {
      graph += random_space(rng);
      graph += piece;
    }
  }
  graph += "]}";
  std::vector<std::string> members = {member("op", "\"groom\""),
                                      member("graph", graph)};
  if (rng.chance(0.7)) members.push_back(member("id", number_token(rng, 1000)));
  if (rng.chance(0.5)) members.push_back(member("k", number_token(rng, 20)));
  if (rng.chance(0.3)) members.push_back(member("seed", number_token(rng, 99)));
  if (rng.chance(0.3)) {
    members.push_back(rng.chance(0.5) ? "\"algorithm\":\"spant\""
                                      : "\"algorithm\":\"Regular_Euler\"");
  }
  if (rng.chance(0.2)) {
    members.push_back(member("deadline_ms", number_token(rng, 100)));
  }
  if (rng.chance(0.2)) {
    members.push_back(member("route_key", number_token(rng, 1 << 20)));
  }
  if (rng.chance(0.2)) members.push_back("\"hold\":true");
  rng.shuffle(members);
  std::string line = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) line += ",";
    line += random_space(rng);
    line += members[i];
  }
  return line + "}";
}

// A groom request whose edge array is compact ("[a,b],[c,d],...") up to
// one pair at a random offset that breaks the form: whitespace inside or
// between pairs, a 9- or 19-digit number, a leading zero, a negative, a
// trailing comma, or nothing at all.  The graph is often the last member,
// so the array's ']' falls in the line's last 72 bytes, and short arrays
// fit in less than one 64-byte bitmap word.
std::string compact_groom_line(Rng& rng) {
  // Mostly 1-3 digit ids; sometimes 5-6 digit ones on a few edges.
  const bool wide = rng.chance(0.03);
  const auto n = static_cast<long long>(
      wide ? 100000 + rng.below(100000)
           : 2 + rng.below(rng.chance(0.5) ? 12 : 300));
  const std::size_t m =
      rng.chance(0.3) ? rng.below(6) : rng.below(wide ? 60 : 400);
  auto node = [&rng](long long below) {
    return static_cast<long long>(rng.below(static_cast<std::uint64_t>(below)));
  };
  std::vector<std::pair<long long, long long>> pairs;
  for (std::size_t i = 0; i < m; ++i) {
    const long long u = node(n);
    long long v = node(n - 1);
    if (v >= u) ++v;
    pairs.emplace_back(u, v);
  }
  // Duplicates are rare in a random draw at this density except for small
  // n; drop them unless the line should exercise the duplicate check.
  if (!rng.chance(0.1)) {
    std::vector<std::pair<long long, long long>> unique;
    for (const auto& p : pairs) {
      const auto same = [&p](const auto& q) {
        return (q.first == p.first && q.second == p.second) ||
               (q.first == p.second && q.second == p.first);
      };
      if (std::none_of(unique.begin(), unique.end(), same)) {
        unique.push_back(p);
      }
    }
    pairs = std::move(unique);
  }
  const std::size_t breaks_at =
      pairs.empty() || rng.chance(0.3) ? pairs.size() : rng.below(pairs.size());
  const std::uint64_t how = rng.below(12);
  std::string edges = "[";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::string a = std::to_string(pairs[i].first);
    std::string b = std::to_string(pairs[i].second);
    std::string open = "[", mid = ",", close = "]", sep = i > 0 ? "," : "";
    if (i == breaks_at) {
      switch (how) {
        case 0: open = "[ "; break;
        case 1: mid = " ,"; break;
        case 2: mid = ", "; break;
        case 3: close = "\t]"; break;
        case 4: sep = i > 0 ? " ," : " "; break;
        case 5: a = "123456789"; break;
        case 6: b = "1234567890123456789"; break;
        case 7: a = "0" + a; break;
        case 8: b = "-" + b; break;
        case 9: a = std::to_string(n + node(3)); break;
        case 10: b = a; break;
        default: sep = i > 0 ? ",\r\n" : "\n"; break;
      }
    }
    edges += sep + open + a + mid + b + close;
  }
  if (!pairs.empty() && rng.chance(0.05)) edges += ",";  // trailing comma
  edges += "]";
  const std::string n_member = "\"n\":" + std::to_string(n);
  const std::string edges_member = "\"edges\":" + edges;
  const std::string graph = rng.chance(0.2)
                                ? "{" + edges_member + "," + n_member + "}"
                                : "{" + n_member + "," + edges_member + "}";
  std::string line = R"({"op":"groom","id":7,)";
  if (rng.chance(0.5)) {
    line += R"("k":4,"graph":)" + graph + "}";
  } else {
    line += R"("graph":)" + graph + R"(,"k":16,"algorithm":"spant"})";
  }
  return line;
}

void expect_same_parse(const std::string& line) {
  SCOPED_TRACE(line);
  const RequestParse fast = parse_request(line);
  const RequestParse generic = parse_request_generic(line);
  ASSERT_EQ(fast.request.has_value(), generic.request.has_value())
      << fast.error << " | " << generic.error;
  EXPECT_EQ(fast.error, generic.error);
  EXPECT_EQ(fast.has_id, generic.has_id);
  EXPECT_EQ(fast.id, generic.id);
  if (!fast.request) return;
  const ServiceRequest& a = *fast.request;
  const ServiceRequest& b = *generic.request;
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.has_id, b.has_id);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.refine, b.refine);
  EXPECT_EQ(a.smart_branches, b.smart_branches);
  EXPECT_EQ(a.hold, b.hold);
  EXPECT_EQ(a.include_partition, b.include_partition);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.route_key, b.route_key);
  EXPECT_EQ(a.has_route_key, b.has_route_key);
  EXPECT_EQ(a.plan_id, b.plan_id);
  EXPECT_EQ(a.add, b.add);
  EXPECT_EQ(a.remove, b.remove);
  EXPECT_EQ(a.release_all, b.release_all);
  EXPECT_EQ(a.repair, b.repair);
  EXPECT_EQ(a.include_plan, b.include_plan);
  ASSERT_EQ(a.plan.has_value(), b.plan.has_value());
  if (a.plan) {
    EXPECT_EQ(serialize_plan(*a.plan), serialize_plan(*b.plan));
  }
  expect_same_csr(a.graph, b.graph);
}

TEST(Protocol, FastParserAgreesWithGenericParser) {
  Rng rng(0x7061727365ULL);
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string line = random_groom_line(rng);
    expect_same_parse(line);
    if (parse_request(line).request.has_value()) ++accepted;
  }
  // The generator must reach both outcomes often.
  EXPECT_GT(accepted, 300);
  EXPECT_LT(accepted, 2700);
  int compact_accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string line = compact_groom_line(rng);
    expect_same_parse(line);
    if (parse_request(line).request.has_value()) ++compact_accepted;
  }
  EXPECT_GT(compact_accepted, 600);
  EXPECT_LT(compact_accepted, 1800);
  for (const char* line : {
           R"({"op":"groom","graph":{"n":3,"edges":[[0,1],[1,0]]}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[0,1],[0,1]]}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[ 0 , 1 ],[2,1]]}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[0,3]]}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[-1,2]]}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[01,2]]}})",
           R"({"op":"groom","graph":{"n":3,)"
           R"("edges":[[0,99999999999999999999999]]}})",
           R"({"op":"groom","graph":{"n":3,)"
           R"("edges":[[18446744073709551617,1]]}})",
           R"({"op":"groom","id":1234567890123456789,)"
           R"("graph":{"n":2,"edges":[]}})",
           R"({"op":"groom","id":-12345678901234567,)"
           R"("graph":{"n":2,"edges":[]}})",
           R"({"op":"groom","seed":9007199254740993,)"
           R"("graph":{"n":2,"edges":[]}})",
           R"({"op":"provision","plan_id":3,"add":[[0,1],[ 2 ,1]]})",
           R"({"op":"provision","plan_id":3,)"
           R"("add":[[0,123456789012345678901]]})",
           R"({"op":"release","plan_id":3,"remove":[[0,1]],"repair":false})",
           R"({"op":"groom","graph":{"n":3,"edges":[[0,1]]}})",
           R"({"op":"groom","graph":{"edges":[[0,1],[1,2]],"n":3}})",
           R"({"op":"groom","graph":{"edges":[[0,1],[1,2]],"n":2}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[0,1],]}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[0,1][1,2]]}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[0,12345678]]}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[0,1],[1,1]]}})",
           R"({"op":"groom","graph":{"n":3,"edges":[[0,1],[1,2])",
           R"({"op":"groom","graph":{"n":3,"edges":[[0,1],[1,2]]})",
           R"({"op":"groom","graph":{"n":3,"edges":[[1,0)",
           R"({"op":"groom","graph":{"n":200000,)"
           R"("edges":[[123456,65432],[199999,7],[1000,100000],[9,99999]]}})",
       }) {
    expect_same_parse(line);
  }
}

// ------------------------------------------------------- service sessions

TEST(Service, GroomMatchesDirectRun) {
  Graph g = test_graph(12, 0.5, 11);
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  Session session = run_session(
      service, {groom_request(1, g, AlgorithmId::kSpanTEuler, 4, 99)});
  ASSERT_EQ(session.responses.size(), 1u);
  const JsonValue& r = session.responses[0];
  EXPECT_TRUE(r.find("ok")->boolean);

  GroomingOptions options;
  options.seed = 99;
  EdgePartition direct = run_algorithm(AlgorithmId::kSpanTEuler, g, 4, options);
  EXPECT_EQ(r.find("sadms")->as_int(), sadm_cost(g, direct));
  EXPECT_EQ(r.find("wavelengths")->as_int(), direct.wavelength_count());
  EXPECT_EQ(r.find("lower_bound")->as_int(),
            partition_cost_lower_bound(g, 4));
  EXPECT_EQ(parts_from_json(*r.find("partition")), direct.parts);
}

TEST(Service, CacheHitReturnsIdenticalPayload) {
  Graph g = test_graph(12, 0.5, 13);
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  Session session = run_session(
      service, {groom_request(1, g, AlgorithmId::kSpanTEuler, 4, 5),
                groom_request(2, g, AlgorithmId::kSpanTEuler, 4, 5),
                groom_request(3, g, AlgorithmId::kSpanTEuler, 8, 5)});
  ASSERT_EQ(session.responses.size(), 3u);
  const JsonValue &a = session.responses[0], &b = session.responses[1];
  EXPECT_FALSE(a.find("cached")->boolean);
  EXPECT_TRUE(b.find("cached")->boolean);
  EXPECT_FALSE(session.responses[2].find("cached")->boolean);  // k differs
  EXPECT_EQ(a.find("sadms")->as_int(), b.find("sadms")->as_int());
  EXPECT_EQ(parts_from_json(*a.find("partition")),
            parts_from_json(*b.find("partition")));
  EXPECT_EQ(service.metrics().count(ServiceMetrics::Counter::kCacheHits), 1);
  EXPECT_EQ(service.metrics().count(ServiceMetrics::Counter::kCacheMisses),
            2);
}

TEST(Service, HeldPlanProvisionMatchesDirectChain) {
  Graph g = test_graph(10, 0.4, 17);
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  Session session = run_session(
      service,
      {groom_request(1, g, AlgorithmId::kSpanTEuler, 4, 1, false, true),
       R"({"op":"provision","id":2,"plan_id":1,"add":[[0,3],[1,4]],)"
       R"("include_plan":true})",
       R"({"op":"provision","id":3,"plan_id":1,"add":[[2,5]],)"
       R"("include_plan":true})"});
  ASSERT_EQ(session.responses.size(), 3u);
  EXPECT_EQ(session.responses[0].find("plan_id")->as_int(), 1);

  EdgePartition direct = run_algorithm(AlgorithmId::kSpanTEuler, g, 4);
  GroomingPlan plan =
      plan_from_partition(DemandSet::from_traffic_graph(g), g, direct);
  IncrementalResult step1 =
      add_demands_incremental(plan, {DemandPair{0, 3}, DemandPair{1, 4}});
  IncrementalResult step2 =
      add_demands_incremental(step1.plan, {DemandPair{2, 5}});

  const JsonValue& r2 = session.responses[1];
  EXPECT_EQ(r2.find("new_sadms")->as_int(), step1.new_sadms);
  EXPECT_EQ(serialize_plan(plan_from_json(*r2.find("plan"))),
            serialize_plan(step1.plan));
  const JsonValue& r3 = session.responses[2];
  EXPECT_EQ(r3.find("new_sadms")->as_int(), step2.new_sadms);
  EXPECT_EQ(serialize_plan(plan_from_json(*r3.find("plan"))),
            serialize_plan(step2.plan));
  EXPECT_EQ(service.held_plan_count(), 1u);
}

TEST(Service, UnknownPlanIdIsBadRequest) {
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  Session session = run_session(
      service, {R"({"op":"provision","id":1,"plan_id":42,"add":[[0,1]]})"});
  ASSERT_EQ(session.responses.size(), 1u);
  EXPECT_FALSE(session.responses[0].find("ok")->boolean);
  EXPECT_EQ(session.responses[0].find("error")->string, "bad_request");
}

std::string release_request(long long id, const GroomingPlan& plan,
                            const std::vector<DemandPair>& remove,
                            bool include_plan = true) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "release");
  w.kv("id", id);
  w.key("plan");
  write_plan_json(w, plan);
  w.key("remove").begin_array();
  for (const DemandPair& p : remove) {
    w.begin_array()
        .value(static_cast<long long>(p.a))
        .value(static_cast<long long>(p.b))
        .end_array();
  }
  w.end_array();
  if (include_plan) w.kv("include_plan", true);
  w.end_object();
  return w.take();
}

TEST(Service, ReleaseHeldPlanMatchesDirectRelease) {
  Graph g = test_graph(10, 0.5, 23);
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  GroomingPlan direct = plan_from_partition(
      DemandSet::from_traffic_graph(g), g,
      run_algorithm(AlgorithmId::kSpanTEuler, g, 4));
  const std::vector<DemandPair> remove = {direct.pairs[0].pair,
                                          direct.pairs[2].pair};
  JsonWriter req;
  req.begin_object();
  req.kv("op", "release");
  req.kv("id", 2);
  req.kv("plan_id", 1);
  req.key("remove").begin_array();
  for (const DemandPair& p : remove) {
    req.begin_array()
        .value(static_cast<long long>(p.a))
        .value(static_cast<long long>(p.b))
        .end_array();
  }
  req.end_array();
  req.kv("include_plan", true);
  req.end_object();
  Session session = run_session(
      service,
      {groom_request(1, g, AlgorithmId::kSpanTEuler, 4, 1, false, true),
       req.take(),
       R"({"op":"provision","id":3,"plan_id":1,"add":[[0,3]]})"});
  ASSERT_EQ(session.responses.size(), 3u);

  const ReleaseStats stats = release_demands(direct, remove);
  const JsonValue& r = session.responses[1];
  ASSERT_TRUE(r.find("ok")->boolean);
  EXPECT_EQ(r.find("released")->as_int(), stats.released);
  EXPECT_EQ(r.find("repair_moves")->as_int(), stats.repair_moves);
  EXPECT_EQ(r.find("freed_wavelengths")->as_int(), stats.freed_wavelengths);
  EXPECT_EQ(r.find("sadms_removed")->as_int(), stats.sadms_removed);
  EXPECT_EQ(r.find("sadms")->as_int(), plan_sadm_count(direct));
  EXPECT_EQ(serialize_plan(plan_from_json(*r.find("plan"))),
            serialize_plan(direct));
  // The held plan is the released one: provisioning continues from it.
  EXPECT_TRUE(session.responses[2].find("ok")->boolean);
  EXPECT_EQ(service.held_plan_count(), 1u);
}

TEST(Service, ReleaseAllDropsTheHeldPlan) {
  Graph g = test_graph(8, 0.5, 29);
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  Session session = run_session(
      service,
      {groom_request(1, g, AlgorithmId::kSpanTEuler, 4, 1, false, true),
       R"({"op":"release","id":2,"plan_id":1,"all":true})",
       R"({"op":"provision","id":3,"plan_id":1,"add":[[0,1]]})",
       R"({"op":"release","id":4,"plan_id":1,"all":true})"});
  ASSERT_EQ(session.responses.size(), 4u);
  const JsonValue& r = session.responses[1];
  ASSERT_TRUE(r.find("ok")->boolean);
  EXPECT_TRUE(r.find("dropped")->boolean);
  EXPECT_EQ(r.find("remaining")->as_int(), 0);
  EXPECT_EQ(service.held_plan_count(), 0u);
  // Both follow-ups hit a plan that no longer exists.
  EXPECT_FALSE(session.responses[2].find("ok")->boolean);
  EXPECT_EQ(session.responses[2].find("error")->string, "bad_request");
  EXPECT_FALSE(session.responses[3].find("ok")->boolean);
}

TEST(Service, ReleaseInlinePlanIsStateless) {
  Graph g = test_graph(10, 0.5, 31);
  GroomingPlan plan = plan_from_partition(
      DemandSet::from_traffic_graph(g), g,
      run_algorithm(AlgorithmId::kSpanTEuler, g, 4));
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  const std::vector<DemandPair> remove = {plan.pairs[1].pair};
  Session session =
      run_session(service, {release_request(1, plan, remove)});
  ASSERT_EQ(session.responses.size(), 1u);
  const JsonValue& r = session.responses[0];
  ASSERT_TRUE(r.find("ok")->boolean);
  GroomingPlan direct = plan;
  release_demands(direct, remove);
  EXPECT_EQ(serialize_plan(plan_from_json(*r.find("plan"))),
            serialize_plan(direct));
  EXPECT_EQ(service.held_plan_count(), 0u);  // nothing was held
}

TEST(Service, ReleaseValidationErrors) {
  Graph g = test_graph(8, 0.5, 37);
  GroomingPlan plan = plan_from_partition(
      DemandSet::from_traffic_graph(g), g,
      run_algorithm(AlgorithmId::kSpanTEuler, g, 4));
  JsonWriter plan_json;
  write_plan_json(plan_json, plan);
  const std::string plan_text = plan_json.take();
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  Session session = run_session(
      service,
      {// Neither plan nor plan_id.
       R"({"op":"release","id":1,"remove":[[0,1]]})",
       // Both remove and all.
       R"({"op":"release","id":2,"plan_id":1,"remove":[[0,1]],"all":true})",
       // Neither remove nor all.
       R"({"op":"release","id":3,"plan_id":1})",
       // Empty remove list.
       R"({"op":"release","id":4,"plan_id":1,"remove":[]})",
       // "all" with an inline plan (drop-all only makes sense held).
       R"({"op":"release","id":5,"plan":)" + plan_text + R"(,"all":true})",
       // Pair not present in the inline plan.
       [&] {
         DemandSet demands = DemandSet::from_traffic_graph(g);
         for (NodeId x = 0; x < 8; ++x) {
           for (NodeId y = static_cast<NodeId>(x + 1); y < 8; ++y) {
             if (!demands.contains(x, y)) {
               return R"({"op":"release","id":6,"plan":)" + plan_text +
                      R"(,"remove":[[)" + std::to_string(x) + "," +
                      std::to_string(y) + R"(]]})";
             }
           }
         }
         ADD_FAILURE() << "dense graph has every pair";
         return std::string();
       }()});
  ASSERT_EQ(session.responses.size(), 6u);
  for (const JsonValue& r : session.responses) {
    EXPECT_FALSE(r.find("ok")->boolean)
        << "id " << r.find("id")->as_int();
    EXPECT_EQ(r.find("error")->string, "bad_request");
  }
}

TEST(Service, DeadlineExpiredBetweenStages) {
  Graph g = test_graph(10, 0.4, 19);
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  RequestParse parsed = parse_request(
      groom_request(1, g, AlgorithmId::kSpanTEuler, 4, 1));
  ASSERT_TRUE(parsed.request.has_value());
  ServiceRequest request = std::move(*parsed.request);
  request.deadline_ms = 1;
  request.admitted =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(50);
  JsonValue response = parse_json(service.execute(request, nullptr));
  EXPECT_FALSE(response.find("ok")->boolean);
  EXPECT_EQ(response.find("error")->string, "deadline_exceeded");
  EXPECT_EQ(
      service.metrics().count(ServiceMetrics::Counter::kDeadlineExceeded), 1);
}

TEST(Service, BadAlgorithmInputIsBadRequest) {
  // Regular_Euler on a non-regular graph must come back as a structured
  // bad_request, not a dropped response.
  Graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  ServiceConfig config;
  config.metrics_on_exit = false;
  GroomingService service(config);
  Session session = run_session(
      service, {groom_request(1, g, AlgorithmId::kRegularEuler, 4, 1)});
  ASSERT_EQ(session.responses.size(), 1u);
  EXPECT_FALSE(session.responses[0].find("ok")->boolean);
  EXPECT_EQ(session.responses[0].find("error")->string, "bad_request");
}

TEST(Service, OverloadRejectionsAreStructured) {
  // One expensive groom (~tens of ms: WangGu on a dense n=300 graph) pins
  // the single worker; the reader floods one-line stats requests through a
  // capacity-1 queue in well under a millisecond, so all but the queued
  // one must trip `overloaded`.
  Graph g = test_graph(300, 0.9, 23);
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.cache_capacity = 0;  // the groom pays full compute
  config.metrics_on_exit = false;
  GroomingService service(config);
  const int requests = 64;
  std::vector<std::string> lines;
  lines.push_back(
      groom_request(0, g, AlgorithmId::kWangGuIcc06, 8, 1, false));
  for (int i = 1; i < requests; ++i) {
    lines.push_back(R"({"op":"stats","id":)" + std::to_string(i) + "}");
  }
  Session session = run_session(service, lines);
  ASSERT_EQ(session.responses.size(), static_cast<std::size_t>(requests));
  int ok = 0, overloaded = 0;
  for (const JsonValue& r : session.responses) {
    if (r.find("ok")->boolean) {
      ++ok;
    } else {
      EXPECT_EQ(r.find("error")->string, "overloaded");
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, requests);
  EXPECT_GT(overloaded, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(service.metrics().count(ServiceMetrics::Counter::kOverloaded),
            overloaded);
}

TEST(Service, ShutdownAnswersEveryAcceptedRequest) {
  Graph g = test_graph(32, 0.5, 29);
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 256;
  config.cache_capacity = 0;
  config.metrics_on_exit = false;
  GroomingService service(config);
  const int requests = 40;
  std::vector<std::string> lines;
  for (int i = 0; i < requests; ++i) {
    lines.push_back(groom_request(i, g, AlgorithmId::kSpanTEuler, 8,
                                  static_cast<std::uint64_t>(i), false));
  }
  lines.push_back(R"({"op":"shutdown","id":999})");
  Session session = run_session(service, lines);
  EXPECT_TRUE(service.shutdown_requested());
  // Every request (including shutdown itself) is answered exactly once.
  ASSERT_EQ(session.responses.size(),
            static_cast<std::size_t>(requests) + 1);
  int ok = 0, rejected = 0;
  for (int i = 0; i < requests; ++i) {
    const JsonValue* r = session.by_id(i);
    ASSERT_NE(r, nullptr) << "request " << i << " unanswered";
    if (r->find("ok")->boolean) {
      ++ok;
    } else {
      EXPECT_EQ(r->find("error")->string, "shutting_down");
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, requests);
  const JsonValue* bye = session.by_id(999);
  ASSERT_NE(bye, nullptr);
  EXPECT_TRUE(bye->find("ok")->boolean);
  EXPECT_EQ(bye->find("op")->string, "shutdown");
  EXPECT_EQ(bye->find("rejected_queued")->as_int(), rejected);
}

TEST(Service, EofDrainProcessesEverythingAccepted) {
  Graph g = test_graph(24, 0.5, 31);
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 512;
  config.metrics_on_exit = false;
  GroomingService service(config);
  const int requests = 100;
  std::vector<std::string> lines;
  for (int i = 0; i < requests; ++i) {
    lines.push_back(groom_request(i, g, AlgorithmId::kSpanTEuler, 8, 1,
                                  false));
  }
  Session session = run_session(service, lines);
  ASSERT_EQ(session.responses.size(), static_cast<std::size_t>(requests));
  for (const JsonValue& r : session.responses) {
    EXPECT_TRUE(r.find("ok")->boolean);
  }
}

TEST(Service, StatsAndExitMetrics) {
  Graph g = test_graph(10, 0.5, 37);
  ServiceConfig config;
  config.metrics_on_exit = true;
  GroomingService service(config);
  Session session = run_session(
      service, {groom_request(1, g, AlgorithmId::kSpanTEuler, 4, 1, false),
                R"({"op":"stats","id":2})"});
  ASSERT_EQ(session.responses.size(), 2u);
  const JsonValue& stats = session.responses[1];
  EXPECT_TRUE(stats.find("ok")->boolean);
  EXPECT_EQ(stats.find("op")->string, "stats");
  EXPECT_EQ(stats.find("workers")->as_int(), 0);
  EXPECT_EQ(stats.find("cache_size")->as_int(), 1);
  const JsonValue* metrics = stats.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GE(metrics->find("counters")->find("received")->as_int(), 2);
  // The exit line carries the final metrics dump.
  ASSERT_EQ(session.events.size(), 1u);
  EXPECT_EQ(session.events[0].find("event")->string, "exit");
  ASSERT_NE(session.events[0].find("metrics"), nullptr);
}

// ------------------------------------------------- the loopback smoke test

// Acceptance: >= 1000 mixed groom/provision requests through the daemon
// with workers in {0, 4}; every response must match a direct
// run_algorithm / add_demands_incremental call bit-for-bit.
TEST(ServiceSmoke, LoopbackParityAcrossWorkerCounts) {
  const AlgorithmId algorithms[] = {
      AlgorithmId::kSpanTEuler, AlgorithmId::kGoldschmidt,
      AlgorithmId::kBrauner, AlgorithmId::kWangGuIcc06,
      AlgorithmId::kCliquePack};
  const int ks[] = {3, 4, 6, 8};

  // A pool of distinct instances so the cache sees hits and misses.
  std::vector<Graph> graphs;
  for (int i = 0; i < 10; ++i) {
    graphs.push_back(
        test_graph(static_cast<NodeId>(8 + i), 0.5,
                   static_cast<std::uint64_t>(41 + i)));
  }
  std::vector<GroomingPlan> base_plans;
  for (const Graph& g : graphs) {
    EdgePartition partition = run_algorithm(AlgorithmId::kSpanTEuler, g, 4);
    base_plans.push_back(
        plan_from_partition(DemandSet::from_traffic_graph(g), g, partition));
  }

  const int total = 1000;
  std::vector<std::string> lines;
  std::vector<std::string> expected(total);  // by request id
  for (int i = 0; i < total; ++i) {
    const std::size_t gi = static_cast<std::size_t>(i) % graphs.size();
    if (i % 2 == 0) {
      const Graph& g = graphs[gi];
      AlgorithmId algorithm = algorithms[(i / 2) % 5];
      int k = ks[(i / 10) % 4];
      auto seed = static_cast<std::uint64_t>(1 + i % 7);
      lines.push_back(groom_request(i, g, algorithm, k, seed, true));
      GroomingOptions options;
      options.seed = seed;
      EdgePartition direct = run_algorithm(algorithm, g, k, options);
      JsonWriter w;
      w.begin_object();
      w.kv("sadms", sadm_cost(g, direct));
      w.kv("wavelengths",
           static_cast<long long>(direct.wavelength_count()));
      w.key("partition");
      write_partition_json(w, direct);
      w.end_object();
      expected[static_cast<std::size_t>(i)] = w.take();
    } else {
      const GroomingPlan& plan = base_plans[gi];
      const NodeId n = plan.ring_size;
      std::vector<DemandPair> add;
      NodeId a = static_cast<NodeId>(i % n);
      NodeId b = static_cast<NodeId>((i + 2 + i % 3) % n);
      if (a == b) b = static_cast<NodeId>((b + 1) % n);
      add.push_back(DemandPair{std::min(a, b), std::max(a, b)});
      add.push_back(DemandPair{0, static_cast<NodeId>(1 + i % (n - 1))});
      lines.push_back(provision_request(i, plan, add, true));
      IncrementalResult direct = add_demands_incremental(plan, add);
      JsonWriter w;
      w.begin_object();
      w.kv("new_sadms", static_cast<long long>(direct.new_sadms));
      w.kv("new_wavelengths",
           static_cast<long long>(direct.new_wavelengths));
      w.kv("reused_sites", static_cast<long long>(direct.reused_sites));
      w.key("plan");
      write_plan_json(w, direct.plan);
      w.end_object();
      expected[static_cast<std::size_t>(i)] = w.take();
    }
  }

  for (std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    ServiceConfig config;
    config.workers = workers;
    config.queue_capacity = 2048;  // nothing rejected in the parity pass
    config.cache_capacity = 64;
    config.metrics_on_exit = false;
    GroomingService service(config);
    Session session = run_session(service, lines);
    ASSERT_EQ(session.responses.size(), static_cast<std::size_t>(total))
        << "workers=" << workers;
    std::vector<const JsonValue*> by_id(total, nullptr);
    for (const JsonValue& r : session.responses) {
      long long id = r.find("id")->as_int();
      ASSERT_GE(id, 0);
      ASSERT_LT(id, total);
      ASSERT_EQ(by_id[static_cast<std::size_t>(id)], nullptr)
          << "duplicate response for id " << id;
      by_id[static_cast<std::size_t>(id)] = &r;
    }
    for (int i = 0; i < total; ++i) {
      const JsonValue* r = by_id[static_cast<std::size_t>(i)];
      ASSERT_NE(r, nullptr) << "workers=" << workers << " id=" << i;
      ASSERT_TRUE(r->find("ok")->boolean)
          << "workers=" << workers << " id=" << i;
      JsonValue want = parse_json(expected[static_cast<std::size_t>(i)]);
      if (i % 2 == 0) {
        EXPECT_EQ(r->find("sadms")->as_int(), want.find("sadms")->as_int())
            << "workers=" << workers << " id=" << i;
        EXPECT_EQ(r->find("wavelengths")->as_int(),
                  want.find("wavelengths")->as_int());
        EXPECT_EQ(parts_from_json(*r->find("partition")),
                  parts_from_json(*want.find("partition")))
            << "workers=" << workers << " id=" << i;
      } else {
        EXPECT_EQ(r->find("new_sadms")->as_int(),
                  want.find("new_sadms")->as_int());
        EXPECT_EQ(r->find("new_wavelengths")->as_int(),
                  want.find("new_wavelengths")->as_int());
        EXPECT_EQ(r->find("reused_sites")->as_int(),
                  want.find("reused_sites")->as_int());
        EXPECT_EQ(serialize_plan(plan_from_json(*r->find("plan"))),
                  serialize_plan(plan_from_json(*want.find("plan"))))
            << "workers=" << workers << " id=" << i;
      }
    }
    EXPECT_EQ(service.metrics().count(ServiceMetrics::Counter::kOk), total);
    EXPECT_EQ(service.metrics().count(ServiceMetrics::Counter::kOverloaded),
              0);
  }
}

}  // namespace
}  // namespace tgroom
