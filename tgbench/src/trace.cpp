// The traced replay: runs a workload's generated requests in-process, in
// order, through the public calls each layer makes for it, and records one
// span per call (name, start, end, parent, request id).  Spans stay in
// memory and are written out when the replay ends.  A span's self time is
// its duration minus the time its child spans cover.
//
// The replay also answers the fixed verification set and compares every
// answer member (except ids) with what the daemon answered, which proves
// the replay does the same work the daemon does.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "algorithms/workspace.hpp"
#include "cluster/cluster_map.hpp"
#include "graph/fingerprint.hpp"
#include "grooming/incremental.hpp"
#include "grooming/plan.hpp"
#include "grooming/repair.hpp"
#include "partition/edge_partition.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "store/durable_store.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace tgbench {

namespace {

using namespace tgroom;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans ------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int parent;
    std::int64_t request;
  };

  bool enabled = true;
  std::int64_t request = 0;

  int begin(const char* name) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void end(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = now_ns();
    stack_.pop_back();
  }

  /// Self time in ns and call count per span name.
  std::map<std::string, std::pair<double, long long>> self_times() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, std::pair<double, long long>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [self, count] = out[spans_[i].name];
      self += static_cast<double>(spans_[i].end - spans_[i].start - child[i]);
      ++count;
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
          << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), index_(t.begin(name)) {}
  ~Scope() { t_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int index_;
};

// ---- the replayed node ------------------------------------------------------

struct Counts {
  long long groom_edges = 0;
  long long releases = 0;
  long long repair_moves = 0;
  long long plan_ops = 0;
  long long plan_pairs = 0;
  long long churn_ops = 0;
};

/// One node's work for each request, call for call as the service does
/// it, with a span around each layer's call.
class Node {
 public:
  Node(Tracer& tracer, std::size_t cache_capacity, const std::string& store_dir,
       std::uint64_t snapshot_every)
      : t_(tracer), cache_(cache_capacity) {
    if (!store_dir.empty()) {
      std::filesystem::create_directories(store_dir);
      DurableStoreOptions options;
      options.dir = store_dir;
      options.fsync = FsyncPolicy::kBatch;
      options.snapshot_every = snapshot_every;
      store_ = std::make_unique<DurableStore>(options);
    }
  }

  Counts counts;
  DurableStore* store() { return store_.get(); }
  void close_store() { store_.reset(); }

  /// Executes one request line; the answer is left in `w`.
  void execute(std::string_view line, JsonWriter& w) {
    w.clear();
    std::optional<ServiceRequest> parsed;
    {
      Scope s(t_, "service.parse");
      parsed = parse_request(line).request;
    }
    if (!parsed) throw std::runtime_error("replay: unparsable request");
    ServiceRequest& req = *parsed;
    switch (req.op) {
      case ServiceOp::kGroom: return groom(req, w);
      case ServiceOp::kProvision: return provision(req, w);
      case ServiceOp::kRelease: return release(req, w);
      default: throw std::runtime_error("replay: unexpected op");
    }
  }

 private:
  void groom(ServiceRequest& req, JsonWriter& w) {
    GroomCacheKey key;
    {
      Scope s(t_, "graph.fingerprint");
      key.fingerprint = graph_fingerprint(req.graph);
    }
    key.algorithm = static_cast<int>(req.algorithm);
    key.k = req.k;
    key.seed = req.seed;
    key.flags = (req.refine ? 1u : 0u) | (req.smart_branches ? 2u : 0u);
    std::shared_ptr<const GroomCacheValue> value;
    {
      Scope s(t_, "service.cache_get");
      value = cache_.get(key);
    }
    const bool hit = value != nullptr;
    if (!hit) {
      EdgePartition partition;
      {
        Scope s(t_, "algorithms.groom");
        workspace_.reset();
        GroomingOptions options;
        options.seed = req.seed;
        options.refine = req.refine;
        options.smart_branches = req.smart_branches;
        partition = run_algorithm(req.algorithm, req.graph, req.k, options,
                                  &workspace_);
      }
      counts.groom_edges += req.graph.real_edge_count();
      auto fresh = std::make_shared<GroomCacheValue>();
      {
        Scope s(t_, "algorithms.cost");
        fresh->sadms = sadm_cost(req.graph, partition);
        fresh->lower_bound = partition_cost_lower_bound(req.graph, req.k);
      }
      fresh->wavelengths = partition.wavelength_count();
      fresh->parts = std::move(partition.parts);
      value = std::move(fresh);
      cache_.put(key, value);
    }
    std::int64_t held_id = -1;
    if (req.hold) {
      EdgePartition partition;
      partition.k = req.k;
      partition.parts = value->parts;
      GroomingPlan plan;
      {
        Scope s(t_, "grooming.hold");
        plan = plan_from_partition(DemandSet::from_traffic_graph(req.graph),
                                   req.graph, partition);
      }
      held_id = next_plan_id_++;
      auto it = plans_.emplace(held_id, std::move(plan)).first;
      if (store_ != nullptr) {
        std::uint64_t seq = 0;
        {
          Scope s(t_, "store.append");
          seq = store_->append_hold(held_id, it->second, key, *value);
        }
        persist(seq);
      }
    }
    Scope s(t_, "service.respond");
    begin_ok_response(w, req.id, req.has_id, ServiceOp::kGroom);
    w.kv("algorithm", algorithm_name(req.algorithm));
    w.kv("k", static_cast<long long>(req.k));
    w.kv("sadms", value->sadms);
    w.kv("wavelengths", static_cast<long long>(value->wavelengths));
    w.kv("lower_bound", value->lower_bound);
    w.kv("cached", hit);
    if (held_id >= 0) w.kv("plan_id", static_cast<long long>(held_id));
    if (req.include_partition) {
      w.key("partition");
      write_partition_json(w, value->parts);
    }
    w.end_object();
  }

  GroomingPlan& held(std::int64_t plan_id) {
    auto it = plans_.find(plan_id);
    if (it == plans_.end()) throw std::runtime_error("replay: unknown plan");
    ++counts.plan_ops;
    counts.plan_pairs += static_cast<long long>(it->second.pairs.size());
    return it->second;
  }

  void provision(ServiceRequest& req, JsonWriter& w) {
    GroomingPlan& plan = held(req.plan_id);
    IncrementalResult result;
    {
      Scope s(t_, "grooming.extend");
      result = add_demands_incremental(plan, req.add);
      plan = result.plan;
    }
    ++counts.churn_ops;
    log_and_persist([&] { return store_->append_provision(req.plan_id, req.add); });
    Scope s(t_, "service.respond");
    begin_ok_response(w, req.id, req.has_id, ServiceOp::kProvision);
    w.kv("plan_id", static_cast<long long>(req.plan_id));
    w.kv("added", static_cast<long long>(req.add.size()));
    w.kv("new_sadms", static_cast<long long>(result.new_sadms));
    w.kv("new_wavelengths", static_cast<long long>(result.new_wavelengths));
    w.kv("reused_sites", static_cast<long long>(result.reused_sites));
    w.kv("sadms", sadm_count(result.plan));
    w.kv("wavelengths", static_cast<long long>(result.plan.wavelength_count()));
    w.end_object();
  }

  void release(ServiceRequest& req, JsonWriter& w) {
    GroomingPlan& plan = held(req.plan_id);
    ReleaseStats stats;
    GroomingPlan residual;
    if (req.release_all) {
      residual = GroomingPlan{plan.ring_size, plan.grooming_factor, {}};
      stats.released = static_cast<int>(plan.pairs.size());
      stats.sadms_removed = sadm_count(plan);
      stats.freed_wavelengths = plan.wavelength_count();
      plans_.erase(req.plan_id);
    } else {
      {
        Scope s(t_, "grooming.release");
        GroomingPlan updated = plan;
        stats = release_demands(updated, req.remove, req.repair);
        plan = updated;
        residual = std::move(updated);
      }
      ++counts.releases;
      counts.repair_moves += stats.repair_moves;
    }
    ++counts.churn_ops;
    log_and_persist([&] {
      return store_->append_release(req.plan_id, req.remove, req.release_all,
                                    req.repair);
    });
    Scope s(t_, "service.respond");
    begin_ok_response(w, req.id, req.has_id, ServiceOp::kRelease);
    w.kv("plan_id", static_cast<long long>(req.plan_id));
    if (req.release_all) w.kv("dropped", true);
    w.kv("released", static_cast<long long>(stats.released));
    w.kv("repair_moves", static_cast<long long>(stats.repair_moves));
    w.kv("freed_wavelengths", static_cast<long long>(stats.freed_wavelengths));
    w.kv("sadms_removed", stats.sadms_removed);
    w.kv("remaining", static_cast<long long>(residual.pairs.size()));
    w.kv("sadms", sadm_count(residual));
    w.kv("wavelengths", static_cast<long long>(residual.wavelength_count()));
    w.end_object();
  }

  long long sadm_count(const GroomingPlan& plan) {
    Scope s(t_, "grooming.sadm_count");
    return plan_sadm_count(plan);
  }

  template <typename Append>
  void log_and_persist(Append append) {
    if (store_ == nullptr) return;
    std::uint64_t seq = 0;
    {
      Scope s(t_, "store.append");
      seq = append();
    }
    persist(seq);
  }

  void persist(std::uint64_t seq) {
    {
      Scope s(t_, "store.sync");
      store_->sync(seq);
    }
    if (!store_->snapshot_due()) return;
    Scope s(t_, "store.snapshot");
    SnapshotData snap;
    snap.last_seq = store_->last_seq();
    snap.next_plan_id = next_plan_id_;
    for (const auto& [id, plan] : plans_) snap.plans.emplace_back(id, plan);
    std::sort(snap.plans.begin(), snap.plans.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    store_->write_snapshot(snap);
  }

  Tracer& t_;
  PlanCache cache_;
  GroomingWorkspace workspace_;
  std::unique_ptr<DurableStore> store_;
  std::unordered_map<std::int64_t, GroomingPlan> plans_;
  std::int64_t next_plan_id_ = 1;
};

/// The routed path around a node: the router parses, keys and splices
/// the line, the node executes it, the router splices the id back.
void routed(Tracer& t, Node& node, std::string_view line, JsonWriter& w,
            std::string& out) {
  std::optional<ServiceRequest> parsed;
  {
    Scope s(t, "cluster.parse");
    parsed = parse_request(line).request;
  }
  std::string forwarded;
  {
    Scope s(t, "cluster.route_key");
    (void)cluster::shard_for_key(graph_fingerprint(parsed->graph), 2);
  }
  {
    Scope s(t, "cluster.splice");
    forwarded = cluster::compose_with_id(cluster::strip_top_level_id(line), 1);
  }
  node.execute(forwarded, w);
  Scope s(t, "cluster.splice");
  cluster::restore_response_id(w.str(), parsed->has_id, parsed->id, out);
}

std::string line_for(std::int64_t id, const std::string& body) {
  return "{\"id\":" + std::to_string(id) + "," + body;
}

/// Member-wise equality of two answers, ignoring "id" and "plan_id" (the
/// daemon's plan ids count every plan it ever held).
bool same_answer(const std::string& daemon, const std::string& replay) {
  const JsonValue a = parse_json("{" + daemon);
  const JsonValue b = parse_json(replay);
  auto members = [](const JsonValue& v) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [name, value] : v.object) {
      if (name == "id" || name == "plan_id") continue;
      JsonWriter w;
      if (value.is_array()) {
        // Partitions: compare the nested edge ids.
        w.begin_array();
        for (const JsonValue& part : value.array) {
          w.begin_array();
          for (const JsonValue& e : part.array) w.value(e.number);
          w.end_array();
        }
        w.end_array();
      } else if (value.is_string()) {
        w.value(value.string);
      } else if (value.is_bool()) {
        w.value(value.boolean);
      } else {
        w.value(value.number);
      }
      out.emplace_back(name, w.take());
    }
    return out;
  };
  return members(a) == members(b);
}

}  // namespace

int trace_main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  Workload workload{};
  if (!parse_workload(args.get("workload", ""), workload)) {
    std::fprintf(stderr, "tgbench trace: unknown --workload\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const long long count = args.get_int("requests", 1000);
  const std::string store_dir = args.get("store-dir", "");
  std::vector<std::string> daemon_answers;
  {
    std::ifstream in(args.get("answers", ""));
    for (std::string line; std::getline(in, line);) daemon_answers.push_back(line);
  }

  Tracer tracer;
  const bool churn = workload == Workload::kHeldChurn;
  const bool hot = is_hot(workload);
  Node node(tracer, hot ? 4096 : 128, churn ? store_dir : std::string(),
            static_cast<std::uint64_t>(args.get_int("snapshot-every", 1024)));
  JsonWriter w;
  std::string routed_out;
  std::int64_t next_id = 1;
  // routed_hot replays through the router's calls; groom_cold and
  // groom_hot add a routed pass after their direct one (--routed-requests)
  // for the cluster spans.
  bool via_router = workload == Workload::kRoutedHot;
  // Execute one request line, as a root span "request".
  auto run = [&](const std::string& body) {
    const std::string line = line_for(next_id, body);
    tracer.request = next_id++;
    const int root = tracer.begin("request");
    if (via_router) {
      routed(tracer, node, line, w, routed_out);
    } else {
      node.execute(line, w);
    }
    tracer.end(root);
  };

  std::vector<std::string> replay_answers;
  std::string failure;
  double traced_ns = 0;
  long long traced_requests = 1;
  // Traced time so far: the self time of every span (the timed requests
  // and held_churn's set-up holds) and the requests it covers.
  auto take_traced = [&] {
    const auto self = tracer.self_times();
    for (const auto& [name, entry] : self) traced_ns += entry.first;
    const auto it = self.find("request");
    traced_requests = it == self.end() ? 1 : it->second.second;
  };
  double recover_s = 0;
  double wal_bytes = 0;
  long long timed = 0;
  try {
    // Setup (untimed, like the daemon's prime): the same requests the
    // client sends before its warm-up.
    tracer.enabled = false;
    ChurnState state;
    std::vector<GroomShape> pool;
    if (churn) {
      std::vector<bool> small;
      const std::vector<GroomShape> shapes = ChurnState::setup_shapes(seed, small);
      tracer.enabled = true;  // setup holds are the held_churn hold sample
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        std::string body;
        render_groom_body(shapes[i], false, true, nullptr, body);
        run(body);
        long long plan_id = -1;
        find_int(w.str(), "plan_id", plan_id);
        state.add_plan(shapes[i], plan_id, small[i]);
      }
    } else {
      pool = shape_pool(workload, seed, pool_size(workload));
      if (hot) {
        for (const GroomShape& s : pool) {
          std::string body;
          render_groom_body(s, false, false, nullptr, body);
          run(body);
        }
      }
    }

    // The timed replay.
    tracer.enabled = true;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 201);
    std::vector<int> relabel;
    const long long routed_requests = args.get_int("routed-requests", 0);
    for (long long i = 0; i < count + routed_requests; ++i) {
      if (i == count) {
        take_traced();  // the workload's own path only
        via_router = true;
      }
      std::string body;
      if (churn) {
        const ChurnRequest req = state.next(rng, true);
        state.render(req, body);
        run(body);
        state.ack(req, true);
        continue;
      }
      const GroomShape& shape = pool[rng.below(pool.size())];
      if (hot) {
        render_groom_body(shape, rng.uniform01() < 0.1, false, nullptr, body);
      } else {
        random_permutation(static_cast<std::size_t>(shape.graph.node_count()),
                           rng, relabel);
        render_groom_body(shape, false, false, &relabel, body);
      }
      run(body);
    }
    timed = count;
    if (routed_requests == 0) take_traced();

    // The verification set, untraced, compared with the daemon's answers.
    tracer.enabled = false;
    via_router = workload == Workload::kRoutedHot;
    auto answer = [&]() -> std::string {
      return via_router ? routed_out : w.str();
    };
    if (churn) {
      ChurnState vstate;
      const std::vector<GroomShape> shapes = churn_verify_shapes();
      for (const GroomShape& s : shapes) {
        std::string body;
        render_groom_body(s, false, true, nullptr, body);
        run(body);
        long long plan_id = -1;
        find_int(w.str(), "plan_id", plan_id);
        vstate.add_plan(s, plan_id, false);
        replay_answers.push_back(answer());
      }
      Rng vrng(kVerifySeed + 1);
      for (int i = 0; i < kChurnVerifyOps; ++i) {
        const ChurnRequest req = vstate.next(vrng, false);
        std::string body;
        vstate.render(req, body);
        run(body);
        vstate.ack(req, true);
        replay_answers.push_back(answer());
      }
    } else {
      const std::vector<GroomShape> shapes = verify_shapes(workload);
      for (int pass = 0; pass < verify_passes(workload); ++pass) {
        for (const GroomShape& s : shapes) {
          std::string body;
          render_groom_body(s, true, false, nullptr, body);
          run(body);
          replay_answers.push_back(answer());
        }
      }
    }
    if (replay_answers.size() != daemon_answers.size()) {
      failure = "verification answer counts differ: daemon " +
                std::to_string(daemon_answers.size()) + ", replay " +
                std::to_string(replay_answers.size());
    }
    for (std::size_t i = 0; failure.empty() && i < replay_answers.size(); ++i) {
      if (!same_answer(daemon_answers[i], replay_answers[i])) {
        failure = "replay answer " + std::to_string(i) +
                  " differs from the daemon's: " + daemon_answers[i].substr(0, 160);
      }
    }

    if (churn && node.store() != nullptr) {
      wal_bytes = static_cast<double>(node.store()->metrics().appended_bytes.load());
      node.close_store();
      const auto r0 = std::chrono::steady_clock::now();
      StoreRecovery recovery;
      (void)recover_store_state(store_dir, &recovery, false);
      recover_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - r0)
                      .count();
    }
  } catch (const std::exception& e) {
    failure = std::string("replay: ") + e.what();
  }

  const auto self = tracer.self_times();
  auto mean_us = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.first / 1e3 / static_cast<double>(it->second.second);
  };
  auto calls = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0LL : it->second.second;
  };
  auto total_ns = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.first;
  };
  const Counts& c = node.counts;
  JsonWriter out;
  out.begin_object();
  out.kv("correct", failure.empty());
  out.kv("failure", failure);
  out.kv("requests", timed);
  out.key("metrics").begin_object();
  out.kv("service.parse_us", mean_us("service.parse"));
  out.kv("service.respond_us", mean_us("service.respond"));
  out.kv("service.cache_get_us", mean_us("service.cache_get"));
  out.kv("graph.fingerprint_us", mean_us("graph.fingerprint"));
  out.kv("algorithms.groom_us", mean_us("algorithms.groom"));
  const double groom_ns = total_ns("algorithms.groom");
  out.kv("algorithms.edges_per_s",
         groom_ns > 0 ? static_cast<double>(c.groom_edges) / (groom_ns / 1e9) : 0.0);
  out.kv("algorithms.cost_us", mean_us("algorithms.cost"));
  out.kv("grooming.hold_us", mean_us("grooming.hold"));
  out.kv("grooming.extend_us", mean_us("grooming.extend"));
  out.kv("grooming.release_us", mean_us("grooming.release"));
  out.kv("grooming.sadm_count_us", mean_us("grooming.sadm_count"));
  out.kv("grooming.repair_moves_per_release",
         c.releases > 0 ? static_cast<double>(c.repair_moves) / static_cast<double>(c.releases) : 0.0);
  out.kv("grooming.plan_pairs_mean",
         c.plan_ops > 0 ? static_cast<double>(c.plan_pairs) / static_cast<double>(c.plan_ops) : 0.0);
  out.kv("store.append_us", mean_us("store.append"));
  out.kv("store.sync_us", mean_us("store.sync"));
  const long long appends = calls("store.append");
  out.kv("store.wal_bytes_per_op", appends > 0 ? wal_bytes / static_cast<double>(appends) : 0.0);
  out.kv("store.snapshot_ms", mean_us("store.snapshot") / 1e3);
  out.kv("store.snapshots_per_kop",
         c.churn_ops > 0 ? 1000.0 * static_cast<double>(calls("store.snapshot")) /
                               static_cast<double>(c.churn_ops)
                         : 0.0);
  out.kv("store.recover_s", recover_s);
  out.kv("cluster.route_key_us", mean_us("cluster.route_key"));
  out.kv("cluster.splice_us", mean_us("cluster.splice") * 2);  // two splices per request
  out.kv("traced_us_per_request",
         traced_ns / 1e3 / static_cast<double>(traced_requests));
  out.end_object();
  out.end_object();
  std::printf("%s\n", out.str().c_str());
  if (args.has("spans")) tracer.write(args.get("spans", ""));
  return failure.empty() ? 0 : 1;
}

}  // namespace tgbench
