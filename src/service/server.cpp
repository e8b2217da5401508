#include "service/server.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <istream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/workspace.hpp"
#include "graph/fingerprint.hpp"
#include "grooming/demand.hpp"
#include "service/session.hpp"
#include "util/alloc_tracker.hpp"

namespace tgroom {

std::atomic<bool>& GroomingService::stop_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

std::size_t GroomingService::held_plan_count() const {
  std::lock_guard<std::mutex> lock(plans_mutex_);
  return plans_.size();
}

void GroomingService::open_store() {
  if (config_.data_dir.empty() || store_ref() != nullptr) return;
  DurableStoreOptions options;
  options.dir = config_.data_dir;
  options.fsync = config_.fsync;
  options.snapshot_every = config_.snapshot_every;
  auto store = std::make_shared<DurableStore>(options);
  RecoveredState state = store->take_recovered();
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    plans_ = std::move(state.plans);
    next_plan_id_ = std::max(next_plan_id_, state.next_plan_id);
  }
  if (config_.prewarm_cache) {
    for (PrewarmEntry& entry : state.prewarm) {
      cache_.put(entry.key, std::move(entry.value));
    }
  }
  std::lock_guard<std::mutex> lock(store_ptr_mutex_);
  store_ = std::move(store);
}

void GroomingService::snapshot_store(bool force) {
  const std::shared_ptr<DurableStore> store = store_ref();
  if (store == nullptr) return;
  if (!force && !store->snapshot_due()) return;
  SnapshotData snap;
  {
    // Appends happen under plans_mutex_ too, so last_seq taken here is
    // exactly the sequence number covering this copy of the table.
    std::lock_guard<std::mutex> lock(plans_mutex_);
    snap.last_seq = store->last_seq();
    snap.next_plan_id = next_plan_id_;
    snap.plans.reserve(plans_.size());
    for (const auto& [id, plan] : plans_) snap.plans.emplace_back(id, plan);
  }
  std::sort(snap.plans.begin(), snap.plans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (store->write_snapshot(snap)) {
    metrics_.increment(ServiceMetrics::Counter::kStoreSnapshots);
  }
}

bool GroomingService::deadline_expired(const ServiceRequest& request) const {
  if (request.deadline_ms <= 0) return false;
  return std::chrono::steady_clock::now() - request.admitted >=
         std::chrono::milliseconds(request.deadline_ms);
}

void GroomingService::deadline_response(const ServiceRequest& request,
                                        JsonWriter& w) {
  metrics_.increment(ServiceMetrics::Counter::kError);
  metrics_.increment(ServiceMetrics::Counter::kDeadlineExceeded);
  write_error_response(
      w, request.id, request.has_id, ServiceError::kDeadlineExceeded,
      "deadline of " + std::to_string(request.deadline_ms) + " ms expired");
}

void GroomingService::execute_into(ServiceRequest& request,
                                   GroomingWorkspace& workspace,
                                   JsonWriter& w) {
  if (request.admitted == std::chrono::steady_clock::time_point{}) {
    request.admitted = std::chrono::steady_clock::now();
  }
  w.clear();
  const AllocCounter allocs_before = thread_alloc_counter();
  try {
    if (is_mutating(request) && is_replica()) {
      metrics_.increment(ServiceMetrics::Counter::kError);
      metrics_.increment(ServiceMetrics::Counter::kReadOnlyRejected);
      write_error_response(
          w, request.id, request.has_id, ServiceError::kReadOnly,
          "read-only replica of " + config_.replica_of +
              "; send mutations to the primary or promote this node");
    } else {
      switch (request.op) {
        case ServiceOp::kGroom:
          handle_groom(request, workspace, w);
          break;
        case ServiceOp::kProvision:
          handle_provision(request, w);
          break;
        case ServiceOp::kRelease:
          handle_release(request, w);
          break;
        case ServiceOp::kStats:
          handle_stats(request, w);
          break;
        case ServiceOp::kHealth:
          handle_health(request, w);
          break;
        case ServiceOp::kPromote:
          handle_promote(request, w);
          break;
        case ServiceOp::kReplHandshake:
          handle_repl_handshake(request, w);
          break;
        case ServiceOp::kReplFetch:
          handle_repl_fetch(request, w);
          break;
        case ServiceOp::kReplSnapshot:
          handle_repl_snapshot(request, w);
          break;
        case ServiceOp::kShutdown:
          // run() intercepts shutdown before dispatch; a direct execute()
          // (tests) gets a structured refusal instead of silence.
          metrics_.increment(ServiceMetrics::Counter::kError);
          write_error_response(w, request.id, request.has_id,
                               ServiceError::kBadRequest,
                               "shutdown is handled by the server");
          break;
      }
    }
  } catch (const std::exception& e) {
    w.clear();
    metrics_.increment(ServiceMetrics::Counter::kError);
    write_error_response(w, request.id, request.has_id,
                         ServiceError::kInternal, e.what());
  }
  metrics_.observe_allocations(thread_alloc_counter().count -
                               allocs_before.count);
  metrics_.observe_arena_peak(workspace.arena.peak_bytes());
  metrics_.observe_latency(std::chrono::steady_clock::now() -
                           request.admitted);
}

std::string GroomingService::execute(ServiceRequest& request,
                                     GroomingWorkspace* workspace) {
  GroomingWorkspace local;
  JsonWriter w;
  execute_into(request, workspace ? *workspace : local, w);
  return w.take();
}

void GroomingService::handle_groom(ServiceRequest& request,
                                   GroomingWorkspace& workspace,
                                   JsonWriter& w) {
  if (deadline_expired(request)) return deadline_response(request, w);

  GroomCacheKey key;
  key.fingerprint = graph_fingerprint(request.graph);
  key.algorithm = static_cast<int>(request.algorithm);
  key.k = request.k;
  key.seed = request.seed;
  key.flags = (request.refine ? 1u : 0u) | (request.smart_branches ? 2u : 0u);

  std::shared_ptr<const GroomCacheValue> value = cache_.get(key);
  const bool hit = value != nullptr;
  metrics_.increment(hit ? ServiceMetrics::Counter::kCacheHits
                         : ServiceMetrics::Counter::kCacheMisses);
  if (!hit) {
    // Rewind the workspace arena: this request's scratch starts from the
    // retained high-water blocks, so a warm worker computes heap-free.
    workspace.reset();
    GroomingOptions options;
    options.seed = request.seed;
    options.refine = request.refine;
    options.smart_branches = request.smart_branches;
    EdgePartition partition;
    try {
      partition = run_algorithm(request.algorithm, request.graph, request.k,
                                options, &workspace);
    } catch (const CheckError& e) {
      metrics_.increment(ServiceMetrics::Counter::kError);
      return write_error_response(w, request.id, request.has_id,
                                  ServiceError::kBadRequest, e.message());
    }
    auto fresh = std::make_shared<GroomCacheValue>();
    fresh->sadms = sadm_cost(request.graph, partition);
    fresh->wavelengths = partition.wavelength_count();
    fresh->lower_bound = partition_cost_lower_bound(request.graph, request.k);
    fresh->parts = std::move(partition.parts);
    value = std::move(fresh);
    // The value is shared with the cache, never deep-copied: the response
    // below serializes from the same immutable payload a later hit reuses.
    std::size_t evicted = cache_.put(key, value);
    if (evicted > 0) {
      metrics_.increment(ServiceMetrics::Counter::kCacheEvictions,
                         static_cast<long long>(evicted));
    }
  }

  // The work is already cached, so an expired deadline still pays forward.
  if (deadline_expired(request)) return deadline_response(request, w);

  std::int64_t held_id = -1;
  if (request.hold) {
    // The plan reads the cached parts in place; the value is shared, not
    // copied.
    GroomingPlan plan = plan_from_partition(
        DemandSet::from_traffic_graph(request.graph), request.graph,
        value->parts, request.k);
    const std::shared_ptr<DurableStore> store = store_ref();
    std::uint64_t seq = 0;
    {
      std::lock_guard<std::mutex> lock(plans_mutex_);
      held_id = next_plan_id_++;
      auto [it, inserted] = plans_.emplace(held_id, std::move(plan));
      (void)inserted;
      if (store != nullptr) {
        // Append before ack, under the table lock so WAL order equals
        // table order; the fsync (sync below) happens off the lock.
        seq = store->append_hold(held_id, it->second, key, *value);
      }
    }
    if (store != nullptr && seq != 0) {
      metrics_.increment(ServiceMetrics::Counter::kStoreAppends);
      store->sync(seq);
      snapshot_store(false);
    }
  }

  begin_ok_response(w, request.id, request.has_id, ServiceOp::kGroom);
  w.kv("algorithm", algorithm_name(request.algorithm));
  w.kv("k", static_cast<long long>(request.k));
  w.kv("sadms", value->sadms);
  w.kv("wavelengths", static_cast<long long>(value->wavelengths));
  w.kv("lower_bound", value->lower_bound);
  w.kv("cached", hit);
  if (held_id >= 0) w.kv("plan_id", static_cast<long long>(held_id));
  if (request.include_partition) {
    w.key("partition");
    write_partition_json(w, value->parts);
  }
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

void GroomingService::handle_provision(ServiceRequest& request,
                                       JsonWriter& w) {
  if (deadline_expired(request)) return deadline_response(request, w);

  IncrementalResult result;
  const std::shared_ptr<DurableStore> store = store_ref();
  std::uint64_t seq = 0;
  try {
    if (request.plan.has_value()) {
      // Stateless mode mutates no server state, so nothing is logged.
      result = add_demands_incremental(*request.plan, request.add);
    } else {
      std::lock_guard<std::mutex> lock(plans_mutex_);
      auto it = plans_.find(request.plan_id);
      if (it == plans_.end()) {
        metrics_.increment(ServiceMetrics::Counter::kError);
        return write_error_response(
            w, request.id, request.has_id, ServiceError::kBadRequest,
            "unknown plan_id " + std::to_string(request.plan_id));
      }
      result = add_demands_incremental(it->second, request.add);
      it->second = result.plan;
      if (store != nullptr) {
        // The WAL logs the *input* pairs; replay recomputes the same
        // placement deterministically (extend_plan_incremental).
        seq = store->append_provision(request.plan_id, request.add);
      }
    }
  } catch (const CheckError& e) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(w, request.id, request.has_id,
                                ServiceError::kBadRequest, e.message());
  }
  if (store != nullptr && seq != 0) {
    metrics_.increment(ServiceMetrics::Counter::kStoreAppends);
    store->sync(seq);
    snapshot_store(false);
  }

  begin_ok_response(w, request.id, request.has_id, ServiceOp::kProvision);
  if (request.plan_id >= 0) {
    w.kv("plan_id", static_cast<long long>(request.plan_id));
  }
  w.kv("added", static_cast<long long>(request.add.size()));
  write_incremental_json(w, result, request.include_plan);
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

void GroomingService::handle_release(ServiceRequest& request,
                                     JsonWriter& w) {
  if (deadline_expired(request)) return deadline_response(request, w);

  ReleaseStats stats;
  GroomingPlan residual;
  bool dropped = false;
  const std::shared_ptr<DurableStore> store = store_ref();
  std::uint64_t seq = 0;
  try {
    if (request.plan.has_value()) {
      // Stateless mode mutates no server state, so nothing is logged.
      residual = std::move(*request.plan);
      stats = release_demands(residual, request.remove, request.repair);
    } else {
      std::lock_guard<std::mutex> lock(plans_mutex_);
      auto it = plans_.find(request.plan_id);
      if (it == plans_.end()) {
        metrics_.increment(ServiceMetrics::Counter::kError);
        return write_error_response(
            w, request.id, request.has_id, ServiceError::kBadRequest,
            "unknown plan_id " + std::to_string(request.plan_id));
      }
      if (request.release_all) {
        residual = GroomingPlan{it->second.ring_size,
                                it->second.grooming_factor, {}};
        stats.released = static_cast<int>(it->second.pairs.size());
        stats.sadms_removed = plan_sadm_count(it->second);
        stats.freed_wavelengths = it->second.wavelength_count();
        plans_.erase(it);
        dropped = true;
      } else {
        // Release on a copy first: a bad pair must not leave the held
        // plan (or the WAL) half-mutated.
        GroomingPlan updated = it->second;
        stats = release_demands(updated, request.remove, request.repair);
        it->second = updated;
        residual = std::move(updated);
      }
      if (store != nullptr) {
        // Append before ack, under the table lock so WAL order equals
        // table order; the fsync (sync below) happens off the lock.
        seq = store->append_release(request.plan_id, request.remove,
                                    request.release_all, request.repair);
      }
    }
  } catch (const CheckError& e) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(w, request.id, request.has_id,
                                ServiceError::kBadRequest, e.message());
  }
  if (store != nullptr && seq != 0) {
    metrics_.increment(ServiceMetrics::Counter::kStoreAppends);
    store->sync(seq);
    snapshot_store(false);
  }

  begin_ok_response(w, request.id, request.has_id, ServiceOp::kRelease);
  if (request.plan_id >= 0) {
    w.kv("plan_id", static_cast<long long>(request.plan_id));
  }
  if (request.release_all) w.kv("dropped", dropped);
  // A dropped plan never echoes back, whatever include_plan says.
  write_release_json(w, stats, residual,
                     request.include_plan && !dropped);
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

void GroomingService::write_cache_stats(JsonWriter& w) const {
  const PlanCacheStats stats = cache_.stats();
  const long long lookups = stats.hits + stats.misses;
  w.begin_object();
  w.kv("capacity", static_cast<long long>(cache_.capacity()));
  w.kv("shards", static_cast<long long>(cache_.shard_count()));
  w.kv("size", static_cast<long long>(cache_.size()));
  w.kv("hits", stats.hits);
  w.kv("misses", stats.misses);
  w.kv("evictions", stats.evictions);
  w.kv("hit_ratio",
       lookups == 0 ? 0.0
                    : static_cast<double>(stats.hits) /
                          static_cast<double>(lookups));
  w.end_object();
}

void GroomingService::handle_stats(const ServiceRequest& request,
                                   JsonWriter& w) {
  begin_ok_response(w, request.id, request.has_id, ServiceOp::kStats);
  w.kv("workers", static_cast<long long>(config_.workers));
  w.kv("queue_capacity", static_cast<long long>(config_.queue_capacity));
  w.kv("cache_capacity", static_cast<long long>(config_.cache_capacity));
  w.kv("cache_size", static_cast<long long>(cache_.size()));
  w.kv("held_plans", static_cast<long long>(held_plan_count()));
  w.key("cache");
  write_cache_stats(w);
  w.key("replication");
  w.begin_object();
  const bool replica = is_replica();
  w.kv("role", replica ? "replica" : "primary");
  if (replica) {
    w.kv("primary", config_.replica_of);
    if (replica_link_ != nullptr) {
      // connected / applied_seq / primary_last_seq / lag / reconnects /
      // snapshot_bootstraps / last_error — the replication-lag surface.
      replica_link_->write_status_json(w);
    }
  } else {
    w.kv("acked_seq", repl_acked_seq_.load(std::memory_order_relaxed));
    std::vector<std::pair<std::string, std::uint64_t>> acks;
    {
      std::lock_guard<std::mutex> lock(repl_acks_mutex_);
      acks = repl_follower_acks_;
    }
    std::sort(acks.begin(), acks.end());
    const std::uint64_t last_seq = applied_seq();
    w.key("replicas").begin_array();
    for (const auto& [follower, acked] : acks) {
      w.begin_object();
      w.kv("follower", follower);
      w.kv("acked_seq", acked);
      w.kv("lag", last_seq > acked ? last_seq - acked : 0);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.key("metrics");
  metrics_.write_json(w);
  if (const std::shared_ptr<DurableStore> store = store_ref()) {
    w.key("store");
    store->write_json(w);
  }
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

bool GroomingService::is_mutating(const ServiceRequest& request) {
  switch (request.op) {
    case ServiceOp::kGroom:
      return request.hold;  // a plain groom only reads (and warms) the cache
    case ServiceOp::kProvision:
    case ServiceOp::kRelease:
      // Inline-plan requests are stateless transforms of the caller's own
      // plan; only held-plan references touch the table.
      return !request.plan.has_value();
    default:
      return false;
  }
}

std::uint64_t GroomingService::applied_seq() const {
  const std::shared_ptr<DurableStore> store = store_ref();
  return store != nullptr ? store->last_seq() : 0;
}

bool GroomingService::wal_crc_at(std::uint64_t seq, std::uint32_t& crc) const {
  const std::shared_ptr<DurableStore> store = store_ref();
  if (store == nullptr || seq == 0) return false;
  // Push stdio-buffered appends to the OS first: the record to checksum
  // may have been appended (and acked) without crossing an fsync batch.
  store->flush_os();
  return wal_record_crc(store->dir(), seq, crc);
}

void GroomingService::handle_health(const ServiceRequest& request,
                                    JsonWriter& w) {
  // Deliberately cheap: no plans_mutex_, no store scan — safe to answer
  // inline from the event loop ahead of any queued grooming work.
  begin_ok_response(w, request.id, request.has_id, ServiceOp::kHealth);
  const bool replica = is_replica();
  w.kv("role", replica ? "replica" : "primary");
  // Format + topology echo: the cluster router validates these against
  // its compiled versions and its static map at connect time, so a node
  // from the wrong build or the wrong shard is rejected before it serves.
  w.kv("store_version", static_cast<long long>(kStoreFormatVersion));
  w.kv("fingerprint_version",
       static_cast<long long>(kFingerprintFormatVersion));
  if (!config_.node_id.empty()) w.kv("node_id", config_.node_id);
  if (config_.shard_count > 0) {
    w.kv("shard_index", static_cast<long long>(config_.shard_index));
    w.kv("shard_count", static_cast<long long>(config_.shard_count));
  }
  const std::uint64_t last_seq = applied_seq();
  w.kv("last_seq", last_seq);
  if (replica) {
    w.kv("primary", config_.replica_of);
    if (replica_link_ != nullptr) {
      const std::uint64_t applied = replica_link_->applied_seq();
      const std::uint64_t primary_last = replica_link_->primary_last_seq();
      w.kv("applied_seq", applied);
      w.kv("primary_last_seq", primary_last);
      w.kv("lag", primary_last > applied ? primary_last - applied : 0);
    }
  } else {
    // Primary-side replication lag, per connected follower: acked_seq is
    // the follower's last piggybacked ack, lag its distance from this
    // node's WAL head.  Sorted by follower id so the output is stable.
    w.kv("acked_seq", repl_acked_seq_.load(std::memory_order_relaxed));
    std::vector<std::pair<std::string, std::uint64_t>> acks;
    {
      std::lock_guard<std::mutex> lock(repl_acks_mutex_);
      acks = repl_follower_acks_;
    }
    std::sort(acks.begin(), acks.end());
    w.key("replicas").begin_array();
    for (const auto& [follower, acked] : acks) {
      w.begin_object();
      w.kv("follower", follower);
      w.kv("acked_seq", acked);
      w.kv("lag", last_seq > acked ? last_seq - acked : 0);
      w.end_object();
    }
    w.end_array();
  }
  w.kv("uptime_s",
       static_cast<long long>(std::chrono::duration_cast<std::chrono::seconds>(
                                  std::chrono::steady_clock::now() - started_)
                                  .count()));
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

void GroomingService::handle_promote(const ServiceRequest& request,
                                     JsonWriter& w) {
  std::lock_guard<std::mutex> lock(promote_mutex_);
  if (!is_replica()) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(w, request.id, request.has_id,
                                ServiceError::kBadRequest,
                                "promote: this node is already the primary");
  }
  // Drain: the stream client finishes applying the batch it already
  // holds, then stops — no shipped record is half-applied.  Then make
  // everything applied durable before accepting new mutations.
  if (replica_link_ != nullptr) replica_link_->stop_and_drain();
  if (const std::shared_ptr<DurableStore> store = store_ref()) store->flush();
  role_.store(ServiceRole::kPrimary, std::memory_order_release);
  begin_ok_response(w, request.id, request.has_id, ServiceOp::kPromote);
  w.kv("role", "primary");
  w.kv("last_seq", applied_seq());
  w.kv("was_replica_of", config_.replica_of);
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

namespace {

void append_hex(std::string& out, std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 15]);
  }
}

}  // namespace

void GroomingService::handle_repl_handshake(const ServiceRequest& request,
                                            JsonWriter& w) {
  const std::shared_ptr<DurableStore> store = store_ref();
  if (store == nullptr) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(
        w, request.id, request.has_id, ServiceError::kBadRequest,
        "replication requires a durable store (--data-dir)");
  }
  if (request.repl_store_version !=
      static_cast<std::int64_t>(kStoreFormatVersion)) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(
        w, request.id, request.has_id, ServiceError::kStoreIncompatible,
        "replica store format v" +
            std::to_string(request.repl_store_version) +
            " does not match primary v" + std::to_string(kStoreFormatVersion));
  }
  if (request.repl_fingerprint_version !=
      static_cast<std::int64_t>(kFingerprintFormatVersion)) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(
        w, request.id, request.has_id, ServiceError::kStoreIncompatible,
        "replica fingerprint format v" +
            std::to_string(request.repl_fingerprint_version) +
            " does not match primary v" +
            std::to_string(kFingerprintFormatVersion));
  }
  const std::uint64_t last = store->last_seq();
  if (request.repl_start_seq > last) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(
        w, request.id, request.has_id, ServiceError::kBadRequest,
        "replica is ahead of this primary (start_seq " +
            std::to_string(request.repl_start_seq) + " > last_seq " +
            std::to_string(last) + ")");
  }
  std::uint64_t first_available = 0;
  const std::vector<std::string> segments = list_wal_segments(store->dir());
  if (!segments.empty()) {
    first_available = wal_segment_first_seq(segments.front());
  }
  // Snapshot bootstrap when the records right after start_seq are gone
  // (compacted away) — the WAL can only resume a follower whose cursor
  // still lands inside it.
  bool snapshot_mode =
      first_available == 0 || first_available > request.repl_start_seq + 1;
  // History-identity check: the follower's last applied record must be
  // byte-identical to ours at that seq.  After a racing-kill failover an
  // old primary re-attaching as a replica can hold a *diverged* record at
  // its cursor (same seq, different bytes — it was written by a different
  // history); appending our stream after it would silently fork the
  // stores.  A CRC mismatch forces a snapshot bootstrap, which wipes the
  // diverged history wholesale.
  bool diverged = false;
  if (!snapshot_mode && request.repl_has_last_crc &&
      request.repl_start_seq >= first_available) {
    std::uint32_t local_crc = 0;
    store->flush_os();
    if (wal_record_crc(store->dir(), request.repl_start_seq, local_crc) &&
        local_crc != request.repl_last_crc) {
      diverged = true;
      snapshot_mode = true;
    }
  }
  begin_ok_response(w, request.id, request.has_id, ServiceOp::kReplHandshake);
  w.kv("last_seq", last);
  w.kv("first_available", first_available);
  w.kv("mode", snapshot_mode ? "snapshot" : "wal");
  if (diverged) w.kv("diverged", true);
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

void GroomingService::handle_repl_fetch(const ServiceRequest& request,
                                        JsonWriter& w) {
  const std::shared_ptr<DurableStore> store = store_ref();
  if (store == nullptr) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(
        w, request.id, request.has_id, ServiceError::kBadRequest,
        "replication requires a durable store (--data-dir)");
  }
  // Record the follower's applied high-water (monotonic max across
  // followers) before serving — the periodic commit-seq ack.
  if (request.repl_ack_seq > 0) {
    std::uint64_t prev = repl_acked_seq_.load(std::memory_order_relaxed);
    while (request.repl_ack_seq > prev &&
           !repl_acked_seq_.compare_exchange_weak(prev, request.repl_ack_seq,
                                                  std::memory_order_relaxed)) {
    }
  }
  // Followers that identify themselves (--node-id on the replica) also
  // get a per-replica ack entry, surfaced in health so a failover
  // decision can prefer the most-caught-up replica by name.
  if (!request.repl_follower.empty()) {
    std::lock_guard<std::mutex> lock(repl_acks_mutex_);
    auto it = std::find_if(
        repl_follower_acks_.begin(), repl_follower_acks_.end(),
        [&](const auto& entry) { return entry.first == request.repl_follower; });
    if (it == repl_follower_acks_.end()) {
      repl_follower_acks_.emplace_back(request.repl_follower,
                                       request.repl_ack_seq);
    } else if (request.repl_ack_seq > it->second) {
      it->second = request.repl_ack_seq;
    }
  }
  constexpr std::int64_t kDefaultBatch = 256;
  constexpr std::int64_t kMaxBatch = 4096;
  const std::size_t max_records = static_cast<std::size_t>(
      request.repl_max_records == 0
          ? kDefaultBatch
          : std::min(request.repl_max_records, kMaxBatch));
  // Push stdio-buffered appends to the OS so the tail sees every record
  // the service has acked, whatever the fsync policy.
  store->flush_os();
  struct ShippedRecord {
    std::uint64_t seq;
    std::uint8_t type;
    std::string hex;
  };
  std::vector<ShippedRecord> records;
  const WalTailStats stats = tail_wal(
      store->dir(), request.repl_from_seq, max_records,
      [&records](std::uint64_t seq, WalRecordType type,
                 std::string_view body) {
        ShippedRecord rec;
        rec.seq = seq;
        rec.type = static_cast<std::uint8_t>(type);
        rec.hex.reserve(body.size() * 2);
        append_hex(rec.hex, body);
        records.push_back(std::move(rec));
      });
  begin_ok_response(w, request.id, request.has_id, ServiceOp::kReplFetch);
  w.kv("last_seq", store->last_seq());
  w.kv("compacted", stats.compacted);
  w.kv("incomplete", stats.incomplete);
  w.key("records").begin_array();
  for (const ShippedRecord& rec : records) {
    w.begin_array()
        .value(static_cast<long long>(rec.seq))
        .value(static_cast<long long>(rec.type))
        .value(rec.hex)
        .end_array();
  }
  w.end_array();
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
  metrics_.increment(ServiceMetrics::Counter::kReplFetches);
  if (!records.empty()) {
    metrics_.increment(ServiceMetrics::Counter::kReplRecordsShipped,
                       static_cast<long long>(records.size()));
  }
}

void GroomingService::handle_repl_snapshot(const ServiceRequest& request,
                                           JsonWriter& w) {
  const std::shared_ptr<DurableStore> store = store_ref();
  if (store == nullptr) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(
        w, request.id, request.has_id, ServiceError::kBadRequest,
        "replication requires a durable store (--data-dir)");
  }
  SnapshotData snap;
  {
    // Same invariant as snapshot_store: appends happen under
    // plans_mutex_, so last_seq taken here covers exactly this table.
    std::lock_guard<std::mutex> lock(plans_mutex_);
    snap.last_seq = store->last_seq();
    snap.next_plan_id = next_plan_id_;
    snap.plans.reserve(plans_.size());
    for (const auto& [id, plan] : plans_) snap.plans.emplace_back(id, plan);
  }
  std::sort(snap.plans.begin(), snap.plans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  begin_ok_response(w, request.id, request.has_id, ServiceOp::kReplSnapshot);
  w.kv("last_seq", snap.last_seq);
  w.kv("next_plan_id", static_cast<long long>(snap.next_plan_id));
  w.key("plans").begin_array();
  for (const auto& [id, plan] : snap.plans) {
    w.begin_array().value(static_cast<long long>(id));
    write_plan_json(w, plan);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

void GroomingService::apply_replication_record(std::uint64_t seq,
                                               WalRecordType type,
                                               std::string_view body) {
  DecodedWalRecord rec = decode_wal_record(seq, type, body);
  if (rec.type == WalRecordType::kHoldPlan && rec.has_cache_entry &&
      config_.prewarm_cache) {
    cache_.put(rec.cache_key, std::make_shared<const GroomCacheValue>(
                                  std::move(rec.cache_value)));
  }
  const std::shared_ptr<DurableStore> store = store_ref();
  TGROOM_CHECK_MSG(store != nullptr,
                   "replication apply requires an open store");
  std::uint64_t appended = 0;
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    const std::uint64_t expected = store->last_seq() + 1;
    TGROOM_CHECK_MSG(seq == expected,
                     "replication stream gap: shipped seq " +
                         std::to_string(seq) + ", expected " +
                         std::to_string(expected));
    switch (rec.type) {
      case WalRecordType::kHoldPlan: {
        plans_[rec.plan_id] = std::move(rec.plan);
        next_plan_id_ = std::max(next_plan_id_, rec.plan_id + 1);
        break;
      }
      case WalRecordType::kProvision: {
        auto it = plans_.find(rec.plan_id);
        TGROOM_CHECK_MSG(it != plans_.end(),
                         "replicated provision for unknown plan " +
                             std::to_string(rec.plan_id));
        extend_plan_incremental(it->second, rec.pairs);
        break;
      }
      case WalRecordType::kRelease: {
        auto it = plans_.find(rec.plan_id);
        TGROOM_CHECK_MSG(it != plans_.end(),
                         "replicated release for unknown plan " +
                             std::to_string(rec.plan_id));
        if (rec.drop_all) {
          plans_.erase(it);
        } else {
          release_demands(it->second, rec.pairs, rec.repair);
        }
        break;
      }
    }
    // Persist the primary's exact bytes before reporting the seq applied
    // (append under the table lock, fsync off it — the same append-
    // before-ack discipline as the primary's own mutations).
    appended = store->append_raw(type, body);
    TGROOM_CHECK_MSG(appended == seq,
                     "replica WAL diverged: local seq " +
                         std::to_string(appended) + " for shipped seq " +
                         std::to_string(seq));
  }
  store->sync(appended);
  metrics_.increment(ServiceMetrics::Counter::kStoreAppends);
  metrics_.increment(ServiceMetrics::Counter::kReplRecordsApplied);
  snapshot_store(false);
}

void GroomingService::install_replication_snapshot(const SnapshotData& snap) {
  std::lock_guard<std::mutex> lock(plans_mutex_);
  if (const std::shared_ptr<DurableStore> old = store_ref()) {
    // Replace the on-disk store wholesale: whatever partial history this
    // replica had is unreachable from the primary's WAL (that is what
    // forced the snapshot bootstrap), so it cannot be extended — wipe it,
    // persist the snapshot, and reopen with the WAL at last_seq + 1.
    //
    // The old store object stays alive throughout (and for as long as
    // any concurrent health/stats reader holds a store_ref() copy):
    // readers see its in-memory counters and unlinked-but-open files,
    // never a destroyed object.  Only once the fresh store is fully
    // recovered does the pointer swap, so store_ref() is never null
    // mid-bootstrap.
    const std::string dir = old->dir();
    std::error_code ec;
    for (const std::string& path : list_snapshot_files(dir)) {
      std::filesystem::remove(path, ec);
    }
    for (const std::string& path : list_wal_segments(dir)) {
      std::filesystem::remove(path, ec);
    }
    write_snapshot_file(dir, snap);
    DurableStoreOptions options;
    options.dir = dir;
    options.fsync = config_.fsync;
    options.snapshot_every = config_.snapshot_every;
    auto fresh = std::make_shared<DurableStore>(options);
    (void)fresh->take_recovered();  // == snap; the table is set below
    std::lock_guard<std::mutex> plock(store_ptr_mutex_);
    store_ = std::move(fresh);
  }
  plans_.clear();
  plans_.reserve(snap.plans.size());
  for (const auto& [id, plan] : snap.plans) plans_[id] = plan;
  next_plan_id_ = snap.next_plan_id;
}

int GroomingService::run(std::istream& in, std::ostream& out) {
  shutdown_ = false;
  const std::shared_ptr<SessionOrigin> sink =
      std::make_shared<StreamOrigin>(out);
  try {
    open_store();
  } catch (const StoreIncompatibleError& e) {
    sink->deliver(make_error_response(0, false,
                                      ServiceError::kStoreIncompatible,
                                      e.what()),
                  /*from_worker=*/false);
    return 0;
  } catch (const StoreCorruptError& e) {
    sink->deliver(make_error_response(0, false, ServiceError::kInternal,
                                      e.what()),
                  /*from_worker=*/false);
    return 0;
  }
  SessionCore session(*this);
  std::string line;
  while (!stop_requested() && std::getline(in, line)) {
    if (session.admit(line, sink) == SessionCore::Admission::kShutdown) {
      shutdown_ = true;
      break;
    }
  }
  // EOF closes admission but lets the workers finish everything already
  // accepted; `shutdown`/SIGTERM also rejects what is still queued.
  session.drain(/*reject_queued=*/shutdown_ || stop_requested());
  session.write_exit_line(*sink);
  return 0;
}

void GroomingService::finalize_store() {
  const std::shared_ptr<DurableStore> store = store_ref();
  if (store == nullptr) return;
  store->flush();
  snapshot_store(/*force=*/true);
}

void GroomingService::write_exit_metrics(JsonWriter& w) {
  w.clear();
  w.begin_object();
  w.kv("event", "exit");
  w.kv("held_plans", static_cast<long long>(held_plan_count()));
  w.kv("cache_size", static_cast<long long>(cache_.size()));
  w.key("cache");
  write_cache_stats(w);
  w.key("metrics");
  metrics_.write_json(w);
  if (const std::shared_ptr<DurableStore> store = store_ref()) {
    w.key("store");
    store->write_json(w);
  }
  w.end_object();
}

}  // namespace tgroom
