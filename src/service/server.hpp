// The grooming service: a long-running daemon over the batch substrate.
//
// One GroomingService owns the cross-request state — the groom-result LRU
// cache, the held-plan table for incremental provisioning, the durable
// store, and the metrics registry — and answers requests through
// execute_into().  It is an EventLoopHandler (service/handler.hpp): the
// session core (service/session.hpp) admits, queues, and drains requests
// for it, on stdin via run() and on TCP via serve_tcp().  Both transports
// share that core, so admission, `overloaded`, deadlines, and the drain
// order (queued work rejected, in-flight work finished, store flushed and
// snapshotted, then the `shutdown` ack) are the same on each.
//
// Deadlines: a request's `deadline_ms` (or the config default) is checked
// between pipeline stages (dequeue, post-compute); an expired groom still
// populates the cache so a retry hits.
//
// With workers == 0 requests execute inline on the reading thread in
// arrival order (deterministic, single-core CI friendly); responses are
// then in order.  With workers > 0 responses may interleave; the echoed
// "id" correlates them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "service/cache.hpp"
#include "service/handler.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "store/durable_store.hpp"
#include "util/json.hpp"

namespace tgroom {

struct GroomingWorkspace;

/// Which side of the replication stream this service is on.  A replica
/// serves read-only traffic (stateless groom/provision/release, stats,
/// health) and rejects mutations with a structured `read_only` error; a
/// `promote` op flips a caught-up replica to primary at runtime.
enum class ServiceRole { kPrimary, kReplica };

/// Follower-side stream client, implemented in src/replication/ (an
/// abstract hook so service/ never depends on replication/).  The service
/// uses it for stats/health reporting and for the promotion drain.
class ReplicaLink {
 public:
  virtual ~ReplicaLink() = default;
  /// Stops the tailing thread after it finishes applying the batch it is
  /// in the middle of (the promotion "drain").  Idempotent; joins.
  virtual void stop_and_drain() = 0;
  /// Emits status keys (connected, applied_seq, primary_last_seq, lag,
  /// reconnects, snapshot_bootstraps, last_error) into an open object.
  virtual void write_status_json(JsonWriter& w) const = 0;
  virtual std::uint64_t applied_seq() const = 0;
  virtual std::uint64_t primary_last_seq() const = 0;
};

struct ServiceConfig {
  std::size_t workers = 0;        // 0 = inline, in-order execution
  std::size_t queue_capacity = 256;  // admission bound (workers > 0)
  std::size_t cache_capacity = 128;  // groom LRU entries; 0 disables
  std::size_t cache_shards = 0;   // lock stripes; 0 = auto (power of two)
  std::int64_t default_deadline_ms = 0;  // applied when a request has none
  bool metrics_on_exit = true;  // final {"event":"exit",...} metrics line

  // Durability (empty data_dir = in-memory only, the pre-store behavior).
  std::string data_dir;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  std::uint64_t snapshot_every = 1024;  // records per snapshot; 0 disables
  bool prewarm_cache = true;  // seed the PlanCache from recovered WAL holds

  // Replication: non-empty = start as a read-only replica tailing this
  // primary ("host:port").  The stream client itself lives in
  // src/replication/ and is wired in via set_replica_link().
  std::string replica_of;

  // Cluster identity (all optional; used by `tgroom route`).  node_id is
  // echoed in health and keys the primary's per-replica ack table; the
  // shard coordinates are echoed in health so the router can reject a
  // node whose position disagrees with its cluster map at connect time.
  std::string node_id;
  int shard_index = -1;  // < 0 = not part of a sharded cluster
  int shard_count = 0;   // 0 = not part of a sharded cluster
};

class GroomingService : public EventLoopHandler {
 public:
  explicit GroomingService(const ServiceConfig& config)
      : config_(config),
        cache_(config.cache_capacity, config.cache_shards) {
    if (!config_.replica_of.empty()) {
      role_.store(ServiceRole::kReplica, std::memory_order_relaxed);
    }
  }

  /// Serves one NDJSON session from `in` to `out` until EOF, a `shutdown`
  /// request, or request_stop(), then drains it.  Always returns 0;
  /// protocol failures are responses, not exit codes.
  int run(std::istream& in, std::ostream& out);

  /// True once a `shutdown` request ended the last run() session.
  bool shutdown_requested() const { return shutdown_; }

  /// Executes one parsed request, writing the response line into `w`
  /// (cleared first).  This is the worker-task body: with a warm
  /// workspace and writer, a cache-hit groom performs zero heap
  /// allocations end to end (DESIGN.md §11), and the per-request
  /// allocation count is recorded into the metrics registry.
  void execute_into(ServiceRequest& request, GroomingWorkspace& workspace,
                    JsonWriter& w) override;

  /// Convenience wrapper returning a fresh response string (tests, one-off
  /// calls).  `workspace` may be null.
  std::string execute(ServiceRequest& request, GroomingWorkspace* workspace);

  ServiceMetrics& metrics() override { return metrics_; }
  const ServiceConfig& config() const { return config_; }
  std::size_t held_plan_count() const;

  // ---- EventLoopHandler (service/handler.hpp) ----------------------------
  std::size_t worker_count() const override { return config_.workers; }
  std::size_t handler_queue_capacity() const override {
    return config_.queue_capacity;
  }
  std::int64_t handler_default_deadline_ms() const override {
    return config_.default_deadline_ms;
  }
  bool metrics_on_exit() const override { return config_.metrics_on_exit; }
  bool drain_requested() const override { return stop_requested(); }
  const char* log_name() const override { return "tgroom serve"; }
  void finalize() override { finalize_store(); }

  /// Opens the durable store when `config.data_dir` is set: recovers the
  /// held-plan table (snapshot + WAL replay), optionally pre-warms the
  /// cache, and starts the WAL writer.  Idempotent; a no-op without a
  /// data_dir.  Throws StoreIncompatibleError on a format-version
  /// mismatch and StoreCorruptError on unrepairable damage — `tgroom
  /// serve` calls this before entering the session loop so those become
  /// structured errors, not mid-session surprises.  run() also calls it.
  void open_store();

  /// The store, or nullptr when running in-memory (tests, stats).
  /// Returned as a shared_ptr because a replication snapshot bootstrap
  /// can swap the store out from under concurrent readers (health,
  /// stats, repl_fetch) — the reference keeps the old object alive until
  /// the caller drops it.
  std::shared_ptr<DurableStore> store() const { return store_ref(); }

  /// Clean-exit durability: flushes the WAL and forces a snapshot so the
  /// next start replays (almost) nothing.  A no-op without a store.  The
  /// session core's drain calls it (as finalize()) before the `shutdown`
  /// ack, on either transport.
  void finalize_store();

  /// The {"event":"exit",...} metrics document (held plans, cache,
  /// counters, store): run()'s last output line, and the TCP front-end's
  /// last log line.  `w` is cleared first.
  void write_exit_metrics(JsonWriter& w) override;

  /// Cooperative stop for signal handlers: the read loop drains and exits
  /// at the next line boundary (the `tgroom serve` command wires SIGTERM
  /// here without SA_RESTART, so a blocked read fails and drains too).
  static void request_stop() { stop_flag().store(true); }
  static void clear_stop() { stop_flag().store(false); }
  static bool stop_requested() { return stop_flag().load(); }

  // ---- Replication ------------------------------------------------------

  ServiceRole role() const { return role_.load(std::memory_order_acquire); }
  bool is_replica() const { return role() == ServiceRole::kReplica; }

  /// Wires the follower-side stream client in (replica mode).  Called
  /// once, before the service starts serving; the pointer must outlive
  /// every run()/event-loop session.
  void set_replica_link(ReplicaLink* link) { replica_link_ = link; }

  /// Follower apply path: decodes one shipped WAL record, applies it to
  /// the live held-plan table under the plans lock (prewarming the cache
  /// from hold records), and persists the identical bytes into this
  /// node's own store via append_raw — asserting the assigned local seq
  /// equals the primary's, so the two WALs stay record-for-record equal.
  /// Called from the replication client's thread.
  void apply_replication_record(std::uint64_t seq, WalRecordType type,
                                std::string_view body);

  /// Snapshot bootstrap: replaces the held-plan table (and, when a store
  /// is open, its on-disk content — old snapshots/WAL wiped, `snap`
  /// written, store reopened so the WAL resumes at snap.last_seq + 1).
  void install_replication_snapshot(const SnapshotData& snap);

  /// The seq this node has fully applied and persisted (replica
  /// catch-up probe; equals store last_seq when a store is open).
  std::uint64_t applied_seq() const;

  /// CRC32C of the framed payload of WAL record `seq` in this node's own
  /// store — the history-identity probe the replication handshake sends
  /// so the primary can detect a diverged record at the follower's
  /// cursor.  False when no store is open, seq is 0, or the record has
  /// been compacted away.
  bool wal_crc_at(std::uint64_t seq, std::uint32_t& crc) const;

  /// True for requests that would mutate server-side state (held-plan
  /// holds, held-plan provisions/releases) — exactly what a replica
  /// rejects with `read_only`.  Public because the cluster router routes
  /// by the same rule: mutations to the shard primary, reads anywhere.
  static bool is_mutating(const ServiceRequest& request);

 private:
  static std::atomic<bool>& stop_flag();

  void handle_groom(ServiceRequest& request, GroomingWorkspace& workspace,
                    JsonWriter& w);
  void handle_provision(ServiceRequest& request, JsonWriter& w);
  void handle_release(ServiceRequest& request, JsonWriter& w);
  void handle_stats(const ServiceRequest& request, JsonWriter& w);
  void handle_health(const ServiceRequest& request, JsonWriter& w);
  void handle_promote(const ServiceRequest& request, JsonWriter& w);
  void handle_repl_handshake(const ServiceRequest& request, JsonWriter& w);
  void handle_repl_fetch(const ServiceRequest& request, JsonWriter& w);
  void handle_repl_snapshot(const ServiceRequest& request, JsonWriter& w);
  void write_cache_stats(JsonWriter& w) const;
  bool deadline_expired(const ServiceRequest& request) const;
  void deadline_response(const ServiceRequest& request, JsonWriter& w);
  /// Snapshots the held-plan table into the store; with `force` false
  /// only when the store says one is due.
  void snapshot_store(bool force);
  /// Thread-safe copy of the store pointer.  Every store access outside
  /// plans_mutex_ goes through a local copy from here: a replication
  /// snapshot bootstrap swaps store_ at runtime, and the shared_ptr keeps
  /// the old store alive for readers mid-call.  store_ptr_mutex_ is the
  /// innermost lock — nothing else is ever taken while holding it.
  std::shared_ptr<DurableStore> store_ref() const {
    std::lock_guard<std::mutex> lock(store_ptr_mutex_);
    return store_;
  }

  ServiceConfig config_;
  PlanCache cache_;
  ServiceMetrics metrics_;
  mutable std::mutex plans_mutex_;  // guards plans_ and next_plan_id_;
                                    // held across a held-plan provision so
                                    // concurrent provisions serialize, and
                                    // across the matching WAL append so log
                                    // order equals table order
  std::unordered_map<std::int64_t, GroomingPlan> plans_;
  std::int64_t next_plan_id_ = 1;
  mutable std::mutex store_ptr_mutex_;  // guards the store_ pointer itself
                                        // (not the store's contents)
  std::shared_ptr<DurableStore> store_;  // read via store_ref()
  bool shutdown_ = false;

  std::atomic<ServiceRole> role_{ServiceRole::kPrimary};
  ReplicaLink* replica_link_ = nullptr;  // non-null only in replica mode
  std::mutex promote_mutex_;             // serializes promote requests
  std::atomic<std::uint64_t> repl_acked_seq_{0};  // followers' ack high-water
  mutable std::mutex repl_acks_mutex_;  // guards repl_follower_acks_ (tiny:
                                        // one entry per connected follower,
                                        // touched per fetch and per health)
  std::vector<std::pair<std::string, std::uint64_t>> repl_follower_acks_;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

}  // namespace tgroom
