#include "store/durable_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "grooming/incremental.hpp"
#include "grooming/repair.hpp"

namespace tgroom {

namespace fs = std::filesystem;

namespace {

void apply_record(RecoveredState& state, std::uint64_t seq,
                  WalRecordType type, std::string_view body) {
  DecodedWalRecord rec = decode_wal_record(seq, type, body);
  switch (rec.type) {
    case WalRecordType::kHoldPlan: {
      if (rec.has_cache_entry) {
        state.prewarm.push_back(PrewarmEntry{
            rec.cache_key, std::make_shared<const GroomCacheValue>(
                               std::move(rec.cache_value))});
      }
      state.plans[rec.plan_id] = std::move(rec.plan);
      state.next_plan_id = std::max(state.next_plan_id, rec.plan_id + 1);
      break;
    }
    case WalRecordType::kProvision: {
      auto it = state.plans.find(rec.plan_id);
      if (it == state.plans.end()) {
        throw StoreCorruptError(
            "WAL record " + std::to_string(seq) +
            " provisions unknown plan " + std::to_string(rec.plan_id));
      }
      // Deterministic recomputation — replaying the added pairs through
      // the same placement logic reproduces the live table exactly.
      extend_plan_incremental(it->second, rec.pairs);
      break;
    }
    case WalRecordType::kRelease: {
      auto it = state.plans.find(rec.plan_id);
      if (it == state.plans.end()) {
        throw StoreCorruptError(
            "WAL record " + std::to_string(seq) +
            " releases unknown plan " + std::to_string(rec.plan_id));
      }
      if (rec.drop_all) {
        state.plans.erase(it);
      } else {
        // Same deterministic-replay contract as provisions: the record
        // logs the released pairs, release_demands recomputes the repair.
        release_demands(it->second, rec.pairs, rec.repair);
      }
      break;
    }
  }
}

}  // namespace

DecodedWalRecord decode_wal_record(std::uint64_t seq, WalRecordType type,
                                   std::string_view body) {
  DecodedWalRecord rec;
  rec.type = type;
  ByteReader r(body);
  switch (type) {
    case WalRecordType::kHoldPlan: {
      rec.plan_id = r.i64();
      rec.plan = decode_plan(r);
      rec.has_cache_entry = r.u8() != 0;
      if (rec.has_cache_entry) {
        decode_cache_entry(r, rec.cache_key, rec.cache_value);
      }
      break;
    }
    case WalRecordType::kProvision: {
      rec.plan_id = r.i64();
      rec.pairs = decode_demand_pairs(r);
      break;
    }
    case WalRecordType::kRelease: {
      rec.plan_id = r.i64();
      const std::uint8_t flags = r.u8();
      rec.drop_all = (flags & 1u) != 0;
      rec.repair = (flags & 2u) != 0;
      rec.pairs = decode_demand_pairs(r);
      break;
    }
  }
  if (!r.at_end()) {
    throw StoreCorruptError("WAL record " + std::to_string(seq) +
                            " has trailing bytes");
  }
  return rec;
}

void write_store_meta(const std::string& dir, FsyncPolicy fsync) {
  JsonWriter w;
  w.begin_object();
  w.kv("store_version", static_cast<long long>(kStoreFormatVersion));
  w.kv("fsync_policy", fsync_policy_name(fsync));
  w.end_object();
  const std::string text = w.str() + "\n";
  // Best-effort informational sidecar: recovery never reads it, so a
  // torn write here can at worst make store-dump print "unknown".
  std::ofstream(dir + "/store-meta.json", std::ios::binary) << text;
}

std::string read_store_meta_fsync(const std::string& dir) {
  std::string text;
  try {
    if (!read_file_bytes(dir + "/store-meta.json", text)) return "";
    const JsonValue doc = parse_json(text);
    const JsonValue* policy = doc.find("fsync_policy");
    if (policy != nullptr && policy->is_string()) return policy->string;
  } catch (const CheckError&) {
    // Fall through: unreadable sidecar reads as unknown.
  }
  return "";
}

RecoveredState recover_store_state(const std::string& dir,
                                   StoreRecovery* recovery, bool repair) {
  RecoveredState state;
  StoreRecovery rec;
  std::optional<SnapshotData> snap =
      load_latest_snapshot(dir, &rec.snapshots_skipped);
  std::uint64_t after_seq = 0;
  if (snap.has_value()) {
    rec.snapshot_loaded = true;
    rec.snapshot_seq = snap->last_seq;
    after_seq = snap->last_seq;
    state.next_plan_id = snap->next_plan_id;
    state.plans.reserve(snap->plans.size());
    for (auto& [id, plan] : snap->plans) {
      state.plans[id] = std::move(plan);
    }
  }
  const WalReplayStats stats = replay_wal(
      dir, after_seq,
      [&state, &rec](std::uint64_t seq, WalRecordType type,
                     std::string_view body) {
        switch (type) {
          case WalRecordType::kHoldPlan: ++rec.hold_records; break;
          case WalRecordType::kProvision: ++rec.provision_records; break;
          case WalRecordType::kRelease: ++rec.release_records; break;
        }
        apply_record(state, seq, type, body);
      },
      repair);
  rec.wal_segments = stats.segments;
  rec.wal_records_replayed = stats.records;
  rec.wal_records_skipped = stats.records_skipped;
  rec.torn_truncated = stats.torn_truncated;
  rec.wal_first_seq = stats.first_seq;
  rec.last_seq = std::max(after_seq, stats.last_seq);
  if (recovery != nullptr) *recovery = rec;
  return state;
}

DurableStore::DurableStore(DurableStoreOptions options)
    : options_(std::move(options)) {
  TGROOM_CHECK_MSG(!options_.dir.empty(), "durable store needs a directory");
  fs::create_directories(options_.dir);
  recovered_ = recover_store_state(options_.dir, &recovery_, /*repair=*/true);
  WalOptions wal_options;
  wal_options.fsync = options_.fsync;
  wal_options.segment_bytes = options_.segment_bytes;
  wal_options.batch_bytes = options_.batch_bytes;
  wal_ = std::make_unique<WalWriter>(options_.dir, recovery_.last_seq + 1,
                                     wal_options, &metrics_);
  last_snapshot_seq_ = recovery_.snapshot_seq;
  // Replayed-but-unsnapshotted records count toward the next snapshot
  // trigger, so a crash loop cannot grow the WAL without bound.
  records_appended_.store(recovery_.last_seq - recovery_.snapshot_seq,
                          std::memory_order_relaxed);
  write_store_meta(options_.dir, options_.fsync);
}

std::uint64_t DurableStore::append_hold(std::int64_t plan_id,
                                        const GroomingPlan& plan,
                                        const GroomCacheKey& key,
                                        const GroomCacheValue& value) {
  std::lock_guard<std::mutex> lock(encode_mutex_);
  body_.clear();
  body_.i64(plan_id);
  encode_plan(body_, plan);
  body_.u8(1);
  encode_cache_entry(body_, key, value);
  const std::uint64_t seq = wal_->append(WalRecordType::kHoldPlan,
                                         body_.str());
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  return seq;
}

std::uint64_t DurableStore::append_provision(
    std::int64_t plan_id, const std::vector<DemandPair>& pairs) {
  std::lock_guard<std::mutex> lock(encode_mutex_);
  body_.clear();
  body_.i64(plan_id);
  encode_demand_pairs(body_, pairs);
  const std::uint64_t seq =
      wal_->append(WalRecordType::kProvision, body_.str());
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  return seq;
}

std::uint64_t DurableStore::append_release(
    std::int64_t plan_id, const std::vector<DemandPair>& pairs,
    bool drop_all, bool repair) {
  static const std::vector<DemandPair> kNone;
  std::lock_guard<std::mutex> lock(encode_mutex_);
  body_.clear();
  body_.i64(plan_id);
  body_.u8(static_cast<std::uint8_t>((drop_all ? 1u : 0u) |
                                     (repair ? 2u : 0u)));
  encode_demand_pairs(body_, drop_all ? kNone : pairs);
  const std::uint64_t seq =
      wal_->append(WalRecordType::kRelease, body_.str());
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  return seq;
}

std::uint64_t DurableStore::append_raw(WalRecordType type,
                                       std::string_view body) {
  const std::uint64_t seq = wal_->append(type, body);
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  return seq;
}

bool DurableStore::snapshot_due() const {
  if (options_.snapshot_every == 0) return false;
  return records_appended_.load(std::memory_order_relaxed) -
             records_at_last_snapshot_.load(std::memory_order_relaxed) >=
         options_.snapshot_every;
}

bool DurableStore::write_snapshot(const SnapshotData& snap) {
  std::unique_lock<std::mutex> lock(snapshot_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return false;  // already being written
  if (snap.last_seq == 0 || snap.last_seq <= last_snapshot_seq_) {
    return false;
  }
  // Everything the snapshot covers must be durable before the snapshot
  // can supersede (and compact away) its WAL records.
  wal_->flush();
  write_snapshot_file(options_.dir, snap);
  metrics_.snapshots_written.fetch_add(1, std::memory_order_relaxed);
  last_snapshot_seq_ = snap.last_seq;
  records_at_last_snapshot_.store(
      records_appended_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);

  // Compaction: older snapshots are strictly worse than the one just
  // written; a WAL segment is retired once every record in it is <=
  // snap.last_seq, i.e. the NEXT segment starts at or before
  // last_seq + 1.  The final (active) segment is never touched.
  for (const std::string& path : list_snapshot_files(options_.dir)) {
    if (snapshot_file_last_seq(path) < snap.last_seq) fs::remove(path);
  }
  const std::vector<std::string> segments = list_wal_segments(options_.dir);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (wal_segment_first_seq(segments[i + 1]) <= snap.last_seq + 1) {
      fs::remove(segments[i]);
      metrics_.segments_retired.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return true;
}

void DurableStore::write_json(JsonWriter& w) const {
  const long long fsyncs = metrics_.fsyncs.load(std::memory_order_relaxed);
  const long long batch_total =
      metrics_.sync_batch_total.load(std::memory_order_relaxed);
  w.begin_object();
  w.kv("fsync_policy", fsync_policy_name(options_.fsync));
  w.kv("last_seq", wal_->last_appended_seq());
  w.kv("appends", metrics_.appends.load(std::memory_order_relaxed));
  w.kv("appended_bytes",
       metrics_.appended_bytes.load(std::memory_order_relaxed));
  w.kv("fsyncs", fsyncs);
  w.kv("sync_batch_max",
       metrics_.sync_batch_max.load(std::memory_order_relaxed));
  w.kv("sync_batch_mean",
       fsyncs > 0 ? static_cast<double>(batch_total) /
                        static_cast<double>(fsyncs)
                  : 0.0);
  w.kv("snapshots_written",
       metrics_.snapshots_written.load(std::memory_order_relaxed));
  w.kv("segments_retired",
       metrics_.segments_retired.load(std::memory_order_relaxed));
  w.key("recovery");
  w.begin_object();
  w.kv("snapshot_loaded", recovery_.snapshot_loaded);
  w.kv("snapshot_seq", recovery_.snapshot_seq);
  w.kv("snapshots_skipped",
       static_cast<std::uint64_t>(recovery_.snapshots_skipped));
  w.kv("wal_segments", static_cast<std::uint64_t>(recovery_.wal_segments));
  w.kv("wal_records_replayed",
       static_cast<std::uint64_t>(recovery_.wal_records_replayed));
  w.kv("wal_records_skipped",
       static_cast<std::uint64_t>(recovery_.wal_records_skipped));
  w.kv("hold_records", static_cast<std::uint64_t>(recovery_.hold_records));
  w.kv("provision_records",
       static_cast<std::uint64_t>(recovery_.provision_records));
  w.kv("release_records",
       static_cast<std::uint64_t>(recovery_.release_records));
  w.kv("torn_truncated", recovery_.torn_truncated);
  w.kv("wal_first_seq", recovery_.wal_first_seq);
  w.kv("last_seq", recovery_.last_seq);
  w.end_object();
  w.end_object();
}

}  // namespace tgroom
