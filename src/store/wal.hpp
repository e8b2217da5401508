// Append-only write-ahead log of provisioning mutations.
//
// The log is a directory of segment files named `wal-<first_seq>.log`.
// Each segment starts with a versioned header (format.hpp) carrying the
// sequence number of its first record; records are framed as
//
//   [u32 payload_len][u32 crc32c(payload)][payload]
//   payload = [u64 seq][u8 record_type][type-specific body]
//
// Sequence numbers are monotonic from 1 across segments with no gaps, so
// replay can verify it saw every mutation.  Durability is tiered by
// FsyncPolicy:
//
//  - kAlways: sync(seq) blocks until an fsync covers seq.  Concurrent
//    callers group-commit — one leader fsyncs for everyone waiting, so
//    the fsync count stays far below the append count under load.
//  - kBatch: appends accumulate; a sync triggers fflush+fsync only once
//    `batch_bytes` of unsynced data has built up (flush() forces one).
//  - kNone: data reaches the kernel only via stdio's own buffering;
//    flush() still fflushes so a clean shutdown loses nothing.
//
// A failed fflush, fsync or fclose of a segment is fatal: the writer
// prints the error to stderr and aborts, without retrying, so no sequence
// number is marked durable (and no mutation acked) past a write the
// kernel may have dropped.
//
// Replay distinguishes a *torn tail* (the machine died mid-append: the
// final records of the final segment are short or fail CRC) from hard
// corruption (the same damage anywhere else).  Tears are truncated away
// and recovery proceeds; corruption raises StoreCorruptError.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "store/format.hpp"

namespace tgroom {

enum class FsyncPolicy { kNone, kBatch, kAlways };

const char* fsync_policy_name(FsyncPolicy policy);
/// Parses "none" / "batch" / "always"; throws CheckError otherwise.
FsyncPolicy parse_fsync_policy(const std::string& text);

enum class WalRecordType : std::uint8_t {
  kHoldPlan = 1,   // body: i64 plan_id, plan, cache entry (prewarm payload)
  kProvision = 2,  // body: i64 plan_id, demand pairs appended to that plan
  kRelease = 3,    // body: i64 plan_id, u8 flags (bit0 = drop whole plan,
                   // bit1 = local repair), demand pairs released
};

/// Counters shared by the WAL writer, snapshotter, and compactor; read by
/// the service's stats op.  Relaxed atomics, same discipline as
/// ServiceMetrics.
struct StoreMetrics {
  std::atomic<long long> appends{0};
  std::atomic<long long> appended_bytes{0};
  std::atomic<long long> fsyncs{0};
  /// Records covered per fsync (sum and max) — the group-commit batch
  /// size distribution.  total / fsyncs = mean batch.
  std::atomic<long long> sync_batch_total{0};
  std::atomic<long long> sync_batch_max{0};
  std::atomic<long long> snapshots_written{0};
  std::atomic<long long> segments_retired{0};
};

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Roll to a new segment once the current one exceeds this size.
  std::uint64_t segment_bytes = 4ull << 20;
  /// kBatch: fsync once this many unsynced bytes accumulate.
  std::uint64_t batch_bytes = 64ull << 10;
};

class WalWriter {
 public:
  /// Opens a fresh segment `wal-<next_seq>.log` in `dir` (which must
  /// exist).  `next_seq` is the sequence number the first append gets —
  /// recovery passes last replayed seq + 1 so the writer never touches
  /// old segments.
  WalWriter(std::string dir, std::uint64_t next_seq, WalOptions options,
            StoreMetrics* metrics);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record and returns its sequence number.  Thread-safe.
  /// The record is in stdio buffers after this call; call sync() with the
  /// returned seq to make it durable under the configured policy.
  std::uint64_t append(WalRecordType type, std::string_view body);

  /// Applies the fsync policy for a record previously appended as `seq`:
  /// kAlways blocks until an fsync covers it (group-committing with
  /// concurrent callers), kBatch fsyncs only past the byte threshold,
  /// kNone is a no-op.
  void sync(std::uint64_t seq);

  /// Forces everything appended so far to disk (fflush always; fsync
  /// unless the policy is kNone).  Used at snapshot, drain, and shutdown.
  void flush();

  /// Pushes stdio-buffered appends into the OS page cache (fflush only,
  /// no fsync, no durability bookkeeping).  The replication shipper calls
  /// this before tailing the live segment so tail_wal sees every acked
  /// record even under fsync=batch/none; it deliberately does not count
  /// as a sync for the fsync policy.
  void flush_to_os();

  std::uint64_t last_appended_seq() const;
  /// Segment files written by this writer, oldest first (for compaction).
  std::vector<std::string> segment_paths() const;

 private:
  void open_segment_locked(std::uint64_t first_seq);
  void roll_locked(std::unique_lock<std::mutex>& lock);
  void sync_to_locked(std::unique_lock<std::mutex>& lock,
                      std::uint64_t target_seq);

  const std::string dir_;
  const WalOptions options_;
  StoreMetrics* const metrics_;

  mutable std::mutex mutex_;
  std::condition_variable sync_cv_;
  std::FILE* file_ = nullptr;
  std::string file_path_;
  std::vector<std::string> segments_;
  std::uint64_t segment_bytes_written_ = 0;
  std::uint64_t next_seq_;
  std::uint64_t written_seq_ = 0;  // last appended
  std::uint64_t synced_seq_ = 0;   // last covered by an fsync
  std::uint64_t bytes_written_total_ = 0;
  std::uint64_t bytes_synced_total_ = 0;
  bool sync_in_progress_ = false;
  ByteWriter frame_;  // reused append scratch

  static constexpr std::string_view kSegmentMagic = "TGROOMWL";
  friend struct WalReplayAccess;
};

struct WalReplayStats {
  std::size_t segments = 0;
  std::size_t records = 0;          // delivered to the callback
  std::size_t records_skipped = 0;  // seq <= after_seq (covered by snapshot)
  std::uint64_t bytes = 0;
  bool torn_truncated = false;
  std::uint64_t first_seq = 0;  // first record seq present on disk (0 = none)
  std::uint64_t last_seq = 0;   // 0 if nothing replayed or skipped
};

/// Replays every record with seq > after_seq from the segments in `dir`,
/// in sequence order, into `callback(seq, type, body)`.
///
/// A short or CRC-failing record at the tail of the *final* segment is a
/// torn write: replay stops there and, when `repair` is true, truncates
/// the segment back to the last whole record (deleting the segment
/// entirely if no records survive, so a restarted writer can reuse the
/// sequence-numbered filename).  The same damage in any non-final
/// segment, a sequence gap, or a bad header raises StoreCorruptError;
/// a header from another format version raises StoreIncompatibleError.
WalReplayStats replay_wal(
    const std::string& dir, std::uint64_t after_seq,
    const std::function<void(std::uint64_t seq, WalRecordType type,
                             std::string_view body)>& callback,
    bool repair);

struct WalTailStats {
  std::size_t records = 0;            // delivered to the callback
  std::uint64_t last_seq = 0;         // cursor after the call (>= after_seq)
  bool incomplete = false;            // live tail mid-append: poll again
  std::uint64_t first_available = 0;  // first seq on disk (0 = no segments)
  bool compacted = false;  // after_seq predates first_available: the caller
                           // needs a snapshot bootstrap, not more records
};

/// Read-only tail of a *live* log: delivers up to `max_records` whole
/// records with seq > after_seq, in order, into `callback(seq, type,
/// body)` and never mutates any file.  Where replay_wal treats a short or
/// CRC-failing record at the end of the final segment as a torn write to
/// truncate, a live log reaches that exact byte state on every append the
/// writer has started but not finished — so tail_wal reports it as
/// `incomplete` (re-poll once the writer flushes more bytes).  A segment
/// that vanishes between listing and open (compaction race) is also just
/// `incomplete`.  Damage in a non-final segment, sequence gaps, and bad
/// headers raise StoreCorruptError exactly like replay; foreign format
/// versions raise StoreIncompatibleError.  `max_records == 0` means
/// unlimited.  Segments wholly covered by after_seq are skipped without
/// being read.
WalTailStats tail_wal(
    const std::string& dir, std::uint64_t after_seq, std::size_t max_records,
    const std::function<void(std::uint64_t seq, WalRecordType type,
                             std::string_view body)>& callback);

/// CRC32C of the framed payload ([seq][type][body]) of record `seq`,
/// read from `dir`'s segments — exactly the checksum the writer framed
/// the record with, so two WALs agree on it iff they hold byte-identical
/// records at that seq.  Returns false when the record is absent
/// (compacted away, beyond the tail, or still incomplete on disk).  The
/// replication handshake compares this across nodes to detect a
/// diverged history before appending past it.
bool wal_record_crc(const std::string& dir, std::uint64_t seq,
                    std::uint32_t& crc);

/// Segment paths in `dir`, sorted by first sequence number (filename
/// order).  Shared by replay, tailing, and compaction.
std::vector<std::string> list_wal_segments(const std::string& dir);

/// First sequence number encoded in a segment filename, or 0 if the name
/// is not a WAL segment.
std::uint64_t wal_segment_first_seq(const std::string& path);

}  // namespace tgroom
