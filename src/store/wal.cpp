#include "store/wal.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <unistd.h>

namespace tgroom {

namespace fs = std::filesystem;

namespace {

// magic(8) + store version(4) + fingerprint version(4) + first_seq(8).
constexpr std::size_t kSegmentHeaderBytes = 24;
constexpr std::size_t kRecordPrefixBytes = 8;  // u32 len + u32 crc
constexpr std::size_t kPayloadMinBytes = 9;    // u64 seq + u8 type
// A record longer than this is framing damage, not a real record: the
// writer rolls segments at a few MiB, so nothing legitimate approaches it.
constexpr std::uint32_t kMaxPayloadBytes = 256u << 20;

// A failed flush, fsync or close leaves the segment's on-disk state
// unknown, and a retried fsync can report success over pages the kernel
// already dropped.  So the writer neither retries nor carries on: it
// stops the process before a mutation it cannot prove durable is acked.
[[noreturn]] void die_on_io_error(const char* call, const std::string& dir) {
  std::fprintf(stderr, "tgroom: fatal: WAL %s failed in %s: %s\n", call,
               dir.c_str(), std::strerror(errno));
  std::abort();
}

void flush_or_die(std::FILE* file, const std::string& dir) {
  if (std::fflush(file) != 0) die_on_io_error("fflush", dir);
}

void fsync_or_die(std::FILE* file, const std::string& dir) {
  if (::fsync(fileno(file)) != 0) die_on_io_error("fsync", dir);
}

void close_or_die(std::FILE* file, const std::string& dir) {
  if (std::fclose(file) != 0) die_on_io_error("fclose", dir);
}

std::uint32_t read_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::string segment_path(const std::string& dir, std::uint64_t first_seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%020llu.log",
                static_cast<unsigned long long>(first_seq));
  return dir + "/" + name;
}

}  // namespace

const char* fsync_policy_name(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "?";
}

FsyncPolicy parse_fsync_policy(const std::string& text) {
  if (text == "none") return FsyncPolicy::kNone;
  if (text == "batch") return FsyncPolicy::kBatch;
  if (text == "always") return FsyncPolicy::kAlways;
  throw CheckError("unknown fsync policy '" + text +
                   "' (expected always, batch, or none)");
}

std::uint64_t wal_segment_first_seq(const std::string& path) {
  const std::string name = fs::path(path).filename().string();
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return 0;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return 0;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return 0;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return seq;
}

std::vector<std::string> list_wal_segments(const std::string& dir) {
  std::vector<std::string> paths;
  if (!fs::exists(dir)) return paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (wal_segment_first_seq(path) != 0) paths.push_back(path);
  }
  // Zero-padded fixed-width sequence numbers make lexicographic order
  // equal to numeric order.
  std::sort(paths.begin(), paths.end());
  return paths;
}

WalWriter::WalWriter(std::string dir, std::uint64_t next_seq,
                     WalOptions options, StoreMetrics* metrics)
    : dir_(std::move(dir)),
      options_(options),
      metrics_(metrics),
      next_seq_(next_seq) {
  TGROOM_CHECK_MSG(next_seq >= 1, "WAL sequence numbers start at 1");
  written_seq_ = next_seq - 1;
  synced_seq_ = written_seq_;
  open_segment_locked(next_seq_);
}

WalWriter::~WalWriter() {
  try {
    flush();
  } catch (...) {
    // Destructor: nothing sensible to do beyond closing the stream.
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) close_or_die(file_, dir_);
  file_ = nullptr;
}

void WalWriter::open_segment_locked(std::uint64_t first_seq) {
  file_path_ = segment_path(dir_, first_seq);
  if (fs::exists(file_path_)) {
    // A restart with no write since the last open finds the tail segment
    // that open created: recovery read its header and found no record
    // (it deletes a segment whose only record is torn), so it holds
    // exactly the header.  Append to it.
    TGROOM_CHECK_MSG(fs::file_size(file_path_) == kSegmentHeaderBytes,
                     "WAL segment already exists: " + file_path_);
    file_ = std::fopen(file_path_.c_str(), "ab");
    TGROOM_CHECK_MSG(file_ != nullptr,
                     "cannot reopen WAL segment: " + file_path_);
    segments_.push_back(file_path_);
    segment_bytes_written_ = kSegmentHeaderBytes;
    return;
  }
  file_ = std::fopen(file_path_.c_str(), "wb");
  TGROOM_CHECK_MSG(file_ != nullptr,
                   "cannot create WAL segment: " + file_path_);
  frame_.clear();
  write_file_header(frame_, kSegmentMagic);
  frame_.u64(first_seq);
  TGROOM_CHECK(frame_.size() == kSegmentHeaderBytes);
  const std::size_t wrote =
      std::fwrite(frame_.str().data(), 1, frame_.size(), file_);
  TGROOM_CHECK_MSG(wrote == frame_.size(),
                   "short write to WAL segment: " + file_path_);
  segments_.push_back(file_path_);
  segment_bytes_written_ = kSegmentHeaderBytes;
  bytes_written_total_ += kSegmentHeaderBytes;
}

void WalWriter::roll_locked(std::unique_lock<std::mutex>& lock) {
  // The caller guarantees no group-commit leader holds the current FILE*
  // outside the lock, and we keep the mutex for the whole roll.
  (void)lock;
  TGROOM_DCHECK(!sync_in_progress_);
  flush_or_die(file_, dir_);
  if (options_.fsync != FsyncPolicy::kNone) {
    fsync_or_die(file_, dir_);
    if (metrics_ != nullptr) {
      metrics_->fsyncs.fetch_add(1, std::memory_order_relaxed);
      const long long batch =
          static_cast<long long>(written_seq_ - synced_seq_);
      if (batch > 0) {
        metrics_->sync_batch_total.fetch_add(batch, std::memory_order_relaxed);
        long long prev_max =
            metrics_->sync_batch_max.load(std::memory_order_relaxed);
        while (batch > prev_max &&
               !metrics_->sync_batch_max.compare_exchange_weak(
                   prev_max, batch, std::memory_order_relaxed)) {
        }
      }
    }
    synced_seq_ = written_seq_;
    bytes_synced_total_ = bytes_written_total_;
  }
  close_or_die(file_, dir_);
  file_ = nullptr;
  open_segment_locked(written_seq_ + 1);
  sync_cv_.notify_all();
}

std::uint64_t WalWriter::append(WalRecordType type, std::string_view body) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t record_bytes =
      kRecordPrefixBytes + kPayloadMinBytes + body.size();
  // Roll BEFORE assigning the sequence number or touching the shared
  // frame_ scratch: waiting out a group-commit leader releases the
  // mutex, and a concurrent append must not write a later seq ahead of
  // ours or reuse frame_ under us.  Re-check fullness after every wait —
  // another thread may have rolled while we slept.
  while (segment_bytes_written_ > kSegmentHeaderBytes &&
         segment_bytes_written_ + record_bytes > options_.segment_bytes) {
    if (sync_in_progress_) {
      sync_cv_.wait(lock);
      continue;
    }
    roll_locked(lock);
  }
  frame_.clear();
  const std::uint64_t seq = next_seq_++;
  frame_.u64(seq);
  frame_.u8(static_cast<std::uint8_t>(type));
  frame_.bytes(body.data(), body.size());
  char prefix[kRecordPrefixBytes];
  const std::uint32_t len = static_cast<std::uint32_t>(frame_.size());
  const std::uint32_t crc = crc32c(frame_.str().data(), frame_.size());
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>(len >> (8 * i));
    prefix[4 + i] = static_cast<char>(crc >> (8 * i));
  }
  std::size_t wrote = std::fwrite(prefix, 1, sizeof(prefix), file_);
  wrote += std::fwrite(frame_.str().data(), 1, frame_.size(), file_);
  TGROOM_CHECK_MSG(wrote == record_bytes,
                   "short write to WAL segment: " + file_path_);
  segment_bytes_written_ += record_bytes;
  bytes_written_total_ += record_bytes;
  written_seq_ = seq;
  if (metrics_ != nullptr) {
    metrics_->appends.fetch_add(1, std::memory_order_relaxed);
    metrics_->appended_bytes.fetch_add(static_cast<long long>(record_bytes),
                                       std::memory_order_relaxed);
  }
  return seq;
}

void WalWriter::sync_to_locked(std::unique_lock<std::mutex>& lock,
                               std::uint64_t target_seq) {
  sync_in_progress_ = true;
  const std::uint64_t prev_synced = synced_seq_;
  const std::uint64_t target_bytes = bytes_written_total_;
  std::FILE* file = file_;
  lock.unlock();
  flush_or_die(file, dir_);
  fsync_or_die(file, dir_);
  lock.lock();
  sync_in_progress_ = false;
  // Rolls wait for !sync_in_progress_, so nobody advanced synced_seq_
  // while we were out of the lock.
  synced_seq_ = target_seq;
  bytes_synced_total_ = target_bytes;
  if (metrics_ != nullptr) {
    metrics_->fsyncs.fetch_add(1, std::memory_order_relaxed);
    const long long batch = static_cast<long long>(target_seq - prev_synced);
    if (batch > 0) {
      metrics_->sync_batch_total.fetch_add(batch, std::memory_order_relaxed);
      long long prev_max =
          metrics_->sync_batch_max.load(std::memory_order_relaxed);
      while (batch > prev_max &&
             !metrics_->sync_batch_max.compare_exchange_weak(
                 prev_max, batch, std::memory_order_relaxed)) {
      }
    }
  }
  sync_cv_.notify_all();
}

void WalWriter::sync(std::uint64_t seq) {
  if (options_.fsync == FsyncPolicy::kNone) return;
  std::unique_lock<std::mutex> lock(mutex_);
  if (options_.fsync == FsyncPolicy::kBatch) {
    if (bytes_written_total_ - bytes_synced_total_ < options_.batch_bytes) {
      return;
    }
    if (sync_in_progress_) return;  // someone else is already flushing
    sync_to_locked(lock, written_seq_);
    return;
  }
  // kAlways: group commit.  The first waiter becomes the leader and
  // fsyncs everything written so far; later callers whose seq that fsync
  // covers just wake up and leave.
  while (synced_seq_ < seq) {
    if (sync_in_progress_) {
      sync_cv_.wait(lock);
    } else {
      sync_to_locked(lock, written_seq_);
    }
  }
}

void WalWriter::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  if (options_.fsync == FsyncPolicy::kNone) {
    flush_or_die(file_, dir_);
    return;
  }
  while (synced_seq_ < written_seq_ || bytes_synced_total_ <
                                           bytes_written_total_) {
    if (sync_in_progress_) {
      sync_cv_.wait(lock);
    } else {
      sync_to_locked(lock, written_seq_);
    }
  }
}

void WalWriter::flush_to_os() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Holding the mutex keeps file_ from being closed by a roll; stdio
  // streams are internally locked, so a concurrent group-commit leader
  // fflushing the same FILE* outside our mutex is safe.
  if (file_ != nullptr) flush_or_die(file_, dir_);
}

std::uint64_t WalWriter::last_appended_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return written_seq_;
}

std::vector<std::string> WalWriter::segment_paths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_;
}

WalReplayStats replay_wal(
    const std::string& dir, std::uint64_t after_seq,
    const std::function<void(std::uint64_t seq, WalRecordType type,
                             std::string_view body)>& callback,
    bool repair) {
  WalReplayStats stats;
  const std::vector<std::string> segments = list_wal_segments(dir);
  std::uint64_t next_expected = 0;  // 0 = not yet pinned by a header
  for (std::size_t si = 0; si < segments.size(); ++si) {
    const std::string& path = segments[si];
    const bool final_segment = (si + 1 == segments.size());
    std::string data;
    TGROOM_CHECK_MSG(read_file_bytes(path, data),
                     "cannot open WAL segment: " + path);
    if (data.size() < kSegmentHeaderBytes) {
      // The writer emits the 24-byte header in one buffered write, so a
      // short header means the process died before the first flush of a
      // brand-new segment — a tear, but only if this is the last file.
      if (!final_segment) {
        throw StoreCorruptError(path + ": truncated segment header");
      }
      stats.torn_truncated = true;
      if (repair) fs::remove(path);
      break;
    }
    ByteReader header(std::string_view(data).substr(0, kSegmentHeaderBytes));
    check_file_header(header, "TGROOMWL", path);
    const std::uint64_t first_seq = header.u64();
    if (first_seq != wal_segment_first_seq(path)) {
      throw StoreCorruptError(path + ": filename does not match header seq");
    }
    if (next_expected != 0 && first_seq != next_expected) {
      throw StoreCorruptError(path + ": sequence gap (expected " +
                              std::to_string(next_expected) + ", segment " +
                              "starts at " + std::to_string(first_seq) + ")");
    }
    if (next_expected == 0) next_expected = first_seq;
    stats.segments += 1;
    std::size_t pos = kSegmentHeaderBytes;
    std::size_t records_in_segment = 0;
    bool torn_here = false;
    while (pos < data.size()) {
      const std::size_t record_start = pos;
      const std::size_t avail = data.size() - pos;
      std::uint32_t len = 0;
      std::uint32_t crc = 0;
      bool whole = avail >= kRecordPrefixBytes;
      if (whole) {
        len = read_u32le(data.data() + pos);
        crc = read_u32le(data.data() + pos + 4);
        whole = len >= kPayloadMinBytes && len <= kMaxPayloadBytes &&
                avail - kRecordPrefixBytes >= len;
      }
      std::string_view payload;
      if (whole) {
        payload =
            std::string_view(data).substr(pos + kRecordPrefixBytes, len);
        whole = crc32c(payload.data(), payload.size()) == crc;
      }
      if (!whole) {
        if (!final_segment) {
          throw StoreCorruptError(path + ": damaged record at offset " +
                                  std::to_string(record_start) +
                                  " in a non-final segment");
        }
        // Torn tail: the machine died mid-append.  Everything before
        // this offset is intact; drop the tear and recover.
        stats.torn_truncated = true;
        torn_here = true;
        if (repair) {
          if (records_in_segment == 0) {
            // No whole record survives.  Delete the segment so the
            // restarted writer can reuse this first_seq filename.
            fs::remove(path);
          } else {
            fs::resize_file(path, record_start);
          }
        }
        break;
      }
      pos += kRecordPrefixBytes + len;
      ByteReader r(payload);
      const std::uint64_t seq = r.u64();
      const std::uint8_t type_byte = r.u8();
      if (seq != next_expected) {
        throw StoreCorruptError(path + ": sequence gap (expected " +
                                std::to_string(next_expected) + ", record " +
                                "has " + std::to_string(seq) + ")");
      }
      if (type_byte != static_cast<std::uint8_t>(WalRecordType::kHoldPlan) &&
          type_byte != static_cast<std::uint8_t>(WalRecordType::kProvision) &&
          type_byte != static_cast<std::uint8_t>(WalRecordType::kRelease)) {
        throw StoreCorruptError(path + ": unknown record type " +
                                std::to_string(type_byte));
      }
      next_expected = seq + 1;
      records_in_segment += 1;
      if (stats.first_seq == 0) stats.first_seq = seq;
      stats.last_seq = seq;
      if (seq <= after_seq) {
        stats.records_skipped += 1;
      } else {
        stats.records += 1;
        stats.bytes += kRecordPrefixBytes + len;
        callback(seq, static_cast<WalRecordType>(type_byte),
                 std::string_view(payload).substr(kPayloadMinBytes));
      }
    }
    if (torn_here) break;
  }
  return stats;
}

WalTailStats tail_wal(
    const std::string& dir, std::uint64_t after_seq, std::size_t max_records,
    const std::function<void(std::uint64_t seq, WalRecordType type,
                             std::string_view body)>& callback) {
  WalTailStats stats;
  stats.last_seq = after_seq;
  const std::vector<std::string> segments = list_wal_segments(dir);
  if (segments.empty()) return stats;
  stats.first_available = wal_segment_first_seq(segments.front());
  if (stats.first_available > after_seq + 1) {
    // Every record the caller still needs sat in a segment compaction has
    // already retired: no amount of polling will produce seq after_seq+1.
    stats.compacted = true;
    return stats;
  }
  // Skip segments wholly covered by after_seq: records > after_seq start
  // in the last segment whose first_seq <= after_seq + 1.
  std::size_t start = 0;
  for (std::size_t si = 1; si < segments.size(); ++si) {
    if (wal_segment_first_seq(segments[si]) <= after_seq + 1) start = si;
  }
  std::uint64_t next_expected = 0;
  for (std::size_t si = start; si < segments.size(); ++si) {
    const std::string& path = segments[si];
    const bool final_segment = (si + 1 == segments.size());
    std::string data;
    if (!read_file_bytes(path, data)) {
      // Listed a moment ago but gone now: compaction retired it while
      // we were tailing.  The records it held were <= a snapshot seq;
      // re-polling resolves to either fresh segments or `compacted`.
      stats.incomplete = true;
      return stats;
    }
    if (data.size() < kSegmentHeaderBytes) {
      // The writer is still inside its first buffered flush of a fresh
      // segment.  Mid-log that would be corruption; at the live end it
      // just means "not yet".
      if (!final_segment) {
        throw StoreCorruptError(path + ": truncated segment header");
      }
      stats.incomplete = true;
      return stats;
    }
    ByteReader header(std::string_view(data).substr(0, kSegmentHeaderBytes));
    check_file_header(header, "TGROOMWL", path);
    const std::uint64_t first_seq = header.u64();
    if (first_seq != wal_segment_first_seq(path)) {
      throw StoreCorruptError(path + ": filename does not match header seq");
    }
    if (next_expected != 0 && first_seq != next_expected) {
      throw StoreCorruptError(path + ": sequence gap (expected " +
                              std::to_string(next_expected) + ", segment " +
                              "starts at " + std::to_string(first_seq) + ")");
    }
    if (next_expected == 0) next_expected = first_seq;
    std::size_t pos = kSegmentHeaderBytes;
    while (pos < data.size()) {
      const std::size_t record_start = pos;
      const std::size_t avail = data.size() - pos;
      std::uint32_t len = 0;
      std::uint32_t crc = 0;
      bool whole = avail >= kRecordPrefixBytes;
      if (whole) {
        len = read_u32le(data.data() + pos);
        crc = read_u32le(data.data() + pos + 4);
        whole = len >= kPayloadMinBytes && len <= kMaxPayloadBytes &&
                avail - kRecordPrefixBytes >= len;
      }
      std::string_view payload;
      if (whole) {
        payload =
            std::string_view(data).substr(pos + kRecordPrefixBytes, len);
        whole = crc32c(payload.data(), payload.size()) == crc;
      }
      if (!whole) {
        if (!final_segment) {
          throw StoreCorruptError(path + ": damaged record at offset " +
                                  std::to_string(record_start) +
                                  " in a non-final segment");
        }
        // The live writer is mid-append (or the bytes are still in its
        // stdio buffer).  Never truncate a file we don't own: report
        // incomplete and let the caller poll again.
        stats.incomplete = true;
        return stats;
      }
      pos += kRecordPrefixBytes + len;
      ByteReader r(payload);
      const std::uint64_t seq = r.u64();
      const std::uint8_t type_byte = r.u8();
      if (seq != next_expected) {
        throw StoreCorruptError(path + ": sequence gap (expected " +
                                std::to_string(next_expected) + ", record " +
                                "has " + std::to_string(seq) + ")");
      }
      if (type_byte != static_cast<std::uint8_t>(WalRecordType::kHoldPlan) &&
          type_byte != static_cast<std::uint8_t>(WalRecordType::kProvision) &&
          type_byte != static_cast<std::uint8_t>(WalRecordType::kRelease)) {
        throw StoreCorruptError(path + ": unknown record type " +
                                std::to_string(type_byte));
      }
      next_expected = seq + 1;
      if (seq > after_seq) {
        callback(seq, static_cast<WalRecordType>(type_byte),
                 std::string_view(payload).substr(kPayloadMinBytes));
        stats.records += 1;
        stats.last_seq = seq;
        if (max_records != 0 && stats.records >= max_records) return stats;
      }
    }
  }
  return stats;
}

bool wal_record_crc(const std::string& dir, std::uint64_t seq,
                    std::uint32_t& crc) {
  if (seq == 0) return false;
  bool found = false;
  std::uint32_t out = 0;
  tail_wal(dir, seq - 1, 1,
           [&](std::uint64_t got, WalRecordType type, std::string_view body) {
             if (got != seq) return;
             // Re-derive crc32c(payload): the framed payload is
             // [u64 seq][u8 type][body], encoded little-endian exactly as
             // ByteWriter lays it out.
             ByteWriter prefix;
             prefix.u64(got);
             prefix.u8(static_cast<std::uint8_t>(type));
             out = crc32c(prefix.str().data(), prefix.str().size());
             out = crc32c(body.data(), body.size(), out);
             found = true;
           });
  if (!found) return false;
  crc = out;
  return true;
}

}  // namespace tgroom
