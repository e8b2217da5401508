// Tests of the durable state store: format/codec units, WAL framing and
// torn-tail recovery, snapshot atomicity and fallback, DurableStore
// end-to-end reopen equality, and service-level recovery parity.
//
// Suite naming matters for CI: concurrency tests live in the
// StoreConcurrency suite so the TSan job can include them by regex.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/traffic_patterns.hpp"
#include "graph/fingerprint.hpp"
#include "grooming/incremental.hpp"
#include "grooming/plan.hpp"
#include "grooming/repair.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "store/durable_store.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace tgroom {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- helpers

struct TempDir {
  fs::path path;

  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("tgroom_store_test_" +
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

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

GroomingPlan make_plan(NodeId ring_size, int k,
                       std::initializer_list<GroomedPair> pairs) {
  GroomingPlan plan;
  plan.ring_size = ring_size;
  plan.grooming_factor = k;
  plan.pairs = pairs;
  return plan;
}

GroomCacheKey make_key(std::uint64_t fingerprint) {
  GroomCacheKey key;
  key.fingerprint = fingerprint;
  key.algorithm = 3;
  key.k = 4;
  key.seed = 7;
  key.flags = 1;
  return key;
}

GroomCacheValue make_value() {
  GroomCacheValue value;
  value.sadms = 12;
  value.wavelengths = 3;
  value.lower_bound = 9;
  value.parts = {{0, 1, 2}, {3}, {4, 5}};
  return value;
}

// ---------------------------------------------------------------- format

TEST(StoreFormat, Crc32cKnownVector) {
  // The canonical CRC32C check value (RFC 3720 appendix / every
  // Castagnoli implementation): crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
  // Incremental == one-shot.
  const std::uint32_t part = crc32c("12345", 5);
  EXPECT_EQ(crc32c("6789", 4, part), 0xE3069283u);
}

TEST(StoreFormat, ByteRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  ByteReader r(w.str());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.at_end());
}

TEST(StoreFormat, ReaderOverrunThrows) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.str());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), StoreCorruptError);
}

TEST(StoreFormat, PlanCodecRoundTrip) {
  const GroomingPlan plan = make_plan(
      8, 4,
      {GroomedPair{{0, 3}, 0, 0}, GroomedPair{{2, 7}, 0, 1},
       GroomedPair{{1, 5}, 1, 0}});
  ByteWriter w;
  encode_plan(w, plan);
  ByteReader r(w.str());
  const GroomingPlan out = decode_plan(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(serialize_plan(out), serialize_plan(plan));
}

TEST(StoreFormat, CacheEntryCodecRoundTrip) {
  const GroomCacheKey key = make_key(0x0100ABCDEF012345ull);
  const GroomCacheValue value = make_value();
  ByteWriter w;
  encode_cache_entry(w, key, value);
  ByteReader r(w.str());
  GroomCacheKey key_out;
  GroomCacheValue value_out;
  decode_cache_entry(r, key_out, value_out);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(key_out, key);
  EXPECT_EQ(value_out.sadms, value.sadms);
  EXPECT_EQ(value_out.wavelengths, value.wavelengths);
  EXPECT_EQ(value_out.lower_bound, value.lower_bound);
  EXPECT_EQ(value_out.parts, value.parts);
}

TEST(StoreFormat, CorruptCountFieldThrowsNotAllocates) {
  // A count field larger than the remaining bytes must throw, not
  // attempt a giant reserve.
  ByteWriter w;
  w.u32(8);   // ring_size
  w.u32(4);   // grooming_factor
  w.u32(0xFFFFFFFFu);  // absurd pair count
  ByteReader r(w.str());
  EXPECT_THROW(decode_plan(r), StoreCorruptError);
}

// ---------------------------------------------------------------- WAL

TEST(StoreWal, AppendReplayRoundTrip) {
  TempDir dir;
  StoreMetrics metrics;
  {
    WalWriter wal(dir.str(), 1, WalOptions{}, &metrics);
    EXPECT_EQ(wal.append(WalRecordType::kHoldPlan, "alpha"), 1u);
    EXPECT_EQ(wal.append(WalRecordType::kProvision, "beta"), 2u);
    EXPECT_EQ(wal.append(WalRecordType::kProvision, ""), 3u);
    wal.flush();
    EXPECT_EQ(wal.last_appended_seq(), 3u);
  }
  std::vector<std::pair<std::uint64_t, std::string>> seen;
  const WalReplayStats stats = replay_wal(
      dir.str(), 0,
      [&seen](std::uint64_t seq, WalRecordType type, std::string_view body) {
        (void)type;
        seen.emplace_back(seq, std::string(body));
      },
      /*repair=*/true);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.last_seq, 3u);
  EXPECT_FALSE(stats.torn_truncated);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uint64_t, std::string>{1, "alpha"}));
  EXPECT_EQ(seen[1], (std::pair<std::uint64_t, std::string>{2, "beta"}));
  EXPECT_EQ(seen[2], (std::pair<std::uint64_t, std::string>{3, ""}));
  EXPECT_EQ(metrics.appends.load(), 3);
}

TEST(StoreWal, AfterSeqSkipsCoveredRecords) {
  TempDir dir;
  {
    WalWriter wal(dir.str(), 1, WalOptions{}, nullptr);
    for (int i = 0; i < 5; ++i) {
      wal.append(WalRecordType::kProvision, "x");
    }
    wal.flush();
  }
  std::size_t calls = 0;
  const WalReplayStats stats = replay_wal(
      dir.str(), 3,
      [&calls](std::uint64_t seq, WalRecordType, std::string_view) {
        EXPECT_GT(seq, 3u);
        ++calls;
      },
      true);
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.records_skipped, 3u);
  EXPECT_EQ(stats.last_seq, 5u);
}

TEST(StoreWal, RecordCrcMatchesIdenticalBytesAndCatchesDivergence) {
  TempDir a;
  TempDir b;
  {
    WalWriter wal(a.str(), 1, WalOptions{}, nullptr);
    wal.append(WalRecordType::kHoldPlan, "shared");
    wal.append(WalRecordType::kProvision, "history-a");
    wal.flush();
  }
  {
    // Same record 1, diverged record 2 (the post-failover shape).
    WalWriter wal(b.str(), 1, WalOptions{}, nullptr);
    wal.append(WalRecordType::kHoldPlan, "shared");
    wal.append(WalRecordType::kProvision, "history-b");
    wal.flush();
  }
  std::uint32_t crc_a1 = 0;
  std::uint32_t crc_b1 = 0;
  ASSERT_TRUE(wal_record_crc(a.str(), 1, crc_a1));
  ASSERT_TRUE(wal_record_crc(b.str(), 1, crc_b1));
  EXPECT_EQ(crc_a1, crc_b1);  // identical bytes, identical checksum

  std::uint32_t crc_a2 = 0;
  std::uint32_t crc_b2 = 0;
  ASSERT_TRUE(wal_record_crc(a.str(), 2, crc_a2));
  ASSERT_TRUE(wal_record_crc(b.str(), 2, crc_b2));
  EXPECT_NE(crc_a2, crc_b2);  // diverged bytes at the same seq

  // Same body under a different type diverges too: the checksum covers
  // the framed payload, not just the body.
  TempDir c;
  {
    WalWriter wal(c.str(), 1, WalOptions{}, nullptr);
    wal.append(WalRecordType::kRelease, "shared");
    wal.flush();
  }
  std::uint32_t crc_c1 = 0;
  ASSERT_TRUE(wal_record_crc(c.str(), 1, crc_c1));
  EXPECT_NE(crc_c1, crc_a1);

  // Absent records: seq 0, past the tail, and an empty dir.
  std::uint32_t unused = 0;
  EXPECT_FALSE(wal_record_crc(a.str(), 0, unused));
  EXPECT_FALSE(wal_record_crc(a.str(), 3, unused));
  TempDir empty;
  EXPECT_FALSE(wal_record_crc(empty.str(), 1, unused));
}

TEST(StoreWal, SegmentsRollAndReplayAcrossFiles) {
  TempDir dir;
  WalOptions options;
  options.segment_bytes = 128;  // tiny: force several rolls
  {
    WalWriter wal(dir.str(), 1, options, nullptr);
    for (int i = 0; i < 20; ++i) {
      wal.append(WalRecordType::kProvision,
                 "record-body-" + std::to_string(i));
    }
    wal.flush();
    EXPECT_GT(wal.segment_paths().size(), 2u);
  }
  std::size_t calls = 0;
  const WalReplayStats stats = replay_wal(
      dir.str(), 0,
      [&calls](std::uint64_t seq, WalRecordType, std::string_view body) {
        EXPECT_EQ(body, "record-body-" + std::to_string(seq - 1));
        ++calls;
      },
      true);
  EXPECT_EQ(calls, 20u);
  EXPECT_GT(stats.segments, 2u);
}

TEST(StoreWal, TornTailTruncatedAtEveryByteOffset) {
  // Build a pristine single-segment WAL, then simulate a crash at every
  // possible torn point: for each prefix length, recovery must replay
  // exactly the records wholly contained in the prefix, truncate the
  // tear, and a second replay (post-repair) must agree — the torn bytes
  // are never replayed.
  TempDir golden;
  {
    WalWriter wal(golden.str(), 1, WalOptions{}, nullptr);
    for (int i = 0; i < 4; ++i) {
      wal.append(WalRecordType::kProvision, "body-" + std::to_string(i));
    }
    wal.flush();
  }
  const std::vector<std::string> segs = list_wal_segments(golden.str());
  ASSERT_EQ(segs.size(), 1u);
  const std::string full = read_file(segs[0]);
  constexpr std::size_t kHeader = 24;
  // Per record: 8 prefix + 8 seq + 1 type + 6 body = 23 bytes.
  constexpr std::size_t kRecord = 23;
  ASSERT_EQ(full.size(), kHeader + 4 * kRecord);

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    TempDir dir;
    const std::string name = fs::path(segs[0]).filename().string();
    write_file(dir.path / name, full.substr(0, cut));
    std::size_t replayed = 0;
    const WalReplayStats stats = replay_wal(
        dir.str(), 0,
        [&replayed](std::uint64_t, WalRecordType, std::string_view) {
          ++replayed;
        },
        /*repair=*/true);
    const std::size_t whole =
        cut < kHeader ? 0 : (cut - kHeader) / kRecord;
    EXPECT_EQ(replayed, whole) << "cut=" << cut;
    const bool at_boundary =
        cut >= kHeader && (cut - kHeader) % kRecord == 0;
    EXPECT_EQ(stats.torn_truncated, !at_boundary) << "cut=" << cut;
    // Post-repair the tear is gone: replay again and get the same
    // prefix with no torn flag.
    std::size_t replayed2 = 0;
    const WalReplayStats stats2 = replay_wal(
        dir.str(), 0,
        [&replayed2](std::uint64_t, WalRecordType, std::string_view) {
          ++replayed2;
        },
        true);
    EXPECT_EQ(replayed2, whole) << "cut=" << cut;
    EXPECT_FALSE(stats2.torn_truncated) << "cut=" << cut;
  }
}

TEST(StoreWal, TailWalIncompleteAtEveryByteOffsetAndResumes) {
  // The live-tail counterpart of TornTailTruncatedAtEveryByteOffset: a
  // replication shipper polls a log whose final record is still being
  // written.  At every possible byte prefix, tail_wal must deliver
  // exactly the wholly-present records, flag a mid-record cut as
  // `incomplete` instead of truncating, leave the file byte-identical —
  // and once the writer's remaining bytes land, a re-poll from the
  // returned cursor must deliver the rest.
  TempDir golden;
  {
    WalWriter wal(golden.str(), 1, WalOptions{}, nullptr);
    for (int i = 0; i < 4; ++i) {
      wal.append(WalRecordType::kProvision, "body-" + std::to_string(i));
    }
    wal.flush();
  }
  const std::vector<std::string> segs = list_wal_segments(golden.str());
  ASSERT_EQ(segs.size(), 1u);
  const std::string full = read_file(segs[0]);
  constexpr std::size_t kHeader = 24;
  // Per record: 8 prefix + 8 seq + 1 type + 6 body = 23 bytes.
  constexpr std::size_t kRecord = 23;
  ASSERT_EQ(full.size(), kHeader + 4 * kRecord);

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    TempDir dir;
    const std::string name = fs::path(segs[0]).filename().string();
    write_file(dir.path / name, full.substr(0, cut));
    std::size_t delivered = 0;
    const WalTailStats stats = tail_wal(
        dir.str(), 0, 0,
        [&delivered](std::uint64_t seq, WalRecordType type,
                     std::string_view body) {
          EXPECT_EQ(type, WalRecordType::kProvision);
          EXPECT_EQ(body, "body-" + std::to_string(seq - 1));
          ++delivered;
        });
    const std::size_t whole = cut < kHeader ? 0 : (cut - kHeader) / kRecord;
    const bool at_boundary = cut >= kHeader && (cut - kHeader) % kRecord == 0;
    EXPECT_EQ(delivered, whole) << "cut=" << cut;
    EXPECT_EQ(stats.records, whole) << "cut=" << cut;
    EXPECT_EQ(stats.last_seq, whole) << "cut=" << cut;
    EXPECT_EQ(stats.incomplete, !at_boundary) << "cut=" << cut;
    EXPECT_FALSE(stats.compacted) << "cut=" << cut;
    // Never mutates: the torn bytes are still on disk, untouched.
    EXPECT_EQ(read_file(dir.path / name), full.substr(0, cut))
        << "cut=" << cut;
    // The writer finishes its append: re-polling from the cursor
    // delivers exactly the records the first poll could not.
    write_file(dir.path / name, full);
    std::size_t rest = 0;
    const WalTailStats resumed = tail_wal(
        dir.str(), stats.last_seq, 0,
        [&rest](std::uint64_t, WalRecordType, std::string_view) { ++rest; });
    EXPECT_EQ(rest, 4 - whole) << "cut=" << cut;
    EXPECT_EQ(resumed.last_seq, 4u) << "cut=" << cut;
    EXPECT_FALSE(resumed.incomplete) << "cut=" << cut;
  }
}

TEST(StoreWal, TailWalReportsCompactionAndHonorsMaxRecords) {
  TempDir dir;
  WalOptions options;
  options.segment_bytes = 128;  // tiny: force several rolls
  {
    WalWriter wal(dir.str(), 1, options, nullptr);
    for (int i = 0; i < 20; ++i) {
      wal.append(WalRecordType::kProvision,
                 "record-body-" + std::to_string(i));
    }
    wal.flush();
  }
  const std::vector<std::string> segs = list_wal_segments(dir.str());
  ASSERT_GT(segs.size(), 2u);
  const std::uint64_t second_first = wal_segment_first_seq(segs[1]);

  // max_records caps the batch and the cursor resumes exactly after it.
  std::vector<std::uint64_t> seqs;
  const WalTailStats first = tail_wal(
      dir.str(), 0, 7,
      [&seqs](std::uint64_t seq, WalRecordType, std::string_view) {
        seqs.push_back(seq);
      });
  EXPECT_EQ(seqs.size(), 7u);
  EXPECT_EQ(first.last_seq, 7u);
  const WalTailStats rest = tail_wal(
      dir.str(), first.last_seq, 0,
      [&seqs](std::uint64_t seq, WalRecordType, std::string_view) {
        seqs.push_back(seq);
      });
  EXPECT_EQ(rest.last_seq, 20u);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], i + 1);
  }

  // Drop the oldest segment (what snapshot compaction does): a cursor
  // from before the remaining history must be told to bootstrap, while
  // a cursor inside it streams normally.
  fs::remove(segs[0]);
  const WalTailStats compacted = tail_wal(
      dir.str(), 0, 0,
      [](std::uint64_t, WalRecordType, std::string_view) { FAIL(); });
  EXPECT_TRUE(compacted.compacted);
  EXPECT_EQ(compacted.first_available, second_first);
  std::size_t streamed = 0;
  const WalTailStats inside = tail_wal(
      dir.str(), second_first - 1, 0,
      [&streamed](std::uint64_t, WalRecordType, std::string_view) {
        ++streamed;
      });
  EXPECT_FALSE(inside.compacted);
  EXPECT_EQ(streamed, 20u - (second_first - 1));
}

TEST(StoreWal, TornEmptySegmentDeletedSoWriterCanReuseName) {
  // Crash after opening a segment but before flushing any record: the
  // file is shorter than its header.  Repair must delete it so a
  // restarted writer can recreate wal-<same seq>.log.
  TempDir dir;
  {
    WalWriter wal(dir.str(), 1, WalOptions{}, nullptr);
    wal.append(WalRecordType::kProvision, "a");
    wal.flush();
  }
  const std::vector<std::string> segs = list_wal_segments(dir.str());
  ASSERT_EQ(segs.size(), 1u);
  // Fake the crash artifact: a zero-byte next segment.
  write_file(dir.path / "wal-00000000000000000002.log", "");
  const WalReplayStats stats =
      replay_wal(dir.str(), 0,
                 [](std::uint64_t, WalRecordType, std::string_view) {}, true);
  EXPECT_TRUE(stats.torn_truncated);
  EXPECT_EQ(stats.last_seq, 1u);
  EXPECT_EQ(list_wal_segments(dir.str()).size(), 1u);
  // The writer can now open seq 2 without a filename collision.
  WalWriter wal(dir.str(), 2, WalOptions{}, nullptr);
  EXPECT_EQ(wal.append(WalRecordType::kProvision, "b"), 2u);
}

TEST(StoreWal, DamageInNonFinalSegmentIsCorruption) {
  TempDir dir;
  WalOptions options;
  options.segment_bytes = 64;
  {
    WalWriter wal(dir.str(), 1, options, nullptr);
    for (int i = 0; i < 10; ++i) {
      wal.append(WalRecordType::kProvision, "record-" + std::to_string(i));
    }
    wal.flush();
  }
  std::vector<std::string> segs = list_wal_segments(dir.str());
  ASSERT_GT(segs.size(), 1u);
  std::string data = read_file(segs[0]);
  data[data.size() - 1] = static_cast<char>(data[data.size() - 1] ^ 0x55);
  write_file(segs[0], data);
  EXPECT_THROW(
      replay_wal(dir.str(), 0,
                 [](std::uint64_t, WalRecordType, std::string_view) {}, true),
      StoreCorruptError);
}

TEST(StoreWal, VersionMismatchIsIncompatibleNotCorrupt) {
  TempDir dir;
  {
    WalWriter wal(dir.str(), 1, WalOptions{}, nullptr);
    wal.append(WalRecordType::kProvision, "a");
    wal.flush();
  }
  const std::vector<std::string> segs = list_wal_segments(dir.str());
  ASSERT_EQ(segs.size(), 1u);
  // Header layout: magic[0,8) store_version[8,12) fp_version[12,16).
  for (const std::size_t offset : {std::size_t{8}, std::size_t{12}}) {
    std::string data = read_file(segs[0]);
    data[offset] = static_cast<char>(data[offset] + 1);
    write_file(segs[0], data);
    EXPECT_THROW(
        replay_wal(dir.str(), 0,
                   [](std::uint64_t, WalRecordType, std::string_view) {},
                   true),
        StoreIncompatibleError);
    // Restore for the next offset.
    data[offset] = static_cast<char>(data[offset] - 1);
    write_file(segs[0], data);
  }
}

TEST(StoreWal, FingerprintV1SegmentIsIncompatible) {
  // Version 1 fingerprints absorbed the CSR arrays as well; their cache
  // keys mean nothing to a version 2 build, so such a store is refused.
  ASSERT_EQ(kFingerprintFormatVersion, 2);
  TempDir dir;
  {
    WalWriter wal(dir.str(), 1, WalOptions{}, nullptr);
    wal.append(WalRecordType::kProvision, "a");
    wal.flush();
  }
  const std::vector<std::string> segs = list_wal_segments(dir.str());
  ASSERT_EQ(segs.size(), 1u);
  std::string data = read_file(segs[0]);
  data[12] = 1;  // fp_version, little-endian u32 at [12,16)
  write_file(segs[0], data);
  EXPECT_THROW(
      replay_wal(dir.str(), 0,
                 [](std::uint64_t, WalRecordType, std::string_view) {},
                 true),
      StoreIncompatibleError);
}

// Caps the size of files this process may write, so the next write that
// reaches the disk fails with EFBIG (SIGXFSZ is ignored).  Death tests
// call it in their child process only.
void cap_file_size(rlim_t bytes) {
  std::signal(SIGXFSZ, SIG_IGN);
  const rlimit limit{bytes, bytes};
  if (setrlimit(RLIMIT_FSIZE, &limit) != 0) std::_Exit(3);
}

TEST(StoreIoErrorDeathTest, FailedWalFlushIsFatal) {
  // No retry and no ack: the writer stops the process at the first
  // failed flush of a segment, under every fsync policy.
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kBatch, FsyncPolicy::kAlways}) {
    TempDir dir;
    WalOptions options;
    options.fsync = policy;
    EXPECT_DEATH(
        {
          WalWriter wal(dir.str(), 1, options, nullptr);
          // Room for the death message in gtest's stderr capture file,
          // not for the segment's header plus this record.
          cap_file_size(256);
          wal.sync(wal.append(WalRecordType::kProvision,
                              std::string(400, 'x')));
          wal.flush();
        },
        "fatal: WAL fflush failed")
        << fsync_policy_name(policy);
  }
}

TEST(StoreIoErrorDeathTest, FailedSnapshotFlushThrowsBeforeRename) {
  TempDir dir;
  SnapshotData snap;
  snap.last_seq = 5;
  snap.next_plan_id = 1;
  EXPECT_EXIT(
      {
        cap_file_size(8);
        try {
          write_snapshot_file(dir.str(), snap);
        } catch (const CheckError& e) {
          const bool named =
              std::string(e.what()).find("fflush of snapshot failed") !=
              std::string::npos;
          std::_Exit(named && list_snapshot_files(dir.str()).empty() ? 0
                                                                     : 2);
        }
        std::_Exit(1);
      },
      ::testing::ExitedWithCode(0), "");
}

// ------------------------------------------------------------ snapshots

SnapshotData make_snapshot(std::uint64_t last_seq, std::int64_t next_id) {
  SnapshotData snap;
  snap.last_seq = last_seq;
  snap.next_plan_id = next_id;
  snap.plans.emplace_back(
      1, make_plan(6, 4, {GroomedPair{{0, 2}, 0, 0}}));
  snap.plans.emplace_back(
      next_id - 1,
      make_plan(8, 2, {GroomedPair{{1, 5}, 0, 0}, GroomedPair{{3, 4}, 0, 1}}));
  return snap;
}

TEST(StoreSnapshot, WriteLoadRoundTrip) {
  TempDir dir;
  const SnapshotData snap = make_snapshot(17, 3);
  write_snapshot_file(dir.str(), snap);
  std::size_t skipped = 0;
  const auto loaded = load_latest_snapshot(dir.str(), &skipped);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(loaded->last_seq, 17u);
  EXPECT_EQ(loaded->next_plan_id, 3);
  ASSERT_EQ(loaded->plans.size(), 2u);
  EXPECT_EQ(loaded->plans[0].first, 1);
  EXPECT_EQ(serialize_plan(loaded->plans[1].second),
            serialize_plan(snap.plans[1].second));
}

TEST(StoreSnapshot, LatestWinsAndCorruptLatestFallsBack) {
  TempDir dir;
  write_snapshot_file(dir.str(), make_snapshot(10, 2));
  write_snapshot_file(dir.str(), make_snapshot(20, 3));
  std::size_t skipped = 0;
  auto loaded = load_latest_snapshot(dir.str(), &skipped);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->last_seq, 20u);

  // Corrupt the newest body: loading falls back to the older snapshot.
  const std::vector<std::string> files = list_snapshot_files(dir.str());
  ASSERT_EQ(files.size(), 2u);
  std::string data = read_file(files.back());
  data[data.size() - 1] = static_cast<char>(data[data.size() - 1] ^ 0x01);
  write_file(files.back(), data);
  skipped = 0;
  loaded = load_latest_snapshot(dir.str(), &skipped);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->last_seq, 10u);
  EXPECT_EQ(skipped, 1u);
}

TEST(StoreSnapshot, VersionMismatchThrowsIncompatible) {
  TempDir dir;
  write_snapshot_file(dir.str(), make_snapshot(5, 2));
  const std::vector<std::string> files = list_snapshot_files(dir.str());
  ASSERT_EQ(files.size(), 1u);
  std::string data = read_file(files[0]);
  data[8] = static_cast<char>(data[8] + 1);  // store format version
  write_file(files[0], data);
  std::size_t skipped = 0;
  EXPECT_THROW(load_latest_snapshot(dir.str(), &skipped),
               StoreIncompatibleError);
}

TEST(StoreSnapshot, LeftoverTmpFileIsIgnored) {
  TempDir dir;
  write_snapshot_file(dir.str(), make_snapshot(5, 2));
  // A crash between write and rename leaves a .tmp; it must be invisible.
  write_file(dir.path / "snap-00000000000000000009.snap.tmp", "garbage");
  std::size_t skipped = 0;
  const auto loaded = load_latest_snapshot(dir.str(), &skipped);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->last_seq, 5u);
  EXPECT_EQ(skipped, 0u);
}

// --------------------------------------------------------- durable store

TEST(StoreDurable, ReopenRecoversIdenticalState) {
  TempDir dir;
  DurableStoreOptions options;
  options.dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_every = 0;  // WAL-only recovery

  GroomingPlan plan = make_plan(8, 4, {});
  extend_plan_incremental(plan, {{0, 4}, {1, 5}});
  std::string expect_serialized;
  {
    DurableStore store(options);
    EXPECT_FALSE(store.recovery().snapshot_loaded);
    store.append_hold(1, plan, make_key(42), make_value());
    const std::uint64_t seq = store.append_provision(1, {{2, 6}, {0, 7}});
    EXPECT_EQ(seq, 2u);
    store.sync(seq);
    store.flush();
    extend_plan_incremental(plan, {{2, 6}, {0, 7}});  // mirror locally
    expect_serialized = serialize_plan(plan);
  }
  DurableStore reopened(options);
  RecoveredState state = reopened.take_recovered();
  EXPECT_EQ(reopened.recovery().wal_records_replayed, 2u);
  EXPECT_EQ(reopened.recovery().last_seq, 2u);
  ASSERT_EQ(state.plans.size(), 1u);
  EXPECT_EQ(serialize_plan(state.plans.at(1)), expect_serialized);
  EXPECT_EQ(state.next_plan_id, 2);
  ASSERT_EQ(state.prewarm.size(), 1u);
  EXPECT_EQ(state.prewarm[0].key, make_key(42));
  EXPECT_EQ(state.prewarm[0].value->parts, make_value().parts);
  // The reopened writer resumes the sequence, never reuses it.
  EXPECT_EQ(reopened.append_provision(1, {{3, 5}}), 3u);
}

TEST(StoreDurable, ReopenOneDirRepeatedlyWithAndWithoutWrites) {
  TempDir dir;
  DurableStoreOptions options;
  options.dir = dir.str();
  options.fsync = FsyncPolicy::kBatch;
  options.snapshot_every = 0;

  GroomingPlan plan = make_plan(8, 4, {});
  extend_plan_incremental(plan, {{0, 4}, {1, 5}});
  // Each open recovers `plans` plans (plan 1 as `expect` when present),
  // then appends `writes` provision records to plan 1.
  auto open_check_write = [&](std::size_t plans, const std::string& expect,
                              std::uint64_t last_seq, int writes) {
    DurableStore store(options);
    RecoveredState state = store.take_recovered();
    EXPECT_EQ(store.recovery().last_seq, last_seq);
    ASSERT_EQ(state.plans.size(), plans);
    if (plans > 0) {
      EXPECT_EQ(serialize_plan(state.plans.at(1)), expect);
    }
    for (int i = 0; i < writes; ++i) {
      const std::uint64_t seq = store.append_provision(
          1, {{static_cast<NodeId>(2 + i), 7}});
      EXPECT_EQ(seq, last_seq + 1 + static_cast<std::uint64_t>(i));
      store.sync(seq);
    }
  };

  open_check_write(0, "", 0, 0);  // fresh dir, no write
  open_check_write(0, "", 0, 0);  // restart with an empty tail segment
  {
    DurableStore store(options);
    store.sync(store.append_hold(1, plan, make_key(42), make_value()));
  }
  const std::string held = serialize_plan(plan);
  open_check_write(1, held, 1, 0);  // restart right after a write
  open_check_write(1, held, 1, 2);  // restart with no write in between
  extend_plan_incremental(plan, {{2, 7}});  // mirror the two records
  extend_plan_incremental(plan, {{3, 7}});
  const std::string extended = serialize_plan(plan);
  open_check_write(1, extended, 3, 0);
  open_check_write(1, extended, 3, 0);
  // A new segment for the first open and for each open after a write;
  // an open after an idle one reuses its empty tail segment.
  EXPECT_EQ(list_wal_segments(dir.str()).size(), 3u);
}

TEST(StoreDurable, SnapshotCompactsSupersededFiles) {
  TempDir dir;
  DurableStoreOptions options;
  options.dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  options.segment_bytes = 96;  // force frequent segment rolls
  DurableStore store(options);
  GroomingPlan plan = make_plan(16, 4, {});
  store.append_hold(1, plan, make_key(1), make_value());
  for (int i = 0; i < 12; ++i) {
    store.append_provision(1, {{static_cast<NodeId>(i),
                                static_cast<NodeId>(i + 2)}});
  }
  EXPECT_GT(list_wal_segments(dir.str()).size(), 2u);

  SnapshotData snap;
  snap.last_seq = store.last_seq();
  snap.next_plan_id = 2;
  snap.plans.emplace_back(1, plan);
  EXPECT_TRUE(store.write_snapshot(snap));
  // Everything but the active segment is covered by the snapshot.
  EXPECT_EQ(list_wal_segments(dir.str()).size(), 1u);
  EXPECT_EQ(list_snapshot_files(dir.str()).size(), 1u);
  EXPECT_GT(store.metrics().segments_retired.load(), 0);
  // A second identical snapshot is refused (does not advance).
  EXPECT_FALSE(store.write_snapshot(snap));
}

TEST(StoreDurable, ProvisionOfUnknownPlanIsCorruption) {
  TempDir dir;
  DurableStoreOptions options;
  options.dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  {
    DurableStore store(options);
    store.append_provision(99, {{0, 1}});
    store.flush();
  }
  EXPECT_THROW(DurableStore{options}, StoreCorruptError);
}

TEST(StoreDurable, ReleaseRecordsReplayToReleasedState) {
  TempDir dir;
  DurableStoreOptions options;
  options.dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_every = 0;  // WAL-only recovery

  GroomingPlan plan = make_plan(8, 4, {});
  extend_plan_incremental(plan, {{0, 4}, {1, 5}, {2, 6}});
  GroomingPlan doomed = make_plan(8, 4, {});
  extend_plan_incremental(doomed, {{3, 7}});
  std::string expect_serialized;
  {
    DurableStore store(options);
    store.append_hold(1, plan, make_key(42), make_value());
    store.append_hold(2, doomed, make_key(43), make_value());
    store.append_provision(1, {{0, 7}});
    // Partial release with repair on plan 1; drop-all of plan 2.
    store.append_release(1, {{1, 5}, {0, 4}}, /*drop_all=*/false,
                         /*repair=*/true);
    const std::uint64_t seq =
        store.append_release(2, {}, /*drop_all=*/true, /*repair=*/true);
    store.sync(seq);
    store.flush();
    // Mirror the live state the acked responses described.
    extend_plan_incremental(plan, {{0, 7}});
    release_demands(plan, {{1, 5}, {0, 4}}, /*repair=*/true);
    expect_serialized = serialize_plan(plan);
  }
  DurableStore reopened(options);
  RecoveredState state = reopened.take_recovered();
  EXPECT_EQ(reopened.recovery().wal_records_replayed, 5u);
  EXPECT_EQ(reopened.recovery().hold_records, 2u);
  EXPECT_EQ(reopened.recovery().provision_records, 1u);
  EXPECT_EQ(reopened.recovery().release_records, 2u);
  ASSERT_EQ(state.plans.size(), 1u);  // plan 2 stays released
  EXPECT_EQ(state.plans.count(2), 0u);
  EXPECT_EQ(serialize_plan(state.plans.at(1)), expect_serialized);
  EXPECT_EQ(state.next_plan_id, 3);
}

TEST(StoreDurable, ReleaseRepairFlagIsReplayedExactly) {
  // The record carries the repair flag: a no-repair release must not be
  // replayed as a repairing one (the recovered plan would diverge from
  // the acked responses).
  TempDir dir;
  DurableStoreOptions options;
  options.dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  options.snapshot_every = 0;

  GroomingPlan plan = make_plan(8, 4, {});
  extend_plan_incremental(plan, {{0, 1}, {1, 2}, {0, 2}, {3, 4}});
  {
    DurableStore store(options);
    store.append_hold(1, plan, make_key(1), make_value());
    store.append_release(1, {{3, 4}}, /*drop_all=*/false, /*repair=*/false);
    store.flush();
  }
  release_demands(plan, {{3, 4}}, /*repair=*/false);
  DurableStore reopened(options);
  RecoveredState state = reopened.take_recovered();
  ASSERT_EQ(state.plans.size(), 1u);
  EXPECT_EQ(serialize_plan(state.plans.at(1)), serialize_plan(plan));
}

TEST(StoreDurable, ReleaseOfUnknownPlanIsCorruption) {
  TempDir dir;
  DurableStoreOptions options;
  options.dir = dir.str();
  options.fsync = FsyncPolicy::kNone;
  {
    DurableStore store(options);
    store.append_release(99, {{0, 1}}, /*drop_all=*/false, /*repair=*/true);
    store.flush();
  }
  EXPECT_THROW(DurableStore{options}, StoreCorruptError);
}

TEST(StoreDurable, BatchPolicyDefersFsyncUntilFlush) {
  TempDir dir;
  DurableStoreOptions options;
  options.dir = dir.str();
  options.fsync = FsyncPolicy::kBatch;
  options.batch_bytes = 1 << 20;  // far above what we write
  DurableStore store(options);
  GroomingPlan plan = make_plan(8, 4, {});
  const std::uint64_t s1 = store.append_hold(1, plan, make_key(1),
                                             make_value());
  store.sync(s1);
  const std::uint64_t s2 = store.append_provision(1, {{0, 3}});
  store.sync(s2);
  EXPECT_EQ(store.metrics().fsyncs.load(), 0);
  store.flush();
  EXPECT_GE(store.metrics().fsyncs.load(), 1);
}

// -------------------------------------------------------- group commit

TEST(StoreConcurrency, GroupCommitBatchesFsyncsUnderContention) {
  TempDir dir;
  StoreMetrics metrics;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  {
    WalOptions options;
    options.fsync = FsyncPolicy::kAlways;
    WalWriter wal(dir.str(), 1, options, &metrics);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        // snprintf, not string concatenation: GCC 12's -Wrestrict
        // false-positives on inlined operator+ chains under -Werror.
        char body[32];
        for (int i = 0; i < kPerThread; ++i) {
          const int len = std::snprintf(body, sizeof(body), "t%d-%d", t, i);
          const std::uint64_t seq = wal.append(
              WalRecordType::kProvision,
              std::string_view(body, static_cast<std::size_t>(len)));
          wal.sync(seq);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(wal.last_appended_seq(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
  EXPECT_EQ(metrics.appends.load(), kThreads * kPerThread);
  EXPECT_GE(metrics.fsyncs.load(), 1);
  // kAlways means every record was covered by *some* fsync before its
  // sync() returned; group commit keeps the fsync count at or below the
  // append count (usually far below under contention).
  EXPECT_LE(metrics.fsyncs.load(), metrics.appends.load());
  EXPECT_GE(metrics.sync_batch_total.load(), metrics.sync_batch_max.load());

  // Replay sees a gapless, in-order sequence.
  std::uint64_t expected = 1;
  const WalReplayStats stats = replay_wal(
      dir.str(), 0,
      [&expected](std::uint64_t seq, WalRecordType, std::string_view) {
        EXPECT_EQ(seq, expected);
        ++expected;
      },
      true);
  EXPECT_EQ(stats.records,
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_FALSE(stats.torn_truncated);
}

TEST(StoreConcurrency, ConcurrentAppendsRollSegmentsSafely) {
  TempDir dir;
  StoreMetrics metrics;
  {
    WalOptions options;
    options.fsync = FsyncPolicy::kAlways;
    options.segment_bytes = 256;  // roll constantly under contention
    WalWriter wal(dir.str(), 1, options, &metrics);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&wal] {
        char body[32];
        for (int i = 0; i < 40; ++i) {
          const int len = std::snprintf(body, sizeof(body), "payload-%d", i);
          wal.sync(wal.append(
              WalRecordType::kProvision,
              std::string_view(body, static_cast<std::size_t>(len))));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  std::size_t records = 0;
  const WalReplayStats stats = replay_wal(
      dir.str(), 0,
      [&records](std::uint64_t, WalRecordType, std::string_view) {
        ++records;
      },
      true);
  EXPECT_EQ(records, 160u);
  EXPECT_GT(stats.segments, 1u);
}

// ------------------------------------------------- service integration

std::string groom_hold_request(long long id, const Graph& g, int k) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "groom");
  w.kv("id", id);
  w.key("graph");
  write_graph_json(w, g);
  w.kv("k", static_cast<long long>(k));
  w.kv("hold", true);
  w.end_object();
  return w.take();
}

std::string provision_by_id_request(long long id, long long plan_id,
                                    const std::vector<DemandPair>& add) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "provision");
  w.kv("id", id);
  w.kv("plan_id", plan_id);
  w.key("add").begin_array();
  for (const DemandPair& p : add) {
    w.begin_array()
        .value(static_cast<long long>(p.a))
        .value(static_cast<long long>(p.b))
        .end_array();
  }
  w.end_array();
  w.kv("include_plan", true);
  w.end_object();
  return w.take();
}

/// Runs one NDJSON session and returns the raw response lines (events
/// excluded).
std::vector<std::string> run_lines(GroomingService& service,
                                   const std::vector<std::string>& lines) {
  std::string input;
  for (const std::string& line : lines) {
    input += line;
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(service.run(in, out), 0);
  std::vector<std::string> responses;
  std::istringstream parse(out.str());
  std::string line;
  while (std::getline(parse, line)) {
    if (line.find("\"event\"") == std::string::npos) {
      responses.push_back(line);
    }
  }
  return responses;
}

Graph ring_demand_graph(NodeId n, double density, std::uint64_t seed) {
  Rng rng(seed);
  return random_traffic(n, density, rng).traffic_graph();
}

TEST(StoreService, RestartedServiceAnswersExactlyLikeUncrashedOne) {
  TempDir dir;
  const Graph g = ring_demand_graph(10, 0.4, 7);
  const std::vector<std::string> first_half = {
      groom_hold_request(1, g, 4),
      provision_by_id_request(2, 1, {{0, 5}}),
      provision_by_id_request(3, 1, {{2, 7}, {1, 8}}),
  };
  const std::string next_request = provision_by_id_request(4, 1, {{3, 9}});

  // Durable service: first session, then a fresh process image (new
  // GroomingService) over the same data dir.
  ServiceConfig durable;
  durable.metrics_on_exit = false;
  durable.data_dir = dir.str();
  {
    GroomingService service(durable);
    run_lines(service, first_half);
  }
  GroomingService restarted(durable);
  const std::vector<std::string> recovered_lines =
      run_lines(restarted, {next_request});

  // Reference: one service that never restarted.
  ServiceConfig volatile_config;
  volatile_config.metrics_on_exit = false;
  GroomingService reference(volatile_config);
  std::vector<std::string> all = first_half;
  all.push_back(next_request);
  const std::vector<std::string> reference_lines = run_lines(reference, all);

  ASSERT_EQ(recovered_lines.size(), 1u);
  ASSERT_EQ(reference_lines.size(), 4u);
  // Byte-identical response: recovery reproduced the held plan exactly.
  EXPECT_EQ(recovered_lines[0], reference_lines[3]);
  EXPECT_EQ(restarted.held_plan_count(), 1u);
}

TEST(StoreService, RestartAfterReleasesAnswersLikeUncrashedOne) {
  TempDir dir;
  const Graph g = ring_demand_graph(10, 0.4, 9);
  const Graph h = ring_demand_graph(8, 0.5, 5);
  const std::vector<std::string> first_half = {
      groom_hold_request(1, g, 4),
      groom_hold_request(2, h, 4),
      provision_by_id_request(3, 1, {{0, 5}}),
      R"({"op":"release","id":4,"plan_id":1,"remove":[[0,5]],)"
      R"("include_plan":true})",
      R"({"op":"release","id":5,"plan_id":2,"all":true})",
  };
  const std::string next_request = provision_by_id_request(6, 1, {{3, 9}});
  const std::string dead_request = provision_by_id_request(7, 2, {{0, 1}});

  ServiceConfig durable;
  durable.metrics_on_exit = false;
  durable.data_dir = dir.str();
  {
    GroomingService service(durable);
    run_lines(service, first_half);
  }
  GroomingService restarted(durable);
  const std::vector<std::string> recovered_lines =
      run_lines(restarted, {next_request, dead_request});

  ServiceConfig volatile_config;
  volatile_config.metrics_on_exit = false;
  GroomingService reference(volatile_config);
  std::vector<std::string> all = first_half;
  all.push_back(next_request);
  all.push_back(dead_request);
  const std::vector<std::string> reference_lines = run_lines(reference, all);

  ASSERT_EQ(recovered_lines.size(), 2u);
  ASSERT_EQ(reference_lines.size(), 7u);
  // The partially-released plan provisions identically after restart...
  EXPECT_EQ(recovered_lines[0], reference_lines[5]);
  // ...and the dropped plan stays dropped: same bad_request either way.
  EXPECT_EQ(recovered_lines[1], reference_lines[6]);
  EXPECT_EQ(restarted.held_plan_count(), 1u);
}

TEST(StoreService, RecoveryPrewarmsPlanCacheFromWalHolds) {
  TempDir dir;
  const Graph g = ring_demand_graph(8, 0.5, 3);
  ServiceConfig config;
  config.metrics_on_exit = false;
  config.data_dir = dir.str();
  {
    GroomingService service(config);
    run_lines(service, {groom_hold_request(1, g, 4)});
  }
  // Clean shutdown wrote a snapshot covering the hold record, and
  // snapshots carry no cache payloads — so delete them, leaving the WAL
  // tail, as after a crash.
  for (const std::string& path : list_snapshot_files(dir.str())) {
    fs::remove(path);
  }
  GroomingService restarted(config);
  const std::vector<std::string> lines =
      run_lines(restarted, {groom_hold_request(2, g, 4)});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"cached\":true"), std::string::npos)
      << lines[0];
}

TEST(StoreService, PrewarmCanBeDisabled) {
  TempDir dir;
  const Graph g = ring_demand_graph(8, 0.5, 3);
  ServiceConfig config;
  config.metrics_on_exit = false;
  config.data_dir = dir.str();
  {
    GroomingService service(config);
    run_lines(service, {groom_hold_request(1, g, 4)});
  }
  for (const std::string& path : list_snapshot_files(dir.str())) {
    fs::remove(path);
  }
  config.prewarm_cache = false;
  GroomingService restarted(config);
  const std::vector<std::string> lines =
      run_lines(restarted, {groom_hold_request(2, g, 4)});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"cached\":false"), std::string::npos)
      << lines[0];
  EXPECT_EQ(restarted.held_plan_count(), 2u);
}

TEST(StoreService, DuplicateHoldsOfSameGraphRecoverAsDistinctPlans) {
  // Two holds of the same fingerprint are distinct plan ids; recovery
  // must keep both (the second is a cache hit, same partition payload).
  TempDir dir;
  const Graph g = ring_demand_graph(8, 0.5, 11);
  ServiceConfig config;
  config.metrics_on_exit = false;
  config.data_dir = dir.str();
  {
    GroomingService service(config);
    const std::vector<std::string> lines = run_lines(
        service, {groom_hold_request(1, g, 4), groom_hold_request(2, g, 4)});
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"plan_id\":1"), std::string::npos);
    EXPECT_NE(lines[1].find("\"plan_id\":2"), std::string::npos);
  }
  GroomingService restarted(config);
  // Provisioning each recovered plan works and they evolve separately.
  const std::vector<std::string> lines = run_lines(
      restarted, {provision_by_id_request(3, 1, {{0, 3}}),
                  provision_by_id_request(4, 2, {{1, 4}}),
                  groom_hold_request(5, g, 4)});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
  // The id counter resumed past both recovered plans.
  EXPECT_NE(lines[2].find("\"plan_id\":3"), std::string::npos) << lines[2];
}

TEST(StoreService, ExpiredDeadlineProvisionAppendsNothing) {
  TempDir dir;
  ServiceConfig config;
  config.metrics_on_exit = false;
  config.data_dir = dir.str();
  GroomingService service(config);
  service.open_store();
  const std::uint64_t before = service.store()->last_seq();

  ServiceRequest request;
  request.op = ServiceOp::kProvision;
  request.plan_id = 1;
  request.add = {{0, 1}};
  request.deadline_ms = 1;
  request.admitted =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(50);
  const std::string response = service.execute(request, nullptr);
  EXPECT_NE(response.find("deadline_exceeded"), std::string::npos)
      << response;
  // The mutation was rejected before it happened: no WAL record.
  EXPECT_EQ(service.store()->last_seq(), before);
}

TEST(StoreService, DrainOnEofFlushesUnsyncedBatches) {
  // fsync=batch with a huge threshold: nothing is synced per-request,
  // so the drain path's flush is what makes the records durable.
  TempDir dir;
  const Graph g = ring_demand_graph(8, 0.5, 5);
  ServiceConfig config;
  config.metrics_on_exit = false;
  config.data_dir = dir.str();
  config.fsync = FsyncPolicy::kBatch;
  std::uint64_t final_seq = 0;
  {
    GroomingService service(config);
    // No shutdown op: the session ends by EOF (drain path).
    run_lines(service, {groom_hold_request(1, g, 4),
                        provision_by_id_request(2, 1, {{0, 3}}),
                        provision_by_id_request(3, 1, {{1, 4}})});
    ASSERT_NE(service.store(), nullptr);
    final_seq = service.store()->last_seq();
    EXPECT_EQ(final_seq, 3u);
  }
  // Read-only recovery of what actually reached the files.
  StoreRecovery recovery;
  RecoveredState state =
      recover_store_state(dir.str(), &recovery, /*repair=*/false);
  EXPECT_EQ(recovery.last_seq, final_seq);
  EXPECT_FALSE(recovery.torn_truncated);
  ASSERT_EQ(state.plans.size(), 1u);
  EXPECT_GE(state.plans.at(1).pairs.size(), 2u);
}

TEST(StoreService, IncompatibleStoreIsStructuredError) {
  TempDir dir;
  ServiceConfig config;
  config.metrics_on_exit = false;
  config.data_dir = dir.str();
  {
    GroomingService service(config);
    run_lines(service, {groom_hold_request(
                           1, ring_demand_graph(6, 0.5, 1), 4)});
  }
  // Bump the store version byte in the snapshot a restart would load.
  const std::vector<std::string> snaps = list_snapshot_files(dir.str());
  ASSERT_FALSE(snaps.empty());
  std::string data = read_file(snaps[0]);
  data[8] = static_cast<char>(data[8] + 1);
  write_file(snaps[0], data);

  GroomingService restarted(config);
  std::istringstream in("{\"op\":\"stats\",\"id\":1}\n");
  std::ostringstream out;
  EXPECT_EQ(restarted.run(in, out), 0);
  EXPECT_NE(out.str().find("\"error\":\"store_incompatible\""),
            std::string::npos)
      << out.str();
}

TEST(StoreService, StatsReportStoreSection) {
  TempDir dir;
  ServiceConfig config;
  config.metrics_on_exit = false;
  config.data_dir = dir.str();
  GroomingService service(config);
  const std::vector<std::string> lines = run_lines(
      service, {groom_hold_request(1, ring_demand_graph(6, 0.5, 2), 4),
                "{\"op\":\"stats\",\"id\":2}"});
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue stats = parse_json(lines[1]);
  const JsonValue* store = stats.find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->find("appends")->as_int(), 1);
  EXPECT_EQ(store->find("fsync_policy")->string, "batch");
  ASSERT_NE(store->find("recovery"), nullptr);
  const JsonValue* counters = stats.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("store_appends")->as_int(), 1);
}

}  // namespace
}  // namespace tgroom
