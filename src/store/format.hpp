// On-disk format shared by the durable store's WAL segments and snapshots.
//
// Everything the store writes is little-endian, length-prefixed, and
// CRC32C-framed, so recovery can tell "the machine died mid-write" (a
// torn tail, truncated and survived) from "the bytes rotted" (a hard
// corruption error).  Two version numbers guard replay:
//
//  - kStoreFormatVersion: the framing + record/snapshot body layout.
//  - kFingerprintFormatVersion (graph/fingerprint.hpp): fingerprints are
//    persisted as cache-prewarm keys, and a fingerprint computed by a
//    different absorption scheme would silently mismatch every key.
//
// Both are written into every file header; a mismatch on open raises
// StoreIncompatibleError, which the service surfaces as a structured
// `store_incompatible` error instead of replaying garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "grooming/plan.hpp"
#include "service/cache.hpp"
#include "util/check.hpp"

namespace tgroom {

/// Layout version of WAL records and snapshot bodies.  v2 added the
/// kRelease WAL record (demand release with local repair) — a v1 reader
/// would replay a v2 log into the wrong held-plan table, so the bump is
/// a hard gate.
inline constexpr std::uint32_t kStoreFormatVersion = 2;

/// A store file was written by a different store or fingerprint format
/// version.  Deliberate hard stop: replaying it could only produce a
/// plausible-looking wrong held-plan table.
class StoreIncompatibleError : public CheckError {
 public:
  explicit StoreIncompatibleError(const std::string& what)
      : CheckError(what) {}
};

/// A store file is damaged somewhere recovery cannot repair (CRC failure
/// or truncation that is not the tail of the final WAL segment).
class StoreCorruptError : public CheckError {
 public:
  explicit StoreCorruptError(const std::string& what) : CheckError(what) {}
};

/// CRC32C (Castagnoli) over `size` bytes, continuing from `seed` (pass the
/// previous return value to checksum in pieces; 0 starts fresh).
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

/// Append-only little-endian encoder.  The backing string is retained
/// across clear(), so a reused writer encodes without heap allocation
/// once warm (same contract as JsonWriter).
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }

  void clear() { out_.clear(); }
  std::size_t size() const { return out_.size(); }
  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked decoder over a borrowed buffer; any read past the end
/// throws StoreCorruptError (a framed record that decodes short is
/// damage, never a tear — tears are caught by the length prefix).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---- shared body codecs ------------------------------------------------
// Used by both WAL records (hold/provision mutations) and snapshots, so
// the two paths can never disagree on a plan's byte layout.

void encode_plan(ByteWriter& w, const GroomingPlan& plan);
GroomingPlan decode_plan(ByteReader& r);

void encode_demand_pairs(ByteWriter& w, const std::vector<DemandPair>& pairs);
std::vector<DemandPair> decode_demand_pairs(ByteReader& r);

/// Groom-cache key + value payload persisted with a hold record so
/// recovery can pre-warm the PlanCache.
void encode_cache_entry(ByteWriter& w, const GroomCacheKey& key,
                        const GroomCacheValue& value);
void decode_cache_entry(ByteReader& r, GroomCacheKey& key,
                        GroomCacheValue& value);

/// Reads the whole of `path` into `out`.  False when the file cannot be
/// opened; a read that stops short of the size seen at open throws
/// StoreCorruptError.
bool read_file_bytes(const std::string& path, std::string& out);

/// Shared file-header helper: magic (8 bytes) + store version +
/// fingerprint version.  check_file_header throws StoreIncompatibleError
/// on a version mismatch and StoreCorruptError on a magic mismatch.
void write_file_header(ByteWriter& w, std::string_view magic);
void check_file_header(ByteReader& r, std::string_view magic,
                       const std::string& path);

}  // namespace tgroom
