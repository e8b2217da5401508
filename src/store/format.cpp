#include "store/format.hpp"

#include <array>
#include <fstream>

#include "graph/fingerprint.hpp"

namespace tgroom {

namespace {

// Software CRC32C, slice-by-4 over the reflected Castagnoli polynomial.
// ~1.5 GB/s on commodity cores — framing is nowhere near the WAL's fsync
// or serialization costs, so a hardware (SSE4.2) path is not worth the
// portability surface.
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  Crc32cTables() {
    constexpr std::uint32_t kPoly = 0x82F63B78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

const Crc32cTables& crc_tables() {
  static const Crc32cTables tables;
  return tables;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = crc_tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  while (size >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    size -= 4;
  }
  while (size-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

void ByteWriter::u32(std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out_.append(buf, 4);
}

void ByteWriter::u64(std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out_.append(buf, 8);
}

void ByteReader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw StoreCorruptError("store record decodes past its framed length");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_++]))
         << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_++]))
         << (8 * i);
  }
  return v;
}

void encode_plan(ByteWriter& w, const GroomingPlan& plan) {
  w.u32(static_cast<std::uint32_t>(plan.ring_size));
  w.u32(static_cast<std::uint32_t>(plan.grooming_factor));
  w.u32(static_cast<std::uint32_t>(plan.pairs.size()));
  for (const GroomedPair& gp : plan.pairs) {
    w.u32(static_cast<std::uint32_t>(gp.pair.a));
    w.u32(static_cast<std::uint32_t>(gp.pair.b));
    w.u32(static_cast<std::uint32_t>(gp.wavelength));
    w.u32(static_cast<std::uint32_t>(gp.timeslot));
  }
}

GroomingPlan decode_plan(ByteReader& r) {
  GroomingPlan plan;
  plan.ring_size = static_cast<NodeId>(r.u32());
  plan.grooming_factor = static_cast<int>(r.u32());
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 16) {
    throw StoreCorruptError("plan pair count exceeds record size");
  }
  plan.pairs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    GroomedPair gp;
    gp.pair.a = static_cast<NodeId>(r.u32());
    gp.pair.b = static_cast<NodeId>(r.u32());
    gp.wavelength = static_cast<int>(r.u32());
    gp.timeslot = static_cast<int>(r.u32());
    plan.pairs.push_back(gp);
  }
  return plan;
}

void encode_demand_pairs(ByteWriter& w,
                         const std::vector<DemandPair>& pairs) {
  w.u32(static_cast<std::uint32_t>(pairs.size()));
  for (const DemandPair& p : pairs) {
    w.u32(static_cast<std::uint32_t>(p.a));
    w.u32(static_cast<std::uint32_t>(p.b));
  }
}

std::vector<DemandPair> decode_demand_pairs(ByteReader& r) {
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 8) {
    throw StoreCorruptError("demand pair count exceeds record size");
  }
  std::vector<DemandPair> pairs;
  pairs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DemandPair p;
    p.a = static_cast<NodeId>(r.u32());
    p.b = static_cast<NodeId>(r.u32());
    pairs.push_back(p);
  }
  return pairs;
}

void encode_cache_entry(ByteWriter& w, const GroomCacheKey& key,
                        const GroomCacheValue& value) {
  w.u64(key.fingerprint);
  w.u32(static_cast<std::uint32_t>(key.algorithm));
  w.u32(static_cast<std::uint32_t>(key.k));
  w.u64(key.seed);
  w.u32(key.flags);
  w.i64(value.sadms);
  w.u32(static_cast<std::uint32_t>(value.wavelengths));
  w.i64(value.lower_bound);
  w.u32(static_cast<std::uint32_t>(value.parts.size()));
  for (FlatParts::Part part : value.parts) {
    w.u32(static_cast<std::uint32_t>(part.size()));
    for (EdgeId e : part) w.u32(static_cast<std::uint32_t>(e));
  }
}

void decode_cache_entry(ByteReader& r, GroomCacheKey& key,
                        GroomCacheValue& value) {
  key.fingerprint = r.u64();
  key.algorithm = static_cast<int>(r.u32());
  key.k = static_cast<int>(r.u32());
  key.seed = r.u64();
  key.flags = r.u32();
  value.sadms = r.i64();
  value.wavelengths = static_cast<int>(r.u32());
  value.lower_bound = r.i64();
  const std::uint32_t parts = r.u32();
  if (parts > r.remaining() / 4) {
    throw StoreCorruptError("cache entry part count exceeds record size");
  }
  value.parts = FlatParts();
  value.parts.reserve(parts, 0);
  std::vector<EdgeId> part;
  for (std::uint32_t i = 0; i < parts; ++i) {
    const std::uint32_t len = r.u32();
    if (len > r.remaining() / 4) {
      throw StoreCorruptError("cache entry part length exceeds record size");
    }
    part.clear();
    for (std::uint32_t j = 0; j < len; ++j) {
      part.push_back(static_cast<EdgeId>(r.u32()));
    }
    value.parts.push_back(FlatParts::Part(part));
  }
}

bool read_file_bytes(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  out.resize(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  if (static_cast<std::size_t>(in.gcount()) != out.size()) {
    throw StoreCorruptError(path + ": short read");
  }
  return true;
}

void write_file_header(ByteWriter& w, std::string_view magic) {
  TGROOM_CHECK(magic.size() == 8);
  w.bytes(magic.data(), magic.size());
  w.u32(kStoreFormatVersion);
  w.u32(kFingerprintFormatVersion);
}

void check_file_header(ByteReader& r, std::string_view magic,
                       const std::string& path) {
  char got[8];
  for (char& c : got) c = static_cast<char>(r.u8());
  if (std::string_view(got, 8) != magic) {
    throw StoreCorruptError(path + ": bad magic (not a tgroom store file)");
  }
  const std::uint32_t store_version = r.u32();
  const std::uint32_t fp_version = r.u32();
  if (store_version != kStoreFormatVersion) {
    throw StoreIncompatibleError(
        path + ": store format version " + std::to_string(store_version) +
        ", this build reads version " + std::to_string(kStoreFormatVersion));
  }
  if (fp_version != kFingerprintFormatVersion) {
    throw StoreIncompatibleError(
        path + ": fingerprint format version " + std::to_string(fp_version) +
        ", this build computes version " +
        std::to_string(kFingerprintFormatVersion));
  }
}

}  // namespace tgroom
