#include "store/snapshot.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

namespace tgroom {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kSnapshotMagic = "TGROOMSN";
// magic(8) + versions(8) + last_seq(8) + body_len(4) + body_crc(4).
constexpr std::size_t kSnapshotHeaderBytes = 32;

std::string snapshot_path(const std::string& dir, std::uint64_t last_seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "snap-%020llu.snap",
                static_cast<unsigned long long>(last_seq));
  return dir + "/" + name;
}

// Makes the rename durable.  The caller compacts the WAL behind the new
// snapshot next, so a directory that may not hold it on disk throws.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  TGROOM_CHECK_MSG(fd >= 0, "cannot open store dir to fsync: " + dir +
                                ": " + std::strerror(errno));
  const bool synced = ::fsync(fd) == 0;
  const int saved_errno = errno;
  ::close(fd);
  TGROOM_CHECK_MSG(synced, "fsync of store dir failed: " + dir + ": " +
                               std::strerror(saved_errno));
}

SnapshotData load_snapshot_file(const std::string& path) {
  std::string data;
  if (!read_file_bytes(path, data)) {
    throw StoreCorruptError(path + ": cannot open snapshot");
  }
  if (data.size() < kSnapshotHeaderBytes) {
    throw StoreCorruptError(path + ": truncated snapshot header");
  }
  ByteReader header(std::string_view(data).substr(0, kSnapshotHeaderBytes));
  check_file_header(header, kSnapshotMagic, path);
  SnapshotData snap;
  snap.last_seq = header.u64();
  if (snap.last_seq != snapshot_file_last_seq(path)) {
    throw StoreCorruptError(path + ": filename does not match header seq");
  }
  const std::uint32_t body_len = header.u32();
  const std::uint32_t body_crc = header.u32();
  if (data.size() - kSnapshotHeaderBytes != body_len) {
    throw StoreCorruptError(path + ": body length mismatch");
  }
  const std::string_view body =
      std::string_view(data).substr(kSnapshotHeaderBytes);
  if (crc32c(body.data(), body.size()) != body_crc) {
    throw StoreCorruptError(path + ": body CRC mismatch");
  }
  ByteReader r(body);
  snap.next_plan_id = r.i64();
  const std::uint32_t count = r.u32();
  snap.plans.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::int64_t id = r.i64();
    snap.plans.emplace_back(id, decode_plan(r));
  }
  if (!r.at_end()) {
    throw StoreCorruptError(path + ": trailing bytes after plan table");
  }
  return snap;
}

}  // namespace

std::uint64_t snapshot_file_last_seq(const std::string& path) {
  const std::string name = fs::path(path).filename().string();
  constexpr std::string_view kPrefix = "snap-";
  constexpr std::string_view kSuffix = ".snap";
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

std::vector<std::string> list_snapshot_files(const std::string& dir) {
  std::vector<std::string> paths;
  if (!fs::exists(dir)) return paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    if (snapshot_file_last_seq(path) != 0) paths.push_back(path);
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::string write_snapshot_file(const std::string& dir,
                                const SnapshotData& snap) {
  ByteWriter body;
  body.i64(snap.next_plan_id);
  body.u32(static_cast<std::uint32_t>(snap.plans.size()));
  for (const auto& [id, plan] : snap.plans) {
    body.i64(id);
    encode_plan(body, plan);
  }
  ByteWriter file;
  write_file_header(file, kSnapshotMagic);
  file.u64(snap.last_seq);
  file.u32(static_cast<std::uint32_t>(body.size()));
  file.u32(crc32c(body.str().data(), body.size()));
  TGROOM_CHECK(file.size() == kSnapshotHeaderBytes);

  const std::string path = snapshot_path(dir, snap.last_seq);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  TGROOM_CHECK_MSG(f != nullptr, "cannot create snapshot: " + tmp);
  std::size_t wrote = std::fwrite(file.str().data(), 1, file.size(), f);
  wrote += std::fwrite(body.str().data(), 1, body.size(), f);
  // The rename below publishes the snapshot and compaction then retires
  // the WAL it covers, so every step that puts it on disk must succeed
  // first.  The first failure is reported; none is retried.
  const char* failed = nullptr;
  int error = 0;
  auto note = [&](const char* call, bool ok) {
    if (!ok && failed == nullptr) {
      failed = call;
      error = errno;
    }
  };
  note("fflush", std::fflush(f) == 0);
  note("fsync", ::fsync(fileno(f)) == 0);
  note("fclose", std::fclose(f) == 0);
  TGROOM_CHECK_MSG(wrote == file.size() + body.size(),
                   "short write to snapshot: " + tmp);
  TGROOM_CHECK_MSG(failed == nullptr, std::string(failed) +
                                          " of snapshot failed: " + tmp +
                                          ": " + std::strerror(error));
  fs::rename(tmp, path);
  fsync_dir(dir);
  return path;
}

std::optional<SnapshotData> load_latest_snapshot(
    const std::string& dir, std::size_t* skipped_corrupt) {
  std::vector<std::string> paths = list_snapshot_files(dir);
  for (auto it = paths.rbegin(); it != paths.rend(); ++it) {
    try {
      return load_snapshot_file(*it);
    } catch (const StoreIncompatibleError&) {
      throw;
    } catch (const StoreCorruptError&) {
      if (skipped_corrupt != nullptr) *skipped_corrupt += 1;
    }
  }
  return std::nullopt;
}

}  // namespace tgroom
