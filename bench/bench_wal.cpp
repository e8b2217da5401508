// WAL — durable-store append throughput across fsync policies: appends/s
// through WalWriter::append + sync on provision-sized records, for
// none / batch / always, plus a multi-threaded always run that shows how
// much group commit recovers.  fsync cost dominates and differs by
// orders of magnitude across policies, which is exactly the trade the
// `--fsync` serve flag exposes — this bench puts numbers on it.  Emits
// BENCH_wal.json for CI artifact upload and bench_compare.  Plain main
// (no google-benchmark): each run wants a fresh directory and a wall
// clock over a fixed record count.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "store/format.hpp"
#include "store/wal.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace tgroom;

namespace fs = std::filesystem;

struct Measurement {
  std::string mode;
  int threads = 1;
  long long records = 0;
  double seconds = 0;
  double appends_per_sec = 0;
  long long fsyncs = 0;
  double mean_batch = 0;  // records made durable per fsync
};

/// A provision-record-sized body (plan id + a couple of demand pairs),
/// the store's most common record by far.
std::string provision_body() {
  ByteWriter w;
  w.i64(7);
  encode_demand_pairs(w, {DemandPair{3, 11}, DemandPair{5, 9}});
  return w.take();
}

Measurement run_mode(const fs::path& base, FsyncPolicy policy, int threads,
                     long long records) {
  const fs::path dir =
      base / (std::string(fsync_policy_name(policy)) + "-t" +
              std::to_string(threads));
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string body = provision_body();
  StoreMetrics metrics;
  Measurement m;
  m.mode = fsync_policy_name(policy);
  m.threads = threads;
  m.records = records;
  {
    WalOptions options;
    options.fsync = policy;
    WalWriter wal(dir.string(), 1, options, &metrics);
    Stopwatch timer;
    if (threads <= 1) {
      for (long long i = 0; i < records; ++i) {
        wal.sync(wal.append(WalRecordType::kProvision, body));
      }
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      const long long per_thread = records / threads;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&wal, &body, per_thread] {
          for (long long i = 0; i < per_thread; ++i) {
            wal.sync(wal.append(WalRecordType::kProvision, body));
          }
        });
      }
      for (std::thread& thread : pool) thread.join();
      m.records = per_thread * threads;
    }
    wal.flush();
    m.seconds = timer.elapsed_seconds();
  }
  m.appends_per_sec = static_cast<double>(m.records) / m.seconds;
  m.fsyncs = metrics.fsyncs.load();
  m.mean_batch = m.fsyncs == 0 ? 0
                               : static_cast<double>(m.records) /
                                     static_cast<double>(m.fsyncs);
  fs::remove_all(dir);
  return m;
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_wal [--records N] [--always-records N] [--threads T] "
    "[--dir D] [--json FILE]\n"
    "WAL appends/s across fsync policies; writes a JSON report.\n";

int main(int argc, char** argv) {
  CliArgs args(argc, argv, kUsage);
  const long long records = args.get_int("records", 20000);
  // One fsync per record is the pathological case; keep it affordable.
  const long long always_records =
      args.get_int("always-records", records / 10);
  const int threads = static_cast<int>(args.get_int("threads", 4));
  const std::string json_path = args.get("json", "BENCH_wal.json");
  const fs::path base =
      args.get("dir", (fs::temp_directory_path() / "tgroom_bench_wal")
                          .string());

  std::cout << "wal bench: " << records << " provision-sized records ("
            << always_records << " for fsync=always), dir " << base
            << "\n\n";

  std::vector<Measurement> measurements;
  measurements.push_back(run_mode(base, FsyncPolicy::kNone, 1, records));
  measurements.push_back(run_mode(base, FsyncPolicy::kBatch, 1, records));
  measurements.push_back(
      run_mode(base, FsyncPolicy::kAlways, 1, always_records));
  measurements.push_back(
      run_mode(base, FsyncPolicy::kAlways, threads, always_records));
  std::error_code ec;
  fs::remove_all(base, ec);

  TextTable table("WAL append throughput (sync after every append)");
  table.set_header({"mode", "threads", "appends/s", "fsyncs", "recs/fsync"});
  for (const Measurement& m : measurements) {
    table.add_row({m.mode, TextTable::num(static_cast<long long>(m.threads)),
                   TextTable::num(m.appends_per_sec, 0),
                   TextTable::num(m.fsyncs), TextTable::num(m.mean_batch, 1)});
  }
  table.print(std::cout);

  std::ofstream out(json_path);
  JsonWriter w;
  w.begin_object();
  w.kv("benchmark", "wal_append");
  w.key("workload").begin_object();
  w.kv("records", records);
  w.kv("always_records", always_records);
  w.kv("body_bytes", static_cast<long long>(provision_body().size()));
  w.end_object();
  w.key("runs").begin_array();
  for (const Measurement& m : measurements) {
    w.begin_object();
    w.kv("mode", m.mode);
    w.kv("threads", static_cast<long long>(m.threads));
    w.kv("records", m.records);
    w.kv("seconds", m.seconds);
    w.kv("appends_per_sec", m.appends_per_sec);
    w.kv("fsyncs", m.fsyncs);
    w.kv("mean_batch", m.mean_batch);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << w.str() << "\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
