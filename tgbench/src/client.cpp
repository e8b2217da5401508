// The load client: drives one workload against a running `tgroom serve`
// or `tgroom route` over 4 connections from one thread, checks every
// answer, and prints one JSON line of raw measurements.
//
// Phases, in order: setup (prime + fixed-count warm-up), a closed loop
// with every connection's pipeline window kept full, an open loop with
// Poisson arrivals timed from each request's due time, and the fixed
// verification set.  `--setup-only 1` stops after setup.
#include <arpa/inet.h>
#include <errno.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "partition/edge_partition.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace tgbench {

using tgroom::JsonValue;
using tgroom::Rng;

namespace {

constexpr int kConnections = 4;
constexpr std::int64_t kDrainTimeoutNs = 20'000'000'000;
// The closed loop is cut into this many equal sub-windows (closed_rps).
constexpr std::size_t kSubWindows = 16;

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---- host steal ---------------------------------------------------------------

/// Samples of the host's steal (CPU time it gave to other guests) from
/// /proc/stat, so each measured window can be ranked by how much of the
/// machine the host took away during it.
class StealClock {
 public:
  void sample(std::int64_t now) {
    std::ifstream in("/proc/stat");
    std::string cpu;
    long long v[8] = {};
    in >> cpu;
    for (long long& x : v) in >> x;
    long long total = 0;
    for (long long x : v) total += x;
    samples_.push_back({now, v[7], total});
  }
  /// Stolen share of CPU time between t0 and t1, from the samples that
  /// bracket them.
  double share(std::int64_t t0, std::int64_t t1) const {
    if (samples_.size() < 2) return 0;
    std::size_t a = 0, b = samples_.size() - 1;
    while (a + 1 < samples_.size() && samples_[a + 1].t <= t0) ++a;
    for (std::size_t i = a; i < samples_.size(); ++i) {
      if (samples_[i].t >= t1) {
        b = i;
        break;
      }
    }
    if (b <= a || samples_[b].total == samples_[a].total) return 0;
    return static_cast<double>(samples_[b].steal - samples_[a].steal) /
           static_cast<double>(samples_[b].total - samples_[a].total);
  }

 private:
  struct Sample {
    std::int64_t t;
    long long steal;
    long long total;
  };
  std::vector<Sample> samples_;
};

constexpr std::int64_t kStealSampleNs = 50'000'000;

/// The median of `values` over the `keep` windows with the least host
/// steal (ties in time order).  Windows the host interrupted measure the
/// host; the calm ones measure the program.
double calm_median(const std::vector<double>& steal,
                   const std::vector<double>& values, std::size_t keep) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return steal[x] < steal[y]; });
  std::vector<double> kept;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, keep) && i < order.size(); ++i) {
    kept.push_back(values[order[i]]);
  }
  std::sort(kept.begin(), kept.end());
  const std::size_t n = kept.size();
  return n == 0 ? 0 : (kept[(n - 1) / 2] + kept[n / 2]) / 2;
}

// ---- one NDJSON connection ------------------------------------------------

class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to port " + std::to_string(port) +
                               " failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_all(std::string& buf) {
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
    buf.clear();
  }

  /// Sends from `buf[off]` what the socket takes without blocking; true
  /// once everything is sent (then `buf` is cleared).
  bool send_some(std::string& buf, std::size_t& off) {
    while (off < buf.size()) {
      const ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
    buf.clear();
    off = 0;
    return true;
  }

  /// Waits up to `timeout_ns` for bytes, then hands every complete line
  /// to `on_line`.  False on timeout; throws when the peer closed.
  bool read_lines(std::int64_t timeout_ns,
                  const std::function<void(std::string_view)>& on_line) {
    pollfd pfd{fd_, POLLIN, 0};
    timespec ts{timeout_ns / 1'000'000'000, timeout_ns % 1'000'000'000};
    if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) return false;
    read_available(on_line);
    return true;
  }

  /// One recv; every complete line goes to `on_line`.  Throws when the
  /// peer closed.
  void read_available(const std::function<void(std::string_view)>& on_line) {
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) throw std::runtime_error("connection closed by the daemon");
    buf_.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = buf_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      on_line(std::string_view(buf_).substr(start, nl - start));
    }
    buf_.erase(0, start);
  }

  int fd() const { return fd_; }

  /// One request, one answer (setup, stats and verification traffic).
  std::string round_trip(std::string line) {
    line += '\n';
    send_all(line);
    std::string answer;
    bool got = false;
    while (!got) {
      if (!read_lines(kDrainTimeoutNs, [&](std::string_view l) {
            answer.assign(l);
            got = true;
          })) {
        throw std::runtime_error("no answer within the timeout");
      }
    }
    return answer;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// ---- correctness checks -----------------------------------------------------

/// Correctness failures: a count and the first few messages.
struct Errors {
  void add(const std::string& what) {
    if (list.size() < 8) list.push_back(what);
    ++count;
  }
  std::vector<std::string> list;
  long long count = 0;
};

bool is_ok(std::string_view line) {
  return strip_id(line).substr(0, 10) == "\"ok\":true,";
}

/// Independent re-verification of a groom answer: minimum wavelengths,
/// sadms >= lower_bound, and (when the partition is echoed) each part has
/// <= k edges, the parts cover every edge exactly once, and the nodes the
/// parts span sum to sadms.
bool check_groom(const GroomShape& shape, std::string_view line,
                 int expect_cached, std::string& err, long long* sadms_out,
                 long long* lb_out) {
  if (!is_ok(line)) {
    err = "groom failed: " + std::string(line.substr(0, 200));
    return false;
  }
  long long sadms = 0, waves = 0, lb = 0;
  if (!find_int(line, "sadms", sadms) || !find_int(line, "wavelengths", waves) ||
      !find_int(line, "lower_bound", lb)) {
    err = "groom answer lacks sadms/wavelengths/lower_bound";
    return false;
  }
  if (waves != shape.expected_wavelengths()) {
    err = "wavelengths " + std::to_string(waves) + " != ceil(m/k) " +
          std::to_string(shape.expected_wavelengths());
    return false;
  }
  if (sadms < lb) {
    err = "sadms below lower_bound";
    return false;
  }
  if (expect_cached >= 0) {
    const bool cached = line.find("\"cached\":true") != std::string_view::npos;
    if (cached != (expect_cached == 1)) {
      err = std::string("expected cached:") +
            (expect_cached == 1 ? "true" : "false");
      return false;
    }
  }
  if (line.find("\"partition\":") != std::string_view::npos) {
    const JsonValue doc = tgroom::parse_json(line);
    const JsonValue* parts = doc.find("partition");
    const auto m = static_cast<std::size_t>(shape.graph.real_edge_count());
    std::vector<char> seen(m, 0);
    std::vector<int> stamp(static_cast<std::size_t>(shape.graph.node_count()),
                           -1);
    long long spanned = 0;
    for (std::size_t i = 0; i < parts->array.size(); ++i) {
      const JsonValue& part = parts->array[i];
      if (part.array.size() > static_cast<std::size_t>(shape.k)) {
        err = "a part carries more than k edges";
        return false;
      }
      for (const JsonValue& ev : part.array) {
        const std::int64_t e = ev.as_int();
        if (e < 0 || static_cast<std::size_t>(e) >= m ||
            seen[static_cast<std::size_t>(e)] != 0) {
          err = "partition repeats or invents edge " + std::to_string(e);
          return false;
        }
        seen[static_cast<std::size_t>(e)] = 1;
        const tgroom::Edge& edge = shape.graph.edge(static_cast<int>(e));
        for (int v : {edge.u, edge.v}) {
          if (stamp[static_cast<std::size_t>(v)] != static_cast<int>(i)) {
            stamp[static_cast<std::size_t>(v)] = static_cast<int>(i);
            ++spanned;
          }
        }
      }
    }
    if (std::count(seen.begin(), seen.end(), 1) != static_cast<long>(m)) {
      err = "partition misses an edge";
      return false;
    }
    if (spanned != sadms ||
        static_cast<long long>(parts->array.size()) != waves) {
      err = "partition node count or part count disagrees with the answer";
      return false;
    }
  }
  if (sadms_out != nullptr) *sadms_out = sadms;
  if (lb_out != nullptr) *lb_out = lb;
  return true;
}

// ---- request sources ------------------------------------------------------

struct Slot {
  std::int64_t due_ns = 0;
  int tmpl = -1;
  bool flag = false;
  bool answered = false;
  std::unique_ptr<ChurnRequest> churn;
};

class Source {
 public:
  virtual ~Source() = default;
  /// Appends the body of the next request (after the id) to `out`.
  virtual void next(Rng& rng, std::string& out, Slot& slot) = 0;
  /// Checks one answer; false marks a correctness failure in `err`.
  /// `ok` reports whether the daemon answered ok:true.
  virtual bool check(const Slot& slot, std::string_view line, bool& ok,
                     std::string& err) = 0;
};

class GroomSource : public Source {
 public:
  GroomSource(std::vector<GroomShape> pool, bool hot)
      : pool_(std::move(pool)), hot_(hot) {
    if (hot_) {
      bodies_.resize(pool_.size());
      expected_.resize(pool_.size());
      for (std::size_t t = 0; t < pool_.size(); ++t) {
        for (std::size_t flag = 0; flag < 2; ++flag) {
          render_groom_body(pool_[t], flag == 1, false, nullptr,
                            bodies_[t][flag]);
        }
      }
    }
  }

  const std::vector<GroomShape>& pool() const { return pool_; }
  const std::string& body(std::size_t t, std::size_t flag) const {
    return bodies_[t][flag];
  }
  void set_expected(std::size_t t, std::size_t flag, std::string_view answer) {
    expected_[t][flag].assign(answer);
  }

  void next(Rng& rng, std::string& out, Slot& slot) override {
    slot.tmpl = static_cast<int>(rng.below(pool_.size()));
    if (hot_) {
      slot.flag = rng.uniform01() < 0.1;
      out += bodies_[static_cast<std::size_t>(slot.tmpl)][slot.flag ? 1 : 0];
      return;
    }
    // A fresh node relabelling makes every cold request a distinct graph
    // (a distinct fingerprint, so a cache miss) with the same work.
    const GroomShape& shape = pool_[static_cast<std::size_t>(slot.tmpl)];
    random_permutation(static_cast<std::size_t>(shape.graph.node_count()), rng,
                       relabel_);
    render_groom_body(shape, false, false, &relabel_, out);
  }

  bool check(const Slot& slot, std::string_view line, bool& ok,
             std::string& err) override {
    ok = is_ok(line);
    if (!ok) return true;  // counted as a failure, not a wrong answer
    const std::size_t t = static_cast<std::size_t>(slot.tmpl);
    if (hot_) {
      if (strip_id(line) != expected_[t][slot.flag ? 1 : 0]) {
        err = "hot answer differs from the primed answer";
        return false;
      }
      return true;
    }
    return check_groom(pool_[t], line, 0, err, nullptr, nullptr);
  }

 private:
  std::vector<GroomShape> pool_;
  bool hot_;
  std::vector<std::array<std::string, 2>> bodies_;
  std::vector<std::array<std::string, 2>> expected_;
  std::vector<int> relabel_;
};

class ChurnSource : public Source {
 public:
  explicit ChurnSource(ChurnState& state) : state_(state) {}

  void next(Rng& rng, std::string& out, Slot& slot) override {
    slot.churn = std::make_unique<ChurnRequest>(state_.next(rng, true));
    state_.render(*slot.churn, out);
  }

  bool check(const Slot& slot, std::string_view line, bool& ok,
             std::string& err) override {
    ok = is_ok(line);
    state_.ack(*slot.churn, ok);
    if (!ok) return true;
    const char* op = slot.churn->op == ChurnOp::kHold        ? "\"op\":\"groom\""
                     : slot.churn->op == ChurnOp::kProvision ? "\"op\":\"provision\""
                                                             : "\"op\":\"release\"";
    if (line.find(op) == std::string_view::npos) {
      err = "answer for the wrong op";
      return false;
    }
    return slot.churn->op != ChurnOp::kHold ||
           check_groom(slot.churn->shape, line, -1, err, nullptr, nullptr);
  }

 private:
  ChurnState& state_;
};

// ---- phases -----------------------------------------------------------------

struct PhaseSpec {
  bool open = false;
  double rate = 0;        // open: offered req/s over all connections
  double seconds = 0;     // > 0: time-bounded
  long long count = 0;    // > 0: count-bounded (warm-up)
  int window = 1;         // closed: requests in flight per connection
  std::uint64_t seed = 1;
};

struct PhaseResult {
  long long sent = 0;
  long long ok = 0;
  long long failed = 0;        // ok:false or never answered
  double seconds = 0;
  std::vector<double> latency_ms;  // open: due -> answer
  std::vector<std::int64_t> answer_ns;  // open: when each answer came
  std::vector<long long> window_ok;     // closed: ok answers per sub-window
  std::int64_t start_ns = 0;
  bool open = false;
  StealClock steal;
  std::vector<double> late_ms;     // open: due -> sent
  double cpu_share = 0;            // client thread CPU / wall
};

void append_id(std::string& out, std::int64_t id) {
  out += "{\"id\":";
  out += std::to_string(id);
  out += ',';
}

PhaseResult run_phase(std::vector<std::unique_ptr<Conn>>& conns, Source& src,
                      const PhaseSpec& spec, Errors& errors) {
  // One thread serves every connection: the client adds one runnable
  // thread to the host, not four.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  struct ConnState {
    std::deque<Slot> slots = std::deque<Slot>(1);  // ids start at 1; a
                                                   // deque never moves them
    std::string sbuf;      // requests not yet taken by the socket
    std::size_t sent = 0;  // sbuf[0, sent) is already sent
    long long inflight = 0;
  };
  const std::size_t nconn = conns.size();
  std::vector<ConnState> st(nconn);
  PhaseResult r;
  if (spec.open) {
    const auto expected = static_cast<std::size_t>(
        1.2 * (spec.count > 0 ? static_cast<double>(spec.count)
                              : spec.rate * spec.seconds));
    r.latency_ms.reserve(expected);
    r.answer_ns.reserve(expected);
    r.late_ms.reserve(expected);
  }
  Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL);
  long long inflight = 0;
  const std::int64_t start = mono_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t deadline =
      spec.seconds > 0 ? start + static_cast<std::int64_t>(spec.seconds * 1e9)
                       : INT64_MAX;
  const double rate_ns = spec.open ? spec.rate / 1e9 : 0;
  auto gap = [&] {
    return static_cast<std::int64_t>(-std::log(1.0 - rng.uniform01()) / rate_ns);
  };
  std::int64_t next_due = spec.open ? start + gap() : 0;
  std::size_t next_conn = 0;
  std::vector<long long>& window_ok = r.window_ok;
  window_ok.assign(kSubWindows, 0);
  r.start_ns = start;
  r.open = spec.open;
  r.steal.sample(start);
  std::int64_t next_steal_sample = start + kStealSampleNs;
  auto emit = [&](std::size_t c, std::int64_t due) {
    ConnState& cs = st[c];
    const auto id = static_cast<std::int64_t>(cs.slots.size());
    cs.slots.emplace_back();
    Slot& slot = cs.slots.back();
    slot.due_ns = due;
    append_id(cs.sbuf, id);
    src.next(rng, cs.sbuf, slot);
    cs.sbuf += '\n';
    ++r.sent;
    ++cs.inflight;
    ++inflight;
  };
  auto on_line = [&](std::size_t c, std::string_view line) {
    const std::int64_t now = mono_ns();
    ConnState& cs = st[c];
    std::int64_t id = 0;
    if (!response_id(line, id) || id <= 0 ||
        id >= static_cast<std::int64_t>(cs.slots.size()) ||
        cs.slots[static_cast<std::size_t>(id)].answered) {
      errors.add("unmatched answer: " + std::string(line.substr(0, 120)));
      return;
    }
    Slot& slot = cs.slots[static_cast<std::size_t>(id)];
    slot.answered = true;
    --cs.inflight;
    --inflight;
    bool ok = false;
    std::string err;
    if (!src.check(slot, line, ok, err)) errors.add(err);
    if (!ok) {
      if (r.failed++ < 3) {
        std::fprintf(stderr, "tgbench client: failed answer: %.*s\n",
                     static_cast<int>(std::min<std::size_t>(line.size(), 200)),
                     line.data());
      }
      return;
    }
    ++r.ok;
    if (spec.open) {
      r.latency_ms.push_back(static_cast<double>(now - slot.due_ns) / 1e6);
      r.answer_ns.push_back(now);
    } else if (now <= deadline) {
      const auto bucket = static_cast<std::size_t>(
          (now - start) * static_cast<std::int64_t>(kSubWindows) /
          std::max<std::int64_t>(1, deadline - start));
      ++window_ok[std::min<std::size_t>(bucket, kSubWindows - 1)];
    }
  };

  std::vector<pollfd> pfds(nconn);
  std::int64_t last_progress = start;
  for (;;) {
    std::int64_t now = mono_ns();
    if (now >= next_steal_sample) {
      r.steal.sample(now);
      next_steal_sample = now + kStealSampleNs;
    }
    bool more;
    if (spec.open) {
      auto scheduled = [&] {
        return spec.count > 0 ? r.sent < spec.count : next_due < deadline;
      };
      while (scheduled() && next_due <= now) {
        r.late_ms.push_back(static_cast<double>(now - next_due) / 1e6);
        emit(next_conn, next_due);
        next_conn = (next_conn + 1) % nconn;
        next_due += gap();
      }
      more = scheduled();
    } else {
      more = spec.count > 0 ? r.sent < spec.count : now < deadline;
      for (std::size_t c = 0; c < nconn; ++c) {
        while (more && st[c].inflight < spec.window &&
               (spec.count == 0 || r.sent < spec.count)) {
          emit(c, now);
        }
      }
    }
    // Sends never block: a daemon that stops reading delays its answers
    // (counted from the due time), never the generator's schedule.
    for (std::size_t c = 0; c < nconn; ++c) {
      pfds[c] = {conns[c]->fd(), POLLIN, 0};
      if (!st[c].sbuf.empty() && !conns[c]->send_some(st[c].sbuf, st[c].sent)) {
        pfds[c].events |= POLLOUT;
      }
    }
    if (!more && inflight == 0) break;
    std::int64_t wait = 1'000'000'000;
    if (spec.open && more) {
      wait = std::max<std::int64_t>(0, next_due - mono_ns());
    }
    timespec ts{wait / 1'000'000'000, wait % 1'000'000'000};
    if (::ppoll(pfds.data(), nconn, &ts, nullptr) > 0) {
      for (std::size_t c = 0; c < nconn; ++c) {
        if ((pfds[c].revents & ~POLLOUT) == 0) continue;
        conns[c]->read_available(
            [&](std::string_view line) { on_line(c, line); });
        last_progress = mono_ns();
      }
    }
    if (inflight > 0 && mono_ns() - last_progress > kDrainTimeoutNs) {
      r.failed += inflight;  // never answered
      errors.add("answers missing after the drain timeout");
      break;
    }
  }
  const std::int64_t end = mono_ns();
  r.seconds = spec.seconds > 0 ? spec.seconds
                               : static_cast<double>(end - start) / 1e9;
  r.steal.sample(end);
  r.cpu_share = static_cast<double>(thread_cpu_ns() - cpu0) /
                static_cast<double>(std::max<std::int64_t>(1, end - start));
  return r;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Closed loop: ok answers per second, the median over the calmer half
/// of kSubWindows equal sub-windows.
double closed_rps(const PhaseResult& p) {
  const double len = p.seconds / kSubWindows;
  std::vector<double> steal, rate;
  for (std::size_t k = 0; k < kSubWindows; ++k) {
    const auto t0 = p.start_ns + static_cast<std::int64_t>(len * 1e9 * static_cast<double>(k));
    steal.push_back(p.steal.share(t0, t0 + static_cast<std::int64_t>(len * 1e9)));
    rate.push_back(static_cast<double>(p.window_ok[k]) / len);
  }
  return calm_median(steal, rate, kSubWindows / 2);
}

/// Open loop: the answers cut, in time order, into windows of 1000 (one
/// window when there are fewer than 2000); each window's q-quantile; the
/// median of those over the calmest quarter of the windows.  A window's
/// p99 has 10 samples beyond it.
double open_percentile(const PhaseResult& p, double q) {
  constexpr std::size_t kWindowSamples = 1000;
  const std::vector<double>& v = p.latency_ms;
  const std::size_t windows = std::max<std::size_t>(1, v.size() / kWindowSamples);
  std::vector<double> steal, value;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t a = v.size() * w / windows;
    const std::size_t b = v.size() * (w + 1) / windows;
    if (a == b) continue;
    steal.push_back(p.steal.share(p.answer_ns[a], p.answer_ns[b - 1]));
    value.push_back(percentile(std::vector<double>(v.begin() + static_cast<long>(a),
                                                   v.begin() + static_cast<long>(b)),
                               q));
  }
  return calm_median(steal, value, (value.size() + 3) / 4);
}

// ---- daemon-side readings ---------------------------------------------------

struct ProcReading {
  std::string role;
  int pid = 0;
  double cpu_s = 0;
  double hwm_mb = 0;
  long long threads = 0;
  long long sockets = 0;
};

ProcReading read_proc(const std::string& role, int pid) {
  ProcReading r;
  r.role = role;
  r.pid = pid;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)), {});
  const std::size_t close = text.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    double utime = 0, stime = 0;
    // Fields 3.. follow the command name; utime and stime are 14 and 15.
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    r.cpu_s = (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) r.hwm_mb = std::stod(line.substr(6)) / 1024;
    if (line.rfind("Threads:", 0) == 0) r.threads = std::stoll(line.substr(8));
  }
  const std::string fd_dir = "/proc/" + std::to_string(pid) + "/fd";
  if (DIR* dir = ::opendir(fd_dir.c_str())) {
    while (dirent* entry = ::readdir(dir)) {
      char target[64];
      const std::string path = fd_dir + "/" + entry->d_name;
      const ssize_t n = ::readlink(path.c_str(), target, sizeof target - 1);
      if (n > 0 && std::string_view(target, static_cast<std::size_t>(n))
                           .rfind("socket:", 0) == 0) {
        ++r.sockets;
      }
    }
    ::closedir(dir);
  }
  return r;
}

std::vector<ProcReading> read_procs(
    const std::vector<std::pair<std::string, int>>& pids) {
  std::vector<ProcReading> out;
  for (const auto& [role, pid] : pids) out.push_back(read_proc(role, pid));
  return out;
}

struct NodeStats {
  double received = 0, pipelined = 0, hits = 0, misses = 0, evictions = 0;
  double alloc_requests = 0, alloc_total = 0, forward_retries = 0;
};

double counter(const JsonValue& doc, std::string_view name) {
  const JsonValue* metrics = doc.find("metrics");
  const JsonValue* counters = metrics ? metrics->find("counters") : nullptr;
  const JsonValue* v = counters ? counters->find(name) : nullptr;
  return v != nullptr ? v->number : 0;
}

NodeStats read_stats(const std::vector<int>& ports) {
  NodeStats s;
  for (int port : ports) {
    Conn conn(port);
    const JsonValue doc =
        tgroom::parse_json(conn.round_trip("{\"id\":1,\"op\":\"stats\"}"));
    s.received += counter(doc, "received");
    s.pipelined += counter(doc, "pipelined");
    s.hits += counter(doc, "cache_hits");
    s.misses += counter(doc, "cache_misses");
    s.evictions += counter(doc, "cache_evictions");
    s.forward_retries += counter(doc, "forward_retries");
    if (const JsonValue* m = doc.find("metrics")) {
      if (const JsonValue* a = m->find("allocations")) {
        if (const JsonValue* v = a->find("requests")) s.alloc_requests += v->number;
        if (const JsonValue* v = a->find("total")) s.alloc_total += v->number;
      }
    }
  }
  return s;
}

std::vector<int> parse_ports(const std::string& list) {
  std::vector<int> out;
  std::stringstream in(list);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

// ---- setup and verification traffic --------------------------------------

/// Sends `bodies` over one connection, `window` in flight, and returns the
/// answers in request order.
std::vector<std::string> pipelined(Conn& conn,
                                   const std::vector<std::string>& bodies,
                                   std::size_t window) {
  std::vector<std::string> answers(bodies.size());
  std::size_t next = 0, done = 0;
  std::string sbuf;
  while (done < bodies.size()) {
    while (next < bodies.size() && next - done < window) {
      append_id(sbuf, static_cast<std::int64_t>(next + 1));
      sbuf += bodies[next++];
      sbuf += '\n';
    }
    conn.send_all(sbuf);
    if (!conn.read_lines(kDrainTimeoutNs, [&](std::string_view line) {
          std::int64_t id = 0;
          if (response_id(line, id) && id >= 1 &&
              static_cast<std::size_t>(id) <= bodies.size()) {
            answers[static_cast<std::size_t>(id - 1)].assign(line);
            ++done;
          }
        })) {
      throw std::runtime_error("setup answers missing after the timeout");
    }
  }
  return answers;
}

struct VerifyResult {
  long long sadms = 0;
  long long lower_bound = 0;
  long long checked = 0;
};

void verify_groom(Conn& conn, Workload w, std::ofstream& answers_out,
                  VerifyResult& v, Errors& errors) {
  const std::vector<GroomShape> shapes = verify_shapes(w);
  std::vector<std::string> bodies;
  for (const GroomShape& s : shapes) {
    bodies.emplace_back();
    render_groom_body(s, true, false, nullptr, bodies.back());
  }
  // Pass 0 computes every answer; for the hot workloads, whose cache
  // holds every entry, pass 1 must serve all of them cached.
  for (int pass = 0; pass < verify_passes(w); ++pass) {
    const std::vector<std::string> answers = pipelined(conn, bodies, 8);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      std::string err;
      long long sadms = 0, lb = 0;
      if (!check_groom(shapes[i], answers[i], pass, err, &sadms, &lb)) {
        errors.add("verification: " + err);
        continue;
      }
      if (lb != tgroom::partition_cost_lower_bound(shapes[i].graph,
                                                   shapes[i].k)) {
        errors.add("verification: lower_bound differs from an independent "
                   "computation");
      }
      if (pass == 0) {
        v.sadms += sadms;
        v.lower_bound += lb;
      }
      ++v.checked;
      answers_out << strip_id(answers[i]) << '\n';
    }
  }
}

tgroom::Graph graph_of(const std::vector<tgroom::DemandPair>& pairs, int n) {
  tgroom::Graph g(n);
  for (const tgroom::DemandPair& p : pairs) g.add_edge(p.a, p.b);
  return g;
}

void verify_churn(Conn& conn, std::ofstream& answers_out, VerifyResult& v,
                  Errors& errors) {
  ChurnState state;
  const std::vector<GroomShape> shapes = churn_verify_shapes();
  std::vector<long long> final_sadms;
  for (const GroomShape& s : shapes) {
    std::string body;
    render_groom_body(s, false, true, nullptr, body);
    std::string line = "{\"id\":1,";
    const std::string answer = conn.round_trip(line + body);
    std::string err;
    long long sadms = 0, plan_id = -1;
    if (!check_groom(s, answer, -1, err, &sadms, nullptr) ||
        !find_int(answer, "plan_id", plan_id)) {
      errors.add("verification hold: " + err);
      return;
    }
    state.add_plan(s, plan_id, false);
    final_sadms.push_back(sadms);
    answers_out << strip_id(answer) << '\n';
  }
  Rng rng(kVerifySeed + 1);
  for (int i = 0; i < kChurnVerifyOps; ++i) {
    const ChurnRequest req = state.next(rng, false);
    std::string line = "{\"id\":1,";
    state.render(req, line);
    const std::string answer = conn.round_trip(line);
    const bool ok = is_ok(answer);
    state.ack(req, ok);
    long long sadms = 0;
    if (!ok || !find_int(answer, "sadms", sadms)) {
      errors.add("verification op failed: " + answer.substr(0, 200));
      return;
    }
    final_sadms[static_cast<std::size_t>(req.plan)] = sadms;
    answers_out << strip_id(answer) << '\n';
    ++v.checked;
  }
  for (std::size_t p = 0; p < shapes.size(); ++p) {
    const tgroom::Graph g =
        graph_of(state.pairs_of(static_cast<int>(p)),
                 shapes[p].graph.node_count());
    v.sadms += final_sadms[p];
    v.lower_bound += tgroom::partition_cost_lower_bound(g, shapes[p].k);
  }
}

// ---- output -------------------------------------------------------------------

void write_phase(tgroom::JsonWriter& w, const char* name, const PhaseResult& p) {
  w.key(name).begin_object();
  w.kv("sent", p.sent);
  w.kv("ok", p.ok);
  w.kv("rps", p.open ? 0.0 : closed_rps(p));
  w.kv("steal_share", p.steal.share(p.start_ns, INT64_MAX));
  w.kv("failed", p.failed);
  w.kv("seconds", p.seconds);
  w.kv("samples", static_cast<long long>(p.latency_ms.size()));
  w.kv("p50_ms", open_percentile(p, 0.50));
  w.kv("p99_ms", open_percentile(p, 0.99));
  w.kv("p99_whole_ms", percentile(p.latency_ms, 0.99));
  w.kv("late_p99_ms", percentile(p.late_ms, 0.99));
  w.kv("cpu_share", p.cpu_share);
  w.end_object();
}

void write_stats(tgroom::JsonWriter& w, const char* name, const NodeStats& s) {
  w.key(name).begin_object();
  w.kv("received", s.received);
  w.kv("pipelined", s.pipelined);
  w.kv("cache_hits", s.hits);
  w.kv("cache_misses", s.misses);
  w.kv("cache_evictions", s.evictions);
  w.kv("alloc_requests", s.alloc_requests);
  w.kv("alloc_total", s.alloc_total);
  w.kv("forward_retries", s.forward_retries);
  w.end_object();
}

void write_procs(tgroom::JsonWriter& w, const char* name,
                 const std::vector<ProcReading>& procs) {
  w.key(name).begin_array();
  for (const ProcReading& p : procs) {
    w.begin_object();
    w.kv("role", p.role);
    w.kv("pid", static_cast<long long>(p.pid));
    w.kv("cpu_s", p.cpu_s);
    w.kv("hwm_mb", p.hwm_mb);
    w.kv("threads", p.threads);
    w.kv("sockets", p.sockets);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

int client_main(int argc, char** argv) {
  const tgroom::CliArgs args(argc, argv);
  Workload workload{};
  if (!parse_workload(args.get("workload", ""), workload)) {
    std::fprintf(stderr, "tgbench client: unknown --workload\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int port = static_cast<int>(args.get_int("port", 0));
  const bool setup_only = args.get_bool("setup-only", false);
  const bool verify_only = args.get_bool("verify-only", false);
  std::vector<std::pair<std::string, int>> pids;
  {
    std::stringstream in(args.get("pids", ""));
    for (std::string item; std::getline(in, item, ',');) {
      const std::size_t colon = item.find(':');
      if (colon != std::string::npos) {
        pids.emplace_back(item.substr(0, colon), std::stoi(item.substr(colon + 1)));
      }
    }
  }
  const std::vector<int> node_ports = parse_ports(args.get("stats-ports", ""));
  const std::vector<int> router_ports = parse_ports(args.get("router-port", ""));

  Errors errors;
  tgroom::JsonWriter w;
  w.begin_object();
  try {
    std::vector<std::unique_ptr<Conn>> conns;
    for (int i = 0; i < kConnections; ++i) {
      conns.push_back(std::make_unique<Conn>(port));
    }
    VerifyResult verify;
    auto run_verify = [&] {
      std::ofstream answers_out(args.get("answers", "/dev/null"));
      if (workload == Workload::kHeldChurn) {
        verify_churn(*conns[0], answers_out, verify, errors);
      } else {
        verify_groom(*conns[0], workload, answers_out, verify, errors);
      }
      w.key("verify").begin_object();
      w.kv("sadms", verify.sadms);
      w.kv("lower_bound", verify.lower_bound);
      w.kv("checked", verify.checked);
      w.end_object();
    };
    if (verify_only) {
      run_verify();
    } else {
      // ---- setup: prime, then a fixed amount of warm-up traffic.
      std::unique_ptr<Source> source;
      ChurnState churn;
      if (workload == Workload::kHeldChurn) {
        std::vector<bool> small;
        const std::vector<GroomShape> shapes =
            ChurnState::setup_shapes(seed, small);
        std::vector<std::string> bodies;
        for (const GroomShape& s : shapes) {
          bodies.emplace_back();
          render_groom_body(s, false, true, nullptr, bodies.back());
        }
        const std::vector<std::string> answers = pipelined(*conns[0], bodies, 4);
        for (std::size_t i = 0; i < shapes.size(); ++i) {
          std::string err;
          long long plan_id = -1;
          if (!check_groom(shapes[i], answers[i], -1, err, nullptr, nullptr) ||
              !find_int(answers[i], "plan_id", plan_id)) {
            throw std::runtime_error("setup hold failed: " + err);
          }
          churn.add_plan(shapes[i], plan_id, small[i]);
        }
        source = std::make_unique<ChurnSource>(churn);
      } else {
        const bool hot = is_hot(workload);
        auto groom = std::make_unique<GroomSource>(
            shape_pool(workload, seed, pool_size(workload)), hot);
        if (hot) {
          // Miss once, then record the cached answers every timed
          // request must repeat byte for byte.
          std::vector<std::string> bodies;
          for (std::size_t t = 0; t < groom->pool().size(); ++t) {
            bodies.push_back(groom->body(t, 0));
          }
          for (std::size_t t = 0; t < groom->pool().size(); ++t) {
            bodies.push_back(groom->body(t, 0));
            bodies.push_back(groom->body(t, 1));
          }
          const std::vector<std::string> answers =
              pipelined(*conns[0], bodies, 16);
          const std::size_t n = groom->pool().size();
          for (std::size_t t = 0; t < n; ++t) {
            std::string err;
            if (!check_groom(groom->pool()[t], answers[t], 0, err, nullptr,
                             nullptr)) {
              throw std::runtime_error("prime: " + err);
            }
            for (std::size_t flag = 0; flag < 2; ++flag) {
              const std::string& a = answers[n + 2 * t + flag];
              if (!check_groom(groom->pool()[t], a, 1, err, nullptr, nullptr)) {
                throw std::runtime_error("prime: " + err);
              }
              groom->set_expected(t, flag, strip_id(a));
            }
          }
        }
        source = std::move(groom);
      }
      const int window = static_cast<int>(args.get_int("window", 8));
      const double rate = args.get_double("rate", 1000);
      PhaseSpec warm;
      warm.window = window;
      warm.count = args.get_int("warm-closed", 1000);
      warm.seed = seed + 101;
      run_phase(conns, *source, warm, errors);
      warm.open = true;
      warm.rate = rate;
      warm.count = args.get_int("warm-open", 1000);
      warm.seed = seed + 102;
      run_phase(conns, *source, warm, errors);
      w.kv("setup_end_mono", static_cast<double>(mono_ns()) / 1e9);

      if (!setup_only) {
        // ---- closed loop, then open loop.
        const NodeStats s0 = read_stats(node_ports);
        const std::vector<ProcReading> proc0 = read_procs(pids);
        PhaseSpec closed;
        closed.window = window;
        closed.seconds = args.get_double("closed-s", 3);
        closed.seed = seed + 201;
        const PhaseResult c = run_phase(conns, *source, closed, errors);
        const std::vector<ProcReading> proc1 = read_procs(pids);
        PhaseSpec open;
        open.open = true;
        open.rate = rate;
        open.seconds = args.get_double("open-s", 5);
        open.seed = seed + 202;
        // --open-s 0 skips the open loop; an empty open phase is reported.
        PhaseResult o;
        o.open = true;
        if (open.seconds > 0) o = run_phase(conns, *source, open, errors);
        const NodeStats s1 = read_stats(node_ports);
        const NodeStats r1 = read_stats(router_ports);
        write_phase(w, "closed", c);
        write_phase(w, "open", o);
        write_procs(w, "proc_before", proc0);
        write_procs(w, "proc_after", proc1);
        write_stats(w, "stats_before", s0);
        write_stats(w, "stats_after", s1);
        write_stats(w, "router_stats", r1);
        run_verify();
      }
    }
  } catch (const std::exception& e) {
    errors.add(std::string("client: ") + e.what());
  }
  w.kv("errors_total", errors.count);
  w.key("errors").begin_array();
  for (const std::string& e : errors.list) w.value(e);
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return errors.count == 0 ? 0 : 1;
}

}  // namespace tgbench
