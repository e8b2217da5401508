#include "service/event_loop.hpp"

#include <ostream>
#include <string>

#include "service/handler.hpp"

#if defined(__linux__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algorithms/workspace.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "util/arena.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace tgroom {

namespace {

// One accepted socket.  The loop thread owns the read side and the fd;
// the write side (outbox) is shared with workers under `mutex`.  Both
// buffers draw from per-connection arenas, so once a connection's
// buffers reach their high-water mark, serving it costs no heap traffic.
struct Conn {
  explicit Conn(int fd_in)
      : fd(fd_in),
        rbuf(ArenaAllocator<char>(&read_arena)),
        outbox(ArenaAllocator<char>(&write_arena)) {}

  int fd;

  // ---- read side: loop thread only.  rbuf's size() is allocated
  // storage (grown once, then stable); rlen tracks the valid bytes so a
  // read never re-initializes the whole chunk.
  MonotonicArena read_arena;
  ArenaVector<char> rbuf;
  std::size_t rlen = 0;     // rbuf[0, rlen) holds received bytes
  std::size_t rpos = 0;     // rbuf[0, rpos) is already consumed
  bool read_open = true;    // false after EOF, fatal error, or drain
  bool paused = false;      // EPOLLIN dropped: outbox over the cap
  bool replay_queued = false;  // complete lines remain past max_batch
  std::uint32_t events = 0;    // epoll interest mask currently installed

  // ---- write side: loop thread and workers, under `mutex`.
  std::mutex mutex;
  MonotonicArena write_arena;
  ArenaVector<char> outbox;  // response bytes not yet written
  std::size_t opos = 0;      // outbox[0, opos) is already written
  std::size_t inflight = 0;  // requests queued or executing for this conn
  bool notified = false;     // already on the dirty list (coalesces wakes)
  bool dead = false;         // peer gone: discard output, drop responses

  bool closed = false;  // fd closed and removed from epoll (loop thread)
};

using ConnPtr = std::shared_ptr<Conn>;

// A request bound for the worker pool, tagged with its home connection.
struct WorkItem {
  ServiceRequest request;
  ConnPtr conn;
};

int set_nonblocking_listener(int port, int backlog, std::string& error,
                             int& bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int enable = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable) <
      0) {
    error = std::string("setsockopt(SO_REUSEADDR): ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    error = std::string("bind 127.0.0.1:") + std::to_string(port) + ": " +
            std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog > 0 ? backlog : SOMAXCONN) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    error = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  bound_port = ntohs(addr.sin_port);
  return fd;
}

void append_bytes(ArenaVector<char>& buf, std::string_view bytes) {
  buf.insert(buf.end(), bytes.begin(), bytes.end());
}

}  // namespace

struct EventLoopServer::Impl {
  EventLoopHandler& service;
  EventLoopConfig config;
  std::string error;
  int listen_fd = -1;
  int bound_port = 0;
  int epoll_fd = -1;
  int wake_fd = -1;

  std::unordered_map<int, ConnPtr> conns;

  // Connections with freshly-delivered responses (workers) — swapped out
  // and flushed by the loop on each eventfd wake.
  std::mutex dirty_mutex;
  std::vector<ConnPtr> dirty;

  // Connections with complete-but-unprocessed lines left behind by the
  // per-turn fairness cap; processed before the next blocking wait.
  std::vector<ConnPtr> replay;

  // Drain state.  kServing -> kDraining (shutdown/SIGTERM seen; queue
  // closed and rejected) -> kFlushing (all in-flight done; shutdown
  // response emitted; waiting for outboxes to reach the wire) -> exit.
  enum class Phase { kServing, kDraining, kFlushing };
  Phase phase = Phase::kServing;
  bool shutdown_seen = false;  // vs SIGTERM: emits the shutdown response
  ConnPtr shutdown_conn;
  std::int64_t shutdown_id = 0;
  bool shutdown_has_id = false;
  std::size_t rejected_queued = 0;

  std::size_t inflight_total = 0;  // guarded by dirty_mutex

  std::unique_ptr<BoundedQueue<WorkItem>> queue;
  std::unique_ptr<ThreadPool> pool;
  std::vector<std::future<void>> worker_done;

  // Loop-thread scratch for inline execution and loop-side responses.
  GroomingWorkspace inline_workspace;
  JsonWriter inline_writer;

  Impl(EventLoopHandler& s, const EventLoopConfig& c) : service(s), config(c) {
    listen_fd = set_nonblocking_listener(c.port, c.backlog, error, bound_port);
  }

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }

  // ---- epoll plumbing ----------------------------------------------------

  bool set_interest(Conn& conn, std::uint32_t events) {
    if (conn.closed || events == conn.events) return true;
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = conn.fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) < 0) return false;
    conn.events = events;
    return true;
  }

  void wake() {
    std::uint64_t one = 1;
    // The eventfd counter saturates rather than blocks; a failed write
    // here would mean the loop is already hopelessly wedged.
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof one);
  }

  // ---- response delivery -------------------------------------------------

  /// Appends one response line (newline added here) to `conn`'s outbox.
  /// Safe from any thread; `from_worker` also retires one in-flight slot
  /// and nudges the loop thread through the eventfd.
  void deliver(const ConnPtr& conn, std::string_view line, bool from_worker) {
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (from_worker && conn->inflight > 0) --conn->inflight;
      if (!conn->dead) {
        append_bytes(conn->outbox, line);
        conn->outbox.push_back('\n');
      }
      if (from_worker && !conn->notified) {
        conn->notified = true;
        notify = true;
      }
    }
    if (from_worker) {
      bool drained_all = false;
      {
        std::lock_guard<std::mutex> lock(dirty_mutex);
        if (inflight_total > 0) --inflight_total;
        drained_all = inflight_total == 0;
        if (notify) dirty.push_back(conn);
      }
      // The final in-flight retirement must wake the loop even when the
      // connection was already on the dirty list: the drain state machine
      // waits on inflight_total.
      if (notify || drained_all) wake();
    }
  }

  /// Loop-thread error/inline response: append then flush opportunistically.
  void respond_now(const ConnPtr& conn, std::string_view line) {
    deliver(conn, line, /*from_worker=*/false);
    flush_writes(conn);
  }

  // ---- connection lifecycle ----------------------------------------------

  void accept_ready(std::ostream& log) {
    while (true) {
      int fd = ::accept4(listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        log << "accept: " << std::strerror(errno) << "\n";
        return;
      }
      if (conns.size() >= config.max_connections) {
        // Refuse above the cap: closing immediately is the only answer
        // that costs no state (the peer sees ECONNRESET on first read).
        ::close(fd);
        continue;
      }
      int enable = 1;
      // Responses are single short writes; Nagle only adds latency here.
      if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable,
                       sizeof enable) < 0) {
        log << "setsockopt(TCP_NODELAY): " << std::strerror(errno) << "\n";
      }
      if (config.sndbuf > 0) {
        if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config.sndbuf,
                         sizeof config.sndbuf) < 0) {
          log << "setsockopt(SO_SNDBUF): " << std::strerror(errno) << "\n";
        }
      }
      auto conn = std::make_shared<Conn>(fd);
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
        log << "epoll_ctl(add conn): " << std::strerror(errno) << "\n";
        ::close(fd);
        continue;
      }
      conn->events = ev.events;
      conns.emplace(fd, std::move(conn));
      service.metrics().increment(ServiceMetrics::Counter::kConnAccepted);
    }
  }

  void close_conn(const ConnPtr& conn) {
    if (conn->closed) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->closed = true;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->dead = true;
      conn->outbox.clear();
      conn->opos = 0;
    }
    conns.erase(conn->fd);
    service.metrics().increment(ServiceMetrics::Counter::kConnClosed);
  }

  void kill_conn(const ConnPtr& conn) {
    conn->read_open = false;
    close_conn(conn);
  }

  /// Close once nothing more can ever reach the socket: read side done,
  /// no request still owned by a worker, outbox on the wire.
  void maybe_close(const ConnPtr& conn) {
    if (conn->closed || conn->read_open) return;
    std::size_t pending = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      pending = conn->inflight + (conn->outbox.size() - conn->opos);
    }
    if (pending == 0) close_conn(conn);
  }

  // ---- write path --------------------------------------------------------

  void flush_writes(const ConnPtr& conn) {
    if (conn->closed) return;
    bool drained = false;
    bool fatal = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      while (conn->opos < conn->outbox.size()) {
        ssize_t n = ::write(conn->fd, conn->outbox.data() + conn->opos,
                            conn->outbox.size() - conn->opos);
        if (n > 0) {
          conn->opos += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        // EPIPE / ECONNRESET: the peer is gone.  Drop the remaining
        // output; in-flight responses will be discarded on delivery.
        conn->dead = true;
        fatal = true;
        break;
      }
      if (conn->opos == conn->outbox.size()) {
        // clear() keeps the arena-backed capacity: the steady state
        // recycles the same high-water block forever.
        conn->outbox.clear();
        conn->opos = 0;
        drained = true;
      }
    }
    if (fatal) {
      kill_conn(conn);
      return;
    }
    if (drained) {
      set_interest(*conn, conn->events & ~std::uint32_t{EPOLLOUT});
      if (conn->paused) resume_reads(conn);
      maybe_close(conn);
    } else {
      set_interest(*conn, conn->events | EPOLLOUT);
    }
  }

  std::size_t outbox_backlog(const ConnPtr& conn) {
    std::lock_guard<std::mutex> lock(conn->mutex);
    return conn->outbox.size() - conn->opos;
  }

  void pause_reads(const ConnPtr& conn) {
    if (conn->paused || !conn->read_open) return;
    conn->paused = true;
    set_interest(*conn, conn->events & ~std::uint32_t{EPOLLIN});
  }

  void resume_reads(const ConnPtr& conn) {
    if (!conn->paused) return;
    if (outbox_backlog(conn) > config.outbox_pause_bytes / 2) return;
    conn->paused = false;
    if (conn->read_open) {
      set_interest(*conn, conn->events | EPOLLIN);
      // Lines may already be buffered; make sure they are replayed.
      schedule_replay(conn);
    }
  }

  // ---- read path ---------------------------------------------------------

  void schedule_replay(const ConnPtr& conn) {
    if (conn->replay_queued || conn->closed) return;
    conn->replay_queued = true;
    replay.push_back(conn);
  }

  void read_ready(const ConnPtr& conn) {
    if (!conn->read_open || conn->paused) return;
    bool saw_eof = false;
    while (true) {
      if (conn->rlen - conn->rpos > config.max_request_bytes) {
        // No newline within the line-length budget: the framing is lost
        // for good, so answer once and hang up.
        respond_now(conn, make_error_response(
                              0, false, ServiceError::kBadRequest,
                              "request line exceeds " +
                                  std::to_string(config.max_request_bytes) +
                                  " bytes"));
        service.metrics().increment(ServiceMetrics::Counter::kError);
        kill_conn(conn);
        return;
      }
      if (conn->rbuf.size() < conn->rlen + config.read_chunk) {
        conn->rbuf.resize(conn->rlen + config.read_chunk);
      }
      ssize_t n =
          ::read(conn->fd, conn->rbuf.data() + conn->rlen, config.read_chunk);
      if (n > 0) {
        conn->rlen += static_cast<std::size_t>(n);
        if (static_cast<std::size_t>(n) < config.read_chunk) break;
        continue;
      }
      if (n == 0) {
        saw_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      // Hard read error: nothing more will arrive and nothing pending
      // can be acknowledged to a broken peer.
      kill_conn(conn);
      return;
    }
    process_lines(conn, saw_eof);
  }

  /// Consumes complete lines from the buffer (at most max_batch per call;
  /// leftovers are replayed before the next blocking wait).  At EOF the
  /// final unterminated line is processed too, matching getline().
  void process_lines(const ConnPtr& conn, bool saw_eof) {
    std::size_t batch = 0;
    while (conn->read_open && batch < config.max_batch) {
      const char* base = conn->rbuf.data();
      const std::size_t size = conn->rlen;
      const char* nl = static_cast<const char*>(
          std::memchr(base + conn->rpos, '\n', size - conn->rpos));
      if (nl == nullptr) {
        if (saw_eof && conn->rpos < size) {
          std::string_view line(base + conn->rpos, size - conn->rpos);
          conn->rpos = size;
          ++batch;
          process_line(conn, line);
        }
        break;
      }
      std::string_view line(base + conn->rpos,
                            static_cast<std::size_t>(nl - base) - conn->rpos);
      conn->rpos = static_cast<std::size_t>(nl - base) + 1;
      ++batch;
      process_line(conn, line);
    }
    if (batch > 1) {
      service.metrics().increment(ServiceMetrics::Counter::kPipelined,
                                  static_cast<long long>(batch - 1));
    }
    if (conn->closed) return;
    // Compact: move any partial line to the front so the buffer's
    // high-water mark tracks one request, not one connection lifetime.
    if (conn->rpos > 0) {
      const std::size_t remaining = conn->rlen - conn->rpos;
      if (remaining > 0) {
        std::memmove(conn->rbuf.data(), conn->rbuf.data() + conn->rpos,
                     remaining);
      }
      conn->rlen = remaining;
      conn->rpos = 0;
    }
    if (conn->read_open && !conn->paused && conn->rlen > 0 &&
        std::memchr(conn->rbuf.data(), '\n', conn->rlen) != nullptr) {
      schedule_replay(conn);  // fairness cap left complete lines behind
    }
    if (saw_eof) {
      conn->read_open = false;
      flush_writes(conn);
      maybe_close(conn);
    } else if (!conn->paused && outbox_backlog(conn) > 0) {
      flush_writes(conn);
    }
    if (!conn->closed && outbox_backlog(conn) > config.outbox_pause_bytes) {
      pause_reads(conn);
    }
  }

  void process_line(const ConnPtr& conn, std::string_view line) {
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) return;
    service.metrics().increment(ServiceMetrics::Counter::kReceived);
    RequestParse parsed = parse_request(line);
    if (!parsed.request.has_value()) {
      service.metrics().increment(ServiceMetrics::Counter::kError);
      respond_now(conn, make_error_response(parsed.id, parsed.has_id,
                                            ServiceError::kBadRequest,
                                            parsed.error));
      return;
    }
    ServiceRequest request = std::move(*parsed.request);
    if (request.deadline_ms == 0) {
      request.deadline_ms = service.handler_default_deadline_ms();
    }
    request.admitted = std::chrono::steady_clock::now();
    if (service.wants_raw_line()) request.raw.assign(line);
    if (request.op == ServiceOp::kShutdown) {
      shutdown_seen = true;
      shutdown_conn = conn;
      shutdown_id = request.id;
      shutdown_has_id = request.has_id;
      begin_drain();
      return;
    }
    if (request.op == ServiceOp::kHealth) {
      // Health is answered inline from the event loop, never queued
      // behind grooming work — it stays cheap under a full admission
      // queue, which is exactly when a prober wants an answer.
      service.execute_into(request, inline_workspace, inline_writer);
      respond_now(conn, inline_writer.str());
      return;
    }
    if (service.worker_count() == 0) {
      service.execute_into(request, inline_workspace, inline_writer);
      deliver(conn, inline_writer.str(), /*from_worker=*/false);
      return;  // flushed once per batch by process_lines()
    }
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      ++conn->inflight;
    }
    {
      std::lock_guard<std::mutex> lock(dirty_mutex);
      ++inflight_total;
    }
    const std::int64_t id = request.id;
    const bool has_id = request.has_id;
    WorkItem item{std::move(request), conn};
    if (!queue->try_push(std::move(item))) {
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        --conn->inflight;
      }
      {
        std::lock_guard<std::mutex> lock(dirty_mutex);
        --inflight_total;
      }
      service.metrics().increment(ServiceMetrics::Counter::kError);
      service.metrics().increment(ServiceMetrics::Counter::kOverloaded);
      respond_now(
          conn,
          make_error_response(
              id, has_id, ServiceError::kOverloaded,
              "admission queue full (capacity " +
                  std::to_string(service.handler_queue_capacity()) + ")"));
    }
  }

  // ---- drain -------------------------------------------------------------

  void begin_drain() {
    if (phase != Phase::kServing) return;
    phase = Phase::kDraining;
    // Handler hook before any rejection: the cluster router fans the
    // shutdown out to its shards here, so "drain" means the whole
    // cluster, not just this front-end.
    service.on_drain_begin();
    // Stop accepting; pending SYNs get RST when the fd closes at exit.
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
    // Stop reading everywhere: in-flight work finishes, queued work is
    // rejected, unread pipelined bytes are discarded (exactly run()'s
    // post-shutdown contract for the rest of the stream).
    for (auto& [fd, conn] : conns) {
      conn->read_open = false;
      set_interest(*conn, conn->events & ~std::uint32_t{EPOLLIN});
    }
    if (queue != nullptr) {
      std::vector<WorkItem> leftover = queue->close_and_drain();
      rejected_queued = leftover.size();
      for (WorkItem& item : leftover) {
        service.metrics().increment(ServiceMetrics::Counter::kError);
        service.metrics().increment(ServiceMetrics::Counter::kShuttingDown);
        deliver(item.conn,
                make_error_response(item.request.id, item.request.has_id,
                                    ServiceError::kShuttingDown,
                                    "service is draining"),
                /*from_worker=*/true);
      }
    }
    maybe_finish_drain();
  }

  void maybe_finish_drain() {
    if (phase != Phase::kDraining) return;
    {
      std::lock_guard<std::mutex> lock(dirty_mutex);
      if (inflight_total > 0) return;
    }
    phase = Phase::kFlushing;
    if (shutdown_seen && shutdown_conn != nullptr) {
      JsonWriter w;
      begin_ok_response(w, shutdown_id, shutdown_has_id, ServiceOp::kShutdown);
      w.kv("rejected_queued", static_cast<long long>(rejected_queued));
      w.end_object();
      service.metrics().increment(ServiceMetrics::Counter::kOk);
      deliver(shutdown_conn, w.str(), /*from_worker=*/false);
    }
    // Final flush across every connection; conns whose peers stopped
    // reading are closed rather than waited on forever.
    std::vector<ConnPtr> all;
    all.reserve(conns.size());
    for (auto& [fd, conn] : conns) all.push_back(conn);
    for (const ConnPtr& conn : all) {
      flush_writes(conn);
      maybe_close(conn);
    }
  }

  bool flushing_done() {
    if (phase != Phase::kFlushing) return false;
    return conns.empty();
  }

  // ---- loop --------------------------------------------------------------

  void drain_dirty() {
    std::vector<ConnPtr> batch;
    {
      std::lock_guard<std::mutex> lock(dirty_mutex);
      batch.swap(dirty);
    }
    for (const ConnPtr& conn : batch) {
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->notified = false;
      }
      flush_writes(conn);
      if (!conn->closed && outbox_backlog(conn) > config.outbox_pause_bytes) {
        pause_reads(conn);
      }
      maybe_close(conn);
    }
    maybe_finish_drain();
  }

  void drain_replay() {
    std::vector<ConnPtr> batch;
    batch.swap(replay);
    for (const ConnPtr& conn : batch) {
      conn->replay_queued = false;
      if (conn->closed || conn->paused) continue;
      process_lines(conn, /*saw_eof=*/false);
    }
  }

  int run(std::ostream& log) {
    if (listen_fd < 0) {
      log << error << "\n";
      return 1;
    }
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd < 0 || wake_fd < 0) {
      log << "epoll/eventfd: " << std::strerror(errno) << "\n";
      return 1;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev) < 0) {
      log << "epoll_ctl(listen): " << std::strerror(errno) << "\n";
      return 1;
    }
    ev.data.fd = wake_fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) < 0) {
      log << "epoll_ctl(eventfd): " << std::strerror(errno) << "\n";
      return 1;
    }

    const std::size_t workers = service.worker_count();
    if (workers > 0) {
      queue = std::make_unique<BoundedQueue<WorkItem>>(
          service.handler_queue_capacity());
      pool = std::make_unique<ThreadPool>(workers);
      worker_done.reserve(workers);
      for (std::size_t i = 0; i < workers; ++i) {
        worker_done.push_back(pool->submit([this] {
          GroomingWorkspace workspace;
          JsonWriter writer;
          WorkItem item;
          while (queue->pop(item)) {
            service.execute_into(item.request, workspace, writer);
            deliver(item.conn, writer.str(), /*from_worker=*/true);
            item.conn.reset();
          }
        }));
      }
    }

    log << service.log_name() << ": listening on 127.0.0.1:" << bound_port
        << " (event loop, workers=" << workers << ")\n";

    std::vector<epoll_event> events(128);
    bool stop_drain_started = false;
    while (true) {
      if (service.drain_requested() && !stop_drain_started &&
          phase == Phase::kServing) {
        stop_drain_started = true;
        begin_drain();
      }
      if (flushing_done()) break;
      // A zero timeout when replays are pending keeps buffered pipelined
      // requests flowing between epoll turns; otherwise a finite timeout
      // bounds how long a SIGTERM delivered to a worker thread waits.
      const int timeout_ms = replay.empty() ? 250 : 0;
      int n = ::epoll_wait(epoll_fd, events.data(),
                           static_cast<int>(events.size()), timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        log << "epoll_wait: " << std::strerror(errno) << "\n";
        break;
      }
      for (int i = 0; i < n; ++i) {
        const epoll_event& event = events[static_cast<std::size_t>(i)];
        const int fd = event.data.fd;
        const std::uint32_t mask = event.events;
        if (fd == listen_fd) {
          if (phase == Phase::kServing) accept_ready(log);
          continue;
        }
        if (fd == wake_fd) {
          std::uint64_t count = 0;
          while (::read(wake_fd, &count, sizeof count) > 0) {
          }
          drain_dirty();
          continue;
        }
        auto it = conns.find(fd);
        if (it == conns.end()) continue;
        ConnPtr conn = it->second;  // keep alive across handlers
        if (mask & (EPOLLHUP | EPOLLERR)) {
          // The peer is fully gone; nothing can be written back.
          kill_conn(conn);
          continue;
        }
        if (mask & EPOLLOUT) flush_writes(conn);
        if (conn->closed) continue;
        if (mask & (EPOLLIN | EPOLLRDHUP)) read_ready(conn);
        if (!conn->closed) maybe_close(conn);
      }
      drain_replay();
      drain_dirty();
    }

    // Reject-and-join even when the loop exits abnormally.
    if (queue != nullptr) queue->close();
    for (auto& done : worker_done) done.get();

    service.finalize();
    if (service.metrics_on_exit()) {
      JsonWriter w;
      service.write_exit_metrics(w);
      log << w.str() << "\n";
    }
    return 0;
  }
};

EventLoopServer::EventLoopServer(EventLoopHandler& handler,
                                 const EventLoopConfig& config)
    : impl_(std::make_unique<Impl>(handler, config)) {}

EventLoopServer::~EventLoopServer() = default;

bool EventLoopServer::valid() const { return impl_->listen_fd >= 0; }

const std::string& EventLoopServer::error() const { return impl_->error; }

int EventLoopServer::port() const { return impl_->bound_port; }

int EventLoopServer::run(std::ostream& log) { return impl_->run(log); }

}  // namespace tgroom

#else  // !__linux__

namespace tgroom {

struct EventLoopServer::Impl {
  std::string error = "epoll event loop requires linux";
};

EventLoopServer::EventLoopServer(EventLoopHandler&, const EventLoopConfig&)
    : impl_(std::make_unique<Impl>()) {}
EventLoopServer::~EventLoopServer() = default;
bool EventLoopServer::valid() const { return false; }
const std::string& EventLoopServer::error() const { return impl_->error; }
int EventLoopServer::port() const { return 0; }
int EventLoopServer::run(std::ostream& log) {
  log << impl_->error << "\n";
  return 2;
}

}  // namespace tgroom

#endif
