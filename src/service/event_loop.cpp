#include "service/event_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/handler.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "util/arena.hpp"

namespace tgroom {

namespace {

struct Conn;
using ConnPtr = std::shared_ptr<Conn>;

// Connections with freshly-delivered worker responses, handed to the loop
// thread: a worker appends here and nudges the eventfd; the loop swaps
// the list out and flushes each connection.
struct DirtyList {
  std::mutex mutex;
  std::vector<ConnPtr> conns;
  int wake_fd = -1;

  void push(ConnPtr conn) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      conns.push_back(std::move(conn));
    }
    std::uint64_t one = 1;
    // The eventfd counter saturates rather than blocks; a failed write
    // here would mean the loop is already hopelessly wedged.
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof one);
  }
};

void append_bytes(ArenaVector<char>& buf, std::string_view bytes) {
  buf.insert(buf.end(), bytes.begin(), bytes.end());
}

// One accepted socket, and the session origin of every request read from
// it.  The loop thread owns the read side and the fd; the write side
// (outbox) is shared with workers under `mutex`.  Both buffers draw from
// per-connection arenas, so once a connection's buffers reach their
// high-water mark, serving it costs no heap traffic.
struct Conn final : SessionOrigin, std::enable_shared_from_this<Conn> {
  Conn(int fd_in, DirtyList& dirty_in)
      : fd(fd_in),
        dirty(dirty_in),
        rbuf(ArenaAllocator<char>(&read_arena)),
        outbox(ArenaAllocator<char>(&write_arena)) {}

  /// Appends one response line to the outbox.  A worker's delivery also
  /// answers one queued request and puts the connection on the dirty
  /// list (once until the loop flushes it).  Loop-side answers are
  /// flushed by the loop itself, once per batch of lines.
  void deliver(std::string_view line, bool from_worker) override {
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (from_worker) ++answered;
      if (!dead) {
        append_bytes(outbox, line);
        outbox.push_back('\n');
      }
      if (from_worker && !notified) {
        notified = true;
        notify = true;
      }
    }
    if (notify) dirty.push(shared_from_this());
  }

  int fd;
  DirtyList& dirty;

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
  std::size_t queued = 0;      // requests handed to the session's queue

  // ---- write side: loop thread and workers, under `mutex`.
  std::mutex mutex;
  MonotonicArena write_arena;
  ArenaVector<char> outbox;  // response bytes not yet written
  std::size_t opos = 0;      // outbox[0, opos) is already written
  std::size_t answered = 0;  // queued requests answered (<= queued)
  bool notified = false;     // already on the dirty list (coalesces wakes)
  bool dead = false;         // peer gone: discard output, drop responses

  bool closed = false;  // fd closed and removed from epoll (loop thread)
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

}  // namespace

struct EventLoopServer::Impl {
  EventLoopHandler& service;
  EventLoopConfig config;
  std::string error;
  int listen_fd = -1;
  int bound_port = 0;
  int epoll_fd = -1;

  std::unordered_map<int, ConnPtr> conns;
  DirtyList dirty;  // its wake_fd is the loop's eventfd

  // Connections with complete-but-unprocessed lines left behind by the
  // per-turn fairness cap; processed before the next blocking wait.
  std::vector<ConnPtr> replay;

  // Admission, workers and the drain sequence (service/session.hpp);
  // lives for one run().
  std::optional<SessionCore> session;
  // Set once shutdown/SIGTERM drained the session: no more accepts or
  // reads; the loop only flushes outboxes until every connection closes.
  bool draining = false;

  Impl(EventLoopHandler& s, const EventLoopConfig& c) : service(s), config(c) {
    listen_fd = set_nonblocking_listener(c.port, c.backlog, error, bound_port);
  }

  ~Impl() {
    session.reset();  // joins any workers while the eventfd is still open
    if (listen_fd >= 0) ::close(listen_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (dirty.wake_fd >= 0) ::close(dirty.wake_fd);
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
      auto conn = std::make_shared<Conn>(fd, dirty);
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
  /// no queued request still unanswered, outbox on the wire.
  void maybe_close(const ConnPtr& conn) {
    if (conn->closed || conn->read_open) return;
    std::size_t pending = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      pending = (conn->queued - conn->answered) +
                (conn->outbox.size() - conn->opos);
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
        conn->deliver(make_error_response(
                          0, false, ServiceError::kBadRequest,
                          "request line exceeds " +
                              std::to_string(config.max_request_bytes) +
                              " bytes"),
                      /*from_worker=*/false);
        flush_writes(conn);
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
    const std::shared_ptr<SessionOrigin> origin = conn;
    std::size_t batch = 0;
    while (conn->read_open && batch < config.max_batch) {
      const char* base = conn->rbuf.data();
      const std::size_t size = conn->rlen;
      const char* nl = static_cast<const char*>(
          std::memchr(base + conn->rpos, '\n', size - conn->rpos));
      std::string_view line;
      if (nl != nullptr) {
        line = std::string_view(
            base + conn->rpos, static_cast<std::size_t>(nl - base) - conn->rpos);
        conn->rpos = static_cast<std::size_t>(nl - base) + 1;
      } else if (saw_eof && conn->rpos < size) {
        line = std::string_view(base + conn->rpos, size - conn->rpos);
        conn->rpos = size;
      } else {
        break;
      }
      ++batch;
      switch (session->admit(line, origin)) {
        case SessionCore::Admission::kQueued:
          ++conn->queued;
          break;
        case SessionCore::Admission::kShutdown:
          drain();
          break;
        case SessionCore::Admission::kDone:
          break;
      }
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

  // ---- drain -------------------------------------------------------------

  /// `shutdown` (from any connection) or SIGTERM: stop accepting and
  /// reading everywhere — unread pipelined bytes are discarded — run the
  /// session's drain, then flush every outbox.  Connections whose peers
  /// stopped reading are closed rather than waited on forever.
  void drain() {
    if (draining) return;
    draining = true;
    // Pending SYNs get RST when the listen fd closes at exit.
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
    for (auto& [fd, conn] : conns) {
      conn->read_open = false;
      set_interest(*conn, conn->events & ~std::uint32_t{EPOLLIN});
    }
    session->drain(/*reject_queued=*/true);
    std::vector<ConnPtr> all;
    all.reserve(conns.size());
    for (auto& [fd, conn] : conns) all.push_back(conn);
    for (const ConnPtr& conn : all) {
      flush_writes(conn);
      maybe_close(conn);
    }
  }

  // ---- loop --------------------------------------------------------------

  void drain_dirty() {
    std::vector<ConnPtr> batch;
    {
      std::lock_guard<std::mutex> lock(dirty.mutex);
      batch.swap(dirty.conns);
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
    dirty.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd < 0 || dirty.wake_fd < 0) {
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
    ev.data.fd = dirty.wake_fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, dirty.wake_fd, &ev) < 0) {
      log << "epoll_ctl(eventfd): " << std::strerror(errno) << "\n";
      return 1;
    }

    session.emplace(service);
    log << service.log_name() << ": listening on 127.0.0.1:" << bound_port
        << " (event loop, workers=" << service.worker_count() << ")\n";

    std::vector<epoll_event> events(128);
    while (true) {
      if (!draining && service.drain_requested()) drain();
      if (draining && conns.empty()) break;
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
          if (!draining) accept_ready(log);
          continue;
        }
        if (fd == dirty.wake_fd) {
          std::uint64_t count = 0;
          while (::read(dirty.wake_fd, &count, sizeof count) > 0) {
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

    // An abnormal exit still finishes accepted work and finalizes once.
    session->drain(/*reject_queued=*/false);
    StreamOrigin log_sink(log);
    session->write_exit_line(log_sink);
    session.reset();
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

int serve_tcp(EventLoopHandler& handler, int port, std::ostream& log,
              const std::string& port_file) {
  EventLoopConfig config;
  config.port = port;
  EventLoopServer server(handler, config);
  if (!server.valid()) {
    log << server.error() << "\n";
    return 1;
  }
  if (!port_file.empty()) {
    std::string error;
    if (!write_port_file(port_file, server.port(), error)) {
      log << error << "\n";
      return 1;
    }
  }
  return server.run(log);
}

bool write_port_file(const std::string& path, int port, std::string& error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      error = "port-file: cannot write " + tmp;
      return false;
    }
    out << port << "\n";
    out.flush();
    if (!out) {
      error = "port-file: write to " + tmp + " failed";
      return false;
    }
  }
  // rename() is atomic within a filesystem: a reader polling `path` sees
  // either nothing or the complete port, never a torn write.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    error = std::string("port-file: rename to ") + path + ": " +
            std::strerror(errno);
    return false;
  }
  return true;
}

}  // namespace tgroom
