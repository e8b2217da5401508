// The TCP transport of `tgroom serve` and `tgroom route`: a
// non-blocking, level-triggered epoll loop serving many concurrent
// loopback connections.  What a request means — admission, workers, the
// drain sequence — is the session core's (service/session.hpp); this
// file only moves bytes between sockets and that core.
//
//  - Per-connection state machines.  Each connection owns a read buffer
//    and a write outbox drawn from its own MonotonicArena pair, so a
//    warm connection's buffer traffic never touches the heap.  Reads and
//    writes are partial-tolerant: a request line may arrive over any
//    number of readiness events, and a response drains across as many
//    EPOLLOUT cycles as the socket needs.
//  - Pipelining.  A readiness event admits every complete NDJSON line
//    the buffer holds (bounded per connection per loop iteration by
//    `max_batch` for fairness; the remainder is replayed before the next
//    epoll_wait), so a client keeping N requests in flight pays one
//    read() for many requests.
//  - Write-back.  Each connection is its requests' SessionOrigin.
//    Workers never write to sockets: they append finished response lines
//    to the connection's outbox under its mutex (line-atomic — bytes of
//    two responses never interleave) and nudge the loop through an
//    eventfd; the loop flushes outboxes and arms EPOLLOUT only while a
//    socket is write-blocked.
//  - Backpressure.  A full admission queue answers `overloaded` (the
//    core's rule) and the connection stays up.  Additionally, a
//    connection whose outbox exceeds `outbox_pause_bytes` (slow reader)
//    stops being read until the outbox drains below half the cap, so
//    memory stays bounded per connection rather than per offered load.
//  - Drain.  EOF stops admission from that connection, but every
//    accepted request still gets its response before the socket closes.
//    A `shutdown` request (from any connection) or SIGTERM stops
//    accepting and reading everywhere, runs the core's drain (queued
//    work rejected, in-flight work finished, store finalized, then the
//    ack), flushes every outbox, and returns.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

namespace tgroom {

class EventLoopHandler;

struct EventLoopConfig {
  int port = 0;  // loopback TCP port; 0 picks an ephemeral port (see port())
  int backlog = 0;               // listen() backlog; 0 = SOMAXCONN
  std::size_t max_connections = 1024;  // beyond this, accepts are refused
  std::size_t read_chunk = 64 * 1024;  // bytes per read() call
  std::size_t max_batch = 256;   // request lines per connection per loop turn
  // A single request line longer than this kills the connection (the
  // stream cannot be resynchronized); responses are unbounded.
  std::size_t max_request_bytes = 16u << 20;
  // Reads from a connection pause while its outbox holds more than this
  // many unflushed bytes, and resume below half of it.
  std::size_t outbox_pause_bytes = 4u << 20;
  int sndbuf = 0;  // SO_SNDBUF on accepted sockets when > 0 (tests)
};

/// One epoll server bound to 127.0.0.1:`config.port`.  The constructor
/// creates, binds, and listens the socket (so ephemeral ports are known
/// before run(), which tests and the bench need); run() serves until a
/// `shutdown` request or the handler reports drain_requested() (wired to
/// GroomingService::request_stop() by both implementations).  The handler
/// decides what a request *means* — grooming service or cluster router
/// (service/handler.hpp).
class EventLoopServer {
 public:
  EventLoopServer(EventLoopHandler& handler, const EventLoopConfig& config);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// False when the listen socket could not be set up; error() says why.
  bool valid() const;
  const std::string& error() const;

  /// The actually-bound port (resolves config.port == 0).
  int port() const;

  /// Serves until shutdown/SIGTERM; returns 0 once drained (also when
  /// epoll fails mid-run: accepted work still finishes and the handler
  /// is finalized).  Progress and the final metrics line go to `log`
  /// (never to a client socket).
  int run(std::ostream& log);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// `--port` mode of `tgroom serve` and `tgroom route`: an EventLoopServer
/// for `handler` on 127.0.0.1:`port` (0 = ephemeral), run until
/// `shutdown` or SIGTERM.  A non-empty `port_file` gets the bound port
/// written atomically (write_port_file) once the listener exists —
/// harnesses read that instead of scraping the stderr announcement.
/// Returns 1 when the listener or the port file cannot be set up.
int serve_tcp(EventLoopHandler& handler, int port, std::ostream& log,
              const std::string& port_file = std::string());

/// Atomically publishes `port` at `path` (temp file + rename, so a reader
/// never sees a partial write).  False with `error` set on IO failure.
bool write_port_file(const std::string& path, int port, std::string& error);

}  // namespace tgroom
