// The session core: the one place `tgroom serve` and `tgroom route` turn
// request lines into responses, whatever transport carried them.
//
// A SessionCore serves one EventLoopHandler (the grooming service or the
// cluster router).  It owns:
//
//  - Admission.  admit() parses a line and answers it, executes it inline,
//    queues it, or reports a `shutdown`: malformed lines get
//    `bad_request`, the handler's default deadline is applied, `health`
//    is answered inline ahead of queued work, with zero workers every
//    request runs inline in arrival order, and a full queue answers
//    `overloaded` at once — the client is never dropped and memory never
//    grows with offered load.
//  - The worker pool.  handler.worker_count() long-running tasks (one
//    GroomingWorkspace each, so scratch amortizes across requests) pop a
//    BoundedQueue and deliver each response to the request's origin.
//  - The drain.  drain() stops admission and runs one fixed sequence:
//    on_drain_begin(), reject still-queued work as `shutting_down` (when
//    asked: `shutdown` or SIGTERM, not EOF), wait for in-flight work,
//    finalize() (the service flushes and snapshots its store; the router
//    shuts its shards down), then the `shutdown` ack.  So on every
//    transport an ack means the store is durable, and every accepted
//    request has been answered before drain() returns.
//
// The transports (GroomingService::run for stdin, EventLoopServer for
// TCP) only move bytes: they feed lines to admit(), stop reading when it
// says `shutdown`, and call drain().  Where a response goes is a
// SessionOrigin — a sink with one deliver() method.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "algorithms/workspace.hpp"
#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace tgroom {

class EventLoopHandler;
class ServiceMetrics;

/// Where one client's responses go.  deliver() appends one response line
/// (the sink adds the newline) and must be line-atomic: workers call it
/// concurrently.  `from_worker` is true for the answer to a request
/// admit() queued (a worker's result or a drain rejection) and false for
/// answers given on the admitting thread.
class SessionOrigin {
 public:
  virtual void deliver(std::string_view line, bool from_worker) = 0;

 protected:
  ~SessionOrigin() = default;
};

/// An ostream as a sink: each line is written and flushed under a lock.
/// stdin sessions answer through one; the TCP front-end logs its exit
/// line through another.
class StreamOrigin final : public SessionOrigin {
 public:
  explicit StreamOrigin(std::ostream& out) : out_(out) {}
  void deliver(std::string_view line, bool from_worker) override;

 private:
  std::ostream& out_;
  std::mutex mutex_;
};

class SessionCore {
 public:
  enum class Admission {
    kDone,      // answered (or a blank line); nothing outstanding
    kQueued,    // a worker will deliver the answer (from_worker = true)
    kShutdown,  // a `shutdown` request: stop reading, then drain()
  };

  /// Starts handler.worker_count() workers (none: admit() runs inline).
  explicit SessionCore(EventLoopHandler& handler);
  /// Closes the queue and joins the workers if drain() never ran.
  ~SessionCore();

  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  /// Admits one request line from `origin`.  Call from one thread only.
  Admission admit(std::string_view line,
                  const std::shared_ptr<SessionOrigin>& origin);

  /// The drain sequence (see the file comment).  Runs once; later calls
  /// return at once.
  void drain(bool reject_queued);

  /// Sends the handler's {"event":"exit",...} document to `sink` when
  /// metrics_on_exit() is set.
  void write_exit_line(SessionOrigin& sink);

 private:
  struct WorkItem {
    ServiceRequest request;
    std::shared_ptr<SessionOrigin> origin;
  };

  EventLoopHandler& handler_;
  ServiceMetrics& metrics_;
  const std::int64_t default_deadline_ms_;
  const bool wants_raw_line_;

  // Workers (absent when the handler runs inline).  The queue outlives
  // the pool's tasks: ~SessionCore closes it before the pool joins.
  std::optional<BoundedQueue<WorkItem>> queue_;
  std::optional<ThreadPool> pool_;
  std::vector<std::future<void>> worker_done_;

  // Admitting-thread scratch for inline execution.
  GroomingWorkspace inline_workspace_;
  JsonWriter inline_writer_;

  std::shared_ptr<SessionOrigin> shutdown_origin_;
  std::int64_t shutdown_id_ = 0;
  bool shutdown_has_id_ = false;
  bool drained_ = false;
};

}  // namespace tgroom
