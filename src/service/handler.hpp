// The request-execution seam between the session core
// (service/session.hpp) and whatever answers requests behind it.
//
// The grooming service and the cluster front-end (src/cluster/router.hpp)
// share the same session machinery — admission, workers, drain — and
// the same transports, but one grooms while the other forwards to shards
// and owns no grooming state.  EventLoopHandler is the narrow interface
// the core and the epoll loop actually consume: execution, the
// admission knobs, metrics, and the drain hooks.  GroomingService and
// ClusterRouter both implement it; the session never knows which it is
// serving.
//
// Threading contract: execute_into() runs on worker threads (or on the
// reading thread when worker_count() == 0, and always there for
// `health`, which is answered inline ahead of queued work — so a health
// response must stay cheap and must not block on locks a worker can hold
// across a long computation).  The remaining methods are called from the
// reading thread only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tgroom {

struct ServiceRequest;
struct GroomingWorkspace;
class JsonWriter;
class ServiceMetrics;

class EventLoopHandler {
 public:
  virtual ~EventLoopHandler() = default;

  virtual ServiceMetrics& metrics() = 0;

  // Admission knobs (the loop sizes its queue and worker pool from these).
  virtual std::size_t worker_count() const = 0;
  virtual std::size_t handler_queue_capacity() const = 0;
  virtual std::int64_t handler_default_deadline_ms() const = 0;
  virtual bool metrics_on_exit() const = 0;

  /// Polled by the TCP loop each turn; true begins the SIGTERM-style
  /// drain.
  virtual bool drain_requested() const = 0;

  /// When true the session copies each request's original line into
  /// ServiceRequest::raw before execution (the router forwards those
  /// bytes; the grooming service never pays the copy).
  virtual bool wants_raw_line() const { return false; }

  /// The name the listen announcement and log lines lead with.
  virtual const char* log_name() const = 0;

  /// Executes one parsed request, writing the response line into `w`
  /// (cleared first).
  virtual void execute_into(ServiceRequest& request,
                            GroomingWorkspace& workspace, JsonWriter& w) = 0;

  /// Called once when the session drains, before queued work is
  /// rejected.  The router stops its failover prober here.
  virtual void on_drain_begin() {}

  /// Called once per session after in-flight work has finished and
  /// before the `shutdown` ack: the service flushes and snapshots its
  /// store, the router shuts its shards down.
  virtual void finalize() {}

  /// The {"event":"exit",...} document appended to the log when
  /// metrics_on_exit() is set.  `w` is cleared first.
  virtual void write_exit_metrics(JsonWriter& w) = 0;
};

}  // namespace tgroom
