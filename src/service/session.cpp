#include "service/session.hpp"

#include <chrono>
#include <ostream>
#include <string>
#include <utility>

#include "service/handler.hpp"
#include "service/metrics.hpp"

namespace tgroom {

void StreamOrigin::deliver(std::string_view line, bool /*from_worker*/) {
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << line << '\n';
  out_.flush();
}

SessionCore::SessionCore(EventLoopHandler& handler)
    : handler_(handler),
      metrics_(handler.metrics()),
      default_deadline_ms_(handler.handler_default_deadline_ms()),
      wants_raw_line_(handler.wants_raw_line()) {
  const std::size_t workers = handler.worker_count();
  if (workers == 0) return;
  queue_.emplace(handler.handler_queue_capacity());
  pool_.emplace(workers);
  worker_done_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    worker_done_.push_back(pool_->submit([this] {
      // Long-lived per-worker state: scratch, arena, and response buffer
      // all amortize across every request this worker serves.
      GroomingWorkspace workspace;
      JsonWriter writer;
      WorkItem item;
      while (queue_->pop(item)) {
        handler_.execute_into(item.request, workspace, writer);
        item.origin->deliver(writer.str(), /*from_worker=*/true);
        item.origin.reset();
      }
    }));
  }
}

SessionCore::~SessionCore() {
  if (queue_.has_value()) queue_->close();
}

SessionCore::Admission SessionCore::admit(
    std::string_view line, const std::shared_ptr<SessionOrigin>& origin) {
  if (line.find_first_not_of(" \t\r") == std::string_view::npos) {
    return Admission::kDone;
  }
  metrics_.increment(ServiceMetrics::Counter::kReceived);
  RequestParse parsed = parse_request(line);
  if (!parsed.request.has_value()) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    origin->deliver(make_error_response(parsed.id, parsed.has_id,
                                        ServiceError::kBadRequest,
                                        parsed.error),
                    /*from_worker=*/false);
    return Admission::kDone;
  }
  ServiceRequest request = std::move(*parsed.request);
  if (request.deadline_ms == 0) request.deadline_ms = default_deadline_ms_;
  request.admitted = std::chrono::steady_clock::now();
  if (wants_raw_line_) request.raw.assign(line);
  if (request.op == ServiceOp::kShutdown) {
    shutdown_origin_ = origin;
    shutdown_id_ = request.id;
    shutdown_has_id_ = request.has_id;
    return Admission::kShutdown;
  }
  // Health is answered inline, never queued behind grooming work: it
  // stays cheap under a full admission queue, which is exactly when a
  // prober wants an answer.
  if (request.op == ServiceOp::kHealth || !queue_.has_value()) {
    handler_.execute_into(request, inline_workspace_, inline_writer_);
    origin->deliver(inline_writer_.str(), /*from_worker=*/false);
    return Admission::kDone;
  }
  const std::int64_t id = request.id;
  const bool has_id = request.has_id;
  if (queue_->try_push(WorkItem{std::move(request), origin})) {
    return Admission::kQueued;
  }
  metrics_.increment(ServiceMetrics::Counter::kError);
  metrics_.increment(ServiceMetrics::Counter::kOverloaded);
  origin->deliver(
      make_error_response(id, has_id, ServiceError::kOverloaded,
                          "admission queue full (capacity " +
                              std::to_string(queue_->capacity()) + ")"),
      /*from_worker=*/false);
  return Admission::kDone;
}

void SessionCore::drain(bool reject_queued) {
  if (drained_) return;
  drained_ = true;
  // Handler hook before any rejection: the cluster router stops electing
  // here, so a failover cannot start on a cluster about to shut down.
  handler_.on_drain_begin();
  std::size_t rejected = 0;
  if (queue_.has_value()) {
    if (reject_queued) {
      std::vector<WorkItem> leftover = queue_->close_and_drain();
      rejected = leftover.size();
      for (WorkItem& item : leftover) {
        metrics_.increment(ServiceMetrics::Counter::kError);
        metrics_.increment(ServiceMetrics::Counter::kShuttingDown);
        item.origin->deliver(
            make_error_response(item.request.id, item.request.has_id,
                                ServiceError::kShuttingDown,
                                "service is draining"),
            /*from_worker=*/true);
      }
    } else {
      queue_->close();  // EOF: everything accepted still runs
    }
    for (std::future<void>& done : worker_done_) done.get();
  }
  // Nothing acked may be lost at a clean exit, whatever the fsync
  // policy, so the ack waits for the store's flush and snapshot.
  handler_.finalize();
  if (shutdown_origin_ != nullptr) {
    JsonWriter w;
    begin_ok_response(w, shutdown_id_, shutdown_has_id_, ServiceOp::kShutdown);
    w.kv("rejected_queued", static_cast<long long>(rejected));
    w.end_object();
    metrics_.increment(ServiceMetrics::Counter::kOk);
    shutdown_origin_->deliver(w.str(), /*from_worker=*/false);
    shutdown_origin_.reset();
  }
}

void SessionCore::write_exit_line(SessionOrigin& sink) {
  if (!handler_.metrics_on_exit()) return;
  JsonWriter w;
  handler_.write_exit_metrics(w);
  sink.deliver(w.str(), /*from_worker=*/false);
}

}  // namespace tgroom
