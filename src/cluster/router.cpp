#include "cluster/router.hpp"

#include <algorithm>
#include <ostream>
#include <thread>

#include "graph/fingerprint.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "store/format.hpp"
#include "util/json.hpp"

namespace tgroom::cluster {

namespace {

constexpr std::string_view kHealthLine = "{\"op\":\"health\"}";
constexpr std::string_view kStatsLine = "{\"op\":\"stats\"}";
constexpr std::string_view kPromoteLine = "{\"op\":\"promote\"}";
constexpr std::string_view kShutdownLine = "{\"op\":\"shutdown\"}";

bool response_says(const std::string& response, std::string_view needle) {
  return response.find(needle) != std::string::npos;
}

}  // namespace

ClusterRouter::ClusterRouter(RouterConfig config)
    : config_(std::move(config)) {
  for (const ShardSpec& spec : config_.map.shards) {
    auto shard = std::make_unique<Shard>();
    for (const BackendAddress& address : spec.members) {
      auto member = std::make_unique<Member>();
      member->address = address;
      BackendChannelConfig channel_config;
      channel_config.connect_timeout_ms = config_.connect_wait_ms;
      member->channel =
          std::make_unique<BackendChannel>(address, channel_config);
      shard->members.push_back(std::move(member));
    }
    shards_.push_back(std::move(shard));
  }
}

ClusterRouter::~ClusterRouter() { stop_backends(); }

bool ClusterRouter::drain_requested() const {
  return GroomingService::stop_requested();
}

bool ClusterRouter::start(std::ostream& log, std::string& error) {
  // Start every channel first so connects overlap, then wait and
  // validate one by one.
  for (auto& shard : shards_) {
    for (auto& member : shard->members) member->channel->start();
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    for (auto& member : shard.members) {
      if (!member->channel->wait_connected(config_.connect_wait_ms)) {
        // Down, not fatal: the prober keeps dialing, and two strikes are
        // already on the board so the first sweep can fail over.
        member->probe_failures.store(2, std::memory_order_relaxed);
        log << "tgroom route: shard " << i << " member "
            << member->address.str() << " unreachable at startup\n";
        continue;
      }
      if (!validate_member(i, *member, error)) return false;
    }
    // Initial primary: the first member answering as primary (the
    // configured one, members[0], in a healthy cluster).
    for (std::size_t m = 0; m < shard.members.size(); ++m) {
      if (shard.members[m]->healthy.load(std::memory_order_relaxed) &&
          shard.members[m]->is_primary.load(std::memory_order_relaxed)) {
        shard.active_primary.store(m, std::memory_order_relaxed);
        break;
      }
    }
  }
  prober_ = std::thread([this] { prober_loop(); });
  return true;
}

bool ClusterRouter::validate_member(std::size_t shard_index, Member& member,
                                    std::string& error) {
  std::string response;
  const BackendChannel::SendStatus status = member.channel->call(
      kHealthLine, config_.probe_timeout_ms, response);
  if (status != BackendChannel::SendStatus::kOk) {
    member.probe_failures.store(2, std::memory_order_relaxed);
    return true;  // connected but not answering: down, prober's problem
  }
  try {
    const JsonValue doc = parse_json(response);
    const JsonValue* store_version = doc.find("store_version");
    if (store_version != nullptr &&
        store_version->as_int() !=
            static_cast<std::int64_t>(kStoreFormatVersion)) {
      error = "shard " + std::to_string(shard_index) + " member " +
              member.address.str() + ": store format version " +
              std::to_string(store_version->as_int()) + " != compiled " +
              std::to_string(kStoreFormatVersion);
      return false;
    }
    const JsonValue* fp_version = doc.find("fingerprint_version");
    if (fp_version != nullptr &&
        fp_version->as_int() !=
            static_cast<std::int64_t>(kFingerprintFormatVersion)) {
      error = "shard " + std::to_string(shard_index) + " member " +
              member.address.str() + ": fingerprint format version " +
              std::to_string(fp_version->as_int()) + " != compiled " +
              std::to_string(static_cast<int>(kFingerprintFormatVersion));
      return false;
    }
    // Topology echo: a node that believes it sits elsewhere in the
    // cluster would serve (and store) the wrong key range — fatal.
    const JsonValue* shard_count = doc.find("shard_count");
    if (shard_count != nullptr) {
      if (shard_count->as_int() !=
          static_cast<std::int64_t>(config_.map.size())) {
        error = "shard " + std::to_string(shard_index) + " member " +
                member.address.str() + ": node configured for " +
                std::to_string(shard_count->as_int()) +
                " shards, map has " + std::to_string(config_.map.size());
        return false;
      }
      const JsonValue* node_shard = doc.find("shard_index");
      if (node_shard != nullptr &&
          node_shard->as_int() != static_cast<std::int64_t>(shard_index)) {
        error = "shard " + std::to_string(shard_index) + " member " +
                member.address.str() + ": node reports shard_index " +
                std::to_string(node_shard->as_int());
        return false;
      }
    }
    const JsonValue* role = doc.find("role");
    member.is_primary.store(
        role != nullptr && role->is_string() && role->string == "primary",
        std::memory_order_relaxed);
    const JsonValue* last_seq = doc.find("last_seq");
    if (last_seq != nullptr) {
      member.applied_seq.store(
          static_cast<std::uint64_t>(last_seq->as_int()),
          std::memory_order_relaxed);
    }
    member.healthy.store(true, std::memory_order_relaxed);
    member.probe_failures.store(0, std::memory_order_relaxed);
  } catch (const CheckError&) {
    member.probe_failures.store(2, std::memory_order_relaxed);
  }
  return true;
}

void ClusterRouter::stop_backends() {
  if (backends_stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  for (auto& shard : shards_) {
    for (auto& member : shard->members) member->channel->stop();
  }
}

// ---- request path ---------------------------------------------------------

int ClusterRouter::shard_for_request(const ServiceRequest& request,
                                     std::string& error) const {
  std::uint64_t key;
  if (request.has_route_key) {
    key = static_cast<std::uint64_t>(request.route_key);
  } else {
    switch (request.op) {
      case ServiceOp::kGroom:
        key = graph_fingerprint(request.graph);
        break;
      case ServiceOp::kProvision:
      case ServiceOp::kRelease:
        if (!request.plan.has_value()) {
          // A held-plan reference without a routing key: plan ids are
          // per-shard counters, so only a one-shard map can resolve it.
          if (config_.map.size() == 1) return 0;
          error =
              "held-plan operations need \"route_key\" in a multi-shard "
              "cluster (send the same route_key you held the plan with)";
          return -1;
        }
        key = pairs_route_key(request.op == ServiceOp::kProvision
                                  ? request.add
                                  : request.remove);
        break;
      default:
        error = "op is not routable";
        return -1;
    }
  }
  return static_cast<int>(shard_for_key(key, config_.map.size()));
}

int ClusterRouter::forward_timeout_ms(const ServiceRequest& request) const {
  if (request.deadline_ms > 0 &&
      request.deadline_ms < config_.backend_timeout_ms) {
    // The backend enforces the deadline itself (the raw line carries it);
    // the slack keeps the backend's own deadline_exceeded answer the one
    // the client sees.
    return static_cast<int>(request.deadline_ms) + 1000;
  }
  return config_.backend_timeout_ms;
}

void ClusterRouter::execute_into(ServiceRequest& request,
                                 GroomingWorkspace& workspace, JsonWriter& w) {
  (void)workspace;  // the router grooms nothing
  if (request.admitted == std::chrono::steady_clock::time_point{}) {
    request.admitted = std::chrono::steady_clock::now();
  }
  w.clear();
  switch (request.op) {
    case ServiceOp::kHealth:
      handle_health(request, w);
      break;
    case ServiceOp::kStats:
      handle_stats(request, w);
      break;
    case ServiceOp::kShutdown:
      // The event loop intercepts shutdown before it reaches a worker;
      // answering here keeps direct (in-process) callers working.
      begin_ok_response(w, request.id, request.has_id, ServiceOp::kShutdown);
      w.end_object();
      metrics_.increment(ServiceMetrics::Counter::kOk);
      break;
    case ServiceOp::kPromote:
    case ServiceOp::kReplHandshake:
    case ServiceOp::kReplFetch:
    case ServiceOp::kReplSnapshot:
      bad_request_response(
          request,
          std::string(service_op_name(request.op)) +
              " is not routable; send it to the shard node directly",
          w);
      break;
    default:
      forward(request, w);
      break;
  }
  metrics_.observe_latency(std::chrono::steady_clock::now() -
                           request.admitted);
}

void ClusterRouter::forward(ServiceRequest& request, JsonWriter& w) {
  std::string error;
  const int shard_index = shard_for_request(request, error);
  if (shard_index < 0) return bad_request_response(request, error, w);
  if (request.raw.empty()) {
    return bad_request_response(
        request, "router needs the original request line to forward", w);
  }
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  if (GroomingService::is_mutating(request)) {
    forward_mutation(request, shard, w);
  } else {
    forward_read(request, shard, w);
  }
}

void ClusterRouter::forward_read(ServiceRequest& request, Shard& shard,
                                 JsonWriter& w) {
  const std::string stripped = strip_top_level_id(request.raw);
  const int timeout = forward_timeout_ms(request);
  // Preference order: healthy replicas (they exist to absorb reads),
  // then the active primary, then anything that still has a connection.
  const std::size_t active =
      shard.active_primary.load(std::memory_order_relaxed);
  std::vector<std::size_t> order;
  order.reserve(shard.members.size());
  for (std::size_t m = 0; m < shard.members.size(); ++m) {
    if (m != active && shard.members[m]->healthy.load(std::memory_order_relaxed))
      order.push_back(m);
  }
  order.push_back(active);
  for (std::size_t m = 0; m < shard.members.size(); ++m) {
    if (m != active && !shard.members[m]->healthy.load(std::memory_order_relaxed))
      order.push_back(m);
  }
  BackendChannel::SendStatus last = BackendChannel::SendStatus::kNoConnection;
  bool first_attempt = true;
  // Reads are idempotent: every failure mode retries, across two passes
  // with a breather in between so a mid-failover shard gets a chance.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t m : order) {
      if (!first_attempt) {
        metrics_.increment(ServiceMetrics::Counter::kForwardRetries);
      }
      first_attempt = false;
      std::string response;
      last = shard.members[m]->channel->call(stripped, timeout, response);
      if (last == BackendChannel::SendStatus::kOk) {
        return emit_forwarded(request, response, w);
      }
    }
    if (pass == 0 && !draining_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.retry_backoff_ms));
    }
  }
  std::size_t shard_index = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].get() == &shard) shard_index = i;
  }
  shard_down_response(request, shard_index,
                      std::string("no member answered (last: ") +
                          BackendChannel::status_name(last) + ")",
                      w);
}

void ClusterRouter::forward_mutation(ServiceRequest& request, Shard& shard,
                                     JsonWriter& w) {
  const std::string stripped = strip_top_level_id(request.raw);
  const int timeout = forward_timeout_ms(request);
  std::size_t shard_index = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].get() == &shard) shard_index = i;
  }
  BackendChannel::SendStatus last = BackendChannel::SendStatus::kNoConnection;
  for (int attempt = 0; attempt < config_.mutation_attempts; ++attempt) {
    if (attempt > 0) {
      metrics_.increment(ServiceMetrics::Counter::kForwardRetries);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.retry_backoff_ms));
    }
    const std::size_t active =
        shard.active_primary.load(std::memory_order_relaxed);
    std::string response;
    last = shard.members[active]->channel->call(stripped, timeout, response);
    switch (last) {
      case BackendChannel::SendStatus::kOk:
        if (response_says(response, "\"error\":\"read_only\"") &&
            attempt + 1 < config_.mutation_attempts) {
          // The target was a replica (we raced a failover, or the
          // cluster was brought up pointing at one).  Nothing executed,
          // so retrying after the prober re-elects is safe.
          continue;
        }
        return emit_forwarded(request, response, w);
      case BackendChannel::SendStatus::kNoConnection:
      case BackendChannel::SendStatus::kSendFailed:
        // Nothing reached the backend as a complete line: the request
        // did not and will not execute there.  Safe to retry.
        continue;
      case BackendChannel::SendStatus::kConnectionLost:
      case BackendChannel::SendStatus::kTimedOut:
        // The full line was sent; the mutation MAY have executed.  A
        // blind retry could execute it twice, so surface the ambiguity.
        return shard_down_response(
            request, shard_index,
            std::string("primary ") +
                shard.members[active]->address.str() + " " +
                BackendChannel::status_name(last) +
                " mid-request; the mutation may or may not have applied",
            w);
    }
  }
  shard_down_response(request, shard_index,
                      std::string("no reachable primary (last: ") +
                          BackendChannel::status_name(last) + ")",
                      w);
}

void ClusterRouter::emit_forwarded(const ServiceRequest& request,
                                   const std::string& response,
                                   JsonWriter& w) {
  std::string restored;
  if (!restore_response_id(response, request.has_id, request.id, restored)) {
    metrics_.increment(ServiceMetrics::Counter::kError);
    return write_error_response(w, request.id, request.has_id,
                                ServiceError::kInternal,
                                "malformed backend response");
  }
  metrics_.increment(ServiceMetrics::Counter::kForwarded);
  metrics_.increment(response_says(restored, "\"ok\":false")
                         ? ServiceMetrics::Counter::kError
                         : ServiceMetrics::Counter::kOk);
  w.raw(restored);
}

void ClusterRouter::shard_down_response(const ServiceRequest& request,
                                        std::size_t shard_index,
                                        const std::string& detail,
                                        JsonWriter& w) {
  metrics_.increment(ServiceMetrics::Counter::kError);
  metrics_.increment(ServiceMetrics::Counter::kShardDownErrors);
  write_error_response(w, request.id, request.has_id,
                       ServiceError::kShardDown,
                       "shard " + std::to_string(shard_index) + ": " + detail);
}

void ClusterRouter::bad_request_response(const ServiceRequest& request,
                                         const std::string& message,
                                         JsonWriter& w) {
  metrics_.increment(ServiceMetrics::Counter::kError);
  write_error_response(w, request.id, request.has_id,
                       ServiceError::kBadRequest, message);
}

// ---- aggregate ops --------------------------------------------------------

void ClusterRouter::handle_health(const ServiceRequest& request,
                                  JsonWriter& w) {
  // Inline on the loop thread (EventLoopHandler contract): probed
  // atomics only, never a backend round trip.
  begin_ok_response(w, request.id, request.has_id, ServiceOp::kHealth);
  w.kv("role", "router");
  w.kv("shard_count", static_cast<long long>(shards_.size()));
  w.key("shards").begin_array();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    const std::size_t active =
        shard.active_primary.load(std::memory_order_relaxed);
    long long up = 0;
    for (const auto& member : shard.members) {
      if (member->healthy.load(std::memory_order_relaxed)) ++up;
    }
    w.begin_object();
    w.kv("shard", static_cast<long long>(i));
    w.kv("primary", shard.members[active]->address.str());
    w.kv("primary_healthy",
         shard.members[active]->healthy.load(std::memory_order_relaxed));
    w.kv("members", static_cast<long long>(shard.members.size()));
    w.kv("members_up", up);
    w.end_object();
  }
  w.end_array();
  w.kv("uptime_s",
       static_cast<long long>(std::chrono::duration_cast<std::chrono::seconds>(
                                  std::chrono::steady_clock::now() - started_)
                                  .count()));
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

void ClusterRouter::handle_stats(ServiceRequest& request, JsonWriter& w) {
  begin_ok_response(w, request.id, request.has_id, ServiceOp::kStats);
  w.kv("role", "router");
  w.kv("shard_count", static_cast<long long>(shards_.size()));
  w.key("router");
  metrics_.write_json(w);
  w.key("shards").begin_array();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    const std::size_t active =
        shard.active_primary.load(std::memory_order_relaxed);
    w.begin_object();
    w.kv("shard", static_cast<long long>(i));
    w.kv("primary", shard.members[active]->address.str());
    std::string response;
    const BackendChannel::SendStatus status =
        shard.members[active]->channel->call(
            kStatsLine, config_.backend_timeout_ms, response);
    if (status == BackendChannel::SendStatus::kOk) {
      std::string nulled;
      if (restore_response_id(response, false, 0, nulled)) {
        w.key("response").raw(nulled);
      } else {
        w.kv("error", "malformed backend response");
      }
    } else {
      w.kv("error", BackendChannel::status_name(status));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  metrics_.increment(ServiceMetrics::Counter::kOk);
}

// ---- drain ----------------------------------------------------------------

void ClusterRouter::on_drain_begin() {
  // Stop electing: a failover mid-drain would promote a replica on a
  // cluster that is about to be told to shut down.
  draining_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
}

void ClusterRouter::finalize() {
  // Called once the session's in-flight work has finished: every
  // accepted client request has its response, so shutting the shards
  // down now cannot turn an in-flight forward into a spurious
  // `shutting_down`.  The client's own ack goes out after this.
  if (prober_.joinable()) prober_.join();
  for (auto& shard : shards_) {
    for (auto& member : shard->members) {
      if (!member->channel->connected()) continue;
      std::string response;
      member->channel->call(kShutdownLine, config_.promote_timeout_ms,
                            response);
    }
  }
  stop_backends();
}

void ClusterRouter::write_exit_metrics(JsonWriter& w) {
  w.clear();
  w.begin_object();
  w.kv("event", "exit");
  w.kv("role", "router");
  w.kv("shard_count", static_cast<long long>(shards_.size()));
  w.key("metrics");
  metrics_.write_json(w);
  w.end_object();
}

// ---- prober ---------------------------------------------------------------

void ClusterRouter::prober_loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(prober_mutex_);
      prober_cv_.wait_for(lock,
                          std::chrono::milliseconds(config_.probe_interval_ms),
                          [this] { return prober_stop_; });
      if (prober_stop_) return;
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      for (auto& member : shard.members) probe_member(*member);
      resolve_primary(i, shard);
    }
  }
}

void ClusterRouter::probe_member(Member& member) {
  std::string response;
  const BackendChannel::SendStatus status =
      member.channel->call(kHealthLine, config_.probe_timeout_ms, response);
  if (status != BackendChannel::SendStatus::kOk) {
    const int failures =
        member.probe_failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (failures >= 2) member.healthy.store(false, std::memory_order_relaxed);
    return;
  }
  try {
    const JsonValue doc = parse_json(response);
    const JsonValue* role = doc.find("role");
    member.is_primary.store(
        role != nullptr && role->is_string() && role->string == "primary",
        std::memory_order_relaxed);
    const JsonValue* last_seq = doc.find("last_seq");
    if (last_seq != nullptr) {
      member.applied_seq.store(static_cast<std::uint64_t>(last_seq->as_int()),
                               std::memory_order_relaxed);
    }
    member.probe_failures.store(0, std::memory_order_relaxed);
    member.healthy.store(true, std::memory_order_relaxed);
  } catch (const CheckError&) {
    const int failures =
        member.probe_failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (failures >= 2) member.healthy.store(false, std::memory_order_relaxed);
  }
}

void ClusterRouter::resolve_primary(std::size_t shard_index, Shard& shard) {
  const std::size_t active =
      shard.active_primary.load(std::memory_order_relaxed);
  Member& current = *shard.members[active];
  if (current.healthy.load(std::memory_order_relaxed) &&
      current.is_primary.load(std::memory_order_relaxed)) {
    return;
  }
  // Adopt an externally-promoted member first: if someone (an operator,
  // another router) already ran the promotion, electing again would try
  // to promote a second primary.
  for (std::size_t m = 0; m < shard.members.size(); ++m) {
    Member& member = *shard.members[m];
    if (m != active && member.healthy.load(std::memory_order_relaxed) &&
        member.is_primary.load(std::memory_order_relaxed)) {
      shard.active_primary.store(m, std::memory_order_relaxed);
      metrics_.increment(ServiceMetrics::Counter::kFailovers);
      return;
    }
  }
  if (current.healthy.load(std::memory_order_relaxed)) {
    // Reachable but answering as replica with no primary anywhere —
    // fall through to an election that may well pick it.
  }
  // Elect: the healthy member with the most applied state loses the
  // least history.  (No quorum — the prober's two-strike rule is the
  // only guard against promoting beside a live-but-slow primary, which
  // is the documented single-router limitation, DESIGN.md §17.)
  std::size_t best = shard.members.size();
  std::uint64_t best_seq = 0;
  for (std::size_t m = 0; m < shard.members.size(); ++m) {
    Member& member = *shard.members[m];
    if (!member.healthy.load(std::memory_order_relaxed)) continue;
    const std::uint64_t seq =
        member.applied_seq.load(std::memory_order_relaxed);
    if (best == shard.members.size() || seq > best_seq) {
      best = m;
      best_seq = seq;
    }
  }
  if (best == shard.members.size()) return;  // whole shard dark
  Member& candidate = *shard.members[best];
  if (candidate.is_primary.load(std::memory_order_relaxed)) {
    // The current active member already answers as primary (it *is* the
    // best candidate); just keep it.
    shard.active_primary.store(best, std::memory_order_relaxed);
    return;
  }
  std::string response;
  const BackendChannel::SendStatus status = candidate.channel->call(
      kPromoteLine, config_.promote_timeout_ms, response);
  if (status == BackendChannel::SendStatus::kOk &&
      response_says(response, "\"ok\":true")) {
    candidate.is_primary.store(true, std::memory_order_relaxed);
    shard.active_primary.store(best, std::memory_order_relaxed);
    metrics_.increment(ServiceMetrics::Counter::kFailovers);
  }
  (void)shard_index;
}

}  // namespace tgroom::cluster
