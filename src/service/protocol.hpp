// Wire protocol of the grooming service: newline-delimited JSON.
//
// Every request is one JSON object on one line; every response is one
// JSON object on one line.  Requests carry an optional integer "id" that
// is echoed verbatim in the response (responses may be emitted out of
// order when the daemon runs with workers).  Grammar:
//
//   request    := groom | provision | release | stats | shutdown
//               | health | promote | repl_handshake | repl_fetch
//               | repl_snapshot
//   groom      := {"op":"groom", "id"?:int, "graph":{"n":int,
//                  "edges":[[u,v],...]}, "algorithm"?:string, "k"?:int,
//                  "seed"?:int, "refine"?:bool, "smart_branches"?:bool,
//                  "hold"?:bool, "include_partition"?:bool,
//                  "deadline_ms"?:int}
//   provision  := {"op":"provision", "id"?:int,
//                  ("plan_id":int | "plan":plan), "add":[[a,b],...],
//                  "include_plan"?:bool, "deadline_ms"?:int}
//   release    := {"op":"release", "id"?:int,
//                  ("plan_id":int | "plan":plan),
//                  ("remove":[[a,b],...] | "all":true), "repair"?:bool,
//                  "include_plan"?:bool, "deadline_ms"?:int}
//   stats      := {"op":"stats", "id"?:int}
//   shutdown   := {"op":"shutdown", "id"?:int}
//   health     := {"op":"health", "id"?:int}        — answered inline,
//                  never queued behind grooming work
//   promote    := {"op":"promote", "id"?:int}       — replica → primary
//   plan       := {"ring_size":int, "k":int,
//                  "pairs":[[a,b,wavelength,timeslot],...]}
//
// Replication stream (follower → primary, over the same NDJSON loop):
//
//   repl_handshake := {"op":"repl_handshake", "id"?:int,
//                      "store_version":int, "fingerprint_version":int,
//                      "start_seq":int, "last_crc"?:int}
//                  →  {"ok":true, "op":"repl_handshake", "last_seq":int,
//                      "first_available":int, "mode":"wal"|"snapshot",
//                      "diverged"?:true}
//   ("last_crc" is the CRC32C of the follower's WAL record at start_seq;
//   a mismatch against the primary's record means the histories forked —
//   the primary answers mode "snapshot" with "diverged":true so the
//   follower re-bootstraps instead of appending past the fork.)
//   repl_fetch     := {"op":"repl_fetch", "id"?:int, "from_seq":int,
//                      "max_records"?:int, "ack_seq"?:int}
//                  →  {"ok":true, "op":"repl_fetch", "last_seq":int,
//                      "compacted":bool, "incomplete":bool,
//                      "records":[[seq,type,hexbody],...]}
//   repl_snapshot  := {"op":"repl_snapshot", "id"?:int}
//                  →  {"ok":true, "op":"repl_snapshot", "last_seq":int,
//                      "next_plan_id":int, "plans":[[id,plan],...]}
//
//   response   := {"id":int|null, "ok":true, "op":string, ...payload}
//               | {"id":int|null, "ok":false, "error":code,
//                  "message":string}
//   code       := "bad_request" | "overloaded" | "shutting_down"
//               | "deadline_exceeded" | "store_incompatible"
//               | "read_only" | "shard_down" | "internal"
//
// Any request may additionally carry "route_key":int — a routing hint
// for the cluster front-end (`tgroom route`, src/cluster/).  Shard nodes
// parse and ignore it, so a request stream is byte-for-byte replayable
// against a single node; the router uses it to pin held-plan operations
// to the shard that owns the plan (DESIGN.md §17).
//
// The serializers here are shared with the CLI's `--format json` output,
// so scripted pipelines and service clients parse one format.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "grooming/incremental.hpp"
#include "grooming/plan.hpp"
#include "grooming/repair.hpp"

namespace tgroom {

class JsonValue;
class JsonWriter;

enum class ServiceOp {
  kGroom,
  kProvision,
  kRelease,
  kStats,
  kShutdown,
  kHealth,         // cheap liveness/role probe, answered inline
  kPromote,        // flip a caught-up replica to primary
  kReplHandshake,  // replication stream: version + start-seq negotiation
  kReplFetch,      // replication stream: a batch of framed WAL records
  kReplSnapshot,   // replication stream: full-table bootstrap
};
const char* service_op_name(ServiceOp op);

enum class ServiceError {
  kBadRequest,
  kOverloaded,
  kShuttingDown,
  kDeadlineExceeded,
  kStoreIncompatible,  // durable store written by a different format version
  kReadOnly,           // mutation sent to a replica; message names the primary
  kShardDown,          // router: the owning shard has no reachable node
  kInternal,
};
const char* service_error_name(ServiceError code);

struct ServiceRequest {
  std::int64_t id = 0;
  bool has_id = false;
  ServiceOp op = ServiceOp::kStats;

  // groom fields.  The graph is parsed straight into a CSR snapshot, the
  // form SpanT_Euler and the fingerprint walk (DESIGN.md §18).
  CsrGraph graph;
  AlgorithmId algorithm = AlgorithmId::kSpanTEuler;
  int k = 16;
  std::uint64_t seed = 1;
  bool refine = false;
  bool smart_branches = false;
  bool hold = false;               // keep the plan server-side, return plan_id
  bool include_partition = false;  // echo the partition parts

  // provision / release fields
  std::int64_t plan_id = -1;           // >= 0 references a held plan
  std::optional<GroomingPlan> plan;    // inline base plan (stateless mode)
  std::vector<DemandPair> add;
  bool include_plan = false;           // echo the extended plan

  // release fields
  std::vector<DemandPair> remove;      // circuits to release
  bool release_all = false;            // drop the whole held plan
  bool repair = true;                  // local repair after release

  // replication fields (repl_handshake / repl_fetch)
  std::int64_t repl_store_version = -1;        // handshake: kStoreFormatVersion
  std::int64_t repl_fingerprint_version = -1;  // handshake
  std::uint64_t repl_start_seq = 0;   // handshake: follower resumes after this
  bool repl_has_last_crc = false;     // handshake: "last_crc" was present
  std::uint32_t repl_last_crc = 0;    // handshake: CRC32C of the follower's
                                      // WAL record at start_seq
  std::uint64_t repl_from_seq = 0;    // fetch: records with seq > from_seq
  std::int64_t repl_max_records = 0;  // fetch: 0 = server default
  std::uint64_t repl_ack_seq = 0;     // fetch: follower's applied high-water
  std::string repl_follower;          // fetch: follower's node id (optional;
                                      // keys the primary's per-replica ack
                                      // table surfaced in health)

  // cluster routing hint (any op): the router shards by this when
  // present, by the graph/plan content otherwise.  Shard nodes ignore it.
  std::int64_t route_key = 0;
  bool has_route_key = false;

  // The original request line, captured only when the serving front-end
  // asks for it (EventLoopHandler::wants_raw_line() — the cluster router
  // forwards these bytes instead of re-serializing).  Empty otherwise.
  std::string raw;

  // lifecycle (stamped by the server at admission)
  std::int64_t deadline_ms = 0;  // 0 = no deadline
  std::chrono::steady_clock::time_point admitted{};
};

struct RequestParse {
  std::optional<ServiceRequest> request;  // empty: `error` says why
  std::string error;
  std::int64_t id = 0;  // best-effort id echo for error responses
  bool has_id = false;
};

/// Parses one request line; never throws — malformed input lands in
/// RequestParse::error.  Takes a view so the event loop can parse
/// directly out of a connection's read buffer without copying the line;
/// nothing in the result aliases `line`.
RequestParse parse_request(std::string_view line);

/// The generic parser alone: the JsonValue tree and its canonical error
/// messages.  parse_request tries a strict in-place scanner first and
/// falls back to this one; on every line the two must agree, which the
/// parser differential test checks.
RequestParse parse_request_generic(std::string_view line);

/// One structured error response line (without trailing newline).
std::string make_error_response(std::int64_t id, bool has_id,
                                ServiceError code,
                                const std::string& message);

/// Same, but into a reusable writer (the zero-allocation response path —
/// the caller owns and recycles the writer's buffer).
void write_error_response(JsonWriter& w, std::int64_t id, bool has_id,
                          ServiceError code, const std::string& message);

/// Opens a response object and writes the shared "id"/"ok"/"op" head; the
/// caller appends payload keys and closes the object.
void begin_ok_response(JsonWriter& w, std::int64_t id, bool has_id,
                       ServiceOp op);

// ---- serializers shared between service responses and CLI --format json.

/// {"n":...,"edges":[[u,v],...]} with real edges in id order.
void write_graph_json(JsonWriter& w, const Graph& g);
/// Builds a simple graph; throws CheckError on malformed/duplicate input.
Graph graph_from_json(const JsonValue& v);

/// {"ring_size":...,"k":...,"pairs":[[a,b,wavelength,timeslot],...]}.
void write_plan_json(JsonWriter& w, const GroomingPlan& plan);
GroomingPlan plan_from_json(const JsonValue& v);

/// The parts array only: [[edge ids...],...].
void write_partition_json(JsonWriter& w, const EdgePartition& partition);
void write_partition_json(JsonWriter& w, const FlatParts& parts);

/// Emits the incremental-provisioning payload keys into an open object:
/// new_sadms/new_wavelengths/reused_sites/sadms/wavelengths[, plan].
void write_incremental_json(JsonWriter& w, const IncrementalResult& result,
                            bool include_plan);

/// Emits the release payload keys into an open object:
/// released/repair_moves/freed_wavelengths/sadms_removed/remaining/
/// sadms/wavelengths[, plan].  `plan` is the residual plan.
void write_release_json(JsonWriter& w, const ReleaseStats& stats,
                        const GroomingPlan& plan, bool include_plan);

/// [[a,b],...] demand pairs; normalizes a < b, rejects a == b.
std::vector<DemandPair> demand_pairs_from_json(const JsonValue& v);

}  // namespace tgroom
