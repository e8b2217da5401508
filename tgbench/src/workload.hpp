// Seed-determined request generation shared by the load client and the
// traced replay, so both send the daemon exactly the same kinds of work.
//
// A request on the wire is `{"id":<id>,` followed by a body that carries
// every other member and the closing brace; bodies are rendered once per
// template (or per request, for relabelled cold graphs) and the id is
// spliced in front at send time.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algorithms/algorithm.hpp"
#include "graph/graph.hpp"
#include "grooming/demand.hpp"
#include "util/rng.hpp"

namespace tgbench {

enum class Workload { kGroomCold, kGroomHot, kRoutedHot, kHeldChurn };
bool parse_workload(std::string_view name, Workload& out);
bool is_hot(Workload w);

// The verification sets are drawn from this constant, not from --seed, so
// sadm_ratio repeats exactly on every run of one commit.
inline constexpr std::uint64_t kVerifySeed = 0x5eed0fcafeULL;

/// One groom request shape: the traffic graph with its edges in wire
/// order, the algorithm and the grooming factor.
struct GroomShape {
  tgroom::Graph graph;
  tgroom::AlgorithmId algorithm = tgroom::AlgorithmId::kSpanTEuler;
  int k = 16;
  long long expected_wavelengths() const;  // ceil(m / k), the paper's minimum
};

/// Renders the body of a groom request.  `relabel`, when given, maps
/// every node id on the wire (a distinct graph with the same work).
void render_groom_body(const GroomShape& shape, bool include_partition,
                       bool hold, const std::vector<int>* relabel,
                       std::string& out);

/// A uniformly random permutation of 0..n-1 into `perm`.
void random_permutation(std::size_t n, tgroom::Rng& rng, std::vector<int>& perm);

/// A seed-determined pool of `count` request shapes.  groom_cold's
/// family: n 64-192, density 0.1-0.5, k in {4,16,48}; 80% SpanT_Euler on
/// random and hub traffic, 20% Regular_Euler on odd-r regular graphs.
/// The hot family: SpanT_Euler on random graphs, n 16-32.
std::vector<GroomShape> shape_pool(Workload w, std::uint64_t seed,
                                   std::size_t count);
/// Hot pools fit the daemon's cache; groom_cold relabels its base graphs
/// per request.
inline std::size_t pool_size(Workload w) { return is_hot(w) ? 256 : 96; }
/// The fixed verification set of a groom workload, sent `verify_passes`
/// times (the second pass of a hot workload must be all cache hits).
std::vector<GroomShape> verify_shapes(Workload w);
inline int verify_passes(Workload w) { return is_hot(w) ? 2 : 1; }

// ---- held_churn ---------------------------------------------------------

enum class ChurnOp { kHold, kProvision, kRelease, kReleaseAll };

/// One generated held-plan op.  `plan` indexes the churn state's plans
/// (-1 for a hold of a new small plan).
struct ChurnRequest {
  ChurnOp op = ChurnOp::kProvision;
  int plan = -1;
  std::vector<tgroom::DemandPair> pairs;
  GroomShape shape;  // kHold only
};

/// The demand-pair state of every held plan, from the client's side.  A
/// pair is present (acked in the plan), absent, or busy (an op on it is
/// in flight).  Ops in flight touch disjoint pairs, so they are valid in
/// any execution order.
class ChurnState {
 public:
  struct Plan {
    std::int64_t plan_id = -1;  // the daemon's id, from the hold answer
    int ring_size = 0;
    bool small = false;  // dropped whole by kReleaseAll, never churned
    std::vector<std::uint32_t> present;
    std::unordered_map<std::uint32_t, std::size_t> where;  // pair -> index
    std::unordered_set<std::uint32_t> busy;
  };

  /// The setup plans: 8 plans log-spaced from 10^2 to 10^4 pairs
  /// plus a pool of small plans for release-all.
  static std::vector<GroomShape> setup_shapes(std::uint64_t seed,
                                              std::vector<bool>& small);

  void add_plan(const GroomShape& shape, std::int64_t plan_id, bool small);
  /// Next op, drawn uniformly over the churned plans; marks its pairs busy.
  ChurnRequest next(tgroom::Rng& rng, bool allow_hold_and_drop);
  /// The daemon acked `request` (true) or refused it (false).
  void ack(const ChurnRequest& request, bool ok);
  /// Renders a request body for the wire.
  void render(const ChurnRequest& request, std::string& out);
  /// Demand pairs currently present in plan `index`.
  std::vector<tgroom::DemandPair> pairs_of(int index);
  std::int64_t plan_id(int index);

 private:
  std::vector<Plan> plans_;
  std::vector<int> small_left_;  // small plans not yet dropped
  std::vector<int> schedule_;    // churned plans left in this round
};

inline std::uint32_t pack_pair(int a, int b) {
  return (static_cast<std::uint32_t>(a) << 16) | static_cast<std::uint32_t>(b);
}
inline tgroom::DemandPair unpack_pair(std::uint32_t p) {
  return {static_cast<tgroom::NodeId>(p >> 16),
          static_cast<tgroom::NodeId>(p & 0xffff)};
}

/// The verification plans of held_churn and their fixed op prefix.
std::vector<GroomShape> churn_verify_shapes();
inline constexpr int kChurnVerifyOps = 48;

// ---- response scanning ----------------------------------------------------

/// The integer after `"name":` in a flat response line; false if absent.
bool find_int(std::string_view line, std::string_view name, long long& out);
/// The bytes after the `{"id":N,` prefix (the part that repeats).
std::string_view strip_id(std::string_view line);
bool response_id(std::string_view line, std::int64_t& id);

}  // namespace tgbench
