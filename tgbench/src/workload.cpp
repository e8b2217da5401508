#include "workload.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "gen/random_graph.hpp"
#include "gen/regular_graph.hpp"
#include "gen/traffic_patterns.hpp"

namespace tgbench {

using tgroom::AlgorithmId;
using tgroom::Graph;
using tgroom::NodeId;
using tgroom::Rng;

bool parse_workload(std::string_view name, Workload& out) {
  if (name == "groom_cold") out = Workload::kGroomCold;
  else if (name == "groom_hot") out = Workload::kGroomHot;
  else if (name == "routed_hot") out = Workload::kRoutedHot;
  else if (name == "held_churn") out = Workload::kHeldChurn;
  else return false;
  return true;
}

bool is_hot(Workload w) {
  return w == Workload::kGroomHot || w == Workload::kRoutedHot;
}

long long GroomShape::expected_wavelengths() const {
  const long long m = graph.real_edge_count();
  return (m + k - 1) / k;
}

namespace {

void append_int(std::string& out, long long v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_pair(std::string& out, int a, int b) {
  out += '[';
  append_int(out, a);
  out += ',';
  append_int(out, b);
  out += ']';
}

// A simple graph on n nodes with round(density * n(n-1)/2) edges.
Graph dense_graph(NodeId n, double density, Rng& rng) {
  const long long pairs = static_cast<long long>(n) * (n - 1) / 2;
  const long long m =
      std::max(1LL, std::llround(density * static_cast<double>(pairs)));
  return tgroom::random_gnm(n, m, rng);
}

const int kFactors[] = {4, 16, 48};

}  // namespace

void render_groom_body(const GroomShape& shape, bool include_partition,
                       bool hold, const std::vector<int>* relabel,
                       std::string& out) {
  out += "\"op\":\"groom\",\"algorithm\":\"";
  out += tgroom::algorithm_name(shape.algorithm);
  out += "\",\"k\":";
  append_int(out, shape.k);
  if (include_partition) out += ",\"include_partition\":true";
  if (hold) out += ",\"hold\":true";
  out += ",\"graph\":{\"n\":";
  append_int(out, shape.graph.node_count());
  out += ",\"edges\":[";
  bool first = true;
  for (const tgroom::Edge& e : shape.graph.edges()) {
    if (!first) out += ',';
    first = false;
    if (relabel != nullptr) {
      append_pair(out, (*relabel)[static_cast<std::size_t>(e.u)],
                  (*relabel)[static_cast<std::size_t>(e.v)]);
    } else {
      append_pair(out, e.u, e.v);
    }
  }
  out += "]}}";
}

void random_permutation(std::size_t n, Rng& rng, std::vector<int>& perm) {
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<int>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
}

GroomShape cold_shape(Rng& rng, double un, double ud, int kind, int k) {
  GroomShape shape;
  NodeId n = 64 + static_cast<NodeId>(un * 129);
  const double density = 0.1 + 0.4 * ud;
  shape.k = k;
  if (kind == 0) {
    // Regular_Euler: an odd degree needs an even node count.
    n &= ~1;
    NodeId r = static_cast<NodeId>(std::lround(density * (n - 1))) | 1;
    r = std::min<NodeId>(r, n - 1);
    shape.algorithm = AlgorithmId::kRegularEuler;
    shape.graph = tgroom::random_regular(n, r, rng);
  } else if (kind <= 2) {
    shape.graph = dense_graph(n, density, rng);
  } else {
    // Hub traffic has density ~2h/n for h hubs.
    const NodeId hubs = std::max<NodeId>(
        1, static_cast<NodeId>(std::lround(density * n / 2)));
    // hub_traffic always picks the same hubs; a random relabelling keeps
    // two shapes with equal (n, hubs) distinct graphs.
    const Graph hub = tgroom::hub_traffic(n, hubs).traffic_graph();
    std::vector<NodeId> perm;
    random_permutation(static_cast<std::size_t>(n), rng, perm);
    shape.graph = Graph(n);
    shape.graph.reserve_edges(hub.edge_count());
    for (const tgroom::Edge& e : hub.edges()) {
      shape.graph.add_edge(perm[static_cast<std::size_t>(e.u)],
                           perm[static_cast<std::size_t>(e.v)]);
    }
  }
  return shape;
}

GroomShape hot_shape(Rng& rng, double un, double ud, int k) {
  GroomShape shape;
  const NodeId n = 16 + static_cast<NodeId>(un * 17);
  shape.k = k;
  shape.graph = dense_graph(n, 0.2 + 0.3 * ud, rng);
  return shape;
}

std::vector<GroomShape> shape_pool(Workload w, std::uint64_t seed,
                                   std::size_t count) {
  Rng rng(seed);
  // Stratified parameters: shape i gets stratum i of n and, through a
  // fixed pairing, stratum 59 i mod count of density (59 is prime, so
  // the pairing is a permutation for any count it does not divide); k
  // and the traffic kind cycle.  Every seed's pool then holds the same
  // (n, density, k, kind) strata, and only the place inside each stratum
  // and the graphs themselves differ, so the cost per request hardly
  // moves from seed to seed.
  auto stratum = [&](std::size_t s) {
    return (static_cast<double>(s) + rng.uniform01()) /
           static_cast<double>(count);
  };
  std::vector<double> un(count), ud(count);
  for (std::size_t i = 0; i < count; ++i) {
    un[i] = stratum(i);
    ud[i] = stratum(i * 59 % count);
  }
  std::vector<GroomShape> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int k = kFactors[i % 3];
    // Kinds 0 (Regular_Euler), 1-2 (random), 3-4 (hub): 20/40/40%.
    pool.push_back(is_hot(w) ? hot_shape(rng, un[i], ud[i], k)
                             : cold_shape(rng, un[i], ud[i],
                                          static_cast<int>(i % 5), k));
  }
  return pool;
}

std::vector<GroomShape> verify_shapes(Workload w) {
  return shape_pool(w, kVerifySeed, 64);
}

// ---- held_churn ---------------------------------------------------------

namespace {

GroomShape plan_shape(long long pairs, Rng& rng) {
  // Density 0.25: n(n-1)/2 * 0.25 = pairs.
  GroomShape shape;
  const NodeId n = static_cast<NodeId>(
      std::ceil(std::sqrt(8.0 * static_cast<double>(pairs))) + 1);
  shape.graph = tgroom::random_gnm(n, pairs, rng);
  return shape;
}

GroomShape small_plan_shape(Rng& rng) {
  GroomShape shape;
  const NodeId n = static_cast<NodeId>(rng.uniform_int(12, 20));
  shape.graph = dense_graph(n, 0.3, rng);
  return shape;
}

}  // namespace

std::vector<GroomShape> ChurnState::setup_shapes(std::uint64_t seed,
                                                 std::vector<bool>& small) {
  Rng rng(seed);
  std::vector<GroomShape> shapes;
  small.clear();
  // 8 plans log-spaced from 100 to 10000 demand pairs.
  for (int i = 0; i < 8; ++i) {
    const double pairs = 100.0 * std::pow(100.0, i / 7.0);
    shapes.push_back(plan_shape(std::llround(pairs), rng));
    small.push_back(false);
  }
  for (int i = 0; i < 96; ++i) {
    shapes.push_back(small_plan_shape(rng));
    small.push_back(true);
  }
  return shapes;
}

std::vector<GroomShape> churn_verify_shapes() {
  Rng rng(kVerifySeed);
  std::vector<GroomShape> shapes;
  for (long long pairs : {150, 400, 900, 2000}) {
    shapes.push_back(plan_shape(pairs, rng));
  }
  return shapes;
}

void ChurnState::add_plan(const GroomShape& shape, std::int64_t plan_id,
                          bool small) {
  Plan plan;
  plan.plan_id = plan_id;
  plan.ring_size = shape.graph.node_count();
  plan.small = small;
  for (const tgroom::Edge& e : shape.graph.edges()) {
    const std::uint32_t p =
        pack_pair(std::min(e.u, e.v), std::max(e.u, e.v));
    plan.where.emplace(p, plan.present.size());
    plan.present.push_back(p);
  }
  if (small) small_left_.push_back(static_cast<int>(plans_.size()));
  plans_.push_back(std::move(plan));
}

ChurnRequest ChurnState::next(Rng& rng, bool allow_hold_and_drop) {
  ChurnRequest req;
  const double u = rng.uniform01();
  if (allow_hold_and_drop && u < 0.04) {
    req.op = ChurnOp::kHold;
    req.shape = small_plan_shape(rng);
    return req;
  }
  if (allow_hold_and_drop && u < 0.08 && !small_left_.empty()) {
    req.op = ChurnOp::kReleaseAll;
    req.plan = small_left_.back();
    small_left_.pop_back();
    return req;
  }
  // Uniform over the churned (non-small) plans, in shuffled rounds that
  // visit each plan once, so every run spends the same share on each.
  if (schedule_.empty()) {
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (!plans_[i].small) schedule_.push_back(static_cast<int>(i));
    }
    for (std::size_t i = schedule_.size(); i > 1; --i) {
      std::swap(schedule_[i - 1], schedule_[rng.below(i)]);
    }
  }
  req.plan = schedule_.back();
  schedule_.pop_back();
  Plan& plan = plans_[static_cast<std::size_t>(req.plan)];
  const int count = 1 + static_cast<int>(rng.below(4));
  const bool release = rng.uniform01() < 0.5 &&
                       plan.present.size() >= static_cast<std::size_t>(count + 8);
  if (release) {
    req.op = ChurnOp::kRelease;
    for (int c = 0; c < count; ++c) {
      const std::size_t j = rng.below(plan.present.size());
      const std::uint32_t p = plan.present[j];
      const std::uint32_t last = plan.present.back();
      plan.present[j] = last;
      plan.where[last] = j;
      plan.present.pop_back();
      plan.where.erase(p);
      plan.busy.insert(p);
      req.pairs.push_back(unpack_pair(p));
    }
  } else {
    req.op = ChurnOp::kProvision;
    const auto n = static_cast<std::uint64_t>(plan.ring_size);
    while (static_cast<int>(req.pairs.size()) < count) {
      int a = static_cast<int>(rng.below(n));
      int b = static_cast<int>(rng.below(n));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      const std::uint32_t p = pack_pair(a, b);
      if (plan.where.count(p) != 0 || !plan.busy.insert(p).second) continue;
      req.pairs.push_back({a, b});
    }
  }
  return req;
}

void ChurnState::ack(const ChurnRequest& request, bool ok) {
  if (request.op == ChurnOp::kHold || request.op == ChurnOp::kReleaseAll) {
    return;  // neither changes a churned plan
  }
  Plan& plan = plans_[static_cast<std::size_t>(request.plan)];
  const bool now_present = (request.op == ChurnOp::kProvision) == ok;
  for (const tgroom::DemandPair& d : request.pairs) {
    const std::uint32_t p = pack_pair(d.a, d.b);
    plan.busy.erase(p);
    if (now_present) {
      plan.where.emplace(p, plan.present.size());
      plan.present.push_back(p);
    }
  }
}

void ChurnState::render(const ChurnRequest& request, std::string& out) {
  if (request.op == ChurnOp::kHold) {
    render_groom_body(request.shape, false, true, nullptr, out);
    return;
  }
  const std::int64_t id = plan_id(request.plan);
  out += request.op == ChurnOp::kProvision ? "\"op\":\"provision\""
                                           : "\"op\":\"release\"";
  out += ",\"plan_id\":";
  append_int(out, id);
  if (request.op == ChurnOp::kReleaseAll) {
    out += ",\"all\":true}";
    return;
  }
  out += request.op == ChurnOp::kProvision ? ",\"add\":[" : ",\"remove\":[";
  for (std::size_t i = 0; i < request.pairs.size(); ++i) {
    if (i != 0) out += ',';
    append_pair(out, request.pairs[i].a, request.pairs[i].b);
  }
  out += request.op == ChurnOp::kRelease ? "],\"repair\":true}" : "]}";
}

std::vector<tgroom::DemandPair> ChurnState::pairs_of(int index) {
  std::vector<tgroom::DemandPair> out;
  for (std::uint32_t p : plans_[static_cast<std::size_t>(index)].present) {
    out.push_back(unpack_pair(p));
  }
  return out;
}

std::int64_t ChurnState::plan_id(int index) {
  return plans_[static_cast<std::size_t>(index)].plan_id;
}

// ---- response scanning ----------------------------------------------------

bool find_int(std::string_view line, std::string_view name, long long& out) {
  std::string key;
  key.reserve(name.size() + 3);
  key += '"';
  key += name;
  key += "\":";
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* begin = line.data() + at + key.size();
  const auto res = std::from_chars(begin, line.data() + line.size(), out);
  return res.ec == std::errc();
}

std::string_view strip_id(std::string_view line) {
  const std::size_t comma = line.find(',');
  return comma == std::string_view::npos ? line : line.substr(comma + 1);
}

bool response_id(std::string_view line, std::int64_t& id) {
  constexpr std::string_view kHead = "{\"id\":";
  if (line.substr(0, kHead.size()) != kHead) return false;
  const char* begin = line.data() + kHead.size();
  const auto res = std::from_chars(begin, line.data() + line.size(), id);
  return res.ec == std::errc();
}

}  // namespace tgbench
