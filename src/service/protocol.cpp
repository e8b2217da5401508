#include "service/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/properties.hpp"
#include "util/json.hpp"

namespace tgroom {

const char* service_op_name(ServiceOp op) {
  switch (op) {
    case ServiceOp::kGroom: return "groom";
    case ServiceOp::kProvision: return "provision";
    case ServiceOp::kRelease: return "release";
    case ServiceOp::kStats: return "stats";
    case ServiceOp::kShutdown: return "shutdown";
    case ServiceOp::kHealth: return "health";
    case ServiceOp::kPromote: return "promote";
    case ServiceOp::kReplHandshake: return "repl_handshake";
    case ServiceOp::kReplFetch: return "repl_fetch";
    case ServiceOp::kReplSnapshot: return "repl_snapshot";
  }
  return "?";
}

const char* service_error_name(ServiceError code) {
  switch (code) {
    case ServiceError::kBadRequest: return "bad_request";
    case ServiceError::kOverloaded: return "overloaded";
    case ServiceError::kShuttingDown: return "shutting_down";
    case ServiceError::kDeadlineExceeded: return "deadline_exceeded";
    case ServiceError::kStoreIncompatible: return "store_incompatible";
    case ServiceError::kReadOnly: return "read_only";
    case ServiceError::kShardDown: return "shard_down";
    case ServiceError::kInternal: return "internal";
  }
  return "?";
}

namespace {

bool bool_field(const JsonValue& doc, const char* name, bool fallback) {
  const JsonValue* v = doc.find(name);
  if (!v) return fallback;
  TGROOM_CHECK_MSG(v->is_bool(),
                   std::string("\"") + name + "\" must be a boolean");
  return v->boolean;
}

std::int64_t int_field(const JsonValue& doc, const char* name,
                       std::int64_t fallback) {
  const JsonValue* v = doc.find(name);
  if (!v) return fallback;
  TGROOM_CHECK_MSG(v->is_number(),
                   std::string("\"") + name + "\" must be an integer");
  return v->as_int();
}

void write_id(JsonWriter& w, std::int64_t id, bool has_id) {
  if (has_id) {
    w.kv("id", static_cast<long long>(id));
  } else {
    w.key("id").null();
  }
}

}  // namespace

void begin_ok_response(JsonWriter& w, std::int64_t id, bool has_id,
                       ServiceOp op) {
  w.begin_object();
  write_id(w, id, has_id);
  w.kv("ok", true);
  w.kv("op", service_op_name(op));
}

std::string make_error_response(std::int64_t id, bool has_id,
                                ServiceError code,
                                const std::string& message) {
  JsonWriter w;
  write_error_response(w, id, has_id, code, message);
  return w.take();
}

void write_error_response(JsonWriter& w, std::int64_t id, bool has_id,
                          ServiceError code, const std::string& message) {
  w.begin_object();
  write_id(w, id, has_id);
  w.kv("ok", false);
  w.kv("error", service_error_name(code));
  w.kv("message", message);
  w.end_object();
}

void write_graph_json(JsonWriter& w, const Graph& g) {
  w.begin_object();
  w.kv("n", static_cast<long long>(g.node_count()));
  w.key("edges").begin_array();
  for (const Edge& e : g.edges()) {
    if (e.is_virtual) continue;
    w.begin_array()
        .value(static_cast<long long>(e.u))
        .value(static_cast<long long>(e.v))
        .end_array();
  }
  w.end_array();
  w.end_object();
}

namespace {

// Largest graph.n a request may carry.
constexpr std::int64_t kMaxGraphNodes = 50'000'000;

}  // namespace

Graph graph_from_json(const JsonValue& v) {
  TGROOM_CHECK_MSG(v.is_object(), "\"graph\" must be an object");
  const JsonValue* n = v.find("n");
  TGROOM_CHECK_MSG(n != nullptr, "graph.n is required");
  std::int64_t nodes = n->as_int();
  TGROOM_CHECK_MSG(nodes >= 0 && nodes <= kMaxGraphNodes,
                   "graph.n out of range");
  const JsonValue* edges = v.find("edges");
  TGROOM_CHECK_MSG(edges != nullptr && edges->is_array(),
                   "graph.edges (array) is required");
  Graph g(static_cast<NodeId>(nodes));
  g.reserve_edges(static_cast<EdgeId>(edges->array.size()));
  for (const JsonValue& e : edges->array) {
    TGROOM_CHECK_MSG(e.is_array() && e.array.size() == 2,
                     "graph edge must be a [u,v] pair");
    std::int64_t u = e.array[0].as_int();
    std::int64_t w2 = e.array[1].as_int();
    TGROOM_CHECK_MSG(u >= 0 && u < nodes && w2 >= 0 && w2 < nodes,
                     "edge endpoint out of range");
    TGROOM_CHECK_MSG(u != w2, "self-loop edges are not allowed");
    TGROOM_CHECK_MSG(g.find_edge(static_cast<NodeId>(u),
                                 static_cast<NodeId>(w2)) == kInvalidEdge,
                     "duplicate edge in graph.edges");
    g.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(w2));
  }
  return g;
}

void write_plan_json(JsonWriter& w, const GroomingPlan& plan) {
  w.begin_object();
  w.kv("ring_size", static_cast<long long>(plan.ring_size));
  w.kv("k", static_cast<long long>(plan.grooming_factor));
  w.key("pairs").begin_array();
  for (const GroomedPair& gp : plan.pairs) {
    w.begin_array()
        .value(static_cast<long long>(gp.pair.a))
        .value(static_cast<long long>(gp.pair.b))
        .value(static_cast<long long>(gp.wavelength))
        .value(static_cast<long long>(gp.timeslot))
        .end_array();
  }
  w.end_array();
  w.end_object();
}

GroomingPlan plan_from_json(const JsonValue& v) {
  TGROOM_CHECK_MSG(v.is_object(), "\"plan\" must be an object");
  GroomingPlan plan;
  std::int64_t ring = int_field(v, "ring_size", -1);
  TGROOM_CHECK_MSG(ring >= 0, "plan.ring_size is required");
  std::int64_t k = int_field(v, "k", -1);
  TGROOM_CHECK_MSG(k >= 1, "plan.k must be >= 1");
  plan.ring_size = static_cast<NodeId>(ring);
  plan.grooming_factor = static_cast<int>(k);
  const JsonValue* pairs = v.find("pairs");
  TGROOM_CHECK_MSG(pairs != nullptr && pairs->is_array(),
                   "plan.pairs (array) is required");
  plan.pairs.reserve(pairs->array.size());
  for (const JsonValue& p : pairs->array) {
    TGROOM_CHECK_MSG(p.is_array() && p.array.size() == 4,
                     "plan pair must be [a,b,wavelength,timeslot]");
    std::int64_t a = p.array[0].as_int();
    std::int64_t b = p.array[1].as_int();
    std::int64_t wavelength = p.array[2].as_int();
    std::int64_t timeslot = p.array[3].as_int();
    TGROOM_CHECK_MSG(a >= 0 && b >= 0 && a < ring && b < ring && a != b,
                     "plan pair endpoints out of range");
    TGROOM_CHECK_MSG(wavelength >= 0, "plan wavelength must be >= 0");
    TGROOM_CHECK_MSG(timeslot >= 0 && timeslot < k,
                     "plan timeslot out of range");
    GroomedPair gp;
    gp.pair = DemandPair{static_cast<NodeId>(std::min(a, b)),
                         static_cast<NodeId>(std::max(a, b))};
    gp.wavelength = static_cast<int>(wavelength);
    gp.timeslot = static_cast<int>(timeslot);
    plan.pairs.push_back(gp);
  }
  return plan;
}

void write_partition_json(JsonWriter& w, const EdgePartition& partition) {
  write_partition_json(w, partition.parts);
}

void write_partition_json(JsonWriter& w, const FlatParts& parts) {
  w.begin_array();
  for (FlatParts::Part part : parts) {
    w.begin_array();
    for (EdgeId e : part) w.value(static_cast<long long>(e));
    w.end_array();
  }
  w.end_array();
}

void write_incremental_json(JsonWriter& w, const IncrementalResult& result,
                            bool include_plan) {
  w.kv("new_sadms", static_cast<long long>(result.new_sadms));
  w.kv("new_wavelengths", static_cast<long long>(result.new_wavelengths));
  w.kv("reused_sites", static_cast<long long>(result.reused_sites));
  w.kv("sadms", plan_sadm_count(result.plan));
  w.kv("wavelengths", static_cast<long long>(result.plan.wavelength_count()));
  if (include_plan) {
    w.key("plan");
    write_plan_json(w, result.plan);
  }
}

void write_release_json(JsonWriter& w, const ReleaseStats& stats,
                        const GroomingPlan& plan, bool include_plan) {
  w.kv("released", static_cast<long long>(stats.released));
  w.kv("repair_moves", static_cast<long long>(stats.repair_moves));
  w.kv("freed_wavelengths",
       static_cast<long long>(stats.freed_wavelengths));
  w.kv("sadms_removed", stats.sadms_removed);
  w.kv("remaining", static_cast<long long>(plan.pairs.size()));
  w.kv("sadms", plan_sadm_count(plan));
  w.kv("wavelengths", static_cast<long long>(plan.wavelength_count()));
  if (include_plan) {
    w.key("plan");
    write_plan_json(w, plan);
  }
}

std::vector<DemandPair> demand_pairs_from_json(const JsonValue& v) {
  TGROOM_CHECK_MSG(v.is_array(), "\"add\" must be an array of [a,b] pairs");
  std::vector<DemandPair> pairs;
  pairs.reserve(v.array.size());
  for (const JsonValue& p : v.array) {
    TGROOM_CHECK_MSG(p.is_array() && p.array.size() == 2,
                     "demand pair must be [a,b]");
    std::int64_t a = p.array[0].as_int();
    std::int64_t b = p.array[1].as_int();
    TGROOM_CHECK_MSG(a >= 0 && b >= 0, "demand endpoints must be >= 0");
    TGROOM_CHECK_MSG(a != b, "demand pair {x,x} is meaningless");
    pairs.push_back(DemandPair{static_cast<NodeId>(std::min(a, b)),
                               static_cast<NodeId>(std::max(a, b))});
  }
  return pairs;
}

namespace {

// ---- Fast request path -------------------------------------------------
//
// A strict in-place scanner for the request grammar that skips the
// JsonValue tree entirely (the tree costs hundreds of small allocations
// per request and dominates the cache-warm service profile).  The
// contract: fast_parse_request() returns true ONLY for a completely valid
// request, in which case its result is identical to the generic parser's.
// On ANY surprise — structural (escapes, floats, unknown keys, duplicate
// keys) or semantic (range violations, duplicate edges) — it returns
// false and the caller re-parses generically, which reproduces the
// canonical error messages.  The fast path never rejects a request, so
// error behaviour is byte-for-byte unchanged.
class FastScanner {
 public:
  // 2^53, the largest magnitude JsonValue::as_int accepts.
  static constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

  explicit FastScanner(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  bool eat(char c) {
    ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool peek(char c) {
    ws();
    return p_ < end_ && *p_ == c;
  }

  bool at_end() {
    ws();
    return p_ == end_;
  }

  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }

  bool string(std::string_view& out) {
    ws();
    if (p_ >= end_ || *p_ != '"') return false;
    const char* start = ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') return false;  // escapes → generic parser
      ++p_;
    }
    if (p_ >= end_) return false;
    out = std::string_view(start, static_cast<std::size_t>(p_ - start));
    ++p_;
    return true;
  }

  bool integer(std::int64_t& out) {
    ws();
    bool neg = false;
    if (p_ < end_ && *p_ == '-') {
      neg = true;
      ++p_;
    }
    const char* digits = p_;
    std::int64_t value = 0;
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') {
      // A 19th digit could overflow the accumulator and is past 2^53
      // anyway; leave such values to the generic parser.
      if (p_ - digits == 18) return false;
      value = value * 10 + (*p_ - '0');
      ++p_;
    }
    if (p_ == digits) return false;
    if (p_ < end_ && (*p_ == '.' || *p_ == 'e' || *p_ == 'E')) return false;
    // The generic parser rejects leading zeros and integers a double
    // cannot hold exactly; leave both to it.
    if (*digits == '0' && p_ - digits > 1) return false;
    if (value > kMaxExactInteger) return false;
    out = neg ? -value : value;
    return true;
  }

  /// Reads "[a,b]".
  bool pair(std::int64_t& a, std::int64_t& b) {
    return eat('[') && integer(a) && eat(',') && integer(b) && eat(']');
  }

  enum class BulkEnd { kClosed, kHandOver, kRejected };

  /// Bulk form of the pair() loop for the inside of a pair array, on the
  /// compact form "[a,b],[c,d],...]": 1-8 digits per number, no leading
  /// zero, no whitespace.  One SWAR pass marks every non-digit byte from
  /// here to the end of the line in a bitmap, so each number's end is one
  /// count-trailing-zeros away and only the separators are compared.
  /// Each pair goes to add(a, b), whose false ends the parse (kRejected).
  /// kClosed: the array's ']' was read.  kHandOver: the scanner stands at
  /// the first pair that is not compact (or at the array's first byte if
  /// no pair was read; `took` says which), for the pair() loop to finish.
  template <typename Add>
  BulkEnd compact_pairs(Add add, bool& took) {
    took = false;
    const auto len = static_cast<std::size_t>(end_ - p_);
    nondigit_bitmap(len);
    const std::uint64_t* bits = t_nondigit_bits.data();
    // First non-digit at or after i; bytes from len on all read as
    // non-digits, so every run ends by then.
    auto run_end = [bits](std::size_t i) {
      std::size_t w = i >> 6;
      std::uint64_t word = bits[w] >> (i & 63);
      if (word == 0) {
        while (bits[++w] == 0) {
        }
        i = w << 6;
        word = bits[w];
      }
      return i + static_cast<std::size_t>(std::countr_zero(word));
    };
    auto number = [this, len](std::size_t begin, std::size_t end,
                              std::int64_t& out) {
      const std::size_t digits = end - begin;
      if (digits - 1 >= 8 || ((digits > 1) & (p_[begin] == '0'))) {
        return false;
      }
      if (begin + 8 <= len) {
        out = eight_digits(p_ + begin, digits);
        return true;
      }
      std::int64_t value = 0;
      for (std::size_t i = begin; i < end; ++i) {
        value = value * 10 + (p_[i] - '0');
      }
      out = value;
      return true;
    };
    std::size_t i = 0;
    while (i < len && p_[i] == '[') {
      std::int64_t a = 0, b = 0;
      const std::size_t a_end = run_end(i + 1);
      if (!number(i + 1, a_end, a) || a_end >= len || p_[a_end] != ',') break;
      const std::size_t b_end = run_end(a_end + 1);
      if (!number(a_end + 1, b_end, b) || b_end + 1 >= len ||
          p_[b_end] != ']') {
        break;
      }
      const char next = p_[b_end + 1];
      if (next != ',' && next != ']') break;
      if (!add(a, b)) return BulkEnd::kRejected;
      took = true;
      i = b_end + 2;
      if (next == ']') {
        p_ += i;
        return BulkEnd::kClosed;
      }
    }
    p_ += i;
    return BulkEnd::kHandOver;
  }

  bool boolean(bool& out) {
    ws();
    if (match("true")) {
      out = true;
      return true;
    }
    if (match("false")) {
      out = false;
      return true;
    }
    return false;
  }

 private:
  void ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      ++p_;
    }
  }

  bool match(std::string_view word) {
    if (static_cast<std::size_t>(end_ - p_) < word.size()) return false;
    if (std::string_view(p_, word.size()) != word) return false;
    p_ += word.size();
    return true;
  }

  // Bits 8i..8i+7 of the result are byte i of p, on any host.
  static std::uint64_t load8(const char* p) {
    std::uint64_t x;
    std::memcpy(&x, p, sizeof x);
    if constexpr (std::endian::native == std::endian::big) {
      std::uint64_t swapped = 0;
      for (int b = 0; b < 8; ++b) {
        swapped = (swapped << 8) | ((x >> (8 * b)) & 0xFF);
      }
      x = swapped;
    }
    return x;
  }

  static constexpr std::uint64_t kOnes = 0x0101010101010101ULL;

  // Bit i set when byte i of x is not an ASCII digit.  x ^ '0' maps the
  // digits to 0..9 and every other byte to 10..255; adding 0x76 to the low
  // seven bits carries into bit 7 exactly from 10 up, without spilling
  // into the next byte.  The multiply gathers the eight bit-7 flags into
  // the top byte (each flag lands on its own bit; no two sums collide).
  static std::uint64_t nondigit_bits8(std::uint64_t x) {
    const std::uint64_t t = x ^ (kOnes * '0');
    const std::uint64_t flags =
        (((t & (kOnes * 0x7F)) + kOnes * 0x76) | t) & (kOnes * 0x80);
    return (flags * 0x0002040810204081ULL) >> 56;
  }

  // The value of the `digits` (1-8) ASCII digits at p, with the 8 bytes
  // at p readable: the digits are right-aligned in a zero-padded 8-digit
  // field (bytes past them shift out; digit bytes cannot borrow), then
  // folded pairwise in three multiply steps.
  static std::int64_t eight_digits(const char* p, std::size_t digits) {
    std::uint64_t v = (load8(p) - kOnes * '0') << (8 * (8 - digits));
    v = v * 10 + (v >> 8);
    v = (((v & 0x000000FF000000FFULL) * (100 + (1000000ULL << 32))) +
         (((v >> 16) & 0x000000FF000000FFULL) * (1 + (10000ULL << 32)))) >>
        32;
    return static_cast<std::int64_t>(v);
  }

  // t_nondigit_bits[i / 64] bit i % 64 is set when byte i of [p_, p_ +
  // len) is not a digit, and for every i >= len (one spare word too).
  void nondigit_bitmap(std::size_t len) {
    auto& bits = t_nondigit_bits;
    bits.assign(len / 64 + 2, 0);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      bits[i >> 6] |= nondigit_bits8(load8(p_ + i)) << (i & 63);
    }
    for (; i < len; ++i) {
      if (p_[i] < '0' || p_[i] > '9') {
        bits[i >> 6] |= std::uint64_t{1} << (i & 63);
      }
    }
    bits[len >> 6] |= ~std::uint64_t{0} << (len & 63);
    bits.back() = ~std::uint64_t{0};
  }

  // Reader-thread scratch, retained across requests.
  static thread_local std::vector<std::uint64_t> t_nondigit_bits;

  const char* p_;
  const char* end_;
};

thread_local std::vector<std::uint64_t> FastScanner::t_nondigit_bits;

// Parses the graph object straight into a CSR snapshot: each pair is
// checked once as it is decoded and written to the snapshot's edge table,
// which is then indexed by counting sort and checked for duplicate edges
// in one O(n + m) pass.  Endpoints are checked against n once all pairs
// are in, through their maximum, since "n" may follow "edges".
bool fast_parse_graph(FastScanner& s, CsrGraph& out) {
  if (!s.eat('{')) return false;
  std::int64_t n = -1;
  bool have_n = false;
  bool have_edges = false;
  std::vector<Edge> table;
  std::int64_t max_node = -1;
  auto add = [&table, &max_node](std::int64_t u, std::int64_t v) {
    if (u < 0 || v < 0 || u >= kMaxGraphNodes || v >= kMaxGraphNodes ||
        u == v) {
      return false;
    }
    max_node = std::max({max_node, u, v});
    table.push_back(Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
    return true;
  };
  if (!s.peek('}')) {
    do {
      std::string_view key;
      if (!s.string(key) || !s.eat(':')) return false;
      if (key == "n") {
        if (have_n || !s.integer(n)) return false;
        have_n = true;
      } else if (key == "edges") {
        if (have_edges || !s.eat('[')) return false;
        have_edges = true;
        // A pair takes at least six bytes ("[a,b],"), so this bounds the
        // table without a counting pass.
        table.reserve(s.remaining() / 6 + 1);
        bool took = false;
        const auto end = s.compact_pairs(add, took);
        if (end == FastScanner::BulkEnd::kRejected) return false;
        if (end == FastScanner::BulkEnd::kHandOver) {
          if (took || !s.peek(']')) {
            do {
              std::int64_t u = 0, v = 0;
              if (!s.pair(u, v) || !add(u, v)) return false;
            } while (s.eat(','));
          }
          if (!s.eat(']')) return false;
        }
      } else {
        return false;  // unknown graph key → generic parser decides
      }
    } while (s.eat(','));
  }
  if (!s.eat('}')) return false;
  if (!have_n || !have_edges) return false;
  if (n < 0 || n > kMaxGraphNodes || max_node >= n) return false;
  if (table.size() > static_cast<std::size_t>(kMaxEdgeCount)) return false;
  out.assign_checked(static_cast<NodeId>(n), std::move(table));
  // Duplicate edge → canonical error via the generic path.
  return is_simple(out);
}

bool fast_parse_plan(FastScanner& s, GroomingPlan& plan) {
  if (!s.eat('{')) return false;
  std::int64_t ring = -1;
  std::int64_t k = -1;
  bool have_ring = false, have_k = false, have_pairs = false;
  plan.pairs.clear();
  if (!s.peek('}')) {
    do {
      std::string_view key;
      if (!s.string(key) || !s.eat(':')) return false;
      if (key == "ring_size") {
        if (have_ring || !s.integer(ring)) return false;
        have_ring = true;
      } else if (key == "k") {
        if (have_k || !s.integer(k)) return false;
        have_k = true;
      } else if (key == "pairs") {
        if (have_pairs || !s.eat('[')) return false;
        have_pairs = true;
        if (!s.peek(']')) {
          do {
            std::int64_t a = 0, b = 0, wavelength = 0, timeslot = 0;
            if (!s.eat('[') || !s.integer(a) || !s.eat(',') ||
                !s.integer(b) || !s.eat(',') || !s.integer(wavelength) ||
                !s.eat(',') || !s.integer(timeslot) || !s.eat(']')) {
              return false;
            }
            GroomedPair gp;
            gp.pair = DemandPair{static_cast<NodeId>(std::min(a, b)),
                                 static_cast<NodeId>(std::max(a, b))};
            gp.wavelength = static_cast<int>(wavelength);
            gp.timeslot = static_cast<int>(timeslot);
            plan.pairs.push_back(gp);
          } while (s.eat(','));
        }
        if (!s.eat(']')) return false;
      } else {
        return false;
      }
    } while (s.eat(','));
  }
  if (!s.eat('}')) return false;
  if (!have_ring || !have_pairs || ring < 0 || k < 1) return false;
  for (const GroomedPair& gp : plan.pairs) {
    if (gp.pair.a < 0 || gp.pair.b >= static_cast<NodeId>(ring) ||
        gp.pair.a == gp.pair.b || gp.wavelength < 0 || gp.timeslot < 0 ||
        gp.timeslot >= k) {
      return false;
    }
  }
  plan.ring_size = static_cast<NodeId>(ring);
  plan.grooming_factor = static_cast<int>(k);
  return true;
}

bool fast_parse_request(std::string_view line, RequestParse& out) {
  FastScanner s(line);
  if (!s.eat('{')) return false;

  ServiceRequest request;
  std::string_view op;
  std::int64_t k = 16, seed = 1;
  bool have_op = false, have_id = false, have_graph = false;
  bool have_algorithm = false, have_k = false, have_seed = false;
  bool have_refine = false, have_smart = false, have_hold = false;
  bool have_include_partition = false, have_deadline = false;
  bool have_plan = false, have_plan_id = false, have_add = false;
  bool have_include_plan = false;
  bool have_remove = false, have_all = false, have_repair = false;
  bool have_route_key = false;

  if (!s.peek('}')) {
    do {
      std::string_view key;
      if (!s.string(key) || !s.eat(':')) return false;
      if (key == "op") {
        if (have_op || !s.string(op)) return false;
        have_op = true;
      } else if (key == "id") {
        if (have_id || !s.integer(request.id)) return false;
        have_id = true;
      } else if (key == "graph") {
        if (have_graph || !fast_parse_graph(s, request.graph)) return false;
        have_graph = true;
      } else if (key == "algorithm") {
        std::string_view name;
        if (have_algorithm || !s.string(name)) return false;
        auto algorithm = parse_algorithm_name(name);
        if (!algorithm.has_value()) return false;
        request.algorithm = *algorithm;
        have_algorithm = true;
      } else if (key == "k") {
        if (have_k || !s.integer(k)) return false;
        have_k = true;
      } else if (key == "seed") {
        if (have_seed || !s.integer(seed)) return false;
        have_seed = true;
      } else if (key == "refine") {
        if (have_refine || !s.boolean(request.refine)) return false;
        have_refine = true;
      } else if (key == "smart_branches") {
        if (have_smart || !s.boolean(request.smart_branches)) return false;
        have_smart = true;
      } else if (key == "hold") {
        if (have_hold || !s.boolean(request.hold)) return false;
        have_hold = true;
      } else if (key == "include_partition") {
        if (have_include_partition ||
            !s.boolean(request.include_partition)) {
          return false;
        }
        have_include_partition = true;
      } else if (key == "deadline_ms") {
        if (have_deadline || !s.integer(request.deadline_ms)) return false;
        have_deadline = true;
      } else if (key == "plan") {
        request.plan.emplace();
        if (have_plan || !fast_parse_plan(s, *request.plan)) return false;
        have_plan = true;
      } else if (key == "plan_id") {
        if (have_plan_id || !s.integer(request.plan_id)) return false;
        have_plan_id = true;
      } else if (key == "add") {
        if (have_add || !s.eat('[')) return false;
        have_add = true;
        if (!s.peek(']')) {
          do {
            std::int64_t a = 0, b = 0;
            if (!s.pair(a, b)) return false;
            if (a < 0 || b < 0 || a == b) return false;
            request.add.push_back(
                DemandPair{static_cast<NodeId>(std::min(a, b)),
                           static_cast<NodeId>(std::max(a, b))});
          } while (s.eat(','));
        }
        if (!s.eat(']')) return false;
      } else if (key == "include_plan") {
        if (have_include_plan || !s.boolean(request.include_plan)) {
          return false;
        }
        have_include_plan = true;
      } else if (key == "remove") {
        if (have_remove || !s.eat('[')) return false;
        have_remove = true;
        if (!s.peek(']')) {
          do {
            std::int64_t a = 0, b = 0;
            if (!s.pair(a, b)) return false;
            if (a < 0 || b < 0 || a == b) return false;
            request.remove.push_back(
                DemandPair{static_cast<NodeId>(std::min(a, b)),
                           static_cast<NodeId>(std::max(a, b))});
          } while (s.eat(','));
        }
        if (!s.eat(']')) return false;
      } else if (key == "all") {
        if (have_all || !s.boolean(request.release_all)) return false;
        have_all = true;
      } else if (key == "repair") {
        if (have_repair || !s.boolean(request.repair)) return false;
        have_repair = true;
      } else if (key == "route_key") {
        if (have_route_key || !s.integer(request.route_key)) return false;
        request.has_route_key = true;
        have_route_key = true;
      } else {
        return false;  // unknown key → let the generic parser decide
      }
    } while (s.eat(','));
  }
  if (!s.eat('}') || !s.at_end()) return false;

  if (!have_op) return false;
  if (request.deadline_ms < 0) return false;
  if (op == "groom") {
    request.op = ServiceOp::kGroom;
    if (!have_graph) return false;
    if (have_plan || have_plan_id || have_add || have_include_plan ||
        have_remove || have_all || have_repair) {
      return false;
    }
    if (k < 1 || k > 1'000'000) return false;
    request.k = static_cast<int>(k);
    request.seed = static_cast<std::uint64_t>(seed);
  } else if (op == "provision") {
    request.op = ServiceOp::kProvision;
    if (have_plan == have_plan_id) return false;
    if (have_plan_id && request.plan_id < 0) return false;
    if (!have_add || request.add.empty()) return false;
    if (have_graph || have_algorithm || have_k || have_seed ||
        have_remove || have_all || have_repair) {
      return false;
    }
  } else if (op == "release") {
    request.op = ServiceOp::kRelease;
    if (have_plan == have_plan_id) return false;
    if (have_plan_id && request.plan_id < 0) return false;
    // Exactly one of a non-empty "remove" list or "all":true ("all":false
    // reads as absent, matching the generic parser).
    const bool removing = have_remove && !request.remove.empty();
    const bool dropping = have_all && request.release_all;
    if (removing == dropping) return false;
    if (have_remove && request.remove.empty()) return false;
    if (dropping && have_plan) return false;  // "all" needs a held plan
    if (have_graph || have_algorithm || have_k || have_seed || have_add) {
      return false;
    }
  } else if (op == "stats" || op == "shutdown" || op == "health" ||
             op == "promote") {
    request.op = op == "stats"      ? ServiceOp::kStats
                 : op == "shutdown" ? ServiceOp::kShutdown
                 : op == "health"   ? ServiceOp::kHealth
                                    : ServiceOp::kPromote;
    if (have_graph || have_plan || have_add || have_remove) return false;
  } else {
    return false;
  }

  out.id = request.id;
  out.has_id = have_id;
  request.has_id = have_id;
  out.request = std::move(request);
  return true;
}

}  // namespace

RequestParse parse_request(std::string_view line) {
  {
    RequestParse fast;
    if (fast_parse_request(line, fast)) return fast;
  }
  return parse_request_generic(line);
}

RequestParse parse_request_generic(std::string_view line) {
  RequestParse out;
  JsonValue doc;
  try {
    doc = parse_json(line);
  } catch (const CheckError& e) {
    out.error = e.message();
    return out;
  }
  if (!doc.is_object()) {
    out.error = "request must be a JSON object";
    return out;
  }
  try {
    if (const JsonValue* id = doc.find("id")) {
      out.id = id->as_int();
      out.has_id = true;
    }
  } catch (const CheckError&) {
    out.error = "\"id\" must be an integer";
    return out;
  }

  ServiceRequest request;
  request.id = out.id;
  request.has_id = out.has_id;
  try {
    const JsonValue* op = doc.find("op");
    TGROOM_CHECK_MSG(op != nullptr && op->is_string(),
                     "\"op\" (string) is required");
    if (op->string == "groom") request.op = ServiceOp::kGroom;
    else if (op->string == "provision") request.op = ServiceOp::kProvision;
    else if (op->string == "release") request.op = ServiceOp::kRelease;
    else if (op->string == "stats") request.op = ServiceOp::kStats;
    else if (op->string == "shutdown") request.op = ServiceOp::kShutdown;
    else if (op->string == "health") request.op = ServiceOp::kHealth;
    else if (op->string == "promote") request.op = ServiceOp::kPromote;
    else if (op->string == "repl_handshake")
      request.op = ServiceOp::kReplHandshake;
    else if (op->string == "repl_fetch") request.op = ServiceOp::kReplFetch;
    else if (op->string == "repl_snapshot")
      request.op = ServiceOp::kReplSnapshot;
    else TGROOM_CHECK_MSG(false, "unknown op '" + op->string + "'");

    request.deadline_ms = int_field(doc, "deadline_ms", 0);
    TGROOM_CHECK_MSG(request.deadline_ms >= 0,
                     "\"deadline_ms\" must be >= 0");
    if (doc.find("route_key") != nullptr) {
      request.route_key = int_field(doc, "route_key", 0);
      request.has_route_key = true;
    }

    if (request.op == ServiceOp::kGroom) {
      const JsonValue* graph = doc.find("graph");
      TGROOM_CHECK_MSG(graph != nullptr, "\"graph\" is required for groom");
      request.graph.rebuild(graph_from_json(*graph));
      if (const JsonValue* algorithm = doc.find("algorithm")) {
        TGROOM_CHECK_MSG(algorithm->is_string(),
                         "\"algorithm\" must be a string");
        auto id = parse_algorithm_name(algorithm->string);
        TGROOM_CHECK_MSG(id.has_value(),
                         "unknown algorithm '" + algorithm->string + "'");
        request.algorithm = *id;
      }
      std::int64_t k = int_field(doc, "k", 16);
      TGROOM_CHECK_MSG(k >= 1 && k <= 1'000'000, "\"k\" must be in [1, 1e6]");
      request.k = static_cast<int>(k);
      request.seed = static_cast<std::uint64_t>(int_field(doc, "seed", 1));
      request.refine = bool_field(doc, "refine", false);
      request.smart_branches = bool_field(doc, "smart_branches", false);
      request.hold = bool_field(doc, "hold", false);
      request.include_partition = bool_field(doc, "include_partition", false);
    } else if (request.op == ServiceOp::kProvision) {
      const JsonValue* plan = doc.find("plan");
      const JsonValue* plan_id = doc.find("plan_id");
      TGROOM_CHECK_MSG((plan != nullptr) != (plan_id != nullptr),
                       "provision needs exactly one of \"plan\"/\"plan_id\"");
      if (plan != nullptr) {
        request.plan = plan_from_json(*plan);
      } else {
        request.plan_id = plan_id->as_int();
        TGROOM_CHECK_MSG(request.plan_id >= 0, "\"plan_id\" must be >= 0");
      }
      const JsonValue* add = doc.find("add");
      TGROOM_CHECK_MSG(add != nullptr, "\"add\" is required for provision");
      request.add = demand_pairs_from_json(*add);
      TGROOM_CHECK_MSG(!request.add.empty(), "\"add\" lists no pairs");
      request.include_plan = bool_field(doc, "include_plan", false);
    } else if (request.op == ServiceOp::kRelease) {
      const JsonValue* plan = doc.find("plan");
      const JsonValue* plan_id = doc.find("plan_id");
      TGROOM_CHECK_MSG((plan != nullptr) != (plan_id != nullptr),
                       "release needs exactly one of \"plan\"/\"plan_id\"");
      if (plan != nullptr) {
        request.plan = plan_from_json(*plan);
      } else {
        request.plan_id = plan_id->as_int();
        TGROOM_CHECK_MSG(request.plan_id >= 0, "\"plan_id\" must be >= 0");
      }
      request.release_all = bool_field(doc, "all", false);
      const JsonValue* remove = doc.find("remove");
      if (request.release_all) {
        TGROOM_CHECK_MSG(remove == nullptr,
                         "release takes \"remove\" or \"all\", not both");
        TGROOM_CHECK_MSG(plan == nullptr,
                         "\"all\" releases a held plan; use \"plan_id\"");
      } else {
        TGROOM_CHECK_MSG(remove != nullptr,
                         "release needs \"remove\" pairs or \"all\":true");
        TGROOM_CHECK_MSG(remove->is_array(),
                         "\"remove\" must be an array of [a,b] pairs");
        request.remove = demand_pairs_from_json(*remove);
        TGROOM_CHECK_MSG(!request.remove.empty(),
                         "\"remove\" lists no pairs");
      }
      request.repair = bool_field(doc, "repair", true);
      request.include_plan = bool_field(doc, "include_plan", false);
    } else if (request.op == ServiceOp::kReplHandshake) {
      request.repl_store_version = int_field(doc, "store_version", -1);
      TGROOM_CHECK_MSG(request.repl_store_version >= 0,
                       "\"store_version\" is required for repl_handshake");
      request.repl_fingerprint_version =
          int_field(doc, "fingerprint_version", -1);
      TGROOM_CHECK_MSG(
          request.repl_fingerprint_version >= 0,
          "\"fingerprint_version\" is required for repl_handshake");
      const std::int64_t start = int_field(doc, "start_seq", 0);
      TGROOM_CHECK_MSG(start >= 0, "\"start_seq\" must be >= 0");
      request.repl_start_seq = static_cast<std::uint64_t>(start);
      const std::int64_t crc = int_field(doc, "last_crc", -1);
      if (crc >= 0) {
        TGROOM_CHECK_MSG(crc <= 0xffffffffll,
                         "\"last_crc\" must fit in 32 bits");
        request.repl_has_last_crc = true;
        request.repl_last_crc = static_cast<std::uint32_t>(crc);
      }
    } else if (request.op == ServiceOp::kReplFetch) {
      const std::int64_t from = int_field(doc, "from_seq", -1);
      TGROOM_CHECK_MSG(from >= 0,
                       "\"from_seq\" (>= 0) is required for repl_fetch");
      request.repl_from_seq = static_cast<std::uint64_t>(from);
      request.repl_max_records = int_field(doc, "max_records", 0);
      TGROOM_CHECK_MSG(request.repl_max_records >= 0,
                       "\"max_records\" must be >= 0");
      const std::int64_t ack = int_field(doc, "ack_seq", 0);
      TGROOM_CHECK_MSG(ack >= 0, "\"ack_seq\" must be >= 0");
      request.repl_ack_seq = static_cast<std::uint64_t>(ack);
      if (const JsonValue* follower = doc.find("follower")) {
        TGROOM_CHECK_MSG(follower->is_string(),
                         "\"follower\" must be a string");
        request.repl_follower = follower->string;
      }
    }
  } catch (const CheckError& e) {
    out.error = e.message();
    return out;
  }
  out.request = std::move(request);
  return out;
}

}  // namespace tgroom
