#include "graph/fingerprint.hpp"

#include "util/rng.hpp"

namespace tgroom {

namespace {

constexpr std::uint64_t kFingerprintSeed = 0x7467726f6f6d2e32ULL;  // "tgroom.2"
constexpr std::size_t kLanes = 4;

/// One word per edge: u in bits 0-30, v in bits 31-61, the virtual flag in
/// bit 62 (node ids are non-negative 31-bit values).
inline std::uint64_t edge_word(const Edge& e) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u)) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.v)) << 31) |
         (static_cast<std::uint64_t>(e.is_virtual ? 1 : 0) << 62);
}

inline void absorb(std::uint64_t& h, std::uint64_t word) {
  std::uint64_t state = h ^ word;
  h = splitmix64(state);
}

/// Works for Graph and CsrGraph alike: both hold the same edge table.
/// Edge i feeds lane i mod 4, so the four splitmix64 chains run
/// independently; the counts and then the lanes, in lane order, fold into
/// one value.
template <typename G>
std::uint64_t fingerprint_impl(const G& g) {
  const std::span<const Edge> edges = g.edges();
  const std::size_t m = edges.size();
  std::uint64_t lane[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) lane[j] = kFingerprintSeed + j;
  std::size_t i = 0;
  for (; i + kLanes <= m; i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      absorb(lane[j], edge_word(edges[i + j]));
    }
  }
  for (; i < m; ++i) absorb(lane[i % kLanes], edge_word(edges[i]));

  std::uint64_t h = kFingerprintSeed;
  absorb(h, static_cast<std::uint64_t>(g.node_count()));
  absorb(h, static_cast<std::uint64_t>(g.edge_count()));
  absorb(h, static_cast<std::uint64_t>(g.real_edge_count()));
  for (std::uint64_t word : lane) absorb(h, word);
  // Top byte = format version, low 56 bits = hash material.
  return (h >> 8) |
         (static_cast<std::uint64_t>(kFingerprintFormatVersion) << 56);
}

}  // namespace

std::uint64_t graph_fingerprint(const Graph& g) { return fingerprint_impl(g); }

std::uint64_t graph_fingerprint(const CsrGraph& g) {
  return fingerprint_impl(g);
}

}  // namespace tgroom
