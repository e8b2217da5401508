// 64-bit identity fingerprint of a labeled graph.
//
// The service's plan cache needs a cheap, stable key for "the same request
// graph again".  A graph is determined by its node count and its edge
// table (the CSR offsets and incidences are a function of those two), so
// the fingerprint absorbs the node, edge and real-edge counts plus one
// word per edge, `u | v << 31 | virtual << 62`.  Edge i feeds splitmix64
// lane i mod 4; the four independent chains let the CPU overlap their
// multiplies, and the counts and then the lanes, in lane order, fold into
// the result.  Both overloads read the same edge table, so fingerprinting
// a Graph and its CsrGraph snapshot yields the same value.
//
// This is a *labeled* identity: relabelling the nodes of an isomorphic
// graph changes the fingerprint (with overwhelming probability), which is
// the desired cache semantics — a request names nodes, not an isomorphism
// class.  Collisions between distinct graphs are possible in principle
// (pigeonhole over the 56 hash bits) but every word is mixed, so
// accidental collisions are a ~2^-56 event per pair.
//
// The top byte of the returned value is NOT hash material: it carries the
// fingerprint *format version*.  Fingerprints are persisted (the durable
// store's WAL and snapshots key cache-prewarm entries by them), and any
// change to the absorbed word sequence would silently re-key everything a
// store holds — so the absorption scheme is versioned, the version rides
// in the value itself, and store files written under a different version
// are rejected with a structured `store_incompatible` error instead of
// being replayed into garbage.  Bump kFingerprintFormatVersion whenever
// the absorbed sequence changes.
#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace tgroom {

/// Version of the fingerprint absorption scheme, carried in the top byte
/// of every fingerprint.  Version 1 also absorbed the CSR offsets and
/// incidences (3 + n + 4m words through one serial chain); stores and
/// replication peers written under it are refused as incompatible.
inline constexpr std::uint8_t kFingerprintFormatVersion = 2;

/// The format-version byte embedded in a fingerprint value.
inline constexpr std::uint8_t fingerprint_version(std::uint64_t fingerprint) {
  return static_cast<std::uint8_t>(fingerprint >> 56);
}

std::uint64_t graph_fingerprint(const Graph& g);
std::uint64_t graph_fingerprint(const CsrGraph& g);

}  // namespace tgroom
