// Reusable per-run scratch for the grooming hot path.
//
// A single run_algorithm call needs ~10 scratch arrays sized by the input
// graph (edge masks, node flags, backbone sites).  Allocating them fresh
// per call dominates the runtime of the O(m) algorithms once the graph fits
// in cache.  A GroomingWorkspace owns those buffers plus a CsrGraph
// scratch snapshot; prepare_for() resizes-and-clears them, so repeat runs
// on same-sized (or smaller) instances perform no allocation at all.
//
// The workspace also owns a MonotonicArena for the *irregular* per-run
// structures (Euler walks, skeleton covers, branch lists) whose nested
// shapes vary run to run and so cannot amortize through plain capacity
// retention.  prepare_for() rewinds the arena; its blocks are retained, so a
// warm workspace serves an entire groom without any heap allocation
// (DESIGN.md §11 — the invariant tests/arena_test.cpp pins with the
// allocation tracker).  Arena-backed containers never outlive the run
// that built them: everything allocated from the arena is dead before the
// next prepare_for()/reset() rewind.
//
// Thread-safety: a workspace belongs to one thread at a time.  The batch
// engine (grooming/batch.hpp) keeps one per worker chunk, the service one
// per worker thread.
//
// Determinism: using a workspace never changes an algorithm's output —
// every buffer is fully (re)initialized by prepare_for(); csr_test.cpp
// pins partition-for-partition equality against the workspace-free path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/rooted_tree.hpp"
#include "graph/csr_graph.hpp"
#include "util/arena.hpp"

namespace tgroom {

struct GroomingWorkspace {
  /// First backbone occurrence of a node: (skeleton index, walk position).
  struct Site {
    std::size_t skeleton = 0;
    std::size_t position = 0;
  };

  // Scratch snapshot: one component (spant_euler_parallel's chunks), or
  // Brauner's and Regular_Euler's input with their virtual edges appended
  // (rebuild_with).  The input graph itself is walked in place and never
  // copied here.
  CsrGraph csr;

  // Edge-indexed scratch.  cotree (the G\T mask) is filled only for a
  // SpanTEulerTrace; the run itself reads G\T off in_tree.
  std::vector<char> in_tree;
  std::vector<char> cotree;
  std::vector<char> g2_mask;

  // Node-indexed scratch.  odd_parity is a packed bitset (bit v set when
  // node v has odd degree in G\T) — parity_word_count(n) words, 1/64th the
  // footprint of the old per-node counter array at n = 10^6.
  std::vector<std::uint64_t> odd_parity;
  std::vector<NodeId> branch_degree;
  std::vector<char> on_backbone;
  std::vector<Site> site;

  // Size-stable per-run results, retained across runs (cleared, capacity
  // kept, by prepare_for()).
  std::vector<EdgeId> tree;      // spanning forest edges
  std::vector<EdgeId> e_odd;     // Lemma 4 odd-subtree edges
  std::vector<EdgeId> matching;  // Regular_Euler's matching M
  RootedForest forest;

  // Bump allocator for the irregular structures (walks, covers, branch
  // lists).  Rewound by prepare_for()/reset(); blocks retained.
  MonotonicArena arena;

  /// Sizes-and-clears every buffer for a run on `g` and rewinds the arena,
  /// without copying `g`: the run walks `g` itself, which may be `csr` or
  /// a snapshot the caller owns.
  void prepare_for(const CsrGraph& g);

  /// Rewinds the arena and clears per-run result buffers without touching
  /// the CSR snapshot (the service calls this between requests; the next
  /// prepare_for() does it again, harmlessly).
  void reset();
};

}  // namespace tgroom
