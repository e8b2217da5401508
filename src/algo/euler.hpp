// Euler walks (Hierholzer's algorithm) over masked edge subsets.
//
// The paper's algorithms all reduce to "build Euler paths of pieces of the
// traffic graph and use them as skeleton backbones"; this module is the
// shared engine.  Walks are closed (circuits) when every masked degree is
// even, open when a component has exactly two odd-degree nodes.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "util/arena.hpp"

namespace tgroom {

/// A walk: nodes.size() == edges.size() + 1; edges[i] joins nodes[i] and
/// nodes[i+1].  No edge repeats; nodes may repeat.
struct Walk {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;

  bool empty() const { return edges.empty(); }
  std::size_t length() const { return edges.size(); }
};

/// Euler walk of a single component starting at `start`, consuming exactly
/// the masked edges reachable from it.  Preconditions: `start` has masked
/// degree > 0 unless the component is a single node; the component has at
/// most two odd-degree nodes, and if it has two, `start` must be one of
/// them.  Throws CheckError if the component is not Eulerian from `start`.
Walk euler_walk_from(const CsrGraph& g, const std::vector<char>& edge_mask,
                     NodeId start);

/// A Walk whose storage lives on a MonotonicArena (zero heap allocation
/// once the arena is warm).  Same invariants as Walk; must not outlive the
/// arena's next reset().
struct ArenaWalk {
  ArenaVector<NodeId> nodes;
  ArenaVector<EdgeId> edges;

  explicit ArenaWalk(MonotonicArena* arena)
      : nodes(ArenaAllocator<NodeId>(arena)),
        edges(ArenaAllocator<EdgeId>(arena)) {}

  bool empty() const { return edges.empty(); }
  std::size_t length() const { return edges.size(); }
};

using ArenaWalkList = ArenaVector<ArenaWalk>;

/// What the caller knows about the masked degrees; it picks how each
/// walk's start is found, never which walks come out.
enum class MaskDegrees {
  /// Components may have two odd-degree nodes: one labelling BFS finds
  /// each component and its start (an odd node if it has one).
  kAny,
  /// Every masked degree is even (SpanT_Euler's G'' by Lemma 4,
  /// Regular_Euler's G - M for a perfect M): each walk starts at the
  /// lowest node that still has an unused masked edge, which is the start
  /// and the order the labelling would pick, so no labelling runs.  The
  /// walks are checked to close, so an odd mask throws CheckError.
  kAllEven,
};

/// Decomposes the masked subgraph into Euler walks, one per component with
/// at least one edge, in ascending order of the component's lowest node.
/// Every component must have 0 or 2 odd-degree nodes.  Scratch buffers
/// are shared across components, so multi-component masks cost O(n + m)
/// total rather than O(components * (n + m)).  Every temporary and every
/// walk is drawn from `arena`.
ArenaWalkList euler_decomposition(const CsrGraph& g,
                                  const std::vector<char>& edge_mask,
                                  MonotonicArena& arena,
                                  MaskDegrees degrees = MaskDegrees::kAny);

/// Consumer for euler_decomposition_stream: invoked once per walk, in walk
/// order.  The walk references a buffer that is REUSED for the next walk,
/// so the consumer must copy anything it needs to retain.
using WalkConsumer = std::function<void(const ArenaWalk& walk)>;

/// Streaming decomposition: emits exactly the walks (same content, same
/// order) euler_decomposition returns, but through `consume` with a
/// single reused buffer instead of a walk list.  Peak arena footprint
/// drops from O(Σ walk length) = O(m) to O(longest walk) + the O(n + m)
/// cursor/avail/stack scratch — on multi-component instances (many rings)
/// the walk storage is the dominant term, and this is the memory-bound
/// path bench_scale measures (DESIGN.md §16).
void euler_decomposition_stream(const CsrGraph& g,
                                const std::vector<char>& edge_mask,
                                MonotonicArena& arena,
                                const WalkConsumer& consume,
                                MaskDegrees degrees = MaskDegrees::kAny);

/// Checks walk consistency: edge endpoints match consecutive nodes and no
/// edge repeats.
bool is_valid_walk(const Graph& g, const Walk& walk);

/// Cuts `walk` at its virtual edges ("delete the virtual edges" in the
/// paper's constructions) and hands each maximal real run to
/// `emit(ArenaWalk&&)` in walk order, drawn from `arena`.  Runs between
/// consecutive virtual edges are empty and dropped.
template <typename Emit>
void for_each_real_segment(const CsrGraph& g, const ArenaWalk& walk,
                           MonotonicArena& arena, Emit&& emit) {
  const std::size_t length = walk.edges.size();
  std::size_t i = 0;
  while (i < length) {
    if (g.edge(walk.edges[i]).is_virtual) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < length && !g.edge(walk.edges[j]).is_virtual) ++j;
    ArenaWalk segment(&arena);
    const auto first = static_cast<std::ptrdiff_t>(i);
    const auto last = static_cast<std::ptrdiff_t>(j);
    segment.nodes.assign(walk.nodes.begin() + first,
                         walk.nodes.begin() + last + 1);
    segment.edges.assign(walk.edges.begin() + first,
                         walk.edges.begin() + last);
    emit(std::move(segment));
    i = j;
  }
}

}  // namespace tgroom
