// Euler walks (Hierholzer's algorithm) over masked edge subsets.
//
// The paper's algorithms all reduce to "build Euler paths of pieces of the
// traffic graph and use them as skeleton backbones"; this module is the
// shared engine.  Walks are closed (circuits) when every masked degree is
// even, open when a component has exactly two odd-degree nodes.
#pragma once

#include <functional>
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
Walk euler_walk_from(const Graph& g, const std::vector<char>& edge_mask,
                     NodeId start);
Walk euler_walk_from(const CsrGraph& g, const std::vector<char>& edge_mask,
                     NodeId start);

/// Decomposes the masked subgraph into Euler walks, one per component with
/// at least one edge.  Every component must have 0 or 2 odd-degree nodes.
/// Scratch buffers are shared across components, so multi-component masks
/// cost O(n + m) total rather than O(components * (n + m)).
std::vector<Walk> euler_decomposition(const Graph& g,
                                      const std::vector<char>& edge_mask);
std::vector<Walk> euler_decomposition(const CsrGraph& g,
                                      const std::vector<char>& edge_mask);

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

/// Decomposition identical walk-for-walk to the heap overloads, with every
/// temporary and every walk drawn from `arena` — the grooming hot path.
ArenaWalkList euler_decomposition(const CsrGraph& g,
                                  const std::vector<char>& edge_mask,
                                  MonotonicArena& arena,
                                  MaskDegrees degrees = MaskDegrees::kAny);

/// Consumer for euler_decomposition_stream: invoked once per walk, in walk
/// order.  The walk references a buffer that is REUSED for the next walk,
/// so the consumer must copy anything it needs to retain.
using WalkConsumer = std::function<void(const ArenaWalk& walk)>;

/// Streaming decomposition: emits exactly the walks (same content, same
/// order) the materializing overloads return, but through `consume` with a
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
bool is_valid_walk(const CsrGraph& g, const Walk& walk);

/// Splits a walk at its virtual edges into maximal real sub-walks ("delete
/// the virtual edges" in the paper's constructions).  Empty segments
/// between consecutive virtual edges are dropped.
std::vector<Walk> split_walk_on_virtual(const Graph& g, const Walk& walk);

}  // namespace tgroom
