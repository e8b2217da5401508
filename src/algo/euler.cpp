#include "algo/euler.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "graph/properties.hpp"

namespace tgroom {

namespace {

// One step of a walk: a node and the edge it was entered by.
struct Step {
  NodeId node;
  EdgeId edge;
};

// Scratch shared by every walk of one decomposition, all drawn from the
// arena (heap fallback when null).  `avail` is the edge mask with each edge
// cleared once a walk takes it, so one byte answers "masked and unused";
// cursor[v] is the first incidence of v not yet known to be unavailable,
// and it never moves back, so the cursors cost O(n + m) over all walks.
// `steps` holds the Hierholzer stack (growing up from the front) and the
// finished walk (growing down from the back).  Every step a walk pushes
// sits on exactly one of the two, and a walk pushes at most one step per
// masked edge plus its start, so masked + 1 slots never overflow, and the
// walk comes out in order without a reverse.
struct HierholzerScratch {
  ArenaVector<std::uint32_t> cursor;  // per node
  ArenaVector<char> avail;            // per edge
  ArenaVector<Step> steps;
  std::size_t masked = 0;

  HierholzerScratch(const CsrGraph& g, const std::vector<char>& edge_mask,
                    MonotonicArena* arena)
      : cursor(static_cast<std::size_t>(g.node_count()), 0,
               ArenaAllocator<std::uint32_t>(arena)),
        avail(edge_mask.begin(), edge_mask.end(),
              ArenaAllocator<char>(arena)),
        steps(ArenaAllocator<Step>(arena)) {
    masked = avail.size() - static_cast<std::size_t>(std::count(
                                 avail.begin(), avail.end(), char{0}));
    steps.resize(masked + 1);
  }

  // Advances v's cursor past used and unmasked edges; true when v still
  // has an available edge, which is then inc[cursor[v]].
  bool has_edge(std::span<const Incidence> inc, std::uint32_t& cur) const {
    while (cur < inc.size() &&
           !avail[static_cast<std::size_t>(inc[cur].edge)]) {
      ++cur;
    }
    return cur < inc.size();
  }
};

// Hierholzer with an explicit stack from `start`; consumes the available
// edges reachable from it.  Every pop must land where the previous popped
// step was entered from, and, when `closed`, the first pop must be
// `start` itself: together that proves the steps form one walk (closed
// when asked), so a start that admits no Euler walk throws instead of
// emitting a broken one.  WalkT is Walk or ArenaWalk — anything with
// nodes/edges vectors.  Returns the number of edges taken.
template <typename WalkT>
std::size_t euler_walk_into(const CsrGraph& g, NodeId start, bool closed,
                            HierholzerScratch& scratch, WalkT& walk) {
  Step* const steps = scratch.steps.data();
  const std::size_t end = scratch.steps.size();
  std::size_t top = 0;  // the stack is steps[0, top)
  std::size_t out = end;  // the walk is steps[out, end)
  steps[top++] = Step{start, kInvalidEdge};
  NodeId expect = closed ? start : kInvalidNode;
  while (top > 0) {
    const NodeId v = steps[top - 1].node;
    const auto inc = g.incident(v);
    std::uint32_t& cur = scratch.cursor[static_cast<std::size_t>(v)];
    if (scratch.has_edge(inc, cur)) {
      const Incidence next = inc[cur++];
      scratch.avail[static_cast<std::size_t>(next.edge)] = 0;
      steps[top++] = Step{next.neighbor, next.edge};
    } else {
      const Step done = steps[--top];
      TGROOM_CHECK_MSG(expect == kInvalidNode || done.node == expect,
                       "masked edges admit no Euler walk from this start");
      steps[--out] = done;
      if (top > 0) expect = steps[top - 1].node;
    }
  }

  const std::size_t length = end - out - 1;
  walk.nodes.resize(length + 1);
  walk.edges.resize(length);
  walk.nodes[0] = steps[out].node;
  for (std::size_t i = 0; i < length; ++i) {
    walk.nodes[i + 1] = steps[out + 1 + i].node;
    walk.edges[i] = steps[out + 1 + i].edge;
  }
  return length;
}

// The decomposition body, generic over where walks land.  Per component
// `acquire()` returns a WalkT& to fill and `commit()` runs once it is
// complete — the materializing form appends to a list with a no-op
// commit, the streaming form hands back one reused buffer and commits by
// invoking the consumer.  Walks come out in ascending order of their
// component's lowest node, for both forms and both start rules.
template <typename Acquire, typename Commit>
void euler_decomposition_visit(const CsrGraph& g,
                               const std::vector<char>& edge_mask,
                               MonotonicArena* arena, MaskDegrees degrees,
                               Acquire acquire, Commit commit) {
  TGROOM_CHECK(edge_mask.size() == static_cast<std::size_t>(g.edge_count()));
  const auto n = static_cast<std::size_t>(g.node_count());
  HierholzerScratch scratch(g, edge_mask, arena);
  std::size_t consumed = 0;

  if (degrees == MaskDegrees::kAllEven) {
    // An even component is walked whole from any of its nodes, so the
    // lowest node with an available edge starts the next component in
    // label order: exactly the labelled rule's start and order.
    for (NodeId v = 0; v < g.node_count() && consumed < scratch.masked;
         ++v) {
      if (!scratch.has_edge(g.incident(v),
                            scratch.cursor[static_cast<std::size_t>(v)])) {
        continue;
      }
      auto& walk = acquire();
      consumed += euler_walk_into(g, v, /*closed=*/true, scratch, walk);
      commit();
    }
    TGROOM_CHECK_MSG(consumed == scratch.masked,
                     "Euler decomposition left masked edges unconsumed");
    return;
  }

  ArenaVector<NodeId> deg(n, 0, ArenaAllocator<NodeId>(arena));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!edge_mask[static_cast<std::size_t>(e)]) continue;
    const Edge& edge = g.edge(e);
    ++deg[static_cast<std::size_t>(edge.u)];
    ++deg[static_cast<std::size_t>(edge.v)];
  }

  // Component labels by BFS from the lowest unlabelled node (identical to
  // algo/components.cpp).
  ArenaVector<int> label(n, -1, ArenaAllocator<int>(arena));
  ArenaVector<NodeId> frontier{ArenaAllocator<NodeId>(arena)};
  frontier.reserve(n);
  int component_count = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (label[static_cast<std::size_t>(s)] != -1) continue;
    int id = component_count++;
    label[static_cast<std::size_t>(s)] = id;
    std::size_t head = frontier.size();
    frontier.push_back(s);
    while (head < frontier.size()) {
      NodeId v = frontier[head++];
      for (const Incidence& inc : g.incident(v)) {
        if (!edge_mask[static_cast<std::size_t>(inc.edge)]) continue;
        if (label[static_cast<std::size_t>(inc.neighbor)] != -1) continue;
        label[static_cast<std::size_t>(inc.neighbor)] = id;
        frontier.push_back(inc.neighbor);
      }
    }
  }

  // Per component: an odd-degree start node if one exists, else any node
  // with positive degree.
  ArenaVector<NodeId> start(static_cast<std::size_t>(component_count),
                            kInvalidNode, ArenaAllocator<NodeId>(arena));
  ArenaVector<int> odd_count(static_cast<std::size_t>(component_count), 0,
                             ArenaAllocator<int>(arena));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    auto c = static_cast<std::size_t>(label[static_cast<std::size_t>(v)]);
    NodeId d = deg[static_cast<std::size_t>(v)];
    if (d == 0) continue;
    if (d % 2 == 1) {
      ++odd_count[c];
      start[c] = v;  // odd node wins as the start
    } else if (start[c] == kInvalidNode) {
      start[c] = v;
    }
  }

  for (std::size_t c = 0; c < static_cast<std::size_t>(component_count);
       ++c) {
    if (start[c] == kInvalidNode) continue;  // edgeless component
    TGROOM_CHECK_MSG(odd_count[c] == 0 || odd_count[c] == 2,
                     "component has " + std::to_string(odd_count[c]) +
                         " odd-degree nodes; not Eulerian");
    auto& walk = acquire();
    consumed += euler_walk_into(g, start[c], odd_count[c] == 0, scratch, walk);
    commit();
  }
  // Connected + 0/2 odd degrees per component means every walk consumed its
  // whole component; this guards the invariant without re-validating each
  // walk edge-by-edge.
  TGROOM_CHECK_MSG(consumed == scratch.masked,
                   "Euler decomposition left masked edges unconsumed");
}

}  // namespace

Walk euler_walk_from(const CsrGraph& g, const std::vector<char>& edge_mask,
                     NodeId start) {
  TGROOM_CHECK(g.valid_node(start));
  TGROOM_CHECK(edge_mask.size() == static_cast<std::size_t>(g.edge_count()));
  HierholzerScratch scratch(g, edge_mask, nullptr);
  Walk walk;
  // euler_walk_into's pop check throws unless the steps form one walk, so
  // a start the component admits no Euler walk from throws there.
  euler_walk_into(g, start, /*closed=*/false, scratch, walk);
  return walk;
}

ArenaWalkList euler_decomposition(const CsrGraph& g,
                                  const std::vector<char>& edge_mask,
                                  MonotonicArena& arena, MaskDegrees degrees) {
  ArenaWalkList walks{ArenaAllocator<ArenaWalk>(&arena)};
  euler_decomposition_visit(
      g, edge_mask, &arena, degrees,
      [&walks, &arena]() -> ArenaWalk& {
        walks.emplace_back(&arena);
        return walks.back();
      },
      [] {});
  return walks;
}

void euler_decomposition_stream(const CsrGraph& g,
                                const std::vector<char>& edge_mask,
                                MonotonicArena& arena,
                                const WalkConsumer& consume,
                                MaskDegrees degrees) {
  ArenaWalk buffer(&arena);
  euler_decomposition_visit(
      g, edge_mask, &arena, degrees,
      [&buffer]() -> ArenaWalk& { return buffer; },
      [&buffer, &consume] { consume(buffer); });
}

bool is_valid_walk(const Graph& g, const Walk& walk) {
  if (walk.nodes.empty()) return false;
  if (walk.nodes.size() != walk.edges.size() + 1) return false;
  std::vector<char> seen(static_cast<std::size_t>(g.edge_count()), 0);
  for (std::size_t i = 0; i < walk.edges.size(); ++i) {
    EdgeId e = walk.edges[i];
    if (e < 0 || e >= g.edge_count()) return false;
    if (seen[static_cast<std::size_t>(e)]) return false;
    seen[static_cast<std::size_t>(e)] = 1;
    const Edge& edge = g.edge(e);
    NodeId a = walk.nodes[i];
    NodeId b = walk.nodes[i + 1];
    if (!((edge.u == a && edge.v == b) || (edge.u == b && edge.v == a)))
      return false;
  }
  return true;
}

}  // namespace tgroom
