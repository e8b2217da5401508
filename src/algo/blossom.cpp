#include "algo/blossom.hpp"

#include <algorithm>
#include <numeric>

namespace tgroom {

namespace {

// Classic array-based blossom contraction (after Edmonds; formulation as in
// competitive-programming folklore, e.g. e-maxx).  All ids are node ids.
class BlossomSolver {
 public:
  BlossomSolver(const CsrGraph& g, MonotonicArena* arena)
      : g_(g),
        n_(static_cast<std::size_t>(g.node_count())),
        match_(n_, kInvalidNode, ArenaAllocator<NodeId>(arena)),
        parent_(n_, kInvalidNode, ArenaAllocator<NodeId>(arena)),
        base_(n_, 0, ArenaAllocator<NodeId>(arena)),
        queue_(ArenaAllocator<NodeId>(arena)),
        in_forest_(n_, 0, ArenaAllocator<char>(arena)),
        in_blossom_(n_, 0, ArenaAllocator<char>(arena)),
        on_path_(n_, 0, ArenaAllocator<char>(arena)) {
    queue_.reserve(n_);
  }

  /// Node-indexed mates (kInvalidNode when unmatched).
  const ArenaVector<NodeId>& solve() {
    // Greedy warm start halves the number of augmenting phases.
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      if (match_[static_cast<std::size_t>(v)] != kInvalidNode) continue;
      for (const Incidence& inc : g_.incident(v)) {
        if (g_.edge(inc.edge).is_virtual) continue;
        const NodeId to = inc.neighbor;
        if (match_[static_cast<std::size_t>(to)] == kInvalidNode) {
          match_[static_cast<std::size_t>(v)] = to;
          match_[static_cast<std::size_t>(to)] = v;
          break;
        }
      }
    }
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      if (match_[static_cast<std::size_t>(v)] != kInvalidNode) continue;
      NodeId exposed = find_augmenting_path(v);
      while (exposed != kInvalidNode) {
        NodeId prev = parent_[static_cast<std::size_t>(exposed)];
        NodeId prev_mate = match_[static_cast<std::size_t>(prev)];
        match_[static_cast<std::size_t>(exposed)] = prev;
        match_[static_cast<std::size_t>(prev)] = exposed;
        exposed = prev_mate;
      }
    }
    return match_;
  }

 private:
  NodeId lca(NodeId a, NodeId b) {
    std::fill(on_path_.begin(), on_path_.end(), 0);
    NodeId x = a;
    while (true) {
      x = base_[static_cast<std::size_t>(x)];
      on_path_[static_cast<std::size_t>(x)] = 1;
      if (match_[static_cast<std::size_t>(x)] == kInvalidNode) break;
      x = parent_[static_cast<std::size_t>(
          match_[static_cast<std::size_t>(x)])];
    }
    NodeId y = b;
    while (true) {
      y = base_[static_cast<std::size_t>(y)];
      if (on_path_[static_cast<std::size_t>(y)]) return y;
      y = parent_[static_cast<std::size_t>(
          match_[static_cast<std::size_t>(y)])];
    }
  }

  void mark_path(NodeId v, NodeId blossom_base, NodeId child) {
    while (base_[static_cast<std::size_t>(v)] != blossom_base) {
      NodeId mate = match_[static_cast<std::size_t>(v)];
      in_blossom_[static_cast<std::size_t>(
          base_[static_cast<std::size_t>(v)])] = 1;
      in_blossom_[static_cast<std::size_t>(
          base_[static_cast<std::size_t>(mate)])] = 1;
      parent_[static_cast<std::size_t>(v)] = child;
      child = mate;
      v = parent_[static_cast<std::size_t>(mate)];
    }
  }

  /// BFS from an exposed root; returns an exposed node whose parent chain
  /// encodes an augmenting path, or kInvalidNode.
  NodeId find_augmenting_path(NodeId root) {
    std::fill(in_forest_.begin(), in_forest_.end(), 0);
    std::fill(parent_.begin(), parent_.end(), kInvalidNode);
    std::iota(base_.begin(), base_.end(), NodeId{0});

    in_forest_[static_cast<std::size_t>(root)] = 1;
    // FIFO as a flat array with a read head: std::queue's visit order
    // without a deque allocation per search.
    queue_.clear();
    std::size_t head = 0;
    queue_.push_back(root);
    while (head < queue_.size()) {
      NodeId v = queue_[head++];
      for (const Incidence& inc : g_.incident(v)) {
        if (g_.edge(inc.edge).is_virtual) continue;
        const NodeId to = inc.neighbor;
        if (base_[static_cast<std::size_t>(v)] ==
                base_[static_cast<std::size_t>(to)] ||
            match_[static_cast<std::size_t>(v)] == to) {
          continue;
        }
        if (to == root ||
            (match_[static_cast<std::size_t>(to)] != kInvalidNode &&
             parent_[static_cast<std::size_t>(
                 match_[static_cast<std::size_t>(to)])] != kInvalidNode)) {
          // Odd cycle: contract the blossom.
          NodeId blossom_base = lca(v, to);
          std::fill(in_blossom_.begin(), in_blossom_.end(), 0);
          mark_path(v, blossom_base, to);
          mark_path(to, blossom_base, v);
          for (NodeId i = 0; i < g_.node_count(); ++i) {
            if (in_blossom_[static_cast<std::size_t>(
                    base_[static_cast<std::size_t>(i)])]) {
              base_[static_cast<std::size_t>(i)] = blossom_base;
              if (!in_forest_[static_cast<std::size_t>(i)]) {
                in_forest_[static_cast<std::size_t>(i)] = 1;
                queue_.push_back(i);
              }
            }
          }
        } else if (parent_[static_cast<std::size_t>(to)] == kInvalidNode) {
          parent_[static_cast<std::size_t>(to)] = v;
          NodeId mate = match_[static_cast<std::size_t>(to)];
          if (mate == kInvalidNode) return to;  // augmenting path found
          in_forest_[static_cast<std::size_t>(mate)] = 1;
          queue_.push_back(mate);
        }
      }
    }
    return kInvalidNode;
  }

  // Neighbours are read straight from g_'s incidence lists, skipping
  // virtual edges: the same per-node order (ascending edge id) a copied
  // adjacency list would have, without its per-node allocations.  Scratch
  // lives on the arena when one is given (heap otherwise).
  const CsrGraph& g_;
  std::size_t n_;
  ArenaVector<NodeId> match_, parent_, base_, queue_;
  ArenaVector<char> in_forest_, in_blossom_, on_path_;
};

}  // namespace

void maximum_matching(const CsrGraph& g, std::vector<EdgeId>& edges,
                      MonotonicArena* arena) {
  BlossomSolver solver(g, arena);
  const ArenaVector<NodeId>& mates = solver.solve();
  edges.clear();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    NodeId mate = mates[static_cast<std::size_t>(v)];
    if (mate == kInvalidNode || mate < v) continue;
    // Find a real edge joining v and mate.
    EdgeId found = kInvalidEdge;
    for (const Incidence& inc : g.incident(v)) {
      if (inc.neighbor == mate && !g.edge(inc.edge).is_virtual) {
        found = inc.edge;
        break;
      }
    }
    TGROOM_CHECK(found != kInvalidEdge);
    edges.push_back(found);
  }
}

}  // namespace tgroom
