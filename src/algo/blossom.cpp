#include "algo/blossom.hpp"

#include <numeric>
#include <queue>

namespace tgroom {

namespace {

// Classic array-based blossom contraction (after Edmonds; formulation as in
// competitive-programming folklore, e.g. e-maxx).  All ids are node ids.
class BlossomSolver {
 public:
  explicit BlossomSolver(const Graph& g)
      : g_(g), n_(static_cast<std::size_t>(g.node_count())) {
    match_.assign(n_, kInvalidNode);
  }

  std::vector<NodeId> solve() {
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
    std::vector<char> on_path(n_, 0);
    NodeId x = a;
    while (true) {
      x = base_[static_cast<std::size_t>(x)];
      on_path[static_cast<std::size_t>(x)] = 1;
      if (match_[static_cast<std::size_t>(x)] == kInvalidNode) break;
      x = parent_[static_cast<std::size_t>(
          match_[static_cast<std::size_t>(x)])];
    }
    NodeId y = b;
    while (true) {
      y = base_[static_cast<std::size_t>(y)];
      if (on_path[static_cast<std::size_t>(y)]) return y;
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
    in_forest_.assign(n_, 0);
    parent_.assign(n_, kInvalidNode);
    base_.resize(n_);
    std::iota(base_.begin(), base_.end(), NodeId{0});

    in_forest_[static_cast<std::size_t>(root)] = 1;
    std::queue<NodeId> q;
    q.push(root);
    while (!q.empty()) {
      NodeId v = q.front();
      q.pop();
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
          in_blossom_.assign(n_, 0);
          mark_path(v, blossom_base, to);
          mark_path(to, blossom_base, v);
          for (NodeId i = 0; i < g_.node_count(); ++i) {
            if (in_blossom_[static_cast<std::size_t>(
                    base_[static_cast<std::size_t>(i)])]) {
              base_[static_cast<std::size_t>(i)] = blossom_base;
              if (!in_forest_[static_cast<std::size_t>(i)]) {
                in_forest_[static_cast<std::size_t>(i)] = 1;
                q.push(i);
              }
            }
          }
        } else if (parent_[static_cast<std::size_t>(to)] == kInvalidNode) {
          parent_[static_cast<std::size_t>(to)] = v;
          NodeId mate = match_[static_cast<std::size_t>(to)];
          if (mate == kInvalidNode) return to;  // augmenting path found
          in_forest_[static_cast<std::size_t>(mate)] = 1;
          q.push(mate);
        }
      }
    }
    return kInvalidNode;
  }

  // Neighbours are read straight from g_'s incidence lists, skipping
  // virtual edges: the same per-node order (ascending edge id) a copied
  // adjacency list would have, without its per-node allocations.
  const Graph& g_;
  std::size_t n_;
  std::vector<NodeId> match_, parent_, base_;
  std::vector<char> in_forest_, in_blossom_;
};

}  // namespace

std::vector<NodeId> maximum_matching_mates(const Graph& g) {
  return BlossomSolver(g).solve();
}

std::vector<EdgeId> maximum_matching(const Graph& g) {
  std::vector<NodeId> mates = maximum_matching_mates(g);
  std::vector<EdgeId> edges;
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
  return edges;
}

}  // namespace tgroom
