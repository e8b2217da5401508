#include "algo/edge_coloring.hpp"

#include <algorithm>

#include "graph/properties.hpp"

namespace tgroom {

namespace {

class MisraGries {
 public:
  explicit MisraGries(const CsrGraph& g)
      : g_(g), n_(static_cast<std::size_t>(g.node_count())) {
    NodeId delta = 0;
    for (NodeId v = 0; v < g.node_count(); ++v)
      delta = std::max(delta, g.real_degree(v));
    palette_ = static_cast<std::size_t>(delta) + 1;
    at_.assign(n_ * palette_, kInvalidEdge);
    color_.assign(static_cast<std::size_t>(g.edge_count()), -1);
  }

  EdgeColoring run() {
    for (EdgeId e = 0; e < g_.edge_count(); ++e) {
      if (g_.edge(e).is_virtual) continue;
      color_one(e);
    }
    EdgeColoring out;
    out.color = color_;
    int max_color = -1;
    for (EdgeId e = 0; e < g_.edge_count(); ++e)
      max_color = std::max(max_color, color_[static_cast<std::size_t>(e)]);
    out.color_count = max_color + 1;
    return out;
  }

 private:
  EdgeId& at(NodeId v, int c) {
    return at_[static_cast<std::size_t>(v) * palette_ +
               static_cast<std::size_t>(c)];
  }

  int free_color(NodeId v) {
    for (int c = 0; c < static_cast<int>(palette_); ++c) {
      if (at(v, c) == kInvalidEdge) return c;
    }
    TGROOM_CHECK_MSG(false, "no free color; degree exceeds palette");
    return -1;
  }

  void set_color(EdgeId e, int c) {
    const Edge& edge = g_.edge(e);
    TGROOM_DCHECK(at(edge.u, c) == kInvalidEdge);
    TGROOM_DCHECK(at(edge.v, c) == kInvalidEdge);
    at(edge.u, c) = e;
    at(edge.v, c) = e;
    color_[static_cast<std::size_t>(e)] = c;
  }

  void unset_color(EdgeId e) {
    int c = color_[static_cast<std::size_t>(e)];
    if (c < 0) return;
    const Edge& edge = g_.edge(e);
    at(edge.u, c) = kInvalidEdge;
    at(edge.v, c) = kInvalidEdge;
    color_[static_cast<std::size_t>(e)] = -1;
  }

  /// Swap colors c and d along the maximal alternating path starting at u
  /// with a d-colored edge.  No-op when u has no d edge.
  void invert_cd_path(NodeId u, int c, int d) {
    std::vector<EdgeId> path;
    NodeId x = u;
    int want = d;
    while (at(x, want) != kInvalidEdge) {
      EdgeId e = at(x, want);
      path.push_back(e);
      x = g_.edge(e).other(x);
      want = (want == d) ? c : d;
    }
    for (EdgeId e : path) unset_color(e);
    int assign = d;
    for (EdgeId e : path) {
      set_color(e, assign == d ? c : d);
      assign = (assign == d) ? c : d;
    }
  }

  bool prefix_is_fan(const std::vector<NodeId>& fan, std::size_t j) {
    for (std::size_t i = 1; i <= j; ++i) {
      EdgeId e = fan_edge_[i];
      int ci = color_[static_cast<std::size_t>(e)];
      if (ci < 0) return false;
      if (at(fan[i - 1], ci) != kInvalidEdge) return false;
    }
    return true;
  }

  void rotate_and_finish(std::size_t j, int d) {
    // Shift: edge(u, fan[i]) takes the old color of edge(u, fan[i+1]).
    std::vector<int> old_color(j + 1, -1);
    for (std::size_t i = 1; i <= j; ++i) {
      old_color[i] = color_[static_cast<std::size_t>(fan_edge_[i])];
      unset_color(fan_edge_[i]);
    }
    for (std::size_t i = 0; i + 1 <= j; ++i) {
      set_color(fan_edge_[i], old_color[i + 1]);
    }
    set_color(fan_edge_[j], d);
  }

  void color_one(EdgeId e0) {
    const Edge& edge0 = g_.edge(e0);
    NodeId u = edge0.u;
    NodeId v = edge0.v;

    std::vector<NodeId> fan{v};
    fan_edge_.assign(1, e0);
    std::vector<char> in_fan(n_, 0);
    in_fan[static_cast<std::size_t>(v)] = 1;

    while (true) {
      NodeId back = fan.back();
      int d = free_color(back);
      if (at(u, d) == kInvalidEdge) {
        // d free at both ends of the rotated fan: rotate the whole fan.
        rotate_and_finish(fan.size() - 1, d);
        return;
      }
      EdgeId ed = at(u, d);
      NodeId w = g_.edge(ed).other(u);
      if (!in_fan[static_cast<std::size_t>(w)]) {
        fan.push_back(w);
        fan_edge_.push_back(ed);
        in_fan[static_cast<std::size_t>(w)] = 1;
        continue;
      }
      // d is free on fan.back() but used at u on an edge inside the fan:
      // invert the cd_u path, then rotate the longest prefix that is still
      // a fan and whose tip has d free (Misra–Gries guarantees one exists).
      int c = free_color(u);
      invert_cd_path(u, c, d);
      TGROOM_DCHECK(at(u, d) == kInvalidEdge);
      for (std::size_t j = fan.size(); j-- > 0;) {
        if (at(fan[j], d) != kInvalidEdge) continue;
        if (!prefix_is_fan(fan, j)) continue;
        rotate_and_finish(j, d);
        return;
      }
      TGROOM_CHECK_MSG(false, "Misra–Gries invariant violated: no prefix fan");
    }
  }

  const CsrGraph& g_;
  std::size_t n_;
  std::size_t palette_;
  std::vector<EdgeId> at_;
  std::vector<int> color_;
  std::vector<EdgeId> fan_edge_;  // fan_edge_[i] joins u and fan[i]
};

}  // namespace

EdgeColoring misra_gries_edge_coloring(const CsrGraph& g) {
  TGROOM_CHECK_MSG(is_simple(g),
                   "edge coloring requires a simple graph (real edges)");
  return MisraGries(g).run();
}

bool is_proper_edge_coloring(const Graph& g, const EdgeColoring& coloring) {
  if (coloring.color.size() != static_cast<std::size_t>(g.edge_count()))
    return false;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    std::vector<char> seen(static_cast<std::size_t>(coloring.color_count), 0);
    for (const Incidence& inc : g.incident(v)) {
      if (g.edge(inc.edge).is_virtual) continue;
      int c = coloring.color[static_cast<std::size_t>(inc.edge)];
      if (c < 0 || c >= coloring.color_count) return false;
      if (seen[static_cast<std::size_t>(c)]) return false;
      seen[static_cast<std::size_t>(c)] = 1;
    }
  }
  return true;
}

}  // namespace tgroom
