#include "algorithms/clique_pack.hpp"

#include <algorithm>
#include <set>

#include "graph/properties.hpp"

namespace tgroom {

namespace {

/// New nodes a part would gain by absorbing edge e.
int new_nodes(const std::set<NodeId>& part_nodes, const Edge& e) {
  return (part_nodes.count(e.u) ? 0 : 1) + (part_nodes.count(e.v) ? 0 : 1);
}

}  // namespace

EdgePartition clique_pack(const CsrGraph& g, int k,
                          const GroomingOptions& options) {
  (void)options;
  check_algorithm_input(g, k);

  std::vector<char> alive(static_cast<std::size_t>(g.edge_count()), 1);
  std::vector<NodeId> alive_deg(static_cast<std::size_t>(g.node_count()), 0);
  EdgeId alive_count = g.edge_count();
  for (const Edge& e : g.edges()) {
    ++alive_deg[static_cast<std::size_t>(e.u)];
    ++alive_deg[static_cast<std::size_t>(e.v)];
  }
  auto kill = [&](EdgeId e) {
    alive[static_cast<std::size_t>(e)] = 0;
    --alive_count;
    --alive_deg[static_cast<std::size_t>(g.edge(e).u)];
    --alive_deg[static_cast<std::size_t>(g.edge(e).v)];
  };

  std::vector<std::vector<EdgeId>> parts;
  std::vector<std::set<NodeId>> part_nodes;

  while (alive_count > 0) {
    // Seed: the alive edge with the densest neighbourhood.
    EdgeId seed = kInvalidEdge;
    NodeId best_score = -1;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (!alive[static_cast<std::size_t>(e)]) continue;
      NodeId score = static_cast<NodeId>(
          alive_deg[static_cast<std::size_t>(g.edge(e).u)] +
          alive_deg[static_cast<std::size_t>(g.edge(e).v)]);
      if (score > best_score) {
        best_score = score;
        seed = e;
      }
    }
    std::vector<EdgeId> part{seed};
    std::set<NodeId> nodes{g.edge(seed).u, g.edge(seed).v};
    kill(seed);

    while (part.size() < static_cast<std::size_t>(k)) {
      // Candidates: alive edges touching the part; prefer 0 new nodes,
      // break ties toward nodes with more alive edges into the part.
      EdgeId best = kInvalidEdge;
      int best_new = 3;
      NodeId best_tie = -1;
      for (NodeId v : nodes) {
        for (const Incidence& inc : g.incident(v)) {
          if (!alive[static_cast<std::size_t>(inc.edge)]) continue;
          const Edge& cand = g.edge(inc.edge);
          int gain = new_nodes(nodes, cand);
          NodeId tie = alive_deg[static_cast<std::size_t>(inc.neighbor)];
          if (gain < best_new || (gain == best_new && tie > best_tie)) {
            best_new = gain;
            best_tie = tie;
            best = inc.edge;
          }
        }
      }
      if (best == kInvalidEdge) break;  // nothing adjacent left
      part.push_back(best);
      nodes.insert(g.edge(best).u);
      nodes.insert(g.edge(best).v);
      kill(best);
    }
    parts.push_back(std::move(part));
    part_nodes.push_back(std::move(nodes));
  }

  // Repair to the minimum wavelength count: dissolve the smallest parts
  // into remaining slack, placing each edge where it adds fewest nodes.
  const auto min_w = static_cast<std::size_t>(
      min_wavelengths(g.real_edge_count(), k));
  while (parts.size() > min_w) {
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (parts[i].size() < parts[smallest].size())
        smallest = i;
    }
    std::vector<EdgeId> homeless = std::move(parts[smallest]);
    parts.erase(parts.begin() + static_cast<long>(smallest));
    part_nodes.erase(part_nodes.begin() + static_cast<long>(smallest));
    for (EdgeId e : homeless) {
      std::size_t target = parts.size();
      int target_gain = 3;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (parts[i].size() >= static_cast<std::size_t>(k))
          continue;
        int gain = new_nodes(part_nodes[i], g.edge(e));
        if (gain < target_gain) {
          target_gain = gain;
          target = i;
        }
      }
      TGROOM_CHECK_MSG(target < parts.size(),
                       "repair pass ran out of slack");
      parts[target].push_back(e);
      part_nodes[target].insert(g.edge(e).u);
      part_nodes[target].insert(g.edge(e).v);
    }
  }
  EdgePartition partition;
  partition.k = k;
  partition.parts = FlatParts::from_nested(parts);
  return partition;
}

}  // namespace tgroom
