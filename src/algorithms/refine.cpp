#include "algorithms/refine.hpp"

#include "partition/part_profile.hpp"

namespace tgroom {

RefineStats refine_partition(const CsrGraph& g, EdgePartition& partition,
                             int max_passes) {
  RefineStats stats;
  std::vector<std::vector<EdgeId>> parts = partition.parts.to_nested();
  const auto k = static_cast<std::size_t>(partition.k);

  std::vector<PartProfile> profiles(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (EdgeId e : parts[i]) profiles[i].add(g.edge(e));
  }
  long long cost = 0;
  for (const auto& p : profiles) cost += static_cast<long long>(p.node_count());
  stats.cost_before = cost;

  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    bool improved_any = false;
    for (std::size_t a = 0; a < parts.size(); ++a) {
      std::size_t ia = 0;
      while (ia < parts[a].size()) {
        const EdgeId edge_a = parts[a][ia];
        const Edge& ea = g.edge(edge_a);
        const int out_a = profiles[a].remove_delta(ea);
        bool relocated = false;
        for (std::size_t b = 0; b < parts.size() && !relocated; ++b) {
          if (a == b) continue;
          // Relocate a -> b when b has slack.
          if (parts[b].size() < k) {
            int delta = out_a + profiles[b].add_delta(ea);
            if (delta < 0) {
              profiles[a].remove(ea);
              profiles[b].add(ea);
              parts[b].push_back(edge_a);
              parts[a].erase(parts[a].begin() + static_cast<long>(ia));
              cost += delta;
              ++stats.relocations;
              improved_any = true;
              relocated = true;
              break;
            }
          }
          // Swap with an edge of b (works between full parts too).
          for (std::size_t ib = 0; ib < parts[b].size(); ++ib) {
            const Edge& eb = g.edge(parts[b][ib]);
            PartProfile pa = profiles[a];
            PartProfile pb = profiles[b];
            pa.remove(ea);
            pa.add(eb);
            pb.remove(eb);
            pb.add(ea);
            long long delta =
                static_cast<long long>(pa.node_count()) +
                static_cast<long long>(pb.node_count()) -
                static_cast<long long>(profiles[a].node_count()) -
                static_cast<long long>(profiles[b].node_count());
            if (delta < 0) {
              profiles[a] = std::move(pa);
              profiles[b] = std::move(pb);
              std::swap(parts[a][ia], parts[b][ib]);
              cost += delta;
              ++stats.swaps;
              improved_any = true;
              break;  // slot (a, ia) now holds eb; move on
            }
          }
          if (improved_any && parts[a][ia] != edge_a) break;
        }
        if (!relocated) ++ia;  // after a relocation, ia already points at
                               // the next edge
      }
    }
    if (!improved_any) break;
  }

  // Drop parts emptied by relocations.
  for (std::size_t i = parts.size(); i-- > 0;) {
    if (parts[i].empty()) {
      parts.erase(parts.begin() + static_cast<long>(i));
      profiles.erase(profiles.begin() + static_cast<long>(i));
    }
  }
  partition.parts = FlatParts::from_nested(parts);
  stats.cost_after = cost;
  return stats;
}

}  // namespace tgroom
