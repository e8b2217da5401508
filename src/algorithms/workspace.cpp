#include "algorithms/workspace.hpp"

namespace tgroom {

void GroomingWorkspace::prepare_for(const CsrGraph& g) {
  reset();
  const auto n = static_cast<std::size_t>(g.node_count());
  const auto m = static_cast<std::size_t>(g.edge_count());
  in_tree.assign(m, 0);
  g2_mask.assign(m, 0);
  odd_parity.assign(parity_word_count(n), 0);
  branch_degree.assign(n, 0);
  on_backbone.assign(n, 0);
  site.assign(n, Site{});
}

void GroomingWorkspace::reset() {
  tree.clear();
  e_odd.clear();
  matching.clear();
  forest.parent.clear();
  forest.parent_edge.clear();
  forest.preorder.clear();
  forest.root_of.clear();
  arena.reset();
}

}  // namespace tgroom
