// Proper edge coloring with at most Δ+1 colors (Vizing's bound) via the
// Misra–Gries constructive algorithm.
//
// Lemma 8 of the paper derives the matching lower bound n*r/(2(r+1)) from
// exactly this construction: color the r-regular graph with r+1 colors and
// take the largest color class.  The coloring is also independently useful
// for wavelength-style assignment experiments.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"

namespace tgroom {

struct EdgeColoring {
  int color_count = 0;      // number of distinct colors actually used
  std::vector<int> color;   // per edge id; -1 for virtual edges
};

/// Colors all real edges properly with colors in [0, Δ].  Requires a simple
/// graph (no parallel real edges).  Throws CheckError otherwise.
EdgeColoring misra_gries_edge_coloring(const CsrGraph& g);

/// True when no two real edges sharing an endpoint have the same color and
/// every real edge is colored.
bool is_proper_edge_coloring(const Graph& g, const EdgeColoring& coloring);

}  // namespace tgroom
