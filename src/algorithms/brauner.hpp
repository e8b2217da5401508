// Algo. 2 — Brauner, Crama, Finke, Lemaire, Wynants, "Approximation
// algorithms for the design of SDH/SONET networks" [3]: the Euler-path
// partition baseline.
//
// Add virtual edges to make the whole graph one Eulerian walk: chain the
// components, pair all but two odd-degree nodes; build the Euler path; cut
// it into segments of k real edges; delete the virtual edges.  Strong on
// dense graphs (few odd nodes), weak on sparse ones where the many virtual
// edges fragment the segments — the behaviour the paper reports in §5.
#pragma once

#include "algorithms/algorithm.hpp"

namespace tgroom {

struct GroomingWorkspace;

struct BraunerTrace {
  int virtual_edges = 0;
  int segments = 0;
};

/// `workspace` (optional) supplies reusable scratch and the arena; its
/// `csr` receives g plus the virtual edges.  Results are identical with or
/// without one.
EdgePartition brauner_euler(const CsrGraph& g, int k,
                            const GroomingOptions& options = {},
                            BraunerTrace* trace = nullptr,
                            GroomingWorkspace* workspace = nullptr);

}  // namespace tgroom
