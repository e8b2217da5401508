// regular_traffic: study of the regular traffic pattern (paper §4).
//
// Each node sources exactly r symmetric demands — the transceiver-limited
// pattern the paper motivates.  Shows Regular_Euler against SpanT_Euler
// and the Theorem 10 guarantee, plus the all-to-all special case r = n-1.
//
//   ./regular_traffic [--n 36] [--r 7] [--k 16] [--seeds 10]
#include <iostream>

#include "algorithms/regular_euler.hpp"
#include "algorithms/spant_euler.hpp"
#include "gen/regular_graph.hpp"
#include "gen/traffic_patterns.hpp"
#include "graph/properties.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace tgroom;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto n = static_cast<NodeId>(args.get_int("n", 36));
  const auto r = static_cast<NodeId>(args.get_int("r", 7));
  const int k = static_cast<int>(args.get_int("k", 16));
  const int seeds = static_cast<int>(args.get_int("seeds", 10));
  TGROOM_CHECK_MSG(regular_feasible(n, r), "no simple r-regular graph here");

  std::cout << "Regular traffic pattern: n=" << n << ", r=" << r
            << ", grooming factor k=" << k << "\n";
  std::cout << "m = n*r/2 = " << (static_cast<long long>(n) * r / 2)
            << " demand pairs; every node terminates exactly " << r
            << " demands\n\n";

  double regular_total = 0, spant_total = 0, bound_total = 0, lb_total = 0;
  double cover_total = 0, match_total = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 1);
    DemandSet demands = regular_traffic(n, r, rng);
    const CsrGraph traffic(demands.traffic_graph());

    RegularEulerTrace trace;
    EdgePartition reg = regular_euler(traffic, k, {}, &trace);
    EdgePartition spn = spant_euler(traffic, k);
    regular_total += static_cast<double>(sadm_cost(traffic, reg));
    spant_total += static_cast<double>(sadm_cost(traffic, spn));
    int components = r % 2 == 0 ? static_cast<int>(trace.cover.size()) : 0;
    bound_total += static_cast<double>(regular_euler_cost_bound(
        n, r, traffic.real_edge_count(), k, components));
    lb_total += static_cast<double>(partition_cost_lower_bound(traffic, k));
    cover_total += static_cast<double>(trace.cover.size());
    match_total += static_cast<double>(trace.matching.size());
  }

  TextTable table("Mean over " + std::to_string(seeds) + " random " +
                  std::to_string(r) + "-regular instances");
  table.set_header({"metric", "value"});
  table.add_row({"Regular_Euler SADMs", TextTable::num(regular_total / seeds, 1)});
  table.add_row({"SpanT_Euler SADMs", TextTable::num(spant_total / seeds, 1)});
  table.add_row({"Theorem 10 bound", TextTable::num(bound_total / seeds, 1)});
  table.add_row({"lower bound", TextTable::num(lb_total / seeds, 1)});
  table.add_row({"skeleton cover size", TextTable::num(cover_total / seeds, 2)});
  if (r % 2 == 1) {
    table.add_row({"matching size", TextTable::num(match_total / seeds, 1)});
    table.add_row({"Lemma 8 matching bound",
                   TextTable::num(static_cast<double>(
                                      lemma8_matching_lower_bound(n, r)),
                                  0)});
    table.add_row({"Lemma 9 cover bound",
                   TextTable::num(static_cast<double>(lemma9_cover_bound(n, r)),
                                  0)});
  }
  table.print(std::cout);

  // The all-to-all special case (r = n-1) from the paper's introduction.
  std::cout << "\nAll-to-all special case (r = n-1) on a small ring:\n";
  DemandSet all = all_to_all_traffic(12);
  const CsrGraph traffic(all.traffic_graph());
  EdgePartition p = regular_euler(traffic, k);
  std::cout << "  n=12, m=" << traffic.real_edge_count() << ", k=" << k
            << ": Regular_Euler uses " << sadm_cost(traffic, p)
            << " SADMs on " << p.wavelength_count() << " wavelengths (min "
            << min_wavelengths(traffic.real_edge_count(), k) << ")\n";
  return 0;
}
