#include "partition/cover_transform.hpp"

namespace tgroom {

EdgePartition partition_from_cover(const CsrGraph& g,
                                   const ArenaSkeletonCover& cover, int k,
                                   MonotonicArena& arena) {
  TGROOM_CHECK(k >= 1);
  std::size_t total = 0;
  for (const ArenaSkeleton& skeleton : cover) total += skeleton.size();
  // The parts are k-chunks of the concatenated canonical order, so each
  // skeleton writes its order straight into the partition's id array.
  std::vector<EdgeId> order(total);
  EdgeId* out = order.data();
  for (const ArenaSkeleton& skeleton : cover) {
    skeleton.write_canonical_order(out, arena);
    out += skeleton.size();
  }
  for (EdgeId e : order) {
    TGROOM_CHECK_MSG(!g.edge(e).is_virtual,
                     "cover skeletons must not contain virtual edges");
  }
  EdgePartition partition;
  partition.k = k;
  partition.parts = FlatParts::chunks(std::move(order), k);
  return partition;
}

long long prop2_cost_bound(long long real_edges, int k,
                           std::size_t cover_size) {
  TGROOM_CHECK(k >= 1);
  if (real_edges == 0) return 0;
  long long wavelengths = (real_edges + k - 1) / k;
  long long boundaries =
      cover_size == 0 ? 0 : static_cast<long long>(cover_size) - 1;
  return real_edges + wavelengths + boundaries;
}

}  // namespace tgroom
