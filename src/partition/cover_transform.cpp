#include "partition/cover_transform.hpp"

namespace tgroom {

EdgePartition partition_from_cover(const Graph& g, const SkeletonCover& cover,
                                   int k) {
  TGROOM_CHECK(k >= 1);
  EdgePartition partition;
  partition.k = k;

  std::vector<EdgeId> order;
  for (const Skeleton& skeleton : cover) {
    for (EdgeId e : skeleton.canonical_order()) {
      TGROOM_CHECK_MSG(!g.edge(e).is_virtual,
                       "cover skeletons must not contain virtual edges");
      order.push_back(e);
    }
  }

  for (std::size_t i = 0; i < order.size(); i += static_cast<std::size_t>(k)) {
    std::size_t end = std::min(order.size(), i + static_cast<std::size_t>(k));
    partition.parts.emplace_back(order.begin() + static_cast<long>(i),
                                 order.begin() + static_cast<long>(end));
  }
  return partition;
}

EdgePartition partition_from_cover(const CsrGraph& g,
                                   const ArenaSkeletonCover& cover, int k,
                                   MonotonicArena& arena) {
  TGROOM_CHECK(k >= 1);
  EdgePartition partition;
  partition.k = k;

  ArenaVector<EdgeId> order{ArenaAllocator<EdgeId>(&arena)};
  for (const ArenaSkeleton& skeleton : cover) {
    skeleton.append_canonical_order(order);
  }
  for (EdgeId e : order) {
    TGROOM_CHECK_MSG(!g.edge(e).is_virtual,
                     "cover skeletons must not contain virtual edges");
  }

  partition.parts.reserve(
      (order.size() + static_cast<std::size_t>(k) - 1) /
      static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < order.size(); i += static_cast<std::size_t>(k)) {
    std::size_t end = std::min(order.size(), i + static_cast<std::size_t>(k));
    partition.parts.emplace_back(order.begin() + static_cast<long>(i),
                                 order.begin() + static_cast<long>(end));
  }
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
