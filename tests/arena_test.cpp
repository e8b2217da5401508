// Tests of the monotonic arena and the zero-allocation request invariant
// (DESIGN.md §11): a cache-hit groom on a warm worker performs zero heap
// allocations end to end, and an uncached groom's heap traffic is bounded
// by the escaping result payload — the pipeline itself runs on the arena.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "algorithms/algorithm.hpp"
#include "algorithms/workspace.hpp"
#include "gen/regular_graph.hpp"
#include "gen/traffic_patterns.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/alloc_tracker.hpp"
#include "util/arena.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace tgroom {
namespace {

TEST(MonotonicArena, BumpAllocationRespectsAlignment) {
  MonotonicArena arena;
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(16, 16);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 16, 0u);
  EXPECT_EQ(arena.bytes_used(), 3u + 8u + 16u);
  // The memory is real and writable.
  std::memset(c, 0xab, 16);
}

TEST(MonotonicArena, ResetRetainsBlocksForReuse) {
  MonotonicArena arena(/*first_block=*/256);
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t blocks = arena.block_count();
  ASSERT_GT(blocks, 1u);

  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // nothing freed

  // The same workload replays entirely out of retained blocks.
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  EXPECT_EQ(arena.block_count(), blocks);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(MonotonicArena, OversizeRequestGetsDedicatedBlock) {
  MonotonicArena arena(/*first_block=*/64);
  void* big = arena.allocate(10'000, 8);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 10'000u);
  std::memset(big, 0, 10'000);
}

TEST(ArenaAllocator, HeapFallbackWithoutArena) {
  // Default-constructed allocator (arena == nullptr) must behave like the
  // standard allocator so arena-typed containers stay usable anywhere.
  ArenaVector<int> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[999], 999);
}

TEST(ArenaAllocator, ContainerDrawsFromArena) {
  MonotonicArena arena;
  ArenaVector<int> v{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v[123], 123);
  EXPECT_GE(arena.bytes_used(), 1000 * sizeof(int));
}

TEST(ArenaAllocator, NestedContainersPropagateArena) {
  MonotonicArena arena;
  ArenaVector<ArenaVector<int>> outer{
      ArenaAllocator<ArenaVector<int>>(&arena)};
  outer.resize(4, ArenaVector<int>(ArenaAllocator<int>(&arena)));
  for (auto& inner : outer) {
    EXPECT_EQ(inner.get_allocator().arena(), &arena);
    inner.push_back(7);
  }
  EXPECT_GE(arena.bytes_used(), 4 * sizeof(int));
}

// ------------------------------------------------- zero-allocation groom

ServiceRequest make_groom_request(
    const Graph& g, int k, AlgorithmId algorithm = AlgorithmId::kSpanTEuler) {
  ServiceRequest request;
  request.op = ServiceOp::kGroom;
  request.id = 1;
  request.has_id = true;
  request.graph.rebuild(g);
  request.algorithm = algorithm;
  request.k = k;
  request.include_partition = true;
  return request;
}

TEST(ZeroAllocation, CachedGroomPerformsNoHeapAllocations) {
  if (!alloc_tracking_enabled()) GTEST_SKIP() << "alloc tracker disabled";
  Rng rng(11);
  const Graph g = random_traffic(16, 0.5, rng).traffic_graph();

  ServiceConfig config;
  config.cache_capacity = 8;
  config.cache_shards = 1;
  GroomingService service(config);
  ServiceRequest request = make_groom_request(g, 4);

  GroomingWorkspace workspace;
  JsonWriter w;
  // Pass 1 misses and populates the cache; pass 2 hits and warms every
  // retained buffer (workspace, writer, response high-water marks).
  service.execute_into(request, workspace, w);
  service.execute_into(request, workspace, w);
  const std::string hit_response = w.str();

  const AllocCounter before = thread_alloc_counter();
  service.execute_into(request, workspace, w);
  const AllocCounter after = thread_alloc_counter();
  EXPECT_EQ(after.count - before.count, 0)
      << "cache-hit groom allocated " << after.count - before.count
      << " times (" << after.bytes - before.bytes << " bytes)";
  EXPECT_EQ(w.str(), hit_response);
}

TEST(ZeroAllocation, UncachedGroomFootprintIsBoundedAndSteady) {
  if (!alloc_tracking_enabled()) GTEST_SKIP() << "alloc tracker disabled";
  ServiceConfig config;
  config.cache_capacity = 0;  // every groom recomputes
  GroomingService service(config);
  GroomingWorkspace workspace;
  JsonWriter w;

  // Allocations of one warm cold miss, checked to be steady and to leave
  // the arena's footprint where the warm-up put it.
  auto steady_allocs = [&](const Graph& g, int k,
                           AlgorithmId algorithm = AlgorithmId::kSpanTEuler) {
    ServiceRequest request = make_groom_request(g, k, algorithm);
    service.execute_into(request, workspace, w);  // warm-up: grows arena
    auto measure = [&] {
      const AllocCounter before = thread_alloc_counter();
      service.execute_into(request, workspace, w);
      return thread_alloc_counter().count - before.count;
    };
    const long long second = measure();
    const std::size_t reserved = workspace.arena.bytes_reserved();
    const std::size_t blocks = workspace.arena.block_count();
    EXPECT_EQ(measure(), second);
    EXPECT_EQ(workspace.arena.bytes_reserved(), reserved);
    EXPECT_EQ(workspace.arena.block_count(), blocks);
    return second;
  };

  Rng rng(12);
  const Graph few_parts = random_traffic(16, 0.5, rng).traffic_graph();
  const Graph many_parts = random_traffic(48, 0.6, rng).traffic_graph();
  const long long small = steady_allocs(few_parts, 4);
  const long long large = steady_allocs(many_parts, 2);
  // A warm worker's only heap traffic is the escaping result: the shared
  // value block, the partition's id and offset arrays, and sadm_cost's
  // node stamps.  It does not grow with the number of parts (k = 4 on 16
  // nodes against k = 2 on 48).
  EXPECT_LE(small, 4);
  EXPECT_EQ(large, small);

  // Regular_Euler runs on the same workspace: its matching, walks and
  // cover allocate nothing once warm, for even and odd r alike.
  const Graph odd_r = random_regular(48, 7, rng);
  const Graph even_r = random_regular(40, 6, rng);
  EXPECT_EQ(steady_allocs(odd_r, 4, AlgorithmId::kRegularEuler), small);
  EXPECT_EQ(steady_allocs(odd_r, 2, AlgorithmId::kRegularEuler), small);
  EXPECT_EQ(steady_allocs(even_r, 3, AlgorithmId::kRegularEuler), small);
}

TEST(ZeroAllocation, WorkspaceArenaResetsBetweenRequests) {
  Rng rng(13);
  const Graph g = random_traffic(12, 0.5, rng).traffic_graph();
  GroomingWorkspace workspace;
  run_algorithm(AlgorithmId::kSpanTEuler, g, 4, {}, &workspace);
  const std::size_t used_once = workspace.arena.bytes_used();
  ASSERT_GT(used_once, 0u);
  run_algorithm(AlgorithmId::kSpanTEuler, g, 4, {}, &workspace);
  // prepare() resets the arena first, so usage does not accumulate.
  EXPECT_EQ(workspace.arena.bytes_used(), used_once);
}

}  // namespace
}  // namespace tgroom
