#include "algorithms/spant_euler.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <utility>

#include "algo/components.hpp"
#include "algo/euler.hpp"
#include "algo/rooted_tree.hpp"
#include "algorithms/workspace.hpp"
#include "graph/properties.hpp"
#include "partition/cover_transform.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tgroom {

namespace {

// Steps 1-4 of the pipeline on `csr` (the whole graph, or one
// rank-renumbered component in the parallel driver), with the scratch
// that ws.prepare_for(csr) readied:
// spanning forest, Lemma 4 parity, G'' Euler decomposition, branch
// attachment.  The returned cover lives on ws.arena in the canonical
// sequential order: Euler-walk skeletons first, emitted in ascending order
// of the minimum node id of their masked G'' component, then singleton
// skeletons in ascending order of the branch edge that created them.  The
// parallel merge in spant_euler_parallel relies on exactly that order.
ArenaSkeletonCover build_cover(const CsrGraph& csr, GroomingWorkspace& ws,
                               const GroomingOptions& options) {
  MonotonicArena& arena = ws.arena;

  Rng rng(options.seed);
  spanning_forest(csr, options.tree_policy, &rng, ws.tree, &arena);

  // Each node's degree in G\T is its degree in G minus its tree degree, so
  // its parity (all Lemma 4 needs) is the G parity with one flip per tree
  // endpoint: O(n), without a pass over the cotree edges.  Kept as a
  // packed bitset.
  const auto n = static_cast<std::size_t>(csr.node_count());
  for (std::size_t v = 0; v < n; ++v) {
    const auto bit = static_cast<std::uint64_t>(
        csr.degree(static_cast<NodeId>(v)) & 1);
    ws.odd_parity[v >> 6] |= bit << (v & 63);
  }
  for (EdgeId e : ws.tree) {
    ws.in_tree[static_cast<std::size_t>(e)] = 1;
    const Edge& edge = csr.edge(e);
    parity_flip(ws.odd_parity, edge.u);
    parity_flip(ws.odd_parity, edge.v);
  }

  // E_odd: tree edges with odd V_odd count below (Lemma 4, pairing-free).
  root_forest(csr, ws.tree, ws.forest, &arena);
  odd_subtree_edges_parity(ws.forest, ws.odd_parity, ws.e_odd, &arena);

  // G'' = E_odd ∪ (E \ T): all degrees even by the Lemma 4 parity
  // argument, so the Euler walks need no component labelling.
  const auto m = static_cast<std::size_t>(csr.edge_count());
  for (std::size_t e = 0; e < m; ++e) ws.g2_mask[e] = ws.in_tree[e] ^ 1;
  for (EdgeId e : ws.e_odd) ws.g2_mask[static_cast<std::size_t>(e)] = 1;

  ArenaWalkList walks =
      euler_decomposition(csr, ws.g2_mask, arena, MaskDegrees::kAllEven);

  // Backbones: one skeleton per Euler tour; record the first backbone
  // position of every node for branch attachment.
  ArenaSkeletonCover cover{ArenaAllocator<ArenaSkeleton>(&arena)};
  using Site = GroomingWorkspace::Site;
  for (ArenaWalk& walk : walks) {
    std::size_t idx = cover.size();
    for (std::size_t pos = 0; pos < walk.nodes.size(); ++pos) {
      auto v = static_cast<std::size_t>(walk.nodes[pos]);
      if (!ws.on_backbone[v]) {
        ws.on_backbone[v] = 1;
        ws.site[v] = Site{idx, pos};
      }
    }
    cover.push_back(ArenaSkeleton::from_walk(std::move(walk), &arena));
  }

  // Branches: E(T) \ E_odd.  Attach to an existing backbone when possible;
  // otherwise open a singleton skeleton at one endpoint (the paper's
  // degenerate one-node Euler path) so later branches can share it.  With
  // smart_branches, anchor each branch at its busier endpoint so branches
  // cluster at hubs and large parts share nodes.
  auto is_branch = [&](EdgeId e) {
    return ws.in_tree[static_cast<std::size_t>(e)] &&
           !ws.g2_mask[static_cast<std::size_t>(e)];
  };
  if (options.smart_branches) {
    for (EdgeId e = 0; e < csr.edge_count(); ++e) {
      if (!is_branch(e)) continue;
      ++ws.branch_degree[static_cast<std::size_t>(csr.edge(e).u)];
      ++ws.branch_degree[static_cast<std::size_t>(csr.edge(e).v)];
    }
  }
  for (EdgeId e = 0; e < csr.edge_count(); ++e) {
    if (!is_branch(e)) continue;
    const Edge& edge = csr.edge(e);
    bool u_ok = ws.on_backbone[static_cast<std::size_t>(edge.u)];
    bool v_ok = ws.on_backbone[static_cast<std::size_t>(edge.v)];
    NodeId anchor;
    if (u_ok && v_ok && options.smart_branches) {
      anchor = ws.branch_degree[static_cast<std::size_t>(edge.v)] >
                       ws.branch_degree[static_cast<std::size_t>(edge.u)]
                   ? edge.v
                   : edge.u;
    } else if (u_ok) {
      anchor = edge.u;
    } else if (v_ok) {
      anchor = edge.v;
    } else {
      anchor = options.smart_branches &&
                       ws.branch_degree[static_cast<std::size_t>(edge.v)] >
                           ws.branch_degree[static_cast<std::size_t>(edge.u)]
                   ? edge.v
                   : edge.u;
      ws.on_backbone[static_cast<std::size_t>(anchor)] = 1;
      ws.site[static_cast<std::size_t>(anchor)] = Site{cover.size(), 0};
      cover.push_back(ArenaSkeleton::single_node(anchor, &arena));
    }
    const Site& s = ws.site[static_cast<std::size_t>(anchor)];
    cover[s.skeleton].add_branch(s.position, e);
  }
  return cover;
}

}  // namespace

EdgePartition spant_euler(const CsrGraph& g, int k,
                          const GroomingOptions& options,
                          SpanTEulerTrace* trace,
                          GroomingWorkspace* workspace) {
  check_algorithm_input(g, k);

  GroomingWorkspace local;
  GroomingWorkspace& ws = workspace ? *workspace : local;
  ws.prepare_for(g);

  ArenaSkeletonCover cover = build_cover(g, ws, options);

  if (trace) {
    trace->tree = ws.tree;
    trace->e_odd = ws.e_odd;
    ws.cotree.resize(ws.in_tree.size());
    for (std::size_t e = 0; e < ws.in_tree.size(); ++e) {
      ws.cotree[e] = ws.in_tree[e] ^ 1;
    }
    trace->g2_component_count =
        connected_components_masked(g, ws.cotree).count;
    trace->cover_size = cover.size();
    trace->cover.clear();
    if (trace->want_cover) {
      trace->cover.reserve(cover.size());
      for (const ArenaSkeleton& s : cover) {
        trace->cover.push_back(s.to_skeleton());
      }
    }
  }
  return partition_from_cover(g, cover, k, ws.arena);
}

namespace {

// One skeleton's canonical edge order translated to global ids, plus its
// position in the sequential cover order.  phase 0 = Euler-walk skeleton
// keyed by the minimum global node id on its walk (= the minimum node of
// its masked G'' component, which fixes its euler_decomposition emission
// rank); phase 1 = singleton skeleton keyed by the global id of the branch
// edge that created it (the branch loop scans edges in ascending id order,
// and a singleton's creating edge is the first entry of its canonical
// order).  Keys are unique across components — node and edge sets are
// disjoint — so sorting by (phase, key) reconstructs the sequential cover
// order exactly, for any chunking.
struct MergeSeq {
  int phase = 0;
  long long key = 0;
  ArenaVector<EdgeId> edges;
};

// Per-chunk state: a private workspace (rewound per component) plus a
// second arena for the merge sequences, which must stay alive across
// component rewinds until the final merge consumes them.
struct ChunkState {
  GroomingWorkspace ws;
  MonotonicArena out_arena;
  std::vector<MergeSeq> seqs;
};

void run_component_chunk(const CsrGraph& csr, const ComponentSplit& split,
                         std::size_t c_begin, std::size_t c_end,
                         const GroomingOptions& options, ChunkState& chunk) {
  for (std::size_t c = c_begin; c < c_end; ++c) {
    auto comp_nodes = split.component_nodes(c);
    auto comp_edges = split.component_edges(c);
    if (comp_edges.empty()) continue;  // isolated nodes cover no edges
    chunk.ws.csr.rebuild_subgraph(csr, comp_nodes, comp_edges,
                                  split.local_node);
    chunk.ws.prepare_for(chunk.ws.csr);
    ArenaSkeletonCover cover = build_cover(chunk.ws.csr, chunk.ws, options);
    for (const ArenaSkeleton& s : cover) {
      MergeSeq seq;
      seq.edges = ArenaVector<EdgeId>(
          s.size(), ArenaAllocator<EdgeId>(&chunk.out_arena));
      s.write_canonical_order(seq.edges.data(), chunk.ws.arena);
      for (EdgeId& e : seq.edges) e = comp_edges[static_cast<std::size_t>(e)];
      if (s.walk_edges().empty()) {
        seq.phase = 1;
        seq.key = seq.edges.front();
      } else {
        NodeId local_min = s.walk_nodes().front();
        for (NodeId v : s.walk_nodes()) local_min = std::min(local_min, v);
        seq.phase = 0;
        seq.key = comp_nodes[static_cast<std::size_t>(local_min)];
      }
      chunk.seqs.push_back(std::move(seq));
    }
  }
}

}  // namespace

EdgePartition spant_euler_parallel(const CsrGraph& g, int k,
                                   const GroomingOptions& options,
                                   ThreadPool* pool,
                                   GroomingWorkspace* workspace) {
  // Only component-local tree policies reproduce the sequential forest on
  // a renumbered component; kRandom draws one global edge shuffle and
  // kMinMaxDegree's local search sees the whole graph.
  const bool component_local =
      options.tree_policy == TreePolicy::kBfs ||
      options.tree_policy == TreePolicy::kDfs;
  if (pool == nullptr || !component_local) {
    return spant_euler(g, k, options, nullptr, workspace);
  }

  check_algorithm_input(g, k);
  GroomingWorkspace local;
  GroomingWorkspace& ws = workspace ? *workspace : local;
  ws.prepare_for(g);

  const Components comp = connected_components(g, &ws.arena);
  if (comp.count <= 1) {
    ArenaSkeletonCover cover = build_cover(g, ws, options);
    return partition_from_cover(g, cover, k, ws.arena);
  }

  const ComponentSplit split = split_components(g, comp);
  const auto count = static_cast<std::size_t>(comp.count);

  // Contiguous component ranges balanced by edge count (≈4 chunks per
  // worker so a giant component does not serialize the tail).  The output
  // does not depend on the chunking; only load balance does.
  const std::size_t workers = pool->worker_count();
  const std::size_t num_chunks =
      workers == 0 ? 1 : std::min(count, workers * 4);
  const auto m = static_cast<std::size_t>(g.edge_count());
  const std::size_t target = (m + num_chunks - 1) / num_chunks;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t begin = 0;
  std::size_t acc = 0;
  for (std::size_t c = 0; c < count; ++c) {
    acc += split.edge_offset[c + 1] - split.edge_offset[c];
    if (acc >= target && c + 1 < count) {
      ranges.emplace_back(begin, c + 1);
      begin = c + 1;
      acc = 0;
    }
  }
  ranges.emplace_back(begin, count);

  std::vector<std::unique_ptr<ChunkState>> chunks;
  chunks.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    chunks.push_back(std::make_unique<ChunkState>());
  }
  std::vector<std::future<void>> futures;
  futures.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    ChunkState* chunk = chunks[i].get();
    auto range = ranges[i];
    futures.push_back(pool->submit([&g, &split, &options, chunk, range] {
      run_component_chunk(g, split, range.first, range.second, options,
                          *chunk);
    }));
  }
  // Wait for EVERY chunk before rethrowing so no task still references
  // stack state when an exception unwinds (same pattern as the batch
  // engine).
  for (auto& f : futures) f.wait();
  for (auto& f : futures) f.get();

  std::vector<const MergeSeq*> order;
  std::size_t total = 0;
  for (const auto& chunk : chunks) {
    for (const MergeSeq& seq : chunk->seqs) {
      order.push_back(&seq);
      total += seq.edges.size();
    }
  }
  std::sort(order.begin(), order.end(),
            [](const MergeSeq* a, const MergeSeq* b) {
              return a->phase != b->phase ? a->phase < b->phase
                                          : a->key < b->key;
            });

  std::vector<EdgeId> ids;
  ids.reserve(total);
  for (const MergeSeq* seq : order) {
    ids.insert(ids.end(), seq->edges.begin(), seq->edges.end());
  }
  EdgePartition partition;
  partition.k = k;
  partition.parts = FlatParts::chunks(std::move(ids), k);
  return partition;
}

long long spant_euler_cost_bound(long long real_edges, int k,
                                 int gminus_t_components) {
  return prop2_cost_bound(real_edges, k,
                          static_cast<std::size_t>(
                              std::max(1, gminus_t_components)));
}

}  // namespace tgroom
