#include "partition/skeleton.hpp"

#include <algorithm>

namespace tgroom {

Skeleton Skeleton::single_node(NodeId v) {
  Skeleton s;
  s.walk_nodes_ = {v};
  s.branches_at_.resize(1);
  return s;
}

Skeleton Skeleton::from_walk(Walk walk) {
  TGROOM_CHECK_MSG(!walk.nodes.empty(), "walk must have at least one node");
  Skeleton s;
  s.walk_nodes_ = std::move(walk.nodes);
  s.walk_edges_ = std::move(walk.edges);
  s.branches_at_.resize(s.walk_nodes_.size());
  return s;
}

void Skeleton::add_branch(std::size_t pos, EdgeId e) {
  TGROOM_CHECK(pos < branches_at_.size());
  branches_at_[pos].push_back(e);
}

std::size_t Skeleton::size() const {
  std::size_t total = walk_edges_.size();
  for (const auto& bucket : branches_at_) total += bucket.size();
  return total;
}

std::vector<EdgeId> Skeleton::canonical_order() const {
  std::vector<EdgeId> order;
  order.reserve(size());
  for (std::size_t pos = 0; pos < walk_nodes_.size(); ++pos) {
    for (EdgeId b : branches_at_[pos]) order.push_back(b);
    if (pos < walk_edges_.size()) order.push_back(walk_edges_[pos]);
  }
  return order;
}

bool Skeleton::validate(const Graph& g) const {
  if (walk_nodes_.empty()) return false;
  if (walk_edges_.size() + 1 != walk_nodes_.size()) return false;
  if (branches_at_.size() != walk_nodes_.size()) return false;
  Walk walk{walk_nodes_, walk_edges_};
  if (!walk.edges.empty() || walk.nodes.size() == 1) {
    if (!is_valid_walk(g, walk)) return false;
  }
  std::vector<char> seen(static_cast<std::size_t>(g.edge_count()), 0);
  for (EdgeId e : walk_edges_) {
    if (seen[static_cast<std::size_t>(e)]) return false;
    seen[static_cast<std::size_t>(e)] = 1;
  }
  for (std::size_t pos = 0; pos < branches_at_.size(); ++pos) {
    for (EdgeId e : branches_at_[pos]) {
      if (e < 0 || e >= g.edge_count()) return false;
      if (seen[static_cast<std::size_t>(e)]) return false;
      seen[static_cast<std::size_t>(e)] = 1;
      if (!g.edge(e).has_endpoint(walk_nodes_[pos])) return false;
    }
  }
  return true;
}

ArenaSkeleton::ArenaSkeleton(MonotonicArena* arena)
    : walk_nodes_(ArenaAllocator<NodeId>(arena)),
      walk_edges_(ArenaAllocator<EdgeId>(arena)),
      branches_(ArenaAllocator<Branch>(arena)) {}

ArenaSkeleton ArenaSkeleton::single_node(NodeId v, MonotonicArena* arena) {
  ArenaSkeleton s(arena);
  s.walk_nodes_.push_back(v);
  return s;
}

ArenaSkeleton ArenaSkeleton::from_walk(ArenaWalk&& walk,
                                       MonotonicArena* arena) {
  TGROOM_CHECK_MSG(!walk.nodes.empty(), "walk must have at least one node");
  ArenaSkeleton s(arena);
  s.walk_nodes_ = std::move(walk.nodes);
  s.walk_edges_ = std::move(walk.edges);
  return s;
}

void ArenaSkeleton::add_branch(std::size_t pos, EdgeId e) {
  TGROOM_CHECK(pos < walk_nodes_.size());
  branches_.push_back(Branch{static_cast<std::uint32_t>(pos), e});
}

void ArenaSkeleton::write_canonical_order(EdgeId* out,
                                          MonotonicArena& scratch) const {
  if (branches_.empty()) {
    std::copy(walk_edges_.begin(), walk_edges_.end(), out);
    return;
  }
  if (walk_edges_.empty()) {  // every branch hangs off position 0
    for (const Branch& b : branches_) *out++ = b.edge;
    return;
  }
  // before[pos] = number of branches at positions < pos.  Backbone edge i
  // follows every branch at positions <= i and the i backbone edges before
  // it; a branch at pos follows the branches before it at pos, in
  // attachment order.
  ArenaVector<std::uint32_t> before(walk_nodes_.size() + 1, 0,
                                    ArenaAllocator<std::uint32_t>(&scratch));
  for (const Branch& b : branches_) ++before[b.position + 1];
  for (std::size_t pos = 1; pos < before.size(); ++pos) {
    before[pos] += before[pos - 1];
  }
  for (std::size_t i = 0; i < walk_edges_.size(); ++i) {
    out[before[i + 1] + i] = walk_edges_[i];
  }
  for (const Branch& b : branches_) {
    out[before[b.position]++ + b.position] = b.edge;
  }
}

Skeleton ArenaSkeleton::to_skeleton() const {
  Walk w;
  w.nodes.assign(walk_nodes_.begin(), walk_nodes_.end());
  w.edges.assign(walk_edges_.begin(), walk_edges_.end());
  Skeleton s = Skeleton::from_walk(std::move(w));
  for (const Branch& b : branches_) s.add_branch(b.position, b.edge);
  return s;
}

std::pair<Skeleton, Skeleton> split_skeleton(const Graph& g,
                                             const Skeleton& skeleton,
                                             std::size_t t) {
  (void)g;
  TGROOM_CHECK_MSG(t <= skeleton.size(), "split point beyond skeleton size");
  const auto& nodes = skeleton.walk_nodes();
  const auto& walk_edges = skeleton.walk_edges();
  const auto& branches = skeleton.branches_at();

  Skeleton first;
  Skeleton second;
  std::size_t consumed = 0;
  // Scan positions; once `consumed` reaches t, the current position becomes
  // the shared pivot node: the prefix keeps the backbone up to the pivot
  // and the suffix restarts its backbone there.
  std::size_t pivot = nodes.size() - 1;
  std::size_t branch_split = 0;  // how many pivot branches go to the prefix
  bool pivot_found = false;
  for (std::size_t pos = 0; pos < nodes.size() && !pivot_found; ++pos) {
    std::size_t bucket = branches[pos].size();
    if (consumed + bucket >= t) {
      pivot = pos;
      branch_split = t - consumed;
      pivot_found = true;
      break;
    }
    consumed += bucket;
    if (pos < walk_edges.size()) {
      ++consumed;
      if (consumed == t) {
        pivot = pos + 1;
        branch_split = 0;
        pivot_found = true;
      }
    }
  }
  TGROOM_CHECK(pivot_found);

  // Prefix: backbone nodes[0..pivot], all earlier branches, and the first
  // `branch_split` branches at the pivot.
  first = Skeleton::single_node(nodes[0]);
  {
    Walk w;
    w.nodes.assign(nodes.begin(), nodes.begin() + static_cast<long>(pivot) + 1);
    w.edges.assign(walk_edges.begin(),
                   walk_edges.begin() + static_cast<long>(pivot));
    first = Skeleton::from_walk(std::move(w));
    for (std::size_t pos = 0; pos < pivot; ++pos) {
      for (EdgeId b : branches[pos]) first.add_branch(pos, b);
    }
    for (std::size_t i = 0; i < branch_split; ++i) {
      first.add_branch(pivot, branches[pivot][i]);
    }
  }

  // Suffix: backbone nodes[pivot..end], remaining pivot branches, and all
  // later branches.
  {
    Walk w;
    w.nodes.assign(nodes.begin() + static_cast<long>(pivot), nodes.end());
    w.edges.assign(walk_edges.begin() + static_cast<long>(pivot),
                   walk_edges.end());
    second = Skeleton::from_walk(std::move(w));
    for (std::size_t i = branch_split; i < branches[pivot].size(); ++i) {
      second.add_branch(0, branches[pivot][i]);
    }
    for (std::size_t pos = pivot + 1; pos < nodes.size(); ++pos) {
      for (EdgeId b : branches[pos]) second.add_branch(pos - pivot, b);
    }
  }

  TGROOM_DCHECK(first.size() == t);
  TGROOM_DCHECK(second.size() == skeleton.size() - t);
  return {std::move(first), std::move(second)};
}

bool validate_cover(const Graph& g, const SkeletonCover& cover) {
  std::vector<char> seen(static_cast<std::size_t>(g.edge_count()), 0);
  for (const Skeleton& s : cover) {
    if (!s.validate(g)) return false;
    for (EdgeId e : s.canonical_order()) {
      if (seen[static_cast<std::size_t>(e)]) return false;
      seen[static_cast<std::size_t>(e)] = 1;
    }
  }
  return true;
}

bool cover_spans_all_edges(const Graph& g, const SkeletonCover& cover) {
  std::vector<char> seen(static_cast<std::size_t>(g.edge_count()), 0);
  for (const Skeleton& s : cover) {
    for (EdgeId e : s.canonical_order()) {
      if (e < 0 || e >= g.edge_count()) return false;
      if (seen[static_cast<std::size_t>(e)]) return false;
      seen[static_cast<std::size_t>(e)] = 1;
    }
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!g.edge(e).is_virtual && !seen[static_cast<std::size_t>(e)])
      return false;
  }
  return true;
}

}  // namespace tgroom
