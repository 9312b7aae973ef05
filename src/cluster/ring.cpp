#include "cluster/ring.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace hydra::cluster {
namespace {

std::uint64_t vnode_point(ShardId shard, int replica) noexcept {
  return mix64((static_cast<std::uint64_t>(shard) << 32) ^
               static_cast<std::uint64_t>(replica) ^ 0x9E3779B97F4A7C15ULL);
}

}  // namespace

std::uint64_t ConsistentHashRing::point(ShardId shard, int replica) const {
  return point_fn_ ? point_fn_(shard, replica) : vnode_point(shard, replica);
}

void ConsistentHashRing::add_shard(ShardId shard) {
  if (shards_.contains(shard)) return;
  shards_[shard] = vnodes_;
  for (int i = 0; i < vnodes_; ++i) {
    // Sorted insert keeps the tie-break (lowest ShardId wins) an invariant
    // of the structure rather than a lookup-time decision.
    const std::pair<std::uint64_t, ShardId> vnode{point(shard, i), shard};
    points_.insert(std::upper_bound(points_.begin(), points_.end(), vnode), vnode);
  }
  ++version_;
}

void ConsistentHashRing::remove_shard(ShardId shard) {
  if (shards_.erase(shard) == 0) return;
  // A collision runner-up (next-lowest ShardId) inherits each contested
  // point; a point disappears only when no shard hashes there anymore.
  std::erase_if(points_, [shard](const auto& vnode) { return vnode.second == shard; });
  ++version_;
}

ShardId ConsistentHashRing::owner(std::uint64_t key_hash) const noexcept {
  if (points_.empty()) return kInvalidShard;
  auto it = std::lower_bound(points_.begin(), points_.end(), key_hash,
                             [](const auto& vnode, std::uint64_t h) { return vnode.first < h; });
  if (it == points_.end()) it = points_.begin();  // wrap around
  return it->second;
}

bool ConsistentHashRing::contains(ShardId shard) const noexcept {
  return shards_.contains(shard);
}

std::vector<ShardId> ConsistentHashRing::shards() const {
  std::vector<ShardId> out;
  out.reserve(shards_.size());
  for (const auto& [id, _] : shards_) out.push_back(id);
  return out;
}

}  // namespace hydra::cluster
