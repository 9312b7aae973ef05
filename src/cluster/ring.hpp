// Consistent-hash ring (Karger et al.), the client-side routing structure.
//
// Clients locate the shard owning a key from the 64-bit hash of the key
// (paper section 4). Virtual nodes smooth the load distribution; the ring
// carries a version so clients can detect stale routing after failover.
//
// Vnode hash collisions (two shards hashing to the same ring point) are
// resolved deterministically: the lowest ShardId serves the point, and the
// runner-up takes over when the winner is removed. Without the tie-break,
// ownership of a contested point depended on insertion order, so two rings
// built from the same shard set could disagree on routing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace hydra::cluster {

class ConsistentHashRing {
 public:
  /// Maps (shard, vnode replica) to a ring point. Injectable so collision
  /// handling is testable (64-bit collisions are otherwise unreachable).
  using PointFn = std::function<std::uint64_t(ShardId shard, int replica)>;

  explicit ConsistentHashRing(int vnodes_per_shard = 64, PointFn point_fn = nullptr)
      : vnodes_(vnodes_per_shard), point_fn_(std::move(point_fn)) {}

  void add_shard(ShardId shard);
  void remove_shard(ShardId shard);

  /// Shard owning this key hash; kInvalidShard when the ring is empty.
  [[nodiscard]] ShardId owner(std::uint64_t key_hash) const noexcept;

  [[nodiscard]] bool contains(ShardId shard) const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::vector<ShardId> shards() const;

 private:
  [[nodiscard]] std::uint64_t point(ShardId shard, int replica) const;

  int vnodes_;
  PointFn point_fn_;
  /// Every shard's vnodes as (point, shard), sorted: the first entry at or
  /// after a key hash serves it, and a contested point's lowest ShardId
  /// sorts first.
  std::vector<std::pair<std::uint64_t, ShardId>> points_;
  std::map<ShardId, int> shards_;
  std::uint64_t version_ = 0;
};

}  // namespace hydra::cluster
