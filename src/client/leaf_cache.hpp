// Client-side leaf-page cache for one-sided scans (DESIGN.md §13).
//
// Co-located clients share one cache, like the remote-pointer cache. Per
// shard it remembers where each leaf's mirror page lives (the hint a kScan
// batch advertised), the first key a validated read of the page showed, and
// which leaf is the shard's head. A scan stream starts at the page with the
// greatest first key at or below its resume key (or at the head) and walks
// on by the successor ids the pages name. Nothing here is trusted: every
// read is validated against the page itself, and the shard poisons a page
// whenever its leaf changes, so a stale entry only costs a failed read.
//
// The cache is scoped to one routing epoch: a newer epoch clears it, and a
// cursor still on an older epoch neither reads nor changes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "proto/messages.hpp"

namespace hydra::client {

class LeafCache {
 public:
  /// Most leaves the cache holds, the pointer cache's bound; past it new
  /// leaves are not added.
  static constexpr std::size_t kCapacity = 64 * 1024;

  /// Where a leaf's mirror page lives.
  struct Page {
    std::uint64_t offset = 0;
    NodeId node = kInvalidNode;
    std::uint32_t rkey = 0;
    std::uint32_t len = 0;
  };

  /// Scopes the cache to `epoch`: a newer epoch clears it. Returns false
  /// when `epoch` is older than the cache's, and the caller must leave the
  /// cache alone.
  bool adopt(std::uint64_t epoch);

  /// Records (or moves) the page of `hint.leaf_id` on `shard`.
  void add(ShardId shard, const proto::ScanLeafHint& hint);
  /// Records what a validated read of `leaf_id` showed: its first key
  /// (none for an empty page) and whether it is the shard's head leaf.
  void learn(ShardId shard, std::uint64_t leaf_id, const std::string* first_key, bool head);
  /// Forgets a leaf whose read failed.
  void erase(ShardId shard, std::uint64_t leaf_id);

  [[nodiscard]] std::optional<Page> find(ShardId shard, std::uint64_t leaf_id) const;
  /// The leaf a stream resuming at `key` starts from: the one with the
  /// greatest known first key <= `key`, else the head; 0 when neither is
  /// known.
  [[nodiscard]] std::uint64_t start(ShardId shard, std::string_view key) const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  /// Where one leaf's page sits in its shard's page region.
  struct Slot {
    std::uint64_t leaf = 0;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
  };
  /// A leaf's first key, held in the shard's key pool.
  struct First {
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    std::uint64_t leaf = 0;
  };
  /// Every client machine holds an entry per leaf of the whole cluster, so
  /// the entries are flat and sorted, and the keys share one pool. Within an
  /// epoch a shard's pages all live in one region of one node (a promotion
  /// registers a new region and advances the epoch).
  struct ShardLeaves {
    NodeId node = kInvalidNode;
    std::uint32_t rkey = 0;
    std::vector<Slot> slots;       ///< sorted by leaf
    std::vector<First> by_first;   ///< sorted by key
    std::string pool;
    std::size_t pool_garbage = 0;  ///< pool bytes no entry refers to
    std::uint64_t head = 0;

    [[nodiscard]] std::string_view key(const First& f) const {
      return std::string_view(pool).substr(f.off, f.len);
    }
    [[nodiscard]] std::vector<Slot>::iterator slot(std::uint64_t leaf_id);
    [[nodiscard]] std::vector<First>::iterator lower_bound(std::string_view k);
    void forget(std::uint64_t leaf_id);
  };

  std::uint64_t epoch_ = 0;
  std::unordered_map<ShardId, ShardLeaves> shards_;
  std::size_t size_ = 0;
};

}  // namespace hydra::client
