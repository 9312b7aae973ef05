#include "client/leaf_cache.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

namespace hydra::client {

namespace {

constexpr auto kBeforeLeaf = [](const auto& slot, std::uint64_t id) { return slot.leaf < id; };

}  // namespace

std::vector<LeafCache::Slot>::iterator LeafCache::ShardLeaves::slot(std::uint64_t leaf_id) {
  return std::lower_bound(slots.begin(), slots.end(), leaf_id, kBeforeLeaf);
}

std::vector<LeafCache::First>::iterator LeafCache::ShardLeaves::lower_bound(
    std::string_view k) {
  return std::lower_bound(by_first.begin(), by_first.end(), k,
                          [this](const First& f, std::string_view v) { return key(f) < v; });
}

void LeafCache::ShardLeaves::forget(std::uint64_t leaf_id) {
  std::erase_if(by_first, [&](const First& f) {
    if (f.leaf != leaf_id) return false;
    pool_garbage += f.len;
    return true;
  });
  if (pool_garbage <= pool.size() / 2) return;
  // Mostly garbage: repack the live keys.
  std::string packed;
  packed.reserve(pool.size() - pool_garbage);
  for (First& f : by_first) {
    const std::string_view k = key(f);
    f.off = static_cast<std::uint32_t>(packed.size());
    packed.append(k);
  }
  pool = std::move(packed);
  pool_garbage = 0;
}

bool LeafCache::adopt(std::uint64_t epoch) {
  if (epoch < epoch_) return false;
  if (epoch > epoch_) {
    shards_.clear();
    size_ = 0;
    epoch_ = epoch;
  }
  return true;
}

void LeafCache::add(ShardId shard, const proto::ScanLeafHint& hint) {
  ShardLeaves& sl = shards_[shard];
  sl.node = hint.node;
  sl.rkey = hint.rkey;
  const auto it = sl.slot(hint.leaf_id);
  if (it != sl.slots.end() && it->leaf == hint.leaf_id) {
    it->offset = hint.offset;
    it->len = hint.len;
    return;
  }
  if (size_ >= kCapacity) return;
  sl.slots.insert(it, Slot{hint.leaf_id, hint.offset, hint.len});
  ++size_;
}

void LeafCache::learn(ShardId shard, std::uint64_t leaf_id, const std::string* first_key,
                      bool head) {
  ShardLeaves& sl = shards_[shard];
  const auto it = sl.slot(leaf_id);
  if (it == sl.slots.end() || it->leaf != leaf_id) return;
  if (head) sl.head = leaf_id;
  if (first_key != nullptr) {
    const auto pos = sl.lower_bound(*first_key);
    if (pos != sl.by_first.end() && sl.key(*pos) == *first_key && pos->leaf == leaf_id) {
      return;
    }
  }
  sl.forget(leaf_id);
  if (first_key == nullptr) return;
  // A key starts one leaf at a time; a leaf it used to start is stale.
  const auto pos = sl.lower_bound(*first_key);
  if (pos != sl.by_first.end() && sl.key(*pos) == *first_key) {
    pos->leaf = leaf_id;
    return;
  }
  if (sl.pool.size() + first_key->size() > std::numeric_limits<std::uint32_t>::max()) return;
  const First f{static_cast<std::uint32_t>(sl.pool.size()),
                static_cast<std::uint32_t>(first_key->size()), leaf_id};
  sl.pool.append(*first_key);
  sl.by_first.insert(pos, f);
}

void LeafCache::erase(ShardId shard, std::uint64_t leaf_id) {
  const auto sit = shards_.find(shard);
  if (sit == shards_.end()) return;
  ShardLeaves& sl = sit->second;
  const auto it = sl.slot(leaf_id);
  if (it == sl.slots.end() || it->leaf != leaf_id) return;
  sl.slots.erase(it);
  sl.forget(leaf_id);
  if (sl.head == leaf_id) sl.head = 0;
  --size_;
}

std::optional<LeafCache::Page> LeafCache::find(ShardId shard, std::uint64_t leaf_id) const {
  const auto sit = shards_.find(shard);
  if (sit == shards_.end()) return std::nullopt;
  const ShardLeaves& sl = sit->second;
  const auto it = std::lower_bound(sl.slots.begin(), sl.slots.end(), leaf_id, kBeforeLeaf);
  if (it == sl.slots.end() || it->leaf != leaf_id) return std::nullopt;
  return Page{it->offset, sl.node, sl.rkey, it->len};
}

std::uint64_t LeafCache::start(ShardId shard, std::string_view key) const {
  const auto sit = shards_.find(shard);
  if (sit == shards_.end()) return 0;
  const ShardLeaves& sl = sit->second;
  const auto it = std::upper_bound(
      sl.by_first.begin(), sl.by_first.end(), key,
      [&sl](std::string_view v, const First& f) { return v < sl.key(f); });
  if (it != sl.by_first.begin()) return std::prev(it)->leaf;
  return sl.head;
}

}  // namespace hydra::client
