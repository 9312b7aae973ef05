#include "core/store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/hash.hpp"

namespace hydra::core {

KVStore::KVStore(StoreConfig cfg)
    : config_(cfg), arena_(cfg.arena_bytes), table_(arena_, cfg.min_buckets) {
  if (config_.ordered_index) {
    index_ = std::make_unique<index::OrderedIndex>(config_.index_fanout);
  }
}

Duration KVStore::lease_term(std::uint32_t access_count) const noexcept {
  // Doubling schedule: count 1 -> min, 2..3 -> 2*min, 4..7 -> 4*min, ...
  const unsigned log2c = access_count == 0 ? 0u : static_cast<unsigned>(std::bit_width(access_count) - 1);
  const Duration term = config_.min_lease << std::min(log2c, 6u);
  return std::min(term, config_.max_lease);
}

std::uint64_t KVStore::make_item(std::string_view key, std::string_view value,
                                 std::uint64_t version, Time now) {
  const std::size_t size = item_size(key.size(), value.size());
  const std::uint64_t offset = arena_.allocate(size);
  if (offset == kNullOffset) {
    ++stats_.oom_failures;
    return kNullOffset;
  }
  ItemView item(arena_.at(offset));
  item.initialize(key, value, version, now + lease_term(1));
  return offset;
}

void KVStore::retire(std::uint64_t offset, Time now) {
  ItemView old(arena_.at(offset));
  old.set_guardian(kGuardianDead);
  // The memory stays intact until every lease that may cover a cached
  // remote pointer has lapsed; only then is reuse safe.
  const Time free_after = std::max<Time>(old.header().lease_expiry, now);
  deferred_.push(Deferred{free_after, offset, static_cast<std::uint32_t>(old.total_size())});
}

Result<GetView> KVStore::get(std::string_view key, Time now, bool grant_lease) {
  ++stats_.gets;
  const std::uint64_t hash = hash_key(key);
  const std::uint64_t offset = table_.find(hash, key);
  if (offset == kNullOffset) {
    ++stats_.get_misses;
    return Status::kNotFound;
  }
  if (grant_lease) {
    ItemHeader& h = ItemView(arena_.at(offset)).header();
    if (h.access_count != ~std::uint32_t{0}) ++h.access_count;
    h.lease_expiry = std::max<Time>(h.lease_expiry, now + lease_term(h.access_count));
  }
  return view_at(offset);
}

GetView KVStore::view_at(std::uint64_t offset) {
  ItemView item(arena_.at(offset));
  GetView view;
  view.offset = offset;
  view.total_len = static_cast<std::uint32_t>(item.total_size());
  view.version = item.header().version;
  view.lease_expiry = item.header().lease_expiry;
  view.value = item.value();
  return view;
}

bool KVStore::accepts(std::string_view key, std::string_view value) const noexcept {
  return !key.empty() && key.size() <= kMaxKeyLen && value.size() <= kMaxValLen;
}

Status KVStore::insert(std::string_view key, std::string_view value, Time now,
                       GetView* written) {
  if (!accepts(key, value)) return Status::kInvalidArgument;
  const std::uint64_t hash = hash_key(key);
  const CompactHashTable::Probe probe = table_.probe(hash, key);
  if (probe.found()) return Status::kExists;
  return insert_at(probe, hash, key, value, now, written);
}

Status KVStore::update(std::string_view key, std::string_view value, Time now,
                       GetView* written) {
  if (!accepts(key, value)) return Status::kInvalidArgument;
  const std::uint64_t hash = hash_key(key);
  const CompactHashTable::Probe probe = table_.probe(hash, key);
  if (!probe.found()) return Status::kNotFound;
  return update_at(probe, hash, key, value, now, written);
}

Status KVStore::put(std::string_view key, std::string_view value, Time now,
                    GetView* written) {
  return put(hash_key(key), key, value, now, written);
}

Status KVStore::put(std::uint64_t hash, std::string_view key, std::string_view value, Time now,
                    GetView* written) {
  assert(hash == hash_key(key));
  if (!accepts(key, value)) return Status::kInvalidArgument;
  const CompactHashTable::Probe probe = table_.probe(hash, key);
  return probe.found() ? update_at(probe, hash, key, value, now, written)
                       : insert_at(probe, hash, key, value, now, written);
}

Status KVStore::insert_at(const CompactHashTable::Probe& probe, std::uint64_t hash,
                          std::string_view key, std::string_view value, Time now,
                          GetView* written) {
  const std::uint64_t offset = make_item(key, value, /*version=*/1, now);
  if (offset == kNullOffset) return Status::kOutOfMemory;
  if (table_.insert_at(probe, hash, offset) == CompactHashTable::InsertResult::kNoMemory) {
    arena_.deallocate(offset, item_size(key.size(), value.size()));
    ++stats_.oom_failures;
    return Status::kOutOfMemory;
  }
  if (index_) index_->insert_or_assign(key, offset);
  ++stats_.inserts;
  if (written != nullptr) *written = view_at(offset);
  return Status::kOk;
}

Status KVStore::update_at(const CompactHashTable::Probe& probe, std::uint64_t hash,
                          std::string_view key, std::string_view value, Time now,
                          GetView* written) {
  const std::uint64_t old_offset = CompactHashTable::offset_at(probe);
  ItemView old(arena_.at(old_offset));
  const std::uint64_t new_version = old.header().version + 1;
  const std::uint32_t popularity = old.header().access_count;

  // Out-of-place: build the new item first, then flip the old guardian and
  // swing the index. A concurrent RDMA Read sees either the old live item,
  // the old dead item, or (via a fresh pointer) the new one -- never a
  // half-written value.
  const std::uint64_t new_offset = make_item(key, value, new_version, now);
  if (new_offset == kNullOffset) return Status::kOutOfMemory;
  ItemView fresh(arena_.at(new_offset));
  fresh.header().access_count = popularity;  // popularity survives updates
  fresh.header().lease_expiry = now + lease_term(popularity);

  retire(old_offset, now);
  table_.replace_at(probe, hash, new_offset);
  if (index_) index_->insert_or_assign(key, new_offset);
  ++stats_.updates;
  if (written != nullptr) *written = view_at(new_offset);
  return Status::kOk;
}

Status KVStore::remove(std::string_view key, Time now) {
  const std::uint64_t hash = hash_key(key);
  const std::uint64_t offset = table_.erase(hash, key);
  if (offset == kNullOffset) return Status::kNotFound;
  retire(offset, now);
  if (index_) index_->erase(key);
  ++stats_.removes;
  return Status::kOk;
}

Status KVStore::renew_lease(std::string_view key, Time now) {
  const std::uint64_t hash = hash_key(key);
  const std::uint64_t offset = table_.find(hash, key);
  if (offset == kNullOffset) return Status::kNotFound;
  ItemView item(arena_.at(offset));
  ItemHeader& h = item.header();
  h.lease_expiry = std::max<Time>(h.lease_expiry, now + lease_term(h.access_count));
  return Status::kOk;
}

std::size_t KVStore::collect_garbage(Time now) {
  std::size_t freed = 0;
  while (!deferred_.empty() && deferred_.top().free_after <= now) {
    const Deferred d = deferred_.top();
    deferred_.pop();
    arena_.deallocate(d.offset, d.size);
    ++freed;
    ++stats_.reclaimed_items;
  }
  return freed;
}

Time KVStore::next_reclaim_due() const noexcept {
  return deferred_.empty() ? 0 : deferred_.top().free_after;
}

}  // namespace hydra::core
