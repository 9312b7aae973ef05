// The per-shard storage engine: compact hash table + slab arena + guardian
// words + lease-based deferred reclamation (paper sections 4.1.3 and 4.2.3).
//
// The store is deliberately single-threaded: HydraDB's exclusive-partition
// model means one shard thread owns one store outright, so there is no
// internal locking. Virtual time flows in from the caller (the shard actor)
// so lease arithmetic is simulator-driven and deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/arena.hpp"
#include "core/hash_table.hpp"
#include "core/item.hpp"
#include "index/btree.hpp"

namespace hydra::core {

/// Longest key and value the store accepts (KVStore::accepts).
inline constexpr std::size_t kMaxKeyLen = 64 * 1024;
inline constexpr std::size_t kMaxValLen = 4ull << 20;

struct StoreConfig {
  std::size_t arena_bytes = 64ull << 20;
  std::size_t min_buckets = 1 << 16;
  /// Lease term bounds (paper: "varies from 1 second to 64 seconds
  /// according to the approximate popularity of such key").
  Duration min_lease = 1 * kSecond;
  Duration max_lease = 64 * kSecond;
  /// Maintain a B+-tree over the user keys for ordered range scans
  /// (DESIGN.md §13). Default off: with the index disabled the store (and
  /// every layer above it) behaves byte-identically to pre-index builds.
  bool ordered_index = false;
  std::size_t index_fanout = 32;
};

struct StoreStats {
  std::uint64_t inserts = 0;
  std::uint64_t updates = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t removes = 0;
  std::uint64_t oom_failures = 0;
  std::uint64_t reclaimed_items = 0;
};

/// What a server-handled GET returns: enough for the response message *and*
/// for minting a remote pointer (offset/len within the registered arena).
/// A successful write reports the same view of the item it just created.
struct GetView {
  std::uint64_t offset = kNullOffset;
  std::uint32_t total_len = 0;
  std::uint64_t version = 0;
  std::uint64_t lease_expiry = 0;
  std::string_view value;
};

class KVStore {
 public:
  explicit KVStore(StoreConfig cfg = {});

  KVStore(const KVStore&) = delete;
  KVStore& operator=(const KVStore&) = delete;

  /// Looks up `key`. When `grant_lease`, bumps popularity and extends the
  /// item's lease from `now` (the server-aware GET path, section 4.2.3).
  Result<GetView> get(std::string_view key, Time now, bool grant_lease = true);

  // The writes below fill `*written` (when non-null) with the new item's
  // view on success, so the caller can mint a pointer to it without a
  // second probe and without the popularity bump of a GET.

  /// Fails with kExists when the key is present.
  Status insert(std::string_view key, std::string_view value, Time now,
                GetView* written = nullptr);
  /// Fails with kNotFound when absent; otherwise an out-of-place update.
  Status update(std::string_view key, std::string_view value, Time now,
                GetView* written = nullptr);
  /// Upsert: insert or out-of-place update, with one probe of the table.
  Status put(std::string_view key, std::string_view value, Time now,
             GetView* written = nullptr);
  /// put() for a caller that already holds `hash` == hash_key(key), such as
  /// a preload writing every replica of one record.
  Status put(std::uint64_t hash, std::string_view key, std::string_view value, Time now,
             GetView* written = nullptr);
  /// Flips the guardian and defers reclamation until the lease expires.
  Status remove(std::string_view key, Time now);

  /// Extends the lease of `key` from `now` (client renewal messages).
  Status renew_lease(std::string_view key, Time now);

  /// Frees dead items whose lease has expired. Called by the shard's
  /// background reclaimer actor. Returns the number of items freed.
  std::size_t collect_garbage(Time now);

  /// Earliest virtual time at which collect_garbage will free something,
  /// or 0 when the deferred queue is empty (lets the reclaimer sleep).
  [[nodiscard]] Time next_reclaim_due() const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }
  [[nodiscard]] std::size_t deferred_count() const noexcept { return deferred_.size(); }
  [[nodiscard]] Arena& arena() noexcept { return arena_; }
  [[nodiscard]] CompactHashTable& table() noexcept { return table_; }
  [[nodiscard]] const StoreStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const StoreConfig& config() const noexcept { return config_; }

  /// The ordered index, or nullptr when `StoreConfig::ordered_index` is off.
  [[nodiscard]] index::OrderedIndex* index() noexcept { return index_.get(); }
  [[nodiscard]] const index::OrderedIndex* index() const noexcept { return index_.get(); }

  /// Value of the live item at `offset`. Only valid for offsets the table /
  /// ordered index currently hold (live items are never moved; updates swap
  /// in a fresh item and retire the old offset).
  [[nodiscard]] std::string_view value_at(std::uint64_t offset) {
    return ItemView(arena_.at(offset)).value();
  }

  /// Popularity-scaled lease term: 1s for cold keys doubling up to 64s.
  [[nodiscard]] Duration lease_term(std::uint32_t access_count) const noexcept;

  /// Deterministic walk over every live item: `fn(key, value, version)`.
  /// Table entries always reference live items (updates and removes swap
  /// them out before retiring), so no liveness filtering is needed. Used by
  /// failover to bootstrap a replacement replica's store.
  template <typename Fn>
  void for_each(Fn&& fn) {
    table_.for_each_offset([&](std::uint64_t offset) {
      ItemView view(arena_.at(offset));
      fn(view.key(), view.value(), view.header().version);
    });
  }

 private:
  struct Deferred {
    Time free_after;
    std::uint64_t offset;
    std::uint32_t size;
    bool operator>(const Deferred& o) const noexcept { return free_after > o.free_after; }
  };

  /// Key and value lengths within the configured limits (key non-empty).
  [[nodiscard]] bool accepts(std::string_view key, std::string_view value) const noexcept;
  /// Inserts a key `probe` missed / out-of-place updates the item it found.
  Status insert_at(const CompactHashTable::Probe& probe, std::uint64_t hash,
                   std::string_view key, std::string_view value, Time now,
                   GetView* written);
  Status update_at(const CompactHashTable::Probe& probe, std::uint64_t hash,
                   std::string_view key, std::string_view value, Time now,
                   GetView* written);
  /// The view of the live item at `offset`.
  [[nodiscard]] GetView view_at(std::uint64_t offset);
  /// Allocates + initializes a fresh item; kNullOffset on OOM.
  std::uint64_t make_item(std::string_view key, std::string_view value,
                          std::uint64_t version, Time now);
  void retire(std::uint64_t offset, Time now);

  StoreConfig config_;
  Arena arena_;
  CompactHashTable table_;
  StoreStats stats_;
  std::priority_queue<Deferred, std::vector<Deferred>, std::greater<>> deferred_;
  std::unique_ptr<index::OrderedIndex> index_;
};

}  // namespace hydra::core
