// The cache-friendly compact hash table (paper section 4.1.3, Figure 6).
//
// The main branch is a contiguous array of 64-byte buckets, one cache line
// each. A bucket holds an 8-byte header (7 occupancy bits + 56-bit link to a
// dynamically generated overflow bucket) and 7 slots of 8 bytes: a 16-bit
// key signature plus a 48-bit arena offset of the actual item. A lookup
// resolves in a single cache-line read unless the signature matches (then
// one item dereference for the full-key compare) or the bucket overflowed.
// After removes, overflow chains are compacted and empty overflow buckets
// are merged back into the arena.
//
// An all-zero bucket is an empty one: no slot occupied and link 0, meaning
// no overflow bucket (the arena never hands out offset 0). So the main array
// needs no constructor pass; it is a dense registered buffer, which the
// kernel hands over zeroed and resident on huge pages.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/arena.hpp"
#include "fabric/registered_buffer.hpp"

namespace hydra::core {

class CompactHashTable {
  struct Bucket;

 public:
  static constexpr int kSlotsPerBucket = 7;

  /// One walk of a key's chain: the slot holding the key when present,
  /// otherwise where insert_at() puts it (the first free slot, or a fresh
  /// overflow bucket after the tail). Valid until the table next changes;
  /// allocating items from the arena in between is fine.
  class Probe {
   public:
    [[nodiscard]] bool found() const noexcept { return found_; }

   private:
    friend class CompactHashTable;
    Bucket* bucket_ = nullptr;  ///< holder; or first free slot's (null: chain full)
    Bucket* tail_ = nullptr;
    int slot_ = 0;
    bool found_ = false;
  };

  /// `min_buckets` rounds up to a power of two. Overflow buckets are
  /// allocated from `arena` (64-byte blocks), which must outlive the table.
  CompactHashTable(Arena& arena, std::size_t min_buckets);

  CompactHashTable(const CompactHashTable&) = delete;
  CompactHashTable& operator=(const CompactHashTable&) = delete;

  /// Walks `key`'s chain once; see Probe.
  [[nodiscard]] Probe probe(std::uint64_t hash, std::string_view key) const;

  /// Starts loading `hash`'s root bucket into cache, for a probe soon after.
  void prefetch(std::uint64_t hash) const noexcept {
    __builtin_prefetch(root_for(hash), /*rw=*/1);
  }

  /// Returns the item offset for `key`, or kNullOffset.
  [[nodiscard]] std::uint64_t find(std::uint64_t hash, std::string_view key) const;

  enum class InsertResult : std::uint8_t { kInserted, kDuplicate, kNoMemory };

  /// The item offset a found probe points at.
  [[nodiscard]] static std::uint64_t offset_at(const Probe& p) noexcept {
    return slot_offset(p.bucket_->slots[p.slot_]);
  }
  /// Stores `new_offset` in a found probe's slot; returns the previous one.
  std::uint64_t replace_at(const Probe& p, std::uint64_t hash, std::uint64_t new_offset) noexcept;
  /// Inserts at a probe that missed: kInserted, or kNoMemory (table
  /// unchanged) when the arena cannot supply an overflow bucket.
  InsertResult insert_at(const Probe& p, std::uint64_t hash, std::uint64_t item_offset);

  /// Inserts key->offset; kDuplicate/kNoMemory leave the table unchanged
  /// (kNoMemory means the arena could not supply an overflow bucket).
  InsertResult insert(std::uint64_t hash, std::string_view key, std::uint64_t item_offset);

  /// Swaps the offset stored for `key` (out-of-place update); returns the
  /// previous offset, or kNullOffset if the key is absent (nothing stored).
  std::uint64_t replace(std::uint64_t hash, std::string_view key, std::uint64_t new_offset);

  /// Removes the entry; returns the previous offset or kNullOffset.
  std::uint64_t erase(std::uint64_t hash, std::string_view key);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return mask_ + 1; }
  [[nodiscard]] std::uint64_t overflow_buckets() const noexcept { return overflow_buckets_; }

  /// Deterministic full-table walk: invokes `fn(item_offset)` for every
  /// occupied slot, in bucket order (main array ascending, then each
  /// overflow chain in link order). The order depends only on the table's
  /// contents, so replaying it reproduces identical state -- which is what
  /// failover state transfer needs.
  template <typename Fn>
  void for_each_offset(Fn&& fn) const {
    for (std::size_t i = 0; i <= mask_; ++i) {
      const Bucket* b = &buckets_[i];
      while (true) {
        for (int s = 0; s < kSlotsPerBucket; ++s) {
          if ((occupancy(*b) >> s) & 1) fn(slot_offset(b->slots[s]));
        }
        const std::uint64_t off = overflow_of(*b);
        if (off == kNoOverflow) break;
        b = overflow_bucket(off);
      }
    }
  }

  // Probe-cost telemetry for the cache-friendliness benches.
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::uint64_t cacheline_reads() const noexcept { return cacheline_reads_; }
  [[nodiscard]] std::uint64_t full_key_compares() const noexcept { return full_key_compares_; }

  /// The main bucket array (for residency checks and encoding tests).
  [[nodiscard]] const fabric::RegisteredBuffer& memory() const noexcept { return memory_; }

 private:
  /// All zero = empty: no occupied slot, no overflow bucket.
  struct Bucket {
    std::uint64_t header;  ///< bits 0-6 occupancy, bits 8-63 overflow link
    std::uint64_t slots[kSlotsPerBucket];
  };
  static_assert(sizeof(Bucket) == 64, "bucket must fill one cache line");

  /// The end of a chain. Offset 0 is the arena's reserved block, never an
  /// overflow bucket.
  static constexpr std::uint64_t kNoOverflow = 0;

  static std::uint8_t occupancy(const Bucket& b) noexcept {
    return static_cast<std::uint8_t>(b.header & 0x7F);
  }
  static std::uint64_t overflow_of(const Bucket& b) noexcept { return b.header >> 8; }
  static void set_occupancy_bit(Bucket& b, int slot, bool on) noexcept {
    if (on) {
      b.header |= (1ULL << slot);
    } else {
      b.header &= ~(1ULL << slot);
    }
  }
  static void set_overflow(Bucket& b, std::uint64_t off) noexcept {
    b.header = (b.header & 0xFFULL) | (off << 8);
  }
  static std::uint64_t encode_slot(std::uint16_t sig, std::uint64_t offset) noexcept {
    return (offset << 16) | sig;
  }
  static std::uint16_t slot_sig(std::uint64_t slot) noexcept {
    return static_cast<std::uint16_t>(slot & 0xFFFF);
  }
  static std::uint64_t slot_offset(std::uint64_t slot) noexcept { return slot >> 16; }

  [[nodiscard]] Bucket* root_for(std::uint64_t hash) noexcept {
    return &buckets_[hash & mask_];
  }
  [[nodiscard]] const Bucket* root_for(std::uint64_t hash) const noexcept {
    return &buckets_[hash & mask_];
  }
  [[nodiscard]] Bucket* overflow_bucket(std::uint64_t off) const noexcept {
    return reinterpret_cast<Bucket*>(arena_.at(off));
  }

  [[nodiscard]] std::string_view key_at(std::uint64_t item_offset) const noexcept;

  /// Re-packs a chain after a remove: pulls entries forward into free slots
  /// and returns empty overflow buckets to the arena.
  void compact_chain(Bucket* root);

  Arena& arena_;
  fabric::RegisteredBuffer memory_;  ///< dense: resident and zeroed from the start
  Bucket* buckets_;
  std::uint64_t mask_;
  std::size_t size_ = 0;
  std::uint64_t overflow_buckets_ = 0;
  mutable std::uint64_t lookups_ = 0;
  mutable std::uint64_t cacheline_reads_ = 0;
  mutable std::uint64_t full_key_compares_ = 0;
};

}  // namespace hydra::core
