#include "core/hash_table.hpp"

#include <bit>
#include <cstring>
#include <vector>

#include "common/hash.hpp"
#include "core/item.hpp"

namespace hydra::core {

CompactHashTable::CompactHashTable(Arena& arena, std::size_t min_buckets)
    : arena_(arena) {
  std::size_t n = 1;
  while (n < min_buckets) n <<= 1;
  memory_ = fabric::RegisteredBuffer(n * sizeof(Bucket),
                                     fabric::RegisteredBuffer::Residency::kDense);
  buckets_ = reinterpret_cast<Bucket*>(memory_.data());
  mask_ = n - 1;
}

std::string_view CompactHashTable::key_at(std::uint64_t item_offset) const noexcept {
  ++full_key_compares_;
  return ItemView(const_cast<std::byte*>(arena_.at(item_offset))).key();
}

CompactHashTable::Probe CompactHashTable::probe(std::uint64_t hash,
                                                std::string_view key) const {
  ++lookups_;
  const std::uint16_t sig = key_signature(hash);
  Probe p;
  auto* b = const_cast<Bucket*>(root_for(hash));
  while (true) {
    ++cacheline_reads_;
    const std::uint8_t occ = occupancy(*b);
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      if ((occ & (1u << i)) == 0) {
        if (p.bucket_ == nullptr) {
          p.bucket_ = b;
          p.slot_ = i;
        }
        continue;
      }
      const std::uint64_t s = b->slots[i];
      if (slot_sig(s) == sig && key_at(slot_offset(s)) == key) {
        p.bucket_ = b;
        p.slot_ = i;
        p.found_ = true;
        return p;
      }
    }
    const std::uint64_t next = overflow_of(*b);
    if (next == kNoOverflow) break;
    b = overflow_bucket(next);
  }
  p.tail_ = b;
  return p;
}

std::uint64_t CompactHashTable::find(std::uint64_t hash, std::string_view key) const {
  const Probe p = probe(hash, key);
  return p.found_ ? offset_at(p) : kNullOffset;
}

CompactHashTable::InsertResult CompactHashTable::insert(std::uint64_t hash,
                                                        std::string_view key,
                                                        std::uint64_t item_offset) {
  const Probe p = probe(hash, key);
  if (p.found_) return InsertResult::kDuplicate;
  return insert_at(p, hash, item_offset);
}

CompactHashTable::InsertResult CompactHashTable::insert_at(const Probe& p, std::uint64_t hash,
                                                           std::uint64_t item_offset) {
  Bucket* bucket = p.bucket_;
  int slot = p.slot_;
  if (bucket == nullptr) {
    const std::uint64_t off = arena_.allocate(sizeof(Bucket));
    if (off == kNullOffset) return InsertResult::kNoMemory;
    bucket = overflow_bucket(off);
    std::memset(bucket, 0, sizeof(Bucket));
    set_overflow(*p.tail_, off);
    ++overflow_buckets_;
    slot = 0;
  }
  bucket->slots[slot] = encode_slot(key_signature(hash), item_offset);
  set_occupancy_bit(*bucket, slot, true);
  ++size_;
  return InsertResult::kInserted;
}

std::uint64_t CompactHashTable::replace(std::uint64_t hash, std::string_view key,
                                        std::uint64_t new_offset) {
  const Probe p = probe(hash, key);
  return p.found_ ? replace_at(p, hash, new_offset) : kNullOffset;
}

std::uint64_t CompactHashTable::replace_at(const Probe& p, std::uint64_t hash,
                                           std::uint64_t new_offset) noexcept {
  const std::uint64_t old = offset_at(p);
  p.bucket_->slots[p.slot_] = encode_slot(key_signature(hash), new_offset);
  return old;
}

std::uint64_t CompactHashTable::erase(std::uint64_t hash, std::string_view key) {
  const Probe p = probe(hash, key);
  if (!p.found_) return kNullOffset;
  const std::uint64_t old = offset_at(p);
  set_occupancy_bit(*p.bucket_, p.slot_, false);
  p.bucket_->slots[p.slot_] = 0;
  --size_;
  compact_chain(root_for(hash));
  return old;
}

void CompactHashTable::compact_chain(Bucket* root) {
  // Collect the chain (root + overflow buckets with their arena offsets).
  std::vector<Bucket*> chain{root};
  std::vector<std::uint64_t> offsets{kNoOverflow};
  for (std::uint64_t off = overflow_of(*root); off != kNoOverflow;) {
    Bucket* b = overflow_bucket(off);
    chain.push_back(b);
    offsets.push_back(off);
    off = overflow_of(*b);
  }
  if (chain.size() == 1) return;

  // Pull entries from the tail of the chain into free slots closer to the
  // root, so lookups touch fewer cache lines.
  for (std::size_t tail = chain.size() - 1; tail >= 1; --tail) {
    Bucket& src = *chain[tail];
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      if ((occupancy(src) & (1u << i)) == 0) continue;
      bool moved = false;
      for (std::size_t dst = 0; dst < tail && !moved; ++dst) {
        Bucket& d = *chain[dst];
        for (int j = 0; j < kSlotsPerBucket; ++j) {
          if ((occupancy(d) & (1u << j)) != 0) continue;
          d.slots[j] = src.slots[i];
          set_occupancy_bit(d, j, true);
          set_occupancy_bit(src, i, false);
          src.slots[i] = 0;
          moved = true;
          break;
        }
      }
    }
  }

  // Free empty overflow buckets from the tail; they merge back into the
  // arena ("merges multiple buckets together after the remove operations").
  while (chain.size() > 1 && occupancy(*chain.back()) == 0) {
    arena_.deallocate(offsets.back(), sizeof(Bucket));
    chain.pop_back();
    offsets.pop_back();
    set_overflow(*chain.back(), kNoOverflow);
    --overflow_buckets_;
  }
}

}  // namespace hydra::core
