#include "core/arena.hpp"

#include <bit>
#include <cstring>

namespace hydra::core {

Arena::Arena(std::size_t capacity) : memory_(align8(capacity)) {
  free_heads_.fill(kNullOffset);
  // Reserve the first block so that offset 0 is never handed out: several
  // components use offset 0 / kNullOffset as sentinels and a zero remote
  // pointer should never alias a real item.
  bump_ = kMinClass;
}

int Arena::class_for(std::size_t size) noexcept {
  if (size <= kMinClass) return 0;
  if (size <= kMaxExactClass) return static_cast<int>((size - 1) / kMinClass);
  // ceil(log2(size)) - log2(2 KiB) power-of-two classes past the exact ones.
  return kNumExactClasses + std::bit_width(size - 1) - std::bit_width(kMaxExactClass);
}

std::uint64_t Arena::allocate(std::size_t size) {
  if (size == 0 || size > kMaxClass) {
    ++failed_;
    return kNullOffset;
  }
  const int cls = class_for(size);
  const std::size_t block = class_size(cls);

  std::uint64_t offset = free_heads_[static_cast<std::size_t>(cls)];
  if (offset != kNullOffset) {
    // Pop the intrusive freelist: the first 8 bytes of a free block store
    // the next free offset.
    std::uint64_t next;
    std::memcpy(&next, at(offset), sizeof(next));
    free_heads_[static_cast<std::size_t>(cls)] = next;
  } else {
    // Bump blocks are 8-byte multiples, so every block stays 8-byte aligned;
    // a cache-line block skips up to 56 bytes, which are never handed out.
    const std::size_t start =
        block == kCacheLine ? (bump_ + kCacheLine - 1) & ~(kCacheLine - 1) : bump_;
    if (start + block > memory_.size()) {
      ++failed_;
      return kNullOffset;
    }
    offset = start;
    bump_ = start + block;
  }
  in_use_ += block;
  ++allocations_;
  return offset;
}

void Arena::deallocate(std::uint64_t offset, std::size_t size) noexcept {
  const int cls = class_for(size);
  const std::size_t block = class_size(cls);
  std::uint64_t& head = free_heads_[static_cast<std::size_t>(cls)];
  std::memcpy(at(offset), &head, sizeof(head));
  head = offset;
  in_use_ -= block;
}

}  // namespace hydra::core
