// Per-shard slab arena.
//
// Each shard owns one contiguous memory arena that is registered with the
// fabric as a single memory region, which is what makes every item in it
// addressable by client RDMA Reads (remote pointer = rkey + 48-bit offset).
// Allocation is slab-style with an intrusive LIFO freelist per size class,
// so allocate/free are O(1) and freed blocks are reused without external
// fragmentation growth. Classes step by 8 bytes up to 1 KiB, so an item
// takes exactly its own (8-byte padded) size, then double up to 8 MiB.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/item.hpp"
#include "fabric/registered_buffer.hpp"

namespace hydra::core {

class Arena {
 public:
  /// Smallest size class and the step between exact-fit classes; also the
  /// alignment of every block (item headers and guardians are u64 words).
  static constexpr std::size_t kMinClass = 8;
  /// Largest exact-fit class; above it classes are powers of two.
  static constexpr std::size_t kMaxExactClass = 1024;
  static constexpr std::size_t kMaxClass = 8 * 1024 * 1024;
  /// Blocks of exactly this size (the compact table's overflow buckets) are
  /// aligned to it, so each one is a single cache line.
  static constexpr std::size_t kCacheLine = 64;
  static constexpr int kNumExactClasses = kMaxExactClass / kMinClass;  // 8 B .. 1 KiB
  static constexpr int kNumClasses =                                   // 2 KiB .. 8 MiB
      kNumExactClasses + std::bit_width(kMaxClass / (2 * kMaxExactClass));

  explicit Arena(std::size_t capacity);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates a block of at least `size` bytes; kNullOffset when exhausted.
  [[nodiscard]] std::uint64_t allocate(std::size_t size);

  /// Returns a block obtained from allocate(size) (same `size`).
  void deallocate(std::uint64_t offset, std::size_t size) noexcept;

  [[nodiscard]] std::byte* at(std::uint64_t offset) noexcept { return memory_.data() + offset; }
  [[nodiscard]] const std::byte* at(std::uint64_t offset) const noexcept {
    return memory_.data() + offset;
  }

  /// The whole arena, for memory-region registration.
  [[nodiscard]] std::span<std::byte> bytes() noexcept { return memory_.bytes(); }

  [[nodiscard]] std::size_t capacity() const noexcept { return memory_.size(); }
  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::uint64_t allocations() const noexcept { return allocations_; }
  [[nodiscard]] std::uint64_t failed_allocations() const noexcept { return failed_; }

  /// Size-class index for an allocation size (exposed for tests/benches).
  static int class_for(std::size_t size) noexcept;
  static std::size_t class_size(int cls) noexcept {
    return cls < kNumExactClasses ? (static_cast<std::size_t>(cls) + 1) * kMinClass
                                  : (2 * kMaxExactClass) << (cls - kNumExactClasses);
  }

 private:
  fabric::RegisteredBuffer memory_;  ///< demand-zero: untouched bytes cost no RAM
  std::size_t bump_ = 0;
  std::size_t in_use_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t failed_ = 0;
  /// Head offset of the intrusive freelist per class (kNullOffset = empty).
  std::array<std::uint64_t, kNumClasses> free_heads_;
};

}  // namespace hydra::core
