// Owned backing memory for RDMA-registered regions.
//
// Registered regions are sized for the worst case -- every connection's
// ring, every arena byte -- and a run touches a small part of them. The
// buffer maps its bytes as private anonymous memory, so the kernel hands out
// zero pages on first touch and bytes never touched never become resident;
// zero() gives whole pages back the same way instead of writing zeros over
// them. Contents are exactly those of a zero-filled vector of the same size.
#pragma once

#include <cstddef>
#include <span>

namespace hydra::fabric {

class RegisteredBuffer {
 public:
  /// Buffers of at least this size end in a PROT_NONE guard page, so an
  /// overrun faults at once. A guard splits the buffer into two kernel
  /// mappings that never merge with a neighbour, and a process may hold only
  /// vm.max_map_count (65530 by default) of them: a 100k-client sweep holds
  /// 100k small response regions. Below the threshold the buffers go
  /// unguarded and adjacent ones merge into one mapping; under AddressSanitizer
  /// every byte past the end is poisoned either way.
  static constexpr std::size_t kGuardMinBytes = std::size_t{1} << 20;

  /// An empty buffer: no mapping, size() == 0.
  RegisteredBuffer() noexcept = default;
  /// `size` zero bytes, page-aligned. Throws std::bad_alloc when the kernel
  /// refuses the mapping.
  explicit RegisteredBuffer(std::size_t size);
  ~RegisteredBuffer();

  RegisteredBuffer(RegisteredBuffer&& other) noexcept;
  RegisteredBuffer& operator=(RegisteredBuffer&& other) noexcept;

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::span<std::byte> bytes() noexcept { return {data_, size_}; }

  /// Makes [offset, offset + len) read as zero. Whole pages inside the range
  /// go back to the kernel (MADV_DONTNEED) and stop counting as resident;
  /// only the partial pages at its edges are written. Throws
  /// std::out_of_range when the range leaves the buffer.
  void zero(std::size_t offset, std::size_t len);

 private:
  void unmap() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_ = 0;  ///< bytes mapped at data_, trailing page included
};

}  // namespace hydra::fabric
