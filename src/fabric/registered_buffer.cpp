#include "fabric/registered_buffer.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace hydra::fabric {

namespace {

std::size_t page_size() noexcept {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t round_up(std::size_t n, std::size_t page) noexcept {
  return (n + page - 1) / page * page;
}

}  // namespace

RegisteredBuffer::RegisteredBuffer(std::size_t size) {
  if (size == 0) return;
  const std::size_t page = page_size();
  const std::size_t body = round_up(size, page);
  const std::size_t mapped = body + page;
  void* p = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(p);
  size_ = size;
  mapped_ = mapped;
  // One touched byte must cost one page, not a 2 MiB transparent huge page.
  // Advisory: a kernel built without THP rejects it and has none to give.
  (void)::madvise(p, mapped, MADV_NOHUGEPAGE);
  if (size >= kGuardMinBytes && ::mprotect(data_ + body, page, PROT_NONE) != 0) {
    const int err = errno;
    unmap();
    throw std::system_error(err, std::generic_category(), "mprotect guard page");
  }
  ASAN_POISON_MEMORY_REGION(data_ + size_, mapped_ - size_);
}

RegisteredBuffer::~RegisteredBuffer() { unmap(); }

RegisteredBuffer::RegisteredBuffer(RegisteredBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, 0)) {}

RegisteredBuffer& RegisteredBuffer::operator=(RegisteredBuffer&& other) noexcept {
  if (this != &other) {
    unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, 0);
  }
  return *this;
}

void RegisteredBuffer::unmap() noexcept {
  if (data_ == nullptr) return;
  // The range may be mapped again by anyone; it must not stay poisoned.
  ASAN_UNPOISON_MEMORY_REGION(data_ + size_, mapped_ - size_);
  ::munmap(data_, mapped_);
  data_ = nullptr;
  size_ = 0;
  mapped_ = 0;
}

void RegisteredBuffer::zero(std::size_t offset, std::size_t len) {
  if (offset > size_ || len > size_ - offset) {
    throw std::out_of_range("RegisteredBuffer::zero: range past the end");
  }
  if (len == 0) return;
  const std::size_t page = page_size();
  const std::size_t end = offset + len;
  const std::size_t first_page = round_up(offset, page);
  const std::size_t last_page = end / page * page;
  if (first_page >= last_page) {
    std::memset(data_ + offset, 0, len);
    return;
  }
  std::memset(data_ + offset, 0, first_page - offset);
  // Private anonymous pages read as zero again once dropped.
  if (::madvise(data_ + first_page, last_page - first_page, MADV_DONTNEED) != 0) {
    throw std::system_error(errno, std::generic_category(), "madvise(MADV_DONTNEED)");
  }
  std::memset(data_ + last_page, 0, end - last_page);
}

}  // namespace hydra::fabric
