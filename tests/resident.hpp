// Test helper: how many pages of a range the kernel holds in RAM.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

namespace hydra::test {

/// Resident pages in [base, base + len) per mincore(2); `base` must be
/// page-aligned. A page only ever read counts too (it maps the shared zero
/// page), so callers measure ranges that are written or left alone.
inline std::size_t resident_pages(const std::byte* base, std::size_t len) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((len + page - 1) / page);
  if (vec.empty()) return 0;
  if (::mincore(const_cast<std::byte*>(base), len, vec.data()) != 0) {
    ADD_FAILURE() << "mincore failed";
    return 0;
  }
  return static_cast<std::size_t>(
      std::count_if(vec.begin(), vec.end(), [](unsigned char v) { return (v & 1) != 0; }));
}

}  // namespace hydra::test
