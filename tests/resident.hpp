// Test helper: how many pages of a range the kernel holds in RAM.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
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

/// Resident pages of the whole process (/proc/self/statm). Unlike
/// resident_pages(), a page that was only ever read maps the shared zero
/// page and does not count.
inline std::size_t process_resident_pages() {
  std::size_t size = 0;
  std::size_t resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr || std::fscanf(f, "%zu %zu", &size, &resident) != 2) {
    ADD_FAILURE() << "cannot read /proc/self/statm";
  }
  if (f != nullptr) std::fclose(f);
  return resident;
}

}  // namespace hydra::test
