// Tests that run real threads: the lock-free remote-pointer cache's
// seqlock slots, read, written, refreshed and erased through
// std::atomic_ref. They carry the ctest label `concurrency`, which is what
// `scripts/tier1.sh --tsan` runs under ThreadSanitizer; the rest of the
// suite is single-threaded.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/lockfree_cache.hpp"

namespace hydra::core {
namespace {

struct FakePtr {
  std::uint64_t addr;
  std::uint64_t check;  // redundancy to detect torn reads: must equal ~addr
};

TEST(LockFreeCache, ConcurrentReadersAndWritersNeverSeeTornValues) {
  LockFreeCache<FakePtr> cache(128);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> threads;
  // Writers continually update a small hot set with self-checking values.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&cache, &stop, w] {
      Xoshiro256 rng(static_cast<std::uint64_t>(w) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = 1 + rng.below(16);
        const std::uint64_t v = rng();
        cache.put(key, FakePtr{v, ~v});
      }
    });
  }
  // Readers validate the redundancy invariant on every hit.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&cache, &stop, &torn, r] {
      Xoshiro256 rng(static_cast<std::uint64_t>(r) + 100);
      FakePtr out{};
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = 1 + rng.below(16);
        if (cache.get(key, &out) && out.check != ~out.addr) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0u) << "seqlock let a torn value escape";
}

TEST(LockFreeCache, ConcurrentSweepSeesOnlyWholeValues) {
  // Writers refresh and evict entries while a sweeper erases the "stale"
  // ones (odd addr) as the client's epoch sweep does: the predicate must
  // only ever be shown whole values, and readers must never see torn ones.
  LockFreeCache<FakePtr> cache(64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> swept{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&cache, &stop, w] {
      Xoshiro256 rng(static_cast<std::uint64_t>(w) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = 1 + rng.below(128);  // overfills: evictions too
        const std::uint64_t v = rng();
        cache.put(key, FakePtr{v, ~v});
        if (rng.below(8) == 0) cache.erase(1 + rng.below(128));
      }
    });
  }
  threads.emplace_back([&cache, &stop, &torn] {
    Xoshiro256 rng(100);
    FakePtr out{};
    while (!stop.load(std::memory_order_relaxed)) {
      if (cache.get(1 + rng.below(128), &out) && out.check != ~out.addr) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  threads.emplace_back([&cache, &stop, &torn, &swept] {
    while (!stop.load(std::memory_order_relaxed)) {
      swept.fetch_add(cache.erase_if([&torn](std::uint64_t, const FakePtr& p) {
        if (p.check != ~p.addr) torn.fetch_add(1, std::memory_order_relaxed);
        return (p.addr & 1) != 0;
      }));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0u) << "a torn value escaped the seqlock";
  EXPECT_GT(swept.load(), 0u);

  // Quiescent: one more sweep leaves only even, whole entries behind.
  cache.erase_if([](std::uint64_t, const FakePtr& p) { return (p.addr & 1) != 0; });
  FakePtr out{};
  for (std::uint64_t key = 1; key <= 128; ++key) {
    if (!cache.get(key, &out)) continue;
    EXPECT_EQ(out.addr & 1, 0u) << "key " << key;
    EXPECT_EQ(out.check, ~out.addr) << "key " << key;
  }
}

TEST(LockFreeCache, ConcurrentRefreshesNeverTearValues) {
  // Writers put, refresh (version-gated, as a write's pointer grant is) and
  // erase a small hot set: readers and the refresh gate must only ever see
  // whole values.
  LockFreeCache<FakePtr> cache(128);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> refreshed{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&cache, &stop, &torn, &refreshed, w] {
      Xoshiro256 rng(static_cast<std::uint64_t>(w) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = 1 + rng.below(16);
        const std::uint64_t v = rng();
        switch (rng.below(4)) {
          case 0:
            cache.put(key, FakePtr{v, ~v});
            break;
          case 3:
            cache.erase(key);
            break;
          default:
            if (cache.refresh(key, FakePtr{v, ~v}, [&torn, v](const FakePtr& cached) {
                  if (cached.check != ~cached.addr) torn.fetch_add(1, std::memory_order_relaxed);
                  return cached.addr < v;
                })) {
              refreshed.fetch_add(1, std::memory_order_relaxed);
            }
            break;
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&cache, &stop, &torn, r] {
      Xoshiro256 rng(static_cast<std::uint64_t>(r) + 100);
      FakePtr out{};
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = 1 + rng.below(16);
        if (cache.get(key, &out) && out.check != ~out.addr) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0u) << "a torn value escaped the seqlock";
  EXPECT_GT(refreshed.load(), 0u);
}

}  // namespace
}  // namespace hydra::core
