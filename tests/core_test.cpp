// Unit + property tests for the storage engine: item layout, arena,
// compact hash table, KV store (guardian/lease semantics), lock-free cache.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "common/keygen.hpp"
#include "common/rng.hpp"
#include "core/arena.hpp"
#include "core/hash_table.hpp"
#include "core/item.hpp"
#include "core/lockfree_cache.hpp"
#include "core/store.hpp"
#include "resident.hpp"

namespace hydra::core {
namespace {

// ---------------------------------------------------------------- item

TEST(Item, SizeIncludesHeaderPaddingAndGuardian) {
  EXPECT_EQ(item_size(0, 0), 32u + 8u);
  EXPECT_EQ(item_size(16, 32), 32u + 48u + 8u);
  EXPECT_EQ(item_size(1, 0), 32u + 8u + 8u);  // 33 pads to 40
  EXPECT_EQ(item_size(3, 4), 32u + 8u + 8u);  // 39 pads to 40
}

TEST(Item, InitializeRoundTrips) {
  std::vector<std::byte> buf(item_size(16, 32));
  ItemView item(buf.data());
  const std::string key = format_key(42);
  const std::string value = synth_value(42);
  item.initialize(key, value, 3, 1000);
  EXPECT_EQ(item.key(), key);
  EXPECT_EQ(item.value(), value);
  EXPECT_EQ(item.header().version, 3u);
  EXPECT_EQ(item.header().lease_expiry, 1000u);
  EXPECT_EQ(item.header().access_count, 1u);
  EXPECT_TRUE(item.live());
  EXPECT_EQ(item.total_size(), buf.size());
}

TEST(Item, GuardianFlipKillsItem) {
  std::vector<std::byte> buf(item_size(4, 4));
  ItemView item(buf.data());
  item.initialize("abcd", "efgh", 1, 0);
  EXPECT_TRUE(item.live());
  item.set_guardian(kGuardianDead);
  EXPECT_FALSE(item.live());
  EXPECT_EQ(item.guardian(), kGuardianDead);
}

TEST(Item, ValidateDetectsAllFailureModes) {
  std::vector<std::byte> buf(item_size(4, 4));
  ItemView item(buf.data());
  item.initialize("abcd", "efgh", 1, 0);

  EXPECT_EQ(validate_item(buf.data(), buf.size(), "abcd"), ItemValidity::kValid);
  EXPECT_EQ(validate_item(buf.data(), buf.size(), "zzzz"), ItemValidity::kKeyMismatch);

  item.set_guardian(kGuardianDead);
  EXPECT_EQ(validate_item(buf.data(), buf.size(), "abcd"), ItemValidity::kDead);

  item.set_guardian(kGuardianLive);
  EXPECT_EQ(validate_item(buf.data(), buf.size() + 8, "abcd"), ItemValidity::kCorrupt);
  EXPECT_EQ(validate_item(buf.data(), 8, "abcd"), ItemValidity::kCorrupt);
}

// ---------------------------------------------------------------- arena

TEST(Arena, ClassForMapsExactFitThenPowerOfTwoBoundaries) {
  // 8-byte steps up to 1 KiB...
  EXPECT_EQ(Arena::class_for(1), 0);
  EXPECT_EQ(Arena::class_for(8), 0);
  EXPECT_EQ(Arena::class_for(9), 1);
  EXPECT_EQ(Arena::class_size(0), 8u);
  EXPECT_EQ(Arena::class_size(Arena::class_for(81)), 88u);
  EXPECT_EQ(Arena::class_size(Arena::class_for(88)), 88u);
  EXPECT_EQ(Arena::class_size(Arena::class_for(89)), 96u);
  EXPECT_EQ(Arena::class_size(Arena::class_for(1024)), 1024u);
  // ...then powers of two up to kMaxClass.
  EXPECT_EQ(Arena::class_for(1025), Arena::class_for(1024) + 1);
  EXPECT_EQ(Arena::class_size(Arena::class_for(1025)), 2048u);
  EXPECT_EQ(Arena::class_size(Arena::class_for(2048)), 2048u);
  EXPECT_EQ(Arena::class_size(Arena::class_for(2049)), 4096u);
  EXPECT_EQ(Arena::class_for(Arena::kMaxClass), Arena::kNumClasses - 1);
  EXPECT_EQ(Arena::class_size(Arena::kNumClasses - 1), Arena::kMaxClass);
  EXPECT_EQ(Arena::class_size(Arena::class_for(Arena::kMaxClass / 2 + 1)), Arena::kMaxClass);
  // Every class's size maps back to that class.
  for (int cls = 0; cls < Arena::kNumClasses; ++cls) {
    EXPECT_EQ(Arena::class_for(Arena::class_size(cls)), cls) << "class " << cls;
  }
}

TEST(Arena, NeverHandsOutOffsetZero) {
  Arena arena(1 << 16);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t off = arena.allocate(64);
    ASSERT_NE(off, kNullOffset);
    EXPECT_NE(off, 0u);
  }
}

TEST(Arena, FirstBlockOfEveryClassIsNeverOffsetZero) {
  // The compact table ends its overflow chains with link 0, so no block --
  // above all no 64 B cache-line block, the overflow bucket's class -- may
  // ever sit at offset 0, not even the first one a fresh arena hands out.
  for (int cls = 0; cls < Arena::kNumClasses; ++cls) {
    Arena arena(2 * Arena::kMaxClass);
    const std::uint64_t off = arena.allocate(Arena::class_size(cls));
    ASSERT_NE(off, kNullOffset) << "class " << cls;
    EXPECT_NE(off, 0u) << "class " << cls << " (" << Arena::class_size(cls) << " B)";
  }
  Arena arena(1 << 16);
  EXPECT_NE(arena.allocate(Arena::kCacheLine), 0u);
}

TEST(Arena, BlocksAre8ByteAlignedAndCacheLineBlocks64ByteAligned) {
  Arena arena(1 << 16);
  // Mixed sizes knock the bump pointer off every 64-byte boundary, and
  // freed blocks come back through the freelists.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::pair<std::uint64_t, std::size_t>> blocks;
    for (std::size_t size : {1u, 63u, 64u, 88u, 100u, 57u, 64u, 500u, 40u, 64u, 1500u, 64u}) {
      const std::uint64_t off = arena.allocate(size);
      ASSERT_NE(off, kNullOffset);
      EXPECT_EQ(off % 8, 0u) << "size " << size;
      if (Arena::class_size(Arena::class_for(size)) == 64) {
        EXPECT_EQ(off % 64, 0u) << "size " << size;
      }
      blocks.emplace_back(off, size);
    }
    // The alignment skips never make two blocks overlap.
    std::map<std::uint64_t, std::size_t> by_offset(blocks.begin(), blocks.end());
    std::uint64_t end = 0;
    for (const auto& [off, size] : by_offset) {
      EXPECT_GE(off, end);
      end = off + Arena::class_size(Arena::class_for(size));
    }
    for (const auto& [off, size] : blocks) arena.deallocate(off, size);
  }
}

TEST(Arena, FreedBlocksAreReused) {
  Arena arena(1 << 12);
  const std::uint64_t a = arena.allocate(100);
  arena.deallocate(a, 100);
  const std::uint64_t b = arena.allocate(100);
  EXPECT_EQ(a, b);
}

TEST(Arena, FreelistIsPerClass) {
  Arena arena(1 << 16);
  const std::uint64_t small = arena.allocate(64);
  arena.deallocate(small, 64);
  const std::uint64_t big = arena.allocate(1024);
  EXPECT_NE(big, small);  // 1 KiB must not come from the 64 B freelist
}

TEST(Arena, ExhaustionReturnsNullAndCounts) {
  Arena arena(256);
  std::uint64_t last = 0;
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    last = arena.allocate(64);
    if (last != kNullOffset) ++ok;
  }
  EXPECT_LT(ok, 10);
  EXPECT_EQ(last, kNullOffset);
  EXPECT_GT(arena.failed_allocations(), 0u);
}

TEST(Arena, OversizeAndZeroRequestsFail) {
  Arena arena(1 << 20);
  EXPECT_EQ(arena.allocate(0), kNullOffset);
  EXPECT_EQ(arena.allocate(Arena::kMaxClass + 1), kNullOffset);
}

TEST(Arena, InUseAccountingBalances) {
  Arena arena(1 << 16);
  const std::size_t base = arena.bytes_in_use();
  // A paper-sized item (16 B key, 32 B value) takes exactly its 88 bytes.
  const std::uint64_t a = arena.allocate(item_size(16, 32));
  EXPECT_EQ(arena.bytes_in_use(), base + 88);
  const std::uint64_t b = arena.allocate(1500);  // class 2 KiB
  EXPECT_EQ(arena.bytes_in_use(), base + 88 + 2048);
  arena.deallocate(a, item_size(16, 32));
  arena.deallocate(b, 1500);
  EXPECT_EQ(arena.bytes_in_use(), base);
}

// ---------------------------------------------------------------- table

class TableTest : public ::testing::Test {
 protected:
  TableTest() : arena(8 << 20), table(arena, 64) {}

  /// Allocates a real item for `key` so full-key compares work.
  std::uint64_t add_item(const std::string& key, const std::string& value = "v") {
    const std::size_t size = item_size(key.size(), value.size());
    const std::uint64_t off = arena.allocate(size);
    EXPECT_NE(off, kNullOffset);
    ItemView(arena.at(off)).initialize(key, value, 1, 0);
    return off;
  }

  Arena arena;
  CompactHashTable table;
};

/// Reads the table's encoding directly: each root bucket in array order,
/// then its overflow chain, following the header's link (bits 8-63) until
/// link 0. Returns the occupied slots' item offsets in that order and counts
/// the overflow buckets passed. Stops after `max_steps` buckets so a chain
/// that never ends fails instead of hanging.
std::vector<std::uint64_t> walk_encoding(const CompactHashTable& table, Arena& arena,
                                         std::size_t max_steps, std::size_t* overflow) {
  constexpr std::size_t kWords = 1 + CompactHashTable::kSlotsPerBucket;
  const auto* roots = reinterpret_cast<const std::uint64_t*>(table.memory().data());
  std::vector<std::uint64_t> offsets;
  *overflow = 0;
  std::size_t steps = 0;
  for (std::size_t i = 0; i < table.bucket_count(); ++i) {
    const std::uint64_t* b = roots + i * kWords;
    while (++steps <= max_steps) {
      for (int s = 0; s < CompactHashTable::kSlotsPerBucket; ++s) {
        if ((b[0] >> s) & 1) offsets.push_back(b[1 + s] >> 16);
      }
      const std::uint64_t link = b[0] >> 8;
      if (link == 0) break;
      ++*overflow;
      b = reinterpret_cast<const std::uint64_t*>(arena.at(link));
    }
  }
  EXPECT_LE(steps, max_steps) << "an overflow chain does not end at link 0";
  return offsets;
}

bool all_zero(const fabric::RegisteredBuffer& mem) {
  return std::all_of(mem.data(), mem.data() + mem.size(),
                     [](std::byte b) { return b == std::byte{0}; });
}

TEST_F(TableTest, FreshTableIsEmptyZeroedResidentAndFullSize) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  Arena big_arena(1 << 20);
  // 1000 rounds up to 1024 buckets, 64 KiB: several pages.
  const CompactHashTable big(big_arena, 1000);
  for (const CompactHashTable* t : std::vector<const CompactHashTable*>{&table, &big}) {
    const fabric::RegisteredBuffer& mem = t->memory();
    EXPECT_EQ(t->size(), 0u);
    EXPECT_EQ(t->overflow_buckets(), 0u);
    ASSERT_EQ(mem.size(), t->bucket_count() * 64);
    // Dense: every page is resident from construction, not on first probe.
    EXPECT_EQ(test::resident_pages(mem.data(), mem.size()), (mem.size() + page - 1) / page);
    EXPECT_TRUE(all_zero(mem)) << "an all-zero bucket is the empty one";
    std::size_t visited = 0;
    t->for_each_offset([&](std::uint64_t) { ++visited; });
    EXPECT_EQ(visited, 0u);
    EXPECT_EQ(t->find(hash_key("absent"), "absent"), kNullOffset);
  }
  EXPECT_EQ(table.bucket_count(), 64u);
  EXPECT_EQ(big.bucket_count(), 1024u);
}

TEST_F(TableTest, OverflowChainsEndAtLinkZeroAsTheyGrowAndShrink) {
  // 64 roots x 7 slots = 448 direct slots: 3000 keys grow long chains.
  std::vector<std::string> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(format_key(static_cast<std::uint64_t>(i)));
  for (const auto& key : keys) table.insert(hash_key(key), key, add_item(key));
  const std::size_t max_steps = table.bucket_count() + 3000;
  std::size_t overflow = 0;
  EXPECT_EQ(walk_encoding(table, arena, max_steps, &overflow).size(), table.size());
  ASSERT_GT(table.overflow_buckets(), 300u);
  EXPECT_EQ(overflow, table.overflow_buckets());

  // Erasing two keys in three runs compact_chain on every chain and frees
  // tail buckets; each shortened chain must still end at link 0.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 3 != 0) {
      ASSERT_NE(table.erase(hash_key(keys[i]), keys[i]), kNullOffset);
    }
  }
  EXPECT_EQ(walk_encoding(table, arena, max_steps, &overflow).size(), table.size());
  EXPECT_EQ(overflow, table.overflow_buckets());
  EXPECT_LT(table.overflow_buckets(), 300u);

  // Regrow into the freed buckets (the arena hands them back), then empty
  // the table: the main array is all zero again, exactly like a fresh one.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 3 != 0) table.insert(hash_key(keys[i]), keys[i], add_item(keys[i]));
  }
  EXPECT_EQ(walk_encoding(table, arena, max_steps, &overflow).size(), keys.size());
  EXPECT_EQ(overflow, table.overflow_buckets());
  for (const auto& key : keys) ASSERT_NE(table.erase(hash_key(key), key), kNullOffset);
  EXPECT_EQ(table.overflow_buckets(), 0u);
  EXPECT_TRUE(all_zero(table.memory()));
}

TEST_F(TableTest, ForEachOffsetVisitsEachOffsetOnceRootThenChainOrder) {
  std::set<std::uint64_t> inserted;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = format_key(static_cast<std::uint64_t>(i));
    const std::uint64_t off = add_item(key);
    table.insert(hash_key(key), key, off);
    inserted.insert(off);
  }
  for (int i = 0; i < 2000; i += 5) {
    const std::string key = format_key(static_cast<std::uint64_t>(i));
    inserted.erase(table.erase(hash_key(key), key));
  }
  ASSERT_GT(table.overflow_buckets(), 0u);
  std::vector<std::uint64_t> visited;
  table.for_each_offset([&](std::uint64_t off) { visited.push_back(off); });
  std::size_t overflow = 0;
  EXPECT_EQ(visited, walk_encoding(table, arena, table.bucket_count() + 2000, &overflow));
  EXPECT_EQ(std::set<std::uint64_t>(visited.begin(), visited.end()), inserted);
  EXPECT_EQ(visited.size(), inserted.size()) << "an offset was visited twice";
}

TEST_F(TableTest, InsertFindEraseRoundTrip) {
  const std::string key = "alpha";
  const std::uint64_t off = add_item(key);
  const std::uint64_t h = hash_key(key);
  EXPECT_EQ(table.find(h, key), kNullOffset);
  EXPECT_EQ(table.insert(h, key, off), CompactHashTable::InsertResult::kInserted);
  EXPECT_EQ(table.find(h, key), off);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.erase(h, key), off);
  EXPECT_EQ(table.find(h, key), kNullOffset);
  EXPECT_EQ(table.size(), 0u);
}

TEST_F(TableTest, DuplicateInsertRejected) {
  const std::string key = "dup";
  const std::uint64_t off1 = add_item(key);
  const std::uint64_t off2 = add_item(key);
  const std::uint64_t h = hash_key(key);
  EXPECT_EQ(table.insert(h, key, off1), CompactHashTable::InsertResult::kInserted);
  EXPECT_EQ(table.insert(h, key, off2), CompactHashTable::InsertResult::kDuplicate);
  EXPECT_EQ(table.find(h, key), off1);
}

TEST_F(TableTest, ReplaceSwapsOffset) {
  const std::string key = "swap";
  const std::uint64_t off1 = add_item(key, "old");
  const std::uint64_t off2 = add_item(key, "new");
  const std::uint64_t h = hash_key(key);
  table.insert(h, key, off1);
  EXPECT_EQ(table.replace(h, key, off2), off1);
  EXPECT_EQ(table.find(h, key), off2);
  EXPECT_EQ(table.replace(h, "absent", 1), kNullOffset);
}

TEST_F(TableTest, EraseMissingReturnsNull) {
  EXPECT_EQ(table.erase(hash_key("ghost"), "ghost"), kNullOffset);
}

TEST_F(TableTest, ThousandsOfKeysAllFindableThroughOverflowChains) {
  // 64 root buckets x 7 slots = 448 direct slots; 5000 keys force chains.
  std::map<std::string, std::uint64_t> expect;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = format_key(static_cast<std::uint64_t>(i));
    const std::uint64_t off = add_item(key);
    ASSERT_EQ(table.insert(hash_key(key), key, off),
              CompactHashTable::InsertResult::kInserted);
    expect[key] = off;
  }
  EXPECT_EQ(table.size(), 5000u);
  EXPECT_GT(table.overflow_buckets(), 100u);
  for (const auto& [key, off] : expect) {
    ASSERT_EQ(table.find(hash_key(key), key), off) << key;
  }
}

TEST_F(TableTest, EraseAllMergesOverflowBucketsBackToArena) {
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = format_key(static_cast<std::uint64_t>(i));
    table.insert(hash_key(key), key, add_item(key));
    keys.push_back(key);
  }
  ASSERT_GT(table.overflow_buckets(), 0u);
  for (const auto& key : keys) {
    ASSERT_NE(table.erase(hash_key(key), key), kNullOffset);
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.overflow_buckets(), 0u);  // all merged/freed
}

TEST_F(TableTest, CompactionKeepsRemainingKeysReachable) {
  // Fill, erase half (forcing chain compaction), verify the rest.
  std::vector<std::string> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(format_key(static_cast<std::uint64_t>(i)));
  std::map<std::string, std::uint64_t> expect;
  for (const auto& key : keys) {
    const std::uint64_t off = add_item(key);
    table.insert(hash_key(key), key, off);
    expect[key] = off;
  }
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    table.erase(hash_key(keys[i]), keys[i]);
    expect.erase(keys[i]);
  }
  for (const auto& [key, off] : expect) {
    ASSERT_EQ(table.find(hash_key(key), key), off);
  }
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_EQ(table.find(hash_key(keys[i]), keys[i]), kNullOffset);
  }
}

TEST_F(TableTest, SignatureFilterSkipsMostFullKeyCompares) {
  for (int i = 0; i < 400; ++i) {
    const std::string key = format_key(static_cast<std::uint64_t>(i));
    table.insert(hash_key(key), key, add_item(key));
  }
  const std::uint64_t compares_before = table.full_key_compares();
  // Misses on present-bucket lookups: signatures should filter nearly all.
  for (int i = 1000; i < 1400; ++i) {
    const std::string key = format_key(static_cast<std::uint64_t>(i));
    EXPECT_EQ(table.find(hash_key(key), key), kNullOffset);
  }
  const std::uint64_t compares = table.full_key_compares() - compares_before;
  // 400 misses x ~7 slots scanned; with 16-bit signatures expect ~0 compares
  // (allow a handful of signature collisions).
  EXPECT_LT(compares, 20u);
}

TEST_F(TableTest, LookupIsSingleCacheLineWithoutOverflow) {
  const std::string key = "solo";
  table.insert(hash_key(key), key, add_item(key));
  const std::uint64_t reads_before = table.cacheline_reads();
  EXPECT_NE(table.find(hash_key(key), key), kNullOffset);
  EXPECT_EQ(table.cacheline_reads() - reads_before, 1u);
}

// ---------------------------------------------------------------- store

TEST(Store, InsertGetRoundTrip) {
  KVStore store;
  EXPECT_EQ(store.insert("k1", "v1", 0), Status::kOk);
  auto r = store.get("k1", 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, "v1");
  EXPECT_EQ(r.value().version, 1u);
  EXPECT_NE(r.value().offset, kNullOffset);
  EXPECT_EQ(store.size(), 1u);
}

TEST(Store, InsertExistingFails) {
  KVStore store;
  store.insert("k", "v", 0);
  EXPECT_EQ(store.insert("k", "v2", 0), Status::kExists);
  EXPECT_EQ(store.get("k", 0).value().value, "v");
}

TEST(Store, UpdateMissingFails) {
  KVStore store;
  EXPECT_EQ(store.update("nope", "v", 0), Status::kNotFound);
}

TEST(Store, GetMissingReportsNotFound) {
  KVStore store;
  auto r = store.get("missing", 0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::kNotFound);
  EXPECT_EQ(store.stats().get_misses, 1u);
}

TEST(Store, UpdateIsOutOfPlaceAndFlipsGuardian) {
  KVStore store;
  store.insert("k", "old-value", 0);
  const auto before = store.get("k", 0).value();
  ASSERT_EQ(store.update("k", "new-value", 100), Status::kOk);
  const auto after = store.get("k", 100).value();
  EXPECT_NE(before.offset, after.offset) << "update must not be in place";
  EXPECT_EQ(after.value, "new-value");
  EXPECT_EQ(after.version, 2u);
  // Old item memory still holds the dead carcass until the lease expires.
  ItemView old(store.arena().at(before.offset));
  EXPECT_FALSE(old.live());
  EXPECT_EQ(old.value(), "old-value");
  EXPECT_EQ(store.deferred_count(), 1u);
}

TEST(Store, PutUpsertsBothWays) {
  KVStore store;
  // Either way, a put walks the key's bucket chain exactly once.
  std::uint64_t lookups = store.table().lookups();
  EXPECT_EQ(store.put("k", "v1", 0), Status::kOk);
  EXPECT_EQ(store.table().lookups() - lookups, 1u);
  EXPECT_EQ(store.get("k", 0).value().version, 1u);
  lookups = store.table().lookups();
  EXPECT_EQ(store.put("k", "v2", 0), Status::kOk);
  EXPECT_EQ(store.table().lookups() - lookups, 1u);
  EXPECT_EQ(store.get("k", 0).value().version, 2u);
  EXPECT_EQ(store.get("k", 0).value().value, "v2");
  EXPECT_EQ(store.stats().inserts, 1u);
  EXPECT_EQ(store.stats().updates, 1u);
  EXPECT_EQ(store.put("", "v", 0), Status::kInvalidArgument);
}

TEST(Store, WritesReportTheNewItemWithoutAGet) {
  KVStore store;
  GetView written;
  ASSERT_EQ(store.insert("k", "v1", 0, &written), Status::kOk);
  EXPECT_EQ(written.version, 1u);
  EXPECT_EQ(written.value, "v1");
  EXPECT_EQ(written.lease_expiry, store.lease_term(1));
  // One probe per write, and neither a GET nor a popularity bump.
  const std::uint64_t lookups = store.table().lookups();
  ASSERT_EQ(store.update("k", "v2", 10, &written), Status::kOk);
  ASSERT_EQ(store.put("k", "v3", 20, &written), Status::kOk);
  EXPECT_EQ(store.table().lookups() - lookups, 2u);
  EXPECT_EQ(store.stats().gets, 0u);
  ItemView item(store.arena().at(written.offset));
  EXPECT_TRUE(item.live());
  EXPECT_EQ(item.header().access_count, 1u);
  EXPECT_EQ(written.version, 3u);
  EXPECT_EQ(written.value, "v3");
  EXPECT_EQ(written.total_len, item.total_size());
  EXPECT_EQ(written.lease_expiry, item.header().lease_expiry);

  const GetView before = written;
  EXPECT_EQ(store.update("missing", "v", 30, &written), Status::kNotFound);
  EXPECT_EQ(store.insert("k", "v", 30, &written), Status::kExists);
  EXPECT_EQ(written.offset, before.offset) << "a failed write reported a view";
  const auto got = store.get("k", 30, /*grant_lease=*/false).value();
  EXPECT_EQ(got.offset, before.offset);
  EXPECT_EQ(got.version, before.version);
}

TEST(Store, RemoveFlipsGuardianAndDefersReclaim) {
  KVStore store;
  store.insert("k", "v", 0);
  const auto view = store.get("k", 0).value();
  EXPECT_EQ(store.remove("k", 10), Status::kOk);
  EXPECT_EQ(store.get("k", 10).status(), Status::kNotFound);
  ItemView dead(store.arena().at(view.offset));
  EXPECT_FALSE(dead.live());
  EXPECT_EQ(store.deferred_count(), 1u);
  EXPECT_EQ(store.remove("k", 10), Status::kNotFound);
}

TEST(Store, LeaseTermDoublesWithPopularity) {
  KVStore store;
  EXPECT_EQ(store.lease_term(1), 1 * kSecond);
  EXPECT_EQ(store.lease_term(2), 2 * kSecond);
  EXPECT_EQ(store.lease_term(3), 2 * kSecond);
  EXPECT_EQ(store.lease_term(4), 4 * kSecond);
  EXPECT_EQ(store.lease_term(63), 32 * kSecond);
  EXPECT_EQ(store.lease_term(64), 64 * kSecond);
  EXPECT_EQ(store.lease_term(1'000'000), 64 * kSecond);  // capped
}

TEST(Store, GetExtendsLeaseWithPopularity) {
  KVStore store;
  store.insert("hot", "v", 0);
  Time expiry = 0;
  for (int i = 0; i < 100; ++i) {
    expiry = store.get("hot", 0).value().lease_expiry;
  }
  EXPECT_EQ(expiry, 64 * kSecond);  // popular key reaches the max term
}

TEST(Store, GetWithoutLeaseGrantLeavesStateUntouched) {
  KVStore store;
  store.insert("k", "v", 0);
  const auto first = store.get("k", 0, /*grant_lease=*/false).value();
  const auto second = store.get("k", 0, /*grant_lease=*/false).value();
  EXPECT_EQ(first.lease_expiry, second.lease_expiry);
}

TEST(Store, RenewLeaseExtends) {
  KVStore store;
  store.insert("k", "v", 0);
  const Time before = store.get("k", 0).value().lease_expiry;
  EXPECT_EQ(store.renew_lease("k", 10 * kSecond), Status::kOk);
  const Time after = store.get("k", 0, false).value().lease_expiry;
  EXPECT_GT(after, before);
  EXPECT_EQ(store.renew_lease("missing", 0), Status::kNotFound);
}

TEST(Store, GarbageCollectionRespectsLeases) {
  KVStore store;
  store.insert("k", "v", 0);
  store.get("k", 0);  // lease to ~1s
  const auto view = store.get("k", 0).value();
  store.remove("k", 100);
  // Before lease expiry nothing may be freed.
  EXPECT_EQ(store.collect_garbage(view.lease_expiry - 1), 0u);
  EXPECT_EQ(store.deferred_count(), 1u);
  // After expiry the carcass goes back to the arena.
  const std::size_t used_before = store.arena().bytes_in_use();
  EXPECT_EQ(store.collect_garbage(view.lease_expiry + 1), 1u);
  EXPECT_EQ(store.deferred_count(), 0u);
  EXPECT_LT(store.arena().bytes_in_use(), used_before);
  EXPECT_EQ(store.stats().reclaimed_items, 1u);
}

TEST(Store, NextReclaimDueTracksQueue) {
  KVStore store;
  EXPECT_EQ(store.next_reclaim_due(), 0u);
  store.insert("k", "v", 0);
  const auto view = store.get("k", 0).value();
  store.remove("k", 10);
  EXPECT_EQ(store.next_reclaim_due(), view.lease_expiry);
}

TEST(Store, RejectsInvalidArguments) {
  KVStore store;
  EXPECT_EQ(store.insert("", "v", 0), Status::kInvalidArgument);
  const std::string huge(kMaxValLen + 1, 'x');
  EXPECT_EQ(store.insert("k", huge, 0), Status::kInvalidArgument);
  const std::string long_key(kMaxKeyLen + 1, 'k');
  EXPECT_EQ(store.insert(long_key, "v", 0), Status::kInvalidArgument);
}

TEST(Store, ArenaExhaustionSurfacesAsOom) {
  StoreConfig cfg;
  cfg.arena_bytes = 16 * 1024;
  cfg.min_buckets = 4;
  KVStore store(cfg);
  Status last = Status::kOk;
  for (int i = 0; i < 1000 && last == Status::kOk; ++i) {
    last = store.insert(format_key(static_cast<std::uint64_t>(i)), synth_value(1, 64), 0);
  }
  EXPECT_EQ(last, Status::kOutOfMemory);
  EXPECT_GT(store.stats().oom_failures, 0u);
}

TEST(Store, MemoryIsReusedAfterGc) {
  StoreConfig cfg;
  cfg.arena_bytes = 1 << 20;
  KVStore store(cfg);
  // Churn the same keys many times; with GC the arena must not grow beyond
  // a small multiple of the live set.
  for (int round = 0; round < 50; ++round) {
    const Time now = static_cast<Time>(round) * 2 * kSecond;
    for (int i = 0; i < 50; ++i) {
      ASSERT_NE(store.put(format_key(static_cast<std::uint64_t>(i)), synth_value(static_cast<std::uint64_t>(round)), now),
                Status::kOutOfMemory)
          << "round " << round;
    }
    store.collect_garbage(now + kSecond);
  }
  EXPECT_EQ(store.size(), 50u);
}

TEST(Store, PopularitySurvivesUpdates) {
  KVStore store;
  store.insert("k", "v", 0);
  for (int i = 0; i < 70; ++i) store.get("k", 0);
  store.update("k", "v2", 0);
  // Next get should still grant the max lease (popularity carried over).
  EXPECT_EQ(store.get("k", 0).value().lease_expiry, 64 * kSecond);
}

// Property test: the store must agree with a reference map under random
// interleavings of insert/update/remove/get/gc.
class StorePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorePropertyTest, AgreesWithReferenceModel) {
  StoreConfig cfg;
  cfg.arena_bytes = 8 << 20;
  KVStore store(cfg);
  std::unordered_map<std::string, std::string> model;
  Xoshiro256 rng(GetParam());
  Time now = 0;
  for (int op = 0; op < 5000; ++op) {
    now += rng.below(50 * kMillisecond);
    const std::string key = format_key(rng.below(200));
    switch (rng.below(6)) {
      case 0: {  // insert
        const std::string value = synth_value(rng.below(1000), 8 + rng.below(64));
        const Status s = store.insert(key, value, now);
        if (model.contains(key)) {
          ASSERT_EQ(s, Status::kExists);
        } else {
          ASSERT_EQ(s, Status::kOk);
          model[key] = value;
        }
        break;
      }
      case 1: {  // update
        const std::string value = synth_value(rng.below(1000), 8 + rng.below(64));
        const Status s = store.update(key, value, now);
        if (model.contains(key)) {
          ASSERT_EQ(s, Status::kOk);
          model[key] = value;
        } else {
          ASSERT_EQ(s, Status::kNotFound);
        }
        break;
      }
      case 2: {  // remove
        const Status s = store.remove(key, now);
        ASSERT_EQ(s, model.erase(key) ? Status::kOk : Status::kNotFound);
        break;
      }
      case 5:  // gc
        store.collect_garbage(now);
        [[fallthrough]];
      default: {  // get
        auto r = store.get(key, now);
        if (model.contains(key)) {
          ASSERT_TRUE(r.ok()) << key;
          ASSERT_EQ(r.value().value, model[key]);
        } else {
          ASSERT_EQ(r.status(), Status::kNotFound);
        }
      }
    }
  }
  ASSERT_EQ(store.size(), model.size());
  store.collect_garbage(now + 100 * kSecond);
  EXPECT_EQ(store.deferred_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------- cache

struct FakePtr {
  std::uint64_t addr;
  std::uint64_t check;  // redundancy to detect torn reads: must equal ~addr
};

TEST(LockFreeCache, PutGetEraseSingleThread) {
  LockFreeCache<FakePtr> cache(256);
  EXPECT_EQ(cache.capacity(), 256u);
  FakePtr out{};
  EXPECT_FALSE(cache.get(42, &out));
  cache.put(42, FakePtr{100, ~100ULL});
  ASSERT_TRUE(cache.get(42, &out));
  EXPECT_EQ(out.addr, 100u);
  EXPECT_EQ(cache.size(), 1u);
  cache.put(42, FakePtr{200, ~200ULL});  // refresh, not a second entry
  ASSERT_TRUE(cache.get(42, &out));
  EXPECT_EQ(out.addr, 200u);
  EXPECT_EQ(cache.size(), 1u);
  cache.erase(42);
  EXPECT_FALSE(cache.get(42, &out));
  EXPECT_EQ(cache.size(), 0u);
  cache.erase(42);  // double erase is a no-op
}

// A write's pointer grant only refreshes what the node already caches
// (client.cpp): refresh() replaces present keys and nothing else.
TEST(LockFreeCache, RefreshReplacesOnlyPresentKeys) {
  LockFreeCache<FakePtr> cache(256);
  const auto always = [](const FakePtr&) { return true; };
  FakePtr out{};
  EXPECT_FALSE(cache.refresh(42, FakePtr{100, ~100ULL}, always));
  EXPECT_FALSE(cache.get(42, &out)) << "refresh claimed a slot";
  EXPECT_EQ(cache.size(), 0u);

  cache.put(42, FakePtr{100, ~100ULL});
  EXPECT_TRUE(cache.refresh(42, FakePtr{200, ~200ULL}, always));
  ASSERT_TRUE(cache.get(42, &out));
  EXPECT_EQ(out.addr, 200u);
  EXPECT_EQ(cache.size(), 1u);

  cache.erase(42);
  EXPECT_FALSE(cache.refresh(42, FakePtr{300, ~300ULL}, always));
  EXPECT_FALSE(cache.get(42, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LockFreeCache, RefreshNeverClaimsOrEvicts) {
  const auto always = [](const FakePtr&) { return true; };
  LockFreeCache<FakePtr> cache(64);
  for (std::uint64_t k = 1; k <= 1000; ++k) cache.put(k, FakePtr{k, ~k});
  const std::size_t size = cache.size();
  const std::uint64_t evictions = cache.evictions();
  ASSERT_GT(evictions, 0u) << "the window never filled";
  for (std::uint64_t k = 1001; k <= 2000; ++k) {
    EXPECT_FALSE(cache.refresh(k, FakePtr{k, ~k}, always)) << k;
  }
  EXPECT_EQ(cache.size(), size);
  EXPECT_EQ(cache.evictions(), evictions);
  FakePtr out{};
  for (std::uint64_t k = 1001; k <= 2000; ++k) ASSERT_FALSE(cache.get(k, &out)) << k;
}

TEST(LockFreeCache, RefreshVersionGateRejectsOlderPointer) {
  // addr stands in for the pointer's item version.
  const auto newer_than = [](std::uint64_t version) {
    return [version](const FakePtr& cached) { return cached.addr < version; };
  };
  LockFreeCache<FakePtr> cache(64);
  cache.put(7, FakePtr{5, ~5ULL});
  FakePtr out{};
  EXPECT_FALSE(cache.refresh(7, FakePtr{3, ~3ULL}, newer_than(3)));
  EXPECT_FALSE(cache.refresh(7, FakePtr{5, ~5ULL}, newer_than(5))) << "equal is not newer";
  ASSERT_TRUE(cache.get(7, &out));
  EXPECT_EQ(out.addr, 5u);
  EXPECT_TRUE(cache.refresh(7, FakePtr{9, ~9ULL}, newer_than(9)));
  ASSERT_TRUE(cache.get(7, &out));
  EXPECT_EQ(out.addr, 9u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LockFreeCache, ManyKeysWithinCapacity) {
  LockFreeCache<FakePtr> cache(4096);
  for (std::uint64_t k = 1; k <= 2000; ++k) cache.put(k, FakePtr{k * 10, ~(k * 10)});
  int found = 0;
  FakePtr out{};
  for (std::uint64_t k = 1; k <= 2000; ++k) {
    if (cache.get(k, &out)) {
      ASSERT_EQ(out.addr, k * 10);
      ++found;
    }
  }
  // A few probe-window evictions are allowed, but the vast majority stays.
  EXPECT_GT(found, 1900);
}

TEST(LockFreeCache, OverfullCacheEvictsInsteadOfFailing) {
  LockFreeCache<FakePtr> cache(64);
  for (std::uint64_t k = 1; k <= 1000; ++k) cache.put(k, FakePtr{k, ~k});
  EXPECT_GT(cache.evictions(), 0u);
  // Whatever is present must still be internally consistent.
  FakePtr out{};
  int found = 0;
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    if (cache.get(k, &out)) {
      ASSERT_EQ(out.check, ~out.addr);
      ++found;
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_LE(found, 64);
}

TEST(LockFreeCache, HitMissCountersTrack) {
  LockFreeCache<FakePtr> cache(64);
  cache.put(7, FakePtr{1, ~1ULL});
  FakePtr out{};
  cache.get(7, &out);
  cache.get(8, &out);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LockFreeCache, SlotsStayUnbackedUntilAnEntryIsWritten) {
  // A client node's pointer cache: 64k slots, of which a run may use few.
  LockFreeCache<FakePtr> cache(64 * 1024);
  const fabric::RegisteredBuffer& mem = cache.memory();
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  ASSERT_GE(mem.size(), 64 * 1024 * sizeof(FakePtr));
  EXPECT_EQ(test::resident_pages(mem.data(), mem.size()), 0u) << "construction wrote slots";

  constexpr std::uint64_t kEntries = 4;
  for (std::uint64_t k = 1; k <= kEntries; ++k) cache.put(mix64(k) | 1, FakePtr{k, ~k});
  // Each put writes one slot and reads at most its probe window, which may
  // run onto the next page.
  const std::size_t touched = test::resident_pages(mem.data(), mem.size());
  EXPECT_GE(touched, 1u);
  EXPECT_LE(touched, 2 * kEntries) << "of " << mem.size() / page << " pages";

  // The epoch sweep reads every slot; reading an untouched page maps the
  // shared zero page, which costs the process no memory.
  const std::size_t before = test::process_resident_pages();
  EXPECT_EQ(cache.erase_if([](std::uint64_t, const FakePtr&) { return false; }), 0u);
  EXPECT_LT(test::process_resident_pages(), before + mem.size() / page / 4);
  FakePtr out{};
  for (std::uint64_t k = 1; k <= kEntries; ++k) {
    ASSERT_TRUE(cache.get(mix64(k) | 1, &out));
    EXPECT_EQ(out.addr, k);
  }
}

}  // namespace
}  // namespace hydra::core
