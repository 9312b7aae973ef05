// Ordered-index model check (DESIGN.md §13): the B+-tree is driven through
// seeded-random interleavings of insert/update/erase/scan and compared
// against a std::map reference after every step, with the structural
// invariant walk (key order, fill bounds, uniform depth, leaf-chain
// integrity) asserted throughout. Plus the leaf-page codec's round-trip and
// corruption-rejection properties the one-sided scan path depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/harness.hpp"
#include "common/hash.hpp"
#include "common/keygen.hpp"
#include "common/rng.hpp"
#include "index/btree.hpp"
#include "index/leaf_page.hpp"

namespace hydra::index {
namespace {

std::vector<std::pair<std::string, std::uint64_t>> collect(const OrderedIndex& idx,
                                                           const std::string& from = "",
                                                           bool exclusive = false) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  idx.scan(from, exclusive, [&](std::string_view k, std::uint64_t off) {
    out.emplace_back(std::string(k), off);
    return true;
  });
  return out;
}

/// The first leaf a walk from `from` visits; nullopt when it visits none.
std::optional<OrderedIndex::LeafRef> leaf_for(const OrderedIndex& idx, std::string_view from,
                                              bool exclusive) {
  std::optional<OrderedIndex::LeafRef> out;
  idx.leaves_from(from, exclusive, [&out](const OrderedIndex::LeafRef& leaf) {
    out = leaf;
    return false;
  });
  return out;
}

// ---------------------------------------------------------------- structure

TEST(OrderedIndex, InsertFindErase) {
  OrderedIndex idx(4);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(idx.insert_or_assign("b", 2));
  EXPECT_TRUE(idx.insert_or_assign("a", 1));
  EXPECT_TRUE(idx.insert_or_assign("c", 3));
  EXPECT_FALSE(idx.insert_or_assign("b", 20));  // assign, not insert
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.find("b").value(), 20u);
  EXPECT_EQ(idx.find("a").value(), 1u);
  EXPECT_FALSE(idx.find("z").has_value());
  EXPECT_TRUE(idx.erase("b"));
  EXPECT_FALSE(idx.erase("b"));
  EXPECT_FALSE(idx.find("b").has_value());
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.check_invariants(), "");
}

TEST(OrderedIndex, SplitsKeepOrderAndInvariants) {
  OrderedIndex idx(4);  // tiny fanout forces deep trees quickly
  for (int i = 0; i < 500; ++i) {
    idx.insert_or_assign(format_key(static_cast<std::uint64_t>(i * 7919 % 500), 16),
                         static_cast<std::uint64_t>(i));
    ASSERT_EQ(idx.check_invariants(), "") << "after insert " << i;
  }
  const auto all = collect(idx);
  ASSERT_EQ(all.size(), idx.size());
  for (std::size_t i = 1; i < all.size(); ++i) EXPECT_LT(all[i - 1].first, all[i].first);
  EXPECT_GT(idx.leaf_count(), 1u);
}

TEST(OrderedIndex, EraseToEmptyCollapsesRoot) {
  OrderedIndex idx(4);
  for (int i = 0; i < 200; ++i) idx.insert_or_assign(format_key(i, 16), i);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(idx.erase(format_key(i, 16)));
    ASSERT_EQ(idx.check_invariants(), "") << "after erase " << i;
  }
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.leaf_count(), 1u);
  EXPECT_TRUE(collect(idx).empty());
}

TEST(OrderedIndex, ScanFromMidRangeAndExclusive) {
  OrderedIndex idx(8);
  for (int i = 0; i < 100; ++i) idx.insert_or_assign(format_key(i, 16), i);
  auto inc = collect(idx, format_key(50, 16), /*exclusive=*/false);
  ASSERT_EQ(inc.size(), 50u);
  EXPECT_EQ(inc.front().first, format_key(50, 16));
  auto exc = collect(idx, format_key(50, 16), /*exclusive=*/true);
  ASSERT_EQ(exc.size(), 49u);
  EXPECT_EQ(exc.front().first, format_key(51, 16));
  // Start key between two stored keys resumes at the successor either way.
  auto gap = collect(idx, format_key(50, 16) + "x", /*exclusive=*/false);
  ASSERT_EQ(gap.size(), 49u);
  EXPECT_EQ(gap.front().first, format_key(51, 16));
}

TEST(OrderedIndex, ScanEarlyStopAndLeafFor) {
  OrderedIndex idx(4);
  for (int i = 0; i < 64; ++i) idx.insert_or_assign(format_key(i, 16), i);
  int seen = 0;
  idx.scan("", false, [&](std::string_view, std::uint64_t) { return ++seen < 10; });
  EXPECT_EQ(seen, 10);

  const auto leaf = leaf_for(idx, format_key(30, 16), /*exclusive=*/false);
  ASSERT_TRUE(leaf.has_value());
  bool found = false;
  for (const auto& e : *leaf->entries) found = found || e.key == format_key(30, 16);
  EXPECT_TRUE(found);
  EXPECT_FALSE(leaf_for(idx, format_key(63, 16), /*exclusive=*/true).has_value());
}

TEST(OrderedIndex, LeafVersionBumpsOnMutation) {
  OrderedIndex idx(8);
  for (int i = 0; i < 8; ++i) idx.insert_or_assign(format_key(i, 16), i);
  const auto before = leaf_for(idx, format_key(0, 16), false);
  ASSERT_TRUE(before.has_value());
  const std::uint64_t v0 = before->version;
  idx.insert_or_assign(format_key(0, 16), 999);  // in-place assign
  const auto after = leaf_for(idx, format_key(0, 16), false);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->id, before->id);
  EXPECT_GT(after->version, v0);
}

TEST(OrderedIndex, LeavesFromWalksTheChainFromTheStartKey) {
  OrderedIndex idx(8);  // sequential inserts leave 4 entries per leaf
  for (int i = 0; i < 40; ++i) idx.insert_or_assign(format_key(i, 16), i);
  std::vector<OrderedIndex::LeafRef> seen;
  idx.leaves_from(format_key(5, 16), /*exclusive=*/true, [&](const auto& leaf) {
    seen.push_back(leaf);
    return seen.size() < 3;
  });
  ASSERT_EQ(seen.size(), 3u);
  // The first leaf starts the walk mid-leaf, at key 6; the rest start at 0.
  EXPECT_EQ((*seen[0].entries)[seen[0].first].key, format_key(6, 16));
  EXPECT_EQ(seen[1].first, 0u);
  EXPECT_EQ(seen[2].first, 0u);
  EXPECT_GT(seen[1].entries->front().key, seen[0].entries->back().key);
  EXPECT_GT(seen[2].entries->front().key, seen[1].entries->back().key);
  EXPECT_EQ(leaf_for(idx, format_key(5, 16), true)->id, seen[0].id);

  // The last entry of a leaf as exclusive start begins at the next leaf.
  const std::string last_of_first = seen[0].entries->back().key;
  std::uint64_t first_id = 0;
  idx.leaves_from(last_of_first, /*exclusive=*/true, [&](const auto& leaf) {
    first_id = leaf.id;
    EXPECT_EQ(leaf.first, 0u);
    return false;
  });
  EXPECT_EQ(first_id, seen[1].id);

  // The walk ends at the rightmost leaf, which says so.
  std::size_t leaves = 0;
  bool last = false;
  idx.leaves_from("", false, [&](const auto& leaf) {
    ++leaves;
    last = leaf.last;
    return true;
  });
  EXPECT_EQ(leaves, idx.leaf_count());
  EXPECT_TRUE(last);
  int none = 0;
  idx.leaves_from(format_key(39, 16), /*exclusive=*/true, [&](const auto&) {
    ++none;
    return true;
  });
  EXPECT_EQ(none, 0);
}

TEST(OrderedIndex, MergeReportsTheRetiredLeaf) {
  OrderedIndex idx(8);
  for (int i = 0; i < 40; ++i) idx.insert_or_assign(format_key(i, 16), i);
  std::vector<std::uint64_t> live;
  idx.leaves_from("", false, [&](const auto& leaf) {
    live.push_back(leaf.id);
    return true;
  });
  std::vector<std::uint64_t> retired;
  idx.set_retire_hook([&](std::uint64_t id) { retired.push_back(id); });
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(idx.erase(format_key(i, 16)));
    // Every reported id was a leaf once and is not one any more.
    std::vector<std::uint64_t> now;
    idx.leaves_from("", false, [&](const auto& leaf) {
      now.push_back(leaf.id);
      return true;
    });
    for (const std::uint64_t id : retired) {
      EXPECT_NE(std::find(live.begin(), live.end(), id), live.end());
      EXPECT_EQ(std::find(now.begin(), now.end(), id), now.end());
    }
  }
  // Emptying the tree merges every leaf but one away, each reported once.
  EXPECT_EQ(retired.size(), live.size() - 1);
  std::sort(retired.begin(), retired.end());
  EXPECT_EQ(std::adjacent_find(retired.begin(), retired.end()), retired.end());
}

std::vector<OrderedIndex::LeafRef> all_leaves(const OrderedIndex& idx) {
  std::vector<OrderedIndex::LeafRef> out;
  idx.leaves_from("", false, [&](const OrderedIndex::LeafRef& leaf) {
    out.push_back(leaf);
    return true;
  });
  return out;
}

TEST(OrderedIndex, LeavesNameTheirSuccessorAndTheHead) {
  OrderedIndex idx(8);
  for (int i = 0; i < 40; ++i) idx.insert_or_assign(format_key(i, 16), i);
  const auto leaves = all_leaves(idx);
  ASSERT_GT(leaves.size(), 2u);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(leaves[i].head, i == 0) << i;
    EXPECT_EQ(leaves[i].next_id, i + 1 < leaves.size() ? leaves[i + 1].id : 0) << i;
    EXPECT_EQ(leaves[i].last, leaves[i].next_id == 0) << i;
  }
}

TEST(OrderedIndex, BorrowByThePredecessorCountsALeftShift) {
  // Fanout 8, sequential load: 4-entry leaves (the minimum fill). Give the
  // second leaf a fifth entry, then underfill the head: it borrows the
  // second leaf's front entry. That move is the one a reader walking the
  // chain cannot see from the lender's page, so the index counts it, and
  // both leaves report the change.
  OrderedIndex idx(8);
  for (int i = 0; i < 40; ++i) idx.insert_or_assign(format_key(i, 16), i);
  idx.insert_or_assign(format_key(5, 16) + "+", 100);
  const auto before = all_leaves(idx);
  ASSERT_EQ(before[1].entries->size(), 5u);
  EXPECT_EQ(idx.left_shifts(), 0u);
  std::vector<std::uint64_t> changed;
  idx.set_change_hook([&](std::uint64_t id) { changed.push_back(id); });
  ASSERT_TRUE(idx.erase(format_key(0, 16)));
  ASSERT_EQ(idx.check_invariants(), "");

  const auto after = all_leaves(idx);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(after[0].entries->back().key, format_key(4, 16));  // the borrowed entry
  EXPECT_EQ(after[1].id, before[1].id);
  EXPECT_EQ(idx.left_shifts(), 1u);
  EXPECT_NE(std::find(changed.begin(), changed.end(), before[0].id), changed.end());
  EXPECT_NE(std::find(changed.begin(), changed.end(), before[1].id), changed.end());
  EXPECT_EQ(after[2].version, before[2].version);

  // A borrow the other way (an underfull leaf takes its left sibling's last
  // entry) moves nothing left and is not counted.
  idx.insert_or_assign(format_key(4, 16) + "+", 101);  // the head has spare again
  ASSERT_TRUE(idx.erase(format_key(6, 16)));
  ASSERT_TRUE(idx.erase(format_key(7, 16)));
  ASSERT_EQ(idx.check_invariants(), "");
  EXPECT_EQ(idx.left_shifts(), 1u);
}

TEST(OrderedIndex, ChangeHookReportsEveryBumpAndLinksMoveOnlyWithOne) {
  // Seeded inserts, reassigns and erases at a fanout that splits, borrows
  // and merges constantly. After each operation: every leaf whose version
  // moved was reported to the change hook, and a leaf whose version did not
  // move kept its successor id and head flag -- which is what lets a client
  // trust them on any page that still decodes.
  OrderedIndex idx(4);
  std::vector<std::uint64_t> changed;
  idx.set_change_hook([&](std::uint64_t id) { changed.push_back(id); });
  Xoshiro256 rng(42);
  for (int step = 0; step < 4000; ++step) {
    std::map<std::uint64_t, OrderedIndex::LeafRef> before;
    for (const auto& leaf : all_leaves(idx)) before.emplace(leaf.id, leaf);
    changed.clear();
    const std::string key = format_key(static_cast<int>(rng.below(200)), 16);
    if (rng.below(3) == 0) {
      idx.erase(key);
    } else {
      idx.insert_or_assign(key, static_cast<std::uint64_t>(step));
    }
    for (const auto& leaf : all_leaves(idx)) {
      const auto it = before.find(leaf.id);
      if (it == before.end()) continue;
      if (leaf.version != it->second.version) {
        EXPECT_NE(std::find(changed.begin(), changed.end(), leaf.id), changed.end())
            << "step " << step << " leaf " << leaf.id;
      } else {
        EXPECT_EQ(leaf.next_id, it->second.next_id) << "step " << step;
        EXPECT_EQ(leaf.head, it->second.head) << "step " << step;
      }
    }
    if (HasFailure()) return;
  }
}

TEST(OrderedIndex, SequentialLoadLeavesCarryNoSplitSlack) {
  // A split leaves the left leaf with half its entries; the capacity it had
  // before the split must not stay allocated with it.
  for (const std::size_t fanout : {std::size_t{8}, std::size_t{32}}) {
    OrderedIndex idx(fanout);
    for (int i = 0; i < 20000; ++i) idx.insert_or_assign(format_key(i, 16), i);
    EXPECT_LE(static_cast<double>(idx.leaf_capacity()), 1.25 * static_cast<double>(idx.size()))
        << "fanout " << fanout << ": " << idx.leaf_capacity() << " slots for " << idx.size();
  }
}

// ---------------------------------------------------- model check vs std::map

struct ModelTrace {
  std::vector<std::string> log;  ///< serialized op results for determinism diff
};

// void-returning so ASSERT_* may bail; the trace comes back via `out`.
void run_model_check(std::uint64_t seed, int ops, ModelTrace& trace) {
  Xoshiro256 rng(seed);
  const std::size_t fanout = 4 + rng.below(29);  // 4..32
  OrderedIndex idx(fanout);
  std::map<std::string, std::uint64_t> ref;
  const std::uint64_t key_space = 64 + rng.below(512);

  for (int i = 0; i < ops; ++i) {
    const std::string key = format_key(rng.below(key_space), 16);
    const double dice = rng.uniform();
    if (dice < 0.45) {  // insert-or-update
      const std::uint64_t off = rng();
      const bool inserted = idx.insert_or_assign(key, off);
      const bool fresh = ref.find(key) == ref.end();
      ref[key] = off;
      EXPECT_EQ(inserted, fresh) << "seed " << seed << " op " << i;
      trace.log.push_back("u" + key + (inserted ? "1" : "0"));
    } else if (dice < 0.65) {  // erase
      const bool erased = idx.erase(key);
      EXPECT_EQ(erased, ref.erase(key) > 0) << "seed " << seed << " op " << i;
      trace.log.push_back("e" + key + (erased ? "1" : "0"));
    } else if (dice < 0.8) {  // point lookup
      const auto got = idx.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(got.has_value(), it != ref.end()) << "seed " << seed << " op " << i;
      if (got.has_value()) EXPECT_EQ(*got, it->second);
      trace.log.push_back("f" + key);
    } else {  // bounded range scan vs the reference
      const bool exclusive = rng.below(2) == 1;
      const std::size_t limit = 1 + rng.below(32);
      std::vector<std::pair<std::string, std::uint64_t>> got;
      idx.scan(key, exclusive, [&](std::string_view k, std::uint64_t off) {
        got.emplace_back(std::string(k), off);
        return got.size() < limit;
      });
      auto it = exclusive ? ref.upper_bound(key) : ref.lower_bound(key);
      std::vector<std::pair<std::string, std::uint64_t>> want;
      for (; it != ref.end() && want.size() < limit; ++it) want.emplace_back(*it);
      ASSERT_EQ(got, want) << "seed " << seed << " op " << i;
      std::string s = "s";
      for (const auto& [k, v] : got) s += k;
      trace.log.push_back(std::move(s));
    }
    if (i % 16 == 0) {
      ASSERT_EQ(idx.check_invariants(), "") << "seed " << seed << " op " << i;
      ASSERT_EQ(idx.size(), ref.size());
    }
  }
  ASSERT_EQ(idx.check_invariants(), "") << "seed " << seed << " final";

  // Full sweep: the index and the reference agree entry-for-entry.
  const auto all = collect(idx);
  ASSERT_EQ(all.size(), ref.size()) << "seed " << seed;
  auto rit = ref.begin();
  for (const auto& [k, v] : all) {
    ASSERT_EQ(k, rit->first) << "seed " << seed;
    ASSERT_EQ(v, rit->second) << "seed " << seed;
    ++rit;
  }
  for (const auto& [k, v] : all) trace.log.push_back("F" + k);
}

TEST(OrderedIndexModel, SeededRandomVsStdMap) {
  // >= 200 seeds by default (the acceptance floor); HYDRA_INDEX_RANDOM_RUNS
  // widens or narrows the sweep (tier1.sh --scan scales it under sanitizers).
  const int runs = chaos::random_runs("HYDRA_INDEX_RANDOM_RUNS", 200);
  for (int r = 0; r < runs; ++r) {
    ModelTrace trace;
    run_model_check(0x5EEDBA5Eu + static_cast<std::uint64_t>(r) * 7919u, 400, trace);
    if (HasFatalFailure() || HasFailure()) return;
  }
}

TEST(OrderedIndexModel, DeterministicDoubleRun) {
  // Same seed => identical op-by-op results and identical final sweep.
  ModelTrace a;
  ModelTrace b;
  run_model_check(424242, 600, a);
  run_model_check(424242, 600, b);
  ASSERT_FALSE(a.log.empty());
  ASSERT_EQ(a.log, b.log);
}

// ------------------------------------------------------------ leaf-page codec

/// Keys with shared prefixes (and one key that extends its predecessor), so
/// the front coding is exercised, plus an empty value.
LeafPageEntries sample_entries() {
  static const std::vector<std::pair<std::string, std::string>> kv = {
      {"alpha", "1111"}, {"alphabet", "22"}, {"alpine", "333333"}, {"bravo", ""}};
  LeafPageEntries out;
  for (const auto& [k, v] : kv) out.emplace_back(k, v);
  return out;
}

/// Small header values keep every header varint one byte long, so the
/// tests below can address fields by offset.
constexpr LeafPageHeader kSmallHeader{/*leaf_id=*/4, /*leaf_version=*/1, /*epoch=*/1,
                                      /*next_id=*/5, /*left_shifts=*/2, /*first=*/false};
constexpr std::size_t kCountAt = kLeafPagePrefixBytes;
constexpr std::size_t kFlagsAt = kLeafPagePrefixBytes + 4;
constexpr std::size_t kNextAt = kLeafPagePrefixBytes + 5;
constexpr std::size_t kShiftsAt = kLeafPagePrefixBytes + 6;

std::vector<std::byte> encoded(const LeafPageHeader& header, const LeafPageEntries& entries) {
  std::vector<std::byte> page(leaf_page_bytes(header, entries));
  EXPECT_TRUE(encode_leaf_page(page, header, entries));
  return page;
}

void append_varint(std::vector<std::byte>& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
  out.push_back(static_cast<std::byte>(v));
}

std::vector<std::byte> varints(std::initializer_list<std::uint64_t> values) {
  std::vector<std::byte> out;
  for (const std::uint64_t v : values) append_varint(out, v);
  return out;
}

std::vector<std::byte> cat(std::vector<std::byte> a, const std::vector<std::byte>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

/// A page of `body` (header varints, then payload) behind a valid magic and
/// checksum, so only the decoder's structural checks can reject it.
std::vector<std::byte> sealed(const std::vector<std::byte>& body) {
  std::vector<std::byte> page(kLeafPagePrefixBytes);
  const std::uint32_t magic = kLeafPageMagic;
  std::memcpy(page.data(), &magic, sizeof magic);
  page.insert(page.end(), body.begin(), body.end());
  const std::uint64_t sum =
      hash_bytes(page.data() + kLeafPagePrefixBytes, page.size() - kLeafPagePrefixBytes);
  std::memcpy(page.data() + 4, &sum, sizeof sum);
  return page;
}

/// Re-seals a page whose bytes a test edited.
std::vector<std::byte> resealed(const std::vector<std::byte>& page) {
  return sealed({page.begin() + kLeafPagePrefixBytes, page.end()});
}

/// Header varints of a middle leaf (id 4, successor 5), in wire order.
std::vector<std::byte> middle_header(std::uint64_t count, std::uint64_t payload) {
  return varints({count, 4, 1, 1, /*flags=*/0, /*next_id=*/5, 2, payload});
}

TEST(LeafPage, RoundTrip) {
  const auto entries = sample_entries();
  const LeafPageHeader tail{7, 3, 9, /*next_id=*/0, /*left_shifts=*/4, /*first=*/true};
  std::vector<std::byte> page(leaf_page_bytes(tail, entries) + 64);  // slack tolerated
  ASSERT_TRUE(encode_leaf_page(page, tail, entries));
  const auto decoded = decode_leaf_page(page);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->leaf_id, 7u);
  EXPECT_EQ(decoded->leaf_version, 3u);
  EXPECT_EQ(decoded->epoch, 9u);
  EXPECT_EQ(decoded->next_id, 0u);
  EXPECT_EQ(decoded->left_shifts, 4u);
  EXPECT_TRUE(decoded->first);
  EXPECT_TRUE(decoded->last);
  ASSERT_EQ(decoded->entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded->entries[i].first, entries[i].first);
    EXPECT_EQ(decoded->entries[i].second, entries[i].second);
  }

  // A middle leaf: names its successor, neither first nor last. Full-width
  // header values take 10-byte varints and still round-trip.
  const LeafPageHeader middle_leaf{~0ULL, ~0ULL - 1, 1ULL << 63, 0x1122334455667788ULL,
                                   ~0ULL, /*first=*/false};
  ASSERT_TRUE(encode_leaf_page(page, middle_leaf, entries));
  const auto middle = decode_leaf_page(page);
  ASSERT_TRUE(middle.has_value());
  EXPECT_EQ(middle->leaf_id, ~0ULL);
  EXPECT_EQ(middle->leaf_version, ~0ULL - 1);
  EXPECT_EQ(middle->epoch, 1ULL << 63);
  EXPECT_EQ(middle->next_id, 0x1122334455667788ULL);
  EXPECT_EQ(middle->left_shifts, ~0ULL);
  EXPECT_FALSE(middle->first);
  EXPECT_FALSE(middle->last);
  EXPECT_EQ(middle->entries.size(), entries.size());
}

TEST(LeafPage, EncodeRejectsUndersizedBuffer) {
  const auto entries = sample_entries();
  std::vector<std::byte> page(leaf_page_bytes(kSmallHeader, entries) - 1);
  EXPECT_FALSE(encode_leaf_page(page, kSmallHeader, entries));
}

TEST(LeafPage, SizeIsExactAndKeysAreFrontCoded) {
  const auto entries = sample_entries();
  // prefix 12, eight one-byte header varints; entries {shared, unshared,
  // vlen} + suffix + value: alpha 3+5+4, alphabet 3+3+2, alpine 3+3+6,
  // bravo 3+5+0.
  EXPECT_EQ(leaf_page_bytes(kSmallHeader, entries), 12u + 8u + 12u + 8u + 12u + 8u);
  // Header varints grow with their values, and the size follows them.
  LeafPageHeader wide = kSmallHeader;
  wide.leaf_version = 128;
  EXPECT_EQ(leaf_page_bytes(wide, entries), leaf_page_bytes(kSmallHeader, entries) + 1);
  EXPECT_TRUE(decode_leaf_page(encoded(wide, entries)).has_value());
}

TEST(LeafPage, FormatKeyLeafStaysCompact) {
  // A full 16-entry leaf of YCSB keys with 32-byte values, the shape a scan
  // reads. One-sided scans are bound by page bytes, so a change that bloats
  // pages fails here.
  std::vector<std::pair<std::string, std::string>> kv;
  for (std::uint64_t i = 12340; i < 12356; ++i) {
    kv.emplace_back(format_key(i, 16), std::string(32, 'v'));
  }
  LeafPageEntries entries;
  for (const auto& [k, v] : kv) entries.emplace_back(k, v);
  const LeafPageHeader header{/*leaf_id=*/1500, /*leaf_version=*/300, /*epoch=*/3,
                              /*next_id=*/1501, /*left_shifts=*/700, /*first=*/false};
  const std::size_t bytes = leaf_page_bytes(header, entries);
  EXPECT_LE(bytes, 640u);
  const auto decoded = decode_leaf_page(encoded(header, entries));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->entries.size(), kv.size());
  for (std::size_t i = 0; i < kv.size(); ++i) EXPECT_EQ(decoded->entries[i], kv[i]);
}

TEST(LeafPage, TruncationRejected) {
  const auto page = encoded(kSmallHeader, sample_entries());
  for (std::size_t cut = 0; cut < page.size(); ++cut) {
    EXPECT_FALSE(decode_leaf_page({page.data(), cut}).has_value()) << "cut " << cut;
  }
}

TEST(LeafPage, EveryFlippedByteRejected) {
  // The checksum covers every byte after it: flipping ANY byte of the
  // encoded page must be caught (this is what makes torn RDMA reads safe).
  // Both flags and a non-zero successor id are set, so the flip also spans
  // every header field.
  const LeafPageHeader header{5, 9, 2, /*next_id=*/6, /*left_shifts=*/3, /*first=*/true};
  const auto page = encoded(header, sample_entries());
  ASSERT_TRUE(decode_leaf_page(page).has_value());
  for (std::size_t i = 0; i < page.size(); ++i) {
    std::vector<std::byte> torn = page;
    torn[i] ^= std::byte{0xA5};
    EXPECT_FALSE(decode_leaf_page(torn).has_value()) << "byte " << i;
  }
}

TEST(LeafPage, PoisonZeroesThePrefix) {
  auto page = encoded(kSmallHeader, sample_entries());
  const auto before = page;
  poison_leaf_page(page);
  EXPECT_FALSE(decode_leaf_page(page).has_value());
  for (std::size_t i = 0; i < page.size(); ++i) {
    EXPECT_EQ(page[i], i < kLeafPagePrefixBytes ? std::byte{0} : before[i]) << "byte " << i;
  }
}

TEST(LeafPage, CountCorruptionNeverWildReads) {
  // A forged count that implies more entries than the payload can hold must
  // fail before any allocation (mirroring the proto codec discipline), even
  // behind a valid checksum.
  const auto page = encoded(kSmallHeader, sample_entries());
  for (const std::uint64_t count : {0xFFFFFFULL, 1ULL << 40, ~0ULL}) {
    const auto body = std::vector<std::byte>(page.begin() + kCountAt + 1, page.end());
    const auto forged = sealed(cat(varints({count}), body));
    EXPECT_FALSE(decode_leaf_page(forged).has_value()) << "count " << count;
  }
  // A count one past the entries present fails too: the payload runs out.
  std::vector<std::byte> more = page;
  more[kCountAt] = std::byte{5};
  EXPECT_FALSE(decode_leaf_page(resealed(more)).has_value());
}

TEST(LeafPage, UnknownFlagsRejected) {
  // Bits 0 (last) and 1 (first) are defined; every other one is refused,
  // checksum or not.
  const auto payload = cat(varints({0, 1, 0}), bytes_of("k"));
  for (int bit = 2; bit < 64; ++bit) {
    const std::uint64_t flags = std::uint64_t{1} << bit;
    const auto page = sealed(cat(varints({1, 4, 1, 1, flags, 5, 2, payload.size()}), payload));
    EXPECT_FALSE(decode_leaf_page(page).has_value()) << "bit " << bit;
  }
  ASSERT_TRUE(decode_leaf_page(sealed(cat(middle_header(1, payload.size()), payload))).has_value());
}

TEST(LeafPage, ForgedChainFieldsFailTheChecksum) {
  // A reader trusts the successor id, the left-shift stamp and the first
  // flag to start and walk a scan, so none may change without the checksum
  // noticing.
  const auto entries = sample_entries();
  const auto page = encoded(kSmallHeader, entries);
  ASSERT_TRUE(decode_leaf_page(page).has_value());

  std::vector<std::byte> forged = page;
  forged[kNextAt] = std::byte{9};  // another successor
  EXPECT_FALSE(decode_leaf_page(forged).has_value());

  forged = page;
  forged[kShiftsAt] = std::byte{7};  // a later left-shift stamp
  EXPECT_FALSE(decode_leaf_page(forged).has_value());

  forged = page;
  forged[kFlagsAt] |= static_cast<std::byte>(kLeafPageFlagFirst);  // claims to be the head
  EXPECT_FALSE(decode_leaf_page(forged).has_value());

  // The last flag and a zero successor must agree, checksum or not.
  LeafPageHeader tail = kSmallHeader;
  tail.next_id = 0;
  forged = encoded(tail, entries);
  ASSERT_TRUE(decode_leaf_page(forged).has_value());
  forged[kFlagsAt] &= ~static_cast<std::byte>(kLeafPageFlagLast);
  EXPECT_FALSE(decode_leaf_page(resealed(forged)).has_value());
  forged = page;
  forged[kFlagsAt] |= static_cast<std::byte>(kLeafPageFlagLast);
  EXPECT_FALSE(decode_leaf_page(resealed(forged)).has_value());
}

TEST(LeafPage, MalformedVarintsRejected) {
  const auto payload = cat(varints({0, 1, 0}), bytes_of("k"));
  const std::size_t n = payload.size();
  ASSERT_TRUE(decode_leaf_page(sealed(cat(middle_header(1, n), payload))).has_value());
  // The leaf id, spelled three wrong ways: 11 bytes (overlong), a 10th
  // byte carrying bits past 64 (overflow), and a trailing zero group (not
  // minimal). The count is 1, so the id starts right after it.
  const std::vector<std::vector<std::byte>> bad_ids = {
      cat(std::vector<std::byte>(10, std::byte{0x80}), {std::byte{0x00}}),
      cat(std::vector<std::byte>(9, std::byte{0xFF}), {std::byte{0x02}}),
      {std::byte{0x84}, std::byte{0x00}},
  };
  for (const auto& id : bad_ids) {
    const auto body = cat(cat(varints({1}), id), varints({1, 1, 0, 5, 2, n}));
    EXPECT_FALSE(decode_leaf_page(sealed(cat(body, payload))).has_value());
  }
  // The same faults inside an entry's length varints.
  const std::vector<std::vector<std::byte>> bad_entries = {
      cat(varints({0, 1}), {std::byte{0x80}, std::byte{0x00}}),  // vlen 0, not minimal
      cat(varints({0}), cat(std::vector<std::byte>(10, std::byte{0x81}), {std::byte{0x01}})),
      cat(varints({0, 1}), std::vector<std::byte>(10, std::byte{0xFF})),  // runs off the end
  };
  for (const auto& lengths : bad_entries) {
    const auto entry = cat(lengths, bytes_of("k"));
    EXPECT_FALSE(decode_leaf_page(sealed(cat(middle_header(1, entry.size()), entry))).has_value());
  }
  // A 10-byte varint holding 2^64-1 is legal; as a length it overruns.
  const auto huge = cat(varints({0, ~0ULL, 0}), bytes_of("k"));
  EXPECT_FALSE(decode_leaf_page(sealed(cat(middle_header(1, huge.size()), huge))).has_value());
}

TEST(LeafPage, SharedBeyondPreviousKeyRejected) {
  // The first key has nothing to share.
  const auto first = cat(varints({1, 1, 0}), bytes_of("k"));
  EXPECT_FALSE(decode_leaf_page(sealed(cat(middle_header(1, first.size()), first))).has_value());
  // "ab" then a key sharing 2 bytes decodes; sharing 3 of "ab" does not.
  for (const std::uint64_t shared : {2u, 3u}) {
    const auto payload = cat(cat(varints({0, 2, 0}), bytes_of("ab")),
                             cat(varints({shared, 1, 0}), bytes_of("c")));
    const auto decoded = decode_leaf_page(sealed(cat(middle_header(2, payload.size()), payload)));
    EXPECT_EQ(decoded.has_value(), shared == 2) << "shared " << shared;
    if (decoded.has_value()) {
      EXPECT_EQ(decoded->entries[1].first, "abc");
    }
  }
}

TEST(LeafPage, TrailingPayloadBytesRejected) {
  // Payload bytes the entries do not consume are refused, even though the
  // checksum covers them; slack past the declared payload is not.
  const auto payload = cat(varints({0, 1, 0}), bytes_of("k"));
  const auto padded = cat(payload, {std::byte{0}});
  EXPECT_FALSE(decode_leaf_page(sealed(cat(middle_header(1, padded.size()), padded))).has_value());
  const auto slack = cat(sealed(cat(middle_header(1, payload.size()), payload)), {std::byte{0}});
  EXPECT_TRUE(decode_leaf_page(slack).has_value());
}

TEST(LeafPage, RandomMutationsNeverMisdecode) {
  // Seeded random pages, mutated by flips, overwrites, cuts, inserts and
  // deletions and then re-sealed, so the mutations reach the structural
  // checks behind the checksum. The decoder must never read outside the
  // page (ASan watches under tier1.sh --asan), and whatever it accepts
  // must be a page that re-encodes to the same content.
  Xoshiro256 rng(20260417);
  std::size_t accepted = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<std::string> keys;
    for (std::uint64_t i = 0, n = rng.below(12); i < n; ++i) {
      std::string k;
      for (std::uint64_t j = 0, len = rng.below(8); j < len; ++j) {
        k.push_back(static_cast<char>('a' + rng.below(3)));
      }
      keys.push_back(std::move(k));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<std::string> values;
    for (std::size_t i = 0; i < keys.size(); ++i) values.emplace_back(rng.below(6), 'v');
    LeafPageEntries entries;
    for (std::size_t i = 0; i < keys.size(); ++i) entries.emplace_back(keys[i], values[i]);
    auto field = [&rng] { return rng() >> rng.below(64); };
    LeafPageHeader header{field(), field(), field(), field(), field(), rng.below(2) == 1};
    if (rng.below(2) == 0) header.next_id = 0;
    const auto page = encoded(header, entries);
    ASSERT_TRUE(decode_leaf_page(page).has_value());

    for (int m = 0; m < 40; ++m) {
      std::vector<std::byte> body(page.begin() + kLeafPagePrefixBytes, page.end());
      for (std::uint64_t edits = 1 + rng.below(3); edits > 0 && !body.empty(); --edits) {
        const std::size_t at = rng.below(body.size());
        switch (rng.below(5)) {
          case 0: body[at] ^= static_cast<std::byte>(1u << rng.below(8)); break;
          case 1: body[at] = static_cast<std::byte>(rng.below(256)); break;
          case 2: body.resize(at); break;
          case 3: body.insert(body.begin() + static_cast<std::ptrdiff_t>(at),
                              static_cast<std::byte>(rng.below(256))); break;
          default: body.erase(body.begin() + static_cast<std::ptrdiff_t>(at)); break;
        }
      }
      const auto forged = sealed(body);
      const auto decoded = decode_leaf_page(forged);
      if (!decoded.has_value()) continue;
      ++accepted;
      LeafPageEntries again;
      for (const auto& [k, v] : decoded->entries) again.emplace_back(k, v);
      EXPECT_LE(leaf_page_bytes(*decoded, again), forged.size());
      const auto redecoded = decode_leaf_page(encoded(*decoded, again));
      ASSERT_TRUE(redecoded.has_value());
      EXPECT_EQ(redecoded->entries, decoded->entries);
      EXPECT_EQ(redecoded->next_id, decoded->next_id);
      EXPECT_EQ(redecoded->left_shifts, decoded->left_shifts);
      EXPECT_EQ(redecoded->first, decoded->first);
    }
  }
  EXPECT_GT(accepted, 0u);  // some mutations (value bytes) stay well-formed
}

TEST(LeafPage, EmptyPageRoundTrips) {
  const LeafPageHeader head{1, 1, 1, /*next_id=*/0, /*left_shifts=*/0, /*first=*/true};
  const auto page = encoded(head, {});
  // The test-side sealer and the encoder agree byte for byte.
  EXPECT_EQ(page, sealed(varints({0, 1, 1, 1, kLeafPageFlagLast | kLeafPageFlagFirst, 0, 0, 0})));
  const auto decoded = decode_leaf_page(page);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->entries.empty());
  EXPECT_TRUE(decoded->last);
}

}  // namespace
}  // namespace hydra::index
