// Range-scan system tests (DESIGN.md §13): cluster-level cross-shard merge
// correctness, the one-sided leaf-read fast path and its message-path
// parity, the leaf mirror's page lifecycle (one refresh per leaf version,
// fresh chained hints, freed pages failing closed), the client leaf cache's
// freshness under poison-on-write, kScan hardening against index-less
// shards, and the
// scan-mid-migration chaos family (scripted schedules x seeds plus a
// seeded sweep scaled by HYDRA_SCAN_RANDOM_RUNS).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/harness.hpp"
#include "hydradb/hydra_cluster.hpp"

namespace hydra {
namespace {

std::string skey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "sk-%06d", i);
  return buf;
}

db::ClusterOptions scan_options(bool leaf_reads = true) {
  db::ClusterOptions opts;
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 2;
  opts.replicas = 0;
  opts.enable_swat = false;
  opts.ordered_index = true;
  opts.client_template.scan_leaf_reads = leaf_reads;
  return opts;
}

// --------------------------------------------------------------- data path

TEST(ScanCluster, MergesSortedAcrossShards) {
  db::HydraCluster cluster(scan_options());
  const int n = 200;
  for (int i = 0; i < n; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(0), n + 10, &out), Status::kOk);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].first, skey(i));
    EXPECT_EQ(out[static_cast<std::size_t>(i)].second, "v" + std::to_string(i));
  }
  // Keys really are spread: more than one shard contributed.
  std::map<ShardId, int> per_shard;
  for (int i = 0; i < n; ++i) ++per_shard[cluster.owner_of(skey(i))];
  EXPECT_GT(per_shard.size(), 1u);
}

TEST(ScanCluster, HonorsLimitAndStartKey) {
  db::HydraCluster cluster(scan_options());
  for (int i = 0; i < 100; ++i) cluster.direct_load(skey(i), "v");

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(40), 25, &out), Status::kOk);
  ASSERT_EQ(out.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].first, skey(40 + i));
  }
  // Start past the end: empty result, still kOk.
  out.clear();
  ASSERT_EQ(cluster.scan(skey(100), 10, &out), Status::kOk);
  EXPECT_TRUE(out.empty());
  // Mid-gap start resumes at the successor.
  out.clear();
  ASSERT_EQ(cluster.scan(skey(40) + "x", 3, &out), Status::kOk);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, skey(41));
}

TEST(ScanCluster, ScansSeeAckedWrites) {
  db::HydraCluster cluster(scan_options());
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(cluster.put(skey(i), "w" + std::to_string(i)), Status::kOk);
  }
  ASSERT_EQ(cluster.remove(skey(25)), Status::kOk);
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(0), 100, &out), Status::kOk);
  ASSERT_EQ(out.size(), 49u);
  for (const auto& [k, v] : out) EXPECT_NE(k, skey(25));
}

TEST(ScanCluster, LeafReadsServeAndParityWithMessagePath) {
  // Same dataset scanned with and without the one-sided leaf fast path:
  // identical results, and the fast path actually fires when enabled.
  std::vector<std::pair<std::string, std::string>> with_leaf;
  std::vector<std::pair<std::string, std::string>> without_leaf;
  std::uint64_t leaf_reads = 0;
  for (const bool leaf : {true, false}) {
    db::HydraCluster cluster(scan_options(leaf));
    for (int i = 0; i < 300; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));
    // Repeated scans let continuations ride the advertised leaf hints.
    auto& out = leaf ? with_leaf : without_leaf;
    for (int r = 0; r < 4; ++r) {
      out.clear();
      ASSERT_EQ(cluster.scan(skey(0), 310, &out), Status::kOk);
    }
    std::uint64_t reads = 0;
    std::uint64_t fallbacks = 0;
    for (const auto* c : cluster.clients()) {
      reads += c->stats().scan_leaf_reads;
      fallbacks += c->stats().scan_leaf_fallbacks;
    }
    if (leaf) {
      leaf_reads = reads;
    } else {
      EXPECT_EQ(reads, 0u);
      EXPECT_EQ(fallbacks, 0u);
    }
  }
  EXPECT_GT(leaf_reads, 0u);
  EXPECT_EQ(with_leaf, without_leaf);
}

TEST(ScanCluster, IndexlessShardRejectsScan) {
  db::ClusterOptions opts = scan_options();
  opts.ordered_index = false;  // stores never allocate the index
  db::HydraCluster cluster(opts);
  for (int i = 0; i < 10; ++i) cluster.direct_load(skey(i), "v");
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(cluster.scan(skey(0), 10, &out), Status::kInvalidArgument);
  EXPECT_TRUE(out.empty());
}

TEST(ScanCluster, ServerScanCountersAdvance) {
  db::HydraCluster cluster(scan_options());
  for (int i = 0; i < 100; ++i) cluster.direct_load(skey(i), "v");
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(0), 120, &out), Status::kOk);
  std::uint64_t scans = 0;
  std::uint64_t entries = 0;
  for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()); ++s) {
    scans += cluster.shard(s)->stats().scans;
    entries += cluster.shard(s)->stats().scan_entries;
  }
  EXPECT_GT(scans, 0u);
  EXPECT_GT(entries, 0u);  // leaf-read entries bypass the server counter
  std::uint64_t cursor_scans = 0;
  std::uint64_t client_entries = 0;
  for (const auto* c : cluster.clients()) {
    cursor_scans += c->stats().scans;
    client_entries += c->stats().scan_entries;
  }
  EXPECT_EQ(cursor_scans, 1u);
  EXPECT_GE(client_entries, 100u);  // message-path + leaf-read entries combined
}

// ------------------------------------------------- one-sided leaf mirror

/// One shard with 4-entry leaves (fanout 8, sequential load) and 4-entry
/// batches, so a scan's hint list and the leaves it names are predictable.
db::ClusterOptions single_shard_options() {
  db::ClusterOptions opts = scan_options();
  opts.server_nodes = 1;
  opts.shard_template.store.index_fanout = 8;
  opts.client_template.scan_batch = 4;
  return opts;
}

std::uint64_t total_refreshes(db::HydraCluster& cluster) {
  std::uint64_t n = 0;
  for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()); ++s) {
    n += cluster.shard(s)->stats().scan_leaf_refreshes;
  }
  return n;
}

TEST(ScanMirror, RepeatedPassesRefreshEachLeafOnce) {
  // Far more leaves per shard than a 64-page mirror could hold: with no
  // writes between passes, every page minted in the first pass is still
  // fresh in the next ones, so nothing is re-encoded again.
  db::ClusterOptions opts = scan_options();
  opts.shard_template.store.index_fanout = 8;
  opts.client_template.scan_batch = 4;
  db::HydraCluster cluster(opts);
  const int n = 3600;
  for (int i = 0; i < n; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));
  for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()); ++s) {
    ASSERT_GE(cluster.shard(s)->store().index()->leaf_count(), 4u * 64u) << "shard " << s;
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(0), n, &out), Status::kOk);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  const std::uint64_t first_pass = total_refreshes(cluster);
  EXPECT_GT(first_pass, 4u * 64u);
  for (int pass = 0; pass < 3; ++pass) {
    out.clear();
    ASSERT_EQ(cluster.scan(skey(0), n, &out), Status::kOk);
    ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(total_refreshes(cluster), first_pass) << "pass " << pass + 2;
  }
}

TEST(ScanMirror, ThirdHintSeesAnUpdateAckedBeforeTheScan) {
  db::HydraCluster cluster(single_shard_options());
  for (int i = 0; i < 64; ++i) cluster.direct_load(skey(i), "old");
  client::Client& c = *cluster.clients()[0];
  std::vector<std::pair<std::string, std::string>> out;
  // Batch [0, 4) plus hints for the leaves [4, 8), [8, 12), [12, 16) and
  // [16, 20): this mirrors all four at their current versions.
  ASSERT_EQ(cluster.scan(skey(0), 20, &out), Status::kOk);
  ASSERT_EQ(out.size(), 20u);
  const std::uint64_t refreshes = total_refreshes(cluster);
  const client::ClientStats before = c.stats();
  EXPECT_EQ(before.scan_batches, 1u);
  EXPECT_EQ(before.scan_leaf_reads, 4u);

  // Key 13 lives in the third hinted leaf.
  ASSERT_EQ(cluster.put(skey(13), "new"), Status::kOk);
  out.clear();
  ASSERT_EQ(cluster.scan(skey(0), 20, &out), Status::kOk);
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].second, i == 13 ? "new" : "old") << skey(i);
  }
  // Served from the pages, not by a fallback: the third page was re-encoded
  // when the hint was minted, and it is the only page that was.
  EXPECT_EQ(c.stats().scan_batches - before.scan_batches, 1u);
  EXPECT_EQ(c.stats().scan_leaf_reads - before.scan_leaf_reads, 4u);
  EXPECT_EQ(c.stats().scan_leaf_fallbacks, before.scan_leaf_fallbacks);
  EXPECT_EQ(total_refreshes(cluster), refreshes + 1);
}

TEST(ScanMirror, MergedLeavesFreeTheirPagesAndReadsOfThemFallBack) {
  db::HydraCluster cluster(single_shard_options());
  for (int i = 0; i < 64; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(0), 64, &out), Status::kOk);
  const core::Arena* pages = cluster.shard(0)->scan_page_arena();
  ASSERT_NE(pages, nullptr);
  const std::size_t mirrored = pages->bytes_in_use();
  ASSERT_GT(mirrored, 0u);

  // Start the same scan and stop the clock when its first batch lands: the
  // stream now holds hints for the leaves after key 3.
  client::Client& c = *cluster.clients()[0];
  const std::uint64_t batches = c.stats().scan_batches;
  const std::uint64_t fallbacks = c.stats().scan_leaf_fallbacks;
  std::optional<Status> status;
  c.scan(skey(0), 64, [&](Status st, client::Client::ScanEntries entries) {
    status = st;
    out = std::move(entries);
  });
  while (c.stats().scan_batches == batches) ASSERT_TRUE(cluster.scheduler().step());

  // Erase keys [8, 28) on the shard: their leaves merge away, and each
  // merged-away leaf's page is poisoned and freed before the reads land.
  core::KVStore& store = cluster.shard(0)->store();
  for (int i = 8; i < 28; ++i) {
    ASSERT_EQ(store.remove(skey(i), cluster.scheduler().now()), Status::kOk);
  }
  EXPECT_LT(pages->bytes_in_use(), mirrored);

  while (!status.has_value()) ASSERT_TRUE(cluster.scheduler().step());
  ASSERT_EQ(*status, Status::kOk);
  std::vector<std::string> keys;
  for (const auto& [k, v] : out) keys.push_back(k);
  std::vector<std::string> want;
  for (int i = 0; i < 64; ++i) {
    if (i < 8 || i >= 28) want.push_back(skey(i));
  }
  EXPECT_EQ(keys, want);
  EXPECT_GT(c.stats().scan_leaf_fallbacks, fallbacks);
}

TEST(ScanMirror, TornChainedReadFallsBack) {
  // Tear only the second leaf read of the scan -- a hint that followed
  // another one in the same list -- and the rest of the list is dropped.
  db::HydraCluster cluster(single_shard_options());
  for (int i = 0; i < 64; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));
  const std::uint32_t leaf_rkey = cluster.shard(0)->scan_leaf_rkey();
  ASSERT_NE(leaf_rkey, 0u);
  int leaf_reads = 0;
  cluster.fabric().set_read_fault_hook(
      [&](NodeId, NodeId, const fabric::RemoteAddr& addr, std::uint32_t size) {
        fabric::ReadFault fault;
        if (addr.rkey == leaf_rkey && ++leaf_reads == 2) {
          fault.kind = fabric::ReadFault::Kind::kTorn;
          fault.torn_bytes = size / 2;
        }
        return fault;
      });
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(0), 20, &out), Status::kOk);
  cluster.fabric().set_read_fault_hook(nullptr);
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].first, skey(i));
    EXPECT_EQ(out[static_cast<std::size_t>(i)].second, "v" + std::to_string(i));
  }
  const client::ClientStats& st = cluster.clients()[0]->stats();
  // One page before the tear; then the torn page's range came by message,
  // and that batch's own two hints served the rest.
  EXPECT_EQ(st.scan_leaf_fallbacks, 1u);
  EXPECT_EQ(st.scan_batches, 2u);
  EXPECT_EQ(st.scan_leaf_reads, 1u + 2u);
  EXPECT_EQ(leaf_reads, 4);
}

TEST(ScanMirror, HintsDieWithTheRoutingEpoch) {
  db::HydraCluster cluster(single_shard_options());
  for (int i = 0; i < 64; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));
  client::Client& c = *cluster.clients()[0];
  std::uint64_t epoch = cluster.routing_epoch();
  c.set_epoch_source([&epoch] { return epoch; });
  const client::ClientStats before = c.stats();
  std::optional<Status> status;
  client::Client::ScanEntries out;
  c.scan(skey(0), 20, [&](Status st, client::Client::ScanEntries entries) {
    status = st;
    out = std::move(entries);
  });
  // The first batch lands with hints for four leaves and the first read
  // goes out at once; then the client learns of a routing-epoch advance.
  while (c.stats().scan_batches == before.scan_batches) {
    ASSERT_TRUE(cluster.scheduler().step());
  }
  ++epoch;
  while (!status.has_value()) ASSERT_TRUE(cluster.scheduler().step());
  ASSERT_EQ(*status, Status::kOk);
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].first, skey(i));
  // Only the read already in flight used a page; the rest came by message.
  EXPECT_EQ(c.stats().scan_leaf_reads - before.scan_leaf_reads, 1u);
  EXPECT_GT(c.stats().scan_batches - before.scan_batches, 1u);
}

// --------------------------------------------------- client leaf cache
//
// Clients keep the leaf pages they have been hinted, per client machine,
// and start later scans from them; the shard poisons a leaf's page in the
// write that changes the leaf. Each scenario below reads a stale page, and
// returns a wrong answer, if that poison is missing.

using Entries = std::vector<std::pair<std::string, std::string>>;

TEST(ScanLeafCache, StartLookupsSurviveErasesAndRepacking) {
  client::LeafCache cache;
  ASSERT_TRUE(cache.adopt(3));
  auto hint = [](std::uint64_t leaf) {
    proto::ScanLeafHint h;
    h.node = 1;
    h.rkey = 7;
    h.offset = leaf * 64;
    h.len = 64;
    h.leaf_id = leaf;
    return h;
  };
  for (std::uint64_t leaf = 1; leaf <= 100; ++leaf) {
    cache.add(/*shard=*/0, hint(leaf));
    const std::string first = skey(static_cast<int>(leaf) * 10);
    cache.learn(0, leaf, &first, /*head=*/leaf == 1);
  }
  EXPECT_EQ(cache.size(), 100u);
  // Erase most leaves: their keys become pool garbage and get repacked.
  for (std::uint64_t leaf = 2; leaf <= 100; ++leaf) {
    if (leaf % 5 != 0) cache.erase(0, leaf);
  }
  EXPECT_EQ(cache.size(), 21u);
  EXPECT_EQ(cache.start(0, skey(10)), 1u);
  EXPECT_EQ(cache.start(0, skey(5)), 1u);  // before every first key: the head
  EXPECT_EQ(cache.start(0, skey(77)), 5u);
  EXPECT_EQ(cache.start(0, skey(500)), 50u);
  EXPECT_EQ(cache.start(0, skey(9999)), 100u);
  const auto page = cache.find(0, 50);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->offset, 50u * 64);
  EXPECT_EQ(page->rkey, 7u);
  EXPECT_FALSE(cache.find(0, 51).has_value());
  // A leaf whose first key moved is filed under the new key only.
  const std::string moved = skey(555);
  cache.learn(0, 50, &moved, false);
  EXPECT_EQ(cache.start(0, skey(500)), 45u);
  EXPECT_EQ(cache.start(0, skey(555)), 50u);

  // Epoch scoping: an older epoch is refused, a newer one clears.
  EXPECT_FALSE(cache.adopt(2));
  EXPECT_EQ(cache.size(), 21u);
  EXPECT_TRUE(cache.adopt(4));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.start(0, skey(500)), 0u);
}

TEST(ScanLeafCache, AckedUpdateIsServedFreshAndThenFromACachedPage) {
  db::HydraCluster cluster(single_shard_options());
  for (int i = 0; i < 64; ++i) cluster.direct_load(skey(i), "old");
  client::Client& c = *cluster.clients()[0];
  Entries out;
  ASSERT_EQ(cluster.scan(skey(0), 64, &out), Status::kOk);  // warms the cache

  // Key 9 sits in the cached leaf [8, 12), key 13 in the next one.
  ASSERT_EQ(cluster.put(skey(9), "new"), Status::kOk);
  ASSERT_EQ(cluster.put(skey(13), "new"), Status::kOk);
  const client::ClientStats before = c.stats();
  out.clear();
  ASSERT_EQ(cluster.scan(skey(8), 12, &out), Status::kOk);
  ASSERT_EQ(out.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].first, skey(8 + i));
    EXPECT_EQ(out[static_cast<std::size_t>(i)].second,
              8 + i == 9 || 8 + i == 13 ? "new" : "old")
        << skey(8 + i);
  }
  // The scan started at the cached page of [8, 12): poisoned, so it fell
  // back once. That batch re-minted [12, 16), and key 13's new value came
  // from that cached page, as did the rest.
  EXPECT_EQ(c.stats().scan_leaf_fallbacks, before.scan_leaf_fallbacks + 1);
  EXPECT_EQ(c.stats().scan_batches, before.scan_batches + 1);
  EXPECT_EQ(c.stats().scan_leaf_reads, before.scan_leaf_reads + 2);
}

TEST(ScanLeafCache, SplitsAndMergesUnderAWarmCacheStayExact) {
  db::HydraCluster cluster(single_shard_options());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 64; ++i) {
    cluster.direct_load(skey(i), "v" + std::to_string(i));
    model[skey(i)] = "v" + std::to_string(i);
  }
  client::Client& c = *cluster.clients()[0];
  Entries out;
  ASSERT_EQ(cluster.scan(skey(0), 64, &out), Status::kOk);  // warms the cache
  const index::OrderedIndex& idx = *cluster.shard(0)->store().index();
  const std::size_t leaves = idx.leaf_count();

  // Splits: two new keys after every key of [16, 32). Merges: empty [40, 56).
  for (int i = 16; i < 32; ++i) {
    for (const char* suffix : {"a", "b"}) {
      ASSERT_EQ(cluster.put(skey(i) + suffix, "s" + std::to_string(i)), Status::kOk);
      model[skey(i) + suffix] = "s" + std::to_string(i);
    }
  }
  const std::size_t split = idx.leaf_count();
  ASSERT_GT(split, leaves);
  for (int i = 40; i < 56; ++i) {
    ASSERT_EQ(cluster.remove(skey(i)), Status::kOk);
    model.erase(skey(i));
  }
  ASSERT_LT(idx.leaf_count(), split);
  const std::uint64_t fallbacks = c.stats().scan_leaf_fallbacks;

  // Every start key, present or gone, and a gap after each: no key missing,
  // none duplicated, every value current.
  for (int i = 0; i < 64; ++i) {
    for (const std::string& start : {skey(i), skey(i) + "0"}) {
      out.clear();
      ASSERT_EQ(cluster.scan(start, 10, &out), Status::kOk) << start;
      Entries want;
      for (auto it = model.lower_bound(start); it != model.end() && want.size() < 10; ++it) {
        want.emplace_back(it->first, it->second);
      }
      ASSERT_EQ(out, want) << "scan from " << start;
    }
  }
  // Starts inside [40, 56) look up the merged-away leaves' entries; their
  // pages were poisoned and freed, so those reads fell back.
  EXPECT_GT(c.stats().scan_leaf_fallbacks, fallbacks);
}

TEST(ScanLeafCache, CachedPageStartingPastTheResumeKeyFallsBack) {
  // Two client machines, so each has its own leaf cache. Leaf P = [4, 8)
  // gets a fifth key; machine A caches P with first key 4.
  db::ClusterOptions opts = single_shard_options();
  opts.client_nodes = 2;
  opts.clients_per_node = 1;
  db::HydraCluster cluster(opts);
  for (int i = 0; i < 64; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));
  cluster.direct_load(skey(4) + "a", "v4a");
  const int a = 0;
  const int b = 1;
  client::Client& ca = *cluster.clients()[a];
  Entries out;
  ASSERT_EQ(cluster.scan(skey(0), 64, &out, a), Status::kOk);

  // Removing key 0 underfills the head leaf, which borrows key 4 from P:
  // P's first key is now "4a". A key of the same size refills P, so its
  // page keeps its block. Key 9's update poisons the next leaf.
  ASSERT_EQ(cluster.remove(skey(0), b), Status::kOk);
  EXPECT_EQ(cluster.shard(0)->store().index()->left_shifts(), 1u);
  ASSERT_EQ(cluster.put(skey(6) + "a", "v", b), Status::kOk);
  ASSERT_EQ(cluster.put(skey(9), "new", b), Status::kOk);

  // A reads [8, 12) from its cache: poisoned, so it falls back.
  std::uint64_t fallbacks = ca.stats().scan_leaf_fallbacks;
  out.clear();
  ASSERT_EQ(cluster.scan(skey(8), 2, &out, a), Status::kOk);
  EXPECT_EQ(out, (Entries{{skey(8), "v8"}, {skey(9), "new"}}));
  EXPECT_EQ(ca.stats().scan_leaf_fallbacks, fallbacks + 1);

  // Machine B's scan re-mints P in place, so A's cached page of P decodes
  // again -- but A still files it under key 4. A's scan from key 4 finds
  // P, whose live first key is past 4 and which is not the head: it falls
  // back, and key 4 (now in the head leaf) is not skipped.
  out.clear();
  ASSERT_EQ(cluster.scan(skey(1), 8, &out, b), Status::kOk);
  fallbacks = ca.stats().scan_leaf_fallbacks;
  const std::uint64_t reads = ca.stats().scan_leaf_reads;
  out.clear();
  ASSERT_EQ(cluster.scan(skey(4), 4, &out, a), Status::kOk);
  EXPECT_EQ(out, (Entries{{skey(4), "v4"}, {skey(4) + "a", "v4a"}, {skey(5), "v5"},
                          {skey(6), "v6"}}));
  EXPECT_EQ(ca.stats().scan_leaf_fallbacks, fallbacks + 1);
  EXPECT_EQ(ca.stats().scan_leaf_reads, reads);
}

TEST(ScanLeafCache, SuccessorThatLentItsFrontEntryFallsBack) {
  // Two shards X and Y; machine A's cache holds X's head leaf H. A scan
  // reads H, then waits for Y's stream (whose leaf reads are torn, so it
  // crawls through batches) before it needs H's successor M. Meanwhile H
  // borrows M's front entry, and machine B's scan re-mints M's page. M's
  // page now decodes, names the right leaf and is current -- but the
  // entry that moved into H would be skipped. M's left-shift stamp is newer
  // than H's, so A falls back and finds the entry.
  db::ClusterOptions opts = scan_options();
  opts.server_nodes = 2;
  opts.client_nodes = 2;
  opts.clients_per_node = 1;
  opts.shard_template.store.index_fanout = 8;
  opts.client_template.scan_batch = 2;
  db::HydraCluster cluster(opts);
  const ShardId x = cluster.owner_of(skey(100));
  // X's keys start at 100; Y's run from 0, so Y's stream has ~50 keys to
  // emit before X's fourth.
  std::vector<std::string> xs;
  for (int i = 0; i < 300; ++i) {
    const bool on_x = cluster.owner_of(skey(i)) == x;
    if (on_x && i < 100) continue;
    cluster.direct_load(skey(i), "v");
    if (on_x) xs.push_back(skey(i));
  }
  // M (X's second leaf) gets a fifth entry, so it can lend one; `refill`
  // later takes the lent entry's place at the same encoded size, so M's
  // page is re-encoded in its block, where A's cache points.
  std::vector<std::string> spare;
  for (char c = 'a'; c <= 'z' && spare.size() < 2; ++c) {
    if (cluster.owner_of(xs[4] + c) == x) spare.push_back(xs[4] + c);
  }
  ASSERT_EQ(spare.size(), 2u);
  const std::string& extra = spare[0];
  const std::string& refill = spare[1];
  cluster.direct_load(xs[4], "vv");
  cluster.direct_load(extra, "v");
  const index::OrderedIndex& idx = *cluster.shard(x)->store().index();
  std::uint64_t head = 0;
  idx.leaves_from("", false, [&](const index::OrderedIndex::LeafRef& leaf) {
    head = leaf.id;
    return false;
  });

  const int a = 0;
  const int b = 1;
  client::Client& ca = *cluster.clients()[a];
  Entries out;
  ASSERT_EQ(cluster.scan(xs[0], 20, &out, a), Status::kOk);  // A reads and caches H
  ASSERT_EQ(ca.leaf_cache().start(x, ""), head);

  const server::Shard& y = *cluster.shard(x == 0 ? 1 : 0);
  cluster.fabric().set_read_fault_hook(
      [node = y.node(), rkey = y.scan_leaf_rkey()](NodeId, NodeId target,
                                                   const fabric::RemoteAddr& addr,
                                                   std::uint32_t size) {
        fabric::ReadFault fault;
        if (target == node && addr.rkey == rkey) {
          fault.kind = fabric::ReadFault::Kind::kTorn;
          fault.torn_bytes = size / 2;
        }
        return fault;
      });
  std::optional<Status> status;
  const std::uint64_t reads = ca.stats().scan_leaf_reads;
  ca.scan("", 200, [&](Status st, client::Client::ScanEntries entries) {
    status = st;
    out = std::move(entries);
  });
  while (ca.stats().scan_leaf_reads == reads) ASSERT_TRUE(cluster.scheduler().step());

  // A holds H's entries. Now H borrows M's front entry (xs[4])...
  core::KVStore& store = cluster.shard(x)->store();
  ASSERT_EQ(store.remove(xs[0], cluster.scheduler().now()), Status::kOk);
  ASSERT_EQ(idx.left_shifts(), 1u);
  ASSERT_EQ(store.put(refill, "v", cluster.scheduler().now()), Status::kOk);
  // ...and B's scan re-mints M.
  std::optional<Status> b_status;
  cluster.clients()[b]->scan(xs[1], 10, [&](Status st, client::Client::ScanEntries) {
    b_status = st;
  });
  while (!status.has_value() || !b_status.has_value()) {
    ASSERT_TRUE(cluster.scheduler().step());
  }
  cluster.fabric().set_read_fault_hook(nullptr);
  ASSERT_EQ(*status, Status::kOk);
  ASSERT_EQ(*b_status, Status::kOk);
  for (std::size_t i = 1; i < out.size(); ++i) ASSERT_LT(out[i - 1].first, out[i].first);
  std::vector<std::string> keys;
  for (const auto& kv : out) keys.push_back(kv.first);
  EXPECT_NE(std::find(keys.begin(), keys.end(), xs[4]), keys.end())
      << "the entry M lent to H was skipped";
  EXPECT_NE(std::find(keys.begin(), keys.end(), extra), keys.end());
}

TEST(ScanLeafCache, TornCachedReadFallsBack) {
  // A scan that starts from the cache reads before any batch of its own;
  // tearing that read (as the chaos torn-read fault does, by rkey) must
  // fall back to the message path and still return the exact range.
  db::HydraCluster cluster(single_shard_options());
  for (int i = 0; i < 64; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));
  client::Client& c = *cluster.clients()[0];
  Entries out;
  ASSERT_EQ(cluster.scan(skey(0), 64, &out), Status::kOk);  // warms the cache
  const std::uint32_t leaf_rkey = cluster.shard(0)->scan_leaf_rkey();
  const client::ClientStats before = c.stats();
  int torn_before_a_batch = 0;
  cluster.fabric().set_read_fault_hook(
      [&](NodeId, NodeId, const fabric::RemoteAddr& addr, std::uint32_t size) {
        fabric::ReadFault fault;
        if (addr.rkey == leaf_rkey && c.stats().scan_batches == before.scan_batches) {
          ++torn_before_a_batch;
          fault.kind = fabric::ReadFault::Kind::kTorn;
          fault.torn_bytes = size / 2;
        }
        return fault;
      });
  out.clear();
  ASSERT_EQ(cluster.scan(skey(20), 8, &out), Status::kOk);
  cluster.fabric().set_read_fault_hook(nullptr);
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].first, skey(20 + i));
    EXPECT_EQ(out[static_cast<std::size_t>(i)].second, "v" + std::to_string(20 + i));
  }
  EXPECT_EQ(torn_before_a_batch, 1);
  EXPECT_EQ(c.stats().scan_leaf_fallbacks, before.scan_leaf_fallbacks + 1);
  EXPECT_EQ(c.stats().scan_batches, before.scan_batches + 1);
}

TEST(ScanLeafCache, NoCachedPageIsReadAfterARoutingEpochAdvance) {
  db::ClusterOptions opts = scan_options();
  opts.shard_template.store.index_fanout = 8;
  opts.client_template.scan_batch = 4;
  db::HydraCluster cluster(opts);
  for (int i = 0; i < 120; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));
  client::Client& c = *cluster.clients()[0];
  Entries out;
  ASSERT_EQ(cluster.scan(skey(0), 120, &out), Status::kOk);  // warms the cache
  ASSERT_GT(c.leaf_cache().size(), 0u);
  // Key 30's update lands before the advance: its page is poisoned, so a
  // scan from the cache still sees it.
  ASSERT_EQ(cluster.put(skey(30), "new"), Status::kOk);
  out.clear();
  ASSERT_EQ(cluster.scan(skey(29), 2, &out), Status::kOk);
  EXPECT_EQ(out, (Entries{{skey(29), "v29"}, {skey(30), "new"}}));

  // A live expansion commits and advances the routing epoch.
  const std::uint64_t epoch = cluster.routing_epoch();
  ASSERT_NE(cluster.add_shard_live(), kInvalidShard);
  while (cluster.migration_active()) ASSERT_TRUE(cluster.scheduler().step());
  ASSERT_GT(cluster.routing_epoch(), epoch);

  // Every leaf read of the next scan must follow a batch of that scan: the
  // cache was scoped to the old epoch, so no stream may start from it.
  const std::uint64_t batches = c.stats().scan_batches;
  int early_reads = 0;
  int reads = 0;
  cluster.fabric().set_read_fault_hook(
      [&](NodeId, NodeId, const fabric::RemoteAddr& addr, std::uint32_t) {
        for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()); ++s) {
          if (cluster.shard(s)->scan_leaf_rkey() != addr.rkey) continue;
          ++reads;
          if (c.stats().scan_batches == batches) ++early_reads;
        }
        return fabric::ReadFault{};
      });
  const std::uint64_t fallbacks = c.stats().scan_leaf_fallbacks;
  out.clear();
  ASSERT_EQ(cluster.scan(skey(20), 100, &out), Status::kOk);
  cluster.fabric().set_read_fault_hook(nullptr);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 20; i < 120; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i - 20)].second,
              i == 30 ? "new" : "v" + std::to_string(i));
  }
  EXPECT_GT(reads, 0);
  EXPECT_EQ(early_reads, 0);
  EXPECT_EQ(c.stats().scan_leaf_fallbacks, fallbacks);
}

// ------------------------------------------------------- chaos: migration

void expect_clean(const chaos::Report& report, const std::string& label) {
  EXPECT_TRUE(report.passed()) << label << ":\n" << chaos::describe(report);
  EXPECT_GT(report.acked, 0u) << label;
  EXPECT_GT(report.scans_acked, 0u) << label;
}

TEST(ScanChaos, ScriptedFamilies) {
  for (const auto& schedule : chaos::Schedule::scripted(chaos::Family::kScan)) {
    for (const std::uint64_t seed : {11ULL, 29ULL}) {
      const auto report = chaos::run(schedule, seed);
      expect_clean(report, schedule.name + " seed=" + std::to_string(seed));
      if (HasFailure()) return;
    }
  }
}

TEST(ScanChaos, TornLeafReadsAreCaught) {
  // The torn-read family must actually exercise the fallback machinery:
  // garbled pages happen AND every scan still verifies.
  const auto report =
      chaos::run(chaos::scripted_by_name(chaos::Family::kScan, "scan-torn-leaf-reads"), 7);
  expect_clean(report, "scan-torn-leaf-reads");
  EXPECT_GT(report.torn_reads, 0u);
  EXPECT_GT(report.scan_leaf_fallbacks, 0u);
}

TEST(ScanChaos, MigrationRestartsCursors) {
  // Crossing a live expansion must reject stale continuation tokens (epoch
  // fence) and restart cursors rather than silently mis-merging.
  const auto& schedule = chaos::scripted_by_name(chaos::Family::kScan, "scan-add-shard-live");
  std::uint64_t restarts = 0;
  for (const std::uint64_t seed : {3ULL, 5ULL, 17ULL}) {
    const auto report = chaos::run(schedule, seed);
    expect_clean(report, schedule.name + " seed=" + std::to_string(seed));
    restarts += report.scan_restarts + report.scan_token_rejects;
  }
  EXPECT_GT(restarts, 0u);
}

TEST(ScanChaos, SeededRandomSweep) {
  const int runs = chaos::random_runs("HYDRA_SCAN_RANDOM_RUNS", 25);
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(r);
    const auto report = chaos::run(chaos::Schedule::random(chaos::Family::kScan, seed), seed);
    EXPECT_TRUE(report.passed()) << chaos::describe(report);
    if (HasFailure()) return;
  }
}

TEST(ScanChaos, DeterministicHistory) {
  // Byte-identical history across two runs of the same (schedule, seed).
  for (const auto& schedule : chaos::Schedule::scripted(chaos::Family::kScan)) {
    const auto a = chaos::run(schedule, 21);
    const auto b = chaos::run(schedule, 21);
    ASSERT_EQ(a.history, b.history) << schedule.name;
  }
}

}  // namespace
}  // namespace hydra
