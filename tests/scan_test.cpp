// Range-scan system tests (DESIGN.md §13): cluster-level cross-shard merge
// correctness, the one-sided leaf-read fast path and its message-path
// parity, the leaf mirror's page lifecycle (one refresh per leaf version,
// fresh chained hints, freed pages failing closed), kScan hardening against
// index-less shards, and the
// scan-mid-migration chaos family (scripted schedules x seeds plus a
// seeded sweep scaled by HYDRA_SCAN_RANDOM_RUNS).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/scan_chaos.hpp"
#include "hydradb/hydra_cluster.hpp"

namespace hydra {
namespace {

int env_runs(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const int n = std::atoi(v);
  return n > 0 ? n : fallback;
}

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

// ------------------------------------------------------- chaos: migration

void expect_clean(const chaos::ScanRunReport& report, const std::string& label) {
  EXPECT_TRUE(report.passed()) << label << " violations:\n"
                               << [&] {
                                    std::string all;
                                    for (const auto& v : report.violations) {
                                      all += "  " + v + "\n";
                                    }
                                    return all + "history tail:\n" +
                                           report.history.substr(
                                               report.history.size() > 4000
                                                   ? report.history.size() - 4000
                                                   : 0);
                                  }();
  EXPECT_GT(report.puts_acked, 0u) << label;
  EXPECT_GT(report.scans_acked, 0u) << label;
}

TEST(ScanChaos, ScriptedFamilies) {
  for (const auto& schedule : chaos::ScanSchedule::scripted()) {
    for (const std::uint64_t seed : {11ULL, 29ULL}) {
      const auto report = chaos::ScanChaosRunner::run(schedule, seed);
      expect_clean(report, schedule.name + " seed=" + std::to_string(seed));
      if (HasFailure()) return;
    }
  }
}

TEST(ScanChaos, TornLeafReadsAreCaught) {
  // The torn-read family must actually exercise the fallback machinery:
  // garbled pages happen AND every scan still verifies.
  chaos::ScanSchedule schedule;
  for (const auto& s : chaos::ScanSchedule::scripted()) {
    if (s.name == "scan-torn-leaf-reads") schedule = s;
  }
  ASSERT_EQ(schedule.name, "scan-torn-leaf-reads");
  const auto report = chaos::ScanChaosRunner::run(schedule, 7);
  expect_clean(report, schedule.name);
  EXPECT_GT(report.torn_reads, 0u);
  EXPECT_GT(report.scan_leaf_fallbacks, 0u);
}

TEST(ScanChaos, MigrationRestartsCursors) {
  // Crossing a live expansion must reject stale continuation tokens (epoch
  // fence) and restart cursors rather than silently mis-merging.
  chaos::ScanSchedule schedule;
  for (const auto& s : chaos::ScanSchedule::scripted()) {
    if (s.name == "scan-add-shard-live") schedule = s;
  }
  ASSERT_EQ(schedule.name, "scan-add-shard-live");
  std::uint64_t restarts = 0;
  for (const std::uint64_t seed : {3ULL, 5ULL, 17ULL}) {
    const auto report = chaos::ScanChaosRunner::run(schedule, seed);
    expect_clean(report, schedule.name + " seed=" + std::to_string(seed));
    restarts += report.scan_restarts + report.scan_token_rejects;
  }
  EXPECT_GT(restarts, 0u);
}

TEST(ScanChaos, SeededRandomSweep) {
  const int runs = env_runs("HYDRA_SCAN_RANDOM_RUNS", 25);
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(r);
    const auto schedule = chaos::ScanSchedule::random(seed);
    const auto report = chaos::ScanChaosRunner::run(schedule, seed);
    EXPECT_TRUE(report.passed()) << schedule.name << " violations:\n" << [&] {
      std::string all;
      for (const auto& v : report.violations) all += "  " + v + "\n";
      return all;
    }();
    if (HasFailure()) return;
  }
}

TEST(ScanChaos, DeterministicHistory) {
  // Byte-identical history across two runs of the same (schedule, seed).
  for (const auto& schedule : chaos::ScanSchedule::scripted()) {
    const auto a = chaos::ScanChaosRunner::run(schedule, 21);
    const auto b = chaos::ScanChaosRunner::run(schedule, 21);
    ASSERT_EQ(a.history, b.history) << schedule.name;
  }
}

}  // namespace
}  // namespace hydra
