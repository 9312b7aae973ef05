// Tests for the skew-aware hot-key replication plane (DESIGN.md §12): the
// space-saving tracker, promotion + one-sided replica reads, pre-ack write
// invalidation, epoch-bump demotion, the client pointer-cache epoch sweep,
// and the hotkey chaos families.
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/hotkey_chaos.hpp"
#include "common/hash.hpp"
#include "core/item.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"
#include "server/hotkey.hpp"

namespace hydra {
namespace {

// ------------------------------------------------------- tracker unit tests

TEST(HotKeyTracker, TopOrdersByCountWithDeterministicTies) {
  server::HotKeyTracker t(8);
  for (int i = 0; i < 5; ++i) t.record("a");
  for (int i = 0; i < 3; ++i) t.record("b");
  for (int i = 0; i < 3; ++i) t.record("c");
  t.record("d");

  const auto top = t.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[1].key, "b");  // count ties break by key, ascending
  EXPECT_EQ(top[2].key, "c");
  EXPECT_EQ(t.total(), 12u);
}

TEST(HotKeyTracker, MinHitsFiltersColdTail) {
  server::HotKeyTracker t(8);
  for (int i = 0; i < 10; ++i) t.record("hot");
  t.record("cold");
  const auto top = t.top(4, /*min_hits=*/5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, "hot");
}

TEST(HotKeyTracker, FullSketchEvictsMinAndInheritsCount) {
  server::HotKeyTracker t(2);
  for (int i = 0; i < 4; ++i) t.record("a");
  t.record("b");
  // Sketch full: the newcomer displaces the minimum ("b", count 1) and
  // inherits min+1 -- the space-saving overestimate bound.
  t.record("c");
  const auto top = t.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[1].key, "c");
  EXPECT_EQ(top[1].count, 2u);
  EXPECT_EQ(t.size(), 2u);

  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total(), 0u);
  EXPECT_TRUE(t.top(2).empty());
}

// --------------------------------------------------- plane integration tests

db::ClusterOptions hot_opts() {
  db::ClusterOptions o;
  o.server_nodes = 3;
  o.shards_per_node = 1;
  o.client_nodes = 1;
  o.clients_per_node = 2;
  o.replicas = 2;
  o.enable_swat = true;
  o.client_rdma_read = true;
  o.shard_template.grant_remote_pointers = true;
  o.shard_template.store.arena_bytes = 8 << 20;
  // Short leases force frequent renewals, the message traffic that carries
  // promotion sets to clients already holding cached pointers.
  o.shard_template.store.min_lease = 20 * kMillisecond;
  o.shard_template.store.max_lease = 50 * kMillisecond;
  o.shard_template.hotkey_top_k = 4;
  o.shard_template.hotkey_tracker_capacity = 32;
  o.shard_template.hotkey_promote_min_hits = 4;
  o.shard_template.hotkey_scan_interval = 250 * kMicrosecond;
  return o;
}

std::uint64_t total_replica_hits(db::HydraCluster& cluster) {
  std::uint64_t hits = 0;
  for (const auto* c : cluster.clients()) hits += c->stats().replica_hits;
  return hits;
}

TEST(HotKeyPlane, SkewedGetsPromoteAndReplicaReadsServe) {
  obs::Plane plane;
  auto opts = hot_opts();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("hot", "pizza"), Status::kOk);
  const ShardId owner = cluster.owner_of("hot");

  for (int i = 0; i < 300; ++i) {
    auto got = cluster.get("hot", i % 2);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, "pizza");
  }

  EXPECT_GE(cluster.shard(owner)->stats().hotkey_promotions, 1u);
  EXPECT_GT(cluster.shard(owner)->stats().hotkey_advertised, 0u);
  EXPECT_GT(total_replica_hits(cluster), 0u)
      << "round-robin fan-out never reached a follower copy";
  EXPECT_GE(plane.query().count(obs::TraceKind::kHotKeyPromoted), 1u);
  EXPECT_GE(plane.query().count(obs::TraceKind::kReplicaReadHit), 1u);
}

TEST(HotKeyPlane, PromotionOffKeepsPlaneSilent) {
  auto opts = hot_opts();
  opts.shard_template.hotkey_top_k = 0;  // the default: plane fully disabled
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("hot", "pizza"), Status::kOk);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(cluster.get("hot").has_value());
  const ShardId owner = cluster.owner_of("hot");
  EXPECT_EQ(cluster.shard(owner)->stats().hotkey_promotions, 0u);
  EXPECT_EQ(cluster.shard(owner)->stats().hotkey_advertised, 0u);
  EXPECT_EQ(total_replica_hits(cluster), 0u);
}

TEST(HotKeyPlane, WriteInvalidatesCopiesBeforeAck) {
  auto opts = hot_opts();
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("hot", "v0"), Status::kOk);
  const ShardId owner = cluster.owner_of("hot");

  // Heat the key until copies serve reads.
  int spins = 0;
  while (total_replica_hits(cluster) == 0 && spins++ < 600) {
    ASSERT_TRUE(cluster.get("hot", spins % 2).has_value());
  }
  ASSERT_GT(total_replica_hits(cluster), 0u) << "plane never engaged";

  // Overwrite, then read immediately and repeatedly: every post-ack GET must
  // see the new value no matter which copy the round-robin picks. A stale
  // follower copy surviving the ack would surface "v0" here.
  for (int round = 1; round <= 5; ++round) {
    const std::string want = "v" + std::to_string(round);
    ASSERT_EQ(cluster.put("hot", want), Status::kOk);
    for (int i = 0; i < 40; ++i) {
      auto got = cluster.get("hot", i % 2);
      ASSERT_TRUE(got.has_value()) << round << ":" << i;
      EXPECT_EQ(*got, want) << "stale replica read after write ack";
    }
  }
  EXPECT_GT(cluster.shard(owner)->stats().hotkey_invalidations, 0u)
      << "writes never found a live promotion to invalidate";
}

// A promotion retired before it went live -- its copies still in flight, or
// aborted because a completion failed -- used to skip the guardian kills.
// Its copy then sat alive in a slab slot that clients still held an older
// advertisement for (the same key in the same slot: free slots are reused
// last-in first-out), and a one-sided read returned the value an acked
// write had replaced. Every retirement must kill every posted copy.
enum class RetireBy { kWriteDuringCopy, kCopyAbort };

void expect_no_stale_copy_after_ack(RetireBy retire) {
  auto opts = hot_opts();
  opts.shard_template.hotkey_top_k = 1;  // one slab slot: reuse is certain
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("hot", "v0"), Status::kOk);
  const ShardId owner = cluster.owner_of("hot");
  auto* reader = cluster.clients()[1];
  const std::uint64_t h = hash_key("hot");

  // 1. Promote; the reader caches the advertisement of slot 0.
  client::CachedPtr advert;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(cluster.get("hot", i % 2).has_value());
    if (reader->pointer_cache().get(h, &advert) && advert.replica_count > 0) break;
  }
  ASSERT_GT(advert.replica_count, 0u) << "plane never advertised the key";

  // 2. The key cools off: the demotion kills the copies and frees the slot.
  //    The reader stays idle, so it keeps the old advertisement.
  const auto demotions = cluster.shard(owner)->stats().hotkey_demotions;
  cluster.run_for(2 * kMillisecond);
  ASSERT_GT(cluster.shard(owner)->stats().hotkey_demotions, demotions);

  // 3. Every copy of the next promotion lands in full, but its completion
  //    is lost: the initiator learns of a failure only after the retry
  //    timeout, so the promotion never goes live.
  int copies_faulted = 0;
  cluster.fabric().set_write_fault_hook(
      [&](NodeId, NodeId dst, const fabric::RemoteAddr& addr, std::uint32_t size) {
        for (std::uint32_t r = 0; r < advert.replica_count; ++r) {
          const auto& rp = advert.replicas[r];
          if (size > sizeof(std::uint64_t) && dst == rp.node && addr.rkey == rp.rkey) {
            ++copies_faulted;
            return fabric::WriteFault{fabric::WriteFault::Kind::kTorn, size};
          }
        }
        return fabric::WriteFault{};
      });

  // 4. Re-heat through the message path (which is what the tracker counts)
  //    until the slot is claimed again and the copies are posted.
  auto* writer = cluster.clients()[0];
  for (int i = 0; i < 600 && copies_faulted == 0; ++i) {
    writer->pointer_cache().erase(h);
    ASSERT_TRUE(cluster.get("hot", 0).has_value());
  }
  ASSERT_GT(copies_faulted, 0) << "the key was never promoted again";
  if (retire == RetireBy::kCopyAbort) {
    cluster.run_for(2 * kMillisecond);  // the lost completions surface
  }

  // 5. Overwrite. Once the ack is back no copy may serve the old value.
  ASSERT_EQ(cluster.put("hot", "v1", 0), Status::kOk);
  auto check_copies = [&](const char* when) {
    for (std::uint32_t r = 0; r < advert.replica_count; ++r) {
      const auto& rp = advert.replicas[r];
      const fabric::MemoryRegion* mr = cluster.fabric().node(rp.node).find_region(rp.rkey);
      ASSERT_NE(mr, nullptr);
      std::vector<std::byte> bytes(rp.total_len);
      std::memcpy(bytes.data(), mr->base() + rp.offset, bytes.size());
      if (core::validate_item(bytes.data(), bytes.size(), "hot") ==
          core::ItemValidity::kValid) {
        EXPECT_EQ(core::ItemView(bytes.data()).value(), "v1")
            << when << ": a live copy on node " << rp.node
            << " still serves a value an acked write replaced";
      }
    }
  };
  check_copies("right after the ack");
  cluster.run_for(2 * kMillisecond);
  check_copies("after every completion drained");
  cluster.fabric().set_write_fault_hook(nullptr);

  // The reader's own GETs, whichever copy its round-robin picks.
  for (int i = 0; i < 6; ++i) {
    auto got = cluster.get("hot", 1);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, "v1") << "stale replica read after write ack, GET " << i;
  }
}

TEST(HotKeyPlane, WriteDuringCopyKillsTheCopyBeforeAck) {
  expect_no_stale_copy_after_ack(RetireBy::kWriteDuringCopy);
}

TEST(HotKeyPlane, AbortedCopyIsKilledBeforeTheSlotIsReused) {
  expect_no_stale_copy_after_ack(RetireBy::kCopyAbort);
}

TEST(HotKeyPlane, FailoverEpochBumpDemotesAndNeverServesStale) {
  obs::Plane plane;
  auto opts = hot_opts();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("hot", "before"), Status::kOk);
  const ShardId owner = cluster.owner_of("hot");

  int spins = 0;
  while (total_replica_hits(cluster) == 0 && spins++ < 600) {
    ASSERT_TRUE(cluster.get("hot", spins % 2).has_value());
  }
  ASSERT_GT(total_replica_hits(cluster), 0u) << "plane never engaged";
  const std::uint64_t epoch_before = cluster.routing_epoch();

  // Kill the primary: SWAT promotes a follower -- possibly one that holds a
  // promoted copy -- and publishes a new epoch. Every cached pointer (and
  // its replica set) must be dropped at the bump; reads after the failover
  // go through the new primary and must see the acked value.
  cluster.crash_primary(owner);
  cluster.run_for(4 * kSecond);
  ASSERT_GT(cluster.routing_epoch(), epoch_before);

  for (int i = 0; i < 60; ++i) {
    auto got = cluster.get("hot", i % 2);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, "before") << "stale or lost value after failover";
  }
  // The new value plane starts from scratch on the successor; writes work.
  ASSERT_EQ(cluster.put("hot", "after"), Status::kOk);
  EXPECT_EQ(*cluster.get("hot"), "after");
  std::uint64_t epoch_invalidations = 0;
  for (const auto* c : cluster.clients()) {
    epoch_invalidations += c->stats().epoch_invalidations;
  }
  EXPECT_GT(epoch_invalidations, 0u);
}

// ----------------------------------- pointer-cache epoch sweep (regression)

// The stale-epoch bug this pins: entries leased under a superseded epoch
// used to linger in the client pointer cache forever unless their exact key
// was re-read -- skipped on lookup but never erased, so the entry count
// ratcheted up across epoch bumps until collision pressure evicted live
// entries. The fix sweeps the whole cache at the first stale hit of each
// new epoch; this test pins the entry count across N bumps.
TEST(PtrCacheSweep, EpochBumpsDoNotAccumulateStaleEntries) {
  auto opts = hot_opts();
  opts.clients_per_node = 1;
  opts.shard_template.hotkey_top_k = 0;  // plane off; this is a cache test
  db::HydraCluster cluster(opts);
  auto* client = cluster.clients()[0];

  constexpr int kKeys = 24;
  auto key_of = [](int i) { return "sweep-" + std::to_string(i); };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(cluster.put(key_of(i), "v"), Status::kOk);
    ASSERT_TRUE(cluster.get(key_of(i)).has_value());
  }
  ASSERT_EQ(client->pointer_cache().size(), static_cast<std::size_t>(kKeys));

  for (int round = 0; round < 3; ++round) {
    // Any promotion bumps the global routing epoch, staling every cached
    // pointer -- including those of untouched shards.
    const std::uint64_t before = cluster.routing_epoch();
    cluster.crash_primary(static_cast<ShardId>(round % cluster.shard_count()));
    cluster.run_for(4 * kSecond);
    ASSERT_GT(cluster.routing_epoch(), before) << "round " << round;

    // One GET hits its stale entry, which triggers the full-cache sweep:
    // after it, only entries stamped with the live epoch may remain.
    ASSERT_TRUE(cluster.get(key_of(0)).has_value()) << "round " << round;
    EXPECT_LE(client->pointer_cache().size(), 2u)
        << "stale-epoch entries survived the sweep in round " << round;
    EXPECT_GT(client->stats().stale_evicted, 0u);

    // Re-heat the cache for the next round.
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(cluster.get(key_of(i)).has_value()) << round << ":" << i;
    }
    EXPECT_EQ(client->pointer_cache().size(), static_cast<std::size_t>(kKeys))
        << "entry count must return to exactly the working set, round " << round;
  }
}

// ------------------------------------------------------- chaos: scripted

TEST(HotKeyChaos, ScriptedFamiliesHoldInvariants) {
  for (const auto& schedule : chaos::HotKeySchedule::scripted()) {
    const auto report = chaos::HotKeyChaosRunner::run(schedule, 42);
    EXPECT_TRUE(report.passed()) << schedule.name << ":\n"
                                 << report.history.substr(0, 4000);
    for (const auto& v : report.violations) {
      ADD_FAILURE() << schedule.name << ": " << v;
    }
    EXPECT_EQ(report.stale_reads, 0u) << schedule.name;
    EXPECT_EQ(report.wedged, 0u) << schedule.name;
  }
}

TEST(HotKeyChaos, BaselineActuallyExercisesThePlane) {
  const auto scripted = chaos::HotKeySchedule::scripted();
  ASSERT_FALSE(scripted.empty());
  const auto report = chaos::HotKeyChaosRunner::run(scripted.front(), 7);
  ASSERT_TRUE(report.passed()) << report.history.substr(0, 4000);
  // A baseline that never promotes or never serves a replica read would
  // make every other family vacuous.
  EXPECT_GT(report.promotions, 0u);
  EXPECT_GT(report.replica_hits, 0u);
}

TEST(HotKeyChaos, WriteRaceFamilyInvalidatesCopies) {
  for (const auto& schedule : chaos::HotKeySchedule::scripted()) {
    if (schedule.name != "hotkey-write-invalidate-race") continue;
    const auto report = chaos::HotKeyChaosRunner::run(schedule, 11);
    ASSERT_TRUE(report.passed()) << report.history.substr(0, 4000);
    EXPECT_GT(report.invalidations, 0u)
        << "writes never raced a live promotion; the family tests nothing";
    return;
  }
  FAIL() << "scripted() lost the hotkey-write-invalidate-race family";
}

TEST(HotKeyChaos, HistoryIsDeterministicAndPlaneBlind) {
  const auto scripted = chaos::HotKeySchedule::scripted();
  // The kill-primary family stresses the most scheduling-sensitive paths.
  const auto& schedule = scripted[3];
  const auto a = chaos::HotKeyChaosRunner::run(schedule, 99);
  const auto b = chaos::HotKeyChaosRunner::run(schedule, 99);
  EXPECT_EQ(a.history, b.history) << "same (schedule, seed) must replay identically";
  obs::Plane plane;
  const auto c = chaos::HotKeyChaosRunner::run(schedule, 99, &plane);
  EXPECT_EQ(a.history, c.history) << "attaching the obs plane perturbed the run";
}

// ------------------------------------------------------- chaos: randomized

TEST(HotKeyChaos, SeededRandomSweepHoldsInvariants) {
  int runs = 6;
  if (const char* env = std::getenv("HYDRA_HOTKEY_RANDOM_RUNS")) {
    runs = std::max(1, std::atoi(env));
  }
  for (int i = 0; i < runs; ++i) {
    const auto seed = static_cast<std::uint64_t>(1000 + i);
    const auto schedule = chaos::HotKeySchedule::random(seed);
    const auto report = chaos::HotKeyChaosRunner::run(schedule, seed);
    EXPECT_TRUE(report.passed()) << schedule.name << ":\n"
                                 << report.history.substr(0, 4000);
    EXPECT_EQ(report.stale_reads, 0u) << schedule.name;
    EXPECT_EQ(report.wedged, 0u) << schedule.name;
  }
}

}  // namespace
}  // namespace hydra
