// Live shard migration (DESIGN.md §9): the chaos sweep over the elastic
// membership plane, golden-determinism checks with the observability plane
// attached, and one regression per stale-ownership bug the protocol closes.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/harness.hpp"
#include "common/hash.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"
#include "obs/trace.hpp"

namespace hydra {
namespace {

using chaos::Family;
using chaos::Report;
using chaos::Schedule;
using chaos::describe;

Report run_scripted(const char* name, std::uint64_t seed, obs::Plane* plane = nullptr) {
  return chaos::run(chaos::scripted_by_name(Family::kMigration, name), seed, plane);
}

db::ClusterOptions elastic_options(int shards) {
  db::ClusterOptions opts;
  opts.server_nodes = shards;
  opts.shards_per_node = 1;
  opts.total_shards = shards;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.replicas = 1;
  opts.enable_swat = true;
  opts.shard_template.store.arena_bytes = 16 << 20;
  opts.shard_template.store.min_buckets = 1 << 12;
  opts.client_template.request_timeout = 100 * kMillisecond;
  opts.client_template.max_retries = 100;
  return opts;
}

void run_until_committed(db::HydraCluster& cluster) {
  for (int i = 0; i < 200 && cluster.migration_active(); ++i) {
    cluster.run_for(100 * kMillisecond);
  }
  ASSERT_FALSE(cluster.migration_active()) << "migration never committed";
}

// ---------------------------------------------------------------- the sweep

// Every scripted family (clean add/drain, source, destination, victim and
// SWAT kills mid-copy) across several seeds: every acked PUT stays readable
// with its exact value, no key is lost or double-owned after the final
// epoch, and the migration commits despite the faults.
TEST(MigrationSweep, ScriptedFamilies) {
  for (const auto& schedule : Schedule::scripted(Family::kMigration)) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Report r = chaos::run(schedule, seed);
      EXPECT_TRUE(r.passed()) << schedule.name << " seed " << seed << ":\n"
                              << describe(r);
      EXPECT_GT(r.acked, 0u) << schedule.name << " seed " << seed;
      EXPECT_TRUE(r.migration_completed) << schedule.name << " seed " << seed;
      EXPECT_GT(r.keys_moved, 0u) << schedule.name << " seed " << seed;
    }
  }
}

// Seeded-random compositions over the same alphabet (add/drain x clean /
// source-kill / destination-kill / SWAT-gap). HYDRA_MIGRATION_RANDOM_RUNS
// scales the sweep (tier1.sh shortens the sanitizer passes).
TEST(MigrationSweep, RandomFamilies) {
  const int runs = chaos::random_runs("HYDRA_MIGRATION_RANDOM_RUNS", 20);
  for (int i = 1; i <= runs; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const Report r = chaos::run(Schedule::random(Family::kMigration, seed), seed);
    EXPECT_TRUE(r.passed()) << describe(r);
  }
}

// The dual-ownership window is real: writes applied by a source while its
// snapshot copies must be forwarded down the flow (the workload overlaps
// the copy, so a clean add always forwards some records).
TEST(MigrationSweep, DualOwnershipCatchUpForwards) {
  const Report r = run_scripted("add-clean", 1);
  ASSERT_TRUE(r.passed()) << describe(r);
  EXPECT_GT(r.forwarded, 0u)
      << "no dual-ownership records forwarded; the catch-up path is dead:\n"
      << r.history;
}

// ------------------------------------------------------------- determinism

// Identical (schedule, seed) must reproduce the run byte-for-byte.
TEST(MigrationDeterminism, SameSeedSameHistory) {
  const Report a = run_scripted("add-kill-source", 7);
  const Report b = run_scripted("add-kill-source", 7);
  EXPECT_EQ(a.history, b.history);

  const Schedule random = Schedule::random(Family::kMigration, 42);
  const Report c = chaos::run(random, 42);
  const Report d = chaos::run(random, 42);
  EXPECT_EQ(c.history, d.history);
  EXPECT_NE(a.history, c.history);  // different schedules diverge
}

// Attaching the observability plane must not perturb the simulation: the
// history (virtual times included) is byte-identical with obs on and off,
// for a clean run and for one with kills mid-migration.
TEST(MigrationDeterminism, ObsPlaneDoesNotPerturbHistory) {
  for (const char* name : {"add-clean", "drain-kill-victim"}) {
    const Report bare = run_scripted(name, 5);
    obs::Plane plane;
    const Report observed = run_scripted(name, 5, &plane);
    EXPECT_EQ(bare.history, observed.history) << name;
    // And the plane actually saw the protocol.
    const auto q = plane.query();
    EXPECT_GE(q.count(obs::TraceKind::kMigrationStart), 1u) << name;
    EXPECT_GE(q.count(obs::TraceKind::kMigrationDone), 1u) << name;
  }
}

// ------------------------------------------------- one regression per bug

// THE headline bug: a client holds a cached remote pointer (with a
// multi-second lease) into a shard that is then drained out of the ring.
// The drained shard's arena stays allocated (graveyard), so without epoch
// fencing the one-sided read would still be posted against the retired
// rkey -- and could return the stale value for as long as the lease held.
// The fix: the routing epoch stamped into the pointer at cache time must be
// re-checked against the live epoch before every one-sided read.
TEST(MigrationRegression, NoRdmaReadAgainstDrainedShardsRkey) {
  obs::Plane plane;
  auto opts = elastic_options(3);
  opts.obs = &plane;
  db::HydraCluster cluster(opts);

  const ShardId victim = 1;
  std::string key;
  for (int i = 0; i < 256; ++i) {
    key = "hot-" + std::to_string(i);
    if (cluster.owner_of(key) == victim) break;
  }
  ASSERT_EQ(cluster.owner_of(key), victim);
  ASSERT_EQ(cluster.put(key, "v1"), Status::kOk);

  // Pump the key's popularity so the next lease spans the whole drain.
  auto* sh = cluster.shard(victim);
  ASSERT_NE(sh, nullptr);
  for (int i = 0; i < 6; ++i) {
    (void)sh->store().get(key, cluster.scheduler().now(), /*grant_lease=*/true);
  }
  ASSERT_TRUE(cluster.get(key).has_value());  // mints + caches the pointer
  cluster.run_for(10 * kMillisecond);

  // Sanity: the pointer is hot -- this GET must be a one-sided read hit.
  auto* cl = cluster.clients().front();
  const std::uint64_t hits_before = cl->stats().ptr_hits;
  ASSERT_EQ(*cluster.get(key), "v1");
  ASSERT_GT(cl->stats().ptr_hits, hits_before) << "RDMA-read path never engaged";

  const std::uint32_t victim_rkey = sh->arena_rkey();
  ASSERT_TRUE(cluster.drain_shard_live(victim));
  run_until_committed(cluster);
  cluster.run_for(kSecond);

  const auto commit = plane.query().last(obs::TraceKind::kEpochPublished);
  ASSERT_TRUE(commit.has_value());

  // The moved key must read back correctly -- and via the NEW owner: not a
  // single RDMA Read may be posted against the drained shard's rkey after
  // the epoch was published.
  const std::uint64_t invalidations_before = cl->stats().epoch_invalidations;
  EXPECT_EQ(*cluster.get(key), "v1");
  EXPECT_EQ(*cluster.get(key), "v1");
  EXPECT_GT(cl->stats().epoch_invalidations, invalidations_before)
      << "stale pointer was never invalidated by the epoch check";

  const auto q = plane.query();
  std::size_t stale_reads = 0;
  std::size_t pre_commit_reads = 0;
  for (const auto& rec : q.of(obs::TraceKind::kReadPosted)) {
    if (rec.b != victim_rkey) continue;
    if (rec.seq > commit->seq) {
      ++stale_reads;
    } else {
      ++pre_commit_reads;
    }
  }
  EXPECT_GT(pre_commit_reads, 0u) << "test vacuous: key was never RDMA-read";
  EXPECT_EQ(stale_reads, 0u)
      << stale_reads << " one-sided reads posted against the drained rkey";
}

// A write landing on the NEW owner after the commit must be visible to a
// client that cached a pointer under the old ownership (the cached pointer
// references the pre-migration copy of the value).
TEST(MigrationRegression, PostMigrationUpdatesVisibleThroughStaleCache) {
  db::HydraCluster cluster(elastic_options(2));

  // Find a key that the future shard 2 will own.
  cluster::ConsistentHashRing future = cluster.ring();
  future.add_shard(2);
  std::string key;
  for (int i = 0; i < 1024; ++i) {
    key = "move-" + std::to_string(i);
    if (future.owner(hash_key(key)) == 2 && cluster.owner_of(key) != 2) break;
  }
  ASSERT_EQ(future.owner(hash_key(key)), 2u);

  ASSERT_EQ(cluster.put(key, "old"), Status::kOk);
  auto* sh = cluster.shard(cluster.owner_of(key));
  for (int i = 0; i < 6; ++i) {
    (void)sh->store().get(key, cluster.scheduler().now(), /*grant_lease=*/true);
  }
  ASSERT_EQ(*cluster.get(key), "old");  // caches a pointer into the old owner
  cluster.run_for(10 * kMillisecond);

  ASSERT_NE(cluster.add_shard_live(), kInvalidShard);
  run_until_committed(cluster);
  cluster.run_for(kSecond);
  ASSERT_EQ(cluster.owner_of(key), 2u);

  // Update through the new owner, then read through the client that still
  // holds the stale pointer: it must see "new", never the cached "old".
  ASSERT_EQ(cluster.put(key, "new"), Status::kOk);
  EXPECT_EQ(*cluster.get(key), "new");
}

// Keys whose owner does not change must keep their owner across an add --
// the consistent-hash contract that makes migration cost ~1/N.
TEST(MigrationRegression, UnaffectedKeysKeepOwners) {
  db::HydraCluster cluster(elastic_options(3));
  std::vector<std::string> keys;
  std::vector<ShardId> owners_before;
  for (int i = 0; i < 400; ++i) {
    keys.push_back("sample-" + std::to_string(i));
    owners_before.push_back(cluster.owner_of(keys.back()));
  }

  const ShardId subject = cluster.add_shard_live();
  ASSERT_NE(subject, kInvalidShard);
  run_until_committed(cluster);

  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const ShardId owner = cluster.owner_of(keys[i]);
    if (owner == subject) {
      ++moved;
    } else {
      EXPECT_EQ(owner, owners_before[i])
          << keys[i] << " changed owner without moving to the new shard";
    }
  }
  EXPECT_GT(moved, 0u) << "the new shard owns nothing";
}

// While the migration is sealed, the pre-migration owner answers
// kWrongOwner for moved keys; clients must re-resolve (not fail) and the
// redirect counter must show it happened. A second migration must also be
// rejected while one is active.
TEST(MigrationRegression, SingleMigrationAtATime) {
  db::HydraCluster cluster(elastic_options(2));
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(cluster.put("k-" + std::to_string(i), "v"), Status::kOk);
  }
  ASSERT_NE(cluster.add_shard_live(), kInvalidShard);
  ASSERT_TRUE(cluster.migration_active());
  EXPECT_EQ(cluster.add_shard_live(), kInvalidShard);
  EXPECT_FALSE(cluster.drain_shard_live(0));
  run_until_committed(cluster);
  // And after the commit both are accepted again (one at a time, serially).
  EXPECT_TRUE(cluster.drain_shard_live(2));
  run_until_committed(cluster);
  EXPECT_TRUE(cluster.shard_retired(2));
}

}  // namespace
}  // namespace hydra
