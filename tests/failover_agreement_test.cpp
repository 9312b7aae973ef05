// Tests for the fast-failover plane (DESIGN.md §14): RDMA permission
// revocation as the fencing primitive, missed-pulse suspicion, one-sided CAS
// ballot agreement, the microsecond crash-to-promotion gap, and the chaos
// family that hammers every fault point of the round. Plus the failover-path
// bugfix regressions this PR ships: revoked-rkey retransmits settling strict
// waiters, fenced-rkey pointer invalidation on fast epoch advance, and the
// legacy/fast double-promotion guard. And client re-routing: a promotion's
// routing-watch notification, not the request timeout, moves loaded clients
// onto the new owner.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/harness.hpp"
#include "common/keygen.hpp"
#include "fabric/fabric.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"
#include "replication/primary.hpp"
#include "replication/secondary.hpp"
#include "sim/scheduler.hpp"

namespace hydra {
namespace {

using chaos::Family;
using chaos::Report;
using chaos::Schedule;
using chaos::describe;

// ------------------------------------------------------------- rig helpers

/// Standalone replication rig (no cluster): one primary, N secondaries.
struct Rig {
  void build(int secondaries, replication::ReplicationMode mode) {
    primary_node = fabric.add_node("primary").id();
    owner = std::make_unique<sim::Actor>(sched, "primary-shard");
    replication::PrimaryConfig cfg;
    cfg.mode = mode;
    primary = std::make_unique<replication::ReplicationPrimary>(*owner, fabric,
                                                                primary_node, cfg);
    for (int i = 0; i < secondaries; ++i) {
      const NodeId n = fabric.add_node("secondary-" + std::to_string(i)).id();
      replication::SecondaryConfig scfg;
      scfg.primary_shard = 0;
      scfg.store.arena_bytes = 8 << 20;
      secs.push_back(std::make_unique<replication::SecondaryShard>(sched, fabric, n, scfg));
      primary->add_secondary(*secs.back());
    }
  }

  proto::RepRecord make_put(const std::string& key, const std::string& value) {
    proto::RepRecord rec;
    rec.op = proto::MsgType::kPut;
    rec.op_time = sched.now();
    rec.key = key;
    rec.value = value;
    return rec;
  }

  sim::Scheduler sched;
  fabric::Fabric fabric{sched};
  NodeId primary_node = 0;
  std::unique_ptr<sim::Actor> owner;
  std::unique_ptr<replication::ReplicationPrimary> primary;
  std::vector<std::unique_ptr<replication::SecondaryShard>> secs;
};

db::ClusterOptions fast_options() {
  db::ClusterOptions opts;
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.total_shards = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.replicas = 2;
  opts.enable_swat = true;
  opts.fast_failover = true;
  opts.shard_template.store.arena_bytes = 16 << 20;
  opts.shard_template.store.min_buckets = 1 << 12;
  opts.client_template.request_timeout = 100 * kMillisecond;
  opts.client_template.max_retries = 100;
  return opts;
}

Report run_scripted(const char* name, std::uint64_t seed) {
  return chaos::run(chaos::scripted_by_name(Family::kFailover, name), seed);
}

// ------------------------------------------------ fabric revocation verbs

TEST(RevocationVerb, RevokeFailsInFlightAndFutureWrites) {
  Rig rig;
  rig.build(1, replication::ReplicationMode::kLogRelaxed);
  rig.primary->replicate(rig.make_put("k0", "v0"), nullptr);
  rig.sched.run();
  ASSERT_EQ(rig.secs[0]->applied_records(), 1u);

  bool confirmed = false;
  rig.fabric.revoke_rkey(rig.secs[0]->node(), rig.secs[0]->ring_mr()->rkey(),
                         3 * kMicrosecond, [&](bool ok) { confirmed = ok; });
  rig.sched.run();
  EXPECT_TRUE(confirmed);
  EXPECT_EQ(rig.fabric.stats().rkey_revocations, 1u);
  // Revoking an already-revoked region is idempotent and still confirms.
  bool again = false;
  rig.fabric.revoke_rkey(rig.secs[0]->node(), rig.secs[0]->ring_mr()->rkey(),
                         3 * kMicrosecond, [&](bool ok) { again = ok; });
  rig.sched.run();
  EXPECT_TRUE(again);

  // An unknown rkey cannot be confirmed.
  bool unknown_ok = true;
  rig.fabric.revoke_rkey(rig.secs[0]->node(), 0xdeadu, 3 * kMicrosecond,
                         [&](bool ok) { unknown_ok = ok; });
  rig.sched.run();
  EXPECT_FALSE(unknown_ok);
}

TEST(RevocationVerb, ReregisterGrantsFreshRkeyAndKeepsOldDead) {
  Rig rig;
  rig.build(1, replication::ReplicationMode::kLogRelaxed);
  fabric::MemoryRegion* old_mr = rig.secs[0]->ring_mr();
  const std::uint32_t old_rkey = old_mr->rkey();

  rig.fabric.revoke_rkey(rig.secs[0]->node(), old_rkey, kMicrosecond, nullptr);
  rig.sched.run();
  fabric::MemoryRegion* fresh = rig.fabric.reregister_mr(rig.secs[0]->node(), old_mr);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh->rkey(), old_rkey);
  EXPECT_EQ(fresh->length(), old_mr->length());
  EXPECT_EQ(rig.fabric.stats().rkey_reregistrations, 1u);
}

// --------------------------- bugfix 1: revoked-rkey retransmit regression
//
// Bug: a probe/record retransmit landing after a replica revoked the
// primary's rkey retried the write until the retransmit budget quarantined
// the link -- seconds of virtual time with strict waiters pinned. A
// kProtectionError from a *live* replica is a fence verdict: it must settle
// the waiters immediately (and never count as a wire retry).
TEST(FastFailoverRegression, RevokedRingSettlesStrictWaitersWithoutRetryStorm) {
  Rig rig;
  rig.build(1, replication::ReplicationMode::kStrictAck);
  bool warm = false;
  rig.primary->replicate(rig.make_put("k0", "v0"), [&] { warm = true; });
  rig.sched.run();
  ASSERT_TRUE(warm);

  // The replica fences us (as the failover plane would mid-round).
  rig.fabric.revoke_rkey(rig.secs[0]->node(), rig.secs[0]->ring_mr()->rkey(),
                         3 * kMicrosecond, nullptr);
  rig.sched.run();

  const std::uint64_t retries_before = rig.primary->write_retries();
  bool settled = false;
  rig.primary->replicate(rig.make_put("k1", "v1"), [&] { settled = true; });
  rig.sched.run();

  // The strict waiter fired (no wedge), without a single wire retry -- the
  // permission error is terminal, not transient.
  EXPECT_TRUE(settled);
  EXPECT_EQ(rig.primary->write_retries(), retries_before);
  EXPECT_EQ(rig.primary->fence_errors(), 1u);
  EXPECT_EQ(rig.primary->quarantined(), 1u);
}

TEST(FastFailoverRegression, RevokedLinkQuarantinesWhileSurvivorKeepsStream) {
  Rig rig;
  rig.build(2, replication::ReplicationMode::kStrictAck);
  rig.primary->replicate(rig.make_put("k0", "v0"), nullptr);
  rig.sched.run();

  rig.fabric.revoke_rkey(rig.secs[0]->node(), rig.secs[0]->ring_mr()->rkey(),
                         3 * kMicrosecond, nullptr);
  rig.sched.run();

  bool settled = false;
  rig.primary->replicate(rig.make_put("k1", "v1"), [&] { settled = true; });
  rig.sched.run();
  EXPECT_TRUE(settled);
  EXPECT_EQ(rig.primary->quarantined(), 1u);
  // The survivor's stream kept flowing past the fenced link.
  EXPECT_EQ(rig.secs[1]->applied_records(), 2u);
  EXPECT_EQ(rig.secs[0]->applied_records(), 1u);
}

// ------------------------------------------------------ suspicion + pulses

TEST(FastFailoverAgreement, PulsesKeepHealthyReplicasUnsuspicious) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);
  // Many pulse deadlines' worth of healthy silence on the data path.
  cluster.run_for(20 * kMillisecond);

  EXPECT_EQ(cluster.failovers(), 0u);
  const auto q = plane.query();
  EXPECT_EQ(q.count(obs::TraceKind::kSuspicionRaised), 0u);
  EXPECT_EQ(q.count(obs::TraceKind::kRkeyRevoked), 0u);
}

TEST(FastFailoverAgreement, CrashPromotesWithinMillisecond) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(cluster.put("k-" + std::to_string(i), "v-" + std::to_string(i)),
              Status::kOk);
  }
  cluster.run_for(10 * kMillisecond);

  const Time crashed_at = cluster.scheduler().now();
  cluster.crash_primary(0);
  cluster.run_for(50 * kMillisecond);  // milliseconds, not seconds

  ASSERT_EQ(cluster.failovers(), 1u);
  ASSERT_NE(cluster.shard(0), nullptr);
  EXPECT_TRUE(cluster.shard(0)->alive());

  const auto q = plane.query();
  const auto done = q.first(obs::TraceKind::kPromotionDone, 0);
  ASSERT_TRUE(done.has_value());
  const Duration gap = done->at - crashed_at;
  EXPECT_LT(gap, kMillisecond) << "crash-to-promotion gap " << gap << "ns";

  // Protocol order: suspicion -> revocation -> ballot cast -> ballot won ->
  // promotion. Revocation-before-ballot is the safety argument: by the time
  // any candidate asks for votes, the old primary is already write-fenced.
  EXPECT_TRUE(q.happened_before(obs::TraceKind::kSuspicionRaised,
                                obs::TraceKind::kRkeyRevoked));
  EXPECT_TRUE(q.happened_before(obs::TraceKind::kRkeyRevoked,
                                obs::TraceKind::kBallotCast));
  EXPECT_TRUE(q.happened_before(obs::TraceKind::kBallotCast,
                                obs::TraceKind::kBallotWon));
  EXPECT_TRUE(q.happened_before(obs::TraceKind::kBallotWon,
                                obs::TraceKind::kPromotionDone));
  // Exactly one winner even with two concurrent suspecting replicas.
  EXPECT_EQ(q.count(obs::TraceKind::kBallotWon), 1u);

  // Data survived and writes resume immediately.
  for (int i = 0; i < 30; ++i) {
    auto v = cluster.get("k-" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, "v-" + std::to_string(i));
  }
  EXPECT_EQ(cluster.put("after", "crash"), Status::kOk);

  // The legacy session expiry (2s later) must NOT promote again: the fast
  // promotion re-registered the znode under the new primary's session.
  cluster.run_for(5 * kSecond);
  EXPECT_EQ(cluster.failovers(), 1u);
  EXPECT_EQ(plane.query().count(obs::TraceKind::kPromotionDone, 0), 1u);
}

TEST(FastFailoverAgreement, GapHistogramRecordsMicrosecondFailover) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);
  cluster.run_for(10 * kMillisecond);
  cluster.crash_primary(0);
  cluster.run_for(50 * kMillisecond);
  ASSERT_EQ(cluster.failovers(), 1u);

  // The cluster records crash-to-promotion in cluster.failover_gap_us.
  auto& h = plane.metrics().histogram("cluster.failover_gap_us");
  ASSERT_EQ(h.count(), 1u);
  EXPECT_LT(h.max(), 1000u);  // < 1000us = 1ms
}

// --------------- bugfix 2: cached pointers vs the fast epoch advance
//
// Bug: RemotePtrCache entries (and hot-key promo-slab pointers) were only
// invalidated by lease expiry or the *legacy* promotion path's epoch bump.
// The fast path promotes in microseconds -- a cached pointer can have
// seconds of lease left -- so the epoch stamped at cache time must fence
// every one-sided read the instant kEpochPublished lands.
TEST(FastFailoverRegression, NoReadAgainstFencedRkeyAfterFastEpochBump) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);

  const ShardId victim = 0;
  std::string key = "hot-0";
  ASSERT_EQ(cluster.owner_of(key), victim);  // single shard owns everything
  ASSERT_EQ(cluster.put(key, "v"), Status::kOk);

  // Pump popularity so the minted lease far outlives the microsecond
  // failover window.
  auto* sh = cluster.shard(victim);
  ASSERT_NE(sh, nullptr);
  for (int i = 0; i < 6; ++i) {
    (void)sh->store().get(key, cluster.scheduler().now(), /*grant_lease=*/true);
  }
  ASSERT_TRUE(cluster.get(key).has_value());  // mints + caches the pointer
  cluster.run_for(10 * kMillisecond);

  auto* cl = cluster.clients().front();
  const std::uint64_t hits_before = cl->stats().ptr_hits;
  ASSERT_EQ(*cluster.get(key), "v");
  ASSERT_GT(cl->stats().ptr_hits, hits_before) << "RDMA-read path never engaged";
  const std::uint32_t fenced_rkey = sh->arena_rkey();

  cluster.crash_primary(victim);
  cluster.run_for(50 * kMillisecond);  // fast window only -- lease still live
  ASSERT_EQ(cluster.failovers(), 1u);
  const auto epoch = plane.query().last(obs::TraceKind::kEpochPublished);
  ASSERT_TRUE(epoch.has_value());

  const std::uint64_t invalidations_before = cl->stats().epoch_invalidations;
  ASSERT_EQ(*cluster.get(key), "v");
  ASSERT_EQ(*cluster.get(key), "v");
  EXPECT_GT(cl->stats().epoch_invalidations, invalidations_before)
      << "the epoch check never fired for the stale pointer";

  const auto q = plane.query();
  std::size_t stale_reads = 0;
  std::size_t pre_crash_reads = 0;
  for (const auto& rec : q.of(obs::TraceKind::kReadPosted)) {
    if (rec.b != fenced_rkey) continue;
    if (rec.seq > epoch->seq) {
      ++stale_reads;
    } else {
      ++pre_crash_reads;
    }
  }
  EXPECT_GT(pre_crash_reads, 0u) << "test vacuous: key was never RDMA-read";
  EXPECT_EQ(stale_reads, 0u)
      << stale_reads << " one-sided reads posted against the fenced rkey";
}

TEST(FastFailoverRegression, HotKeyPromoSlabDemotesOnFastEpochAdvance) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  opts.shard_template.hotkey_top_k = 4;
  opts.shard_template.hotkey_promote_min_hits = 4;
  // Every probe must land on the shard's hit tracker: with a long lease the
  // second GET onwards rides the cached pointer one-sided and the tracker
  // never sees it.
  opts.shard_template.store.min_lease = 50 * kMicrosecond;
  opts.shard_template.store.max_lease = 100 * kMicrosecond;
  db::HydraCluster cluster(opts);

  const std::string key = "hk-0";
  ASSERT_EQ(cluster.put(key, "v"), Status::kOk);
  // Hammer the key hot enough to promote copies onto the followers; the
  // 2ms scan interval sees ~10 hits per window, past min_hits.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(cluster.get(key).has_value());
    cluster.run_for(200 * kMicrosecond);
  }
  const auto promoted = plane.query().count(obs::TraceKind::kHotKeyPromoted);
  ASSERT_GT(promoted, 0u) << "test vacuous: key never promoted";

  // Crash before the next scan tick can cool the promotion: the epoch
  // advance, not cooldown, must be what withdraws it.
  cluster.crash_primary(0);
  cluster.run_for(50 * kMillisecond);
  ASSERT_EQ(cluster.failovers(), 1u);

  // The promo-slab copies must be withdrawn by the fast epoch advance
  // exactly as a migration epoch would, and reads still return the value.
  ASSERT_EQ(*cluster.get(key), "v");
  const auto q = plane.query();
  const auto epoch = q.last(obs::TraceKind::kEpochPublished);
  ASSERT_TRUE(epoch.has_value());
  bool epoch_demotion = false;
  for (const auto& rec : q.of(obs::TraceKind::kHotKeyDemoted)) {
    if (rec.seq > epoch->seq || rec.b == 1) epoch_demotion = true;
  }
  EXPECT_TRUE(epoch_demotion) << "no promo-slab demotion after the epoch bump";
}

// ---------------------------------------------------- client re-routing
//
// The promotion publishes the routing epoch; every client machine's routing
// watch hears it one op_latency later and its clients re-submit the ops
// stalled on the fallen owner at once. Recovery that waited for the 5 ms
// request timeout (plus its 1.25 ms retry backoff) would stall the crashed
// shard's clients for ~6.2 ms, so these tests bound the stall at 1 ms.

/// Three shards on three machines, each with two replicas elsewhere; twelve
/// clients on two machines, at the default 5 ms request timeout -- the
/// backstop must not be what recovers them.
db::ClusterOptions loaded_options(bool mux) {
  db::ClusterOptions opts;
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.client_nodes = 2;
  opts.clients_per_node = 6;
  opts.replicas = 2;
  opts.enable_swat = true;
  opts.fast_failover = true;
  opts.mux_connections = mux;
  opts.shard_template.store.arena_bytes = 16 << 20;
  opts.shard_template.store.min_buckets = 1 << 12;
  return opts;
}

/// Update traffic over preloaded keys with a record of every op: when it was
/// issued, the shard it routed to, and every answer it got.
struct Load {
  struct Op {
    Time issued = 0;
    Time done = 0;
    ShardId shard = kInvalidShard;
    int answers = 0;
    Status status = Status::kOk;
    std::string key;
  };

  Load(db::HydraCluster& c, std::uint64_t records) : cluster(c) {
    for (std::uint64_t i = 0; i < records; ++i) {
      const std::string key = format_key(i);
      cluster.direct_load(key, synth_value(i));
      keys_of[cluster.owner_of(key)].push_back(key);
    }
  }

  /// Closed loop: every client keeps `depth` updates in flight on keys
  /// drawn uniformly from every shard until stop().
  void closed_loop(int depth) {
    for (std::size_t k = 0; k < cluster.clients().size(); ++k) {
      for (int d = 0; d < depth; ++d) next(k);
    }
  }

  void next(std::size_t client) {
    if (stopped) return;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::vector<std::string>& keys = keys_of[(rng >> 33) % keys_of.size()];
    update(client, keys[(rng >> 17) % keys.size()], /*loop=*/true);
  }

  void update(std::size_t client, const std::string& key, bool loop) {
    const std::size_t id = ops.size();
    ops.push_back(Op{cluster.scheduler().now(), 0, cluster.owner_of(key), 0, Status::kOk, key});
    cluster.clients()[client]->update(key, "v" + std::to_string(id),
                                      [this, id, client, loop](Status st) {
                                        Op& op = ops[id];
                                        ++op.answers;
                                        op.done = cluster.scheduler().now();
                                        op.status = st;
                                        if (loop) next(client);
                                      });
  }

  void stop() { stopped = true; }

  std::uint64_t client_stat(std::uint64_t client::ClientStats::*field) const {
    std::uint64_t sum = 0;
    for (const client::Client* c : cluster.clients()) sum += c->stats().*field;
    return sum;
  }

  db::HydraCluster& cluster;
  std::map<ShardId, std::vector<std::string>> keys_of;
  std::vector<Op> ops;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  bool stopped = false;
};

/// Crashes `victim` and drives the simulator until the promotion publishes
/// a new routing epoch; returns the publish time.
Time crash_until_promoted(db::HydraCluster& cluster, ShardId victim) {
  const std::uint64_t epoch = cluster.routing_epoch();
  cluster.crash_primary(victim);
  while (cluster.routing_epoch() == epoch && cluster.scheduler().step()) {
  }
  return cluster.scheduler().now();
}

/// Ops the crash could stall -- outstanding at the crash, or issued before
/// the promotion was published -- must all finish within a millisecond of
/// the crash, answered once and successfully.
void expect_stalls_clear_within_ms(const Load& load, Time crash_at, Time promoted_at,
                                   ShardId victim) {
  std::size_t stalled = 0;
  std::size_t on_victim = 0;
  Time last = crash_at;
  for (const Load::Op& op : load.ops) {
    if (op.issued >= promoted_at || (op.answers > 0 && op.done <= crash_at)) continue;
    ++stalled;
    if (op.shard == victim) ++on_victim;
    ASSERT_EQ(op.answers, 1) << "op issued at " << op.issued;
    EXPECT_EQ(op.status, Status::kOk) << "op issued at " << op.issued;
    last = std::max(last, op.done);
  }
  EXPECT_GT(on_victim, 0u) << "test vacuous: no op was stalled on the crashed shard";
  EXPECT_GE(stalled, on_victim);
  EXPECT_LT(last - crash_at, kMillisecond)
      << "the last stalled op finished " << (last - crash_at) / 1000 << " us after the crash";
}

TEST(ClientRerouting, PromotionUnstallsLoadedClientsWithinAMillisecond) {
  db::HydraCluster cluster(loaded_options(/*mux=*/false));
  Load load(cluster, 3000);
  load.closed_loop(1);
  cluster.run_for(5 * kMillisecond);

  const Time crash_at = cluster.scheduler().now();
  const Time promoted_at = crash_until_promoted(cluster, 0);
  cluster.run_for(20 * kMillisecond);
  load.stop();
  cluster.run_for(50 * kMillisecond);

  expect_stalls_clear_within_ms(load, crash_at, promoted_at, 0);
  EXPECT_EQ(load.client_stat(&client::ClientStats::timeouts), 0u);
  EXPECT_EQ(load.client_stat(&client::ClientStats::failures), 0u);
  for (const Load::Op& op : load.ops) ASSERT_EQ(op.answers, 1);
}

// The Send/Recv baseline re-routes through the same machinery: its clients
// hear the promotion, re-submit what was stalled on the fallen primary, and
// no acknowledged update is lost. Every key reads back the value of an acked
// update that no later-issued acked update on the key supersedes.
TEST(ClientRerouting, SendRecvPromotionReroutesWithoutLoss) {
  auto opts = loaded_options(/*mux=*/false);
  opts.server_mode = server::ServerMode::kSendRecv;
  db::HydraCluster cluster(opts);
  Load load(cluster, 3000);
  load.closed_loop(1);
  cluster.run_for(5 * kMillisecond);

  const Time crash_at = cluster.scheduler().now();
  const Time promoted_at = crash_until_promoted(cluster, 0);
  cluster.run_for(20 * kMillisecond);
  load.stop();
  cluster.run_for(50 * kMillisecond);

  expect_stalls_clear_within_ms(load, crash_at, promoted_at, 0);
  EXPECT_EQ(load.client_stat(&client::ClientStats::timeouts), 0u);
  EXPECT_EQ(load.client_stat(&client::ClientStats::failures), 0u);
  std::map<std::string, std::vector<std::size_t>> ops_of;
  for (std::size_t i = 0; i < load.ops.size(); ++i) {
    ASSERT_EQ(load.ops[i].answers, 1) << "op " << i;
    ASSERT_EQ(load.ops[i].status, Status::kOk) << "op " << i;
    ops_of[load.ops[i].key].push_back(i);
  }
  std::size_t on_victim = 0;
  for (const auto& [key, ids] : ops_of) {
    const auto value = cluster.get(key);
    ASSERT_TRUE(value.has_value()) << key;
    ASSERT_EQ(value->front(), 'v') << key;
    const std::size_t shown = std::stoul(value->substr(1));
    ASSERT_LT(shown, load.ops.size()) << key;
    ASSERT_EQ(load.ops[shown].key, key);
    for (const std::size_t later : ids) {
      EXPECT_LE(load.ops[later].issued, load.ops[shown].done)
          << key << ": acked update " << later << " was lost under " << shown;
    }
    if (load.ops[shown].shard == 0) ++on_victim;
  }
  EXPECT_GT(on_victim, 0u) << "test vacuous: no key of the crashed shard was read back";
}

// A re-route drops each client's connection to the fallen owner, and the
// connection's own QP pair must go with it: otherwise every crash strands
// one pair per client, and the server NICs drift past their QP-penalty
// threshold.
TEST(ClientRerouting, DroppedConnectionsReleaseTheirQueuePairs) {
  struct Run {
    std::size_t live_qp_pairs = 0;
    std::uint32_t client_node_qps = 0;  ///< QP endpoints on the client machines
    std::uint64_t reroutes = 0;
  };
  auto run = [](bool crash) {
    auto opts = loaded_options(/*mux=*/false);
    // No idle reclaim before the census: every channel still open then is
    // one a dropped connection failed to release.
    opts.mux.idle_timeout = kSecond;
    db::HydraCluster cluster(opts);
    Load load(cluster, 3000);
    load.closed_loop(1);
    cluster.run_for(5 * kMillisecond);
    if (crash) crash_until_promoted(cluster, 0);
    cluster.run_for(20 * kMillisecond);
    load.stop();
    cluster.run_for(50 * kMillisecond);
    EXPECT_EQ(load.client_stat(&client::ClientStats::timeouts), 0u);
    for (const Load::Op& op : load.ops) EXPECT_EQ(op.answers, 1);
    Run out{cluster.fabric().live_qp_pairs(), 0,
            load.client_stat(&client::ClientStats::reroutes)};
    std::set<NodeId> nodes;
    for (const client::Client* c : cluster.clients()) nodes.insert(c->node());
    for (const NodeId n : nodes) out.client_node_qps += cluster.fabric().node(n).nic().qp_count;
    return out;
  };
  const Run calm = run(/*crash=*/false);
  const Run crashed = run(/*crash=*/true);
  ASSERT_EQ(crashed.reroutes, 12u) << "every client re-routes its shard-0 connection once";
  EXPECT_EQ(crashed.client_node_qps, calm.client_node_qps);
  // Every client pair is reclaimed, and so are the fallen primary's
  // replication links (one per replica).
  EXPECT_LE(crashed.live_qp_pairs, calm.live_qp_pairs);
}

TEST(ClientRerouting, MuxEndpointsRerouteAndHandBackSharedRingCredits) {
  auto opts = loaded_options(/*mux=*/true);
  opts.clients_per_node = 8;
  // A four-credit shared ring under sixteen in-flight updates per machine:
  // credit requests park on the channel the crash is about to strand.
  opts.shard_template.mux_ring_slots = 4;
  db::HydraCluster cluster(opts);
  Load load(cluster, 3000);
  load.closed_loop(2);
  cluster.run_for(5 * kMillisecond);

  const Time crash_at = cluster.scheduler().now();
  const Time promoted_at = crash_until_promoted(cluster, 0);
  cluster.run_for(20 * kMillisecond);
  load.stop();
  cluster.run_for(50 * kMillisecond);

  expect_stalls_clear_within_ms(load, crash_at, promoted_at, 0);
  EXPECT_EQ(load.client_stat(&client::ClientStats::timeouts), 0u);
  EXPECT_EQ(load.client_stat(&client::ClientStats::failures), 0u);
  // No op answered twice, none left unanswered.
  for (const Load::Op& op : load.ops) ASSERT_EQ(op.answers, 1);

  // Every credit is back once the traffic has drained, and no channel still
  // rides the fallen incarnation of shard 0.
  std::uint64_t credit_waits = 0;
  for (int n = 0; n < opts.client_nodes; ++n) {
    client::NodeMux* mux = cluster.node_mux(n);
    ASSERT_NE(mux, nullptr);
    credit_waits += mux->stats().credit_waits;
    for (ShardId s = 0; s < cluster.shard_count(); ++s) {
      client::NodeMux::Channel* ch = mux->peek_channel({s});
      if (ch == nullptr || !ch->open) continue;
      EXPECT_EQ(ch->in_flight, 0u) << "node " << n << " shard " << s;
      EXPECT_TRUE(ch->waiters.empty()) << "node " << n << " shard " << s;
      EXPECT_EQ(std::count(ch->slot_busy.begin(), ch->slot_busy.end(), true), 0)
          << "node " << n << " shard " << s;
      EXPECT_EQ(ch->wire.owner_generation, cluster.shard_generation(s))
          << "node " << n << " shard " << s;
    }
  }
  EXPECT_GT(credit_waits, 0u) << "test vacuous: the shared rings never filled";
}

/// Open-loop script: every 4 us for 2 ms from `start`, each client updates
/// one key, rotating over the three shards. The schedule never depends on
/// completions, so the ops each shard receives are fixed by the script.
struct ScriptRun {
  std::uint64_t served_b_c = 0;  ///< gets + puts shards 1 and 2 served
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t reroutes = 0;
  std::size_t b_c_in_flight_at_reroute = 0;
};

ScriptRun run_selectivity_script(bool crash) {
  db::HydraCluster cluster(loaded_options(/*mux=*/false));
  Load load(cluster, 3000);
  const Time start = cluster.scheduler().now() + kMillisecond;
  constexpr int kTicks = 500;
  for (int t = 0; t < kTicks; ++t) {
    cluster.scheduler().at(start + static_cast<Time>(t) * 4 * kMicrosecond, [&load, t] {
      for (std::size_t k = 0; k < load.cluster.clients().size(); ++k) {
        const auto& keys = load.keys_of[static_cast<ShardId>((t + k) % 3)];
        load.update(k, keys[(static_cast<std::size_t>(t) * 7 + k) % keys.size()],
                    /*loop=*/false);
      }
    });
  }
  ScriptRun out;
  cluster.scheduler().run_until(start + 300 * kMicrosecond);
  if (crash) {
    crash_until_promoted(cluster, 0);
    // Stop at the first re-route and count the shard 1/2 ops in flight
    // right then: the ones a careless re-route would re-submit.
    while (load.client_stat(&client::ClientStats::reroutes) == 0 &&
           cluster.scheduler().step()) {
    }
    for (const Load::Op& op : load.ops) {
      if (op.shard != 0 && op.answers == 0) ++out.b_c_in_flight_at_reroute;
    }
  }
  cluster.run_for(100 * kMillisecond);
  for (const Load::Op& op : load.ops) EXPECT_EQ(op.answers, 1);
  for (ShardId s : {ShardId{1}, ShardId{2}}) {
    out.served_b_c += cluster.shard(s)->stats().gets + cluster.shard(s)->stats().puts;
  }
  out.retries = load.client_stat(&client::ClientStats::retries);
  out.timeouts = load.client_stat(&client::ClientStats::timeouts);
  out.reroutes = load.client_stat(&client::ClientStats::reroutes);
  return out;
}

TEST(ClientRerouting, PromotionOfOneShardResubmitsNothingOnTheOthers) {
  const ScriptRun calm = run_selectivity_script(/*crash=*/false);
  const ScriptRun crashed = run_selectivity_script(/*crash=*/true);
  ASSERT_GT(crashed.reroutes, 0u) << "test vacuous: nothing was re-routed";
  ASSERT_GT(crashed.b_c_in_flight_at_reroute, 0u)
      << "test vacuous: shards 1 and 2 were idle when the re-route ran";
  EXPECT_EQ(crashed.served_b_c, calm.served_b_c);
  EXPECT_EQ(crashed.retries, calm.retries);
  EXPECT_EQ(crashed.timeouts, 0u);
  EXPECT_EQ(calm.reroutes, 0u);
}

// A request posted on the fallen owner's connection moments before the
// watch fires still has its wire post pending (issue_cost) when the
// re-route rebuilds the connection -- with the re-submitted copy in the
// same ring slot. The stale post must notice the slot now carries another
// request and stand down, or the new owner executes the op twice.
TEST(ClientRerouting, PostPendingAcrossTheRerouteExecutesOnce) {
  db::HydraCluster cluster(fast_options());
  cluster.direct_load("k", "v0");
  // Open the connection without using a ring slot, so the update below
  // takes slot 0 on the old connection and its re-submitted copy slot 0 on
  // the new one.
  (void)cluster.clients().front()->txn_wire(0);
  cluster.run_for(kMillisecond);

  const Time promoted_at = crash_until_promoted(cluster, 0);
  const Duration notify = 2 * cluster.options().coordinator.op_latency;
  const Duration issue_cost = cluster.options().client_template.issue_cost;
  std::optional<Status> status;
  cluster.scheduler().at(promoted_at + notify - issue_cost / 2, [&] {
    cluster.clients().front()->update("k", "v1", [&](Status st) { status = st; });
  });
  cluster.run_for(10 * kMillisecond);

  ASSERT_EQ(status, std::optional<Status>(Status::kOk));
  EXPECT_EQ(cluster.clients().front()->stats().reroutes, 1u);
  EXPECT_EQ(cluster.shard(0)->stats().puts, 1u) << "the new owner executed the update twice";
  EXPECT_EQ(*cluster.get("k"), "v1");
}

// Dropping a connection hands its ring credits back to the shared channel,
// and a credit can go straight to a request this same connection parked.
// That request was drained with the connection, so it must recycle the
// credit rather than post its stale frame (the op runs again once
// re-submitted) and arm a timeout that nothing cancels.
TEST(ClientRerouting, DroppedConnectionRecyclesCreditsItsOwnRequestsWaitOn) {
  auto opts = loaded_options(/*mux=*/true);
  opts.client_nodes = 1;
  opts.clients_per_node = 2;
  opts.shard_template.mux_ring_slots = 2;  // two credits, three requests
  db::HydraCluster cluster(opts);
  Load load(cluster, 300);
  client::Client& c = *cluster.clients()[1];
  server::Shard& shard = *cluster.shard(0);
  const std::uint64_t puts = shard.stats().puts;
  const std::vector<std::string>& keys = load.keys_of[0];
  load.update(0, keys[0], /*loop=*/false);  // takes the first credit
  load.update(1, keys[1], /*loop=*/false);  // takes the second
  load.update(1, keys[2], /*loop=*/false);  // parks on the channel
  cluster.run_for(c.config().issue_cost + 10);
  ASSERT_EQ(cluster.node_mux(0)->peek_channel({0})->waiters.size(), 1u);
  c.reroute(0);
  cluster.run_for(20 * kMillisecond);

  for (const Load::Op& op : load.ops) EXPECT_EQ(op.answers, 1);
  EXPECT_EQ(shard.stats().puts - puts, 3u) << "a drained update ran twice";
  EXPECT_EQ(c.stats().reroutes, 2u);
  EXPECT_EQ(c.stats().timeouts, 0u);
}

TEST(ClientRerouting, MigrationEpochPublishWithNoOwnerChangeReroutesNothing) {
  db::ClusterOptions opts;
  opts.server_nodes = 2;
  opts.shards_per_node = 1;
  opts.client_nodes = 2;
  opts.clients_per_node = 2;
  opts.shard_template.store.arena_bytes = 16 << 20;
  opts.shard_template.store.min_buckets = 1 << 12;
  db::HydraCluster cluster(opts);
  Load load(cluster, 400);
  // Every client opens a connection to both shards.
  for (std::size_t k = 0; k < cluster.clients().size(); ++k) {
    for (ShardId s : {ShardId{0}, ShardId{1}}) {
      ASSERT_EQ(cluster.put(load.keys_of[s].front(), "x", static_cast<int>(k)), Status::kOk);
    }
  }
  const std::uint64_t epoch = cluster.routing_epoch();
  ASSERT_NE(cluster.add_shard_live(), kInvalidShard);
  for (int i = 0; i < 200 && cluster.migration_active(); ++i) {
    cluster.run_for(10 * kMillisecond);
  }
  ASSERT_FALSE(cluster.migration_active()) << "migration never committed";
  cluster.run_for(10 * kMillisecond);  // the watch notification lands
  ASSERT_GT(cluster.routing_epoch(), epoch);

  for (const client::Client* c : cluster.clients()) {
    EXPECT_EQ(c->stats().reroutes, 0u) << "client " << c->id();
    for (ShardId s : {ShardId{0}, ShardId{1}}) {
      EXPECT_EQ(c->connection_owner(s), std::optional<std::uint32_t>(cluster.shard_generation(s)))
          << "client " << c->id() << " lost its connection to shard " << s;
    }
  }
}

// ------------------------------------------------------------- flag off

// With fast_failover off the revocation machinery must not exist at all:
// no pulses, no suspicion, no arena registrations -- the rkey sequence and
// virtual-time history stay byte-identical to earlier revisions.
TEST(FastFailoverOff, NoRevocationMachineryWhenDisabled) {
  obs::Plane plane;
  const Report r = chaos::run(Schedule::scripted(Family::kChaos).front(), 3, &plane);
  EXPECT_TRUE(r.passed());
  const auto q = plane.query();
  EXPECT_EQ(q.count(obs::TraceKind::kSuspicionRaised), 0u);
  EXPECT_EQ(q.count(obs::TraceKind::kRkeyRevoked), 0u);
  EXPECT_EQ(q.count(obs::TraceKind::kBallotCast), 0u);
}

// ------------------------------------------------------------ chaos sweep

// 9 scripted families x 5 seeds.
TEST(FailoverChaosSweep, ScriptedFamilies) {
  for (const auto& schedule : Schedule::scripted(Family::kFailover)) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Report r = chaos::run(schedule, seed);
      EXPECT_TRUE(r.passed()) << schedule.name << " seed " << seed << ":\n"
                              << describe(r);
      EXPECT_GT(r.acked, 0u) << schedule.name << " seed " << seed;
    }
  }
}

// Seeded-random compositions; HYDRA_FAILOVER_RANDOM_RUNS scales the sweep
// (tier1.sh --failover raises it, the sanitizer passes lower it).
TEST(FailoverChaosSweep, RandomFamilies) {
  const int runs = chaos::random_runs("HYDRA_FAILOVER_RANDOM_RUNS", 40);
  for (int i = 1; i <= runs; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const Report r = chaos::run(Schedule::random(Family::kFailover, seed), seed);
    EXPECT_TRUE(r.passed()) << describe(r);
  }
}

TEST(FailoverChaosDeterminism, SameSeedSameHistory) {
  const Report a = run_scripted("fast-kill-mid-ring-write", 7);
  const Report b = run_scripted("fast-kill-mid-ring-write", 7);
  EXPECT_EQ(a.history, b.history);

  const Schedule random = Schedule::random(Family::kFailover, 17);
  const Report c = chaos::run(random, 17);
  const Report d = chaos::run(random, 17);
  EXPECT_EQ(c.history, d.history);
  EXPECT_NE(a.history, c.history);
}

// ------------------------------------------- per-fault-point regressions

TEST(FailoverChaosRegression, TornRevocationStillPromotesFast) {
  const Report r = run_scripted("fast-torn-revocation", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.fast_promotions, 1u) << describe(r);
  EXPECT_GT(r.revocations, 0u);
  EXPECT_LT(r.failover_gap, kMillisecond);
}

TEST(FailoverChaosRegression, DroppedRevocationRetriesAndPromotes) {
  const Report r = run_scripted("fast-dropped-revocation", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.fast_promotions, 1u) << describe(r);
  EXPECT_LT(r.failover_gap, kMillisecond);
}

// The fallback ordering argument (DESIGN.md §14): when every revocation is
// lost and the round aborts, the legacy session-timeout promotion must still
// recover the shard -- slower, never less safe.
TEST(FailoverChaosRegression, RevocationStormFallsBackToLegacyPromotion) {
  const Report r = run_scripted("fast-revocation-storm-falls-back", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
  EXPECT_EQ(r.fast_promotions, 0u) << describe(r);
  EXPECT_GE(r.rounds_aborted, 1u);
  EXPECT_GT(r.failover_gap, kMillisecond);  // it took the ~2.45s legacy path
}

TEST(FailoverChaosRegression, SplitBallotsElectExactlyOnePrimary) {
  const Report r = run_scripted("fast-split-ballots", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.failovers, 1u) << describe(r);
  // Exactly one round won its ballot and promoted; the race was real --
  // several replicas suspected and opened rounds, and every loser either
  // lost the CAS outright or aborted on the bumped generation. (Counters,
  // not end-of-run traces: the promoted primary's pulse traffic evicts the
  // ballot records from the bounded node rings long before settle ends.)
  EXPECT_EQ(r.fast_promotions, 1u) << describe(r);
  EXPECT_GE(r.rounds_started, 2u) << describe(r);
  EXPECT_GE(r.ballots_lost + r.rounds_aborted, 1u) << describe(r);
}

TEST(FailoverChaosRegression, SwatKillMidRoundDoesNotBlockAgreement) {
  const Report r = run_scripted("fast-swat-kill-mid-round", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.fast_promotions, 1u) << describe(r);
}

TEST(FailoverChaosRegression, ComposedMigrationCommitsUnderFastFailover) {
  const Report r = run_scripted("fast-composed-with-migration", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
}

}  // namespace
}  // namespace hydra
