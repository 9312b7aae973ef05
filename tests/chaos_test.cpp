// Deterministic chaos sweep over the failover plane (DESIGN.md §7), plus
// one regression test per crash-path bug the harness flushed out.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "chaos/harness.hpp"
#include "hydradb/hydra_cluster.hpp"

namespace hydra {
namespace {

using chaos::Family;
using chaos::Report;
using chaos::Schedule;
using chaos::describe;

Report run_scripted(const char* name, std::uint64_t seed, obs::Plane* plane = nullptr) {
  return chaos::run(chaos::scripted_by_name(Family::kChaos, name), seed, plane);
}

// ---------------------------------------------------------------- the sweep

// 9 scripted schedules x 10 seeds = 90 combos.
TEST(ChaosSweep, ScriptedFamilies) {
  for (const auto& schedule : Schedule::scripted(Family::kChaos)) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Report r = chaos::run(schedule, seed);
      EXPECT_TRUE(r.passed()) << schedule.name << " seed " << seed << ":\n"
                              << describe(r);
      EXPECT_GT(r.acked, 0u) << schedule.name << " seed " << seed;
    }
  }
}

// Seeded-random compositions of the same fault alphabet; 140 by default
// (70 + 140 = 210 combos >= the 200 the acceptance bar asks for). The
// HYDRA_CHAOS_RANDOM_RUNS environment knob scales the sweep up or down
// (tier1.sh uses it to shorten the ASan pass).
TEST(ChaosSweep, RandomFamilies) {
  const int runs = chaos::random_runs("HYDRA_CHAOS_RANDOM_RUNS", 140);
  for (int i = 1; i <= runs; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const Report r = chaos::run(Schedule::random(Family::kChaos, seed), seed);
    EXPECT_TRUE(r.passed()) << describe(r);
  }
}

// The cross-plane family: each seed picks a family's workload and adds
// faults from planes that family never reaches (record/ack tears and apply
// failures under the txn and hot-key drivers, a mux kill under scans, a
// live add under transactions...). One run per 7 of HYDRA_CHAOS_RANDOM_RUNS:
// 20 by default.
TEST(ChaosSweep, CrossPlaneFamilies) {
  const int runs = std::max(1, chaos::random_runs("HYDRA_CHAOS_RANDOM_RUNS", 140) / 7);
  for (int i = 1; i <= runs; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const Schedule schedule = Schedule::random(Family::kCross, seed);
    const Report r = chaos::run(schedule, seed);
    EXPECT_TRUE(r.passed()) << describe(r);
    EXPECT_EQ(r.faults_applied, schedule.faults.size()) << describe(r);
  }
}

// Identical (schedule, seed) must reproduce the run byte-for-byte.
TEST(ChaosDeterminism, SameSeedSameHistory) {
  const Report a = run_scripted("primary-kill-mid-put", 7);
  const Report b = run_scripted("primary-kill-mid-put", 7);
  EXPECT_EQ(a.history, b.history);

  const Schedule random = Schedule::random(Family::kChaos, 42);
  const Report c = chaos::run(random, 42);
  const Report d = chaos::run(random, 42);
  EXPECT_EQ(c.history, d.history);
  EXPECT_NE(a.history, c.history);  // different schedules diverge
}

// ------------------------------------------------- one regression per bug

// Bug: a primary death event arriving while the SWAT leader was itself a
// corpse (znode lingering until session expiry) was dropped -- no member
// reacted, the shard stayed dead forever. The pending-death set + /swat/
// watch must hand the reaction to the next leader.
TEST(ChaosRegression, SwatLeadershipGap) {
  const Report r = run_scripted("swat-leader-dead-during-failover", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
}

// Bug: a replica crash with strict-ack waiters outstanding wedged the
// primary's write path forever (the waiters' min-acked barrier included the
// dead link). Quarantine must settle every owed completion.
TEST(ChaosRegression, StrictAckSecondaryDeathNeverWedges) {
  const Report r = run_scripted("secondary-kill-mid-replay", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.wedged, 0u) << describe(r);
  // No failover here -- only a replica died; the primary must have absorbed
  // the loss by itself.
  EXPECT_EQ(r.failovers, 0u) << describe(r);
}

// Bug: a torn ack write left the strict-mode stream stalled forever (the
// primary waited for an ack the secondary believed it had already sent).
// The ack-deadline probe must re-solicit and recover without client help.
TEST(ChaosRegression, TornAckRecoversWithoutTimeouts) {
  const Report r = run_scripted("torn-and-dropped-ack", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.wedged, 0u);
  EXPECT_EQ(r.failovers, 0u) << describe(r);  // wire noise must not kill anyone
}

// Bug: heartbeat suppression past the session timeout let SWAT's promotion
// race the primary's tick-granularity self-fence: the promotion was refused
// ("primary still alive"), the death event was already consumed, and the
// shard stayed dead after fencing. Promotion must fence and proceed.
TEST(ChaosRegression, SuppressedHeartbeatsFenceAndPromote) {
  const Report r = run_scripted("heartbeat-suppression-fences", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
}

// The shared mux QP dies abruptly (twice) with PUTs in flight; nobody tells
// the mux layer. Endpoints must time out, tear the channel down and lazily
// re-establish -- the trace must show both the failure reclaims and the
// reopens, and no acked write may be lost (the family's invariant check).
TEST(ChaosRegression, MuxChannelKillRetransmitsWithoutLoss) {
  obs::Plane plane;
  const Report r = run_scripted("mux-channel-kill-mid-put", 1, &plane);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.wedged, 0u) << describe(r);
  EXPECT_EQ(r.failovers, 0u) << describe(r);  // QP death != process death
  const auto q = plane.query();
  // Two kills -> at least two failure teardowns (b=1 marks failure), and the
  // channel must have been opened at least 3 times (initial + reopen each).
  std::uint64_t failure_reclaims = 0;
  for (const auto& t : q.of(obs::TraceKind::kMuxChannelReclaimed)) {
    if (t.b == 1) ++failure_reclaims;
  }
  EXPECT_GE(failure_reclaims, 2u);
  EXPECT_GE(q.count(obs::TraceKind::kMuxChannelOpened), 3u);
}

// Bug (found by the cross-plane sweep): on a fast-failover cluster, landed
// liveness pulses counted as replication-stream progress, so the
// ack-deadline probe never fired and a strict-mode write whose ack was
// dropped waited forever -- the shard stopped accepting writes.
TEST(ChaosRegression, DroppedAckIsReSolicitedUnderFailoverPulses) {
  const Report r = chaos::run(
      chaos::scripted_by_name(Family::kCross, "cross-dropped-ack-under-pulses"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.failovers, 0u) << describe(r);  // a lost ack kills nobody
}

// Bug (found by the cross-plane sweep): a lock release whose CAS flushed on
// a killed mux channel re-posted on the same dead shared QP, which the mux
// layer still believed open, until its retry budget ran out -- leaking the
// lock word held on a live shard.
TEST(ChaosRegression, UnlockAfterMuxChannelKillReopensTheChannel) {
  const Report r =
      chaos::run(chaos::scripted_by_name(Family::kCross, "cross-unlock-after-mux-kill"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.lock_leaks, 0u) << describe(r);
}

// Bug (found by the cross-plane sweep): relaxed acks went out for records
// that landed behind a torn one, which the replica cannot consume until the
// primary rewrites it. The primary died first, and the promoted replica
// lost every acked transaction behind the hole.
TEST(ChaosRegression, RelaxedAckWaitsForTheFramesAhead) {
  const Report r = chaos::run(
      chaos::scripted_by_name(Family::kCross, "cross-relaxed-ack-behind-torn-record"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
}

// Concurrent writers on one shard form replication doorbell runs, which a
// single closed-loop stream never does; a torn and a dropped run write must
// heal without losing an acked record. Runs formed: the stream posted fewer
// ring writes (retransmits included) than it carried records.
TEST(ChaosRegression, TornAndDroppedDoorbellRunsHeal) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    obs::Plane plane;
    const Report r = run_scripted("torn-and-dropped-doorbell-run", seed, &plane);
    EXPECT_TRUE(r.passed()) << describe(r);
    EXPECT_EQ(r.faults_applied, 2u) << describe(r);
    EXPECT_EQ(r.acked, 80u) << describe(r);
    EXPECT_LT(plane.metrics().counters().at("shard.0.rep.ring_writes").value(), r.acked);
  }
}

// Bug: SWAT parsed "/shards/<id>/primary" with a bare std::stoul -- any
// garbage znode under /shards/ (which any session can create) aborted the
// whole SWAT member. Malformed paths must be ignored.
TEST(ChaosRegression, GarbageShardZnodeIsIgnored) {
  db::ClusterOptions opts;
  opts.server_nodes = 2;
  opts.shards_per_node = 1;
  opts.total_shards = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.replicas = 1;
  opts.enable_swat = true;
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);

  cluster.coordinator().create("/shards/not-a-number/primary", "junk");
  cluster.run_for(10 * kMillisecond);
  cluster.coordinator().remove("/shards/not-a-number/primary");
  cluster.run_for(kSecond);  // the kDeleted watch fires -> parse -> ignore

  EXPECT_EQ(cluster.failovers(), 0u);
  EXPECT_EQ(*cluster.get("k"), "v");  // cluster still healthy
}

}  // namespace
}  // namespace hydra
