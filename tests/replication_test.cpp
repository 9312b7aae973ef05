// Tests for RDMA logging replication: log delivery, relaxed vs strict acks,
// failure injection with rollback/resend, ring wrap-around, multi-secondary,
// and doorbell runs (held records posted under one doorbell), both on the
// bare engine and through a shard's request loop.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/keygen.hpp"
#include "fabric/fabric.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"
#include "replication/primary.hpp"
#include "replication/secondary.hpp"
#include "sim/scheduler.hpp"

namespace hydra::replication {
namespace {

/// Plain (non-fixture) rig so tests can instantiate more than one.
struct Rig {
  void build(int secondaries, ReplicationMode mode, std::uint32_t ack_interval = 32,
             std::uint32_t ring_bytes = 1 << 20) {
    fabric.set_obs(&plane);
    primary_node = fabric.add_node("primary").id();
    owner = std::make_unique<sim::Actor>(sched, "primary-shard");
    PrimaryConfig cfg;
    cfg.mode = mode;
    cfg.ack_interval = ack_interval;
    primary = std::make_unique<ReplicationPrimary>(*owner, fabric, primary_node, cfg);
    for (int i = 0; i < secondaries; ++i) {
      const NodeId n = fabric.add_node("secondary-" + std::to_string(i)).id();
      SecondaryConfig scfg;
      scfg.primary_shard = 0;
      scfg.ring_bytes = ring_bytes;
      scfg.store.arena_bytes = 8 << 20;
      secs.push_back(std::make_unique<SecondaryShard>(sched, fabric, n, scfg));
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

  /// Ring WQEs the primary posted: the ones that rang a doorbell
  /// (kWritePosted) and the ones that rode one (kDoorbellBatched), and the
  /// frames each carried, in post order. Rkeys number per node and every
  /// secondary registers alike, so one ring rkey names every secondary's
  /// ring.
  struct Posts {
    int rung = 0;
    int batched = 0;
    std::vector<std::uint32_t> frames;
  };
  Posts ring_posts() const {
    Posts p;
    const std::uint32_t rkey = secs.front()->ring_mr()->rkey();
    const obs::TraceQuery q = plane.query();
    for (const obs::TraceRecord& r : q.all()) {
      if (r.node != primary_node || static_cast<std::uint32_t>(r.b) != rkey) continue;
      if (r.kind == obs::TraceKind::kWritePosted) {
        ++p.rung;
      } else if (r.kind == obs::TraceKind::kDoorbellBatched) {
        ++p.batched;
      } else {
        continue;
      }
      p.frames.push_back(static_cast<std::uint32_t>(r.b >> 32));
    }
    return p;
  }

  sim::Scheduler sched;
  obs::Plane plane;
  fabric::Fabric fabric{sched};
  NodeId primary_node = 0;
  std::unique_ptr<sim::Actor> owner;
  std::unique_ptr<ReplicationPrimary> primary;
  std::vector<std::unique_ptr<SecondaryShard>> secs;
};

class ReplicationTest : public ::testing::Test, protected Rig {};

TEST_F(ReplicationTest, RecordsReachTheSecondaryStore) {
  build(1, ReplicationMode::kLogRelaxed);
  for (int i = 0; i < 100; ++i) {
    primary->replicate(make_put(format_key(static_cast<std::uint64_t>(i)), synth_value(static_cast<std::uint64_t>(i))), nullptr);
  }
  sched.run();
  EXPECT_EQ(secs[0]->applied_records(), 100u);
  EXPECT_EQ(secs[0]->applied_seq(), 100u);
  EXPECT_EQ(secs[0]->store().size(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto r = secs[0]->store().get(format_key(static_cast<std::uint64_t>(i)), sched.now(), false);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().value, synth_value(static_cast<std::uint64_t>(i)));
  }
}

TEST_F(ReplicationTest, RemoveRecordsReplay) {
  build(1, ReplicationMode::kLogRelaxed);
  primary->replicate(make_put("k", "v"), nullptr);
  proto::RepRecord del;
  del.op = proto::MsgType::kRemove;
  del.key = "k";
  primary->replicate(std::move(del), nullptr);
  sched.run();
  EXPECT_EQ(secs[0]->store().size(), 0u);
}

TEST_F(ReplicationTest, RelaxedCompletesInOneWriteRoundTrip) {
  build(1, ReplicationMode::kLogRelaxed);
  Time done_at = 0;
  primary->replicate(make_put("k", "v"), [&] { done_at = sched.now(); });
  sched.run();
  ASSERT_GT(done_at, 0u);
  // One write round trip: well under 10us; and no secondary CPU needed
  // before completion.
  EXPECT_LT(done_at, 10 * kMicrosecond);
}

TEST_F(ReplicationTest, StrictWaitsForSecondaryAck) {
  build(1, ReplicationMode::kStrictAck);
  Time done_at = 0;
  primary->replicate(make_put("k", "v"), [&] { done_at = sched.now(); });
  sched.run();
  ASSERT_GT(done_at, 0u);

  // Compare with relaxed on a fresh rig: strict must be substantially slower
  // (write + apply + ack write back).
  Rig relaxed_rig;
  relaxed_rig.build(1, ReplicationMode::kLogRelaxed);
  Time relaxed_done = 0;
  relaxed_rig.primary->replicate(relaxed_rig.make_put("k", "v"),
                                 [&] { relaxed_done = relaxed_rig.sched.now(); });
  relaxed_rig.sched.run();
  ASSERT_GT(relaxed_done, 0u);
  // Strict adds the secondary's detection + apply + ack round on top of the
  // log write that relaxed already pays.
  EXPECT_GT(done_at, relaxed_done + 500);
}

TEST_F(ReplicationTest, AckIntervalControlsAckTraffic) {
  build(1, ReplicationMode::kLogRelaxed, /*ack_interval=*/10);
  for (int i = 0; i < 100; ++i) {
    primary->replicate(make_put(format_key(static_cast<std::uint64_t>(i)), "v"), nullptr);
  }
  sched.run();
  EXPECT_GE(primary->acks_received(), 9u);
  EXPECT_LE(primary->acks_received(), 12u);
}

TEST_F(ReplicationTest, TwoSecondariesBothConverge) {
  build(2, ReplicationMode::kLogRelaxed);
  for (int i = 0; i < 50; ++i) {
    primary->replicate(make_put(format_key(static_cast<std::uint64_t>(i)), synth_value(1)), nullptr);
  }
  sched.run();
  for (auto& sec : secs) {
    EXPECT_EQ(sec->store().size(), 50u);
    EXPECT_EQ(sec->applied_seq(), 50u);
  }
}

TEST_F(ReplicationTest, RelaxedCallbackWaitsForAllSecondaries) {
  build(3, ReplicationMode::kLogRelaxed);
  int fired = 0;
  primary->replicate(make_put("k", "v"), [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST_F(ReplicationTest, FailedRecordTriggersRollbackResendAndConverges) {
  build(1, ReplicationMode::kLogRelaxed, /*ack_interval=*/8);
  secs[0]->fail_next(1);  // first record fails to apply
  for (int i = 0; i < 40; ++i) {
    primary->replicate(make_put(format_key(static_cast<std::uint64_t>(i)), synth_value(static_cast<std::uint64_t>(i))), nullptr);
  }
  sched.run();
  EXPECT_GT(primary->resends(), 0u);
  EXPECT_GT(secs[0]->discarded_records(), 0u);
  // Despite the failure, the replica converges to the full dataset.
  EXPECT_EQ(secs[0]->store().size(), 40u);
  EXPECT_EQ(secs[0]->applied_seq(), 40u);
  for (int i = 0; i < 40; ++i) {
    auto r = secs[0]->store().get(format_key(static_cast<std::uint64_t>(i)), sched.now(), false);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.value().value, synth_value(static_cast<std::uint64_t>(i)));
  }
}

TEST_F(ReplicationTest, MidStreamFailureConverges) {
  build(1, ReplicationMode::kStrictAck);
  bool armed = false;
  for (int i = 0; i < 60; ++i) {
    if (i == 30 && !armed) {
      secs[0]->fail_next(2);
      armed = true;
    }
    primary->replicate(make_put(format_key(static_cast<std::uint64_t>(i)), synth_value(static_cast<std::uint64_t>(i) + 1)), nullptr);
  }
  sched.run();
  EXPECT_EQ(secs[0]->store().size(), 60u);
  EXPECT_EQ(secs[0]->applied_seq(), 60u);
}

TEST_F(ReplicationTest, SmallRingWrapsAndStillConverges) {
  // Ring fits only a handful of frames: exercises wrap markers and ring
  // pressure backlogging.
  build(1, ReplicationMode::kLogRelaxed, /*ack_interval=*/4, /*ring_bytes=*/2048);
  constexpr int kRecords = 300;
  for (int i = 0; i < kRecords; ++i) {
    primary->replicate(make_put(format_key(static_cast<std::uint64_t>(i)), synth_value(static_cast<std::uint64_t>(i), 48)), nullptr);
  }
  sched.run();
  EXPECT_EQ(secs[0]->applied_seq(), static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(secs[0]->store().size(), static_cast<std::size_t>(kRecords));
}

TEST_F(ReplicationTest, NoSecondariesCompletesImmediately) {
  build(0, ReplicationMode::kLogRelaxed);
  bool fired = false;
  primary->replicate(make_put("k", "v"), [&] { fired = true; });
  EXPECT_TRUE(fired);  // synchronous: nothing to wait for
}

TEST_F(ReplicationTest, UpdatesOverwriteOnReplica) {
  build(1, ReplicationMode::kLogRelaxed);
  primary->replicate(make_put("k", "v1"), nullptr);
  primary->replicate(make_put("k", "v2"), nullptr);
  sched.run();
  auto r = secs[0]->store().get("k", sched.now(), false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().value, "v2");
  EXPECT_EQ(r.value().version, 2u);
}

TEST_F(ReplicationTest, ResetStreamSupportsNewPrimary) {
  build(1, ReplicationMode::kLogRelaxed);
  primary->replicate(make_put("old", "x"), nullptr);
  sched.run();
  ASSERT_EQ(secs[0]->applied_seq(), 1u);

  // A new primary (fresh engine, seq restarts at 1) adopts this secondary.
  auto owner2 = std::make_unique<sim::Actor>(sched, "new-primary");
  PrimaryConfig cfg;
  cfg.mode = ReplicationMode::kLogRelaxed;
  ReplicationPrimary fresh(*owner2, fabric, primary_node, cfg);
  fresh.add_secondary(*secs[0]);
  EXPECT_EQ(secs[0]->applied_seq(), 0u);  // stream reset

  proto::RepRecord rec;
  rec.op = proto::MsgType::kPut;
  rec.key = "new";
  rec.value = "y";
  fresh.replicate(std::move(rec), nullptr);
  sched.run();
  EXPECT_EQ(secs[0]->applied_seq(), 1u);
  // Old data survives (the store is the same replica), new data arrives.
  EXPECT_TRUE(secs[0]->store().get("old", sched.now(), false).ok());
  EXPECT_TRUE(secs[0]->store().get("new", sched.now(), false).ok());
}

// ------------------------------------------------------------ doorbell runs

/// Holds `held` records, then ends the run with one more; counts callbacks.
void replicate_run(Rig& rig, int held, int* fired) {
  for (int i = 0; i <= held; ++i) {
    rig.primary->replicate(rig.make_put(format_key(static_cast<std::uint64_t>(i)),
                                        synth_value(static_cast<std::uint64_t>(i))),
                           [fired] { ++*fired; },
                           /*hold=*/i < held);
  }
}

TEST_F(ReplicationTest, RunOfQueuedWritesRingsOneDoorbellPerSecondary) {
  build(2, ReplicationMode::kLogRelaxed);
  constexpr int kRun = static_cast<int>(ReplicationPrimary::kMaxRunRecords);
  int fired = 0;
  for (int i = 0; i < kRun - 1; ++i) {
    ASSERT_TRUE(primary->can_hold()) << i;
    primary->replicate(make_put(format_key(static_cast<std::uint64_t>(i)), "v"),
                       [&] { ++fired; }, /*hold=*/true);
  }
  // Held records are placed but not posted.
  EXPECT_EQ(ring_posts().rung + ring_posts().batched, 0);
  EXPECT_EQ(primary->doorbells(), 0u);
  primary->replicate(make_put("last", "v"), [&] { ++fired; });
  // Well inside the 1 ms ack deadline, so no ack probe adds a doorbell.
  sched.run_for(100 * kMicrosecond);
  EXPECT_EQ(fired, kRun);
  // Each of the two secondaries: one ring write carrying all K frames, on
  // one doorbell.
  EXPECT_EQ(ring_posts().rung, 2);
  EXPECT_EQ(ring_posts().batched, 0);
  EXPECT_EQ(ring_posts().frames,
            (std::vector<std::uint32_t>{static_cast<std::uint32_t>(kRun),
                                        static_cast<std::uint32_t>(kRun)}));
  EXPECT_EQ(primary->doorbells(), 2u);
  EXPECT_EQ(primary->ring_writes(), 2u);
  for (const auto& sec : secs) {
    EXPECT_EQ(sec->applied_seq(), static_cast<std::uint64_t>(kRun));
    EXPECT_EQ(sec->store().size(), static_cast<std::size_t>(kRun));
  }
}

TEST_F(ReplicationTest, StrictModeNeverHolds) {
  // A strict-mode record waits for its own ack, so holding its WQE would
  // only delay it: a held record posts on its own doorbell.
  build(1, ReplicationMode::kStrictAck);
  EXPECT_FALSE(primary->can_hold());
  int fired = 0;
  replicate_run(*this, 2, &fired);
  sched.run_for(100 * kMicrosecond);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(ring_posts().rung, 3);
  EXPECT_EQ(ring_posts().batched, 0);
}

TEST_F(ReplicationTest, RunNeverExceedsAckInterval) {
  build(1, ReplicationMode::kLogRelaxed, /*ack_interval=*/3);
  int fired = 0;
  ASSERT_TRUE(primary->can_hold());
  primary->replicate(make_put("a", "v"), [&] { ++fired; }, /*hold=*/true);
  ASSERT_TRUE(primary->can_hold());
  primary->replicate(make_put("b", "v"), [&] { ++fired; }, /*hold=*/true);
  // A third record must end the run: runs hold at most ack_interval records.
  EXPECT_FALSE(primary->can_hold());
  primary->replicate(make_put("c", "v"), [&] { ++fired; });
  EXPECT_TRUE(primary->can_hold());
  sched.run_for(100 * kMicrosecond);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(ring_posts().rung, 1);
  EXPECT_EQ(ring_posts().batched, 0);
  EXPECT_EQ(ring_posts().frames, std::vector<std::uint32_t>{3});

  // With the default ack_interval the run stops at kMaxRunRecords.
  Rig wide;
  wide.build(1, ReplicationMode::kLogRelaxed);
  for (std::uint32_t i = 0; i + 1 < ReplicationPrimary::kMaxRunRecords; ++i) {
    ASSERT_TRUE(wide.primary->can_hold());
    wide.primary->replicate(wide.make_put(format_key(i), "v"), nullptr, /*hold=*/true);
  }
  EXPECT_FALSE(wide.primary->can_hold());
}

TEST_F(ReplicationTest, AckProbeRingsTheHeldRunFirst) {
  // With nothing else posted, the ack deadline's probe (a control frame)
  // is what carries the held records out, and they go ahead of it.
  build(1, ReplicationMode::kLogRelaxed);
  int fired = 0;
  primary->replicate(make_put("a", "1"), [&] { ++fired; }, /*hold=*/true);
  primary->replicate(make_put("b", "2"), [&] { ++fired; }, /*hold=*/true);
  sched.run_for(3 * kMillisecond);
  EXPECT_EQ(fired, 2);
  EXPECT_GE(primary->ack_probes(), 1u);
  EXPECT_EQ(secs[0]->applied_seq(), 2u);
  // The held pair as one write, then the probe in a write of its own.
  EXPECT_EQ(ring_posts().rung, 2);
  EXPECT_EQ(ring_posts().batched, 0);
  EXPECT_EQ(ring_posts().frames, (std::vector<std::uint32_t>{2, 1}));
}

TEST_F(ReplicationTest, RetransmitRingsTheHeldRunFirst) {
  // Record A is dropped once; B is held behind it. A's retransmit is a post
  // of its own, so it rings B first, and both land in ring order.
  build(1, ReplicationMode::kLogRelaxed);
  int faults = 0;
  fabric.set_write_fault_hook([&](NodeId, NodeId, const fabric::RemoteAddr& addr, std::uint32_t) {
    fabric::WriteFault f;
    if (addr.rkey == secs[0]->ring_mr()->rkey() && faults++ == 0) {
      f.kind = fabric::WriteFault::Kind::kDrop;
    }
    return f;
  });
  int fired = 0;
  primary->replicate(make_put("a", "1"), [&] { ++fired; });
  primary->replicate(make_put("b", "2"), [&] { ++fired; }, /*hold=*/true);
  // The drop surfaces after the 500 us retransmission timeout; stop short
  // of the ack deadline's probe.
  sched.run_for(900 * kMicrosecond);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(primary->write_retries(), 1u);
  EXPECT_EQ(secs[0]->applied_seq(), 2u);
  // A (rung), then B rung by the retransmit, then A's retransmit.
  EXPECT_EQ(ring_posts().rung, 3);
  EXPECT_EQ(ring_posts().batched, 0);
}

// ------------------------------------------------- doorbell runs under faults

TEST_F(ReplicationTest, TornOrDroppedBatchedWqeRetransmitsInPlace) {
  for (const auto kind : {fabric::WriteFault::Kind::kTorn, fabric::WriteFault::Kind::kDrop}) {
    Rig rig;
    rig.build(1, ReplicationMode::kLogRelaxed);
    // Fault the first delivery of the run's one ring write, mid-run.
    int ring_writes = 0;
    std::uint64_t faulted_at = ~std::uint64_t{0};
    rig.fabric.set_write_fault_hook(
        [&](NodeId, NodeId, const fabric::RemoteAddr& addr, std::uint32_t size) {
          fabric::WriteFault f;
          if (addr.rkey != rig.secs[0]->ring_mr()->rkey() || ++ring_writes != 1) return f;
          faulted_at = addr.offset;
          f.kind = kind;
          f.torn_bytes = size / 2;
          return f;
        });
    int fired = 0;
    replicate_run(rig, 2, &fired);
    rig.sched.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(rig.primary->write_retries(), 1u);
    EXPECT_EQ(rig.primary->quarantined(), 0u);
    // The retransmit rewrote the whole run's span at the same ring offset.
    const auto retx = rig.plane.query().first(obs::TraceKind::kRetransmit);
    ASSERT_TRUE(retx.has_value());
    EXPECT_EQ(retx->a, faulted_at);
    const auto posts = rig.ring_posts();
    ASSERT_GE(posts.frames.size(), 2u);
    EXPECT_EQ(posts.frames[0], 3u);
    EXPECT_EQ(posts.frames[1], 3u);
    EXPECT_EQ(rig.secs[0]->applied_seq(), 3u);
    EXPECT_EQ(rig.secs[0]->discarded_records(), 0u);
    for (int i = 0; i < 3; ++i) {
      const auto k = static_cast<std::uint64_t>(i);
      auto r = rig.secs[0]->store().get(format_key(k), rig.sched.now(), false);
      ASSERT_TRUE(r.ok()) << i;
      EXPECT_EQ(r.value().value, synth_value(k));
    }
  }
}

TEST_F(ReplicationTest, QuarantineSettlesHeldRecords) {
  build(2, ReplicationMode::kLogRelaxed);
  int fired = 0;
  primary->replicate(make_put("a", "1"), [&] { ++fired; }, /*hold=*/true);
  primary->replicate(make_put("b", "2"), [&] { ++fired; }, /*hold=*/true);
  // One replica dies with the run held: its link settles what it owes, and
  // the survivor's post completes each record.
  secs[1]->kill();
  primary->remove_secondary(*secs[1]);
  primary->replicate(make_put("c", "3"), [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(secs[0]->applied_seq(), 3u);

  // Both replicas gone while records are held: nothing will ever ring the
  // run, so the quarantine sweep itself must settle each waiter.
  Rig rig;
  rig.build(1, ReplicationMode::kLogRelaxed);
  int settled = 0;
  rig.primary->replicate(rig.make_put("a", "1"), [&] { ++settled; }, /*hold=*/true);
  rig.primary->replicate(rig.make_put("b", "2"), [&] { ++settled; }, /*hold=*/true);
  rig.primary->remove_secondary(*rig.secs[0]);
  EXPECT_EQ(settled, 2);
  rig.sched.run();
  EXPECT_EQ(settled, 2);
  EXPECT_EQ(rig.ring_posts().rung + rig.ring_posts().batched, 0);
}

TEST_F(ReplicationTest, RkeyFenceSettlesHeldRecordsThroughTheFenceHandler) {
  build(1, ReplicationMode::kLogRelaxed);
  int fenced = 0;
  primary->set_fence_handler([&] { ++fenced; });
  int fired = 0;
  primary->replicate(make_put("a", "1"), [&] { ++fired; }, /*hold=*/true);
  primary->replicate(make_put("b", "2"), [&] { ++fired; }, /*hold=*/true);
  // The replica revokes our ring rkey (the failover plane fencing us); the
  // held run is then rung and every WQE of it fails kProtectionError.
  secs[0]->ring_mr()->revoke();
  primary->replicate(make_put("c", "3"), [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fenced, 1);
  EXPECT_EQ(primary->fence_errors(), 1u);
  EXPECT_EQ(primary->quarantined(), 1u);
  EXPECT_EQ(fired, 3);  // no fence handler killed the owner: all settle
  EXPECT_EQ(secs[0]->applied_seq(), 0u);
}

TEST_F(ReplicationTest, PrimaryCrashDropsHeldRecordsWithoutWedging) {
  build(2, ReplicationMode::kLogRelaxed);
  int fired = 0;
  primary->replicate(make_put("a", "1"), [&] { ++fired; });
  sched.run();
  ASSERT_EQ(fired, 1);
  primary->replicate(make_put("b", "2"), [&] { ++fired; }, /*hold=*/true);
  primary->replicate(make_put("c", "3"), [&] { ++fired; }, /*hold=*/true);
  // The owning shard crashes with the run held: the records never left, so
  // no write they carry was acknowledged, and nothing fires or hangs.
  owner->kill();
  sched.run();
  EXPECT_EQ(fired, 1);
  for (const auto& sec : secs) EXPECT_EQ(sec->applied_seq(), 1u);
}

// ------------------------------- retransmits over frames already consumed

/// A coalesced run write torn after some of its frames landed: the secondary
/// takes and zeroes those frames, then the retransmit rewrites the whole span
/// behind its cursor. Records are equal-size, so every lap lays its frames at
/// the same offsets and the stale copies sit exactly where next-lap frames
/// go. The secondary must apply every seq once, in order, and stay aligned.
struct LapCase {
  std::uint32_t run = 1;         ///< records per doorbell run
  std::uint32_t torn_bytes = 0;  ///< bytes of the torn run write that land
  /// Burst of kLapFrames + the torn run's frame index, then a pause: the
  /// secondary meets the stale copies before any next-lap frame lands there.
  bool pause = false;
  /// Also tear the next lap's first write over the stale copies, mid-frame.
  bool tear_next_lap = false;
};

constexpr std::uint32_t kLapFrames = 8;

::testing::AssertionResult run_lap_case(const LapCase& c) {
  Rig rig;
  const std::uint64_t framed =
      proto::frame_size(proto::encode_rep_record(rig.make_put(format_key(0), synth_value(0))).size());
  rig.build(1, ReplicationMode::kLogRelaxed, /*ack_interval=*/4,
            static_cast<std::uint32_t>(kLapFrames * framed + kWrapMarkerBytes));
  // The run starting at or before frame 4: its frames are placed with the
  // ring at least half full, so each asks for an ack and the frames taken
  // before the tear are acked while its retransmit is pending.
  const std::uint64_t torn_at = (4 / c.run) * c.run * framed;
  int covering = 0;
  rig.fabric.set_write_fault_hook(
      [&](NodeId, NodeId, const fabric::RemoteAddr& addr, std::uint32_t size) {
        fabric::WriteFault f;
        if (addr.rkey != rig.secs[0]->ring_mr()->rkey() || addr.offset > torn_at ||
            torn_at >= addr.offset + size) {
          return f;
        }
        // Writes covering torn_at: the run's first delivery, its retransmit,
        // then the next lap's write.
        ++covering;
        if (covering == 1) {
          f.kind = fabric::WriteFault::Kind::kTorn;
          f.torn_bytes = c.torn_bytes;
        } else if (covering == 3 && c.tear_next_lap) {
          f.kind = fabric::WriteFault::Kind::kTorn;
          f.torn_bytes = static_cast<std::uint32_t>(torn_at - addr.offset + framed / 2);
        }
        return f;
      });
  std::uint32_t issued = 0;
  auto burst = [&](std::uint32_t records) {
    for (std::uint32_t i = 0; i < records; ++i, ++issued) {
      const bool last_of_run = (issued + 1) % c.run == 0 || i + 1 == records;
      rig.primary->replicate(rig.make_put(format_key(issued), synth_value(issued)), nullptr,
                             /*hold=*/!last_of_run);
    }
  };
  burst(c.pause ? kLapFrames + static_cast<std::uint32_t>(torn_at / framed) : 2 * kLapFrames);
  rig.sched.run_for(3 * kMillisecond);
  burst(kLapFrames);  // the following lap
  rig.sched.run_for(20 * kMillisecond);

  const SecondaryShard& sec = *rig.secs[0];
  if (sec.applied_seq() != issued || sec.applied_records() != issued ||
      sec.discarded_records() != 0 || rig.primary->resends() != 0 ||
      rig.primary->quarantined() != 0) {
    return ::testing::AssertionFailure()
           << "applied_seq " << sec.applied_seq() << " applied " << sec.applied_records()
           << " discarded " << sec.discarded_records() << " of " << issued << " (resends "
           << rig.primary->resends() << ", quarantined " << rig.primary->quarantined() << ")";
  }
  for (std::uint32_t i = 0; i < issued; ++i) {
    auto r = rig.secs[0]->store().get(format_key(i), rig.sched.now(), false);
    if (!r.ok() || r.value().value != synth_value(i)) {
      return ::testing::AssertionFailure() << "key " << i << " missing or stale";
    }
  }
  if (rig.primary->write_retries() < (c.tear_next_lap ? 2u : 1u)) {
    return ::testing::AssertionFailure() << "the fault missed the run write";
  }
  return ::testing::AssertionSuccess();
}

TEST(LapTaggedRing, RetransmitOverConsumedFramesAppliesEachSeqOnce) {
  Rig probe;
  const auto framed = static_cast<std::uint32_t>(
      proto::frame_size(proto::encode_rep_record(probe.make_put(format_key(0), synth_value(0))).size()));
  for (std::uint32_t run = 1; run <= ReplicationPrimary::kMaxRunRecords; ++run) {
    // Every frame boundary of the run write, +-1.
    std::vector<std::uint32_t> tears;
    for (std::uint32_t b = 0; b <= run; ++b) {
      for (const std::uint32_t t : {b * framed - 1, b * framed, b * framed + 1}) {
        if (t <= run * framed) tears.push_back(t);  // b = 0 wraps b - 1 away
      }
    }
    for (const std::uint32_t t : tears) {
      for (const bool pause : {false, true}) {
        for (const bool tear_next_lap : {false, true}) {
          if (pause && tear_next_lap) continue;
          EXPECT_TRUE(run_lap_case({run, t, pause, tear_next_lap}))
              << "run " << run << " torn_bytes " << t << " pause " << pause
              << " tear_next_lap " << tear_next_lap;
        }
      }
    }
  }
}

// A consumed wrap marker zeroes the slack behind it. Lap 0's run at frame 6
// is torn after both its frames landed, so the retransmit leaves stale
// copies of frames 6 and 7. Lap 1's records are three frames long: its wrap
// marker falls on frame 6 and frame 7's copy sits in the slack. Lap 2 puts a
// frame boundary at frame 7 again, and with lap 0's parity, so the
// secondary would take the copy there before the primary wrote that frame.
TEST(LapTaggedRing, WrapMarkerZeroesTheSlackBehindIt) {
  Rig rig;
  const std::string big = synth_value(0, 231);
  const std::uint64_t framed =
      proto::frame_size(proto::encode_rep_record(rig.make_put(format_key(0), synth_value(0))).size());
  ASSERT_EQ(proto::frame_size(proto::encode_rep_record(rig.make_put(format_key(0), big)).size()),
            3 * framed);
  rig.build(1, ReplicationMode::kLogRelaxed, /*ack_interval=*/4,
            static_cast<std::uint32_t>(kLapFrames * framed + kWrapMarkerBytes));
  const std::uint64_t torn_at = 6 * framed;
  bool torn = false;
  rig.fabric.set_write_fault_hook(
      [&](NodeId, NodeId, const fabric::RemoteAddr& addr, std::uint32_t size) {
        fabric::WriteFault f;
        if (!torn && addr.rkey == rig.secs[0]->ring_mr()->rkey() && addr.offset == torn_at) {
          torn = true;
          f.kind = fabric::WriteFault::Kind::kTorn;
          f.torn_bytes = size;  // every byte lands, yet the write reports failure
        }
        return f;
      });
  std::vector<std::string> values;
  auto put = [&](const std::string& value, bool hold) {
    rig.primary->replicate(rig.make_put(format_key(values.size()), value), nullptr, hold);
    values.push_back(value);
  };
  for (std::uint64_t i = 0; i < kLapFrames; ++i) put(synth_value(i), i % 2 == 0);  // runs of 2
  rig.sched.run_for(3 * kMillisecond);
  for (int i = 0; i < 3; ++i) put(big, false);  // lap 1: two big frames, wrap, lap 2 opens big
  for (std::uint64_t i = 0; i < 4; ++i) put(synth_value(i), false);  // frames 3..6 of lap 2
  rig.sched.run_for(3 * kMillisecond);
  put(synth_value(7), false);  // frame 7 of lap 2
  rig.sched.run_for(3 * kMillisecond);

  ASSERT_TRUE(torn);
  const SecondaryShard& sec = *rig.secs[0];
  EXPECT_EQ(sec.applied_seq(), values.size());
  EXPECT_EQ(sec.applied_records(), values.size());
  EXPECT_EQ(sec.discarded_records(), 0u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    auto r = rig.secs[0]->store().get(format_key(i), rig.sched.now(), false);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.value().value, values[i]) << i;
  }
}

// --------------------------------------- doorbell runs through the shard loop

/// One shard with two relaxed replicas; `writers` clients on one machine.
db::ClusterOptions run_cluster_options(int writers, obs::Plane* plane) {
  db::ClusterOptions o;
  o.server_nodes = 3;
  o.shards_per_node = 1;
  o.total_shards = 1;
  o.client_nodes = 1;
  o.clients_per_node = writers;
  o.replicas = 2;
  o.enable_swat = false;
  o.obs = plane;
  o.shard_template.store.arena_bytes = 8 << 20;
  o.shard_template.store.min_buckets = 1 << 10;
  return o;
}

/// Issues one update per client at the same instant and runs 100 us (short
/// of the 1 ms replication ack deadline); returns each latency, 0 if none.
std::vector<Duration> concurrent_updates(db::HydraCluster& cluster,
                                         const std::vector<std::string>& keys) {
  std::vector<Duration> lat(keys.size(), 0);
  const Time start = cluster.scheduler().now();
  for (std::size_t c = 0; c < keys.size(); ++c) {
    cluster.clients()[c]->update(keys[c], "fresh", [&, c, start](Status) {
      lat[c] = cluster.scheduler().now() - start;
    });
  }
  cluster.run_for(100 * kMicrosecond);
  return lat;
}

TEST(DoorbellRuns, QueuedWritesShareOneDoorbellPerSecondary) {
  db::HydraCluster cluster(run_cluster_options(4, nullptr));
  std::vector<std::string> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(format_key(static_cast<std::uint64_t>(i)));
    ASSERT_EQ(cluster.put(keys.back(), "v"), Status::kOk);
  }
  const auto* rep = cluster.shard(0)->replicator();
  const std::uint64_t before = rep->doorbells();
  const std::uint64_t writes_before = rep->ring_writes();
  // The first update finds the shard idle and its peers still on the wire,
  // so it posts alone. The other three queue up behind it: each looks one
  // request ahead, finds another write, and holds; the third rings the run,
  // one ring write per secondary.
  const auto lat = concurrent_updates(cluster, keys);
  for (const Duration d : lat) EXPECT_GT(d, 0u);
  EXPECT_EQ(rep->doorbells() - before, 2u * 2u);
  EXPECT_EQ(rep->ring_writes() - writes_before, 2u * 2u);
  EXPECT_EQ(cluster.shard(0)->stats().puts, 8u);
}

// A held record rides its run's one write per link, so its shard CPU is its
// staging copy, charged once whatever the replica count; only the records
// that post pay record_post_cost per replica. Four writes at once: the
// first posts alone, then a run of three (two held, one that posts).
TEST(DoorbellRuns, HeldRecordsCostOnlyTheirStagingCopy) {
  std::vector<Duration> busy;
  std::vector<std::uint64_t> ring_writes;
  for (const int replicas : {1, 2}) {
    db::ClusterOptions o = run_cluster_options(4, nullptr);
    o.replicas = replicas;
    db::HydraCluster cluster(o);
    std::vector<std::string> keys;
    for (int i = 0; i < 4; ++i) {
      keys.push_back(format_key(static_cast<std::uint64_t>(i)));
      ASSERT_EQ(cluster.put(keys.back(), "v"), Status::kOk);
    }
    const Duration busy_before = cluster.shard(0)->stats().busy_time;
    const std::uint64_t writes_before = cluster.shard(0)->replicator()->ring_writes();
    for (const Duration d : concurrent_updates(cluster, keys)) ASSERT_GT(d, 0u);
    busy.push_back(cluster.shard(0)->stats().busy_time - busy_before);
    ring_writes.push_back(cluster.shard(0)->replicator()->ring_writes() - writes_before);
  }
  EXPECT_EQ(ring_writes, (std::vector<std::uint64_t>{2, 4}));
  // The second replica adds one WQE to each of the two records that post
  // (a held record charged per replica would add to the two held ones too).
  const Duration wqe = replication::PrimaryConfig{}.record_post_cost;
  EXPECT_EQ(busy[1] - busy[0], 2 * wqe);
}

TEST(DoorbellRuns, WriteWithoutARecordRingsTheHeldRun) {
  // "present" holds its record for the write queued behind it, which fails
  // (its key does not exist) and so never hands the replicator a record:
  // it must ring the held run as it starts, or "present" would wait for
  // the replication ack deadline (1 ms) to carry its record out.
  db::HydraCluster cluster(run_cluster_options(3, nullptr));
  ASSERT_EQ(cluster.put("first", "v"), Status::kOk);
  ASSERT_EQ(cluster.put("present", "v"), Status::kOk);
  const auto* rep = cluster.shard(0)->replicator();
  const std::uint64_t before = rep->doorbells();
  const auto lat = concurrent_updates(cluster, {"first", "present", "missing"});
  ASSERT_GT(lat[1], 0u);
  EXPECT_LT(lat[1], 20 * kMicrosecond);
  EXPECT_GT(lat[2], 0u);
  // "first" alone, then "present" rung by the failed write: two per replica.
  EXPECT_EQ(rep->doorbells() - before, 2u * 2u);
}

}  // namespace
}  // namespace hydra::replication
