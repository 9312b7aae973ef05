// Transaction-layer invariant suite (DESIGN.md §11): TxnHeader codec
// round-trips, direct 2PL unit tests against a live cluster, the scripted +
// seeded-random txn-kill-mid-commit chaos sweeps, abort-order properties
// for both lock modes, and the golden-determinism gate keeping txn-off
// clusters byte-identical to the seed.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "proto/messages.hpp"
#include "txn/txn.hpp"
#include "chaos/harness.hpp"

namespace hydra {
namespace {

using chaos::Family;
using chaos::Report;
using chaos::Schedule;
using chaos::describe;
using txn::TxnClient;
using txn::TxnOptions;

Report run_scripted(const char* name, std::uint64_t seed, obs::Plane* plane = nullptr) {
  return chaos::run(chaos::scripted_by_name(Family::kTxn, name), seed, plane);
}

// ------------------------------------------------------------- wire codec

TEST(TxnCodec, RoundTripsHeaderAndOps) {
  proto::TxnCommit group;
  group.hdr.txn_id = 0x0123456789ABCDEFULL;
  group.hdr.mode = proto::TxnMode::kWaitDie;
  group.hdr.epoch = 42;
  group.ops.push_back({proto::MsgType::kPut, "alpha", "value-1"});
  group.ops.push_back({proto::MsgType::kRemove, "beta", ""});
  group.ops.push_back({proto::MsgType::kPut, "", "empty-key-payload"});
  group.hdr.op_count = static_cast<std::uint32_t>(group.ops.size());

  const auto bytes = proto::encode_txn_commit(group);
  const auto back = proto::decode_txn_commit(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->hdr.txn_id, group.hdr.txn_id);
  EXPECT_EQ(back->hdr.mode, proto::TxnMode::kWaitDie);
  EXPECT_EQ(back->hdr.epoch, 42u);
  ASSERT_EQ(back->ops.size(), 3u);
  EXPECT_EQ(back->ops[0].op, proto::MsgType::kPut);
  EXPECT_EQ(back->ops[0].key, "alpha");
  EXPECT_EQ(back->ops[0].value, "value-1");
  EXPECT_EQ(back->ops[1].op, proto::MsgType::kRemove);
  EXPECT_EQ(back->ops[1].key, "beta");
  EXPECT_EQ(back->ops[2].key, "");
  EXPECT_EQ(back->ops[2].value, "empty-key-payload");
}

TEST(TxnCodec, RoundTripsEmptyGroup) {
  proto::TxnCommit group;
  group.hdr.txn_id = 7;
  const auto back = proto::decode_txn_commit(proto::encode_txn_commit(group));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->hdr.txn_id, 7u);
  EXPECT_TRUE(back->ops.empty());
}

// A torn frame may truncate the payload at any byte; every strict prefix
// must be rejected without crashing, and so must trailing garbage (the
// decoder demands exact consumption).
TEST(TxnCodec, RejectsTruncationAndTrailingGarbage) {
  proto::TxnCommit group;
  group.hdr.txn_id = 99;
  group.ops.push_back({proto::MsgType::kPut, "k", "v"});
  group.hdr.op_count = 1;
  const auto bytes = proto::encode_txn_commit(group);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(proto::decode_txn_commit({bytes.data(), len}).has_value())
        << "prefix length " << len;
  }
  auto padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(proto::decode_txn_commit(padded).has_value());
}

// An op_count no frame of this size could carry must be rejected before it
// sizes an allocation.
TEST(TxnCodec, RejectsImpossibleOpCount) {
  proto::TxnCommit group;
  group.hdr.txn_id = 1;
  auto bytes = proto::encode_txn_commit(group);
  // op_count lives in bytes [17, 21); overwrite with a huge value.
  bytes[17] = std::byte{0xFF};
  bytes[18] = std::byte{0xFF};
  bytes[19] = std::byte{0xFF};
  bytes[20] = std::byte{0x7F};
  EXPECT_FALSE(proto::decode_txn_commit(bytes).has_value());
}

// --------------------------------------------- direct TxnClient unit tests

struct TxnHarness {
  db::HydraCluster cluster;
  TxnClient client;

  explicit TxnHarness(TxnOptions opts = {}, std::uint32_t lock_words = 64,
                      int shards = 2,
                      server::ServerMode mode = server::ServerMode::kRdmaWritePolling)
      : cluster(make_opts(lock_words, shards, mode)),
        client(cluster.scheduler(), *cluster.clients()[0], opts,
               TxnClient::make_id_source()) {
    client.set_resolver([this](std::uint64_t h) { return cluster.ring().owner(h); });
    client.set_epoch_source([this] { return cluster.routing_epoch(); });
  }

  static db::ClusterOptions make_opts(
      std::uint32_t lock_words, int shards,
      server::ServerMode mode = server::ServerMode::kRdmaWritePolling) {
    db::ClusterOptions opts;
    opts.server_mode = mode;
    opts.server_nodes = shards;
    opts.shards_per_node = 1;
    opts.total_shards = shards;
    opts.client_nodes = 1;
    opts.clients_per_node = 1;
    opts.replicas = 1;
    opts.shard_template.txn_lock_words = lock_words;
    return opts;
  }

  /// Runs one transaction to completion and returns (status, reads).
  std::pair<Status, std::vector<std::string>> run(std::vector<proto::TxnOp> ops) {
    std::optional<Status> status;
    std::vector<std::string> reads;
    client.run(std::move(ops), [&](Status s, std::vector<std::string> r) {
      status = s;
      reads = std::move(r);
    });
    cluster.run_for(10 * kSecond);
    EXPECT_TRUE(status.has_value()) << "transaction wedged";
    return {status.value_or(Status::kTimeout), std::move(reads)};
  }

  /// Post-txn invariant: no lock word left held on any shard.
  void expect_no_held_locks() {
    for (ShardId id = 0; id < static_cast<ShardId>(cluster.shard_count()); ++id) {
      server::Shard* sh = cluster.shard(id);
      if (sh == nullptr) continue;
      for (std::uint32_t w = 0; w < sh->lock_word_count(); ++w) {
        EXPECT_EQ(sh->lock_word(w), 0u) << "shard " << id << " word " << w;
      }
    }
  }
};

TEST(TxnClientUnit, MultiKeyCommitIsFullyVisible) {
  TxnHarness h;
  auto [status, reads] = h.run({{proto::MsgType::kPut, "txn-a", "1"},
                                {proto::MsgType::kPut, "txn-b", "2"},
                                {proto::MsgType::kPut, "txn-c", "3"}});
  EXPECT_EQ(status, Status::kOk);
  EXPECT_TRUE(reads.empty());
  EXPECT_EQ(*h.cluster.get("txn-a"), "1");
  EXPECT_EQ(*h.cluster.get("txn-b"), "2");
  EXPECT_EQ(*h.cluster.get("txn-c"), "3");
  h.expect_no_held_locks();
  EXPECT_EQ(h.client.stats().committed, 1u);
  EXPECT_GT(h.client.stats().lock_cas, 0u);
}

// The Send/Recv baseline's channel carries the lock arena's coordinates like
// any other, so its lock CASes and commit group ride the same QP.
TEST(TxnClientUnit, SendRecvMultiKeyCommitIsFullyVisible) {
  TxnHarness h(TxnOptions{}, 64, 2, server::ServerMode::kSendRecv);
  auto [status, reads] = h.run({{proto::MsgType::kPut, "txn-a", "1"},
                                {proto::MsgType::kPut, "txn-b", "2"},
                                {proto::MsgType::kRemove, "txn-c", ""}});
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(*h.cluster.get("txn-a"), "1");
  EXPECT_EQ(*h.cluster.get("txn-b"), "2");
  EXPECT_FALSE(h.cluster.get("txn-c").has_value());
  h.expect_no_held_locks();
  EXPECT_EQ(h.client.stats().committed, 1u);
  EXPECT_GT(h.client.stats().lock_cas, 0u);
  EXPECT_GT(h.cluster.fabric().stats().sends, 0u);
}

TEST(TxnClientUnit, ReadSetAlignsWithGetOpsAndRemoveApplies) {
  TxnHarness h;
  ASSERT_EQ(h.cluster.put("seen", "old"), Status::kOk);
  ASSERT_EQ(h.cluster.put("gone", "bye"), Status::kOk);
  auto [status, reads] = h.run({{proto::MsgType::kGet, "seen", ""},
                                {proto::MsgType::kPut, "fresh", "new"},
                                {proto::MsgType::kGet, "missing", ""},
                                {proto::MsgType::kRemove, "gone", ""}});
  EXPECT_EQ(status, Status::kOk);
  ASSERT_EQ(reads.size(), 2u);  // one slot per kGet, in op order
  EXPECT_EQ(reads[0], "old");
  EXPECT_EQ(reads[1], "");  // missing key reads back empty
  EXPECT_EQ(*h.cluster.get("fresh"), "new");
  EXPECT_FALSE(h.cluster.get("gone").has_value());
  h.expect_no_held_locks();
}

TEST(TxnClientUnit, ReadOnlyTransactionCommitsWithoutWrites) {
  TxnHarness h;
  ASSERT_EQ(h.cluster.put("r", "x"), Status::kOk);
  auto [status, reads] = h.run({{proto::MsgType::kGet, "r", ""}});
  EXPECT_EQ(status, Status::kOk);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0], "x");
  h.expect_no_held_locks();
}

TEST(TxnClientUnit, EmptyTransactionIsOk) {
  TxnHarness h;
  auto [status, reads] = h.run({});
  EXPECT_EQ(status, Status::kOk);
  EXPECT_TRUE(reads.empty());
}

// A cluster whose shards register no lock arena cannot host transactions:
// the failure must be terminal and typed, not an endless retry.
TEST(TxnClientUnit, DisabledArenaFailsTerminally) {
  TxnHarness h(TxnOptions{}, /*lock_words=*/0);
  auto [status, reads] = h.run({{proto::MsgType::kPut, "k", "v"}});
  EXPECT_EQ(status, Status::kInvalidArgument);
  EXPECT_FALSE(h.cluster.get("k").has_value());  // nothing leaked through
}

// The golden-determinism gate: with txn_lock_words at its default of 0 (the
// seed configuration), no lock arena is registered -- so the rkey sequence,
// and with it every history byte of a txn-off run, matches the pre-txn
// seed. A run with the arena on must not disturb the data plane either.
TEST(TxnClientUnit, TxnOffClustersRegisterNoArena) {
  db::ClusterOptions opts = TxnHarness::make_opts(/*lock_words=*/0, /*shards=*/2);
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);
  for (ShardId id = 0; id < static_cast<ShardId>(cluster.shard_count()); ++id) {
    EXPECT_EQ(cluster.shard(id)->lock_word_count(), 0u);
  }
  EXPECT_EQ(cluster.fabric().stats().rdma_atomics, 0u);
}

// Under kStrictAck every op of a commit group joins the shard's ack
// barrier, not just one record: when the commit ack reaches the client, the
// secondary's store already holds the whole group. A secondary applies a
// record slower than the primary applies an op, so with 16 ops it is still
// applying when a barrier that waited for one record would ack. The test
// takes the lock words itself and sends the commit, so the check runs on the
// ack's arrival rather than after the txn layer's unlock round.
TEST(TxnClientUnit, StrictAckCommitWaitsForEveryOpOnTheSecondary) {
  db::ClusterOptions opts = TxnHarness::make_opts(/*lock_words=*/64, /*shards=*/2);
  opts.replication.mode = replication::ReplicationMode::kStrictAck;
  db::HydraCluster cluster(opts);
  const ShardId owner = cluster.owner_of("strict-0");
  proto::TxnCommit group;
  group.hdr.txn_id = 7;
  group.hdr.epoch = cluster.routing_epoch();
  for (int i = 0; group.ops.size() < 16; ++i) {
    std::string key = "strict-" + std::to_string(i);
    if (cluster.owner_of(key) != owner) continue;
    group.ops.push_back({proto::MsgType::kPut, std::move(key), "v" + std::to_string(i)});
  }
  group.hdr.op_count = static_cast<std::uint32_t>(group.ops.size());

  client::Client& data = *cluster.clients()[0];
  const client::Client::TxnWire wire = data.txn_wire(owner);
  ASSERT_TRUE(wire.ok);
  const std::uint64_t held = txn::kLockHeldBit | group.hdr.txn_id;
  std::vector<std::uint32_t> words;
  for (const auto& op : group.ops) {
    words.push_back(static_cast<std::uint32_t>(hash_key(op.key) % wire.lock_words));
    wire.qp->post_cas({wire.lock_rkey, std::uint64_t{words.back()} * 8}, 0, held);
  }
  cluster.run_for(100 * kMicrosecond);
  for (const std::uint32_t w : words) ASSERT_EQ(cluster.shard(owner)->lock_word(w), held);

  replication::SecondaryShard* sec = cluster.secondaries_of(owner).front();
  const auto enc = proto::encode_txn_commit(group);
  std::optional<Status> status;
  std::size_t on_secondary = 0;
  data.txn_commit(group.ops.front().key,
                  std::string(reinterpret_cast<const char*>(enc.data()), enc.size()),
                  [&](Status s) {
                    status = s;
                    for (const auto& op : group.ops) {
                      auto r = sec->store().get(op.key, cluster.scheduler().now(), false);
                      if (r.ok() && r.value().value == op.value) ++on_secondary;
                    }
                  });
  while (!status.has_value() && cluster.scheduler().step()) {
  }
  ASSERT_EQ(status, Status::kOk);
  EXPECT_EQ(on_secondary, group.ops.size()) << "commit acked before the whole group replicated";
}

// --------------------------------------------------------------- the sweep

// Every scripted family (baselines, contention, the txn-kill-mid-commit
// kills, torn/dropped atomics, mux death, migration) across 6 seeds.
TEST(TxnChaosSweep, ScriptedFamilies) {
  for (const auto& schedule : Schedule::scripted(Family::kTxn)) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Report r = chaos::run(schedule, seed);
      EXPECT_TRUE(r.passed()) << schedule.name << " seed " << seed << ":\n"
                              << describe(r);
      EXPECT_GT(r.acked, 0u) << schedule.name << " seed " << seed;
    }
  }
}

// Seeded-random compositions of the same fault alphabet; 120 by default
// (>= the 100-run acceptance bar). HYDRA_TXN_RANDOM_RUNS scales the sweep
// (tier1.sh widens it for --txn and shortens it under sanitizers).
TEST(TxnChaosSweep, RandomFamilies) {
  const int runs = chaos::random_runs("HYDRA_TXN_RANDOM_RUNS", 120);
  for (int i = 1; i <= runs; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const Report r = chaos::run(Schedule::random(Family::kTxn, seed), seed);
    EXPECT_TRUE(r.passed()) << describe(r);
  }
}

// Identical (schedule, seed) must reproduce the run byte-for-byte; the
// trace plane must not perturb it.
TEST(TxnDeterminism, SameSeedSameHistory) {
  const Report a = run_scripted("txn-kill-mid-commit-no-wait", 7);
  const Report b = run_scripted("txn-kill-mid-commit-no-wait", 7);
  EXPECT_EQ(a.history, b.history);

  obs::Plane plane;
  const Report c = run_scripted("txn-kill-mid-commit-no-wait", 7, &plane);
  EXPECT_EQ(a.history, c.history);

  const Schedule random = Schedule::random(Family::kTxn, 42);
  const Report d = chaos::run(random, 42);
  const Report e = chaos::run(random, 42);
  EXPECT_EQ(d.history, e.history);
  EXPECT_NE(a.history, d.history);  // different schedules diverge
}

// ------------------------------------------------ abort-order properties

// NO_WAIT must never wait: every conflict is an immediate die. The runner
// additionally folds any probe-observed wait into a violation, so passed()
// covers the ordering; the stat assertions pin it explicitly.
TEST(TxnProperty, NoWaitNeverWaits) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Report r = run_scripted("txn-contention-no-wait", seed);
    EXPECT_TRUE(r.passed()) << "seed " << seed << ":\n" << describe(r);
    EXPECT_EQ(r.waits, 0u) << "seed " << seed;
    EXPECT_EQ(r.died, r.conflicts) << "seed " << seed;
  }
}

// WAIT_DIE must let older transactions wait out younger holders (the probe
// flags any older-dies-for-younger as a violation) -- across a seed sweep
// of the hot-key schedule the wait path must actually exercise.
TEST(TxnProperty, WaitDieOlderWaitsYoungerDies) {
  std::uint64_t total_conflicts = 0;
  std::uint64_t total_waits = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Report r = run_scripted("txn-contention-wait-die", seed);
    EXPECT_TRUE(r.passed()) << "seed " << seed << ":\n" << describe(r);
    total_conflicts += r.conflicts;
    total_waits += r.waits;
  }
  EXPECT_GT(total_conflicts, 0u) << "contention schedule produced no conflicts";
  EXPECT_GT(total_waits, 0u) << "WAIT_DIE never exercised its wait path";
}

// ------------------------------------------------- one regression per bug

// The tentpole family: primary killed between lock-acquire and unlock. No
// acked transaction may be partially visible after failover, and the
// promoted arena must come up with no lock word held.
TEST(TxnRegression, KillMidCommitPrimary) {
  for (const char* name :
       {"txn-kill-mid-commit-no-wait", "txn-kill-mid-commit-wait-die"}) {
    const Report r = run_scripted(name, 1);
    EXPECT_TRUE(r.passed()) << name << ":\n" << describe(r);
    EXPECT_GE(r.failovers, 1u) << name;
    EXPECT_GT(r.acked, 0u) << name;
    EXPECT_EQ(r.lock_leaks, 0u) << name;
  }
}

// Primary kill while SWAT is itself missing a member: the failover arrives
// late (leadership gap) but the commit invariants must hold across it.
TEST(TxnRegression, KillMidCommitDuringSwatGap) {
  const Report r = run_scripted("txn-kill-mid-commit-swat-gap", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u);
}

// A replica death mid-commit: the commit's replication barrier must absorb
// the loss without a failover and without wedging any callback.
TEST(TxnRegression, SecondaryDeathMidCommitNeverWedges) {
  const Report r = run_scripted("txn-kill-secondary-mid-commit", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.wedged, 0u);
  EXPECT_EQ(r.failovers, 0u) << describe(r);
}

// Dropped and torn lock-arena atomics: a lock CAS that never executed (or
// executed but lost its completion) must neither wedge the transaction nor
// leak the word held -- the maybe-held release discipline covers both.
TEST(TxnRegression, TornAndDroppedLockCas) {
  for (const char* name :
       {"txn-drop-lock-cas", "txn-tear-lock-cas", "txn-drop-unlock-cas"}) {
    const Report r = run_scripted(name, 1);
    EXPECT_TRUE(r.passed()) << name << ":\n" << describe(r);
    EXPECT_EQ(r.wedged, 0u) << name;
    EXPECT_EQ(r.lock_leaks, 0u) << name;
    EXPECT_GE(r.torn_atomics + r.dropped_atomics, 1u) << name;
  }
}

// The shared mux QP dies with lock CAS + commits in flight; endpoints must
// tear down, reopen lazily and retry -- QP death is not process death.
TEST(TxnRegression, MuxChannelKillRecovers) {
  const Report r = run_scripted("txn-mux-channel-kill", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.wedged, 0u);
  EXPECT_EQ(r.failovers, 0u) << describe(r);
}

// Heartbeat suppression past the session timeout: the fenced primary's
// epoch moves on, and every commit locked under the stale epoch must be
// refused whole and rolled forward -- never half-applied.
TEST(TxnRegression, HeartbeatFenceRollsForward) {
  const Report r = run_scripted("txn-heartbeat-fence", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
}

// A live migration overlapping the workload: commits racing the ownership
// handoff are fenced by epoch + owner filters and must retry onto the new
// owner; the migration itself must still complete.
TEST(TxnRegression, MigrationMidTxnFencesCommits) {
  const Report r = run_scripted("txn-migrate-mid-txn", 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_TRUE(r.migration_completed) << describe(r);
}

}  // namespace
}  // namespace hydra
