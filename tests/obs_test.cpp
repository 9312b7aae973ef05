// Observability-plane tests: unit coverage for the trace ring / query /
// registry, and the golden-determinism contract -- attaching a Plane must
// not change a simulation's virtual-time history, and two enabled runs of
// the same seed must produce byte-identical snapshots.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/harness.hpp"
#include "common/keygen.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"

namespace hydra {
namespace {

// ---------------------------------------------------------------- units

TEST(TraceRing, OverwritesOldestPastCapacity) {
  obs::TraceRing ring(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    obs::TraceRecord r;
    r.seq = i;
    ring.push(r);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);
  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 4u);
  // Oldest three (0,1,2) were overwritten; retained records are in order.
  EXPECT_EQ(recs.front().seq, 3u);
  EXPECT_EQ(recs.back().seq, 6u);
}

TEST(TraceQuery, OrdersByGlobalSeqAndAnswersHappenedBefore) {
  std::vector<obs::TraceRecord> recs;
  auto push = [&](std::uint64_t seq, obs::TraceKind kind, std::uint64_t shard) {
    obs::TraceRecord r;
    r.seq = seq;
    r.kind = kind;
    r.shard = shard;
    recs.push_back(r);
  };
  // Deliberately out of order, two shards interleaved.
  push(5, obs::TraceKind::kRingDrained, 0);
  push(1, obs::TraceKind::kFenced, 0);
  push(9, obs::TraceKind::kEpochPublished, 0);
  push(3, obs::TraceKind::kFenced, 1);
  push(7, obs::TraceKind::kRingDrained, 1);

  const obs::TraceQuery q(recs);
  ASSERT_EQ(q.all().size(), 5u);
  EXPECT_EQ(q.all().front().seq, 1u);
  EXPECT_EQ(q.all().back().seq, 9u);

  EXPECT_TRUE(q.happened_before(obs::TraceKind::kFenced, obs::TraceKind::kRingDrained));
  EXPECT_TRUE(q.happened_before(obs::TraceKind::kRingDrained,
                                obs::TraceKind::kEpochPublished, 0));
  EXPECT_FALSE(q.happened_before(obs::TraceKind::kEpochPublished, obs::TraceKind::kFenced));
  // Absent kinds never "happened before" anything.
  EXPECT_FALSE(q.happened_before(obs::TraceKind::kTornAck, obs::TraceKind::kFenced));

  EXPECT_EQ(q.count(obs::TraceKind::kFenced), 2u);
  EXPECT_EQ(q.count(obs::TraceKind::kFenced, 1), 1u);
  ASSERT_TRUE(q.first(obs::TraceKind::kFenced).has_value());
  EXPECT_EQ(q.first(obs::TraceKind::kFenced)->seq, 1u);
  ASSERT_TRUE(q.last(obs::TraceKind::kFenced).has_value());
  EXPECT_EQ(q.last(obs::TraceKind::kFenced)->seq, 3u);
  ASSERT_TRUE(q.first_after(obs::TraceKind::kRingDrained, 5).has_value());
  EXPECT_EQ(q.first_after(obs::TraceKind::kRingDrained, 5)->seq, 7u);
  EXPECT_FALSE(q.first_after(obs::TraceKind::kEpochPublished, 9).has_value());
}

TEST(Plane, RoutesRecordsToPerNodeAndClusterRings) {
  obs::Plane plane(16);
  plane.trace(10, 0, obs::TraceKind::kWritePosted);
  plane.trace(20, 2, obs::TraceKind::kReadPosted);
  plane.trace(30, kInvalidNode, obs::TraceKind::kPromotionStart, 7);
  ASSERT_NE(plane.node_ring(0), nullptr);
  EXPECT_EQ(plane.node_ring(0)->size(), 1u);
  ASSERT_NE(plane.node_ring(2), nullptr);
  EXPECT_EQ(plane.node_ring(2)->size(), 1u);
  EXPECT_EQ(plane.node_ring(1)->size(), 0u);  // grown but empty
  EXPECT_EQ(plane.cluster_ring().size(), 1u);
  EXPECT_EQ(plane.trace_count(), 3u);
  const auto q = plane.query();
  ASSERT_EQ(q.all().size(), 3u);
  // Global seq preserves emission order across rings.
  EXPECT_EQ(q.all()[0].kind, obs::TraceKind::kWritePosted);
  EXPECT_EQ(q.all()[2].kind, obs::TraceKind::kPromotionStart);
  EXPECT_EQ(q.all()[2].shard, 7u);
}

TEST(Registry, ReferencesStayStableAndJsonIsNameOrdered) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("z.last");
  reg.counter("a.first").add(1);
  reg.gauge("depth").set(-3);
  reg.histogram("lat").record(100);
  a.add(41);
  a.add(1);
  // The reference resolved before other insertions still targets "z.last".
  EXPECT_EQ(reg.counter("z.last").value(), 42u);

  std::string out;
  reg.write_json(out, 0);
  // Name-ordered: "a.first" precedes "z.last".
  EXPECT_LT(out.find("a.first"), out.find("z.last"));
  EXPECT_NE(out.find("\"depth\": -3"), std::string::npos);
  EXPECT_NE(out.find("\"lat\""), std::string::npos);

  std::string again;
  reg.write_json(again, 0);
  EXPECT_EQ(out, again);  // snapshots are deterministic
}

TEST(Registry, SummarizeMatchesHistogramPercentiles) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<Duration>(i));
  const obs::LatencySummary s = obs::summarize(h);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min_ns, h.min());
  EXPECT_EQ(s.max_ns, h.max());
  EXPECT_EQ(s.p50_ns, h.percentile(50));
  EXPECT_EQ(s.p99_ns, h.percentile(99));
  EXPECT_EQ(s.p999_ns, h.percentile(99.9));
  EXPECT_DOUBLE_EQ(s.mean_ns, h.mean());
}

// ------------------------------------------------- golden determinism

db::ClusterOptions small_ha_options() {
  db::ClusterOptions opts;
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 2;
  opts.replicas = 1;
  opts.enable_swat = true;
  opts.shard_template.store.arena_bytes = 16 << 20;
  opts.shard_template.store.min_buckets = 1 << 12;
  opts.client_template.request_timeout = 100 * kMillisecond;
  opts.client_template.max_retries = 100;
  return opts;
}

/// The virtual-time history fingerprint the determinism contract pins:
/// final clock, event count, and every fabric-level op counter.
struct HistorySignature {
  Time now = 0;
  std::uint64_t events = 0;
  fabric::FabricStats fabric;
  std::uint64_t shard0_responses = 0;
  std::uint64_t failovers = 0;

  bool operator==(const HistorySignature& o) const {
    return now == o.now && events == o.events &&
           fabric.rdma_writes == o.fabric.rdma_writes &&
           fabric.rdma_reads == o.fabric.rdma_reads && fabric.sends == o.fabric.sends &&
           fabric.protection_errors == o.fabric.protection_errors &&
           fabric.dead_peer_errors == o.fabric.dead_peer_errors &&
           fabric.torn_writes == o.fabric.torn_writes &&
           fabric.dropped_writes == o.fabric.dropped_writes &&
           shard0_responses == o.shard0_responses && failovers == o.failovers;
  }
};

/// Closed-loop workload with a mid-run primary crash: exercises shards,
/// clients, replication and the failover plane in one deterministic run.
HistorySignature run_closed_loop(obs::Plane* plane) {
  db::ClusterOptions opts = small_ha_options();
  opts.obs = plane;
  db::HydraCluster cluster(opts);
  for (int i = 0; i < 40; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    EXPECT_EQ(cluster.put(format_key(k), synth_value(k)), Status::kOk);
  }
  cluster.crash_primary(0);
  cluster.run_for(5 * kSecond);
  for (int i = 0; i < 40; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    EXPECT_TRUE(cluster.get(format_key(k)).has_value());
  }
  HistorySignature sig;
  sig.now = cluster.scheduler().now();
  sig.events = cluster.scheduler().events_executed();
  sig.fabric = cluster.fabric().stats();
  sig.shard0_responses = cluster.shard(0) != nullptr ? cluster.shard(0)->stats().responses : 0;
  sig.failovers = cluster.failovers();
  return sig;
}

TEST(GoldenDeterminism, ClosedLoopHistoryIdenticalWithObsOnAndOff) {
  const HistorySignature off = run_closed_loop(nullptr);
  obs::Plane plane;
  const HistorySignature on = run_closed_loop(&plane);
  EXPECT_TRUE(off == on) << "attaching the obs plane changed the simulation history";
  // And the enabled run actually observed something.
  EXPECT_GT(plane.trace_count(), 0u);
  EXPECT_GT(plane.metrics().counters().size(), 0u);
}

TEST(GoldenDeterminism, ChaosHistoriesIdenticalWithObsOnAndOff) {
  const auto schedules = chaos::Schedule::scripted(chaos::Family::kChaos);
  ASSERT_FALSE(schedules.empty());
  for (std::uint64_t seed : {7u, 21u}) {
    const chaos::Report off = chaos::run(schedules[0], seed);
    obs::Plane plane;
    const chaos::Report on = chaos::run(schedules[0], seed, &plane);
    EXPECT_EQ(off.history, on.history) << "seed " << seed;
    EXPECT_EQ(off.failovers, on.failovers);
    EXPECT_GT(plane.trace_count(), 0u);
  }
}

TEST(GoldenDeterminism, EnabledRunsProduceByteIdenticalSnapshotsPerSeed) {
  const auto schedules = chaos::Schedule::scripted(chaos::Family::kChaos);
  ASSERT_FALSE(schedules.empty());
  for (std::uint64_t seed : {3u, 11u}) {
    obs::Plane a;
    obs::Plane b;
    const chaos::Report ra = chaos::run(schedules[0], seed, &a);
    const chaos::Report rb = chaos::run(schedules[0], seed, &b);
    ASSERT_EQ(ra.history, rb.history);
    EXPECT_EQ(a.json(0), b.json(0)) << "seed " << seed;
  }
  // Distinct seeds produce distinct traces (the snapshot is not a constant).
  obs::Plane a;
  obs::Plane b;
  chaos::run(chaos::Schedule::random(chaos::Family::kChaos, 1), 1, &a);
  chaos::run(chaos::Schedule::random(chaos::Family::kChaos, 2), 2, &b);
  EXPECT_NE(a.json(0), b.json(0));
}

// Every applied fault is traced, whatever its family: one scripted schedule
// per family (the first with faults) applies, and traces as
// kFaultInjected, exactly the faults it schedules -- none silently dropped
// -- and tracing leaves the virtual-time history untouched.
TEST(GoldenDeterminism, EveryFamilyTracesEveryAppliedFault) {
  for (const chaos::Family family :
       {chaos::Family::kChaos, chaos::Family::kMigration, chaos::Family::kFailover,
        chaos::Family::kHotKey, chaos::Family::kScan, chaos::Family::kTxn}) {
    const auto schedules = chaos::Schedule::scripted(family);
    const auto s = std::find_if(schedules.begin(), schedules.end(),
                                [](const chaos::Schedule& c) { return !c.faults.empty(); });
    ASSERT_NE(s, schedules.end()) << chaos::to_string(family);
    const chaos::Report off = chaos::run(*s, 1);
    obs::Plane plane;
    const chaos::Report on = chaos::run(*s, 1, &plane);
    EXPECT_EQ(off.history, on.history) << s->name;
    EXPECT_EQ(on.faults_applied, s->faults.size()) << s->name;
    EXPECT_EQ(plane.query().count(obs::TraceKind::kFaultInjected), s->faults.size()) << s->name;
  }
}

TEST(GoldenDeterminism, PromotionLatencyDerivableFromChaosTraceAlone) {
  // Find the scripted primary-kill schedule and reconstruct the promotion
  // timeline purely from trace events -- what bench_chaos_recovery reports.
  const auto schedules = chaos::Schedule::scripted(chaos::Family::kChaos);
  for (const auto& s : schedules) {
    bool kills_primary = false;
    for (const auto& f : s.faults) {
      kills_primary |= f.kind == chaos::FaultKind::kKillPrimary;
    }
    if (!kills_primary) continue;
    obs::Plane plane;
    const chaos::Report report = chaos::run(s, 42, &plane);
    ASSERT_TRUE(report.passed());
    const auto q = plane.query();
    const auto crash = q.first(obs::TraceKind::kCrashInjected);
    const auto done = q.first(obs::TraceKind::kPromotionDone);
    ASSERT_TRUE(crash.has_value());
    ASSERT_TRUE(done.has_value());
    EXPECT_LT(crash->seq, done->seq);
    const Duration promotion_latency = done->at - crash->at;
    EXPECT_GT(promotion_latency, kSecond);       // session timeout dominates
    EXPECT_LT(promotion_latency, 10 * kSecond);  // but recovery is bounded
    // The lifecycle chain is fully ordered.
    EXPECT_TRUE(q.happened_before(obs::TraceKind::kCrashInjected,
                                  obs::TraceKind::kPrimaryDeathObserved));
    EXPECT_TRUE(q.happened_before(obs::TraceKind::kPrimaryDeathObserved,
                                  obs::TraceKind::kPromotionStart));
    EXPECT_TRUE(q.happened_before(obs::TraceKind::kPromotionStart,
                                  obs::TraceKind::kRingDrained));
    EXPECT_TRUE(q.happened_before(obs::TraceKind::kRingDrained,
                                  obs::TraceKind::kEpochPublished));
    EXPECT_TRUE(q.happened_before(obs::TraceKind::kEpochPublished,
                                  obs::TraceKind::kPromotionDone));
    return;
  }
  FAIL() << "no scripted schedule kills a primary";
}

// ------------------------------------------------- exported shard metrics

/// One shard with two relaxed replicas and `clients` clients on one machine.
db::ClusterOptions one_shard_options(int clients, bool mux, obs::Plane* plane) {
  db::ClusterOptions opts;
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.total_shards = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = clients;
  opts.replicas = 2;
  opts.enable_swat = false;
  opts.mux_connections = mux;
  opts.obs = plane;
  opts.shard_template.store.arena_bytes = 8 << 20;
  opts.shard_template.store.min_buckets = 1 << 10;
  return opts;
}

// A shared (mux) ring's depth is worth a kSrqDepth record per sweep; a
// channel of one's "depth" is just its client's in-flight count, so those
// sweeps trace none.
TEST(ShardTrace, SrqDepthTracedOnlyForSharedRings) {
  for (const bool mux : {false, true}) {
    obs::Plane plane;
    db::HydraCluster cluster(one_shard_options(4, mux, &plane));
    for (int i = 0; i < 20; ++i) {
      const auto k = static_cast<std::uint64_t>(i);
      ASSERT_EQ(cluster.put(format_key(k), synth_value(k)), Status::kOk);
    }
    const obs::TraceQuery q = plane.query();
    EXPECT_GT(q.count(obs::TraceKind::kRingSweep), 0u) << "mux=" << mux;
    if (mux) {
      EXPECT_GT(q.count(obs::TraceKind::kSrqDepth), 0u);
    } else {
      EXPECT_EQ(q.count(obs::TraceKind::kSrqDepth), 0u);
    }
  }
}

// rep.doorbells counts the doorbells a shard's replicator rang: one per
// replica for a write posted alone, one per replica for a whole run.
TEST(ShardMetrics, RepDoorbellsCountsDoorbellsPerReplica) {
  obs::Plane plane;
  db::HydraCluster cluster(one_shard_options(4, false, &plane));
  auto doorbells = [&] {
    plane.collect();
    return plane.metrics().counters().at("shard.0.rep.doorbells").value();
  };
  // Sequential writes: each one's record posts alone, on both replicas.
  for (int i = 0; i < 10; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    ASSERT_EQ(cluster.put(format_key(k), synth_value(k)), Status::kOk);
  }
  EXPECT_EQ(doorbells(), 20u);
  EXPECT_EQ(doorbells(), cluster.shard(0)->replicator()->doorbells());

  // Four writes at once: the first posts alone, the three that queue behind
  // it form one run (posted alone, the four would ring 8).
  int done = 0;
  for (int c = 0; c < 4; ++c) {
    cluster.clients()[static_cast<std::size_t>(c)]->update(
        format_key(static_cast<std::uint64_t>(c)), "fresh", [&](Status) { ++done; });
  }
  cluster.run_for(100 * kMicrosecond);
  ASSERT_EQ(done, 4);
  EXPECT_EQ(doorbells(), 24u);
}

// rep.ring_writes counts ring WQEs: a run of K records goes out as one
// write of K frames per replica, and its kWritePosted trace carries K.
TEST(ShardMetrics, RepRingWritesCarryARunOfKAsOneWritePerReplica) {
  obs::Plane plane;
  db::HydraCluster cluster(one_shard_options(4, false, &plane));
  auto ring_writes = [&] {
    plane.collect();
    return plane.metrics().counters().at("shard.0.rep.ring_writes").value();
  };
  for (int i = 0; i < 4; ++i) {
    const auto k = static_cast<std::uint64_t>(i);
    ASSERT_EQ(cluster.put(format_key(k), synth_value(k)), Status::kOk);
  }
  EXPECT_EQ(ring_writes(), 8u);  // each write alone, on both replicas
  const std::size_t traced = plane.query().all().size();

  // Four writes at once: the first posts alone, the three queued behind it
  // form a run of K = 3.
  int done = 0;
  for (int c = 0; c < 4; ++c) {
    cluster.clients()[static_cast<std::size_t>(c)]->update(
        format_key(static_cast<std::uint64_t>(c)), "fresh", [&](Status) { ++done; });
  }
  cluster.run_for(100 * kMicrosecond);
  ASSERT_EQ(done, 4);
  EXPECT_EQ(ring_writes(), 8u + 2u * 2u);
  EXPECT_EQ(ring_writes(), cluster.shard(0)->replicator()->ring_writes());
  // Per replica, in post order: the lone record's write, then the run's.
  const NodeId primary = cluster.shard(0)->node();
  std::vector<std::uint64_t> frames;
  const std::vector<obs::TraceRecord> records = plane.query().all();
  for (std::size_t i = traced; i < records.size(); ++i) {
    const obs::TraceRecord& r = records[i];
    if (r.node == primary && r.kind == obs::TraceKind::kWritePosted && (r.b >> 32) != 0) {
      frames.push_back(r.b >> 32);
    }
  }
  EXPECT_EQ(frames, (std::vector<std::uint64_t>{1, 1, 3, 3}));
}

TEST(Plane, JsonCarriesSchemaAndTrace) {
  obs::Plane plane;
  plane.metrics().counter("x").add(5);
  plane.trace(123, 0, obs::TraceKind::kWritePosted, obs::kNoShard, 64, 7);
  const std::string doc = plane.json(456);
  EXPECT_NE(doc.find("\"schema\": \"hydradb-obs-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"virtual_time_ns\": 456"), std::string::npos);
  EXPECT_NE(doc.find("\"x\": 5"), std::string::npos);
  EXPECT_NE(doc.find("\"event\": \"write_posted\""), std::string::npos);
  EXPECT_NE(doc.find("\"at_ns\": 123"), std::string::npos);
}

}  // namespace
}  // namespace hydra
