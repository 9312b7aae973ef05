// End-to-end integration tests: full client -> fabric -> shard -> store
// paths through the HydraCluster harness, covering message passing, remote
// pointer caching, guardian invalidation, leases, pointer sharing, server
// mode variants, replication and the YCSB runner.
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/keygen.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "ycsb/runner.hpp"

namespace hydra {
namespace {

db::ClusterOptions small_options() {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 2;
  opts.client_nodes = 1;
  opts.clients_per_node = 2;
  opts.enable_swat = false;
  opts.shard_template.store.arena_bytes = 16 << 20;
  opts.shard_template.store.min_buckets = 1 << 12;
  return opts;
}

TEST(Integration, PutGetRemoveRoundTrip) {
  db::HydraCluster cluster(small_options());
  EXPECT_EQ(cluster.put("key-1", "value-1"), Status::kOk);
  auto v = cluster.get("key-1");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "value-1");

  EXPECT_EQ(cluster.remove("key-1"), Status::kOk);
  Status status = Status::kOk;
  EXPECT_FALSE(cluster.get("key-1", 0, &status).has_value());
  EXPECT_EQ(status, Status::kNotFound);
}

TEST(Integration, InsertSemantics) {
  db::HydraCluster cluster(small_options());
  EXPECT_EQ(cluster.insert("k", "v1"), Status::kOk);
  EXPECT_EQ(cluster.insert("k", "v2"), Status::kExists);
  EXPECT_EQ(*cluster.get("k"), "v1");
}

TEST(Integration, GetMissingKeyReturnsNotFound) {
  db::HydraCluster cluster(small_options());
  Status status = Status::kOk;
  EXPECT_FALSE(cluster.get("never-inserted", 0, &status).has_value());
  EXPECT_EQ(status, Status::kNotFound);
}

TEST(Integration, KeysSpreadAcrossShards) {
  auto opts = small_options();
  opts.shards_per_node = 4;
  db::HydraCluster cluster(opts);
  std::set<ShardId> owners;
  for (int i = 0; i < 200; ++i) {
    const std::string key = format_key(static_cast<std::uint64_t>(i));
    owners.insert(cluster.owner_of(key));
    ASSERT_EQ(cluster.put(key, "v"), Status::kOk);
  }
  EXPECT_EQ(owners.size(), 4u);
  // Every shard's store holds exactly the keys the ring routes to it.
  std::size_t total = 0;
  for (ShardId s = 0; s < 4; ++s) total += cluster.shard(s)->store().size();
  EXPECT_EQ(total, 200u);
}

TEST(Integration, SecondGetUsesRdmaReadAndBypassesServer) {
  db::HydraCluster cluster(small_options());
  cluster.put("hot", "value");
  auto* client = cluster.clients()[0];

  ASSERT_TRUE(cluster.get("hot").has_value());  // message GET, mints pointer
  const std::uint64_t reads_before = cluster.fabric().stats().rdma_reads;
  const std::uint64_t hits_before = client->stats().ptr_hits;
  const auto& shard_stats = cluster.shard(cluster.owner_of("hot"))->stats();
  const std::uint64_t server_gets_before = shard_stats.gets;

  ASSERT_EQ(*cluster.get("hot"), "value");  // must go through RDMA Read
  EXPECT_EQ(client->stats().ptr_hits, hits_before + 1);
  EXPECT_GT(cluster.fabric().stats().rdma_reads, reads_before);
  EXPECT_EQ(shard_stats.gets, server_gets_before) << "server CPU must be bypassed";
}

TEST(Integration, UpdateInvalidatesCachedPointerViaGuardian) {
  db::HydraCluster cluster(small_options());
  cluster.put("k", "old");
  ASSERT_TRUE(cluster.get("k").has_value());  // cache pointer
  ASSERT_EQ(*cluster.get("k"), "old");        // RDMA read hit

  cluster.put("k", "new");  // out-of-place update flips the guardian
  auto* client = cluster.clients()[0];
  const std::uint64_t invalid_before = client->stats().invalid_hits;
  // Next read-by-pointer sees the dead guardian and falls back.
  ASSERT_EQ(*cluster.get("k"), "new");
  EXPECT_EQ(client->stats().invalid_hits, invalid_before + 1);
}

TEST(Integration, RemoveInvalidatesCachedPointer) {
  db::HydraCluster cluster(small_options());
  cluster.put("k", "v");
  ASSERT_TRUE(cluster.get("k").has_value());
  ASSERT_TRUE(cluster.get("k").has_value());  // pointer cached + used
  cluster.remove("k");
  Status status = Status::kOk;
  EXPECT_FALSE(cluster.get("k", 0, &status).has_value());
  EXPECT_EQ(status, Status::kNotFound);
}

TEST(Integration, ColocatedClientsSharePointers) {
  auto opts = small_options();
  opts.clients_per_node = 2;
  opts.share_pointer_cache = true;
  db::HydraCluster cluster(opts);
  cluster.put("shared", "v", 0);
  ASSERT_TRUE(cluster.get("shared", /*client_idx=*/0).has_value());

  // Client 1 never fetched this key, yet its first GET is already a
  // pointer hit thanks to the shared cache (section 4.2.4).
  auto* c1 = cluster.clients()[1];
  const std::uint64_t hits_before = c1->stats().ptr_hits;
  ASSERT_EQ(*cluster.get("shared", /*client_idx=*/1), "v");
  EXPECT_EQ(c1->stats().ptr_hits, hits_before + 1);
}

TEST(Integration, ExclusiveCachesDoNotShare) {
  auto opts = small_options();
  opts.share_pointer_cache = false;  // the secure-isolation configuration
  db::HydraCluster cluster(opts);
  cluster.put("secret", "v", 0);
  ASSERT_TRUE(cluster.get("secret", 0).has_value());
  auto* c1 = cluster.clients()[1];
  const std::uint64_t hits_before = c1->stats().ptr_hits;
  ASSERT_EQ(*cluster.get("secret", 1), "v");
  EXPECT_EQ(c1->stats().ptr_hits, hits_before) << "isolated cache must miss";
}

TEST(Integration, RdmaReadDisabledAlwaysUsesMessages) {
  auto opts = small_options();
  opts.client_rdma_read = false;  // "RDMA Write Only" configuration
  db::HydraCluster cluster(opts);
  cluster.put("k", "v");
  ASSERT_TRUE(cluster.get("k").has_value());
  ASSERT_TRUE(cluster.get("k").has_value());
  EXPECT_EQ(cluster.fabric().stats().rdma_reads, 0u);
  EXPECT_EQ(cluster.clients()[0]->stats().ptr_hits, 0u);
}

TEST(Integration, SendRecvModeWorksEndToEnd) {
  auto opts = small_options();
  opts.server_mode = server::ServerMode::kSendRecv;
  opts.client_rdma_read = false;
  db::HydraCluster cluster(opts);
  EXPECT_EQ(cluster.put("k", "v"), Status::kOk);
  EXPECT_EQ(*cluster.get("k"), "v");
  EXPECT_GT(cluster.fabric().stats().sends, 0u);
}

TEST(Integration, PipelinedModeWorksEndToEnd) {
  auto opts = small_options();
  opts.pipelined_servers = true;
  opts.client_rdma_read = false;
  opts.enable_swat = false;
  db::HydraCluster cluster(opts);
  EXPECT_EQ(cluster.put("k", "v"), Status::kOk);
  EXPECT_EQ(*cluster.get("k"), "v");
}

TEST(Integration, ReplicationKeepsSecondariesInSync) {
  auto opts = small_options();
  opts.server_nodes = 2;
  opts.shards_per_node = 1;
  opts.replicas = 1;
  db::HydraCluster cluster(opts);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(cluster.put(format_key(static_cast<std::uint64_t>(i)), synth_value(static_cast<std::uint64_t>(i))), Status::kOk);
  }
  cluster.run_for(10 * kMillisecond);  // let replication drain
  for (ShardId s = 0; s < 2; ++s) {
    auto secondaries = cluster.secondaries_of(s);
    ASSERT_EQ(secondaries.size(), 1u);
    EXPECT_EQ(secondaries[0]->store().size(), cluster.shard(s)->store().size());
  }
}

TEST(Integration, LargeValuesNeedLargerSlots) {
  auto opts = small_options();
  opts.shard_template.msg_slot_bytes = 64 * 1024;
  opts.client_template.resp_slot_bytes = 64 * 1024;
  db::HydraCluster cluster(opts);
  const std::string big_value(32 * 1024, 'B');
  EXPECT_EQ(cluster.put("big", big_value), Status::kOk);
  auto v = cluster.get("big");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, big_value);
}

TEST(Integration, OversizedValueFailsCleanly) {
  db::HydraCluster cluster(small_options());  // 16 KiB slots
  const std::string too_big(64 * 1024, 'X');
  EXPECT_EQ(cluster.put("big", too_big), Status::kInvalidArgument);
}

TEST(Integration, LeaseExpiryForcesMessagePathAndIsSafe) {
  db::HydraCluster cluster(small_options());
  cluster.put("k", "v");
  ASSERT_TRUE(cluster.get("k").has_value());  // lease granted (~1s, cold key)

  // Let every lease lapse, then churn the arena so the old memory would be
  // reused if it were freed prematurely.
  cluster.run_for(70 * kSecond);
  auto* client = cluster.clients()[0];
  const std::uint64_t misses_before = client->stats().ptr_misses;
  ASSERT_EQ(*cluster.get("k"), "v");  // expired lease -> message GET
  EXPECT_GT(client->stats().ptr_misses, misses_before);
}

TEST(Integration, YcsbRunnerProducesSaneNumbers) {
  auto opts = small_options();
  opts.shards_per_node = 2;
  opts.clients_per_node = 4;
  db::HydraCluster cluster(opts);

  ycsb::WorkloadSpec spec;
  spec.get_fraction = 0.9;
  spec.distribution = Distribution::kZipfian;
  spec.record_count = 2000;
  spec.operations = 8000;
  const auto result = ycsb::run_workload(cluster, spec);

  EXPECT_EQ(result.operations, 8000u);
  EXPECT_GT(result.throughput_mops, 0.0);
  EXPECT_GT(result.avg_get_us, 0.0);
  EXPECT_LT(result.avg_get_us, 1000.0);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.timeouts, 0u);
  EXPECT_GT(result.ptr_hits, 0u) << "zipfian re-reads should hit the pointer cache";
}

TEST(Integration, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    auto opts = small_options();
    db::HydraCluster cluster(opts);
    ycsb::WorkloadSpec spec;
    spec.get_fraction = 0.5;
    spec.record_count = 500;
    spec.operations = 2000;
    const auto r = ycsb::run_workload(cluster, spec);
    return std::make_tuple(r.elapsed, r.ptr_hits, r.invalid_hits,
                           cluster.fabric().stats().rdma_writes,
                           cluster.fabric().stats().rdma_reads);
  };
  EXPECT_EQ(run_once(), run_once());
}

/// Every client, shard and fabric counter of a cluster, one line each.
std::string stats_fingerprint(db::HydraCluster& cluster) {
  std::ostringstream out;
  auto hist = [&out](const LatencyHistogram& h) {
    out << " [" << h.count() << ' ' << h.min() << ' ' << h.percentile(50) << ' '
        << h.percentile(99) << ' ' << h.max() << ']';
  };
  for (const auto* c : cluster.clients()) {
    const auto& s = c->stats();
    out << "client " << s.gets << ' ' << s.puts << ' ' << s.removes << ' ' << s.ptr_hits << ' '
        << s.invalid_hits << ' ' << s.ptr_misses << ' ' << s.replica_hits << ' '
        << s.epoch_invalidations << ' ' << s.stale_evicted << ' ' << s.wrong_owner_redirects
        << ' ' << s.renews_sent << ' ' << s.timeouts << ' ' << s.retries << ' ' << s.failures
        << ' ' << s.max_in_flight << ' ' << s.ooo_responses << ' ' << s.scans << ' '
        << s.scan_batches << ' ' << s.scan_entries << ' ' << s.scan_leaf_reads << ' '
        << s.scan_leaf_fallbacks << ' ' << s.scan_restarts;
    hist(s.get_latency);
    hist(s.put_latency);
    hist(s.scan_latency);
    out << '\n';
  }
  for (ShardId id = 0; id < cluster.shard_count(); ++id) {
    const auto& s = cluster.shard(id)->stats();
    out << "shard " << s.gets << ' ' << s.puts << ' ' << s.removes << ' ' << s.renews << ' '
        << s.malformed << ' ' << s.wrong_owner << ' ' << s.forwarded << ' ' << s.responses
        << ' ' << s.batched_responses << ' ' << s.mux_requests << ' ' << s.txn_commits << ' '
        << s.txn_conflicts << ' ' << s.hotkey_promotions << ' ' << s.hotkey_demotions << ' '
        << s.hotkey_invalidations << ' ' << s.hotkey_advertised << ' ' << s.scans << ' '
        << s.scan_entries << ' ' << s.scan_token_rejects << ' ' << s.scan_leaf_refreshes << ' '
        << s.scan_leaf_oversize << ' ' << s.busy_time << '\n';
  }
  const auto& f = cluster.fabric().stats();
  out << "fabric " << f.rdma_writes << ' ' << f.rdma_reads << ' ' << f.sends << ' '
      << f.rdma_atomics << ' ' << f.protection_errors << ' ' << f.qp_connects << '\n';
  out << "now " << cluster.scheduler().now() << '\n';
  return out.str();
}

// Registered memory starts as fresh zero pages, but a later change could
// hand a cluster bytes a torn-down one left behind (buffer reuse, a pool,
// the allocator's free lists). Results must not depend on them: two seeded
// clusters built, run and destroyed one after the other in this process
// must count everything identically. Scans with one-sided leaf reads and
// replication are on, so every region kind is in play.
TEST(Integration, SeededClusterRepeatsExactlyInOneProcess) {
  auto run_once = [] {
    auto opts = small_options();
    opts.replicas = 1;
    opts.ordered_index = true;
    opts.client_template.scan_batch = 8;
    db::HydraCluster cluster(opts);
    ycsb::WorkloadSpec spec;
    spec.get_fraction = 0.6;
    spec.scan_fraction = 0.3;
    spec.max_scan_len = 32;
    spec.record_count = 1000;
    spec.operations = 4000;
    spec.seed = 7;
    const auto r = ycsb::run_workload(cluster, spec);
    EXPECT_EQ(r.failures, 0u);
    EXPECT_GT(r.scans, 0u);
    EXPECT_GT(r.scan_leaf_reads, 0u) << "the one-sided leaf path never ran";
    return stats_fingerprint(cluster);
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hydra
