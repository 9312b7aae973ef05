// End-to-end integration tests: full client -> fabric -> shard -> store
// paths through the HydraCluster harness, covering message passing, remote
// pointer caching, guardian invalidation, leases, pointer sharing, server
// mode variants, replication and the YCSB runner.
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/hash.hpp"
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
  auto opts = small_options();
  opts.client_nodes = 2;  // the writer, client 1, runs on another node
  opts.clients_per_node = 1;
  db::HydraCluster cluster(opts);
  auto* reader = cluster.clients()[0];
  ASSERT_NE(cluster.clients()[1]->node(), reader->node());
  cluster.put("k", "old");
  ASSERT_TRUE(cluster.get("k").has_value());  // cache pointer
  ASSERT_EQ(*cluster.get("k"), "old");        // RDMA read hit

  // The out-of-place update flips the guardian; the reader's node was not
  // told of the new item.
  cluster.put("k", "new", /*client_idx=*/1);
  const std::uint64_t invalid_before = reader->stats().invalid_hits;
  // Next read-by-pointer sees the dead guardian and falls back.
  ASSERT_EQ(*cluster.get("k"), "new");
  EXPECT_EQ(reader->stats().invalid_hits, invalid_before + 1);
}

// A write answers with the new item's pointer, and the writer's node
// refreshes its cached entry: the next GET there reads the new item
// one-sidedly instead of reading the dead one and asking the shard.
TEST(Integration, WriteRefreshesWriterNodePointer) {
  db::HydraCluster cluster(small_options());
  auto* reader = cluster.clients()[0];
  auto* writer = cluster.clients()[1];  // same node, shared pointer cache
  ASSERT_EQ(writer->node(), reader->node());
  const auto& shard_stats = cluster.shard(cluster.owner_of("k"))->stats();
  cluster.put("k", "v0");
  ASSERT_EQ(*cluster.get("k"), "v0");  // caches the pointer

  int round = 0;
  for (const auto type : {proto::MsgType::kPut, proto::MsgType::kUpdate}) {
    const std::string want = "v" + std::to_string(++round);
    std::optional<Status> status;
    const auto done = [&status](Status s) { status = s; };
    if (type == proto::MsgType::kPut) {
      writer->put("k", want, done);
    } else {
      writer->update("k", want, done);
    }
    while (!status.has_value() && cluster.scheduler().step()) {
    }
    ASSERT_EQ(status, Status::kOk) << round;

    const std::uint64_t hits = reader->stats().ptr_hits;
    const std::uint64_t invalid = reader->stats().invalid_hits;
    const std::uint64_t gets = shard_stats.gets;
    ASSERT_EQ(*cluster.get("k"), want) << round;
    EXPECT_EQ(reader->stats().ptr_hits, hits + 1) << round;
    EXPECT_EQ(reader->stats().invalid_hits, invalid) << round;
    EXPECT_EQ(shard_stats.gets, gets) << round << ": the GET reached the shard";
  }
}

// The refresh never allocates: writes to keys the node never read leave
// its cache as it was, while the one key it did read is refreshed.
TEST(Integration, WriteDoesNotAllocatePointerCacheEntries) {
  db::HydraCluster cluster(small_options());
  auto* client = cluster.clients()[0];
  auto& cache = client->pointer_cache();
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(cluster.put(format_key(static_cast<std::uint64_t>(i)), "v0"), Status::kOk);
  }
  const std::string seen = format_key(0);
  ASSERT_EQ(*cluster.get(seen), "v0");
  const std::size_t size = cache.size();
  ASSERT_EQ(size, 1u);

  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(cluster.put(format_key(static_cast<std::uint64_t>(i)), "v1"), Status::kOk);
  }
  EXPECT_EQ(cache.size(), size) << "a write claimed a cache slot";
  EXPECT_EQ(cache.evictions(), 0u);
  client::CachedPtr entry;
  ASSERT_TRUE(cache.get(hash_key(seen), &entry));
  EXPECT_EQ(entry.primary.version, 2u) << "the read key's entry was not refreshed";
}

// The refresh is gated on the item version, which a re-inserted key
// restarts at 1. The key is removed from another node, so this node still
// holds the entry for the removed item when its own re-insert answers with
// version 1: the entry stays, and the next GET pays one invalid hit before
// the message path re-caches.
TEST(Integration, WriteRefreshNeverLowersTheCachedVersion) {
  auto opts = small_options();
  opts.client_nodes = 2;  // the remover, client 1, runs on another node
  opts.clients_per_node = 1;
  db::HydraCluster cluster(opts);
  auto* client = cluster.clients()[0];
  ASSERT_NE(cluster.clients()[1]->node(), client->node());
  cluster.put("k", "v1");
  cluster.put("k", "v2");
  ASSERT_EQ(*cluster.get("k"), "v2");  // caches version 2
  ASSERT_EQ(cluster.remove("k", /*client_idx=*/1), Status::kOk);
  ASSERT_EQ(cluster.insert("k", "v3"), Status::kOk);  // version 1 again
  client::CachedPtr entry;
  ASSERT_TRUE(client->pointer_cache().get(hash_key("k"), &entry));
  EXPECT_EQ(entry.primary.version, 2u) << "a lower version replaced the entry";

  const std::uint64_t invalid = client->stats().invalid_hits;
  ASSERT_EQ(*cluster.get("k"), "v3");
  EXPECT_EQ(client->stats().invalid_hits, invalid + 1);
  ASSERT_TRUE(client->pointer_cache().get(hash_key("k"), &entry));
  EXPECT_EQ(entry.primary.version, 1u);
}

// A remove drops the remover node's pointer to the removed item, so a
// re-insert from the same node leaves nothing stale behind: the next GET
// takes the message path instead of reading the dead item first.
TEST(Integration, RemoveErasesRemoverNodePointer) {
  db::HydraCluster cluster(small_options());
  auto* client = cluster.clients()[0];
  cluster.put("k", "v1");
  cluster.put("k", "v2");
  ASSERT_EQ(*cluster.get("k"), "v2");  // caches version 2
  ASSERT_EQ(cluster.remove("k"), Status::kOk);
  client::CachedPtr entry;
  EXPECT_FALSE(client->pointer_cache().get(hash_key("k"), &entry));
  ASSERT_EQ(cluster.insert("k", "v3"), Status::kOk);  // version 1 again

  const std::uint64_t invalid = client->stats().invalid_hits;
  ASSERT_EQ(*cluster.get("k"), "v3");
  EXPECT_EQ(client->stats().invalid_hits, invalid);
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

// Send/Recv keeps the message path's window: eight requests in flight per
// client, answered out of order (a replicated PUT waits for its secondary
// while the GETs behind it answer), each op exactly once.
TEST(Integration, SendRecvWindowEightCompletesOutOfOrder) {
  auto opts = small_options();
  opts.server_nodes = 2;
  opts.replicas = 1;
  opts.server_mode = server::ServerMode::kSendRecv;
  opts.client_template.window = 8;
  db::HydraCluster cluster(opts);
  constexpr int kKeys = 16;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(cluster.put(format_key(static_cast<std::uint64_t>(i)), "v0"), Status::kOk);
  }
  constexpr int kRounds = 6;
  std::vector<int> answers(static_cast<std::size_t>(kRounds * kKeys) * 2, 0);
  std::vector<Status> status(answers.size(), Status::kOk);
  std::size_t op = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = format_key(static_cast<std::uint64_t>(i));
      client::Client* c = cluster.clients()[static_cast<std::size_t>(i) % 2];
      const std::size_t put_id = op++;
      c->put(key, "v" + std::to_string(r + 1), [&, put_id](Status s) {
        ++answers[put_id];
        status[put_id] = s;
      });
      const std::size_t get_id = op++;
      c->get(key, [&, get_id](Status s, std::string_view) {
        ++answers[get_id];
        status[get_id] = s;
      });
    }
  }
  cluster.run_for(50 * kMillisecond);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    ASSERT_EQ(answers[i], 1) << "op " << i;
    EXPECT_EQ(status[i], Status::kOk) << "op " << i;
  }
  std::uint64_t ooo = 0;
  for (const client::Client* c : cluster.clients()) {
    EXPECT_GT(c->stats().max_in_flight, 1u) << "client " << c->id();
    EXPECT_EQ(c->stats().failures, 0u) << "client " << c->id();
    ooo += c->stats().ooo_responses;
  }
  EXPECT_GT(ooo, 0u) << "every response came back in order";
}

// Send/Recv scans get the endpoint's response slot as their byte budget, as
// RDMA-Write scans do: a batch fills up to scan_batch entries instead of
// carrying one entry per round trip.
TEST(Integration, SendRecvScanBatchesFillTheResponseSlot) {
  auto opts = small_options();
  opts.server_mode = server::ServerMode::kSendRecv;
  opts.ordered_index = true;
  opts.client_template.scan_leaf_reads = false;  // every batch is a message
  db::HydraCluster cluster(opts);
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    cluster.direct_load(format_key(static_cast<std::uint64_t>(i)), "v" + std::to_string(i));
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(format_key(0), kKeys, &out), Status::kOk);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].first, format_key(static_cast<std::uint64_t>(i)));
  }
  const client::ClientStats& st = cluster.clients()[0]->stats();
  EXPECT_EQ(st.scan_entries, static_cast<std::uint64_t>(kKeys));
  // Two shards, at most scan_batch (32) entries a batch, plus each shard's
  // final batch.
  EXPECT_LE(st.scan_batches, 10u) << "a Send/Recv batch held " << st.scan_entries << " / "
                                  << st.scan_batches << " entries";
}

// A two-sided channel's receive buffers are its one endpoint's response
// ring, so the Send/Recv baseline refuses QP multiplexing up front rather
// than silently running unmultiplexed.
TEST(Integration, SendRecvRefusesMuxConnections) {
  auto opts = small_options();
  opts.server_mode = server::ServerMode::kSendRecv;
  opts.mux_connections = true;
  EXPECT_THROW(db::HydraCluster{opts}, std::invalid_argument);
}

TEST(Integration, PipelinedModeWorksEndToEnd) {
  auto opts = small_options();
  opts.server_mode = server::ServerMode::kPipelined;
  opts.client_rdma_read = false;
  opts.enable_swat = false;
  db::HydraCluster cluster(opts);
  EXPECT_EQ(cluster.put("k", "v"), Status::kOk);
  EXPECT_EQ(*cluster.get("k"), "v");
}

// The comparator's workers serve only their handoff queue, so a replicated
// write (whose doorbell run sweeps the next request ahead) has no place on
// it: the cluster refuses the combination up front.
TEST(Integration, PipelinedModeRejectsReplicas) {
  auto opts = small_options();
  opts.server_nodes = 2;
  opts.server_mode = server::ServerMode::kPipelined;
  opts.replicas = 1;
  EXPECT_THROW(db::HydraCluster{opts}, std::invalid_argument);
}

// The comparator's cost model, pinned: one GET on an idle pipelined shard
// charges one ring scan, the dispatch, the handoff and the worker's GET plus
// its response post -- and two GETs arriving together overlap on the two
// workers instead of queueing behind one.
TEST(Integration, PipelinedShardChargesDispatchAndHandoff) {
  auto opts = small_options();
  opts.shards_per_node = 1;
  opts.server_mode = server::ServerMode::kPipelined;
  opts.client_rdma_read = false;
  db::HydraCluster cluster(opts);
  const std::string value(100, 'v');
  ASSERT_EQ(cluster.put("a", value, 0), Status::kOk);
  ASSERT_EQ(cluster.put("b", value, 1), Status::kOk);
  cluster.run_for(kMillisecond);

  const server::CpuModel& cpu = opts.shard_template.cpu;
  const Duration worker = cpu.handoff_sync + cpu.base_get +
                          static_cast<Duration>(cpu.per_value_byte * 100.0) +
                          cpu.post_response;
  const server::ShardStats& st = cluster.shard(0)->stats();
  const Duration before = st.busy_time;
  ASSERT_EQ(cluster.get("a"), value);
  EXPECT_EQ(st.busy_time - before, cpu.poll_scan + cpu.dispatch_cost + worker);
  cluster.run_for(kMillisecond);

  std::vector<Time> done;
  for (int c = 0; c < 2; ++c) {
    cluster.clients()[static_cast<std::size_t>(c)]->get(
        c == 0 ? "a" : "b", [&](Status s, std::string_view) {
          EXPECT_EQ(s, Status::kOk);
          done.push_back(cluster.scheduler().now());
        });
  }
  cluster.run_for(kMillisecond);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_LT(done[1] - done[0], worker);
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

// The preload hashes each key once and writes the owner and every
// secondary from that hash. The result must be what one put per copy gives:
// each record in exactly the stores of the shard owner_of names, version 1,
// and version 2 everywhere after a second load of the same key.
TEST(Integration, DirectLoadWritesTheOwnerAndBothSecondariesOnce) {
  auto opts = small_options();
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.replicas = 2;
  db::HydraCluster cluster(opts);
  constexpr std::uint64_t kN = 3000;
  for (std::uint64_t i = 0; i < kN; ++i) cluster.direct_load(format_key(i), synth_value(i));

  // The stores of a shard: its primary's, then each secondary's.
  const auto copies = [&](ShardId id) {
    std::vector<core::KVStore*> stores{&cluster.shard(id)->store()};
    for (auto* sec : cluster.secondaries_of(id)) stores.push_back(&sec->store());
    return stores;
  };
  const auto expect_everywhere = [&](std::uint64_t version, const char* suffix) {
    for (std::uint64_t i = 0; i < kN; ++i) {
      const std::string key = format_key(i);
      const auto stores = copies(cluster.owner_of(key));
      ASSERT_EQ(stores.size(), 3u);
      for (core::KVStore* store : stores) {
        const auto got = store->get(key, cluster.scheduler().now(), /*grant_lease=*/false);
        ASSERT_TRUE(got.ok()) << key;
        EXPECT_EQ(got.value().version, version) << key;
        EXPECT_EQ(got.value().value, synth_value(i) + suffix) << key;
      }
    }
  };
  expect_everywhere(1, "");
  // Per copy (primary, secondary 0, secondary 1), the inserts over all
  // shards add up to kN: no record was stored twice or on a wrong shard.
  std::vector<std::uint64_t> inserts(3, 0);
  for (ShardId id = 0; id < cluster.shard_count(); ++id) {
    const auto stores = copies(id);
    for (std::size_t c = 0; c < stores.size(); ++c) inserts[c] += stores[c]->stats().inserts;
  }
  EXPECT_EQ(inserts, std::vector<std::uint64_t>(3, kN));

  for (std::uint64_t i = 0; i < kN; ++i) cluster.direct_load(format_key(i), synth_value(i) + "!");
  expect_everywhere(2, "!");
  for (ShardId id = 0; id < cluster.shard_count(); ++id) {
    for (core::KVStore* store : copies(id)) EXPECT_EQ(store->stats().updates, store->size());
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
        << s.busy_time << '\n';
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
// replication are on, so every region kind is in play. A third run has
// glibc fill freed and fresh heap blocks with junk (M_PERTURB; blocks it
// recycles through its small per-thread cache keep their old bytes): a read
// of bytes nobody wrote then sees junk and changes the counts. The
// sanitizers replace malloc and ignore the setting, so they skip that run.
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
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  ASSERT_EQ(::mallopt(M_PERTURB, 0xA5), 1);
  const std::string perturbed = run_once();
  ::mallopt(M_PERTURB, 0);
  EXPECT_EQ(first, perturbed) << "results depend on what freed heap memory held";
#endif
}

}  // namespace
}  // namespace hydra
