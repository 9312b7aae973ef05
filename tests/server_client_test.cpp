// Focused unit tests for the shard and client internals that the broad
// integration suite exercises only indirectly: connection admission,
// malformed traffic, slot framing limits, background GC scheduling, client
// retry/timeout bookkeeping, lease-renew refresh and stats accounting.
#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.hpp"
#include "common/keygen.hpp"
#include "fabric/fabric.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "proto/frame.hpp"
#include "resident.hpp"
#include "server/shard.hpp"

namespace hydra {
namespace {

// ------------------------------------------------------------ raw shard

class RawShardTest : public ::testing::Test {
 protected:
  RawShardTest() {
    server_node = fabric.add_node("server").id();
    client_node = fabric.add_node("client").id();
    server::ShardConfig cfg;
    cfg.id = 0;
    cfg.store.arena_bytes = 8 << 20;
    cfg.store.min_buckets = 1 << 10;
    shard = std::make_unique<server::Shard>(sched, fabric, server_node, cfg);
  }

  /// Hand-rolled connection: lets tests write arbitrary bytes into the
  /// shard's request slot, bypassing the client library.
  struct RawConn {
    fabric::QueuePair* qp;
    server::Shard::AcceptResult accept;
    std::vector<std::byte> resp_buf;
    fabric::MemoryRegion* resp_mr;
  };

  RawConn open_raw() {
    RawConn conn;
    conn.resp_buf.resize(16 * 1024);
    conn.resp_mr = fabric.node(client_node).register_memory(conn.resp_buf);
    auto [cq, sq] = fabric.connect(client_node, server_node);
    conn.qp = cq;
    conn.accept = shard->accept(sq, conn.resp_mr->addr(0),
                                static_cast<std::uint32_t>(conn.resp_buf.size()), 1);
    return conn;
  }

  void send_request(RawConn& conn, const proto::Request& req) {
    const auto payload = proto::encode_request(req);
    std::vector<std::byte> frame(proto::frame_size(payload.size()));
    proto::encode_frame(frame, payload);
    conn.qp->post_write(frame, conn.accept.req_slot);
  }

  std::optional<proto::Response> read_response(RawConn& conn) {
    if (!proto::poll_frame(conn.resp_buf).has_value()) return std::nullopt;
    auto resp = proto::decode_response(proto::frame_payload(conn.resp_buf));
    proto::clear_frame(conn.resp_buf);
    return resp;
  }

  sim::Scheduler sched;
  fabric::Fabric fabric{sched};
  NodeId server_node = 0;
  NodeId client_node = 0;
  std::unique_ptr<server::Shard> shard;
};

TEST_F(RawShardTest, AcceptHandsOutDistinctSlots) {
  auto c1 = open_raw();
  auto c2 = open_raw();
  ASSERT_TRUE(c1.accept.ok);
  ASSERT_TRUE(c2.accept.ok);
  EXPECT_EQ(c1.accept.req_slot.rkey, c2.accept.req_slot.rkey);  // same region
  EXPECT_NE(c1.accept.req_slot.offset, c2.accept.req_slot.offset);
  EXPECT_EQ(shard->connection_count(), 2u);
  EXPECT_NE(c1.accept.arena_rkey, 0u);
}

TEST_F(RawShardTest, ConnectionLimitIsEnforced) {
  // Fill the table to max_connections; the next accept must fail cleanly.
  const std::uint32_t limit = shard->config().max_connections;
  for (std::uint32_t i = shard->connection_count(); i < limit; ++i) {
    auto [cq, sq] = fabric.connect(client_node, server_node);
    (void)cq;
    ASSERT_TRUE(shard->accept(sq, fabric::RemoteAddr{1, 0}, 1024, i).ok);
  }
  auto [cq, sq] = fabric.connect(client_node, server_node);
  (void)cq;
  EXPECT_FALSE(shard->accept(sq, fabric::RemoteAddr{1, 0}, 1024, 999).ok);
}

TEST_F(RawShardTest, FullRequestResponseThroughRawFrames) {
  auto conn = open_raw();
  proto::Request req;
  req.type = proto::MsgType::kPut;
  req.req_id = 42;
  req.key = "raw-key";
  req.value = "raw-value";
  send_request(conn, req);
  sched.run();
  auto resp = read_response(conn);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->req_id, 42u);
  EXPECT_EQ(resp->status, Status::kOk);
  EXPECT_EQ(shard->stats().puts, 1u);
  EXPECT_EQ(shard->stats().responses, 1u);

  req.type = proto::MsgType::kGet;
  req.req_id = 43;
  req.value.clear();
  send_request(conn, req);
  sched.run();
  resp = read_response(conn);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->value, "raw-value");
  EXPECT_TRUE(resp->remote_ptr.valid());
  EXPECT_EQ(resp->remote_ptr.rkey, conn.accept.arena_rkey);
}

TEST_F(RawShardTest, MalformedPayloadIsCountedAndSkipped) {
  auto conn = open_raw();
  // A valid frame whose payload is garbage.
  std::vector<std::byte> garbage(24, std::byte{0xEE});
  std::vector<std::byte> frame(proto::frame_size(garbage.size()));
  proto::encode_frame(frame, garbage);
  conn.qp->post_write(frame, conn.accept.req_slot);
  sched.run();
  EXPECT_EQ(shard->stats().malformed, 1u);
  EXPECT_EQ(shard->stats().responses, 0u);

  // The shard must still serve the next good request on the same slot.
  proto::Request req;
  req.type = proto::MsgType::kPut;
  req.req_id = 1;
  req.key = "k";
  req.value = "v";
  send_request(conn, req);
  sched.run();
  EXPECT_TRUE(read_response(conn).has_value());
}

TEST_F(RawShardTest, TornFrameWithLyingSizeFieldIsScrubbed) {
  auto conn = open_raw();
  // A head word whose size field claims more bytes than the slot holds:
  // the sweep must count it malformed and scrub the slot, never trusting
  // the size for reads or clears.
  std::vector<std::byte> torn(16);
  const std::uint64_t head = (static_cast<std::uint64_t>(proto::kHeadMagic) << 48) |
                             (1u << 20);  // 1 MiB "payload" in a 16 KiB slot
  std::memcpy(torn.data(), &head, 8);
  std::memcpy(torn.data() + 8, &proto::kTailIndicator, 8);
  conn.qp->post_write(torn, conn.accept.req_slot);
  sched.run();
  EXPECT_EQ(shard->stats().malformed, 1u);
  EXPECT_EQ(shard->stats().responses, 0u);

  // The slot is clean again: a well-formed request on it is served.
  proto::Request req;
  req.type = proto::MsgType::kPut;
  req.req_id = 2;
  req.key = "k";
  req.value = "v";
  send_request(conn, req);
  sched.run();
  auto resp = read_response(conn);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::kOk);
}

TEST_F(RawShardTest, RingAcceptGrantsClampedWindow) {
  auto [cq, sq] = fabric.connect(client_node, server_node);
  (void)cq;
  std::vector<std::byte> resp_buf(8 * 16 * 1024);
  auto* mr = fabric.node(client_node).register_memory(resp_buf);
  // Ask for more than the shard provisions: granted = ring_slots.
  auto res = shard->accept(sq, mr->addr(0), 16 * 1024, 1, /*window=*/64);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.window, shard->config().ring_slots);
  // Request slots are laid out ring_slots apart per connection.
  auto res2 = shard->accept(fabric.connect(client_node, server_node).second,
                            mr->addr(0), 16 * 1024, 2, /*window=*/2);
  ASSERT_TRUE(res2.ok);
  EXPECT_EQ(res2.window, 2u);
  EXPECT_EQ(res2.req_slot.offset - res.req_slot.offset,
            static_cast<std::uint64_t>(shard->config().ring_slots) *
                shard->config().msg_slot_bytes);
}

TEST_F(RawShardTest, UnknownMessageTypeRejected) {
  auto conn = open_raw();
  proto::Request req;
  req.type = static_cast<proto::MsgType>(200);
  req.req_id = 7;
  req.key = "k";
  send_request(conn, req);
  sched.run();
  auto resp = read_response(conn);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, Status::kInvalidArgument);
}

TEST_F(RawShardTest, BackgroundGcReclaimsAfterLeaseExpiry) {
  auto conn = open_raw();
  proto::Request req;
  req.type = proto::MsgType::kPut;
  req.key = "churn";
  for (int i = 0; i < 10; ++i) {
    req.req_id = static_cast<std::uint64_t>(i);
    req.value = "value-" + std::to_string(i);
    send_request(conn, req);
    // Bounded driving: keep virtual time well before the 1s leases so the
    // background GC cannot fire yet.
    sched.run_until(sched.now() + 100 * kMicrosecond);
    ASSERT_TRUE(read_response(conn).has_value());
  }
  EXPECT_EQ(shard->store().deferred_count(), 9u);  // 9 retired versions
  // The shard's GC actor wakes after the (cold-key) leases lapse.
  sched.run_until(sched.now() + 70 * kSecond);
  EXPECT_EQ(shard->store().deferred_count(), 0u);
  EXPECT_EQ(shard->store().stats().reclaimed_items, 9u);
  EXPECT_EQ(shard->store().size(), 1u);
}

TEST_F(RawShardTest, BusyTimeAccumulates) {
  auto conn = open_raw();
  proto::Request req;
  req.type = proto::MsgType::kPut;
  req.req_id = 1;
  req.key = "k";
  req.value = "v";
  send_request(conn, req);
  sched.run();
  EXPECT_GT(shard->stats().busy_time, shard->config().cpu.base_put);
}

// ------------------------------------------------------------ client

db::ClusterOptions tiny() {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.shard_template.store.arena_bytes = 8 << 20;
  return opts;
}

// The response region is sized for every connection a client may open --
// by default 128 blocks x 8 slots x 16 KiB = 16 MiB, 4096 pages -- but it
// is demand-zero: only the pages responses land in become resident, and
// dropping a connection hands its block's pages back.
TEST(ClientUnit, ResponseRegionHoldsOnlyThePagesResponsesTouched) {
  auto opts = tiny();
  opts.shards_per_node = 3;
  db::HydraCluster cluster(opts);
  auto* c = cluster.clients()[0];
  const client::ClientConfig defaults;
  ASSERT_EQ(c->config().window, defaults.window);
  ASSERT_EQ(c->config().resp_slot_bytes, defaults.resp_slot_bytes);
  ASSERT_EQ(c->config().max_shard_connections, defaults.max_shard_connections);

  // Enough concurrent puts per shard to fill every slot of its ring.
  std::map<ShardId, std::vector<std::string>> keys;
  auto covered = [&keys] {
    return keys.size() == 3 && std::all_of(keys.begin(), keys.end(), [](const auto& kv) {
             return kv.second.size() == 16;
           });
  };
  for (std::uint64_t i = 0; !covered(); ++i) {
    ASSERT_LT(i, 10'000u) << "keys never covered all three shards";
    std::string key = format_key(i);
    auto& list = keys[cluster.owner_of(key)];
    if (list.size() < 16) list.push_back(std::move(key));
  }
  int completed = 0;
  for (const auto& [shard, list] : keys) {
    for (const auto& key : list) {
      c->put(key, "v", [&](Status s) {
        EXPECT_EQ(s, Status::kOk);
        ++completed;
      });
    }
  }
  cluster.run_for(50 * kMillisecond);
  ASSERT_EQ(completed, 48);

  const auto& region = c->response_region();
  const std::size_t stride =
      static_cast<std::size_t>(defaults.window) * defaults.resp_slot_bytes;
  ASSERT_EQ(region.length(), stride * defaults.max_shard_connections);
  auto resident_per_block = [&] {
    std::vector<std::size_t> pages(defaults.max_shard_connections);
    for (std::size_t b = 0; b < pages.size(); ++b) {
      pages[b] = test::resident_pages(region.base() + b * stride, stride);
    }
    return pages;
  };
  const auto before = resident_per_block();
  const std::size_t total = std::accumulate(before.begin(), before.end(), std::size_t{0});
  // A put's response frame is far below a page: each used slot holds at
  // most its first page.
  constexpr std::size_t kPagesPerSlot = 1;
  EXPECT_LE(total, 3 * defaults.window * kPagesPerSlot)
      << "response pages were faulted in that no response touched";
  EXPECT_GE(total, 3u);
  EXPECT_EQ(std::count_if(before.begin(), before.end(), [](std::size_t p) { return p > 0; }),
            3);

  c->invalidate_connection(keys.begin()->first);
  const auto after = resident_per_block();
  int released = 0;
  for (std::size_t b = 0; b < before.size(); ++b) {
    if (before[b] > 0 && after[b] == 0) {
      ++released;
    } else {
      EXPECT_EQ(after[b], before[b]) << "block " << b;
    }
  }
  EXPECT_EQ(released, 1) << "the dropped connection's block must leave RAM";
}

TEST(ClientUnit, ResolverlessClientFailsFast) {
  sim::Scheduler sched;
  fabric::Fabric fabric{sched};
  const NodeId n = fabric.add_node("c").id();
  client::Client c(sched, fabric, n, client::ClientConfig{});
  Status status = Status::kOk;
  c.get("anything", [&](Status s, std::string_view) { status = s; });
  sched.run();
  EXPECT_EQ(status, Status::kDisconnected);
}

TEST(ClientUnit, OpsQueuePerConnectionAndAllComplete) {
  db::HydraCluster cluster(tiny());
  auto* c = cluster.clients()[0];
  int completed = 0;
  // Burst of 20 ops to one shard: one outstanding, rest queue FIFO.
  for (int i = 0; i < 20; ++i) {
    c->put(format_key(static_cast<std::uint64_t>(i)), "v", [&](Status s) {
      EXPECT_EQ(s, Status::kOk);
      ++completed;
    });
  }
  cluster.run_for(50 * kMillisecond);
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(c->stats().puts, 20u);
}

TEST(ClientUnit, GetLatencyHistogramPopulated) {
  db::HydraCluster cluster(tiny());
  cluster.put("k", "v");
  for (int i = 0; i < 10; ++i) cluster.get("k");
  const auto& hist = cluster.clients()[0]->stats().get_latency;
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_GT(hist.mean(), 0.0);
  EXPECT_GE(hist.max(), hist.percentile(50));
}

TEST(ClientUnit, RenewLeaseRefreshesCachedPointer) {
  db::HydraCluster cluster(tiny());
  cluster.put("k", "v");
  ASSERT_TRUE(cluster.get("k").has_value());  // pointer cached
  auto* c = cluster.clients()[0];
  client::CachedPtr before;
  ASSERT_TRUE(c->pointer_cache().get(hash_key("k"), &before));

  // Renew later; the refreshed pointer must carry a longer lease.
  cluster.run_for(500 * kMillisecond);
  Status status = Status::kTimeout;
  c->renew_lease("k", [&](Status s) { status = s; });
  cluster.run_for(10 * kMillisecond);
  EXPECT_EQ(status, Status::kOk);
  client::CachedPtr after;
  ASSERT_TRUE(c->pointer_cache().get(hash_key("k"), &after));
  EXPECT_GT(after.primary.lease_expiry, before.primary.lease_expiry);
}

// Boundary audit of the lease check guarding one-sided reads. The client
// assumes a read takes up to lease_safety_margin to complete, so the
// contract is strict: a lease with expiry > now + margin may be read; one
// expiring EXACTLY at now + margin counts as expired (the read could land
// at the instant the server reclaims the item) and must take the message
// path. This pins `>` so a refactor to `>=` fails loudly.
TEST(ClientUnit, LeaseExpiringExactlyAtMarginTakesMessagePath) {
  auto opts = tiny();
  opts.client_template.auto_renew = false;  // nothing may silently extend leases
  db::HydraCluster cluster(opts);
  auto* c = cluster.clients()[0];
  const Duration margin = opts.client_template.lease_safety_margin;

  // --- one tick inside the boundary: the read is allowed -------------------
  cluster.put("k", "v");
  ASSERT_TRUE(cluster.get("k").has_value());  // mints + caches the pointer
  client::CachedPtr cached;
  ASSERT_TRUE(c->pointer_cache().get(hash_key("k"), &cached));
  const proto::RemotePtr ptr = cached.primary;
  ASSERT_GT(ptr.lease_expiry, cluster.scheduler().now() + margin);

  cluster.scheduler().run_until(ptr.lease_expiry - margin - 1);
  const auto hits_before = c->stats().ptr_hits;
  ASSERT_EQ(*cluster.get("k"), "v");
  EXPECT_EQ(c->stats().ptr_hits, hits_before + 1)
      << "a lease with margin + 1ns remaining must still be RDMA-readable";

  // --- exactly at the boundary: the read is forbidden ----------------------
  cluster.put("k2", "v2");
  ASSERT_TRUE(cluster.get("k2").has_value());
  client::CachedPtr cached2;
  ASSERT_TRUE(c->pointer_cache().get(hash_key("k2"), &cached2));
  const proto::RemotePtr ptr2 = cached2.primary;
  ASSERT_GT(ptr2.lease_expiry, cluster.scheduler().now() + margin);

  cluster.scheduler().run_until(ptr2.lease_expiry - margin);
  const auto hits2 = c->stats().ptr_hits;
  const auto misses2 = c->stats().ptr_misses;
  Status st = Status::kTimeout;
  std::string val;
  c->get("k2", [&](Status s, std::string_view v) {
    st = s;
    val = std::string(v);
  });
  cluster.run_for(10 * kMillisecond);
  EXPECT_EQ(st, Status::kOk);  // the message-path fallback still answers
  EXPECT_EQ(val, "v2");
  EXPECT_EQ(c->stats().ptr_hits, hits2)
      << "read posted against a lease expiring exactly at now + margin";
  EXPECT_EQ(c->stats().ptr_misses, misses2 + 1);
}

TEST(ClientUnit, TimeoutAgainstDeadClusterGivesUpWithStatus) {
  auto opts = tiny();
  opts.client_template.request_timeout = 200 * kMicrosecond;
  opts.client_template.max_retries = 2;
  db::HydraCluster cluster(opts);
  cluster.put("k", "v");  // establish the connection first
  cluster.shard(0)->kill();

  Status status = Status::kOk;
  bool done = false;
  cluster.clients()[0]->put("k2", "v2", [&](Status s) {
    status = s;
    done = true;
  });
  cluster.run_for(10 * kMillisecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(status, Status::kTimeout);
  EXPECT_GT(cluster.clients()[0]->stats().timeouts, 0u);
  EXPECT_GT(cluster.clients()[0]->stats().failures, 0u);
}

TEST(ClientUnit, OversizedRequestRejectedLocally) {
  db::HydraCluster cluster(tiny());  // 16 KiB slots
  Status status = Status::kOk;
  cluster.clients()[0]->put("k", std::string(64 * 1024, 'x'),
                            [&](Status s) { status = s; });
  cluster.run_for(10 * kMillisecond);
  EXPECT_EQ(status, Status::kInvalidArgument);
}

TEST(ClientUnit, AutoRenewKeepsHotPointerAlive) {
  auto opts = tiny();
  opts.client_template.auto_renew = true;
  db::HydraCluster cluster(opts);
  cluster.put("hot", "v");
  ASSERT_TRUE(cluster.get("hot").has_value());
  auto* c = cluster.clients()[0];

  // Keep reading across lease boundaries; auto-renew should fire and the
  // vast majority of reads stay on the RDMA path.
  for (int i = 0; i < 40; ++i) {
    cluster.run_for(300 * kMillisecond);
    ASSERT_TRUE(cluster.get("hot").has_value());
  }
  EXPECT_GT(c->stats().renews_sent, 0u);
  EXPECT_GT(c->stats().ptr_hits, 30u);
}

TEST(ClientUnit, SharedCacheCountsAreCoherent) {
  auto opts = tiny();
  opts.clients_per_node = 3;
  db::HydraCluster cluster(opts);
  cluster.put("k", "v", 0);
  ASSERT_TRUE(cluster.get("k", 0).has_value());
  // All three clients share one cache object.
  auto& cache0 = cluster.clients()[0]->pointer_cache();
  auto& cache1 = cluster.clients()[1]->pointer_cache();
  EXPECT_EQ(&cache0, &cache1);
  EXPECT_EQ(cache0.size(), 1u);
}

}  // namespace
}  // namespace hydra
