// Multi-slot request-ring tests: window=1 equivalence with the closed-loop
// wire contract, slot wraparound, out-of-order response completion,
// per-slot timeout salvage + retry, and the pipelining/doorbell-batching
// payoff. The out-of-order and timeout cases use a hand-rolled fake shard
// (a channel of one onto a bare memory region, no server logic) so the test
// controls exactly when and in what order responses land.
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.hpp"
#include "common/keygen.hpp"
#include "fabric/fabric.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"

namespace hydra {
namespace {

// ------------------------------------------------------------ golden run

struct GoldenResult {
  Time now = 0;
  std::uint64_t c0_gets = 0, c0_puts = 0, c1_gets = 0, c1_puts = 0;
  double c0_get_mean = 0, c0_put_mean = 0, c1_get_mean = 0, c1_put_mean = 0;
  Duration c0_get_max = 0, c1_get_max = 0;
  std::uint64_t shard_gets = 0, shard_puts = 0, shard_responses = 0;
  Duration shard_busy = 0;
  std::uint64_t batched = 0;
  std::uint32_t max_in_flight = 0;
};

/// A small deterministic mixed GET/PUT trace over 2 clients and 1 shard on
/// the message path, identical to the run used to capture the pre-ring
/// seed's behaviour.
GoldenResult run_golden(std::uint32_t window) {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 2;
  opts.enable_swat = false;
  opts.client_rdma_read = false;
  opts.client_template.window = window;
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);

  for (int i = 0; i < 16; ++i)
    cluster.direct_load(format_key(static_cast<std::uint64_t>(i)), "seed-value");

  int done = 0;
  for (int c = 0; c < 2; ++c) {
    auto* cl = cluster.clients()[static_cast<std::size_t>(c)];
    for (int i = 0; i < 24; ++i) {
      const auto k = format_key(static_cast<std::uint64_t>(i % 16));
      if (i % 3 == 0) {
        cl->put(k, "v" + std::to_string(i), [&](Status) { ++done; });
      } else {
        cl->get(k, [&](Status, std::string_view) { ++done; });
      }
    }
  }
  while (done < 48 && cluster.scheduler().step()) {
  }

  GoldenResult g;
  g.now = cluster.scheduler().now();
  const auto& s0 = cluster.clients()[0]->stats();
  const auto& s1 = cluster.clients()[1]->stats();
  g.c0_gets = s0.gets;
  g.c0_puts = s0.puts;
  g.c1_gets = s1.gets;
  g.c1_puts = s1.puts;
  g.c0_get_mean = s0.get_latency.mean();
  g.c0_put_mean = s0.put_latency.mean();
  g.c1_get_mean = s1.get_latency.mean();
  g.c1_put_mean = s1.put_latency.mean();
  g.c0_get_max = s0.get_latency.max();
  g.c1_get_max = s1.get_latency.max();
  g.max_in_flight = std::max(s0.max_in_flight, s1.max_in_flight);
  const auto& sh = cluster.shard(0)->stats();
  g.shard_gets = sh.gets;
  g.shard_puts = sh.puts;
  g.shard_responses = sh.responses;
  g.shard_busy = sh.busy_time;
  g.batched = sh.batched_responses;
  return g;
}

// The exact numbers the pre-ring seed produced on this trace (captured by
// running the identical scenario against the seed build), moved only by the
// 8-byte MuxHeader envelope every request now carries (1.6 ns more wire
// time per request; the seed with its requests padded by 8 bytes gives
// these same numbers). window=1 must reproduce the closed-loop wire
// behaviour event-for-event.
TEST(RequestRing, WindowOneMatchesSeedClosedLoopExactly) {
  const GoldenResult g = run_golden(1);
  EXPECT_EQ(g.now, 54678u);
  EXPECT_EQ(g.c0_gets, 16u);
  EXPECT_EQ(g.c0_puts, 8u);
  EXPECT_EQ(g.c1_gets, 16u);
  EXPECT_EQ(g.c1_puts, 8u);
  EXPECT_DOUBLE_EQ(g.c0_get_mean, 29144.5);
  EXPECT_DOUBLE_EQ(g.c0_put_mean, 26070.25);
  EXPECT_DOUBLE_EQ(g.c1_get_mean, 30284.5);
  EXPECT_DOUBLE_EQ(g.c1_put_mean, 27210.25);
  EXPECT_EQ(g.c0_get_max, 53538u);
  EXPECT_EQ(g.c1_get_max, 54678u);
  EXPECT_EQ(g.shard_gets, 32u);
  EXPECT_EQ(g.shard_puts, 16u);
  EXPECT_EQ(g.shard_responses, 48u);
  EXPECT_EQ(g.shard_busy, 37786u);
  EXPECT_EQ(g.max_in_flight, 1u);
  EXPECT_EQ(g.batched, 0u);  // one request per sweep: nothing to batch
}

TEST(RequestRing, WindowEightPipelinesAndBatchesDoorbells) {
  const GoldenResult g1 = run_golden(1);
  const GoldenResult g8 = run_golden(8);
  // Same work completed...
  EXPECT_EQ(g8.shard_responses, 48u);
  EXPECT_EQ(g8.c0_gets + g8.c1_gets, 32u);
  EXPECT_EQ(g8.c0_puts + g8.c1_puts, 16u);
  // ...but overlapped: the run finishes far sooner, the ring actually
  // fills, and most responses share a sweep's doorbell, which also trims
  // the shard's per-op CPU time.
  EXPECT_LT(g8.now, (g1.now * 3) / 4);
  EXPECT_EQ(g8.max_in_flight, 8u);
  EXPECT_GT(g8.batched, 20u);
  EXPECT_LT(g8.shard_busy, g1.shard_busy);
}

TEST(RequestRing, SlotsWrapAroundManyTimes) {
  // 64 ops through a window of 2: each ring slot is reused ~16 times and
  // the overflow queue drains in arrival order.
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.client_rdma_read = false;
  opts.client_template.window = 2;
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);

  auto* c = cluster.clients()[0];
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    c->put(format_key(static_cast<std::uint64_t>(i)), "v", [&](Status s) {
      EXPECT_EQ(s, Status::kOk);
      ++completed;
    });
  }
  cluster.run_for(50 * kMillisecond);
  EXPECT_EQ(completed, 64);
  EXPECT_EQ(c->stats().puts, 64u);
  EXPECT_EQ(c->stats().max_in_flight, 2u);
  EXPECT_EQ(c->stats().timeouts, 0u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(cluster.get(format_key(static_cast<std::uint64_t>(i))).has_value());
  }
}

TEST(RequestRing, OneConnectionExecutesInIssueOrderAcrossRingWraps) {
  // Eleven back-to-back PUTs of one key through a window of 8 wrap the
  // request ring mid-burst. The shard must still execute them in issue
  // order, so a GET after the last ack reads the eleventh value.
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.client_rdma_read = false;
  opts.client_template.window = 8;
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);
  sim::Scheduler& sched = cluster.scheduler();

  auto* c = cluster.clients()[0];
  constexpr int kPuts = 11;
  int stale = 0;
  for (int k = 0; k < 20; ++k) {
    const std::string key = format_key(static_cast<std::uint64_t>(k));
    int acked = 0;
    for (int i = 0; i < kPuts; ++i) {
      c->put(key, "v" + std::to_string(i), [&](Status s) {
        EXPECT_EQ(s, Status::kOk);
        ++acked;
      });
    }
    while (acked < kPuts && sched.step()) {
    }
    std::string got;
    bool done = false;
    c->get(key, [&](Status, std::string_view v) {
      got = v;
      done = true;
    });
    while (!done && sched.step()) {
    }
    if (got != "v" + std::to_string(kPuts - 1)) ++stale;
  }
  EXPECT_EQ(stale, 0);
}

// ------------------------------------------------------------ fake shard

/// Test double for the server side of one connection: grants the client a
/// channel of one (a request ring behind its own QP, carrying one
/// endpoint), records arriving requests with the response slot their
/// envelope names, and lets the test write response frames into the
/// client's response ring in any order it likes.
class FakeShard {
 public:
  FakeShard(sim::Scheduler& sched, fabric::Fabric& fabric, NodeId server_node)
      : sched_(sched), fabric_(fabric), node_(server_node) {}

  /// Wires a Client to this fake: grants the full requested window.
  client::Client::Connector connector() {
    return [this](ShardId shard, client::Client& self, fabric::RemoteAddr resp_slot,
                  std::uint32_t resp_slot_bytes, std::uint32_t window,
                  client::ShardConnection* out) {
      if (refuse_connections) return false;
      ++accepts;
      resp_base_ = resp_slot;
      resp_bytes_ = resp_slot_bytes;
      window_ = window;
      if (mux_ == nullptr) open_pool(self.node());
      const client::ChannelKey key{shard, self.id()};
      client::NodeMux::Channel* ch = mux_->channel_to(key);
      if (ch == nullptr) return false;
      out->qp = ch->wire.qp;
      out->req_slot_bytes = ch->wire.slot_bytes;
      out->window = window;
      out->endpoint = kEndpoint;
      out->channel = key;
      out->mux_generation = ch->generation;
      out->mux_node = mux_.get();
      return true;
    };
  }

  /// Writes a response for `requests[i]` into the matching resp-ring slot.
  void respond(std::size_t i, Status status = Status::kOk,
               const std::string& value = {}) {
    const auto& [req, slot] = requests.at(i);
    proto::Response resp;
    resp.req_id = req.req_id;
    resp.status = status;
    resp.value = value;
    const auto payload = proto::encode_response(resp);
    std::vector<std::byte> frame(proto::frame_size(payload.size()));
    proto::encode_frame(frame, payload);
    sq_->post_write(frame, fabric::RemoteAddr{resp_base_.rkey,
                                              resp_base_.offset +
                                                  proto::ring_slot_offset(slot, resp_bytes_)});
  }

  struct Arrived {
    proto::Request req;
    std::uint32_t slot = 0;  ///< the response slot the envelope names
  };
  std::vector<Arrived> requests;
  int accepts = 0;
  bool refuse_connections = false;

 private:
  static constexpr std::uint32_t kSlotBytes = 4096;
  static constexpr std::uint32_t kEndpoint = 7;

  /// The client node's channel pool; each channel opens a fresh ring.
  void open_pool(NodeId client_node) {
    mux_ = std::make_unique<client::NodeMux>(sched_, client_node, client::NodeMuxConfig{});
    mux_->set_opener([this, client_node](client::ChannelKey, client::NodeMux::MuxWire* out) {
      // Rings of closed channels stay allocated under their revoked regions.
      std::vector<std::byte>& ring = rings_.emplace_back(
          static_cast<std::size_t>(window_) * kSlotBytes, std::byte{0});
      ring_mr_ = fabric_.node(node_).register_memory(ring);
      ring_mr_->set_write_hook([this, &ring](std::uint64_t offset, std::uint32_t) {
        const std::uint32_t slot = proto::ring_slot_of(offset, kSlotBytes);
        const std::span<std::byte> span{ring.data() + proto::ring_slot_offset(slot, kSlotBytes),
                                        kSlotBytes};
        if (proto::probe_frame(span) != proto::FrameState::kReady) return;
        const auto payload = proto::frame_payload(span);
        const auto hdr = proto::decode_mux_header(payload);
        auto req = proto::decode_request(proto::mux_request_body(payload));
        proto::clear_frame(span);
        ASSERT_TRUE(hdr.has_value());
        ASSERT_TRUE(req.has_value());
        EXPECT_EQ(hdr->endpoint, kEndpoint);
        requests.push_back({*req, hdr->resp_slot});
      });
      auto [cq, sq] = fabric_.connect(client_node, node_);
      sq_ = sq;
      out->qp = cq;
      out->req_ring = ring_mr_->addr(0);
      out->slot_bytes = kSlotBytes;
      out->ring_slots = window_;
      out->qp_generation = cq->generation();
      return true;
    });
    mux_->set_closer([this](client::ChannelKey, const client::NodeMux::MuxWire& wire) {
      ring_mr_->revoke();
      if (wire.qp->open() && wire.qp->generation() == wire.qp_generation) {
        fabric_.disconnect(wire.qp);
      }
    });
  }

  sim::Scheduler& sched_;
  fabric::Fabric& fabric_;
  NodeId node_;
  std::unique_ptr<client::NodeMux> mux_;
  std::uint32_t window_ = 1;
  std::deque<std::vector<std::byte>> rings_;
  fabric::MemoryRegion* ring_mr_ = nullptr;
  fabric::QueuePair* sq_ = nullptr;
  fabric::RemoteAddr resp_base_{};
  std::uint32_t resp_bytes_ = 0;
};

class FakeShardTest : public ::testing::Test {
 protected:
  FakeShardTest() {
    server_node = fabric.add_node("server").id();
    client_node = fabric.add_node("client").id();
    fake = std::make_unique<FakeShard>(sched, fabric, server_node);
  }

  std::unique_ptr<client::Client> make_client(client::ClientConfig cfg) {
    cfg.use_rdma_read = false;
    auto c = std::make_unique<client::Client>(sched, fabric, client_node, cfg);
    c->set_resolver([](std::uint64_t) { return ShardId{0}; });
    c->set_connector(fake->connector());
    return c;
  }

  sim::Scheduler sched;
  fabric::Fabric fabric{sched};
  NodeId server_node = 0;
  NodeId client_node = 0;
  std::unique_ptr<FakeShard> fake;
};

TEST_F(FakeShardTest, OutOfOrderResponsesCompleteTheRightOps) {
  client::ClientConfig cfg;
  cfg.window = 4;
  auto c = make_client(cfg);

  std::vector<std::string> got(3);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    c->get("key-" + std::to_string(i), [&, i](Status s, std::string_view v) {
      EXPECT_EQ(s, Status::kOk);
      got[static_cast<std::size_t>(i)] = std::string(v);
      ++done;
    });
  }
  sched.run_until(sched.now() + 100 * kMicrosecond);
  ASSERT_EQ(fake->requests.size(), 3u);
  // Distinct ring slots, ascending req_ids.
  EXPECT_EQ(fake->requests[0].slot, 0u);
  EXPECT_EQ(fake->requests[1].slot, 1u);
  EXPECT_EQ(fake->requests[2].slot, 2u);

  // Answer in reverse order: each response must find its own op by req_id.
  fake->respond(2, Status::kOk, "value-2");
  fake->respond(1, Status::kOk, "value-1");
  fake->respond(0, Status::kOk, "value-0");
  sched.run_until(sched.now() + 100 * kMicrosecond);

  EXPECT_EQ(done, 3);
  EXPECT_EQ(got[0], "value-0");
  EXPECT_EQ(got[1], "value-1");
  EXPECT_EQ(got[2], "value-2");
  // The first two completions were not the oldest in-flight request.
  EXPECT_EQ(c->stats().ooo_responses, 2u);
  EXPECT_EQ(c->stats().timeouts, 0u);
}

TEST_F(FakeShardTest, TimeoutSalvagesAllSlotsAndRetriesSucceed) {
  client::ClientConfig cfg;
  cfg.window = 4;
  cfg.request_timeout = 200 * kMicrosecond;
  auto c = make_client(cfg);

  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    c->get("key-" + std::to_string(i),
           [&](Status s, std::string_view) { ok += s == Status::kOk; });
  }
  sched.run_until(sched.now() + 100 * kMicrosecond);
  ASSERT_EQ(fake->requests.size(), 4u);  // all four slots in flight

  // Answer nothing: the first slot's timeout fires, salvages every
  // in-flight op, drops the connection and reissues over a fresh one.
  // (250 us = one timeout + the retry backoff, but short of a second round.)
  sched.run_until(sched.now() + 250 * kMicrosecond);
  EXPECT_EQ(c->stats().timeouts, 1u);  // one salvage, not four
  EXPECT_EQ(c->stats().retries, 4u);
  ASSERT_EQ(fake->requests.size(), 8u);  // 4 originals + 4 reissues
  EXPECT_EQ(fake->accepts, 2);

  // Serve the retries; every op must complete Ok with no failures.
  for (std::size_t i = 4; i < 8; ++i) fake->respond(i);
  sched.run_until(sched.now() + 100 * kMicrosecond);
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(c->stats().failures, 0u);
}

TEST_F(FakeShardTest, RetriesExhaustToTimeoutStatus) {
  client::ClientConfig cfg;
  cfg.window = 2;
  cfg.request_timeout = 200 * kMicrosecond;
  cfg.max_retries = 2;
  auto c = make_client(cfg);

  int timed_out = 0;
  c->get("k", [&](Status s, std::string_view) { timed_out += s == Status::kTimeout; });
  sched.run_until(sched.now() + 50 * kMicrosecond);
  fake->refuse_connections = true;  // no shard to retry against
  sched.run();
  EXPECT_EQ(timed_out, 1);
  EXPECT_GT(c->stats().timeouts, 0u);
  EXPECT_GT(c->stats().failures, 0u);
}

TEST_F(FakeShardTest, QueueBeyondWindowDrainsInOrder) {
  client::ClientConfig cfg;
  cfg.window = 2;
  auto c = make_client(cfg);

  for (int i = 0; i < 6; ++i) {
    c->get("key-" + std::to_string(i), [](Status, std::string_view) {});
  }
  sched.run_until(sched.now() + 100 * kMicrosecond);
  // Only the window may be on the wire; the rest wait client-side.
  ASSERT_EQ(fake->requests.size(), 2u);
  EXPECT_EQ(c->stats().max_in_flight, 2u);

  // Completing slot 0 admits exactly one queued op, into the freed slot.
  fake->respond(0);
  sched.run_until(sched.now() + 100 * kMicrosecond);
  ASSERT_EQ(fake->requests.size(), 3u);
  EXPECT_EQ(fake->requests[2].req.key, "key-2");
  EXPECT_EQ(fake->requests[2].slot, 0u);
}

}  // namespace
}  // namespace hydra
