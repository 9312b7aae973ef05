// Connection-scalability tests (DESIGN.md §10): QP multiplexing over shared
// request rings, per-client channels of one, lazy channel establishment,
// idle/failure reclamation, live-connection admission, and the index-driven
// dirty scheduler's O(active)-per-wakeup guarantee with tens of thousands of
// registered connections.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/keygen.hpp"
#include "fabric/fabric.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "server/dirty_scheduler.hpp"
#include "server/shard.hpp"

namespace hydra {
namespace {

// --------------------------------------------------- dirty scheduler unit

TEST(DirtyScheduler, FifoDedupAndBoundsCheck) {
  server::DirtyScheduler d;
  ASSERT_EQ(d.add_endpoint(), 0u);
  ASSERT_EQ(d.add_endpoint(), 1u);
  ASSERT_EQ(d.add_endpoint(), 2u);
  EXPECT_EQ(d.endpoints(), 3u);
  EXPECT_TRUE(d.empty());

  // Out-of-range marks are ignored (a write past the registered endpoints).
  EXPECT_FALSE(d.mark(3));
  EXPECT_FALSE(d.mark(0xffffffffu));
  EXPECT_TRUE(d.empty());

  // FIFO order, duplicates suppressed while queued.
  EXPECT_TRUE(d.mark(2));
  EXPECT_TRUE(d.mark(0));
  EXPECT_FALSE(d.mark(2));  // already queued
  EXPECT_EQ(d.active(), 2u);
  EXPECT_EQ(d.pop(), 2u);
  EXPECT_EQ(d.pop(), 0u);
  EXPECT_TRUE(d.empty());
}

TEST(DirtyScheduler, RemarkAfterPopRequeues) {
  server::DirtyScheduler d;
  d.add_endpoint();
  EXPECT_TRUE(d.mark(0));
  EXPECT_EQ(d.pop(), 0u);
  // The flag cleared on pop: traffic landing during the sweep re-queues.
  EXPECT_TRUE(d.mark(0));
  EXPECT_EQ(d.pop(), 0u);
  EXPECT_TRUE(d.empty());
}

// Property check: seeded-random add/mark/pop/deregister/reactivate
// sequences cross-checked step-by-step against a naive reference model.
// Pins the fairness contract (FIFO sweep order), no lost dirty marks, no
// duplicate queueing, and no resurrection of a deregistered endpoint.
TEST(DirtyScheduler, RandomSequencesMatchNaiveModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    server::DirtyScheduler d;
    std::vector<bool> queued, dead;    // the naive model
    std::deque<std::uint32_t> order;   // model FIFO of dirty ids
    std::uint32_t endpoints = 0;
    for (int step = 0; step < 2000; ++step) {
      switch (rng.below(10)) {
        case 0: {  // register
          ASSERT_EQ(d.add_endpoint(), endpoints) << "seed " << seed;
          ++endpoints;
          queued.push_back(false);
          dead.push_back(false);
          break;
        }
        case 1: {  // deregister (often out of range or already dead)
          const auto id = static_cast<std::uint32_t>(rng.below(endpoints + 2));
          d.deregister(id);
          if (id < endpoints && !dead[id]) {
            dead[id] = true;
            if (queued[id]) {
              queued[id] = false;
              order.erase(std::find(order.begin(), order.end(), id));
            }
          }
          break;
        }
        case 2: {  // reactivate
          const auto id = static_cast<std::uint32_t>(rng.below(endpoints + 2));
          d.reactivate(id);
          if (id < endpoints) dead[id] = false;
          break;
        }
        case 3:
        case 4: {  // sweep one
          if (order.empty()) {
            ASSERT_TRUE(d.empty()) << "seed " << seed << " step " << step;
            break;
          }
          const std::uint32_t want = order.front();
          order.pop_front();
          queued[want] = false;
          ASSERT_FALSE(d.empty()) << "seed " << seed << " step " << step;
          ASSERT_EQ(d.pop(), want) << "seed " << seed << " step " << step;
          break;
        }
        default: {  // mark (the hot path; ids sometimes out of range)
          const auto id = static_cast<std::uint32_t>(rng.below(endpoints + 2));
          const bool expect_newly = id < endpoints && !queued[id] && !dead[id];
          ASSERT_EQ(d.mark(id), expect_newly)
              << "seed " << seed << " step " << step << " id " << id;
          if (expect_newly) {
            queued[id] = true;
            order.push_back(id);
          }
          break;
        }
      }
      ASSERT_EQ(d.active(), order.size()) << "seed " << seed << " step " << step;
      ASSERT_EQ(d.empty(), order.empty()) << "seed " << seed << " step " << step;
    }
    // Drain: every queued mark must surface exactly once, in FIFO order,
    // and nothing dead may come out.
    while (!order.empty()) {
      const std::uint32_t want = order.front();
      order.pop_front();
      EXPECT_FALSE(dead[want]) << "seed " << seed;
      ASSERT_FALSE(d.empty()) << "seed " << seed;
      ASSERT_EQ(d.pop(), want) << "seed " << seed;
    }
    EXPECT_TRUE(d.empty()) << "seed " << seed;
  }
}

// --------------------------------------------------------- mux end to end

struct MuxRunResult {
  std::uint64_t qp_connects = 0;
  std::uint64_t mux_requests = 0;
  std::uint64_t channels_opened = 0;
};

/// 50 clients on 2 nodes against 2 shards; every client writes and reads
/// back 4 keys. Returns the connection census for the chosen wiring.
MuxRunResult run_fifty_clients(bool mux) {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 2;
  opts.client_nodes = 2;
  opts.clients_per_node = 25;
  opts.enable_swat = false;
  opts.mux_connections = mux;
  // Long enough that the reaper never fires mid-test; idle reclamation has
  // its own test below.
  opts.mux.idle_timeout = kSecond;
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);

  for (int c = 0; c < 50; ++c) {
    for (int j = 0; j < 4; ++j) {
      const auto k = format_key(static_cast<std::uint64_t>(c + 50 * j));
      EXPECT_EQ(cluster.put(k, "v-" + k, c), Status::kOk);
    }
  }
  for (int c = 0; c < 50; ++c) {
    for (int j = 0; j < 4; ++j) {
      const auto k = format_key(static_cast<std::uint64_t>(c + 50 * j));
      auto got = cluster.get(k, c);
      EXPECT_TRUE(got.has_value()) << k;
      if (got.has_value()) EXPECT_EQ(*got, "v-" + k);
    }
  }

  MuxRunResult r;
  r.qp_connects = cluster.fabric().stats().qp_connects;
  for (ShardId s = 0; s < cluster.shard_count(); ++s) {
    r.mux_requests += cluster.shard(s)->stats().mux_requests;
  }
  for (int n = 0; n < opts.client_nodes; ++n) {
    if (auto* m = cluster.node_mux(n)) r.channels_opened += m->stats().channels_opened;
  }
  return r;
}

TEST(ConnScale, MuxSharesOneQpPerNodeShardPair) {
  const MuxRunResult per_client = run_fifty_clients(false);
  const MuxRunResult muxed = run_fifty_clients(true);

  // Per-client wiring: a channel of one (its own QP) per client per shard
  // it talks to -- at least one per client -- and every one of the 400
  // requests rides a group ring in its envelope. Mux wiring: at most
  // client_nodes x shards shared QPs.
  EXPECT_GE(per_client.qp_connects, 50u);
  EXPECT_GE(per_client.channels_opened, 50u);
  EXPECT_EQ(per_client.mux_requests, 400u);
  EXPECT_LE(muxed.qp_connects, 4u);
  EXPECT_GT(muxed.mux_requests, 0u);
  EXPECT_GE(muxed.channels_opened, 2u);
  EXPECT_LE(muxed.channels_opened, 4u);
}

// ------------------------------------------------------- idle reclamation

TEST(ConnScale, IdleChannelReclaimedAndLazilyReopened) {
  obs::Plane plane;
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.mux_connections = true;  // default mux config: 10 ms idle timeout
  opts.shard_template.store.arena_bytes = 8 << 20;
  opts.obs = &plane;
  db::HydraCluster cluster(opts);

  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);
  EXPECT_EQ(cluster.fabric().live_qp_pairs(), 1u);  // the one shared channel

  // Nothing talks for 100 ms: the reaper must close the channel and return
  // its QP to the fabric pool, dropping the NIC's census back to zero.
  cluster.run_for(100 * kMillisecond);
  ASSERT_NE(cluster.node_mux(0), nullptr);
  EXPECT_GE(cluster.node_mux(0)->stats().reclaimed_idle, 1u);
  EXPECT_EQ(cluster.fabric().live_qp_pairs(), 0u);
  EXPECT_GE(plane.query().count(obs::TraceKind::kMuxChannelReclaimed), 1u);

  // The next op re-establishes lazily -- and reuses the pooled QP slot.
  auto got = cluster.get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "v");
  EXPECT_GE(cluster.fabric().stats().qp_slot_reuses, 1u);
  EXPECT_GE(cluster.node_mux(0)->stats().channels_opened, 2u);
}

// A client whose GETs to a shard are all pointer hits posts only one-sided
// reads on its channel's QP. Each read stamps the channel, so the idle
// reaper leaves it be: no reclaim, no flushed read, no message-path GET.
// Unstamped, the channel would be reaped one idle timeout after warm-up and
// the next read would find it stale and fall back to a message GET.
TEST(ConnScale, PointerHitsKeepTheirChannelFromTheReaper) {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.mux_connections = true;  // default mux config: 10 ms idle timeout
  opts.client_template.auto_renew = false;  // renewals would ride the ring
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);
  auto* c = cluster.clients()[0];

  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);
  ASSERT_EQ(cluster.get("k"), "v");  // message GET: caches the pointer
  ASSERT_EQ(cluster.get("k"), "v");  // first pointer hit
  const std::uint64_t hits = c->stats().ptr_hits;
  const std::uint64_t misses = c->stats().ptr_misses;
  ASSERT_EQ(hits, 1u);

  // Three idle timeouts of pointer hits only, one every 100 us.
  const Duration span = 3 * opts.mux.idle_timeout;
  const int reads = static_cast<int>(span / (100 * kMicrosecond));
  for (int i = 0; i < reads; ++i) {
    cluster.run_for(100 * kMicrosecond);
    ASSERT_EQ(cluster.get("k"), "v") << i;
  }
  EXPECT_EQ(cluster.node_mux(0)->stats().reclaimed_idle, 0u);
  EXPECT_EQ(c->stats().ptr_misses, misses);
  EXPECT_EQ(c->stats().ptr_hits, hits + static_cast<std::uint64_t>(reads));
  EXPECT_EQ(cluster.node_mux(0)->stats().channels_opened, 1u);
}

// ------------------------------------------------ lifetime connection cap

/// One client reconnects to its shard ten times through
/// Client::invalidate_connection, half of them after the connection's QP
/// was killed under it. The shard admits at most four live connections, so
/// it must free each dropped one: every op completes Ok and never more
/// than one connection is live. A shard that counted connections ever
/// accepted would refuse the fifth connect and time its op out.
void reconnect_ten_times(server::ServerMode mode) {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.server_mode = mode;
  opts.client_template.request_timeout = kMillisecond;
  opts.shard_template.max_connections = 4;
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);
  auto* c = cluster.clients()[0];

  ASSERT_EQ(cluster.put("k0", "v0"), Status::kOk);
  for (int i = 1; i <= 10; ++i) {
    if (i % 2 == 0) {
      const client::Client::TxnWire wire = c->txn_wire(0);
      ASSERT_NE(wire.qp, nullptr) << i;
      cluster.fabric().disconnect(wire.qp);
    }
    c->invalidate_connection(0);
    const std::string key = "k" + std::to_string(i);
    ASSERT_EQ(cluster.put(key, "v" + std::to_string(i)), Status::kOk) << i;
    ASSERT_EQ(cluster.get(key), "v" + std::to_string(i)) << i;
    EXPECT_LE(cluster.shard(0)->live_connections(), 1u) << i;
  }
  EXPECT_EQ(c->stats().failures, 0u);
}

TEST(ConnScale, ReconnectsNeverExhaustTheConnectionCap) {
  reconnect_ten_times(server::ServerMode::kRdmaWritePolling);
}

TEST(ConnScale, SendRecvReconnectsNeverExhaustTheConnectionCap) {
  reconnect_ten_times(server::ServerMode::kSendRecv);
}

// -------------------------------------------------- channel death salvage

TEST(ConnScale, KillMuxChannelMidFlightRetransmitsEverything) {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.mux_connections = true;
  opts.mux.idle_timeout = kSecond;
  opts.client_template.window = 8;
  opts.client_template.request_timeout = kMillisecond;
  opts.client_template.max_retries = 50;
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);

  int ok = 0;
  auto* c = cluster.clients()[0];
  for (int i = 0; i < 20; ++i) {
    c->put(format_key(static_cast<std::uint64_t>(i)), "val-" + std::to_string(i),
           [&ok](Status s) { ok += s == Status::kOk; });
  }
  // Let the channel open and several writes get onto the wire, then kill the
  // shared QP abruptly -- without telling the mux layer.
  cluster.run_for(20 * kMicrosecond);
  ASSERT_TRUE(cluster.kill_mux_channel(0, 0));
  cluster.run_for(200 * kMillisecond);

  // Every op must complete Ok: the timed-out endpoints reported the failure,
  // the channel was torn down and lazily re-established, and the salvaged
  // ops were retransmitted.
  EXPECT_EQ(ok, 20);
  EXPECT_GE(cluster.node_mux(0)->stats().reclaimed_failure, 1u);
  for (int i = 0; i < 20; ++i) {
    auto got = cluster.get(format_key(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, "val-" + std::to_string(i));
  }
}

// A stale channel generation discovered on the one-sided read path must
// salvage the logical connection: in-flight and queued ops re-submit through
// a fresh channel instead of being silently abandoned (their callbacks must
// all still fire).
TEST(ConnScale, StaleMuxGenerationSalvagesInFlightOps) {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.mux_connections = true;
  opts.mux.idle_timeout = kSecond;
  opts.client_template.window = 8;
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);

  // Seed a key and cache its remote pointer on client 0.
  ASSERT_EQ(cluster.put("k1", "v1"), Status::kOk);
  ASSERT_EQ(*cluster.get("k1"), "v1");

  // Fill several ring slots with in-flight PUTs (issued, not yet answered).
  int ok = 0;
  auto* c = cluster.clients()[0];
  for (int i = 0; i < 6; ++i) {
    c->put(format_key(static_cast<std::uint64_t>(i)), "val-" + std::to_string(i),
           [&ok](Status s) { ok += s == Status::kOk; });
  }

  // Another endpoint on the shared channel reports failure: the generation
  // bumps underneath this client while its requests are outstanding.
  auto* mux = cluster.node_mux(0);
  ASSERT_NE(mux, nullptr);
  auto* ch = mux->peek_channel({0});
  ASSERT_NE(ch, nullptr);
  ASSERT_TRUE(ch->open);
  mux->report_failure({0}, ch->generation);

  // The next cached-pointer GET sees the stale generation. It must salvage
  // the connection -- every in-flight PUT retries and completes -- not drop
  // it with the ops' callbacks cancelled.
  auto got = cluster.get("k1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "v1");
  cluster.run_for(200 * kMillisecond);
  EXPECT_EQ(ok, 6);
  for (int i = 0; i < 6; ++i) {
    auto v = cluster.get(format_key(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, "val-" + std::to_string(i));
  }
}

// A credit given back because the logical connection vanished mid-acquire
// must flow through the channel's release path: the oldest parked waiter
// gets it, rather than the slot being freed behind the waiters' backs.
TEST(ConnScale, RecycleHandsFreedCreditToOldestWaiter) {
  sim::Scheduler sched;
  client::NodeMux mux(sched, 0, client::NodeMuxConfig{});
  mux.set_opener([](client::ChannelKey, client::NodeMux::MuxWire* out) {
    out->ring_slots = 1;  // a single credit forces the second acquire to park
    return true;
  });
  auto* ch = mux.channel_to({0});
  ASSERT_NE(ch, nullptr);

  int grants = 0;
  std::uint32_t first_slot = 99;
  mux.acquire({0}, ch->generation, 0, [&](client::NodeMux::Channel* c, std::uint32_t s) {
    ASSERT_NE(c, nullptr);
    ++grants;
    first_slot = s;
  });
  ASSERT_EQ(grants, 1);
  ASSERT_EQ(first_slot, 0u);

  bool waiter_granted = false;
  mux.acquire({0}, ch->generation, 0, [&](client::NodeMux::Channel* c, std::uint32_t s) {
    waiter_granted = c != nullptr;
    EXPECT_EQ(s, 0u);
  });
  EXPECT_FALSE(waiter_granted);  // parked: the ring is full
  EXPECT_EQ(mux.stats().credit_waits, 1u);

  // The first holder's logical connection vanished; it gives the credit
  // back via recycle(). The parked waiter must be woken with that slot.
  mux.recycle(*ch, first_slot);
  EXPECT_TRUE(waiter_granted);
  EXPECT_EQ(ch->in_flight, 1u);  // the credit changed hands, never freed

  // With no waiters, recycle frees the credit outright.
  mux.recycle(*ch, 0);
  EXPECT_EQ(ch->in_flight, 0u);
  EXPECT_FALSE(ch->slot_busy[0]);
}

// After a chaos QP kill, the fabric pool may hand the dead channel's QP
// slot to a brand-new connection before the endpoints' timeouts tear the
// channel down. The closer must recognize the reused slot (generation
// mismatch) and leave the new connection alone.
TEST(ConnScale, CloserIgnoresReusedQpSlot) {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.mux_connections = true;
  opts.mux.idle_timeout = kSecond;
  opts.client_template.request_timeout = kMillisecond;
  opts.client_template.max_retries = 50;
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);

  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);
  // Abrupt async QP error; the pair goes to the fabric reuse pool while the
  // mux layer still believes the channel is healthy.
  ASSERT_TRUE(cluster.kill_mux_channel(0, 0));

  // An unrelated connection (between two bystander machines) grabs the
  // pooled slot immediately.
  const NodeId ba = cluster.fabric().add_node("bystander-a").id();
  const NodeId bb = cluster.fabric().add_node("bystander-b").id();
  auto [na, nb] = cluster.fabric().connect(ba, bb);
  ASSERT_GE(cluster.fabric().stats().qp_slot_reuses, 1u);
  ASSERT_TRUE(na->open());
  const std::uint32_t bystander_gen = na->generation();

  // Drive the client through its timeout -> report_failure -> closer path
  // (the closer holds the dead channel's raw QP pointer) and recovery.
  ASSERT_EQ(cluster.put("k2", "v2"), Status::kOk);
  cluster.run_for(50 * kMillisecond);

  // The closer must NOT have torn down the unrelated reused connection.
  // Same *incarnation*, not merely open(): an errant disconnect would bump
  // the generation even if a later reuse left the slot open again.
  EXPECT_TRUE(na->open());
  EXPECT_TRUE(nb->open());
  EXPECT_EQ(na->generation(), bystander_gen);
  EXPECT_EQ(na->local_node(), ba);
  EXPECT_GE(cluster.node_mux(0)->stats().reclaimed_failure, 1u);
  EXPECT_EQ(*cluster.get("k"), "v");
  EXPECT_EQ(*cluster.get("k2"), "v2");
}

// -------------------------------------------- read-channel reap deferral

// The reaper bug this pins: an idle-past-timeout read channel used to be
// reclaimable even while a just-issued one-sided replica read was in flight
// on its QP -- the disconnect flushed the read mid-air. The fix refcounts
// in-flight replica reads (begin/end_replica_read) and defers the reap
// while the pin is held, however long the channel idles.
TEST(ConnScale, ReadChannelReapDeferredWhilePinned) {
  sim::Scheduler sched;
  fabric::Fabric fabric{sched};
  const NodeId a = fabric.add_node("reader").id();
  const NodeId b = fabric.add_node("target").id();

  client::NodeMuxConfig mcfg;  // defaults: 10 ms idle, 5 ms reap interval
  client::NodeMux mux(sched, a, mcfg);
  int opens = 0;
  int closes = 0;
  mux.set_read_opener([&](NodeId target) -> fabric::QueuePair* {
    ++opens;
    auto [cq, sq] = fabric.connect(a, target);
    (void)sq;
    return cq;
  });
  mux.set_read_closer([&](NodeId, fabric::QueuePair* qp, std::uint32_t gen) {
    ++closes;
    if (qp != nullptr && qp->open() && qp->generation() == gen) {
      fabric.disconnect(qp);
    }
  });

  fabric::QueuePair* qp = mux.begin_replica_read(b);
  ASSERT_NE(qp, nullptr);
  EXPECT_EQ(opens, 1);

  // The pin outlives many reap ticks past the idle timeout: the reaper must
  // defer every time, and the QP must stay open for the in-flight read.
  sched.run_for(100 * kMillisecond);
  EXPECT_EQ(closes, 0);
  EXPECT_TRUE(qp->open());
  ASSERT_NE(mux.peek_read_channel(b), nullptr);
  EXPECT_TRUE(mux.peek_read_channel(b)->open);
  EXPECT_GE(mux.stats().read_reap_deferred, 1u);
  EXPECT_EQ(mux.stats().reclaimed_read_idle, 0u);

  // Unpin (the read completed): the next idle window reclaims the channel
  // and returns the QP to the fabric pool.
  mux.end_replica_read(b);
  sched.run_for(100 * kMillisecond);
  EXPECT_EQ(closes, 1);
  EXPECT_FALSE(mux.peek_read_channel(b)->open);
  EXPECT_EQ(mux.stats().reclaimed_read_idle, 1u);

  // The next replica read re-establishes lazily.
  fabric::QueuePair* qp2 = mux.begin_replica_read(b);
  ASSERT_NE(qp2, nullptr);
  EXPECT_TRUE(qp2->open());
  EXPECT_EQ(opens, 2);
  mux.end_replica_read(b);
}

// ------------------------------------------------- O(active) wakeup bound

// 50'000 registered connections, ONE of them dirty: the wakeup must sweep
// exactly that connection. A pre-refactor O(registered) scan would charge
// 50'000 poll_scan's (~2 ms of shard CPU); the index-driven scheduler
// charges one sweep plus one GET (well under 100 us).
TEST(ConnScale, WakeupIsOActiveAmongTensOfThousandsRegistered) {
  sim::Scheduler sched;
  fabric::Fabric fabric{sched};
  obs::Plane plane;
  fabric.set_obs(&plane);
  const NodeId server_node = fabric.add_node("server").id();
  const NodeId client_node = fabric.add_node("clients").id();

  server::ShardConfig cfg;
  cfg.msg_slot_bytes = 256;
  cfg.ring_slots = 1;
  cfg.max_connections = 50'000;
  cfg.store.arena_bytes = 4 << 20;
  server::Shard shard(sched, fabric, server_node, cfg);

  auto [cq, sq] = fabric.connect(client_node, server_node);
  std::vector<std::byte> resp_ring(4096);
  auto* resp_mr = fabric.node(client_node).register_memory(resp_ring);

  // One channel of one per client: a one-slot group with one endpoint.
  constexpr std::uint32_t kConns = 50'000;
  std::vector<fabric::RemoteAddr> req_rings(kConns);
  std::vector<std::uint32_t> endpoints(kConns);
  for (std::uint32_t i = 0; i < kConns; ++i) {
    const auto grp = shard.accept_mux_group(sq, 1);
    ASSERT_TRUE(grp.ok) << i;
    const auto ep =
        shard.accept_mux_endpoint(grp.group, resp_mr->addr(0), 4096, static_cast<ClientId>(i), 1);
    ASSERT_TRUE(ep.ok) << i;
    req_rings[i] = grp.req_ring;
    endpoints[i] = ep.endpoint;
  }
  ASSERT_EQ(shard.connection_count(), kConns);

  proto::Request req;
  req.type = proto::MsgType::kGet;
  req.req_id = 1;
  req.client = 37'123;
  req.key = "absent-key";
  const auto payload = proto::encode_mux_request(proto::MuxHeader{endpoints[37'123], 0}, req);
  std::vector<std::byte> frame(proto::frame_size(payload.size()));
  proto::encode_frame(frame, payload);
  cq->post_write(frame, req_rings[37'123]);
  sched.run_until(sched.now() + kMillisecond);

  EXPECT_EQ(shard.stats().gets, 1u);
  EXPECT_EQ(shard.stats().responses, 1u);
  // One sweep, of the one dirty connection.
  EXPECT_EQ(plane.query().count(obs::TraceKind::kRingSweep), 1u);
  EXPECT_LT(shard.stats().busy_time, 100'000);
}

// ---------------------------------------------- mux header hardening + caps

// A corrupt or malicious MuxHeader::resp_slot past the endpoint's granted
// window must be dropped as malformed, never steered into an RDMA Write
// beyond the endpoint's response ring.
TEST(ConnScale, MuxRespSlotPastWindowDroppedAsMalformed) {
  sim::Scheduler sched;
  fabric::Fabric fabric{sched};
  const NodeId server_node = fabric.add_node("server").id();
  const NodeId client_node = fabric.add_node("clients").id();

  server::ShardConfig cfg;
  cfg.msg_slot_bytes = 256;
  cfg.mux_ring_slots = 8;
  cfg.store.arena_bytes = 4 << 20;
  server::Shard shard(sched, fabric, server_node, cfg);

  auto [cq, sq] = fabric.connect(client_node, server_node);
  std::vector<std::byte> resp_ring(2 * 256);  // exactly window=2 slots
  auto* resp_mr = fabric.node(client_node).register_memory(resp_ring);

  const auto grp = shard.accept_mux_group(sq, cfg.mux_ring_slots);
  ASSERT_TRUE(grp.ok);
  const auto ep = shard.accept_mux_endpoint(grp.group, resp_mr->addr(0), 256, 1, 2);
  ASSERT_TRUE(ep.ok);
  ASSERT_EQ(ep.window, 2u);

  proto::Request req;
  req.type = proto::MsgType::kGet;
  req.req_id = 7;
  req.client = 1;
  req.key = "some-key";

  // resp_slot 5 >= the granted window of 2: must be counted malformed.
  auto evil = proto::encode_mux_request(proto::MuxHeader{ep.endpoint, 5}, req);
  std::vector<std::byte> evil_frame(proto::frame_size(evil.size()));
  proto::encode_frame(evil_frame, evil);
  cq->post_write(evil_frame, grp.req_ring);
  sched.run_until(sched.now() + kMillisecond);
  EXPECT_EQ(shard.stats().malformed, 1u);
  EXPECT_EQ(shard.stats().responses, 0u);
  EXPECT_EQ(shard.stats().gets, 0u);

  // An in-window resp_slot on the same endpoint still answers normally.
  auto good = proto::encode_mux_request(proto::MuxHeader{ep.endpoint, 1}, req);
  std::vector<std::byte> good_frame(proto::frame_size(good.size()));
  proto::encode_frame(good_frame, good);
  cq->post_write(good_frame, grp.req_ring);
  sched.run_until(sched.now() + kMillisecond);
  EXPECT_EQ(shard.stats().gets, 1u);
  EXPECT_EQ(shard.stats().responses, 1u);
  EXPECT_EQ(shard.stats().malformed, 1u);
}

// Failure/reopen cycles (what the chaos family drives) must not grow the
// shard's connection or endpoint tables: closed mux-group slots and
// deactivated endpoints are reused, and live groups/endpoints obey caps.
TEST(ConnScale, MuxReopenCyclesReuseSlotsAndObeyCaps) {
  sim::Scheduler sched;
  fabric::Fabric fabric{sched};
  const NodeId server_node = fabric.add_node("server").id();
  const NodeId client_node = fabric.add_node("clients").id();

  server::ShardConfig cfg;
  cfg.msg_slot_bytes = 256;
  cfg.mux_ring_slots = 8;
  cfg.max_connections = 2;
  cfg.max_mux_endpoints = 2;
  cfg.store.arena_bytes = 4 << 20;
  server::Shard shard(sched, fabric, server_node, cfg);

  auto [cq, sq] = fabric.connect(client_node, server_node);
  std::vector<std::byte> resp_ring(4096);
  auto* resp_mr = fabric.node(client_node).register_memory(resp_ring);

  // Repeated open/close cycles reuse one conns_ slot and one endpoint slot.
  std::uint32_t first_group = 0;
  for (int i = 0; i < 10; ++i) {
    const auto grp = shard.accept_mux_group(sq, cfg.mux_ring_slots);
    ASSERT_TRUE(grp.ok) << i;
    if (i == 0) first_group = grp.group;
    EXPECT_EQ(grp.group, first_group) << i;
    const auto ep = shard.accept_mux_endpoint(grp.group, resp_mr->addr(0), 256, 1, 1);
    ASSERT_TRUE(ep.ok) << i;
    EXPECT_EQ(ep.endpoint, 0u) << i;
    shard.close_mux_group(grp.group);
  }
  EXPECT_EQ(shard.connection_count(), 1u);

  // Live-group admission cap: with max_connections=2, a third live group is
  // refused until one closes.
  const auto g1 = shard.accept_mux_group(sq, cfg.mux_ring_slots);
  const auto g2 = shard.accept_mux_group(sq, cfg.mux_ring_slots);
  ASSERT_TRUE(g1.ok);
  ASSERT_TRUE(g2.ok);
  EXPECT_FALSE(shard.accept_mux_group(sq, cfg.mux_ring_slots).ok);

  // Live-endpoint cap: slots freed by a group close become available again.
  const auto e1 = shard.accept_mux_endpoint(g1.group, resp_mr->addr(0), 256, 1, 1);
  const auto e2 = shard.accept_mux_endpoint(g2.group, resp_mr->addr(0), 256, 2, 1);
  ASSERT_TRUE(e1.ok);
  ASSERT_TRUE(e2.ok);
  EXPECT_FALSE(shard.accept_mux_endpoint(g2.group, resp_mr->addr(0), 256, 3, 1).ok);
  shard.close_mux_group(g1.group);
  EXPECT_TRUE(shard.accept_mux_group(sq, cfg.mux_ring_slots).ok);
  EXPECT_TRUE(shard.accept_mux_endpoint(g2.group, resp_mr->addr(0), 256, 3, 1).ok);
}

// -------------------------------------------- pipelined comparator guards

// The elastic-membership plane refuses to run over the pipelined comparator
// (a Fig 10 throughput comparator, kept off migration as it is kept off
// replication); the guard must hold on both entry points and leave the
// cluster serving.
TEST(ConnScale, PipelinedComparatorRefusesLiveMigration) {
  db::ClusterOptions opts;
  opts.server_nodes = 2;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.server_mode = server::ServerMode::kPipelined;
  opts.shard_template.store.arena_bytes = 8 << 20;
  db::HydraCluster cluster(opts);

  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);
  EXPECT_EQ(cluster.add_shard_live(), kInvalidShard);
  EXPECT_FALSE(cluster.drain_shard_live(0));
  EXPECT_EQ(*cluster.get("k"), "v");
}

}  // namespace
}  // namespace hydra
