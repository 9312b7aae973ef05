// Unit tests for the simulated RDMA fabric: memory registration, one-sided
// Write/Read semantics, in-order delivery, Send/Recv, protection, failures,
// the TCP model and the demand-zero buffers registered regions live in.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fabric/fabric.hpp"
#include "fabric/registered_buffer.hpp"
#include "resident.hpp"
#include "sim/scheduler.hpp"

namespace hydra::fabric {
namespace {

std::span<const std::byte> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string string_of(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

class FabricTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
  Fabric fabric{sched};

  struct Endpoint {
    Node* node;
    std::vector<std::byte> memory;
    MemoryRegion* mr;
  };

  Endpoint make_endpoint(const std::string& name, std::size_t mem = 4096) {
    Endpoint ep;
    ep.node = &fabric.add_node(name);
    ep.memory.resize(mem);
    ep.mr = ep.node->register_memory(ep.memory);
    return ep;
  }
};

// ------------------------------------------------------------ registration

TEST_F(FabricTest, RegionsHaveUniqueRkeysAndBounds) {
  auto a = make_endpoint("a");
  std::vector<std::byte> more(128);
  MemoryRegion* mr2 = a.node->register_memory(more);
  EXPECT_NE(a.mr->rkey(), mr2->rkey());
  EXPECT_EQ(a.node->find_region(a.mr->rkey()), a.mr);
  EXPECT_EQ(a.node->find_region(mr2->rkey()), mr2);
  EXPECT_EQ(a.node->find_region(9999), nullptr);
  EXPECT_TRUE(a.mr->contains(0, 4096));
  EXPECT_TRUE(a.mr->contains(4096, 0));
  EXPECT_FALSE(a.mr->contains(4090, 7));
  EXPECT_FALSE(a.mr->contains(5000, 1));
}

// ------------------------------------------------------------ RDMA write

TEST_F(FabricTest, WriteDeliversBytesToRemoteMemory) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;

  const std::string msg = "hello, rdma";
  bool completed = false;
  Time complete_time = 0;
  qa->post_write(bytes_of(msg), b.mr->addr(100), 7,
                 [&](const Completion& wc) {
                   completed = true;
                   complete_time = sched.now();
                   EXPECT_EQ(wc.status, WcStatus::kSuccess);
                   EXPECT_EQ(wc.wr_id, 7u);
                   EXPECT_EQ(wc.byte_len, msg.size());
                 });
  sched.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(std::memcmp(b.memory.data() + 100, msg.data(), msg.size()), 0);
  // Completion needs a full round trip: at least 2x propagation.
  EXPECT_GE(complete_time, 2 * fabric.cost().rdma_propagation);
  EXPECT_EQ(fabric.stats().rdma_writes, 1u);
}

TEST_F(FabricTest, WriteHookFiresAtCommitTime) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;

  std::uint64_t hook_offset = 0;
  std::uint32_t hook_len = 0;
  Time hook_time = 0;
  b.mr->set_write_hook([&](std::uint64_t off, std::uint32_t len) {
    hook_offset = off;
    hook_len = len;
    hook_time = sched.now();
  });
  const std::string msg = "ping";
  qa->post_write(bytes_of(msg), b.mr->addr(64));
  sched.run();
  EXPECT_EQ(hook_offset, 64u);
  EXPECT_EQ(hook_len, 4u);
  EXPECT_GE(hook_time, fabric.cost().rdma_propagation);
}

TEST_F(FabricTest, WritesOnOneQpCommitInPostedOrder) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b", 1 << 20);
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;

  std::vector<int> commits;
  b.mr->set_write_hook([&](std::uint64_t off, std::uint32_t) {
    commits.push_back(static_cast<int>(off >> 16));
  });
  // A large write followed by a tiny write: without RC ordering the tiny
  // one could land first.
  std::vector<std::byte> big(512 * 1024, std::byte{1});
  std::vector<std::byte> tiny(8, std::byte{2});
  qa->post_write(big, b.mr->addr(0));
  qa->post_write(tiny, b.mr->addr(1 << 16));
  sched.run();
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(commits[0], 0);
  EXPECT_EQ(commits[1], 1);
}

TEST_F(FabricTest, ConcurrentBigWritesSerializeOnTheWire) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b", 1 << 21);
  auto [q1, u1] = fabric.connect(a.node->id(), b.node->id());
  auto [q2, u2] = fabric.connect(a.node->id(), b.node->id());
  (void)u1;
  (void)u2;
  std::vector<Time> commit_times;
  b.mr->set_write_hook([&](std::uint64_t, std::uint32_t) {
    commit_times.push_back(sched.now());
  });
  std::vector<std::byte> big(1 << 20, std::byte{3});
  q1->post_write(big, b.mr->addr(0));
  q2->post_write(big, b.mr->addr(0));
  sched.run();
  ASSERT_EQ(commit_times.size(), 2u);
  const auto wire = fabric.cost().rdma_wire_time(1 << 20);
  EXPECT_GE(commit_times[1] - commit_times[0], wire / 2);
}

TEST_F(FabricTest, WriteWithBadRkeyFailsWithProtectionError) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  WcStatus status = WcStatus::kSuccess;
  const std::string msg = "x";
  qa->post_write(bytes_of(msg), RemoteAddr{424242, 0}, 0,
                 [&](const Completion& wc) { status = wc.status; });
  sched.run();
  EXPECT_EQ(status, WcStatus::kProtectionError);
  EXPECT_EQ(fabric.stats().protection_errors, 1u);
}

TEST_F(FabricTest, WriteOutOfBoundsFailsWithProtectionError) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b", 64);
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  WcStatus status = WcStatus::kSuccess;
  const std::string msg = "0123456789";
  qa->post_write(bytes_of(msg), b.mr->addr(60), 0,
                 [&](const Completion& wc) { status = wc.status; });
  sched.run();
  EXPECT_EQ(status, WcStatus::kProtectionError);
}

TEST_F(FabricTest, WriteToDeadNodeTimesOut) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  fabric.kill_node(b.node->id());
  WcStatus status = WcStatus::kSuccess;
  Time done = 0;
  const std::string msg = "x";
  qa->post_write(bytes_of(msg), b.mr->addr(0), 0, [&](const Completion& wc) {
    status = wc.status;
    done = sched.now();
  });
  sched.run();
  EXPECT_EQ(status, WcStatus::kRemoteDead);
  EXPECT_GE(done, fabric.cost().peer_timeout);
  // The dead node's memory is untouched.
  EXPECT_EQ(b.memory[0], std::byte{0});
}

TEST_F(FabricTest, SourceBufferSnapshotAtPostTime) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  std::string msg = "original";
  qa->post_write(bytes_of(msg), b.mr->addr(0));
  msg = "clobberd";  // modified after post: must not affect delivery
  sched.run();
  EXPECT_EQ(std::memcmp(b.memory.data(), "original", 8), 0);
}

// ------------------------------------------------------------ RDMA read

TEST_F(FabricTest, ReadFetchesRemoteBytes) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  const std::string payload = "server-side-value";
  std::memcpy(b.memory.data() + 256, payload.data(), payload.size());

  std::vector<std::byte> dst(payload.size());
  bool done = false;
  qa->post_read(dst, b.mr->addr(256), 5, [&](const Completion& wc) {
    done = true;
    EXPECT_EQ(wc.status, WcStatus::kSuccess);
    EXPECT_EQ(wc.op, WcOp::kRead);
  });
  sched.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(string_of(dst), payload);
  EXPECT_EQ(fabric.stats().rdma_reads, 1u);
}

TEST_F(FabricTest, ReadObservesMemoryAtServeTimeNotCompletionTime) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  std::memcpy(b.memory.data(), "AAAA", 4);
  std::vector<std::byte> dst(4);
  std::string got;
  qa->post_read(dst, b.mr->addr(0), 0,
                [&](const Completion&) { got = string_of(dst); });
  // Server overwrites the memory long after the read was served but before
  // events drain; the read must have snapshotted the old value.
  sched.at(1, [&] { /* read still in flight */ });
  sched.run_until(sched.now());
  std::memcpy(b.memory.data(), "BBBB", 4);
  sched.run();
  // Depending on serve time this sees AAAA (snapshot before overwrite at
  // t~0) -- the overwrite happened at t=0 too, so accept either, but the
  // value must be consistent (all As or all Bs, never torn).
  EXPECT_TRUE(got == "AAAA" || got == "BBBB") << got;
}

TEST_F(FabricTest, ReadBadRkeyFails) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  std::vector<std::byte> dst(8);
  WcStatus status = WcStatus::kSuccess;
  qa->post_read(dst, RemoteAddr{777, 0}, 0,
                [&](const Completion& wc) { status = wc.status; });
  sched.run();
  EXPECT_EQ(status, WcStatus::kProtectionError);
}

TEST_F(FabricTest, ReadFromDeadNodeTimesOut) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  fabric.kill_node(b.node->id());
  std::vector<std::byte> dst(8);
  WcStatus status = WcStatus::kSuccess;
  qa->post_read(dst, b.mr->addr(0), 0,
                [&](const Completion& wc) { status = wc.status; });
  sched.run();
  EXPECT_EQ(status, WcStatus::kRemoteDead);
}

TEST_F(FabricTest, ReadConsumesZeroTargetCpuButUsesTargetNic) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  std::vector<std::byte> dst(1024);
  qa->post_read(dst, b.mr->addr(0));
  sched.run();
  EXPECT_GT(b.node->nic().tx_bytes, 1000u);  // response streamed by target NIC
  EXPECT_GT(b.node->nic().tx_ops, 0u);
}

// ------------------------------------------------------------ send / recv

TEST_F(FabricTest, SendLandsInPostedRecv) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());

  std::vector<std::byte> recv_buf(64);
  std::string received;
  std::uint64_t recv_wr = 0;
  qb->set_recv_handler([&](const Completion& wc, std::span<std::byte> data) {
    received = string_of(data);
    recv_wr = wc.wr_id;
  });
  qb->post_recv(recv_buf, 11);

  const std::string msg = "two-sided";
  bool send_done = false;
  qa->post_send(bytes_of(msg), 3, [&](const Completion& wc) {
    send_done = true;
    EXPECT_EQ(wc.status, WcStatus::kSuccess);
  });
  sched.run();
  EXPECT_TRUE(send_done);
  EXPECT_EQ(received, msg);
  EXPECT_EQ(recv_wr, 11u);
  EXPECT_EQ(fabric.stats().sends, 1u);
}

TEST_F(FabricTest, SendWaitsForRecvWhenNoneIsPosted) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());

  std::string received;
  qb->set_recv_handler([&](const Completion&, std::span<std::byte> data) {
    received = string_of(data);
  });
  const std::string msg = "rnr";
  qa->post_send(bytes_of(msg));
  sched.run();
  EXPECT_TRUE(received.empty());  // held: receiver not ready

  std::vector<std::byte> recv_buf(16);
  qb->post_recv(recv_buf);
  sched.run();
  EXPECT_EQ(received, msg);
}

TEST_F(FabricTest, SendsArriveInOrder) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());

  std::vector<std::string> received;
  qb->set_recv_handler([&](const Completion&, std::span<std::byte> data) {
    received.push_back(string_of(data));
  });
  std::vector<std::vector<std::byte>> bufs(5, std::vector<std::byte>(16));
  for (auto& buf : bufs) qb->post_recv(buf);
  for (int i = 0; i < 5; ++i) {
    const std::string m = "msg" + std::to_string(i);
    qa->post_send(bytes_of(m));
  }
  sched.run();
  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], "msg" + std::to_string(i));
}

TEST_F(FabricTest, TwoSidedIsSlowerThanOneSidedWrite) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());

  // Measure write commit time.
  Time write_commit = 0;
  b.mr->set_write_hook([&](std::uint64_t, std::uint32_t) { write_commit = sched.now(); });
  const std::string msg(32, 'w');
  qa->post_write(bytes_of(msg), b.mr->addr(0));
  sched.run();

  // Fresh pair for the send measurement so NIC state matches.
  sim::Scheduler sched2;
  Fabric fabric2{sched2};
  Node& a2 = fabric2.add_node("a2");
  Node& b2 = fabric2.add_node("b2");
  std::vector<std::byte> mem2(4096);
  b2.register_memory(mem2);
  auto [qa2, qb2] = fabric2.connect(a2.id(), b2.id());
  Time send_commit = 0;
  qb2->set_recv_handler([&](const Completion&, std::span<std::byte>) {
    send_commit = sched2.now();
  });
  std::vector<std::byte> rb(64);
  qb2->post_recv(rb);
  qa2->post_send(bytes_of(msg));
  sched2.run();

  EXPECT_GT(send_commit, write_commit);
  EXPECT_GE(send_commit - write_commit, fabric.cost().two_sided_extra);
}

// ------------------------------------------------------------ QP penalty

TEST(CostModel, QpPenaltyShape) {
  CostModel cm;
  EXPECT_DOUBLE_EQ(cm.qp_penalty(1), 1.0);
  EXPECT_DOUBLE_EQ(cm.qp_penalty(cm.qp_penalty_threshold), 1.0);
  EXPECT_GT(cm.qp_penalty(cm.qp_penalty_threshold + 50), 1.0);
  EXPECT_LT(cm.qp_penalty(cm.qp_penalty_threshold + 50),
            cm.qp_penalty(cm.qp_penalty_threshold + 100));
  // Tier-1 plateau holds up to the extreme threshold...
  EXPECT_DOUBLE_EQ(cm.qp_penalty(cm.qp_extreme_threshold), cm.qp_penalty_cap);
  // ...then the ICM-thrash tier climbs toward the extreme cap.
  EXPECT_GT(cm.qp_penalty(cm.qp_extreme_threshold + 100), cm.qp_penalty_cap);
  EXPECT_DOUBLE_EQ(cm.qp_penalty(100000), cm.qp_extreme_cap);
}

TEST(CostModel, QpPenaltyExactBoundaries) {
  CostModel cm;
  // At the threshold: exactly identity. One past it: exactly one slope step.
  EXPECT_DOUBLE_EQ(cm.qp_penalty(cm.qp_penalty_threshold), 1.0);
  EXPECT_DOUBLE_EQ(cm.qp_penalty(cm.qp_penalty_threshold + 1), 1.0 + cm.qp_penalty_slope);
  // First count at which tier-1 saturates: threshold + ceil(span / slope).
  const auto cap_at = cm.qp_penalty_threshold +
                      static_cast<std::uint32_t>(
                          std::ceil((cm.qp_penalty_cap - 1.0) / cm.qp_penalty_slope));
  EXPECT_DOUBLE_EQ(cm.qp_penalty(cap_at), cm.qp_penalty_cap);
  EXPECT_LT(cm.qp_penalty(cap_at - 1), cm.qp_penalty_cap);
  // Tier-2 boundaries: identity with tier-1 at the extreme threshold, one
  // extreme slope step past it, and saturation at the extreme cap.
  EXPECT_DOUBLE_EQ(cm.qp_penalty(cm.qp_extreme_threshold), cm.qp_penalty_cap);
  EXPECT_DOUBLE_EQ(cm.qp_penalty(cm.qp_extreme_threshold + 1),
                   cm.qp_penalty_cap + cm.qp_extreme_slope);
  const auto extreme_cap_at =
      cm.qp_extreme_threshold +
      static_cast<std::uint32_t>(
          std::ceil((cm.qp_extreme_cap - cm.qp_penalty_cap) / cm.qp_extreme_slope));
  EXPECT_DOUBLE_EQ(cm.qp_penalty(extreme_cap_at), cm.qp_extreme_cap);
  EXPECT_LT(cm.qp_penalty(extreme_cap_at - 1), cm.qp_extreme_cap);
}

// The whole curve must be monotone non-decreasing -- in particular across
// both knees (tier-1 threshold and the extreme/ICM-thrash threshold), where
// the regression this pins lived: the old clamp let the penalty *drop* when
// crossing qp_extreme_threshold.
TEST(CostModel, QpPenaltyMonotoneNonDecreasingAcrossBothKnees) {
  CostModel cm;
  double prev = cm.qp_penalty(0);
  for (std::uint32_t qp = 1; qp <= cm.qp_extreme_threshold + 8000; ++qp) {
    const double cur = cm.qp_penalty(qp);
    ASSERT_GE(cur, prev) << "penalty decreased at qp_count " << qp;
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(prev, cm.qp_extreme_cap);  // sweep reached saturation
}

// Adversarial configuration: qp_extreme_cap below the tier-1 cap. The
// penalty must stay continuous and flat (never dip) past the extreme knee
// -- min(g, qp_extreme_cap) alone would have ordered a price *cut* for
// opening more QPs.
TEST(CostModel, QpPenaltyInvertedCapsNeverDip) {
  CostModel cm;
  cm.qp_extreme_cap = cm.qp_penalty_cap / 2.0;
  double prev = cm.qp_penalty(0);
  for (std::uint32_t qp = 1; qp <= cm.qp_extreme_threshold + 1000; ++qp) {
    const double cur = cm.qp_penalty(qp);
    ASSERT_GE(cur, prev) << "penalty decreased at qp_count " << qp;
    prev = cur;
  }
  // Continuity at the extreme knee: one QP past it costs exactly the same
  // as at it (the inverted cap pins tier-2 to the tier-1 plateau).
  EXPECT_DOUBLE_EQ(cm.qp_penalty(cm.qp_extreme_threshold + 1),
                   cm.qp_penalty(cm.qp_extreme_threshold));
}

// ------------------------------------------------------------ disconnect

TEST_F(FabricTest, DisconnectReleasesQpCountAndPenaltyRecedes) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");

  // Blow past the penalty threshold with throwaway connections.
  std::vector<QueuePair*> extra;
  const std::uint32_t n = fabric.cost().qp_penalty_threshold + 40;
  for (std::uint32_t i = 0; i < n; ++i) {
    extra.push_back(fabric.connect(a.node->id(), b.node->id()).first);
  }
  EXPECT_EQ(a.node->nic().qp_count, n);
  EXPECT_GT(fabric.cost().qp_penalty(a.node->nic().qp_count), 1.0);

  // Reclaim back below the threshold: the penalty must return to exactly 1.0
  // on both NICs and the live census must match.
  for (QueuePair* qp : extra) fabric.disconnect(qp);
  EXPECT_EQ(a.node->nic().qp_count, 0u);
  EXPECT_EQ(b.node->nic().qp_count, 0u);
  EXPECT_DOUBLE_EQ(fabric.cost().qp_penalty(a.node->nic().qp_count), 1.0);
  EXPECT_DOUBLE_EQ(fabric.cost().qp_penalty(b.node->nic().qp_count), 1.0);
  EXPECT_EQ(fabric.live_qp_pairs(), 0u);
  EXPECT_EQ(fabric.stats().qp_disconnects, n);

  // Disconnecting an already-closed endpoint is a no-op.
  fabric.disconnect(extra.front());
  EXPECT_EQ(fabric.stats().qp_disconnects, n);
}

TEST_F(FabricTest, DisconnectFlushesInFlightWriteWithoutCommitting) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;

  const std::string msg = "should-never-land";
  bool completed = false;
  qa->post_write(bytes_of(msg), b.mr->addr(0), 1, [&](const Completion& wc) {
    completed = true;
    EXPECT_EQ(wc.status, WcStatus::kFlushed);
  });
  fabric.disconnect(qa);  // teardown races the in-flight write
  sched.run();

  EXPECT_TRUE(completed);
  EXPECT_NE(string_of(std::span(b.memory).subspan(0, msg.size())), msg);
}

TEST_F(FabricTest, ReusedQpSlotDoesNotDeliverStaleOps) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto c = make_endpoint("c");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;

  const std::string stale = "stale-op";
  qa->post_write(bytes_of(stale), b.mr->addr(0));
  fabric.disconnect(qa);

  // The recycled pair now carries a->c traffic; the stale a->b write must
  // not commit anywhere even though the object was reused.
  auto [qa2, qc] = fabric.connect(a.node->id(), c.node->id());
  EXPECT_EQ(qa2, qa);  // slot actually reused
  EXPECT_EQ(fabric.stats().qp_slot_reuses, 1u);
  (void)qc;
  const std::string fresh = "fresh-op";
  bool fresh_done = false;
  qa2->post_write(bytes_of(fresh), c.mr->addr(0), 2, [&](const Completion& wc) {
    fresh_done = true;
    EXPECT_EQ(wc.status, WcStatus::kSuccess);
  });
  sched.run();

  EXPECT_TRUE(fresh_done);
  EXPECT_NE(string_of(std::span(b.memory).subspan(0, stale.size())), stale);
  EXPECT_EQ(string_of(std::span(c.memory).subspan(0, fresh.size())), fresh);
  EXPECT_EQ(a.node->nic().qp_count, 1u);
  EXPECT_EQ(b.node->nic().qp_count, 0u);
}

TEST_F(FabricTest, PostOnClosedQpFlushesImmediately) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  fabric.disconnect(qa);

  const std::string msg = "late";
  int flushed = 0;
  auto expect_flush = [&](const Completion& wc) {
    EXPECT_EQ(wc.status, WcStatus::kFlushed);
    ++flushed;
  };
  qa->post_write(bytes_of(msg), b.mr->addr(0), 1, expect_flush);
  std::vector<std::byte> buf(16);
  qa->post_read(buf, b.mr->addr(0), 2, expect_flush);
  qa->post_send(bytes_of(msg), 3, expect_flush);
  sched.run();
  EXPECT_EQ(flushed, 3);
}

TEST_F(FabricTest, ConnectionCountRaisesPerOpCost) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;

  const std::string msg(16, 'x');
  Time first_commit = 0;
  b.mr->set_write_hook([&](std::uint64_t, std::uint32_t) { first_commit = sched.now(); });
  qa->post_write(bytes_of(msg), b.mr->addr(0));
  sched.run();

  // Blow up the QP count past the threshold, then measure again.
  for (std::uint32_t i = 0; i < fabric.cost().qp_penalty_threshold + 200; ++i) {
    fabric.connect(a.node->id(), b.node->id());
  }
  const Time start = sched.now();
  Time second_commit = 0;
  b.mr->set_write_hook([&](std::uint64_t, std::uint32_t) { second_commit = sched.now(); });
  qa->post_write(bytes_of(msg), b.mr->addr(0));
  sched.run();
  EXPECT_GT(second_commit - start, first_commit);
}

// ------------------------------------------------------------ TCP model

TEST_F(FabricTest, TcpDeliversWithKernelLatency) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [ca, cb] = fabric.tcp_connect(a.node->id(), b.node->id());

  std::string received;
  Time delivered = 0;
  cb->set_handler([&](std::vector<std::byte> data) {
    received = string_of(data);
    delivered = sched.now();
  });
  const std::string msg = "over tcp";
  const Time sent_done = ca->send(bytes_of(msg));
  EXPECT_EQ(sent_done, fabric.cost().tcp_kernel_cost);
  sched.run();
  EXPECT_EQ(received, msg);
  EXPECT_GE(delivered, fabric.cost().tcp_latency);
  EXPECT_EQ(fabric.stats().tcp_messages, 1u);
}

TEST_F(FabricTest, TcpPreservesMessageOrder) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [ca, cb] = fabric.tcp_connect(a.node->id(), b.node->id());
  std::vector<std::string> received;
  cb->set_handler([&](std::vector<std::byte> data) { received.push_back(string_of(data)); });
  // Big message then small: stream semantics forbid reordering.
  const std::string big(1 << 20, 'B');
  const std::string small = "s";
  ca->send(bytes_of(big));
  ca->send(bytes_of(small));
  sched.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].size(), big.size());
  EXPECT_EQ(received[1], small);
}

TEST_F(FabricTest, TcpToDeadNodeDropsSilently) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [ca, cb] = fabric.tcp_connect(a.node->id(), b.node->id());
  bool got = false;
  cb->set_handler([&](std::vector<std::byte>) { got = true; });
  fabric.kill_node(b.node->id());
  const std::string msg = "lost";
  ca->send(bytes_of(msg));
  sched.run();
  EXPECT_FALSE(got);
}

TEST_F(FabricTest, TcpIsMuchSlowerThanRdmaWriteForSmallMessages) {
  auto a = make_endpoint("a");
  auto b = make_endpoint("b");
  auto [qa, qb] = fabric.connect(a.node->id(), b.node->id());
  (void)qb;
  auto [ca, cb] = fabric.tcp_connect(a.node->id(), b.node->id());

  Time rdma_commit = 0;
  b.mr->set_write_hook([&](std::uint64_t, std::uint32_t) { rdma_commit = sched.now(); });
  Time tcp_commit = 0;
  cb->set_handler([&](std::vector<std::byte>) { tcp_commit = sched.now(); });

  const std::string msg(48, 'm');
  qa->post_write(bytes_of(msg), b.mr->addr(0));
  ca->send(bytes_of(msg));
  sched.run();
  EXPECT_GT(tcp_commit, rdma_commit * 10) << "TCP should be >10x slower";
}

// ------------------------------------------------------------ loopback

TEST_F(FabricTest, SameNodeLoopbackWorks) {
  auto a = make_endpoint("a");
  auto [q1, q2] = fabric.connect(a.node->id(), a.node->id());
  (void)q2;
  const std::string msg = "loop";
  q1->post_write(bytes_of(msg), a.mr->addr(8));
  sched.run();
  EXPECT_EQ(std::memcmp(a.memory.data() + 8, msg.data(), msg.size()), 0);
  // Loopback still burns the shared NIC: both tx and rx engines were used.
  EXPECT_GT(a.node->nic().tx_ops, 0u);
  EXPECT_GT(a.node->nic().rx_ops, 0u);
}

// ------------------------------------------------------ NIC cost golden
//
// The oracle for the NIC service path: every verb x outcome on a two-node
// fabric past the QP-penalty knee, pinned to its exact completion time,
// status, byte_len, old_value and both NICs' counters. 306 open QPs give a
// penalty of 1.208, at which scaled(90) + scaled(120) = 108 + 144 differs
// from scaled(210) = 253, so every scaled() addend's rounding shows. A
// changed row is a changed cost model; a failing row prints its actual
// values in table form.

struct NicCounts {
  std::uint64_t tx_ops = 0;
  std::uint64_t rx_ops = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_busy_ns = 0;
  std::uint64_t rx_busy_ns = 0;
  bool operator==(const NicCounts&) const = default;
};

NicCounts counts_of(const Nic& nic) {
  return {nic.tx_ops, nic.rx_ops, nic.tx_bytes, nic.rx_bytes, nic.tx_busy_ns, nic.rx_busy_ns};
}

const char* enum_name(WcStatus s) {
  switch (s) {
    case WcStatus::kSuccess: return "WcStatus::kSuccess";
    case WcStatus::kProtectionError: return "WcStatus::kProtectionError";
    case WcStatus::kRemoteDead: return "WcStatus::kRemoteDead";
    case WcStatus::kFlushed: return "WcStatus::kFlushed";
  }
  return "?";
}

std::string row_of(const NicCounts& c) {
  return "{" + std::to_string(c.tx_ops) + ", " + std::to_string(c.rx_ops) + ", " +
         std::to_string(c.tx_bytes) + ", " + std::to_string(c.rx_bytes) + ", " +
         std::to_string(c.tx_busy_ns) + ", " + std::to_string(c.rx_busy_ns) + "}";
}

struct GoldenRig {
  static constexpr std::uint32_t kQps = 306;
  static constexpr std::uint64_t kWord = 5;  ///< the atomic target's initial value

  sim::Scheduler sched;
  Fabric fabric{sched};
  Node* a = &fabric.add_node("a");
  Node* b = &fabric.add_node("b");
  std::vector<std::byte> mem_b = std::vector<std::byte>(256);
  MemoryRegion* mr_b = nullptr;
  QueuePair* qa = nullptr;
  QueuePair* qb = nullptr;
  std::vector<std::byte> payload = std::vector<std::byte>(100, std::byte{0x5A});
  std::vector<std::byte> buf = std::vector<std::byte>(64);
  Completion last;
  Time done_at = 0;
  Time delivered_at = 0;

  GoldenRig() {
    std::memcpy(mem_b.data(), &kWord, sizeof(kWord));
    mr_b = b->register_memory(mem_b);
    std::tie(qa, qb) = fabric.connect(a->id(), b->id());
    for (std::uint32_t i = 1; i < kQps; ++i) fabric.connect(a->id(), b->id());
    qb->set_recv_handler(
        [this](const Completion&, std::span<std::byte>) { delivered_at = sched.now(); });
  }

  CompletionFn record() {
    return [this](const Completion& c) {
      last = c;
      done_at = sched.now();
    };
  }
  void fault_writes(WriteFault::Kind kind, std::uint32_t torn_bytes = 0) {
    fabric.set_write_fault_hook([kind, torn_bytes](NodeId, NodeId, const RemoteAddr&,
                                                   std::uint32_t) {
      return WriteFault{kind, torn_bytes};
    });
  }
};

struct GoldenCase {
  const char* name;
  void (*post)(GoldenRig&);
  Time done_at;
  WcStatus status;
  std::uint32_t byte_len;
  std::uint64_t old_value;
  Time delivered_at;  ///< when a send landed in a posted receive (0: never)
  std::uint64_t word;  ///< the atomic target word after the run
  NicCounts a;
  NicCounts b;
};

// Columns: name, ops, done_at, status, byte_len, old_value, delivered_at,
// word, NIC a and NIC b as {tx_ops, rx_ops, tx_bytes, rx_bytes, tx_busy_ns,
// rx_busy_ns}.
// clang-format off
const GoldenCase kGolden[] = {
    {"write", [](GoldenRig& r) {
       r.qa->post_write(r.payload, r.mr_b->addr(8), 1, r.record());
     }, 997, WcStatus::kSuccess, 100, 0, 0, 5, {1, 0, 100, 0, 189, 0}, {0, 1, 0, 100, 0, 108}},
    {"batched write", [](GoldenRig& r) {
       r.qa->post_write(r.payload, r.mr_b->addr(8));
       r.qa->post_write(r.payload, r.mr_b->addr(108), 1, r.record(), /*batched=*/true);
     }, 1105, WcStatus::kSuccess, 100, 0, 0, 5, {2, 0, 200, 0, 251, 0}, {0, 2, 0, 200, 0, 216}},
    {"read", [](GoldenRig& r) {
       r.qa->post_read(r.buf, r.mr_b->addr(0), 1, r.record());
     }, 1269, WcStatus::kSuccess, 64, 0, 0, 5, {1, 1, 16, 64, 172, 108}, {1, 0, 64, 0, 181, 0}},
    {"cas hit", [](GoldenRig& r) {
       r.qa->post_cas(r.mr_b->addr(0), GoldenRig::kWord, 9, 1, r.record());
     }, 1122, WcStatus::kSuccess, 8, 5, 0, 9, {1, 0, 8, 0, 170, 0}, {0, 1, 0, 8, 0, 252}},
    {"cas miss", [](GoldenRig& r) {
       r.qa->post_cas(r.mr_b->addr(0), GoldenRig::kWord + 1, 9, 1, r.record());
     }, 1122, WcStatus::kSuccess, 8, 5, 0, 5, {1, 0, 8, 0, 170, 0}, {0, 1, 0, 8, 0, 252}},
    {"faa", [](GoldenRig& r) {
       r.qa->post_faa(r.mr_b->addr(0), 3, 1, r.record());
     }, 1122, WcStatus::kSuccess, 8, 5, 0, 8, {1, 0, 8, 0, 170, 0}, {0, 1, 0, 8, 0, 252}},
    {"send, receive posted", [](GoldenRig& r) {
       r.qb->post_recv(r.buf);
       r.qa->post_send(r.payload, 1, r.record());
     }, 2997, WcStatus::kSuccess, 100, 0, 2647, 5, {1, 0, 100, 0, 1189, 0}, {0, 1, 0, 100, 0, 1108}},
    {"send held RNR", [](GoldenRig& r) {
       r.qa->post_send(r.payload, 1, r.record());
       r.sched.at(10'000, [&r] { r.qb->post_recv(r.buf); });
     }, 2997, WcStatus::kSuccess, 100, 0, 10000, 5, {1, 0, 100, 0, 1189, 0}, {0, 1, 0, 100, 0, 1108}},
    {"post on closed QP", [](GoldenRig& r) {
       r.fabric.disconnect(r.qa);
       r.qa->post_write(r.payload, r.mr_b->addr(8), 1, r.record());
     }, 0, WcStatus::kFlushed, 100, 0, 0, 5, {0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}},
    {"write torn down in flight", [](GoldenRig& r) {
       r.qa->post_write(r.payload, r.mr_b->addr(8), 1, r.record());
       r.fabric.disconnect(r.qa);
     }, 647, WcStatus::kFlushed, 0, 0, 0, 5, {1, 0, 100, 0, 189, 0}, {0, 1, 0, 100, 0, 108}},
    {"read torn down in flight", [](GoldenRig& r) {
       r.qa->post_read(r.buf, r.mr_b->addr(0), 1, r.record());
       r.fabric.disconnect(r.qa);
     }, 1269, WcStatus::kFlushed, 64, 0, 0, 5, {1, 1, 16, 64, 172, 108}, {1, 0, 64, 0, 181, 0}},
    {"write to dead peer", [](GoldenRig& r) {
       r.fabric.kill_node(r.b->id());
       r.qa->post_write(r.payload, r.mr_b->addr(8), 1, r.record());
     }, 500647, WcStatus::kRemoteDead, 100, 0, 0, 5, {1, 0, 100, 0, 189, 0}, {0, 1, 0, 100, 0, 108}},
    {"read from dead peer", [](GoldenRig& r) {
       r.fabric.kill_node(r.b->id());
       r.qa->post_read(r.buf, r.mr_b->addr(0), 1, r.record());
     }, 501269, WcStatus::kRemoteDead, 64, 0, 0, 5, {1, 1, 16, 64, 172, 108}, {1, 0, 64, 0, 181, 0}},
    {"faa to dead peer", [](GoldenRig& r) {
       r.fabric.kill_node(r.b->id());
       r.qa->post_faa(r.mr_b->addr(0), 3, 1, r.record());
     }, 500772, WcStatus::kRemoteDead, 8, 0, 0, 5, {1, 0, 8, 0, 170, 0}, {0, 1, 0, 8, 0, 252}},
    {"send to dead peer", [](GoldenRig& r) {
       r.fabric.kill_node(r.b->id());
       r.qa->post_send(r.payload, 1, r.record());
     }, 502647, WcStatus::kRemoteDead, 100, 0, 0, 5, {1, 0, 100, 0, 1189, 0}, {0, 1, 0, 100, 0, 1108}},
    {"write bad rkey", [](GoldenRig& r) {
       r.qa->post_write(r.payload, RemoteAddr{99, 0}, 1, r.record());
     }, 997, WcStatus::kProtectionError, 100, 0, 0, 5, {1, 0, 100, 0, 189, 0}, {0, 1, 0, 100, 0, 108}},
    {"write out of bounds", [](GoldenRig& r) {
       r.qa->post_write(r.payload, r.mr_b->addr(200), 1, r.record());
     }, 997, WcStatus::kProtectionError, 100, 0, 0, 5, {1, 0, 100, 0, 189, 0}, {0, 1, 0, 100, 0, 108}},
    {"read out of bounds", [](GoldenRig& r) {
       r.qa->post_read(r.buf, r.mr_b->addr(200), 1, r.record());
     }, 501269, WcStatus::kProtectionError, 64, 0, 0, 5, {1, 1, 16, 64, 172, 108}, {1, 0, 64, 0, 181, 0}},
    {"cas bad rkey", [](GoldenRig& r) {
       r.qa->post_cas(RemoteAddr{99, 0}, GoldenRig::kWord, 9, 1, r.record());
     }, 1122, WcStatus::kProtectionError, 8, 0, 0, 5, {1, 0, 8, 0, 170, 0}, {0, 1, 0, 8, 0, 252}},
    {"torn write", [](GoldenRig& r) {
       r.fault_writes(WriteFault::Kind::kTorn, 40);
       r.qa->post_write(r.payload, r.mr_b->addr(8), 1, r.record());
     }, 500647, WcStatus::kFlushed, 40, 0, 0, 5, {1, 0, 100, 0, 189, 0}, {0, 1, 0, 100, 0, 108}},
    {"dropped write", [](GoldenRig& r) {
       r.fault_writes(WriteFault::Kind::kDrop);
       r.qa->post_write(r.payload, r.mr_b->addr(8), 1, r.record());
     }, 500647, WcStatus::kFlushed, 0, 0, 0, 5, {1, 0, 100, 0, 189, 0}, {0, 1, 0, 100, 0, 108}},
    {"torn read", [](GoldenRig& r) {
       r.fabric.set_read_fault_hook([](NodeId, NodeId, const RemoteAddr&, std::uint32_t) {
         return ReadFault{ReadFault::Kind::kTorn, 8};
       });
       r.qa->post_read(r.buf, r.mr_b->addr(0), 1, r.record());
     }, 1269, WcStatus::kSuccess, 64, 0, 0, 5, {1, 1, 16, 64, 172, 108}, {1, 0, 64, 0, 181, 0}},
    {"torn atomic", [](GoldenRig& r) {
       r.fault_writes(WriteFault::Kind::kTorn, 4);
       r.qa->post_faa(r.mr_b->addr(0), 3, 1, r.record());
     }, 500772, WcStatus::kFlushed, 0, 0, 0, 8, {1, 0, 8, 0, 170, 0}, {0, 1, 0, 8, 0, 252}},
    {"dropped atomic", [](GoldenRig& r) {
       r.fault_writes(WriteFault::Kind::kDrop);
       r.qa->post_cas(r.mr_b->addr(0), GoldenRig::kWord, 9, 1, r.record());
     }, 500772, WcStatus::kFlushed, 0, 0, 0, 5, {1, 0, 8, 0, 170, 0}, {0, 1, 0, 8, 0, 252}},
};
// clang-format on

TEST(NicGolden, EveryVerbAndOutcomeKeepsItsExactCost) {
  for (const GoldenCase& g : kGolden) {
    SCOPED_TRACE(g.name);
    GoldenRig r;
    g.post(r);
    r.sched.run();
    const NicCounts a = counts_of(r.a->nic());
    const NicCounts b = counts_of(r.b->nic());
    std::uint64_t word = 0;
    std::memcpy(&word, r.mem_b.data(), sizeof(word));
    const bool same = r.done_at == g.done_at && r.last.status == g.status &&
                      r.last.byte_len == g.byte_len && r.last.old_value == g.old_value &&
                      r.delivered_at == g.delivered_at && word == g.word && a == g.a &&
                      b == g.b;
    EXPECT_TRUE(same) << "actual: " << r.done_at << ", " << enum_name(r.last.status) << ", " << r.last.byte_len << ", "
                      << r.last.old_value << ", " << r.delivered_at << ", " << word << ", " << row_of(a)
                      << ", " << row_of(b);
  }
}

TEST(NicGolden, BusyTimeIsTheSumOfServiceTimes) {
  // A write and a read posted back to back: the read's request queues
  // behind the write on a's send engine, but busy time counts only service.
  // The read is served by b's *send* engine, not its receive engine.
  GoldenRig r;
  r.qa->post_write(r.payload, r.mr_b->addr(8));
  r.qa->post_read(r.buf, r.mr_b->addr(0), 1, r.record());
  r.sched.run();
  const CostModel& cm = r.fabric.cost();
  const double pen = cm.qp_penalty(GoldenRig::kQps);
  const auto svc = [pen](Duration base) {
    return static_cast<std::uint64_t>(static_cast<double>(base) * pen);
  };
  const Nic& a = r.a->nic();
  const Nic& b = r.b->nic();
  EXPECT_EQ(a.tx_busy_ns, svc(cm.nic_tx_overhead) + cm.rdma_wire_time(100) +
                              svc(cm.nic_tx_overhead) + cm.rdma_wire_time(16));
  EXPECT_EQ(a.rx_busy_ns, svc(cm.nic_rx_overhead));
  EXPECT_EQ(b.rx_busy_ns, svc(cm.nic_rx_overhead));
  EXPECT_EQ(b.tx_busy_ns, svc(cm.nic_tx_overhead) + cm.rdma_wire_time(64));
  // a's send engine never idled from time 0: the request ran right behind
  // the write, and its wait counted no busy time.
  EXPECT_EQ(a.tx_free, static_cast<Time>(a.tx_busy_ns));
}

// ------------------------------------------------------ registered buffer

const std::size_t kPage = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));

std::size_t resident(const RegisteredBuffer& buf) {
  return test::resident_pages(buf.data(), buf.size());
}

bool all_equal(const RegisteredBuffer& buf, std::size_t from, std::size_t to, std::byte v) {
  return std::all_of(buf.data() + from, buf.data() + to, [v](std::byte b) { return b == v; });
}

TEST(RegisteredBuffer, ReadsZeroOnCreationWithNothingResident) {
  RegisteredBuffer buf(3 * kPage + 100);
  ASSERT_EQ(buf.size(), 3 * kPage + 100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kPage, 0u);
  EXPECT_EQ(resident(buf), 0u) << "the mapping must be demand-zero, not pre-faulted";
  EXPECT_TRUE(all_equal(buf, 0, buf.size(), std::byte{0}));

  RegisteredBuffer empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.bytes().empty());
  empty.zero(0, 0);
}

TEST(RegisteredBuffer, DenseIsResidentAndZeroFromConstruction) {
  RegisteredBuffer buf(5 * kPage + 100, RegisteredBuffer::Residency::kDense);
  ASSERT_EQ(buf.size(), 5 * kPage + 100);
  EXPECT_EQ(resident(buf), 6u) << "a dense buffer is populated whole when built";
  EXPECT_TRUE(all_equal(buf, 0, buf.size(), std::byte{0}));
  // Large enough for a guard page and for 2 MiB pages where the kernel has
  // them; residency is the same either way.
  RegisteredBuffer big(RegisteredBuffer::kGuardMinBytes * 4, RegisteredBuffer::Residency::kDense);
  EXPECT_EQ(resident(big), big.size() / kPage);
  EXPECT_TRUE(all_equal(big, 0, big.size(), std::byte{0}));
}

TEST(RegisteredBuffer, ZeroOfWholePagesReleasesThemAndKeepsNeighbours) {
  RegisteredBuffer buf(8 * kPage);
  std::memset(buf.data(), 0xab, buf.size());
  ASSERT_EQ(resident(buf), 8u);

  buf.zero(2 * kPage, 3 * kPage);
  EXPECT_TRUE(all_equal(buf, 0, 2 * kPage, std::byte{0xab}));
  EXPECT_TRUE(all_equal(buf, 2 * kPage, 5 * kPage, std::byte{0}));
  EXPECT_TRUE(all_equal(buf, 5 * kPage, 8 * kPage, std::byte{0xab}));
  // Reading the dropped pages maps the shared zero page, which mincore
  // counts; so drop them again before counting.
  buf.zero(2 * kPage, 3 * kPage);
  EXPECT_EQ(test::resident_pages(buf.data() + 2 * kPage, 3 * kPage), 0u);
  EXPECT_EQ(resident(buf), 5u);
}

TEST(RegisteredBuffer, ZeroOfUnalignedRangeWritesOnlyItsEdges) {
  RegisteredBuffer buf(8 * kPage);
  std::memset(buf.data(), 0xab, buf.size());

  // [100, 3 pages + 100): whole pages 1 and 2 drop, pages 0 and 3 keep
  // their bytes outside the range.
  buf.zero(100, 3 * kPage);
  EXPECT_EQ(test::resident_pages(buf.data() + kPage, 2 * kPage), 0u);
  EXPECT_EQ(resident(buf), 6u);
  EXPECT_TRUE(all_equal(buf, 0, 100, std::byte{0xab}));
  EXPECT_TRUE(all_equal(buf, 100, 3 * kPage + 100, std::byte{0}));
  EXPECT_TRUE(all_equal(buf, 3 * kPage + 100, buf.size(), std::byte{0xab}));

  // A range inside one page is a plain memset.
  buf.zero(6 * kPage + 10, 20);
  EXPECT_TRUE(all_equal(buf, 6 * kPage, 6 * kPage + 10, std::byte{0xab}));
  EXPECT_TRUE(all_equal(buf, 6 * kPage + 10, 6 * kPage + 30, std::byte{0}));
  EXPECT_TRUE(all_equal(buf, 6 * kPage + 30, buf.size(), std::byte{0xab}));

  // The tail up to an unaligned end.
  RegisteredBuffer odd(2 * kPage + 7);
  std::memset(odd.data(), 0xcd, odd.size());
  odd.zero(kPage - 1, kPage + 8);
  EXPECT_TRUE(all_equal(odd, 0, kPage - 1, std::byte{0xcd}));
  EXPECT_TRUE(all_equal(odd, kPage - 1, odd.size(), std::byte{0}));
}

TEST(RegisteredBuffer, ZeroRejectsRangesPastTheEnd) {
  RegisteredBuffer buf(kPage);
  EXPECT_THROW(buf.zero(kPage - 1, 2), std::out_of_range);
  EXPECT_THROW(buf.zero(kPage + 1, 0), std::out_of_range);
  buf.zero(kPage, 0);
}

TEST(RegisteredBuffer, MoveKeepsTheBytesWhereTheyAre) {
  RegisteredBuffer a(2 * kPage);
  a.data()[5] = std::byte{7};
  std::byte* const where = a.data();
  RegisteredBuffer b(std::move(a));
  EXPECT_EQ(b.data(), where);
  EXPECT_EQ(b.data()[5], std::byte{7});
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
  a = std::move(b);
  EXPECT_EQ(a.data(), where);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(RegisteredBufferDeathTest, WriteOneBytePastTheEndDies) {
  // The guard page stands where heap redzones used to catch overruns.
  RegisteredBuffer buf(RegisteredBuffer::kGuardMinBytes);
  volatile std::byte* bytes = buf.data();
  EXPECT_DEATH(bytes[buf.size()] = std::byte{1}, "");
}

}  // namespace
}  // namespace hydra::fabric
