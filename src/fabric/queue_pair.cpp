#include "fabric/queue_pair.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "fabric/fabric.hpp"
#include "obs/plane.hpp"

namespace hydra::fabric {
namespace {

Duration scaled(Duration base, double penalty) noexcept {
  return static_cast<Duration>(static_cast<double>(base) * penalty);
}

}  // namespace

void QueuePair::post_write(std::span<const std::byte> src, RemoteAddr dst,
                           std::uint64_t wr_id, CompletionFn on_done, bool batched,
                           std::uint32_t frames) {
  const auto size = static_cast<std::uint32_t>(src.size());
  const Completion wc{WcOp::kWrite, WcStatus::kSuccess, wr_id, size};
  if (!accepts(wc, on_done)) return;
  Fabric& f = *fabric_;
  ++f.stats_.rdma_writes;

  // Snapshot the source: as-if the NIC DMA-read the buffer at post time.
  std::vector<std::byte> data(src.begin(), src.end());

  if (f.obs_) {
    f.obs_->trace(f.sched_.now(), local_,
                  batched ? obs::TraceKind::kDoorbellBatched : obs::TraceKind::kWritePosted,
                  obs::kNoShard, size, obs::posted_write_b(dst.rkey, frames));
  }

  const Time commit = carry(f.cost_.tx_overhead(batched), 0, false, size);
  f.sched_.at(commit, [this, &f, data = std::move(data), dst, wc,
                       on_done = std::move(on_done), gen = generation_]() mutable {
    if (!reachable(gen, wc, on_done)) return;
    WriteFault fault;
    if (f.write_fault_) fault = f.write_fault_(local_, remote_, dst, wc.byte_len);
    MemoryRegion* mr = region(dst, wc, on_done);
    if (mr == nullptr) return;
    if (fault.kind != WriteFault::Kind::kDeliver) {
      // Fault injection: commit a prefix (torn) or nothing (dropped), then
      // surface a flush error to the initiator after the retry timeout --
      // RC never delivers a success completion for a write that did not
      // fully land.
      const std::uint32_t committed =
          fault.kind == WriteFault::Kind::kTorn ? std::min(fault.torn_bytes, wc.byte_len) : 0;
      ++(fault.kind == WriteFault::Kind::kTorn ? f.stats_.torn_writes : f.stats_.dropped_writes);
      if (f.obs_) {
        f.obs_->trace(f.sched_.now(), remote_, obs::TraceKind::kWriteFaulted, obs::kNoShard,
                      committed, dst.rkey);
      }
      if (committed > 0) {
        std::memcpy(mr->base() + dst.offset, data.data(), committed);
        if (mr->write_hook()) mr->write_hook()(dst.offset, committed);
      }
      complete(f.cost_.peer_timeout, std::move(on_done),
               {WcOp::kWrite, WcStatus::kFlushed, wc.wr_id, committed});
      return;
    }
    std::memcpy(mr->base() + dst.offset, data.data(), wc.byte_len);
    if (f.obs_) {
      f.obs_->trace(f.sched_.now(), remote_, obs::TraceKind::kWriteCommitted, obs::kNoShard,
                    wc.byte_len, dst.rkey);
    }
    if (mr->write_hook()) mr->write_hook()(dst.offset, wc.byte_len);
    complete(f.cost_.rdma_propagation, std::move(on_done), wc);
  });
}

void QueuePair::post_read(std::span<std::byte> dst, RemoteAddr src,
                          std::uint64_t wr_id, CompletionFn on_done) {
  const auto size = static_cast<std::uint32_t>(dst.size());
  Completion wc{WcOp::kRead, WcStatus::kSuccess, wr_id, size};
  if (!accepts(wc, on_done)) return;
  Fabric& f = *fabric_;
  const CostModel& cm = f.cost_;
  ++f.stats_.rdma_reads;
  constexpr std::uint32_t kReadRequestBytes = 16;

  if (f.obs_) {
    f.obs_->trace(f.sched_.now(), local_, obs::TraceKind::kReadPosted, obs::kNoShard, size,
                  src.rkey);
  }

  // The request WQE leaves through the initiator's send engine. The target
  // NIC serves the read entirely in hardware: after receive processing it
  // DMA-reads the registered memory and streams the response out of its
  // send engine without touching the CPU. The response lands through the
  // initiator's receive engine.
  Nic& lnic = f.node(local_).nic();
  Nic& rnic = f.node(remote_).nic();
  const double pen_l = cm.qp_penalty(lnic.qp_count);
  const double pen_r = cm.qp_penalty(rnic.qp_count);
  const Time req_arrival =
      lnic.transmit(f.sched_.now(),
                    scaled(cm.nic_tx_overhead, pen_l) + cm.rdma_wire_time(kReadRequestBytes),
                    kReadRequestBytes) +
      cm.rdma_propagation;
  const Duration serve = scaled(cm.nic_tx_overhead, pen_r) + cm.rdma_wire_time(size);
  const Time served =
      rnic.transmit(req_arrival + scaled(cm.nic_rx_overhead, pen_r), serve, size);
  const Time done =
      lnic.receive(served + cm.rdma_propagation, scaled(cm.nic_rx_overhead, pen_l), size);

  // Two-phase: target memory is observed at serve time, the initiator's
  // buffer is filled at completion time.
  struct Phase {
    std::vector<std::byte> snapshot;
    WcStatus status = WcStatus::kSuccess;
  };
  auto phase = std::make_shared<Phase>();

  f.sched_.at(served - serve, [this, &f, src, size, phase, gen = generation_] {
    Node& rem = f.node(remote_);
    MemoryRegion* mr = rem.find_region(src.rkey);
    if (!open_ || generation_ != gen) {
      phase->status = WcStatus::kFlushed;
    } else if (!rem.alive()) {
      ++f.stats_.dead_peer_errors;
      phase->status = WcStatus::kRemoteDead;
    } else if (mr == nullptr || !mr->contains(src.offset, size)) {
      ++f.stats_.protection_errors;
      phase->status = WcStatus::kProtectionError;
    }
    if (phase->status != WcStatus::kSuccess) return;
    std::vector<std::byte>& snapshot = phase->snapshot;
    snapshot.assign(mr->base() + src.offset, mr->base() + src.offset + size);
    if (f.read_fault_) {
      const ReadFault rf = f.read_fault_(local_, remote_, src, size);
      if (rf.kind == ReadFault::Kind::kTorn) {
        // Delivered as kSuccess with the bytes past the torn prefix garbled:
        // only the reader's own validation (checksums, guardians) can tell.
        ++f.stats_.torn_reads;
        for (std::size_t i = rf.torn_bytes; i < snapshot.size(); ++i) {
          snapshot[i] ^= std::byte{0xA5};
        }
        if (f.obs_) {
          f.obs_->trace(f.sched_.now(), local_, obs::TraceKind::kReadFaulted,
                        obs::kNoShard, rf.torn_bytes, src.rkey);
        }
      }
    }
  });

  f.sched_.at(done, [this, &f, dst, wc, phase, on_done = std::move(on_done),
                     gen = generation_]() mutable {
    wc.status = !open_ || generation_ != gen ? WcStatus::kFlushed : phase->status;
    if (f.obs_) {
      f.obs_->trace(f.sched_.now(), local_, obs::TraceKind::kReadCompleted, obs::kNoShard,
                    wc.byte_len, static_cast<std::uint64_t>(wc.status != WcStatus::kSuccess));
    }
    if (wc.status == WcStatus::kSuccess) {
      std::memcpy(dst.data(), phase->snapshot.data(), wc.byte_len);
    }
    if (wc.status != WcStatus::kSuccess && wc.status != WcStatus::kFlushed) {
      // A remote fault surfaces after the retransmit timeout; a local
      // teardown is not one, so it has no timeout to wait.
      complete(f.cost_.peer_timeout, std::move(on_done), wc);
    } else if (on_done) {
      on_done(wc);
    }
  });
}

void QueuePair::post_cas(RemoteAddr dst, std::uint64_t compare, std::uint64_t swap,
                         std::uint64_t wr_id, CompletionFn on_done) {
  post_atomic(WcOp::kCas, dst, compare, swap, wr_id, std::move(on_done));
}

void QueuePair::post_faa(RemoteAddr dst, std::uint64_t add,
                         std::uint64_t wr_id, CompletionFn on_done) {
  post_atomic(WcOp::kFaa, dst, 0, add, wr_id, std::move(on_done));
}

void QueuePair::post_atomic(WcOp op, RemoteAddr dst, std::uint64_t compare,
                            std::uint64_t operand, std::uint64_t wr_id,
                            CompletionFn on_done) {
  constexpr std::uint32_t kAtomicBytes = 8;
  Completion wc{op, WcStatus::kSuccess, wr_id, kAtomicBytes};
  if (!accepts(wc, on_done)) return;
  Fabric& f = *fabric_;
  ++f.stats_.rdma_atomics;

  const std::uint64_t is_faa = op == WcOp::kFaa ? 1 : 0;
  if (f.obs_) {
    f.obs_->trace(f.sched_.now(), local_, obs::TraceKind::kAtomicPosted, obs::kNoShard, is_faa,
                  dst.rkey);
  }

  // A write's pipeline, except that the target additionally pays
  // atomic_extra for the HCA's serialised read-modify-write unit.
  const Time commit = carry(f.cost_.nic_tx_overhead, f.cost_.atomic_extra, false, kAtomicBytes);
  f.sched_.at(commit, [this, &f, dst, compare, operand, is_faa, wc,
                       on_done = std::move(on_done), gen = generation_]() mutable {
    if (!reachable(gen, wc, on_done)) return;
    WriteFault fault;
    if (f.write_fault_) fault = f.write_fault_(local_, remote_, dst, kAtomicBytes);
    MemoryRegion* mr = region(dst, wc, on_done);
    if (mr == nullptr) return;
    const Completion lost{wc.op, WcStatus::kFlushed, wc.wr_id, 0};
    if (fault.kind == WriteFault::Kind::kDrop) {
      // Dropped atomic: never executes; the initiator's WR flushes after the
      // retransmission timeout, exactly like a dropped write.
      ++f.stats_.dropped_atomics;
      if (f.obs_) {
        f.obs_->trace(f.sched_.now(), remote_, obs::TraceKind::kAtomicFaulted, obs::kNoShard,
                      0, dst.rkey);
      }
      complete(f.cost_.peer_timeout, std::move(on_done), lost);
      return;
    }
    // Execute the read-modify-write. The event loop is the serialisation
    // point, so the load-compare/add-store below is atomic by construction.
    std::uint64_t old = 0;
    std::memcpy(&old, mr->base() + dst.offset, kAtomicBytes);
    if (wc.op == WcOp::kFaa || old == compare) {
      const std::uint64_t neu = wc.op == WcOp::kFaa ? old + operand : operand;
      std::memcpy(mr->base() + dst.offset, &neu, kAtomicBytes);
      if (mr->write_hook()) mr->write_hook()(dst.offset, kAtomicBytes);
    }
    if (fault.kind == WriteFault::Kind::kTorn) {
      // Torn atomic: the op *executed* at the target (an atomic is
      // indivisible; there is no partial-word state) but the response to
      // the initiator is lost, so the WR flushes and the caller cannot
      // know whether it took effect.
      ++f.stats_.torn_atomics;
      if (f.obs_) {
        f.obs_->trace(f.sched_.now(), remote_, obs::TraceKind::kAtomicFaulted, obs::kNoShard,
                      1, dst.rkey);
      }
      complete(f.cost_.peer_timeout, std::move(on_done), lost);
      return;
    }
    if (f.obs_) {
      f.obs_->trace(f.sched_.now(), remote_, obs::TraceKind::kAtomicCommitted, obs::kNoShard,
                    is_faa, dst.rkey);
    }
    wc.old_value = old;
    complete(f.cost_.rdma_propagation, std::move(on_done), wc);
  });
}

void QueuePair::post_send(std::span<const std::byte> msg,
                          std::uint64_t wr_id, CompletionFn on_done) {
  const auto size = static_cast<std::uint32_t>(msg.size());
  const Completion wc{WcOp::kSend, WcStatus::kSuccess, wr_id, size};
  if (!accepts(wc, on_done)) return;
  Fabric& f = *fabric_;
  ++f.stats_.sends;

  std::vector<std::byte> data(msg.begin(), msg.end());

  if (f.obs_) {
    f.obs_->trace(f.sched_.now(), local_, obs::TraceKind::kSendPosted, obs::kNoShard, size);
  }

  const Time commit = carry(f.cost_.nic_tx_overhead, 0, true, size);
  f.sched_.at(commit, [this, &f, data = std::move(data), wc, on_done = std::move(on_done),
                       commit, gen = generation_]() mutable {
    if (!reachable(gen, wc, on_done)) return;
    peer_->deliver_send(std::move(data), commit);
    complete(f.cost_.rdma_propagation, std::move(on_done), wc);
  });
}

Time QueuePair::carry(Duration wqe, Duration rx_extra, bool two_sided, std::uint32_t bytes) {
  Fabric& f = *fabric_;
  const CostModel& cm = f.cost_;
  // A two-sided verb pays two_sided_extra on both engines, unscaled.
  const Duration side = two_sided ? cm.two_sided_extra : 0;
  Nic& tx = f.node(local_).nic();
  const Time sent =
      tx.transmit(f.sched_.now(),
                  scaled(wqe, cm.qp_penalty(tx.qp_count)) + side + cm.rdma_wire_time(bytes),
                  bytes);
  Nic& rx = f.node(remote_).nic();
  const double pen_rx = cm.qp_penalty(rx.qp_count);
  const Time landed =
      rx.receive(sent + cm.rdma_propagation,
                 scaled(cm.nic_rx_overhead, pen_rx) + scaled(rx_extra, pen_rx) + side, bytes);
  // RC ordering: ops on one QP land in posted order.
  last_commit_ = std::max(landed, last_commit_);
  return last_commit_;
}

bool QueuePair::accepts(const Completion& wc, CompletionFn& on_done) {
  if (open_) return true;
  complete(0, std::move(on_done), {wc.op, WcStatus::kFlushed, wc.wr_id, wc.byte_len});
  return false;
}

bool QueuePair::reachable(std::uint32_t gen, const Completion& wc, CompletionFn& on_done) {
  if (!open_ || generation_ != gen) {
    // QP torn down (or its slot recycled) while the op was in flight: it
    // never lands and the WR flushes back to the initiator at once.
    if (on_done) on_done(Completion{wc.op, WcStatus::kFlushed, wc.wr_id, 0});
    return false;
  }
  Fabric& f = *fabric_;
  if (f.node(remote_).alive()) return true;
  ++f.stats_.dead_peer_errors;
  if (f.obs_) {
    f.obs_->trace(f.sched_.now(), local_, obs::TraceKind::kWriteDeadPeer, obs::kNoShard,
                  wc.byte_len);
  }
  complete(f.cost_.peer_timeout, std::move(on_done),
           {wc.op, WcStatus::kRemoteDead, wc.wr_id, wc.byte_len});
  return false;
}

MemoryRegion* QueuePair::region(RemoteAddr at, const Completion& wc, CompletionFn& on_done) {
  Fabric& f = *fabric_;
  MemoryRegion* mr = f.node(remote_).find_region(at.rkey);
  if (mr != nullptr && mr->contains(at.offset, wc.byte_len)) return mr;
  ++f.stats_.protection_errors;
  complete(f.cost_.rdma_propagation, std::move(on_done),
           {wc.op, WcStatus::kProtectionError, wc.wr_id, wc.byte_len});
  return nullptr;
}

void QueuePair::complete(Duration delay, CompletionFn on_done, const Completion& wc) {
  if (!on_done) return;
  fabric_->sched_.after(delay, [on_done = std::move(on_done), wc] { on_done(wc); });
}

void QueuePair::deliver_send(std::vector<std::byte> data, Time commit_time) {
  if (!open_) return;  // closed endpoint: inbound sends are silently flushed
  if (recv_queue_.empty()) {
    // Receiver-not-ready: hold the message until a receive is posted,
    // modelling RNR retry without loss.
    pending_sends_.push_back(PendingSend{std::move(data), commit_time});
    return;
  }
  RecvBuf rb = recv_queue_.front();
  recv_queue_.pop_front();
  const auto len = static_cast<std::uint32_t>(std::min(data.size(), rb.buf.size()));
  std::memcpy(rb.buf.data(), data.data(), len);
  if (fabric_->obs_) {
    fabric_->obs_->trace(fabric_->sched_.now(), local_, obs::TraceKind::kSendDelivered,
                         obs::kNoShard, len);
  }
  if (recv_handler_) {
    recv_handler_(Completion{WcOp::kRecv, WcStatus::kSuccess, rb.wr_id, len},
                  rb.buf.subspan(0, len));
  }
}

void QueuePair::close() {
  open_ = false;
  ++generation_;
  last_commit_ = 0;
  recv_queue_.clear();
  pending_sends_.clear();
  recv_handler_ = nullptr;
}

void QueuePair::reopen(std::uint32_t id, NodeId local, NodeId remote) {
  id_ = id;
  local_ = local;
  remote_ = remote;
  open_ = true;
  ++generation_;
  last_commit_ = 0;
}

void QueuePair::post_recv(std::span<std::byte> buf, std::uint64_t wr_id) {
  if (!open_) return;
  recv_queue_.push_back(RecvBuf{buf, wr_id});
  if (!pending_sends_.empty()) {
    PendingSend ps = std::move(pending_sends_.front());
    pending_sends_.pop_front();
    // Deliver in a fresh event to avoid reentrancy surprises for callers.
    fabric_->sched_.after(0, [this, data = std::move(ps.data), t = ps.commit_time]() mutable {
      deliver_send(std::move(data), t);
    });
  }
}

}  // namespace hydra::fabric
