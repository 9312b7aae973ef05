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
  if (!open_) {
    flush_completion(WcOp::kWrite, wr_id, static_cast<std::uint32_t>(src.size()),
                     std::move(on_done));
    return;
  }
  Fabric& f = *fabric_;
  sim::Scheduler& sched = f.sched_;
  const CostModel& cm = f.cost_;
  ++f.stats_.rdma_writes;

  // Snapshot the source: as-if the NIC DMA-read the buffer at post time.
  std::vector<std::byte> data(src.begin(), src.end());
  const auto size = static_cast<std::uint32_t>(data.size());

  if (f.obs_) {
    f.obs_->trace(sched.now(), local_,
                  batched ? obs::TraceKind::kDoorbellBatched : obs::TraceKind::kWritePosted,
                  obs::kNoShard, size, obs::posted_write_b(dst.rkey, frames));
  }

  // Initiator NIC send engine: WQE processing plus wire serialization.
  Nic& tx = f.node(local_).nic();
  const double pen_tx = cm.qp_penalty(tx.qp_count);
  const Time tx_start = std::max(sched.now(), tx.tx_free);
  tx.tx_free = tx_start + scaled(cm.tx_overhead(batched), pen_tx) + cm.rdma_wire_time(size);
  ++tx.tx_ops;
  tx.tx_bytes += size;

  const Time arrival = tx.tx_free + cm.rdma_propagation;

  // Target NIC receive/DMA engine.
  Nic& rx = f.node(remote_).nic();
  const double pen_rx = cm.qp_penalty(rx.qp_count);
  Time commit = std::max(arrival, rx.rx_free) + scaled(cm.nic_rx_overhead, pen_rx);
  rx.rx_free = commit;
  ++rx.rx_ops;
  rx.rx_bytes += size;

  // RC ordering: writes on one QP become visible in posted order.
  commit = std::max(commit, last_commit_);
  last_commit_ = commit;

  sched.at(commit, [this, &f, &sched, data = std::move(data), dst, wr_id,
                    on_done = std::move(on_done), size, gen = generation_]() mutable {
    const CostModel& cost = f.cost_;
    if (!open_ || generation_ != gen) {
      // QP torn down (or its slot recycled) while the op was in flight: the
      // bytes never land and the WR flushes back to the initiator.
      if (on_done) on_done(Completion{WcOp::kWrite, WcStatus::kFlushed, wr_id, 0});
      return;
    }
    Node& rem = f.node(remote_);
    if (!rem.alive()) {
      ++f.stats_.dead_peer_errors;
      if (f.obs_) {
        f.obs_->trace(sched.now(), local_, obs::TraceKind::kWriteDeadPeer, obs::kNoShard, size);
      }
      if (on_done) {
        sched.after(cost.peer_timeout, [on_done = std::move(on_done), wr_id, size] {
          on_done(Completion{WcOp::kWrite, WcStatus::kRemoteDead, wr_id, size});
        });
      }
      return;
    }
    WriteFault fault;
    if (f.write_fault_) fault = f.write_fault_(local_, remote_, dst, size);
    MemoryRegion* mr = rem.find_region(dst.rkey);
    if (mr == nullptr || !mr->contains(dst.offset, size)) {
      ++f.stats_.protection_errors;
      if (on_done) {
        sched.after(cost.rdma_propagation, [on_done = std::move(on_done), wr_id, size] {
          on_done(Completion{WcOp::kWrite, WcStatus::kProtectionError, wr_id, size});
        });
      }
      return;
    }
    if (fault.kind != WriteFault::Kind::kDeliver) {
      // Fault injection: commit a prefix (torn) or nothing (dropped), then
      // surface a flush error to the initiator after the retry timeout --
      // RC never delivers a success completion for a write that did not
      // fully land.
      const std::uint32_t committed =
          fault.kind == WriteFault::Kind::kTorn ? std::min(fault.torn_bytes, size) : 0;
      if (fault.kind == WriteFault::Kind::kTorn) {
        ++f.stats_.torn_writes;
      } else {
        ++f.stats_.dropped_writes;
      }
      if (f.obs_) {
        f.obs_->trace(sched.now(), remote_, obs::TraceKind::kWriteFaulted, obs::kNoShard,
                      committed, dst.rkey);
      }
      if (committed > 0) {
        std::memcpy(mr->base() + dst.offset, data.data(), committed);
        if (mr->write_hook()) mr->write_hook()(dst.offset, committed);
      }
      if (on_done) {
        sched.after(cost.peer_timeout, [on_done = std::move(on_done), wr_id, committed] {
          on_done(Completion{WcOp::kWrite, WcStatus::kFlushed, wr_id, committed});
        });
      }
      return;
    }
    std::memcpy(mr->base() + dst.offset, data.data(), size);
    if (f.obs_) {
      f.obs_->trace(sched.now(), remote_, obs::TraceKind::kWriteCommitted, obs::kNoShard, size,
                    dst.rkey);
    }
    if (mr->write_hook()) mr->write_hook()(dst.offset, size);
    if (on_done) {
      sched.after(cost.rdma_propagation, [on_done = std::move(on_done), wr_id, size] {
        on_done(Completion{WcOp::kWrite, WcStatus::kSuccess, wr_id, size});
      });
    }
  });
}

void QueuePair::post_read(std::span<std::byte> dst, RemoteAddr src,
                          std::uint64_t wr_id, CompletionFn on_done) {
  if (!open_) {
    flush_completion(WcOp::kRead, wr_id, static_cast<std::uint32_t>(dst.size()),
                     std::move(on_done));
    return;
  }
  Fabric& f = *fabric_;
  sim::Scheduler& sched = f.sched_;
  const CostModel& cm = f.cost_;
  ++f.stats_.rdma_reads;

  const auto size = static_cast<std::uint32_t>(dst.size());
  constexpr std::uint32_t kReadRequestBytes = 16;

  if (f.obs_) {
    f.obs_->trace(sched.now(), local_, obs::TraceKind::kReadPosted, obs::kNoShard, size,
                  src.rkey);
  }

  // Request WQE leaves through the initiator's send engine.
  Nic& tx = f.node(local_).nic();
  const double pen_tx = cm.qp_penalty(tx.qp_count);
  const Time tx_start = std::max(sched.now(), tx.tx_free);
  tx.tx_free = tx_start + scaled(cm.nic_tx_overhead, pen_tx) + cm.rdma_wire_time(kReadRequestBytes);
  ++tx.tx_ops;
  tx.tx_bytes += kReadRequestBytes;

  const Time req_arrival = tx.tx_free + cm.rdma_propagation;

  // Target NIC serves the read entirely in hardware: it DMA-reads the
  // registered memory and streams the response without touching the CPU.
  Nic& rnic = f.node(remote_).nic();
  const double pen_r = cm.qp_penalty(rnic.qp_count);
  const Time serve_start =
      std::max(req_arrival + scaled(cm.nic_rx_overhead, pen_r), rnic.tx_free);
  rnic.tx_free = serve_start + scaled(cm.nic_tx_overhead, pen_r) + cm.rdma_wire_time(size);
  ++rnic.tx_ops;
  rnic.tx_bytes += size;

  const Time resp_arrival = rnic.tx_free + cm.rdma_propagation;

  Nic& lrx = f.node(local_).nic();
  const Time done = std::max(resp_arrival, lrx.rx_free) + scaled(cm.nic_rx_overhead, pen_tx);
  lrx.rx_free = done;
  ++lrx.rx_ops;
  lrx.rx_bytes += size;

  // Two-phase: target memory is observed at serve time, the initiator's
  // buffer is filled at completion time.
  auto snapshot = std::make_shared<std::vector<std::byte>>();
  auto failure = std::make_shared<WcStatus>(WcStatus::kSuccess);

  sched.at(serve_start, [this, &f, src, size, snapshot, failure, gen = generation_] {
    if (!open_ || generation_ != gen) {
      *failure = WcStatus::kFlushed;
      return;
    }
    Node& rem = f.node(remote_);
    if (!rem.alive()) {
      ++f.stats_.dead_peer_errors;
      *failure = WcStatus::kRemoteDead;
      return;
    }
    MemoryRegion* mr = rem.find_region(src.rkey);
    if (mr == nullptr || !mr->contains(src.offset, size)) {
      ++f.stats_.protection_errors;
      *failure = WcStatus::kProtectionError;
      return;
    }
    snapshot->assign(mr->base() + src.offset, mr->base() + src.offset + size);
    if (f.read_fault_) {
      const ReadFault rf = f.read_fault_(local_, remote_, src, size);
      if (rf.kind == ReadFault::Kind::kTorn) {
        // Delivered as kSuccess with the bytes past the torn prefix garbled:
        // only the reader's own validation (checksums, guardians) can tell.
        ++f.stats_.torn_reads;
        for (std::size_t i = rf.torn_bytes; i < snapshot->size(); ++i) {
          (*snapshot)[i] ^= std::byte{0xA5};
        }
        if (f.obs_) {
          f.obs_->trace(f.sched_.now(), local_, obs::TraceKind::kReadFaulted,
                        obs::kNoShard, rf.torn_bytes, src.rkey);
        }
      }
    }
  });

  const Time completion_time =
      done;  // success path; errors surface after the retransmit timeout
  sched.at(completion_time, [this, &sched, &f, dst, wr_id, size, snapshot, failure,
                             on_done = std::move(on_done), gen = generation_]() mutable {
    if (!open_ || generation_ != gen) *failure = WcStatus::kFlushed;
    if (f.obs_) {
      f.obs_->trace(sched.now(), local_, obs::TraceKind::kReadCompleted, obs::kNoShard, size,
                    static_cast<std::uint64_t>(*failure != WcStatus::kSuccess));
    }
    if (*failure != WcStatus::kSuccess) {
      if (on_done == nullptr) return;
      if (*failure == WcStatus::kFlushed) {
        // Local teardown, not a remote fault: no retransmit timeout to wait.
        on_done(Completion{WcOp::kRead, WcStatus::kFlushed, wr_id, size});
        return;
      }
      sched.after(f.cost_.peer_timeout,
                  [on_done = std::move(on_done), wr_id, size, st = *failure] {
                    on_done(Completion{WcOp::kRead, st, wr_id, size});
                  });
      return;
    }
    std::memcpy(dst.data(), snapshot->data(), size);
    if (on_done) on_done(Completion{WcOp::kRead, WcStatus::kSuccess, wr_id, size});
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
  if (!open_) {
    flush_completion(op, wr_id, kAtomicBytes, std::move(on_done));
    return;
  }
  Fabric& f = *fabric_;
  sim::Scheduler& sched = f.sched_;
  const CostModel& cm = f.cost_;
  ++f.stats_.rdma_atomics;

  const std::uint64_t is_faa = op == WcOp::kFaa ? 1 : 0;
  if (f.obs_) {
    f.obs_->trace(sched.now(), local_, obs::TraceKind::kAtomicPosted, obs::kNoShard, is_faa,
                  dst.rkey);
  }

  // Same shape as post_write's pipeline: request WQE through the initiator's
  // send engine, execute at the target NIC, response rides back. The target
  // additionally pays atomic_extra for the HCA's serialised read-modify-write
  // unit.
  Nic& tx = f.node(local_).nic();
  const double pen_tx = cm.qp_penalty(tx.qp_count);
  const Time tx_start = std::max(sched.now(), tx.tx_free);
  tx.tx_free = tx_start + scaled(cm.nic_tx_overhead, pen_tx) + cm.rdma_wire_time(kAtomicBytes);
  ++tx.tx_ops;
  tx.tx_bytes += kAtomicBytes;

  const Time arrival = tx.tx_free + cm.rdma_propagation;

  Nic& rx = f.node(remote_).nic();
  const double pen_rx = cm.qp_penalty(rx.qp_count);
  Time commit = std::max(arrival, rx.rx_free) + scaled(cm.nic_rx_overhead, pen_rx) +
                scaled(cm.atomic_extra, pen_rx);
  rx.rx_free = commit;
  ++rx.rx_ops;
  rx.rx_bytes += kAtomicBytes;

  // Atomics obey the same posted-order visibility as writes on this QP.
  commit = std::max(commit, last_commit_);
  last_commit_ = commit;

  sched.at(commit, [this, &f, &sched, op, dst, compare, operand, wr_id, is_faa,
                    on_done = std::move(on_done), gen = generation_]() mutable {
    const CostModel& cost = f.cost_;
    if (!open_ || generation_ != gen) {
      if (on_done) on_done(Completion{op, WcStatus::kFlushed, wr_id, 0});
      return;
    }
    Node& rem = f.node(remote_);
    if (!rem.alive()) {
      ++f.stats_.dead_peer_errors;
      if (f.obs_) {
        f.obs_->trace(sched.now(), local_, obs::TraceKind::kWriteDeadPeer, obs::kNoShard,
                      kAtomicBytes);
      }
      if (on_done) {
        sched.after(cost.peer_timeout, [on_done = std::move(on_done), op, wr_id] {
          on_done(Completion{op, WcStatus::kRemoteDead, wr_id, kAtomicBytes});
        });
      }
      return;
    }
    WriteFault fault;
    if (f.write_fault_) fault = f.write_fault_(local_, remote_, dst, kAtomicBytes);
    MemoryRegion* mr = rem.find_region(dst.rkey);
    if (mr == nullptr || !mr->contains(dst.offset, kAtomicBytes)) {
      ++f.stats_.protection_errors;
      if (on_done) {
        sched.after(cost.rdma_propagation, [on_done = std::move(on_done), op, wr_id] {
          on_done(Completion{op, WcStatus::kProtectionError, wr_id, kAtomicBytes});
        });
      }
      return;
    }
    if (fault.kind == WriteFault::Kind::kDrop) {
      // Dropped atomic: never executes; the initiator's WR flushes after the
      // retransmission timeout, exactly like a dropped write.
      ++f.stats_.dropped_atomics;
      if (f.obs_) {
        f.obs_->trace(sched.now(), remote_, obs::TraceKind::kAtomicFaulted, obs::kNoShard, 0,
                      dst.rkey);
      }
      if (on_done) {
        sched.after(cost.peer_timeout, [on_done = std::move(on_done), op, wr_id] {
          on_done(Completion{op, WcStatus::kFlushed, wr_id, 0});
        });
      }
      return;
    }
    // Execute the read-modify-write. The event loop is the serialisation
    // point, so the load-compare/add-store below is atomic by construction.
    std::uint64_t old = 0;
    std::memcpy(&old, mr->base() + dst.offset, kAtomicBytes);
    std::uint64_t neu = old;
    bool mutated = false;
    if (op == WcOp::kCas) {
      if (old == compare) {
        neu = operand;
        mutated = true;
      }
    } else {
      neu = old + operand;
      mutated = true;
    }
    if (mutated) {
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
        f.obs_->trace(sched.now(), remote_, obs::TraceKind::kAtomicFaulted, obs::kNoShard, 1,
                      dst.rkey);
      }
      if (on_done) {
        sched.after(cost.peer_timeout, [on_done = std::move(on_done), op, wr_id] {
          on_done(Completion{op, WcStatus::kFlushed, wr_id, 0});
        });
      }
      return;
    }
    if (f.obs_) {
      f.obs_->trace(sched.now(), remote_, obs::TraceKind::kAtomicCommitted, obs::kNoShard,
                    is_faa, dst.rkey);
    }
    if (on_done) {
      sched.after(cost.rdma_propagation, [on_done = std::move(on_done), op, wr_id, old] {
        Completion c{op, WcStatus::kSuccess, wr_id, kAtomicBytes};
        c.old_value = old;
        on_done(c);
      });
    }
  });
}

void QueuePair::post_send(std::span<const std::byte> msg,
                          std::uint64_t wr_id, CompletionFn on_done) {
  if (!open_) {
    flush_completion(WcOp::kSend, wr_id, static_cast<std::uint32_t>(msg.size()),
                     std::move(on_done));
    return;
  }
  Fabric& f = *fabric_;
  sim::Scheduler& sched = f.sched_;
  const CostModel& cm = f.cost_;
  ++f.stats_.sends;

  std::vector<std::byte> data(msg.begin(), msg.end());
  const auto size = static_cast<std::uint32_t>(data.size());

  if (f.obs_) {
    f.obs_->trace(sched.now(), local_, obs::TraceKind::kSendPosted, obs::kNoShard, size);
  }

  Nic& tx = f.node(local_).nic();
  const double pen_tx = cm.qp_penalty(tx.qp_count);
  const Time tx_start = std::max(sched.now(), tx.tx_free);
  tx.tx_free = tx_start + scaled(cm.nic_tx_overhead, pen_tx) + cm.two_sided_extra +
               cm.rdma_wire_time(size);
  ++tx.tx_ops;
  tx.tx_bytes += size;

  const Time arrival = tx.tx_free + cm.rdma_propagation;

  Nic& rx = f.node(remote_).nic();
  const double pen_rx = cm.qp_penalty(rx.qp_count);
  Time commit = std::max(arrival, rx.rx_free) + scaled(cm.nic_rx_overhead, pen_rx) +
                cm.two_sided_extra;
  rx.rx_free = commit;
  ++rx.rx_ops;
  rx.rx_bytes += size;

  commit = std::max(commit, last_commit_);
  last_commit_ = commit;

  sched.at(commit, [this, &f, &sched, data = std::move(data), wr_id,
                    on_done = std::move(on_done), size, commit, gen = generation_]() mutable {
    const CostModel& cost = f.cost_;
    if (!open_ || generation_ != gen) {
      if (on_done) on_done(Completion{WcOp::kSend, WcStatus::kFlushed, wr_id, 0});
      return;
    }
    if (!f.node(remote_).alive()) {
      ++f.stats_.dead_peer_errors;
      if (on_done) {
        sched.after(cost.peer_timeout, [on_done = std::move(on_done), wr_id, size] {
          on_done(Completion{WcOp::kSend, WcStatus::kRemoteDead, wr_id, size});
        });
      }
      return;
    }
    peer_->deliver_send(std::move(data), commit);
    if (on_done) {
      sched.after(cost.rdma_propagation, [on_done = std::move(on_done), wr_id, size] {
        on_done(Completion{WcOp::kSend, WcStatus::kSuccess, wr_id, size});
      });
    }
  });
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

void QueuePair::flush_completion(WcOp op, std::uint64_t wr_id, std::uint32_t size,
                                 CompletionFn on_done) {
  if (!on_done) return;
  fabric_->sched_.after(0, [on_done = std::move(on_done), op, wr_id, size] {
    on_done(Completion{op, WcStatus::kFlushed, wr_id, size});
  });
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
