// Reliable-connected queue pairs: the verbs-like data-plane API.
//
// Semantics reproduced from RC verbs:
//  * one-sided RDMA Write / Read move real bytes to/from registered remote
//    memory with zero involvement of the remote CPU;
//  * writes on one QP commit to remote memory **in posted order** (the
//    property the indicator-encapsulated message format depends on);
//  * two-sided Send consumes a posted Receive at the responder;
//  * ops toward a dead peer complete with kRemoteDead after a timeout.
//
// Divergence from hardware, documented in DESIGN.md: source buffers are
// snapshotted at post time (as if the NIC DMA-read them instantly), and an
// RDMA Read observes target memory atomically at the moment the target NIC
// serves it. Read-write races across ops still occur and are what the
// guardian-word machinery handles.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "fabric/memory_region.hpp"

namespace hydra::fabric {

class Fabric;

enum class WcOp : std::uint8_t { kWrite, kRead, kSend, kRecv, kCas, kFaa };

enum class WcStatus : std::uint8_t {
  kSuccess = 0,
  kProtectionError,  ///< rkey unknown or access outside registered bounds
  kRemoteDead,       ///< retransmit exhaustion talking to a crashed peer
  kFlushed,          ///< QP torn down with the op still outstanding
};

constexpr const char* to_string(WcStatus s) noexcept {
  switch (s) {
    case WcStatus::kSuccess: return "SUCCESS";
    case WcStatus::kProtectionError: return "PROTECTION_ERROR";
    case WcStatus::kRemoteDead: return "REMOTE_DEAD";
    case WcStatus::kFlushed: return "FLUSHED";
  }
  return "?";
}

/// Work completion, delivered to the initiator's callback.
struct Completion {
  WcOp op = WcOp::kWrite;
  WcStatus status = WcStatus::kSuccess;
  std::uint64_t wr_id = 0;
  std::uint32_t byte_len = 0;
  /// Atomic verbs only (kCas/kFaa, status kSuccess): the 64-bit value the
  /// target word held immediately before the atomic executed.
  std::uint64_t old_value = 0;
};

using CompletionFn = std::function<void(const Completion&)>;
/// Responder-side delivery of a Send into a posted Receive buffer.
using RecvHandler = std::function<void(const Completion&, std::span<std::byte> data)>;

class QueuePair {
 public:
  QueuePair(Fabric& fabric, std::uint32_t id, NodeId local, NodeId remote)
      : fabric_(&fabric), id_(id), local_(local), remote_(remote) {}

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] NodeId local_node() const noexcept { return local_; }
  [[nodiscard]] NodeId remote_node() const noexcept { return remote_; }
  [[nodiscard]] QueuePair* peer() const noexcept { return peer_; }
  /// False once the QP has been torn down via Fabric::disconnect. Ops posted
  /// on (or still in flight through) a closed QP complete with kFlushed.
  [[nodiscard]] bool open() const noexcept { return open_; }
  /// Bumped on every teardown/reuse; in-flight ops compare it at commit time
  /// so a recycled QP slot can never deliver a stale op's bytes.
  [[nodiscard]] std::uint32_t generation() const noexcept { return generation_; }

  /// One-sided write of `src` into the peer's (rkey, offset). `on_done` is
  /// optional (pass nullptr for unsignalled writes, the common case for
  /// message passing where the response buffer is the acknowledgement).
  /// `batched` marks a WQE posted in the same doorbell batch as the
  /// initiator's previous post: it pays the reduced per-WQE overhead of the
  /// cost model's doorbell-batching discount. `frames` counts the
  /// replication ring frames the write carries, for its trace only.
  void post_write(std::span<const std::byte> src, RemoteAddr dst,
                  std::uint64_t wr_id = 0, CompletionFn on_done = nullptr,
                  bool batched = false, std::uint32_t frames = 0);

  /// One-sided read of `dst.size()` bytes from the peer's (rkey, offset).
  void post_read(std::span<std::byte> dst, RemoteAddr src,
                 std::uint64_t wr_id = 0, CompletionFn on_done = nullptr);

  /// One-sided 8-byte compare-and-swap on the peer's (rkey, offset): iff the
  /// target word equals `compare`, it becomes `swap`. The pre-op word comes
  /// back in Completion::old_value (the CAS succeeded iff old_value ==
  /// compare). Rides the same posted-order commit pipeline as writes, and
  /// the fabric write-fault hook applies: a torn atomic *executes* at the
  /// target but its completion flushes (the initiator cannot learn the
  /// outcome); a dropped atomic does not execute and flushes.
  void post_cas(RemoteAddr dst, std::uint64_t compare, std::uint64_t swap,
                std::uint64_t wr_id = 0, CompletionFn on_done = nullptr);

  /// One-sided 8-byte fetch-and-add; same semantics/faulting as post_cas.
  void post_faa(RemoteAddr dst, std::uint64_t add,
                std::uint64_t wr_id = 0, CompletionFn on_done = nullptr);

  /// Two-sided send; consumes a Receive posted on the peer QP.
  void post_send(std::span<const std::byte> msg,
                 std::uint64_t wr_id = 0, CompletionFn on_done = nullptr);

  /// Posts a receive buffer for inbound Sends.
  void post_recv(std::span<std::byte> buf, std::uint64_t wr_id = 0);

  /// Handler invoked when a Send lands in one of our posted Receives.
  void set_recv_handler(RecvHandler handler) { recv_handler_ = std::move(handler); }

  [[nodiscard]] std::size_t posted_recvs() const noexcept { return recv_queue_.size(); }

 private:
  friend class Fabric;

  struct RecvBuf {
    std::span<std::byte> buf;
    std::uint64_t wr_id;
  };
  struct PendingSend {
    std::vector<std::byte> data;
    Time commit_time;
  };

  /// Shared pipeline for post_cas/post_faa: for kCas `operand` is the swap
  /// value, for kFaa the addend (and `compare` is ignored).
  void post_atomic(WcOp op, RemoteAddr dst, std::uint64_t compare,
                   std::uint64_t operand, std::uint64_t wr_id, CompletionFn on_done);

  /// False, after flushing the op `wc` names at once, if the QP is closed.
  bool accepts(const Completion& wc, CompletionFn& on_done);
  /// Carries a write, atomic or send of `bytes` (WQE overhead `wqe`, extra
  /// target work `rx_extra`) through both NICs' engines and the posted-order
  /// clamp (DESIGN.md §2, NIC service model); returns its commit time.
  Time carry(Duration wqe, Duration rx_extra, bool two_sided, std::uint32_t bytes);
  /// Commit-time check shared by write, atomic and send: false, after
  /// flushing at once if the QP (generation `gen`) was torn down, or
  /// completing kRemoteDead after peer_timeout toward a dead peer.
  bool reachable(std::uint32_t gen, const Completion& wc, CompletionFn& on_done);
  /// The region `at` addresses on the peer, or nullptr after completing
  /// kProtectionError for a bad rkey or out-of-bounds access.
  MemoryRegion* region(RemoteAddr at, const Completion& wc, CompletionFn& on_done);
  /// Hands `wc` to `on_done` (if set) after `delay`.
  void complete(Duration delay, CompletionFn on_done, const Completion& wc);

  void deliver_send(std::vector<std::byte> data, Time commit_time);
  /// Tears the endpoint down: pending receives and RNR-held sends are
  /// dropped, the recv handler is cleared, and the generation advances so
  /// in-flight ops flush instead of committing.
  void close();
  /// Re-arms a closed endpoint for a fresh logical connection (slot reuse).
  void reopen(std::uint32_t id, NodeId local, NodeId remote);

  Fabric* fabric_;
  std::uint32_t id_;
  NodeId local_;
  NodeId remote_;
  QueuePair* peer_ = nullptr;
  bool open_ = true;
  std::uint32_t generation_ = 0;
  /// Commit time of the last in-order operation targeting the peer.
  Time last_commit_ = 0;
  std::deque<RecvBuf> recv_queue_;
  std::deque<PendingSend> pending_sends_;  // RNR: sends waiting for a recv
  RecvHandler recv_handler_;
};

}  // namespace hydra::fabric
