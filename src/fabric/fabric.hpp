// The simulated cluster interconnect: nodes, NICs, QPs and TCP channels.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fabric/cost_model.hpp"
#include "fabric/memory_region.hpp"
#include "fabric/queue_pair.hpp"
#include "fabric/tcp.hpp"
#include "sim/scheduler.hpp"

namespace hydra::obs {
class Plane;
}  // namespace hydra::obs

namespace hydra::fabric {

/// Per-node NIC state: independent tx/rx serialization and QP census.
struct Nic {
  Time tx_free = 0;  ///< earliest time the send engine is idle
  Time rx_free = 0;  ///< earliest time the receive/DMA engine is idle
  /// Kernel-TCP (IPoIB) streams share the same physical port but run at the
  /// stack's effective bandwidth; serialized separately from verbs traffic.
  Time tcp_tx_free = 0;
  std::uint32_t qp_count = 0;
  std::uint64_t tx_ops = 0;
  std::uint64_t rx_ops = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  /// Virtual ns each engine spent serving ops (the sum of their service
  /// times); over a window, busy / window is the engine's utilisation.
  std::uint64_t tx_busy_ns = 0;
  std::uint64_t rx_busy_ns = 0;

  /// Serialises an op needing `service` ns of the send engine, ready at
  /// `ready`, and counts it; returns when the op leaves the engine.
  Time transmit(Time ready, Duration service, std::uint64_t bytes) noexcept {
    tx_free = std::max(ready, tx_free) + service;
    ++tx_ops;
    tx_bytes += bytes;
    tx_busy_ns += static_cast<std::uint64_t>(service);
    return tx_free;
  }
  /// transmit() for the receive/DMA engine.
  Time receive(Time ready, Duration service, std::uint64_t bytes) noexcept {
    rx_free = std::max(ready, rx_free) + service;
    ++rx_ops;
    rx_bytes += bytes;
    rx_busy_ns += static_cast<std::uint64_t>(service);
    return rx_free;
  }
};

class Node {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] Nic& nic() noexcept { return nic_; }
  [[nodiscard]] const Nic& nic() const noexcept { return nic_; }

  /// Registers caller-owned bytes for remote access; the region handle
  /// stays valid for the node's lifetime. rkeys count up from 1 per node.
  MemoryRegion* register_memory(std::span<std::byte> bytes);
  [[nodiscard]] MemoryRegion* find_region(std::uint32_t rkey) noexcept;

 private:
  friend class Fabric;
  NodeId id_;
  std::string name_;
  bool alive_ = true;
  Nic nic_;
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
};

/// Aggregate traffic counters, useful for asserting e.g. "RDMA Read GETs
/// issue zero requests to the server CPU".
struct FabricStats {
  std::uint64_t rdma_writes = 0;
  std::uint64_t rdma_reads = 0;
  std::uint64_t sends = 0;
  std::uint64_t tcp_messages = 0;
  std::uint64_t protection_errors = 0;
  std::uint64_t dead_peer_errors = 0;
  std::uint64_t torn_writes = 0;     ///< fault-injected partial commits
  std::uint64_t dropped_writes = 0;  ///< fault-injected lost writes
  std::uint64_t qp_connects = 0;     ///< QP pairs established (incl. reuses)
  std::uint64_t qp_disconnects = 0;  ///< QP pairs reclaimed via disconnect()
  std::uint64_t qp_slot_reuses = 0;  ///< connects served from the free pool
  std::uint64_t rdma_atomics = 0;    ///< CAS + FAA verbs posted
  /// Fault-injected atomics. A "torn" atomic *executes* at the target but
  /// its completion flushes (the initiator cannot learn the outcome); a
  /// dropped atomic never executes and flushes.
  std::uint64_t torn_atomics = 0;
  std::uint64_t dropped_atomics = 0;
  std::uint64_t torn_reads = 0;  ///< fault-injected corrupted read snapshots
  /// MR-permission verbs (fail-stop fencing, DESIGN.md §14).
  std::uint64_t rkey_revocations = 0;     ///< revoke_rkey verbs that applied
  std::uint64_t rkey_reregistrations = 0; ///< reregister_mr fresh-rkey grants
  std::uint64_t revoke_faults = 0;        ///< fault-injected torn/dropped revocations
};

/// Fault-injection verdict for one RDMA Write, decided at commit time.
/// `kTorn` commits only the first `torn_bytes` of the payload (modelling the
/// crash window in which a one-sided write is partially applied) and `kDrop`
/// commits nothing; both complete the initiator's WR with kFlushed after the
/// retransmission timeout, the way real RC hardware surfaces a write that
/// never fully landed.
struct WriteFault {
  enum class Kind : std::uint8_t { kDeliver, kTorn, kDrop };
  Kind kind = Kind::kDeliver;
  std::uint32_t torn_bytes = 0;
};

/// Chaos hook consulted once per RDMA Write as it commits to the target.
using WriteFaultHook = std::function<WriteFault(
    NodeId src, NodeId dst, const RemoteAddr& addr, std::uint32_t size)>;

/// Fault-injection verdict for one RDMA Read, decided when the target
/// snapshot is taken. `kTorn` delivers the first `torn_bytes` intact and
/// garbles the rest, completing kSuccess: it models the crash/rebind window
/// in which a reader races a concurrent overwrite of the target region, so
/// the *reader-side* validation (page checksums, guardian words) is what
/// must catch it.
struct ReadFault {
  enum class Kind : std::uint8_t { kDeliver, kTorn };
  Kind kind = Kind::kDeliver;
  std::uint32_t torn_bytes = 8;
};

/// Chaos hook consulted once per RDMA Read as its target snapshot is taken.
using ReadFaultHook = std::function<ReadFault(
    NodeId src, NodeId dst, const RemoteAddr& addr, std::uint32_t size)>;

/// Fault-injection verdict for one MR-permission revocation. `kTorn` applies
/// the revocation but loses the confirmation (the initiator must retry a
/// verb that already took effect -- revoking a revoked region is
/// idempotent); `kDrop` neither applies nor confirms.
struct RevokeFault {
  enum class Kind : std::uint8_t { kDeliver, kTorn, kDrop };
  Kind kind = Kind::kDeliver;
};

/// Chaos hook consulted once per revoke_rkey verb as it reaches the owner.
using RevokeFaultHook = std::function<RevokeFault(NodeId owner, std::uint32_t rkey)>;

class Fabric {
 public:
  explicit Fabric(sim::Scheduler& sched, CostModel cost = {})
      : sched_(sched), cost_(cost) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] CostModel& cost() noexcept { return cost_; }

  Node& add_node(std::string name);
  [[nodiscard]] Node& node(NodeId id) noexcept { return *nodes_[id]; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Creates a connected RC queue-pair pair between two (possibly equal)
  /// nodes. Both endpoints stay owned by the fabric.
  std::pair<QueuePair*, QueuePair*> connect(NodeId a, NodeId b);

  /// Tears down a QP pair created by connect(): both endpoints close (ops
  /// still in flight complete kFlushed, never committing), both NICs'
  /// qp_count drops, and the object pair goes to a free pool that connect()
  /// reuses — so long-running reclamation keeps memory bounded. Passing
  /// either endpoint of the pair is fine; a second disconnect is a no-op.
  void disconnect(QueuePair* qp);

  /// QP pairs currently established (connects minus disconnects).
  [[nodiscard]] std::size_t live_qp_pairs() const noexcept {
    return static_cast<std::size_t>(stats_.qp_connects - stats_.qp_disconnects);
  }

  /// Creates a connected TCP channel pair between two nodes.
  std::pair<TcpConn*, TcpConn*> tcp_connect(NodeId a, NodeId b);

  /// Crash injection: the node stops committing inbound ops; initiators
  /// talking to it start completing with kRemoteDead after peer_timeout.
  void kill_node(NodeId id) { nodes_[id]->alive_ = false; }
  void revive_node(NodeId id) { nodes_[id]->alive_ = true; }

  /// Installs (or clears, with nullptr) the chaos write-fault hook. The hook
  /// runs at commit time of every RDMA Write, after the dead-peer check but
  /// before protection validation, so it can tear or drop otherwise-valid
  /// writes deterministically.
  void set_write_fault_hook(WriteFaultHook hook) { write_fault_ = std::move(hook); }

  /// Installs (or clears, with nullptr) the chaos read-fault hook, consulted
  /// when an RDMA Read snapshots its target bytes.
  void set_read_fault_hook(ReadFaultHook hook) { read_fault_ = std::move(hook); }

  /// Installs (or clears, with nullptr) the chaos revocation-fault hook,
  /// consulted once per revoke_rkey verb as it reaches the region owner.
  void set_revoke_fault_hook(RevokeFaultHook hook) { revoke_fault_ = std::move(hook); }

  /// MR-permission verb (fail-stop fencing, DESIGN.md §14): after `latency`,
  /// revokes remote access to `rkey` on `owner` so in-flight and future
  /// one-sided ops against it complete kProtectionError -- the fenced writer
  /// physically cannot land another byte. `on_done(confirmed)` fires on the
  /// virtual clock: false means the verb could not be confirmed (dead owner,
  /// unknown rkey, or an injected torn/dropped delivery) and the caller
  /// should retry -- the verb is idempotent, so confirming an
  /// already-revoked region reports success.
  void revoke_rkey(NodeId owner, std::uint32_t rkey, Duration latency,
                   std::function<void(bool confirmed)> on_done);

  /// Re-registers a revoked region's bytes under a fresh rkey (what a new
  /// lease holder does after fencing its predecessor). The old region stays
  /// mapped -- in-flight ops addressing the dead rkey keep failing cleanly --
  /// and the caller must re-install any write hook on the returned region.
  MemoryRegion* reregister_mr(NodeId owner, MemoryRegion* old);

  [[nodiscard]] const FabricStats& stats() const noexcept { return stats_; }

  /// Attaches (or detaches, with nullptr) an observability plane. The plane
  /// is a passive sink -- fabric behaviour is identical with or without it.
  void set_obs(obs::Plane* plane) noexcept { obs_ = plane; }
  [[nodiscard]] obs::Plane* obs() const noexcept { return obs_; }

 private:
  friend class QueuePair;
  friend class TcpConn;

  sim::Scheduler& sched_;
  CostModel cost_;
  FabricStats stats_;
  WriteFaultHook write_fault_;
  ReadFaultHook read_fault_;
  RevokeFaultHook revoke_fault_;
  obs::Plane* obs_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  /// Closed QP pairs awaiting reuse, stored as the (a->b, b->a) endpoints.
  std::vector<std::pair<QueuePair*, QueuePair*>> qp_pool_;
  std::uint32_t next_qp_id_ = 0;
  std::vector<std::unique_ptr<TcpConn>> tcp_conns_;
};

}  // namespace hydra::fabric
