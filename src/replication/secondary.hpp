// Secondary shard: the replication consumer (paper section 5.2).
//
// A secondary is dedicated to one primary: it serves no client requests
// ("single-writer zero-reader"), exposes a large ring-buffer memory region
// into which the primary RDMA-Writes log records, and runs a dedicated
// polling loop that merges records into its own KVStore replica. It
// acknowledges cumulatively when the primary asks, reports the first failed
// record so the primary can roll back and resend, and discards every record
// after a failure until the resend arrives.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/store.hpp"
#include "fabric/fabric.hpp"
#include "fabric/registered_buffer.hpp"
#include "proto/messages.hpp"
#include "replication/ring_log.hpp"
#include "sim/actor.hpp"

namespace hydra::replication {

struct SecondaryConfig {
  ShardId primary_shard = 0;
  std::uint32_t ring_bytes = 1 << 20;
  core::StoreConfig store;
  /// CPU per record merge: decode, allocate, index swing on the replica --
  /// comparable to the primary's write path.
  Duration apply_base = 1200;
  double per_value_byte = 0.12;
  Duration poll_backoff = 100;   ///< idle sleep, like the primary's loop
  Duration ack_post_cost = 300;  ///< building + posting the ack write
};

class SecondaryShard : public sim::Actor {
 public:
  SecondaryShard(sim::Scheduler& sched, fabric::Fabric& fabric, NodeId node,
                 SecondaryConfig cfg);

  /// Wire-up performed by the primary side: the QP this secondary uses to
  /// RDMA-Write acknowledgements back, and where they should land.
  void attach_primary(fabric::QueuePair* qp_to_primary, fabric::RemoteAddr ack_slot);

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] fabric::MemoryRegion* ring_mr() noexcept { return ring_mr_; }

  /// Hot-key promo slab (DESIGN.md §12): `slots` fixed-size item slots the
  /// primary RDMA-Writes promoted copies into and clients RDMA-Read from.
  /// Registered lazily on first call -- a cluster that never promotes keeps
  /// its rkey sequence (and thus its event history) byte-identical to a
  /// pre-promotion build. Geometry is fixed by the first call.
  fabric::MemoryRegion* promo_slab(std::uint32_t slot_bytes, std::uint32_t slots);

  /// Failover arena layout (DESIGN.md §14): one 8-byte pulse word the
  /// primary RDMA-Writes liveness heartbeats into, then one 8-byte ballot
  /// word promotion candidates CAS their tokens into.
  static constexpr std::uint64_t kPulseOffset = 0;
  static constexpr std::uint64_t kBallotOffset = 8;
  static constexpr std::uint32_t kFailoverArenaBytes = 16;

  /// Fast-failover arena (DESIGN.md §14). Registered lazily on first call --
  /// same rkey-determinism rule as promo_slab(): a cluster that never turns
  /// fast failover on registers nothing and keeps histories byte-identical.
  fabric::MemoryRegion* failover_arena();

  /// Arms the ring-write suspicion deadline: if neither a ring write nor an
  /// arena pulse lands for `deadline`, `on_suspect` fires exactly once (the
  /// flag re-arms on reset_stream(), i.e. on attachment to a new primary).
  void enable_suspicion(Duration deadline, std::function<void(SecondaryShard&)> on_suspect);
  [[nodiscard]] bool suspected() const noexcept { return suspected_; }

  [[nodiscard]] std::uint64_t applied_seq() const noexcept { return applied_seq_; }
  [[nodiscard]] std::uint64_t applied_records() const noexcept { return applied_records_; }
  [[nodiscard]] std::uint64_t discarded_records() const noexcept { return discarded_; }
  [[nodiscard]] core::KVStore& store() noexcept { return *store_; }

  /// Failure injection: the next `n` records fail to apply (tests the
  /// stop-acking / discard / rollback-resend protocol).
  void fail_next(int n) { fail_budget_ += n; }

  /// Crash recovery: synchronously replays every complete frame still
  /// parked in the ring. Promotion calls this before release_store() so
  /// records the primary acked (write completed) microseconds before dying
  /// are not lost merely because the poll loop had not reached them yet.
  /// Stops at the first incomplete frame -- anything beyond a torn write
  /// was never acknowledged and is the client's retry to re-drive.
  void drain_ring();

  /// Promotion support: hands the replica store to a new primary shard.
  std::unique_ptr<core::KVStore> release_store();

  /// Re-attachment to a *new* primary after failover: the fresh primary
  /// numbers records from 1 and writes the ring from offset 0 again.
  void reset_stream();

  void kill() override;

 private:
  void on_ring_write();
  /// Any primary-originated write landed: reset the suspicion deadline.
  void note_liveness();
  void suspicion_tick();
  void arm_suspicion_tick();
  /// Whether a complete frame of the cursor's lap sits at `at`.
  [[nodiscard]] bool frame_landed(std::span<const std::byte> at) const;
  void poll_loop();
  /// Processes one complete frame at the cursor; returns CPU charged.
  Duration consume_frame(std::span<std::byte> frame);
  void send_ack();

  fabric::Fabric& fabric_;
  NodeId node_;
  SecondaryConfig cfg_;
  std::unique_ptr<core::KVStore> store_;
  fabric::RegisteredBuffer ring_;
  fabric::MemoryRegion* ring_mr_;
  /// Hot-key promo slab; empty/null until promo_slab() is first called.
  fabric::RegisteredBuffer promo_;
  fabric::MemoryRegion* promo_mr_ = nullptr;
  /// Fast-failover arena; empty/null until failover_arena() is first called.
  fabric::RegisteredBuffer arena_;
  fabric::MemoryRegion* arena_mr_ = nullptr;
  RingCursor cursor_;

  /// Suspicion state (fast failover); deadline 0 = disarmed.
  Duration suspicion_deadline_ = 0;
  std::function<void(SecondaryShard&)> on_suspect_;
  Time last_signal_ = 0;
  bool suspected_ = false;
  bool suspicion_tick_armed_ = false;

  fabric::QueuePair* qp_to_primary_ = nullptr;
  fabric::RemoteAddr ack_slot_{};

  std::uint64_t applied_seq_ = 0;
  std::uint64_t first_failed_seq_ = 0;  // 0 = healthy
  std::uint64_t applied_records_ = 0;
  std::uint64_t discarded_ = 0;
  int fail_budget_ = 0;
  bool polling_ = false;
};

}  // namespace hydra::replication
