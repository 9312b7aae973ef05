// Server-side configuration: execution mode and CPU cost model.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "core/store.hpp"

namespace hydra::server {

/// Follower promo-slab slot size (DESIGN.md §12); bounds the largest
/// promotable item (header + key + value + guardian, see core/item.hpp).
inline constexpr std::uint32_t kHotKeySlotBytes = 256;

/// How the shard detects and answers requests (Fig 5 / Fig 10 variants).
enum class ServerMode : std::uint8_t {
  /// Paper design: one thread polls per-connection request buffers written
  /// by client RDMA Writes and answers with RDMA Writes.
  kRdmaWritePolling,
  /// Baseline: kRdmaWritePolling's rings over a two-sided wire -- requests
  /// and responses travel as Sends into the same slots (Fig 10's Send/Recv).
  kSendRecv,
  /// Comparator: kRdmaWritePolling's rings, served by 2 dispatcher + 2
  /// worker threads instead of one core (PipelinedShard), without remote
  /// pointers ("Pipeline + RDMA Write").
  kPipelined,
};

/// CPU time the shard charges per operation, calibrated so a server-handled
/// small-item GET costs ~0.5-1 us of host work (the regime in which 4 shards
/// saturate around a few Mops like the paper's testbed).
struct CpuModel {
  Duration poll_scan = 40;          ///< checking one connection's buffer
  Duration idle_backoff = 100;      ///< the paper's 100 ns sleep when idle
  Duration base_get = 420;          ///< decode + index lookup + lease update
  /// Writes are markedly heavier than reads (the "asymmetric read/write
  /// performance" of section 6.1): allocate, copy, swing the index, retire
  /// the old version and queue it for reclamation.
  Duration base_put = 950;
  Duration base_remove = 550;
  Duration base_renew = 250;
  double per_value_byte = 0.12;     ///< memcpy-ish cost per payload byte
  Duration post_response = 150;     ///< WQE build + doorbell for the answer
  /// WQE build for a response that shares the sweep's already-rung doorbell
  /// (every response after the first in one ring sweep): no MMIO write, no
  /// fresh descriptor cache miss.
  Duration post_response_batched = 40;
  /// Pipelined comparator: per-request dispatcher work (decode + locked
  /// enqueue) and the dispatcher->worker handoff. The handoff is the killer:
  /// a mutex/condvar (futex-wake) round plus the request's cache lines
  /// migrating between cores costs microseconds -- the synchronization
  /// overhead section 4.1.1 blames for the pipelined model's loss.
  Duration dispatch_cost = 400;
  Duration handoff_sync = 2600;
  /// Transactional commit group (DESIGN.md §11): header decode plus lock +
  /// epoch validation across the group; each op then pays the normal
  /// base_put/base_remove on top.
  Duration base_txn_commit = 600;
  /// Range-scan batch (DESIGN.md §13): token decode + tree descent, then a
  /// per-entry copy-out cost on top (values additionally pay per_value_byte).
  Duration base_scan = 500;
  Duration per_scan_entry = 120;
  /// Re-serializing one leaf into its one-sided mirror page (checksum + copies).
  Duration leaf_refresh = 400;
};

struct ShardConfig {
  ShardId id = 0;
  core::StoreConfig store;
  CpuModel cpu;
  /// Per-connection message slot; bounds the largest framed request and
  /// response (raise it for big-value workloads like the MapReduce cache).
  std::uint32_t msg_slot_bytes = 16 * 1024;
  std::uint32_t max_connections = 256;
  /// Request-ring depth provisioned per connection: the shard lays out this
  /// many request slots per accepted client and grants each connection a
  /// window of min(client-requested, ring_slots) outstanding requests. One
  /// slot reproduces the seed's closed-loop wire contract exactly.
  std::uint32_t ring_slots = 8;
  /// Shared request-ring depth per mux group (DESIGN.md §10): the SRQ-style
  /// credit pool all endpoints of one client node draw from. Sized like an
  /// SRQ -- enough for the node's aggregate burst, far less than
  /// endpoints * window dedicated slots would cost.
  std::uint32_t mux_ring_slots = 64;
  /// Admission cap on *live* mux endpoints (logical clients) per shard.
  /// Endpoints are cheap -- no QP, no dedicated ring -- so the cap is a
  /// runaway bound far above production client counts, not a tuning knob;
  /// deactivated endpoint slots are free-listed and reused, so repeated
  /// channel failure/reopen cycles never grow the table.
  std::uint32_t max_mux_endpoints = 1u << 20;
  /// Lock-word arena size for the 2PL transaction layer (DESIGN.md §11):
  /// keys hash onto `hash_key(key) % txn_lock_words` 64-bit words that
  /// clients CAS directly. 0 (the default) disables transactions entirely --
  /// no region is registered, so rkey assignment and event histories are
  /// byte-identical to a build that predates the feature.
  std::uint32_t txn_lock_words = 0;
  /// Hot-key replication plane (DESIGN.md §12): the primary tracks per-key
  /// GET frequency, copies the top `hotkey_top_k` keys' items into its
  /// replication followers' promo slabs and advertises the copies on GET
  /// responses so clients spread one-sided reads across primary + followers.
  /// 0 (the default) disables the plane entirely -- no tracker, no slab
  /// registration, no scan timer -- so rkey assignment and event histories
  /// are byte-identical to a build that predates the feature (same contract
  /// as txn_lock_words above).
  std::uint32_t hotkey_top_k = 0;
  /// Space-saving sketch capacity (distinct keys tracked per interval).
  std::uint32_t hotkey_tracker_capacity = 64;
  /// Minimum per-interval hits before a key qualifies for promotion.
  std::uint32_t hotkey_promote_min_hits = 16;
  /// Promotion scan cadence: each tick promotes the interval's top-k and
  /// restarts the counting window.
  Duration hotkey_scan_interval = 2 * kMillisecond;
  /// Whether GET responses mint remote pointers (disabled to measure the
  /// "RDMA Write only" rows of Fig 10).
  bool grant_remote_pointers = true;
  /// Reclaimer cadence: how often the background GC actor wakes at most.
  Duration gc_min_interval = 100 * kMillisecond;
};

}  // namespace hydra::server
