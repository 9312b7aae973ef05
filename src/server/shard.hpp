// The shard: HydraDB's server-side unit of execution (paper section 4.1.1).
//
// One shard == one core == one partition. A single logical thread detects
// requests by polling per-connection request rings (filled by client RDMA
// Writes), executes them against its exclusively-owned KVStore, and answers
// with an RDMA Write into the matching slot of the client's response ring.
// A wakeup sweeps every occupied slot of a dirty connection at once, and
// all responses after the sweep's first share one doorbell (batched WQE
// cost). There are no locks anywhere on this path. The same class also
// supports the two-sided Send/Recv mode used as the Figure 10 baseline.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include <map>
#include <string>

#include "core/store.hpp"
#include "fabric/fabric.hpp"
#include "fabric/registered_buffer.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "replication/primary.hpp"
#include "server/config.hpp"
#include "server/dirty_scheduler.hpp"
#include "server/hotkey.hpp"
#include "sim/actor.hpp"

namespace hydra::server {

struct ShardStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;  ///< insert + update + upsert
  std::uint64_t removes = 0;
  std::uint64_t renews = 0;
  std::uint64_t malformed = 0;
  std::uint64_t wrong_owner = 0;  ///< requests rejected by the owner filter
  std::uint64_t forwarded = 0;    ///< writes forwarded to a migration flow
  std::uint64_t responses = 0;
  std::uint64_t batched_responses = 0;  ///< responses sharing a sweep's doorbell
  std::uint64_t mux_requests = 0;  ///< requests demultiplexed off shared rings
  std::uint64_t txn_commits = 0;   ///< commit groups applied atomically
  std::uint64_t txn_conflicts = 0; ///< commit groups refused (lock/epoch)
  // Hot-key replication plane (DESIGN.md §12).
  std::uint64_t hotkey_promotions = 0;    ///< keys that went live on followers
  std::uint64_t hotkey_demotions = 0;     ///< promotions withdrawn (any reason)
  std::uint64_t hotkey_invalidations = 0; ///< guardian-kill writes posted pre-ack
  std::uint64_t hotkey_advertised = 0;    ///< GET responses carrying replica ptrs
  // Ordered index + range scans (DESIGN.md §13).
  std::uint64_t scans = 0;                ///< kScan batches served
  std::uint64_t scan_entries = 0;         ///< entries returned across batches
  std::uint64_t scan_token_rejects = 0;   ///< continuation tokens refused (epoch)
  std::uint64_t scan_leaf_refreshes = 0;  ///< leaf pages (re)serialized to the mirror
  std::uint64_t scan_leaf_oversize = 0;   ///< leaves too big for a mirror page
  Duration busy_time = 0;  ///< virtual CPU time charged to this core
};

class Shard : public sim::Actor {
 public:
  /// `existing_store` supports failover promotion: a secondary's replica
  /// store becomes this primary's store. Pass nullptr to start empty.
  Shard(sim::Scheduler& sched, fabric::Fabric& fabric, NodeId node, ShardConfig cfg,
        std::unique_ptr<core::KVStore> existing_store = nullptr);

  // --- connection management ---------------------------------------------
  struct AcceptResult {
    fabric::RemoteAddr req_slot;  ///< base of the client's request ring
    std::uint32_t slot_bytes = 0;
    std::uint32_t arena_rkey = 0;  ///< region containing RDMA-readable items
    /// Granted ring depth: min(client-requested, config ring_slots). Request
    /// slot i lives at req_slot.offset + i * slot_bytes and its response is
    /// written to the client's resp ring at the same slot index.
    std::uint32_t window = 1;
    /// Lock-word arena (DESIGN.md §11): 0/0 when transactions are disabled.
    std::uint32_t lock_rkey = 0;
    std::uint32_t lock_words = 0;
    bool ok = false;
  };

  /// Polling-mode accept: the shard dedicates a request-ring of `window`
  /// slots to this connection and remembers where responses go
  /// (`client_resp_slot` is the base of an equally deep response ring of
  /// `client_resp_bytes`-sized slots).
  AcceptResult accept(fabric::QueuePair* server_qp, fabric::RemoteAddr client_resp_slot,
                      std::uint32_t client_resp_bytes, ClientId client,
                      std::uint32_t window = 1);

  /// Send/Recv-mode accept (Fig 10 baseline): posts receive buffers and
  /// answers via post_send.
  AcceptResult accept_send_recv(fabric::QueuePair* server_qp, ClientId client);

  // --- QP multiplexing (DESIGN.md §10) -------------------------------------
  struct MuxGroupResult {
    std::uint32_t group = 0;      ///< group id, passed to accept_mux_endpoint
    fabric::RemoteAddr req_ring;  ///< base of the shared request ring
    std::uint32_t slot_bytes = 0;
    std::uint32_t ring_slots = 0;  ///< shared ring depth == SRQ credit pool
    std::uint32_t arena_rkey = 0;
    /// Lock-word arena (DESIGN.md §11): 0/0 when transactions are disabled.
    std::uint32_t lock_rkey = 0;
    std::uint32_t lock_words = 0;
    bool ok = false;
  };
  struct MuxEndpointResult {
    std::uint32_t endpoint = 0;
    std::uint32_t window = 1;  ///< granted per-endpoint flow credits
    bool ok = false;
  };

  /// Registers one shared request ring ("SRQ") served over `qp`. All
  /// endpoints of one client node share this ring: frames carry a MuxHeader
  /// naming the endpoint and its response slot.
  MuxGroupResult accept_mux_group(fabric::QueuePair* qp);

  /// Adds a logical client endpoint to an existing mux group. Responses are
  /// RDMA-written into slot MuxHeader::resp_slot of the endpoint's private
  /// response ring at `client_resp_slot` (`window` slots of
  /// `client_resp_bytes` each).
  MuxEndpointResult accept_mux_endpoint(std::uint32_t group,
                                        fabric::RemoteAddr client_resp_slot,
                                        std::uint32_t client_resp_bytes, ClientId client,
                                        std::uint32_t window = 1);

  /// Tears down a mux group (client node reclaimed the shared QP): revokes
  /// the shared ring's memory registration so in-flight client writes fault
  /// instead of landing, and deactivates every endpoint riding the group.
  void close_mux_group(std::uint32_t group);

  // --- replication ---------------------------------------------------------
  void enable_replication(replication::PrimaryConfig cfg);
  [[nodiscard]] replication::ReplicationPrimary* replicator() noexcept {
    return replicator_.get();
  }

  // --- ownership + live migration (DESIGN.md §9) ---------------------------
  using KeyPredicate = std::function<bool(std::uint64_t key_hash)>;
  using MigrationForward =
      std::function<void(std::uint64_t key_hash, proto::RepRecord rec)>;

  /// Epoch fencing at the message path: when set and `owns(hash)` is false,
  /// keyed requests answer kWrongOwner without touching the store, so a
  /// client routed by a stale ring re-resolves instead of reading or
  /// writing a range this shard no longer serves. Null accepts everything.
  void set_owner_filter(KeyPredicate owns) { owner_filter_ = std::move(owns); }

  /// Dual-ownership catch-up: while a migration is copying this shard's
  /// moving range, every successfully applied write whose key satisfies
  /// `moving` is also handed to `forward` (which replicates it down the
  /// migration flow), so updates racing the bulk copy are never lost.
  void set_migration_forward(KeyPredicate moving, MigrationForward forward) {
    forward_moving_ = std::move(moving);
    migration_forward_ = std::move(forward);
  }
  void clear_migration_forward() {
    forward_moving_ = nullptr;
    migration_forward_ = nullptr;
  }

  /// rkey of the item arena remote pointers reference (what clients RDMA
  /// Read); exposed so tests can assert no read ever targets a stale rkey.
  [[nodiscard]] std::uint32_t arena_rkey() const noexcept;

  /// Post-failover accounting for a shard that is already dead: records the
  /// withdrawal of its whole hot-key promotion set (kHotKeyDemoted with the
  /// given reason) without posting guardian kills -- the successor's stream
  /// attach has zeroed every follower slab, so the copies cannot validate
  /// anyway. Safe to call on a killed actor; idempotent.
  void withdraw_promotions(std::uint64_t reason);

  /// rkey of the one-sided scan-leaf mirror (DESIGN.md §13); 0 when the
  /// ordered index or the mirror is disabled. Exposed so chaos can target
  /// torn-read injection at leaf pages specifically.
  [[nodiscard]] std::uint32_t scan_leaf_rkey() const noexcept {
    return leaf_mr_ != nullptr ? leaf_mr_->rkey() : 0;
  }

  // --- transactions (DESIGN.md §11) ----------------------------------------
  /// Commit-time epoch fence: a kTxnCommit whose header epoch differs from
  /// `epoch()` is refused with kTxnConflict before anything applies, so a
  /// commit can never land through a promotion/migration it predates. Null
  /// (the default) skips the check.
  using EpochFn = std::function<std::uint64_t()>;
  void set_epoch_source(EpochFn epoch) { epoch_source_ = std::move(epoch); }

  /// Lock-word arena accessors for invariant scans ("no lock word leaked
  /// held after recovery"). Count is 0 when transactions are disabled.
  [[nodiscard]] std::uint32_t lock_word_count() const noexcept {
    return lock_mr_ != nullptr ? cfg_.txn_lock_words : 0;
  }
  [[nodiscard]] std::uint64_t lock_word(std::uint32_t idx) const noexcept;
  [[nodiscard]] std::uint32_t lock_rkey() const noexcept {
    return lock_mr_ != nullptr ? lock_mr_->rkey() : 0;
  }

  // --- accessors -----------------------------------------------------------
  [[nodiscard]] ShardId id() const noexcept { return cfg_.id; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] core::KVStore& store() noexcept { return *store_; }
  [[nodiscard]] const ShardStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ShardConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t connection_count() const noexcept { return conns_.size(); }

  void kill() override;

 private:
  static constexpr std::uint32_t kNoEndpoint = 0xffffffffu;

  struct Connection {
    fabric::QueuePair* qp = nullptr;
    fabric::RemoteAddr resp_addr{};  ///< base of the client's response ring
    std::uint32_t resp_bytes = 0;    ///< per-slot bytes of that ring
    std::uint32_t window = 1;        ///< granted ring depth
    ClientId client = 0;
    bool send_recv = false;
    std::uint32_t region_block = 0;  ///< this connection's block in msg_region_
    /// Send/Recv mode owns its receive buffers (re-posted after use).
    std::vector<std::vector<std::byte>> recv_bufs;
    // Mux groups own a shared request ring instead of a block of
    // msg_region_; frames there carry a MuxHeader for demultiplexing.
    bool mux = false;
    bool closed = false;
    std::uint32_t ring_slots = 0;
    fabric::RegisteredBuffer ring;  ///< its bytes stay put when conns_ grows
    fabric::MemoryRegion* ring_mr = nullptr;
  };

  /// A logical client endpoint riding a mux group's shared ring.
  struct MuxEndpoint {
    std::uint32_t group = 0;  ///< index into conns_
    fabric::RemoteAddr resp_addr{};
    std::uint32_t resp_bytes = 0;
    std::uint32_t window = 1;
    ClientId client = 0;
    bool active = false;
  };

  /// A decoded request waiting for the shard core; `batched` marks every
  /// request after the first of one ring sweep, whose response shares the
  /// sweep's doorbell. `endpoint` is kNoEndpoint on the legacy path and a
  /// mux endpoint id for requests demultiplexed off a shared ring.
  struct ReadyReq {
    proto::Request req;
    std::uint32_t conn_idx = 0;
    std::uint32_t slot = 0;
    bool batched = false;
    std::uint32_t endpoint = kNoEndpoint;
  };

  /// Bytes one connection's request ring occupies in msg_region_.
  [[nodiscard]] std::size_t conn_stride() const noexcept {
    return static_cast<std::size_t>(cfg_.ring_slots) * cfg_.msg_slot_bytes;
  }
  [[nodiscard]] std::span<std::byte> slot_span(std::uint32_t block, std::uint32_t slot) noexcept {
    return {msg_region_.data() + static_cast<std::size_t>(block) * conn_stride() +
                proto::ring_slot_offset(slot, cfg_.msg_slot_bytes),
            cfg_.msg_slot_bytes};
  }
  [[nodiscard]] std::span<std::byte> mux_slot_span(Connection& conn,
                                                   std::uint32_t slot) noexcept {
    return {conn.ring.data() + proto::ring_slot_offset(slot, cfg_.msg_slot_bytes),
            cfg_.msg_slot_bytes};
  }

  void on_request_write(std::uint64_t offset);
  void wake();
  void process_loop();
  void sweep_connection(std::uint32_t idx);
  void sweep_mux_group(std::uint32_t idx);
  void handle(proto::Request req, std::uint32_t conn_idx, std::uint32_t slot,
              Duration cost_so_far, bool batched, std::uint32_t endpoint = kNoEndpoint);
  /// kTxnCommit: validates epoch + ownership + lock words for the whole
  /// group, then applies every op in this one invocation (all-or-nothing;
  /// a mid-group store failure rolls the applied prefix back).
  void handle_txn_commit(proto::Request req, std::uint32_t conn_idx, std::uint32_t slot,
                         Duration cost, bool batched, std::uint32_t endpoint);
  /// kScan: validates the continuation token's epoch against the live
  /// routing epoch, walks the ordered index from the resume key, and -- when
  /// more entries remain -- refreshes + advertises the continuation leaf's
  /// mirror page for one-sided pickup.
  void handle_scan(proto::Request req, std::uint32_t conn_idx, std::uint32_t slot,
                   Duration cost, bool batched, std::uint32_t endpoint);
  /// (Re)serializes `leaf` into the mirror when its cached (id, version,
  /// epoch) stamp is stale; returns the advertisement, or nullopt when the
  /// mirror is off or the leaf outgrows a page.
  std::optional<proto::ScanLeafHint> refresh_leaf_mirror(
      const index::OrderedIndex::LeafRef& leaf, std::uint64_t epoch, Duration& cost);
  void send_response(const proto::Response& resp, std::uint32_t conn_idx,
                     std::uint32_t slot, bool batched, std::uint32_t endpoint = kNoEndpoint);
  void charge(Duration cost) noexcept { stats_.busy_time += cost; }
  void schedule_gc();

  // --- hot-key replication plane (DESIGN.md §12) ---------------------------
  /// One promoted key: the slab slot it occupies on every follower, the
  /// advertisement clients receive, and the copy/kill writes still in
  /// flight. Held by shared_ptr so completion lambdas outlive retirement.
  struct Promotion {
    std::string key;
    std::uint64_t key_hash = 0;
    std::uint32_t slot = 0;       ///< slab slot index (same on every follower)
    std::uint64_t version = 0;    ///< item version the copies carry
    bool live = false;            ///< advertised to clients
    bool retired = false;         ///< withdrawn; terminal
    bool slot_released = false;
    int pending = 0;              ///< in-flight one-sided copy/kill writes
    std::vector<std::byte> image; ///< the item image written to followers
    std::vector<proto::ReplicaPtr> replicas;  ///< what GETs advertise
    /// Copy/kill destinations captured at promotion time -- kills must reach
    /// every follower that ever held the copy, even one quarantined since.
    struct Target {
      replication::SecondaryShard* sec = nullptr;
      fabric::QueuePair* qp = nullptr;
      NodeId node = kInvalidNode;
      std::uint32_t rkey = 0;
      std::uint64_t offset = 0;
    };
    std::vector<Target> targets;
  };

  /// GET-path hook: records the access, lazily arms the scan timer, demotes
  /// on an observed epoch advance, and fills `resp` with the key's live
  /// advertisement (if any).
  void hotkey_note_get(const std::string& key, std::uint64_t version,
                       proto::Response& resp);
  /// Periodic scan: demote cooled keys, promote the interval's top-k.
  void hotkey_scan();
  void promote_key(const std::string& key);
  /// Withdraws every promotion (routing epoch advanced / shard dying).
  /// `reason` follows kHotKeyDemoted's b argument.
  void demote_all(std::uint64_t reason);
  /// Write-path demotion: retires `key`'s promotion and returns it when
  /// guardian kills must gate the ack (it posted copies, live or not);
  /// nullptr otherwise.
  std::shared_ptr<Promotion> take_promotion_for_write(const std::string& key);
  /// Posts one guardian-kill write per recorded target; `settle` fires once
  /// per target (success, peer death, or retry exhaustion) -- the ack
  /// barrier counts each target once.
  void post_promotion_kills(const std::shared_ptr<Promotion>& p,
                            const std::function<void()>& settle);
  void post_one_kill(const std::shared_ptr<Promotion>& p, std::size_t target_idx,
                     int attempt, std::function<void()> settle);
  /// Copy/kill completion bookkeeping: frees the slab slot when the last
  /// in-flight write of a retired promotion lands.
  void promotion_op_done(const std::shared_ptr<Promotion>& p);
  void release_promo_slot(const std::shared_ptr<Promotion>& p);
  void retire_promotion(const std::shared_ptr<Promotion>& p, std::uint64_t reason);

  fabric::Fabric& fabric_;
  NodeId node_;
  ShardConfig cfg_;
  std::unique_ptr<core::KVStore> store_;
  fabric::MemoryRegion* arena_mr_;

  fabric::RegisteredBuffer msg_region_;
  fabric::MemoryRegion* msg_mr_;

  /// 2PL lock words clients CAS one-sidedly; registered only when
  /// cfg_.txn_lock_words > 0 so txn-off runs keep the seed's rkey sequence.
  fabric::RegisteredBuffer lock_region_;
  fabric::MemoryRegion* lock_mr_ = nullptr;
  EpochFn epoch_source_;

  /// One-sided scan-leaf mirror (DESIGN.md §13): fixed page slots holding
  /// serialized B+-tree leaves. Registered only when the ordered index and
  /// cfg_.scan_mirror_pages are both on, so index-off runs keep the seed's
  /// rkey sequence.
  struct MirrorSlot {
    std::uint64_t leaf_id = 0;
    std::uint64_t leaf_version = 0;
    std::uint64_t epoch = 0;
    bool used = false;
  };
  fabric::RegisteredBuffer leaf_region_;
  fabric::MemoryRegion* leaf_mr_ = nullptr;
  std::vector<MirrorSlot> mirror_slots_;
  std::map<std::uint64_t, std::uint32_t> mirror_slot_of_;  ///< leaf id -> slot
  std::uint32_t mirror_clock_ = 0;  ///< round-robin eviction cursor

  std::vector<Connection> conns_;
  /// Maps msg_region_ block index -> conns_ index for legacy connections
  /// (identical when no mux groups interleave with accepts).
  std::vector<std::uint32_t> block_to_conn_;
  DirtyScheduler dirty_;
  std::vector<MuxEndpoint> endpoints_;
  /// conns_ slots of closed mux groups, reused by the next accept_mux_group
  /// (same ring bytes, fresh registration) so reopen cycles do not grow
  /// conns_ -- and counted against max_connections while live.
  std::vector<std::uint32_t> free_mux_groups_;
  std::uint32_t live_mux_groups_ = 0;
  /// Deactivated MuxEndpoint slots, reused on the next registration.
  std::vector<std::uint32_t> free_endpoints_;
  /// Requests decoded by a ring sweep, waiting for the shard core.
  std::deque<ReadyReq> ready_;
  /// Send/Recv mode: decoded requests waiting for the shard thread.
  std::deque<std::pair<proto::Request, std::uint32_t>> sr_pending_;
  bool busy_ = false;
  bool gc_scheduled_ = false;

  std::unique_ptr<replication::ReplicationPrimary> replicator_;
  KeyPredicate owner_filter_;
  KeyPredicate forward_moving_;
  MigrationForward migration_forward_;

  /// Hot-key plane state; hotkey_ is null when cfg_.hotkey_top_k == 0 and
  /// every hook below is gated on it, so a promotion-off shard runs the
  /// exact pre-feature code path.
  std::unique_ptr<HotKeyTracker> hotkey_;
  std::map<std::string, std::shared_ptr<Promotion>, std::less<>> promotions_;
  std::vector<std::uint32_t> free_promo_slots_;
  std::uint32_t promo_slots_used_ = 0;
  bool hotkey_scan_armed_ = false;
  std::uint64_t hotkey_epoch_seen_ = 0;
  /// 8-byte kGuardianDead image the kill writes snapshot from.
  std::vector<std::byte> dead_word_;

  ShardStats stats_;
};

}  // namespace hydra::server
