// The shard: HydraDB's server-side unit of execution (paper section 4.1.1).
//
// One shard == one core == one partition. A single logical thread detects
// requests by polling request rings (filled by client RDMA Writes, one ring
// per mux group, DESIGN.md §10), executes them against its exclusively-owned
// KVStore, and answers with an RDMA Write into the slot the request's
// envelope names in its endpoint's response ring. A wakeup sweeps every
// occupied slot of a dirty ring at once, and all responses after the
// sweep's first share one doorbell (batched WQE cost). There are no locks
// anywhere on this path. Figure 10's Send/Recv baseline is the same path
// over a two-sided wire: the ring's slots are the QP's receive buffers and
// responses go out as Sends. PipelinedShard (pipelined_shard.hpp)
// reschedules the class as Fig 10's dispatcher/worker comparator.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

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
  Duration busy_time = 0;  ///< virtual CPU time charged to this core
};

class Shard : public sim::Actor {
 public:
  /// `existing_store` supports failover promotion: a secondary's replica
  /// store becomes this primary's store. Pass nullptr to start empty.
  Shard(sim::Scheduler& sched, fabric::Fabric& fabric, NodeId node, ShardConfig cfg,
        std::unique_ptr<core::KVStore> existing_store = nullptr);

  // --- connections (DESIGN.md §10) ----------------------------------------
  struct MuxGroupResult {
    std::uint32_t group = 0;      ///< group id, passed to accept_mux_endpoint
    fabric::RemoteAddr req_ring;  ///< base of the group's request ring
    std::uint32_t slot_bytes = 0;
    std::uint32_t ring_slots = 0;  ///< ring depth == the group's credit pool
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

  /// Registers a request ring of `ring_slots` slots served over `qp` -- one
  /// client channel, shared by a node's endpoints ("SRQ", `shared`) or
  /// carrying one. Frames carry a MuxHeader naming the endpoint and its
  /// response slot. A `two_sided` wire (Fig 10's Send/Recv baseline)
  /// receives its frames as Sends into the ring's slots and answers with
  /// Sends. Refused past max_connections live connections.
  MuxGroupResult accept_mux_group(fabric::QueuePair* qp, std::uint32_t ring_slots,
                                  bool shared = true, bool two_sided = false);

  /// Adds a logical client endpoint to an existing mux group. Responses are
  /// RDMA-written (sent, on a two-sided wire) into slot MuxHeader::resp_slot
  /// of the endpoint's private
  /// response ring at `client_resp_slot` (`window` slots of
  /// `client_resp_bytes` each), the window clamped to the group's depth.
  MuxEndpointResult accept_mux_endpoint(std::uint32_t group,
                                        fabric::RemoteAddr client_resp_slot,
                                        std::uint32_t client_resp_bytes, ClientId client,
                                        std::uint32_t window = 1);

  /// Tears down a mux group (the client side reclaimed its QP): revokes the
  /// ring's memory registration so in-flight client writes fault instead of
  /// landing, and deactivates every endpoint riding the group.
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
  /// ordered index is disabled. Exposed so chaos can target torn-read
  /// injection at leaf pages specifically.
  [[nodiscard]] std::uint32_t scan_leaf_rkey() const noexcept {
    return leaf_mr_ != nullptr ? leaf_mr_->rkey() : 0;
  }
  /// The mirror's page arena; null when the ordered index is disabled.
  [[nodiscard]] const core::Arena* scan_page_arena() const noexcept {
    return leaf_arena_.get();
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
  /// Connection slots allocated (closed ones are reused).
  [[nodiscard]] std::size_t connection_count() const noexcept { return conns_.size(); }
  /// Connections counted against max_connections (see live_conns_).
  [[nodiscard]] std::uint32_t live_connections() const noexcept { return live_conns_; }

  void kill() override;

 protected:
  /// Where a request's response goes. `batched` marks every request after
  /// the first of one ring sweep, whose response shares the sweep's
  /// doorbell; `endpoint` and `slot` come from a mux request's MuxHeader.
  struct Reply {
    std::uint32_t conn_idx = 0;
    std::uint32_t endpoint = 0;
    std::uint32_t slot = 0;
    bool batched = false;
  };

  /// A decoded request waiting for the shard core.
  struct ReadyReq {
    proto::Request req;
    Reply reply;
  };

  // --- scheduling: the only part PipelinedShard overrides -----------------
  /// A request ring saw a write (or, on a two-sided wire, a receive): the
  /// idle core starts polling after one idle backoff.
  virtual void wake();
  /// The core is free: it executes the next request, or goes idle. Every
  /// handler's commit tail ends here.
  virtual void process_loop();
  /// Pops the next decoded mux request into `out`, sweeping dirty groups
  /// when none is waiting (their poll_scan adds to `scan_cost`); false when
  /// no group holds one.
  bool next_swept(ReadyReq& out, Duration& scan_cost);
  void handle(proto::Request req, const Reply& to, Duration cost);
  void charge(Duration cost) noexcept { stats_.busy_time += cost; }

 private:
  /// A mux group: a request ring filled over `qp`.
  struct Connection {
    fabric::QueuePair* qp = nullptr;
    bool closed = false;  ///< mux group torn down; its slot awaits reuse
    bool shared = false;  ///< a node's shared ring, not a channel of one
    /// Requests arrive as Sends into the ring's slots and responses leave
    /// as Sends (the Send/Recv baseline), not as RDMA Writes.
    bool two_sided = false;
    std::uint32_t ring_slots = 0;
    /// Where the next sweep starts: the slot after the last one consumed.
    /// Clients fill slots round-robin, so sweeping from here decodes a
    /// wrapped ring in issue order.
    std::uint32_t next_slot = 0;
    fabric::RegisteredBuffer ring;  ///< its bytes stay put when conns_ grows
    fabric::MemoryRegion* ring_mr = nullptr;
  };

  /// A logical client endpoint riding a mux group's shared ring.
  struct MuxEndpoint {
    std::uint32_t group = 0;  ///< index into conns_
    fabric::RemoteAddr resp_addr{};
    std::uint32_t resp_bytes = 0;
    std::uint32_t window = 1;
    bool active = false;
  };

  /// Sweeps dirty groups until one yields a request; returns their poll_scan.
  Duration sweep_dirty();
  void sweep_group(std::uint32_t idx);
  /// Whether the request the core executes next is a single-key write, so a
  /// relaxed write's record may wait for it in the replication run. With
  /// nothing decoded it sweeps ahead; that scan is charged to the next
  /// request, as if swept when it was picked up.
  bool next_is_write();
  /// Rings the replicator's held run; returns the CPU of the ring writes
  /// posted (one WQE per link), 0 when nothing was held.
  Duration ring_held_run();
  /// kTxnCommit: validates epoch + ownership + lock words for the whole
  /// group, then applies every op in this one invocation (all-or-nothing;
  /// a mid-group store failure rolls the applied prefix back).
  void handle_txn_commit(proto::Request req, const Reply& to, Duration cost);
  /// Validates and applies a decoded commit group, adding its CPU to
  /// `cost`; anything but kOk means nothing applied.
  Status apply_txn_group(const proto::TxnCommit& txn, Duration& cost);
  /// kScan: validates the continuation token's epoch against the live
  /// routing epoch, walks the ordered index from the resume key, and -- when
  /// more entries remain -- advertises the mirror pages of the continuation
  /// leaf and its successors, until they cover what the scan still wants.
  void handle_scan(proto::Request req, const Reply& to, Duration cost);
  /// The one commit tail every handler ends in (DESIGN.md §4): answers
  /// `resp` once the shard's CPU work (`cost` plus the response post) is
  /// done, the replication policy holds every applied record in `records`
  /// (none for reads, scans and refusals; one per op of a commit group),
  /// and every guardian kill those writes owe a promoted key has settled.
  /// `may_hold` lets a single-key write's record wait in the doorbell run.
  void commit(proto::Response resp, const Reply& to, Duration cost,
              std::vector<proto::RepRecord> records = {}, bool may_hold = false);
  /// Fills the one-sided pointer a GET or lease renewal grants for `view`.
  void grant_pointer(proto::Response& resp, const core::GetView& view) const;
  /// Gives `leaf` its mirror page on first use and re-serializes it when its
  /// (version, epoch) stamp moved; returns the advertisement, or nullopt when
  /// the page arena cannot hold it.
  std::optional<proto::ScanLeafHint> refresh_leaf_mirror(
      const index::OrderedIndex::LeafRef& leaf, std::uint64_t epoch, Duration& cost);
  /// Poisons and frees a leaf's mirror page (merged-away leaf, or a page
  /// that must move to another size class).
  void release_mirror_page(std::uint64_t offset, std::uint32_t len);
  void send_response(const proto::Response& resp, const Reply& to);
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
  /// Marks `p` retired (no longer advertised) and traces its demotion;
  /// false when it already was.
  bool mark_retired(Promotion& p, std::uint64_t reason);

  fabric::Fabric& fabric_;
  NodeId node_;
  ShardConfig cfg_;
  std::unique_ptr<core::KVStore> store_;
  fabric::MemoryRegion* arena_mr_;

  /// 2PL lock words clients CAS one-sidedly; registered only when
  /// cfg_.txn_lock_words > 0 so txn-off runs keep the seed's rkey sequence.
  fabric::RegisteredBuffer lock_region_;
  fabric::MemoryRegion* lock_mr_ = nullptr;
  EpochFn epoch_source_;

  /// One-sided scan-leaf mirror (DESIGN.md §13): one exact-fit page per
  /// hinted leaf, poisoned in place whenever the leaf changes and kept until
  /// the leaf merges away. The arena is registered as its own region only
  /// when the ordered index is on, so index-off runs keep the seed's rkey
  /// sequence.
  struct MirrorPage {
    std::uint64_t offset = 0;  ///< block in leaf_arena_
    std::uint32_t len = 0;     ///< encoded page bytes
    std::uint64_t leaf_version = 0;
    std::uint64_t epoch = 0;
  };
  std::unique_ptr<core::Arena> leaf_arena_;
  fabric::MemoryRegion* leaf_mr_ = nullptr;
  std::unordered_map<std::uint64_t, MirrorPage> mirror_pages_;  ///< leaf id -> page

  std::vector<Connection> conns_;
  DirtyScheduler dirty_;
  std::vector<MuxEndpoint> endpoints_;
  /// conns_ slots of closed mux groups, reused by the next accept_mux_group
  /// of the same depth (same ring bytes, fresh registration) so reopen
  /// cycles do not grow conns_.
  std::vector<std::uint32_t> free_mux_groups_;
  /// Live mux groups.
  std::uint32_t live_conns_ = 0;
  /// Deactivated MuxEndpoint slots, reused on the next registration.
  std::vector<std::uint32_t> free_endpoints_;
  /// Requests decoded by a ring sweep, waiting for the shard core.
  std::deque<ReadyReq> ready_;
  /// poll_scan of sweeps made ahead by next_is_write, not yet charged.
  Duration ahead_scan_cost_ = 0;
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
