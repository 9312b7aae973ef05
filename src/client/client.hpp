// HydraDB client library (paper sections 4.2.1, 4.2.2, 4.2.3, 4.2.4).
//
// The client routes keys with consistent hashing, passes messages over
// RDMA-Write-driven request/response rings (up to `window` outstanding
// requests per shard connection, each in its own indicator-encapsulated
// slot, matched to responses by req_id so completions may arrive out of
// order; requests ride a NodeMux channel's ring in MuxHeader envelopes,
// DESIGN.md §10; Fig 10's Send/Recv baseline sends the same frames over a
// two-sided wire, into the same slots), and accelerates repeat GETs with
// cached remote pointers: while the lease holds, the value is fetched by
// one-sided RDMA Read and validated locally via the guardian word; a dead
// guardian falls back to the message path and invalidates the cached
// pointer. Co-located clients may share one lock-free pointer cache.
// window=1 degenerates to the paper's closed-loop one-request-at-a-time wire
// behaviour.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/leaf_cache.hpp"
#include "client/node_mux.hpp"
#include "common/histogram.hpp"
#include "core/lockfree_cache.hpp"
#include "fabric/fabric.hpp"
#include "fabric/registered_buffer.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "sim/actor.hpp"

namespace hydra::client {

/// A one-sided read is issued only while the cached pointer's lease has more
/// than this margin left.
inline constexpr Duration kLeaseSafetyMargin = 50 * kMicrosecond;

struct ClientConfig {
  ClientId id = 0;
  /// Remote-pointer caching + RDMA Read GETs (off = "RDMA Write Only").
  bool use_rdma_read = true;
  /// Fire-and-forget lease renewals when a hit's remaining lease runs low.
  bool auto_renew = true;
  std::uint32_t resp_slot_bytes = 16 * 1024;
  std::uint32_t max_shard_connections = 128;
  /// Outstanding requests kept in flight per shard connection (request-ring
  /// depth the client asks for; the shard may grant less). 1 = the paper's
  /// closed-loop behaviour.
  std::uint32_t window = 8;
  Duration issue_cost = 150;    ///< building + posting a request
  Duration decode_cost = 120;   ///< parsing a response / validating a read
  Duration request_timeout = 5 * kMillisecond;
  int max_retries = 8;
  /// Range scans (DESIGN.md §13): follow shard-advertised leaf-page hints
  /// with one-sided RDMA Reads (off = every continuation rides the message
  /// path; the paper's "RDMA Write only" analogue for scans).
  bool scan_leaf_reads = true;
  /// Entries requested per kScan batch (the shard additionally caps this).
  std::uint32_t scan_batch = 32;
};

struct ClientStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t removes = 0;
  std::uint64_t ptr_hits = 0;      ///< GETs served by a valid RDMA Read
  std::uint64_t invalid_hits = 0;  ///< RDMA Read found dead/mismatched item
  std::uint64_t ptr_misses = 0;    ///< GET without a usable cached pointer
  /// Replica-read hits: ptr_hits served from a promoted follower copy
  /// rather than the primary's arena (DESIGN.md §12).
  std::uint64_t replica_hits = 0;
  /// Cached pointers discarded because the routing epoch advanced past the
  /// epoch they were leased under (failover or migration invalidation).
  std::uint64_t epoch_invalidations = 0;
  /// Stale-epoch entries reclaimed by the cache-wide sweep that follows the
  /// first stale hit after an epoch advance (they used to linger, skipped
  /// but never erased, until eviction pressure found them).
  std::uint64_t stale_evicted = 0;
  /// kWrongOwner answers that sent the op back through the resolver.
  std::uint64_t wrong_owner_redirects = 0;
  std::uint64_t renews_sent = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  /// Ops re-submitted because their shard's owner changed under them
  /// (routing watch, reroute()); they spend no retry budget.
  std::uint64_t reroutes = 0;
  std::uint64_t failures = 0;
  /// Largest number of simultaneously in-flight requests observed on any
  /// single connection (1 on a closed-loop / window=1 run).
  std::uint32_t max_in_flight = 0;
  /// Responses that completed a request other than the oldest in-flight one
  /// on their connection (only possible with window > 1).
  std::uint64_t ooo_responses = 0;
  // Range scans (DESIGN.md §13).
  std::uint64_t scans = 0;          ///< ScanCursor scans completed (any status)
  std::uint64_t scan_batches = 0;   ///< kScan message batches completed
  std::uint64_t scan_entries = 0;   ///< entries returned across all batches
  std::uint64_t scan_leaf_reads = 0;      ///< continuations served one-sidedly
  std::uint64_t scan_leaf_fallbacks = 0;  ///< leaf pages that failed validation
  std::uint64_t scan_restarts = 0;        ///< cursor re-resolves (epoch/ownership)
  LatencyHistogram get_latency;
  LatencyHistogram put_latency;
  LatencyHistogram scan_latency;  ///< full ScanCursor completion latency
};

/// One pointer-cache entry: the primary's remote pointer plus any promoted
/// follower copies advertised with it (DESIGN.md §12). Fixed-size and
/// trivially copyable so the lock-free cache's seqlock protection applies;
/// the round-robin cursor spreading reads across the fan-out lives in the
/// Client, never in the shared entry.
struct CachedPtr {
  proto::RemotePtr primary;
  std::array<proto::ReplicaPtr, proto::kMaxReplicaPtrs> replicas{};
  std::uint32_t replica_count = 0;
};

/// Everything the harness hands back when a client connects to a shard: an
/// endpoint riding a NodeMux channel (DESIGN.md §10).
struct ShardConnection {
  fabric::QueuePair* qp = nullptr;   ///< client end of the channel's QP
  std::uint32_t req_slot_bytes = 0;  ///< per-slot bytes of the channel's ring
  /// Ring depth the shard granted (<= the window the client requested).
  std::uint32_t window = 1;
  /// Owner incarnation (HydraCluster::shard_generation) this connection was
  /// opened under; a routing change that moves past it re-routes the
  /// connection.
  std::uint32_t owner_generation = 0;
  std::uint32_t endpoint = 0;        ///< shard-side mux endpoint id
  ChannelKey channel;                ///< the channel the endpoint rides
  std::uint64_t mux_generation = 0;  ///< channel incarnation registered against
  NodeMux* mux_node = nullptr;       ///< the node's channel pool
};

class Client : public sim::Actor {
 public:
  using RemotePtrCache = core::LockFreeCache<CachedPtr>;
  /// key hash -> owning shard (consistent-hash ring lookup).
  using Resolver = std::function<ShardId(std::uint64_t key_hash)>;
  /// Builds a fresh connection to a shard's *current* primary. The client
  /// passes the base of its response ring (`window` slots of
  /// `resp_slot_bytes` each) and the ring depth it wants; returns false if
  /// the shard is (currently) unreachable.
  using Connector = std::function<bool(ShardId shard, Client& self,
                                       fabric::RemoteAddr resp_slot,
                                       std::uint32_t resp_slot_bytes,
                                       std::uint32_t window,
                                       ShardConnection* out)>;

  using GetCallback = std::function<void(Status, std::string_view value)>;
  using OpCallback = std::function<void(Status)>;
  /// Per-batch scan answer: the decoded kScanResp (entries + done + leaf
  /// hint), or an empty one on error.
  using ScanRespCallback = std::function<void(Status, const proto::ScanResp&)>;
  /// Raw one-sided leaf-page read; the buffer is the registered mirror page.
  using LeafReadCallback = std::function<void(Status, std::vector<std::byte>)>;
  /// Cross-shard merged scan result (ScanCursor, DESIGN.md §13).
  using ScanEntries = std::vector<std::pair<std::string, std::string>>;
  using ScanResultFn = std::function<void(Status, ScanEntries)>;
  /// Live shard set for cross-shard scan fan-out (retired shards excluded).
  using ShardLister = std::function<std::vector<ShardId>()>;
  /// Current routing epoch (monotonic; bumped by failover promotions and
  /// migration commits). Pulled synchronously before every one-sided read,
  /// so there is no window where a pointer leased under epoch N can be
  /// read after the bump to N+1 -- the invalidation the paper's one-sided
  /// design needs to stay linearizable across ownership changes.
  using EpochSource = std::function<std::uint64_t()>;

  /// Co-located clients may share `pointer_cache` and `leaf_cache`; a null
  /// one gives the client its own.
  Client(sim::Scheduler& sched, fabric::Fabric& fabric, NodeId node, ClientConfig cfg,
         std::shared_ptr<RemotePtrCache> pointer_cache = nullptr,
         std::shared_ptr<LeafCache> leaf_cache = nullptr);

  /// Acquired per one-sided replica read: the QP to post on plus a release
  /// hook fired when the read completes (under mux it pins the shared read
  /// channel against the idle reaper for the read's lifetime). A null qp
  /// means no path to that follower right now -- the read falls back to the
  /// primary.
  struct ReplicaWire {
    fabric::QueuePair* qp = nullptr;
    std::function<void()> release;
  };
  using ReplicaConnector = std::function<ReplicaWire(NodeId node)>;

  void set_resolver(Resolver r) { resolver_ = std::move(r); }
  void set_connector(Connector c) { connector_ = std::move(c); }
  void set_epoch_source(EpochSource e) { epoch_source_ = std::move(e); }
  void set_replica_connector(ReplicaConnector c) { replica_connector_ = std::move(c); }
  void set_shard_lister(ShardLister l) { shard_lister_ = std::move(l); }

  // --- data-plane operations (asynchronous, callbacks in virtual time) ----
  void get(std::string key, GetCallback cb);
  void put(std::string key, std::string value, OpCallback cb);      ///< upsert
  void insert(std::string key, std::string value, OpCallback cb);
  void update(std::string key, std::string value, OpCallback cb);
  void remove(std::string key, OpCallback cb);
  void renew_lease(std::string key, OpCallback cb);

  // --- range scans (src/index, DESIGN.md §13) ----------------------------
  /// Ordered cross-shard scan: merges per-shard streams into ascending key
  /// order, surviving routing-epoch advances (failover, live migration)
  /// without dropping or duplicating keys. At most `limit` entries.
  void scan(std::string start_key, std::uint32_t limit, ScanResultFn cb);
  /// One kScan batch against an *explicit* shard (scans are range-routed by
  /// the cursor, not hash-routed by the resolver). kWrongOwner is terminal
  /// here, like kTxnCommit: the cursor must re-resolve the shard set.
  void scan_shard(ShardId shard, std::string start_key, const proto::ScanReq& sreq,
                  ScanRespCallback cb);
  /// One-sided RDMA Read of a shard's mirrored leaf page (rides the replica
  /// read channels). kDisconnected when no path to `node` exists right now.
  void leaf_read(NodeId node, fabric::RemoteAddr addr, std::uint32_t len,
                 LeafReadCallback cb);

  // --- transaction support (src/txn, DESIGN.md §11) ----------------------
  /// One-sided view of a shard's lock-word arena, riding the same QP the
  /// logical connection uses (the shared channel QP under mux; a two-sided
  /// wire's QP carries the CASes too). `ok` is false when the shard is
  /// unreachable or its txn arena is disabled.
  struct TxnWire {
    fabric::QueuePair* qp = nullptr;
    std::uint32_t lock_rkey = 0;
    std::uint32_t lock_words = 0;
    bool ok = false;
  };
  /// Establishes (or reuses) the connection to `shard` and returns the
  /// lock-arena coordinates for one-sided CAS lock traffic.
  TxnWire txn_wire(ShardId shard);
  /// Tears the logical connection to `shard` down and retries everything
  /// in flight on it (txn layer calls this when lock CAS traffic hits a
  /// dead QP so the next txn_wire() re-establishes).
  void invalidate_connection(ShardId shard);
  /// Sends a kTxnCommit carrying an encoded proto::TxnCommit as its value,
  /// routed by `routing_key` (any key of the commit group -- the shard
  /// re-validates per-key ownership). Unlike data ops, a kWrongOwner answer
  /// is terminal: the txn layer must re-plan the whole group, not blindly
  /// re-route a multi-key commit.
  void txn_commit(std::string routing_key, std::string payload, OpCallback cb);

  // --- routing changes (DESIGN.md §14, "Client re-routing") ----------------
  /// Owner incarnation the live connection to `shard` was opened under, or
  /// nullopt when there is no connection.
  [[nodiscard]] std::optional<std::uint32_t> connection_owner(ShardId shard) const;
  /// The shard's owner changed (the routing watch fired): tears the logical
  /// connection down and re-submits everything in flight or queued on it
  /// at the same virtual instant. A re-route, not a failure: no retry
  /// budget, no backoff. The old owner is already fenced, so no answer from
  /// it can race the re-submitted copies.
  void reroute(ShardId shard);

  [[nodiscard]] ClientId id() const noexcept { return cfg_.id; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] const ClientStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ClientStats& mutable_stats() noexcept { return stats_; }
  [[nodiscard]] RemotePtrCache& pointer_cache() noexcept { return *cache_; }
  [[nodiscard]] LeafCache& leaf_cache() noexcept { return *leaf_cache_; }
  [[nodiscard]] const ClientConfig& config() const noexcept { return cfg_; }
  /// The registered response region: one block of `window` slots per
  /// shard connection, max_shard_connections blocks.
  [[nodiscard]] const fabric::MemoryRegion& response_region() const noexcept {
    return *resp_mr_;
  }
  [[nodiscard]] fabric::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] std::uint64_t routing_epoch() const { return current_epoch(); }
  [[nodiscard]] std::vector<ShardId> shard_list() const {
    return shard_lister_ ? shard_lister_() : std::vector<ShardId>{};
  }

 private:
  struct PendingOp {
    proto::Request req;
    GetCallback get_cb;
    OpCallback op_cb;
    ScanRespCallback scan_cb;
    /// kScan only: explicit destination shard (scans bypass the resolver).
    ShardId target = kInvalidShard;
    Time issued = 0;
    int retries = 0;
  };

  /// One ring-slot pair: a request in flight and its private timeout.
  struct Slot {
    bool busy = false;
    PendingOp op;
    sim::EventId timeout{};
    /// The channel-ring credit this request occupies on the wire (claimed
    /// at post, returned when the response lands).
    bool holds_ring_slot = false;
    std::uint32_t mux_ring_slot = 0;
  };

  struct Conn {
    ShardConnection wire;
    std::uint32_t resp_block = 0;   ///< index of this conn's resp-ring block
    std::uint32_t window = 1;       ///< granted ring depth (slots.size())
    std::uint32_t in_flight = 0;
    std::uint32_t next_slot = 0;    ///< round-robin cursor over ring slots
    std::vector<Slot> slots;
    std::deque<PendingOp> queue;    ///< overflow beyond the window
  };

  /// Per-connection resp-ring block size in bytes (cfg window slots; a
  /// connection granted a smaller window simply leaves the tail unused).
  [[nodiscard]] std::size_t block_stride() const noexcept {
    return static_cast<std::size_t>(cfg_.window) * cfg_.resp_slot_bytes;
  }
  [[nodiscard]] std::span<std::byte> resp_slot(std::uint32_t block, std::uint32_t slot) noexcept {
    return {resp_region_.data() + static_cast<std::size_t>(block) * block_stride() +
                proto::ring_slot_offset(slot, cfg_.resp_slot_bytes),
            cfg_.resp_slot_bytes};
  }

  Conn* connection_to(ShardId shard);
  void drop_connection(ShardId shard);
  void submit(PendingOp op);
  /// Places `op` into a free ring slot of `conn` and issues it on the wire.
  void issue(ShardId shard, Conn& conn, PendingOp op);
  void post_slot(ShardId shard, std::uint32_t slot_idx);
  void post_mux_slot(ShardId shard, std::uint32_t slot_idx, std::uint64_t req_id,
                     std::vector<std::byte> frame);
  /// The connection to `shard` for an op about to ride its channel, which is
  /// stamped for the idle reaper (and re-established first if reclaimed).
  Conn* live_connection(ShardId shard);
  /// The connection whose `slot_idx` still carries request `req_id`, or
  /// nullptr. A deferred post checks it: the connection may have been torn
  /// down, or re-routed and rebuilt with the slot holding another request.
  Conn* posting_conn(ShardId shard, std::uint32_t slot_idx, std::uint64_t req_id);
  /// Tears a logical connection down and hands back everything that was in
  /// flight or queued on it (empty when there is no connection).
  std::vector<PendingOp> drain_connection(ShardId shard);
  /// Drains a logical connection and re-submits its ops through the normal
  /// retry path (mux channel died, or a request timed out).
  void salvage_connection(ShardId shard);
  void retry_or_fail(PendingOp op);
  void on_response_write(std::uint64_t offset);
  void handle_response(ShardId shard, Conn& conn, const proto::Response& resp);
  void on_timeout(ShardId shard);
  void complete(PendingOp& op, Status status, std::string_view value);
  void try_rdma_read(std::uint64_t key_hash, const proto::RemotePtr& ptr, PendingOp op);
  /// One-sided read of a promoted follower copy; validation failure (the
  /// copy was invalidated or its slot reused) falls back to the message
  /// path, a missing route falls back to the primary read.
  void try_replica_read(std::uint64_t key_hash, const CachedPtr& entry,
                        std::uint32_t replica_idx, PendingOp op);
  /// The one-sided item read both paths share: posts a read of `len` bytes
  /// at `addr` over `qp` and completes `op` from the image when it
  /// validates (renewing `lease` when due; `on_hit` first), else erases the
  /// cached entry and resubmits `op` as a message. `release` runs first on
  /// completion.
  void read_item(fabric::QueuePair& qp, fabric::RemoteAddr addr, std::uint32_t len,
                 std::uint64_t key_hash, const proto::RemotePtr& lease, PendingOp op,
                 std::function<void()> release, std::function<void()> on_hit);
  void maybe_auto_renew(const std::string& key, const proto::RemotePtr& ptr);
  [[nodiscard]] std::uint64_t current_epoch() const {
    return epoch_source_ ? epoch_source_() : 0;
  }

  fabric::Fabric& fabric_;
  NodeId node_;
  ClientConfig cfg_;
  std::shared_ptr<RemotePtrCache> cache_;
  std::shared_ptr<LeafCache> leaf_cache_;
  Resolver resolver_;
  Connector connector_;
  EpochSource epoch_source_;
  ReplicaConnector replica_connector_;
  ShardLister shard_lister_;
  /// Round-robin cursor over {primary, replicas} for promoted keys.
  std::uint64_t replica_rr_ = 0;
  /// Last epoch the cache-wide stale sweep ran under (see get()).
  std::uint64_t last_swept_epoch_ = 0;

  fabric::RegisteredBuffer resp_region_;
  fabric::MemoryRegion* resp_mr_;
  std::vector<std::uint32_t> free_blocks_;
  std::map<ShardId, std::unique_ptr<Conn>> conns_;
  std::map<std::uint32_t, ShardId> block_to_shard_;
  std::uint64_t next_req_id_ = 1;
  ClientStats stats_;
};

}  // namespace hydra::client
