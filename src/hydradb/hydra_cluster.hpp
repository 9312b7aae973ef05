// HydraCluster: the top-level public API.
//
// Composes the whole middleware -- fabric, shards (with replication),
// clients, coordinator and SWAT -- into one simulated deployment, mirroring
// the paper's testbed layout (dedicated server machines, client machines,
// coordination machines). This is the entry point examples, tests and
// benches build on.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/ring.hpp"
#include "hydradb/fast_failover.hpp"
#include "hydradb/migration.hpp"
#include "fabric/fabric.hpp"
#include "obs/plane.hpp"
#include "replication/primary.hpp"
#include "replication/secondary.hpp"
#include "server/shard.hpp"
#include "sim/scheduler.hpp"

namespace hydra::db {

struct ClusterOptions {
  // Topology (paper defaults: 1 server machine with 4 shards, 50 clients
  // on 5 machines, coordination on separate machines).
  int server_nodes = 1;
  int shards_per_node = 4;
  /// Overrides server_nodes * shards_per_node when positive (e.g. one shard
  /// whose secondaries live on otherwise idle machines, as in Fig 13).
  int total_shards = -1;
  int client_nodes = 5;
  int clients_per_node = 10;

  // Replication / HA.
  int replicas = 0;  ///< secondaries per primary shard
  replication::PrimaryConfig replication;
  bool enable_swat = true;
  int swat_members = 2;

  // Execution-model variants (Fig 10).
  /// kPipelined takes no replicas, and kSendRecv no mux_connections (the
  /// constructor throws otherwise).
  server::ServerMode server_mode = server::ServerMode::kRdmaWritePolling;
  bool client_rdma_read = true;
  /// One shared pointer cache and leaf-page cache per client node (section
  /// 4.2.4) versus exclusive caches per client (the secure-isolation
  /// configuration).
  bool share_pointer_cache = true;
  /// Channel scope (DESIGN.md §10). Every request ring is a channel of the
  /// client node's NodeMux, opened lazily and reclaimed when idle. On, all
  /// clients on one node share a single physical QP + SRQ-style shared
  /// request ring per destination shard -- the connection scalability mode.
  /// Off, each client gets a channel of one per shard: the paper's one QP
  /// per client per shard, with a ring of ShardConfig::ring_slots.
  bool mux_connections = false;
  client::NodeMuxConfig mux;
  /// Ordered index + range scans (DESIGN.md §13). Forces
  /// shard_template.store.ordered_index on for every spawned shard (and
  /// secondary) so kScan and the one-sided leaf mirror work cluster-wide.
  /// Off (the default) keeps histories byte-identical to pre-feature builds.
  bool ordered_index = false;
  /// Fast failover (DESIGN.md §14): microsecond-scale crash promotion via
  /// ring-write suspicion deadlines, RDMA permission-revocation fencing and
  /// one-sided CAS ballots, with SWAT's session-timeout promotion demoted to
  /// the fallback. Off (the default) registers no arenas, writes no pulses
  /// and runs no rounds -- histories stay byte-identical to legacy builds.
  bool fast_failover = false;
  FastFailoverConfig fast;

  server::ShardConfig shard_template;
  client::ClientConfig client_template;
  fabric::CostModel cost;
  cluster::Coordinator::Config coordinator;

  /// Observability plane (caller-owned, must outlive the cluster). Null
  /// disables all instrumentation; enabling it must not change the
  /// simulation's virtual-time history (DESIGN.md §8).
  obs::Plane* obs = nullptr;
};

class SwatTeam;

class HydraCluster {
 public:
  explicit HydraCluster(ClusterOptions opts);
  ~HydraCluster();

  HydraCluster(const HydraCluster&) = delete;
  HydraCluster& operator=(const HydraCluster&) = delete;

  // --- access --------------------------------------------------------------
  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] fabric::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] obs::Plane* obs() const noexcept { return opts_.obs; }
  [[nodiscard]] cluster::Coordinator& coordinator() noexcept { return *coordinator_; }
  [[nodiscard]] const ClusterOptions& options() const noexcept { return opts_; }

  [[nodiscard]] std::size_t shard_count() const noexcept { return primaries_.size(); }
  [[nodiscard]] server::Shard* shard(ShardId id) noexcept;
  [[nodiscard]] std::vector<client::Client*>& clients() noexcept { return client_ptrs_; }
  [[nodiscard]] std::vector<replication::SecondaryShard*> secondaries_of(ShardId id);
  [[nodiscard]] const cluster::ConsistentHashRing& ring() const noexcept { return ring_; }
  [[nodiscard]] const std::vector<NodeId>& server_nodes() const noexcept {
    return server_node_ids_;
  }

  /// The shard a key routes to (what clients resolve through the ring).
  [[nodiscard]] ShardId owner_of(std::string_view key) const;

  // --- synchronous convenience (examples / tests) --------------------------
  // Each helper drives the simulator until the operation's callback fires.
  Status put(std::string key, std::string value, int client_idx = 0);
  Status insert(std::string key, std::string value, int client_idx = 0);
  Status remove(std::string key, int client_idx = 0);
  std::optional<std::string> get(std::string key, int client_idx = 0,
                                 Status* status_out = nullptr);
  /// Ordered cross-shard range scan (requires options().ordered_index): up
  /// to `limit` entries starting at `start_key`, merged ascending across
  /// every live shard. Drives the simulator until the cursor completes.
  Status scan(std::string start_key, std::uint32_t limit,
              std::vector<std::pair<std::string, std::string>>* out, int client_idx = 0);

  /// Preloads records directly into the owning shards' stores (and their
  /// secondaries), bypassing the network -- the paper pre-generates and
  /// pre-loads its YCSB datasets the same way before measuring.
  void direct_load(std::string_view key, std::string_view value);

  // --- failure injection ----------------------------------------------------
  /// Crashes a primary shard process (actor + its heartbeats). With SWAT
  /// enabled, a secondary is promoted automatically.
  void crash_primary(ShardId id);
  /// Crashes one of a shard's secondaries (by index into secondaries_of).
  /// The primary is NOT told: it discovers the corpse through write errors
  /// or the ack deadline and quarantines the link, like a real deployment.
  void crash_secondary(ShardId id, int idx);
  /// Crashes a SWAT member (its /swat/ znode lingers until session timeout,
  /// which is exactly the leadership gap the pending-death set covers).
  void kill_swat_member(int idx);
  /// Chaos: abruptly kills the shared QP carrying client node
  /// `client_node_idx`'s mux traffic to `shard`, WITHOUT notifying the mux
  /// layer (models an async QP error). In-flight writes flush; endpoints
  /// notice via timeout, tear the channel down and re-establish lazily.
  /// False when no live shared channel exists.
  bool kill_mux_channel(int client_node_idx, ShardId shard);
  /// The channel pool of a client node.
  [[nodiscard]] client::NodeMux* node_mux(int client_node_idx) noexcept;
  /// Mutes a primary's coordinator heartbeats for `d` of virtual time. Past
  /// the session timeout this fences the shard: the next heartbeat tick
  /// notices the expired session and the primary kills itself, so a
  /// suppressed-but-running primary can never split-brain with its
  /// promoted replica.
  void suppress_heartbeats(ShardId id, Duration d);
  [[nodiscard]] std::uint64_t failovers() const noexcept;
  /// Monotonic routing epoch, bumped (and published to /routing/version)
  /// on every successful promotion.
  [[nodiscard]] std::uint64_t routing_epoch() const noexcept { return routing_epoch_; }
  [[nodiscard]] SwatTeam* swat() noexcept { return swat_.get(); }
  [[nodiscard]] FastFailover* fast_failover() noexcept { return fast_.get(); }
  /// True while a fast-failover agreement round for `id` is in flight; SWAT
  /// consults this to defer legacy timeout promotion (double-promotion guard).
  [[nodiscard]] bool fast_round_active(ShardId id) const noexcept {
    return fast_ != nullptr && fast_->round_active(id);
  }
  /// True when `id` currently has a live primary whose coordinator session
  /// is also alive -- i.e. nothing about the shard needs reacting to. SWAT
  /// uses this to discard death events a fast promotion already resolved
  /// (the re-registered znode may still be in flight at redrain time).
  [[nodiscard]] bool primary_healthy(ShardId id) const noexcept;
  [[nodiscard]] std::uint32_t shard_generation(ShardId id) const noexcept {
    return id < primaries_.size() ? primaries_[id].generation : 0;
  }

  // --- elastic membership (DESIGN.md §9) -----------------------------------
  /// Spawns a brand-new shard (own machine, configured replica count) and
  /// starts migrating ~1/N of every existing shard's keys toward it while
  /// the cluster keeps serving. The shard joins the ring -- and the routing
  /// epoch is bumped -- only when the copy has been sealed and merged.
  /// Returns kInvalidShard when a migration is already running (one at a
  /// time) or the cluster runs pipelined comparator shards.
  ShardId add_shard_live();
  /// Starts draining every key off `victim` onto the surviving shards; the
  /// victim leaves the ring and is retired at commit. False when the shard
  /// cannot be drained (unknown, retired, last shard, migration running).
  bool drain_shard_live(ShardId victim);
  [[nodiscard]] bool migration_active() const noexcept {
    return migration_ != nullptr && migration_->active();
  }
  [[nodiscard]] const MigrationStats& migration_stats() const noexcept {
    return migration_->stats();
  }
  /// True when `id` was drained (or its add-migration aborted) and no
  /// longer participates in the cluster.
  [[nodiscard]] bool shard_retired(ShardId id) const noexcept {
    return id < primaries_.size() && primaries_[id].retired;
  }

  /// Runs the simulator for `d` of virtual time.
  void run_for(Duration d) { sched_.run_for(d); }

 private:
  friend class SwatTeam;
  friend class MigrationManager;
  friend class FastFailover;

  struct ShardSlot {
    std::unique_ptr<server::Shard> primary;
    NodeId node = kInvalidNode;
    std::vector<std::unique_ptr<replication::SecondaryShard>> secondaries;
    cluster::SessionId session = 0;
    std::uint32_t generation = 0;
    Time heartbeat_muted_until = 0;  ///< chaos: skip heartbeats until then
    /// When crash_primary last killed this slot's primary; promotion stamps
    /// the crash-to-recovery gap into the failover_gap histogram and clears
    /// it. 0 = no unrecovered crash.
    Time crashed_at = 0;
    /// Drained out of the cluster: never promoted, never reconnected.
    bool retired = false;
  };

  void spawn_primary(ShardId id, NodeId node, std::unique_ptr<core::KVStore> store);
  /// Mirrors live actor stats into the obs registry (exporter body).
  void export_metrics();
  /// Spawns one secondary for `id` (initial, scale-out or replacement),
  /// attaches it to the current primary's log stream and bootstrap-copies
  /// the primary's store into it.
  void spawn_secondary(ShardId id);
  void start_heartbeat(ShardId id);
  void wire_client(client::Client& c);
  /// Routing-watch body for one client machine: re-routes every connection
  /// of its clients that was opened under a shard owner that has since
  /// fallen.
  void follow_routing_change(const std::vector<client::Client*>& clients);
  bool connect_client(ShardId shard, client::Client& c, fabric::RemoteAddr resp_slot,
                      std::uint32_t resp_bytes, std::uint32_t window,
                      client::ShardConnection* out);
  /// Invoked by SWAT (legacy timeout path) and FastFailover (agreement
  /// rounds, which pass the ballot-winning replica as `preferred`). Returns
  /// false when there is nothing to do (primary still alive -- duplicate
  /// event) or nothing to promote.
  bool promote_secondary(ShardId id, replication::SecondaryShard* preferred = nullptr);
  /// Epoch-fencing predicate every primary's owner filter consults: the
  /// *live* ring owns the key and no migration seal excludes it.
  [[nodiscard]] bool shard_owns(ShardId id, std::uint64_t key_hash) const;
  /// Permanently removes a shard from the cluster (drain commit / add
  /// abort): closes its session, reaps its znode, buries its processes.
  void retire_shard(ShardId id);

  ClusterOptions opts_;
  sim::Scheduler sched_;
  fabric::Fabric fabric_;
  std::vector<NodeId> server_node_ids_;
  std::vector<NodeId> client_node_ids_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  std::unique_ptr<SwatTeam> swat_;
  std::unique_ptr<MigrationManager> migration_;
  std::unique_ptr<FastFailover> fast_;
  cluster::ConsistentHashRing ring_;
  std::vector<ShardSlot> primaries_;
  std::uint64_t routing_epoch_ = 0;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::vector<client::Client*> client_ptrs_;
  std::map<NodeId, std::shared_ptr<client::Client::RemotePtrCache>> node_caches_;
  std::map<NodeId, std::shared_ptr<client::LeafCache>> node_leaf_caches_;
  /// The clients of each client machine (one routing watch per machine).
  std::map<NodeId, std::vector<client::Client*>> node_clients_;
  /// Per-client-node channel pools: every write-ring connection and every
  /// one-sided read channel of the node's clients.
  std::map<NodeId, std::unique_ptr<client::NodeMux>> node_muxes_;
  /// Crashed actors: kept allocated so in-flight fabric ops referencing
  /// their (revoked) regions never touch freed memory.
  std::vector<std::unique_ptr<sim::Actor>> graveyard_;
  /// Self-rescheduling heartbeat closures (one per spawned primary); owned
  /// here because pending events reference them by pointer.
  std::vector<std::unique_ptr<std::function<void()>>> heartbeats_;
};

}  // namespace hydra::db
