#include "hydradb/hydra_cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "hydradb/swat.hpp"
#include "server/pipelined_shard.hpp"

namespace hydra::db {
namespace {
constexpr std::uint64_t kSyncStepLimit = 50'000'000;  // safety net for sync helpers
}

HydraCluster::HydraCluster(ClusterOptions opts)
    : opts_(std::move(opts)), fabric_(sched_, opts_.cost) {
  // The comparator's workers take requests from their handoff queue only;
  // a replicated write's doorbell run would sweep the next one past them.
  if (opts_.server_mode == server::ServerMode::kPipelined && opts_.replicas > 0) {
    throw std::invalid_argument("the pipelined comparator runs without replicas");
  }
  // A two-sided channel's receive buffers are its one endpoint's response
  // ring, so the Send/Recv baseline cannot share a channel between clients.
  if (opts_.server_mode == server::ServerMode::kSendRecv && opts_.mux_connections) {
    throw std::invalid_argument("the Send/Recv baseline runs without QP multiplexing");
  }
  // Ordered-index opt-in fans out through the shard template so primaries,
  // secondaries (whose stores may be promoted), and migration-spawned shards
  // all agree on whether the index exists.
  if (opts_.ordered_index) opts_.shard_template.store.ordered_index = true;
  // Fast-failover opt-in fans into the replication template: a positive
  // pulse interval is what makes primaries register (and pulse) the
  // replicas' failover arenas. Off, nothing new is registered and histories
  // stay byte-identical to legacy builds.
  if (opts_.fast_failover) opts_.replication.pulse_interval = opts_.fast.pulse_interval;
  fabric_.set_obs(opts_.obs);
  if (opts_.obs != nullptr) {
    opts_.obs->add_exporter(this, [this] { export_metrics(); });
  }
  // --- machines -------------------------------------------------------------
  for (int n = 0; n < opts_.server_nodes; ++n) {
    server_node_ids_.push_back(fabric_.add_node("server-" + std::to_string(n)).id());
  }
  for (int n = 0; n < opts_.client_nodes; ++n) {
    client_node_ids_.push_back(fabric_.add_node("client-" + std::to_string(n)).id());
  }
  fabric_.add_node("coordination");  // the ZooKeeper/SWAT machines
  coordinator_ = std::make_unique<cluster::Coordinator>(sched_, opts_.coordinator);
  // Persistent znode carrying the routing epoch; promotions set_data() it,
  // which would silently fail if nothing ever created the node.
  coordinator_->create("/routing/version", "0");

  // Created before the shard loop so every initial secondary gets its
  // suspicion deadline armed at attach time.
  if (opts_.fast_failover) fast_ = std::make_unique<FastFailover>(*this, opts_.fast);

  // --- shards ---------------------------------------------------------------
  const int total_shards = opts_.total_shards > 0
                               ? opts_.total_shards
                               : opts_.server_nodes * opts_.shards_per_node;
  primaries_.resize(static_cast<std::size_t>(total_shards));
  for (int s = 0; s < total_shards; ++s) {
    const auto id = static_cast<ShardId>(s);
    const NodeId node = server_node_ids_[static_cast<std::size_t>(s) % server_node_ids_.size()];
    primaries_[id].node = node;
    spawn_primary(id, node, nullptr);
    ring_.add_shard(id);
    for (int r = 0; r < opts_.replicas; ++r) spawn_secondary(id);
  }

  // --- SWAT -----------------------------------------------------------------
  if (opts_.enable_swat) swat_ = std::make_unique<SwatTeam>(*this, opts_.swat_members);

  // --- migration ------------------------------------------------------------
  // Always present but event-silent until add_shard_live()/drain_shard_live()
  // starts a protocol, so it cannot perturb non-migrating histories.
  migration_ = std::make_unique<MigrationManager>(*this);

  // --- connection pools ------------------------------------------------------
  // Every request ring a client writes into is a channel of its node's pool
  // (DESIGN.md §10): shared by the node's clients under QP multiplexing,
  // else one channel per client and shard.
  for (NodeId node : client_node_ids_) {
    auto mux = std::make_unique<client::NodeMux>(sched_, node, opts_.mux);
    mux->set_obs(opts_.obs);
    // connect_client, the only caller, has checked that the shard is up.
    mux->set_opener([this, node](client::ChannelKey key, client::NodeMux::MuxWire* out) {
      ShardSlot& slot = primaries_[key.shard];
      auto [cq, sq] = fabric_.connect(node, slot.node);
      // A channel of one gets a client's dedicated ring depth, a shared
      // channel the node's SRQ-sized credit pool. The Send/Recv baseline
      // carries the same frames as two-sided Sends.
      const server::ShardConfig& cfg = slot.primary->config();
      const bool two_sided = opts_.server_mode == server::ServerMode::kSendRecv;
      const auto res = slot.primary->accept_mux_group(
          sq, key.shared() ? cfg.mux_ring_slots : cfg.ring_slots, key.shared(), two_sided);
      if (!res.ok) {
        fabric_.disconnect(cq);
        return false;
      }
      out->qp = cq;
      out->group = res.group;
      out->req_ring = res.req_ring;
      out->slot_bytes = res.slot_bytes;
      out->ring_slots = res.ring_slots;
      out->lock_rkey = res.lock_rkey;
      out->lock_words = res.lock_words;
      out->owner_generation = slot.generation;
      out->qp_generation = cq->generation();
      out->two_sided = two_sided;
      return true;
    });
    mux->set_closer([this](client::ChannelKey key, const client::NodeMux::MuxWire& wire) {
      // Only tell the shard to drop the group when it is still the same
      // incarnation the group was opened against: a promoted replacement
      // primary hands out its own group ids from zero.
      ShardSlot& slot = primaries_[key.shard];
      if (slot.generation == wire.owner_generation && slot.primary != nullptr &&
          slot.primary->alive()) {
        slot.primary->close_mux_group(wire.group);
      }
      // The QP slot may have been reclaimed (chaos async error) and handed
      // to a *new* connection by the fabric pool before this closer ran:
      // only tear down the incarnation the channel actually opened.
      if (wire.qp != nullptr && wire.qp->open() &&
          wire.qp->generation() == wire.qp_generation) {
        fabric_.disconnect(wire.qp);
      }
    });
    // One-sided read channels for hot-key replica and scan-leaf reads: plain
    // QPs to the target node (no mux group -- the reads target registered
    // memory, not a shard's request ring), reaped on idle unless pinned.
    mux->set_read_opener([this, node](NodeId target) -> fabric::QueuePair* {
      auto [cq, sq] = fabric_.connect(node, target);
      (void)sq;
      return cq;
    });
    mux->set_read_closer([this](NodeId, fabric::QueuePair* qp, std::uint32_t qp_generation) {
      // The fabric pool may already have reused this slot for a newer
      // connection; only tear down the incarnation we actually opened.
      if (qp != nullptr && qp->open() && qp->generation() == qp_generation) {
        fabric_.disconnect(qp);
      }
    });
    node_muxes_[node] = std::move(mux);
  }

  // --- clients ---------------------------------------------------------------
  const int total_clients =
      static_cast<int>(client_node_ids_.size()) * opts_.clients_per_node;
  for (int c = 0; c < total_clients; ++c) {
    const NodeId node =
        client_node_ids_[static_cast<std::size_t>(c) % client_node_ids_.size()];
    client::ClientConfig ccfg = opts_.client_template;
    ccfg.id = static_cast<ClientId>(c);
    ccfg.use_rdma_read = opts_.client_rdma_read;

    std::shared_ptr<client::Client::RemotePtrCache> cache;
    std::shared_ptr<client::LeafCache> leaves;
    if (opts_.share_pointer_cache) {
      auto& slot = node_caches_[node];
      if (!slot) slot = std::make_shared<client::Client::RemotePtrCache>(64 * 1024);
      cache = slot;
      auto& leaf_slot = node_leaf_caches_[node];
      if (!leaf_slot) leaf_slot = std::make_shared<client::LeafCache>();
      leaves = leaf_slot;
    }
    clients_.push_back(std::make_unique<client::Client>(sched_, fabric_, node, ccfg,
                                                        std::move(cache), std::move(leaves)));
    wire_client(*clients_.back());
    client_ptrs_.push_back(clients_.back().get());
    node_clients_[node].push_back(clients_.back().get());
  }

  // --- routing watch ---------------------------------------------------------
  // Each client machine holds one watch on the routing znode, like the
  // ZooKeeper watch the paper's client library keeps: a promotion's epoch
  // publish reaches it one op_latency after the set_data lands.
  for (const auto& [node, on_node] : node_clients_) {
    coordinator_->watch("/routing/version",
                        [this, c = &on_node](const std::string&, cluster::WatchEvent) {
                          follow_routing_change(*c);
                        });
  }
}

HydraCluster::~HydraCluster() {
  // Freeze the final stats into the registry, then unregister: the plane
  // outlives the cluster and must not call into a corpse.
  if (opts_.obs != nullptr) {
    opts_.obs->collect();
    opts_.obs->remove_exporters(this);
  }
  // Drain nothing: pending events hold references into members that are
  // about to die, but they are only destroyed, never executed, once the
  // scheduler goes away with us.
}

void HydraCluster::export_metrics() {
  obs::Registry& reg = opts_.obs->metrics();
  const fabric::FabricStats& fs = fabric_.stats();
  reg.counter("fabric.rdma_writes").set(fs.rdma_writes);
  reg.counter("fabric.rdma_reads").set(fs.rdma_reads);
  reg.counter("fabric.sends").set(fs.sends);
  reg.counter("fabric.tcp_messages").set(fs.tcp_messages);
  reg.counter("fabric.protection_errors").set(fs.protection_errors);
  reg.counter("fabric.dead_peer_errors").set(fs.dead_peer_errors);
  reg.counter("fabric.torn_writes").set(fs.torn_writes);
  reg.counter("fabric.dropped_writes").set(fs.dropped_writes);
  reg.counter("fabric.rdma_atomics").set(fs.rdma_atomics);
  reg.counter("fabric.torn_reads").set(fs.torn_reads);
  reg.counter("fabric.torn_atomics").set(fs.torn_atomics);
  reg.counter("fabric.dropped_atomics").set(fs.dropped_atomics);
  reg.counter("fabric.qp_connects").set(fs.qp_connects);
  reg.counter("fabric.qp_disconnects").set(fs.qp_disconnects);
  reg.counter("fabric.qp_slot_reuses").set(fs.qp_slot_reuses);
  reg.counter("fabric.rkey_revocations").set(fs.rkey_revocations);
  reg.counter("fabric.rkey_reregistrations").set(fs.rkey_reregistrations);
  reg.counter("fabric.revoke_faults").set(fs.revoke_faults);
  for (std::size_t n = 0; n < fabric_.node_count(); ++n) {
    const fabric::Nic& nic = fabric_.node(static_cast<NodeId>(n)).nic();
    const std::string p = "node." + std::to_string(n) + ".";
    reg.counter(p + "tx_ops").set(nic.tx_ops);
    reg.counter(p + "rx_ops").set(nic.rx_ops);
    reg.counter(p + "tx_bytes").set(nic.tx_bytes);
    reg.counter(p + "rx_bytes").set(nic.rx_bytes);
    reg.counter(p + "tx_busy_ns").set(nic.tx_busy_ns);
    reg.counter(p + "rx_busy_ns").set(nic.rx_busy_ns);
  }
  for (std::size_t s = 0; s < primaries_.size(); ++s) {
    const std::string p = "shard." + std::to_string(s) + ".";
    if (primaries_[s].primary == nullptr) continue;
    const server::ShardStats* st = &primaries_[s].primary->stats();
    reg.counter(p + "gets").set(st->gets);
    reg.counter(p + "puts").set(st->puts);
    reg.counter(p + "removes").set(st->removes);
    reg.counter(p + "responses").set(st->responses);
    reg.counter(p + "batched_responses").set(st->batched_responses);
    reg.counter(p + "mux_requests").set(st->mux_requests);
    reg.counter(p + "malformed").set(st->malformed);
    reg.counter(p + "wrong_owner").set(st->wrong_owner);
    reg.counter(p + "forwarded").set(st->forwarded);
    reg.counter(p + "txn_commits").set(st->txn_commits);
    reg.counter(p + "txn_conflicts").set(st->txn_conflicts);
    reg.counter(p + "busy_time_ns").set(st->busy_time);
    reg.counter(p + "hotkey_promotions").set(st->hotkey_promotions);
    reg.counter(p + "hotkey_demotions").set(st->hotkey_demotions);
    reg.counter(p + "hotkey_invalidations").set(st->hotkey_invalidations);
    reg.counter(p + "hotkey_advertised").set(st->hotkey_advertised);
    reg.counter(p + "scans").set(st->scans);
    reg.counter(p + "scan_entries").set(st->scan_entries);
    reg.counter(p + "scan_token_rejects").set(st->scan_token_rejects);
    reg.counter(p + "scan_leaf_refreshes").set(st->scan_leaf_refreshes);
    reg.gauge(p + "generation").set(primaries_[s].generation);
    if (primaries_[s].primary != nullptr &&
        primaries_[s].primary->replicator() != nullptr) {
      const replication::ReplicationPrimary& rep = *primaries_[s].primary->replicator();
      reg.counter(p + "rep.write_retries").set(rep.write_retries());
      reg.counter(p + "rep.torn_acks").set(rep.torn_acks());
      reg.counter(p + "rep.ack_probes").set(rep.ack_probes());
      reg.counter(p + "rep.resends").set(rep.resends());
      reg.counter(p + "rep.doorbells").set(rep.doorbells());
      reg.counter(p + "rep.ring_writes").set(rep.ring_writes());
      reg.counter(p + "rep.acks_received").set(rep.acks_received());
      reg.counter(p + "rep.quarantined").set(rep.quarantined());
      reg.gauge(p + "rep.secondaries").set(
          static_cast<std::int64_t>(rep.secondary_count()));
    }
  }
  for (std::size_t c = 0; c < client_ptrs_.size(); ++c) {
    const client::ClientStats& cs = client_ptrs_[c]->stats();
    const std::string p = "client." + std::to_string(c) + ".";
    reg.counter(p + "gets").set(cs.gets);
    reg.counter(p + "puts").set(cs.puts);
    reg.counter(p + "removes").set(cs.removes);
    reg.counter(p + "ptr_hits").set(cs.ptr_hits);
    reg.counter(p + "ptr_misses").set(cs.ptr_misses);
    reg.counter(p + "epoch_invalidations").set(cs.epoch_invalidations);
    reg.counter(p + "stale_evicted").set(cs.stale_evicted);
    reg.counter(p + "replica_hits").set(cs.replica_hits);
    reg.counter(p + "wrong_owner_redirects").set(cs.wrong_owner_redirects);
    reg.counter(p + "timeouts").set(cs.timeouts);
    reg.counter(p + "retries").set(cs.retries);
    reg.counter(p + "reroutes").set(cs.reroutes);
    reg.counter(p + "failures").set(cs.failures);
    reg.counter(p + "scans").set(cs.scans);
    reg.counter(p + "scan_batches").set(cs.scan_batches);
    reg.counter(p + "scan_entries").set(cs.scan_entries);
    reg.counter(p + "scan_leaf_reads").set(cs.scan_leaf_reads);
    reg.counter(p + "scan_leaf_fallbacks").set(cs.scan_leaf_fallbacks);
    reg.counter(p + "scan_restarts").set(cs.scan_restarts);
    reg.histogram(p + "get_latency") = cs.get_latency;
    reg.histogram(p + "put_latency") = cs.put_latency;
    reg.histogram(p + "scan_latency") = cs.scan_latency;
  }
  for (const auto& [node, mux] : node_muxes_) {
    const client::NodeMuxStats& ms = mux->stats();
    const std::string p = "mux." + std::to_string(node) + ".";
    reg.counter(p + "channels_opened").set(ms.channels_opened);
    reg.counter(p + "reclaimed_idle").set(ms.reclaimed_idle);
    reg.counter(p + "reclaimed_failure").set(ms.reclaimed_failure);
    reg.counter(p + "credit_waits").set(ms.credit_waits);
    reg.counter(p + "read_channels_opened").set(ms.read_channels_opened);
    reg.counter(p + "reclaimed_read_idle").set(ms.reclaimed_read_idle);
    reg.counter(p + "read_reap_deferred").set(ms.read_reap_deferred);
  }
  reg.gauge("cluster.routing_epoch").set(static_cast<std::int64_t>(routing_epoch_));
  reg.counter("cluster.failovers").set(failovers());
  if (fast_ != nullptr) {
    reg.counter("cluster.fast.promotions").set(fast_->promotions());
    reg.counter("cluster.fast.rounds_started").set(fast_->rounds_started());
    reg.counter("cluster.fast.rounds_aborted").set(fast_->rounds_aborted());
    reg.counter("cluster.fast.ballots_lost").set(fast_->ballots_lost());
  }
  if (migration_ != nullptr) {
    const MigrationStats& ms = migration_->stats();
    reg.counter("cluster.migration.started").set(ms.started);
    reg.counter("cluster.migration.completed").set(ms.completed);
    reg.counter("cluster.migration.aborted").set(ms.aborted);
    reg.counter("cluster.migration.flow_restarts").set(ms.flow_restarts);
    reg.counter("cluster.migration.keys_moved").set(ms.keys_moved);
    reg.counter("cluster.migration.bytes_moved").set(ms.bytes_moved);
    reg.counter("cluster.migration.forwarded").set(ms.forwarded);
  }
}

void HydraCluster::spawn_primary(ShardId id, NodeId node,
                                 std::unique_ptr<core::KVStore> store) {
  ShardSlot& slot = primaries_[id];
  server::ShardConfig cfg = opts_.shard_template;
  cfg.id = id;
  if (opts_.server_mode == server::ServerMode::kPipelined) {
    // "Pipeline + RDMA Write": the comparator grants no remote pointers.
    cfg.grant_remote_pointers = false;
    slot.primary =
        std::make_unique<server::PipelinedShard>(sched_, fabric_, node, cfg, std::move(store));
  } else {
    slot.primary =
        std::make_unique<server::Shard>(sched_, fabric_, node, cfg, std::move(store));
  }
  slot.primary->enable_replication(opts_.replication);
  if (opts_.fast_failover && slot.primary->replicator() != nullptr) {
    // Self-fencing on revocation: the first kProtectionError from a live
    // replica means the failover plane revoked our rkeys. The handler runs
    // before the fenced link's owed completions settle, so killing the
    // shard here guarantees no acknowledgement ever escapes a fenced
    // primary (clients re-route to the successor when its epoch publishes).
    server::Shard* raw = slot.primary.get();
    slot.primary->replicator()->set_fence_handler([this, id, raw] {
      if (!raw->alive()) return;
      HYDRA_WARN("shard %u: replica revoked our ring rkey; self-fencing", id);
      raw->kill();
    });
  }
  // Epoch fencing at the message path: every request is checked against
  // the *live* ring, so a client routed by stale metadata is redirected
  // instead of silently served by a shard that lost the range.
  slot.primary->set_owner_filter(
      [this, id](std::uint64_t key_hash) { return shard_owns(id, key_hash); });
  // Commit-time epoch fence for the transaction layer: a multi-key commit
  // whose header predates the live routing epoch is refused whole.
  slot.primary->set_epoch_source([this] { return routing_epoch_; });
  slot.node = node;
  ++slot.generation;
  start_heartbeat(id);
}

void HydraCluster::start_heartbeat(ShardId id) {
  ShardSlot& slot = primaries_[id];
  slot.session = coordinator_->open_session("shard-" + std::to_string(id));
  const std::string path = "/shards/" + std::to_string(id) + "/primary";
  if (coordinator_->exists(path)) {
    // Stale znode from the crashed predecessor: take it over.
    coordinator_->remove(path);
  }
  coordinator_->create(path, std::to_string(slot.node), slot.session);

  // Heartbeats are scheduled through the shard actor, so they stop the
  // instant the process "crashes" -- exactly how a real ZK session dies.
  // The closure re-schedules itself, so the cluster owns it (a shared_ptr
  // self-capture would be an unreclaimable cycle).
  server::Shard* shard = slot.primary.get();
  const cluster::SessionId session = slot.session;
  heartbeats_.push_back(std::make_unique<std::function<void()>>());
  auto* beat = heartbeats_.back().get();
  *beat = [this, id, shard, session, beat] {
    if (!coordinator_->session_alive(session)) {
      // Fencing: our session expired, so SWAT is promoting (or has promoted)
      // a replica. A primary that kept serving here would split-brain with
      // it -- a real ZK client gets SESSION_EXPIRED and must halt.
      HYDRA_WARN("shard %u: coordinator session expired; self-fencing", id);
      if (opts_.obs != nullptr) {
        opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kFenced, id, 1);
      }
      shard->kill();
      return;
    }
    if (sched_.now() >= primaries_[id].heartbeat_muted_until) {
      coordinator_->heartbeat(session);
    }
    shard->schedule_after(opts_.coordinator.session_timeout / 4, *beat);
  };
  shard->schedule_after(opts_.coordinator.session_timeout / 4, *beat);
}

void HydraCluster::wire_client(client::Client& c) {
  c.set_resolver([this](std::uint64_t key_hash) { return ring_.owner(key_hash); });
  // Pull-based epoch subscription: the client reads the current routing
  // epoch synchronously before every one-sided read, so there is no
  // publish-latency window in which a fenced primary's rkey can be read.
  c.set_epoch_source([this] { return routing_epoch_; });
  c.set_connector([this](ShardId shard, client::Client& self, fabric::RemoteAddr resp_slot,
                         std::uint32_t resp_bytes, std::uint32_t window,
                         client::ShardConnection* out) {
    return connect_client(shard, self, resp_slot, resp_bytes, window, out);
  });
  // Scan fan-out targets the *ring members*: a mid-migration destination is
  // deliberately excluded until commit (its copy is partial; every key it
  // holds is still owned -- and scannable -- at the source), and the commit's
  // epoch bump restarts live cursors against the updated set.
  c.set_shard_lister([this] { return ring_.shards(); });
  // Channels for one-sided reads of promoted hot-key copies and scan leaf
  // pages on other nodes: the node's pool owns them, pinned while a read is
  // in flight so the idle reaper cannot reclaim the QP under it.
  c.set_replica_connector([mux = node_muxes_.at(c.node()).get()](NodeId target) {
    client::Client::ReplicaWire wire;
    wire.qp = mux->begin_replica_read(target);
    if (wire.qp != nullptr) wire.release = [mux, target] { mux->end_replica_read(target); };
    return wire;
  });
}

void HydraCluster::follow_routing_change(const std::vector<client::Client*>& clients) {
  // A connection to an unchanged owner, or one a timeout already
  // re-established against the new owner, stays put.
  for (std::size_t s = 0; s < primaries_.size(); ++s) {
    const auto shard = static_cast<ShardId>(s);
    for (client::Client* c : clients) {
      const auto opened = c->connection_owner(shard);
      if (opened.has_value() && *opened != primaries_[s].generation) c->reroute(shard);
    }
  }
}

bool HydraCluster::connect_client(ShardId shard_id, client::Client& c,
                                  fabric::RemoteAddr resp_slot, std::uint32_t resp_bytes,
                                  std::uint32_t window, client::ShardConnection* out) {
  if (shard_id >= primaries_.size()) return false;
  ShardSlot& slot = primaries_[shard_id];
  out->owner_generation = slot.generation;
  if (slot.primary == nullptr || !slot.primary->alive()) return false;

  // An endpoint on a channel of the client's node: the node's shared
  // channel to the shard under QP multiplexing, else a channel of one. The
  // channel opens lazily on first use; the endpoint registers this client's
  // private response ring.
  const client::ChannelKey key{shard_id,
                               opts_.mux_connections ? client::kSharedChannel : c.id()};
  client::NodeMux* mux = node_muxes_.at(c.node()).get();
  client::NodeMux::Channel* ch = mux->channel_to(key);
  if (ch != nullptr && ch->wire.owner_generation != slot.generation) {
    // The channel was opened against a fallen incarnation: its group id
    // means nothing to the successor. Close it and open a fresh one.
    mux->report_failure(key, ch->generation);
    ch = mux->channel_to(key);
  }
  if (ch == nullptr) return false;
  const auto res =
      slot.primary->accept_mux_endpoint(ch->wire.group, resp_slot, resp_bytes, c.id(), window);
  if (!res.ok) {
    // Stale channel (e.g. its primary failed over and the group id means
    // nothing to the successor): tear it down so the retry reopens fresh.
    mux->report_failure(key, ch->generation);
    return false;
  }
  out->qp = ch->wire.qp;
  out->req_slot_bytes = ch->wire.slot_bytes;
  out->window = res.window;
  out->endpoint = res.endpoint;
  out->channel = key;
  out->mux_generation = ch->generation;
  out->mux_node = mux;
  return true;
}

server::Shard* HydraCluster::shard(ShardId id) noexcept {
  return id < primaries_.size() ? primaries_[id].primary.get() : nullptr;
}

client::NodeMux* HydraCluster::node_mux(int client_node_idx) noexcept {
  if (client_node_idx < 0 ||
      static_cast<std::size_t>(client_node_idx) >= client_node_ids_.size()) {
    return nullptr;
  }
  auto it = node_muxes_.find(client_node_ids_[static_cast<std::size_t>(client_node_idx)]);
  return it == node_muxes_.end() ? nullptr : it->second.get();
}

bool HydraCluster::kill_mux_channel(int client_node_idx, ShardId shard) {
  client::NodeMux* mux = node_mux(client_node_idx);
  if (mux == nullptr) return false;
  client::NodeMux::Channel* ch = mux->peek_channel({shard});
  if (ch == nullptr || !ch->open || ch->wire.qp == nullptr ||
      !ch->wire.qp->open() || ch->wire.qp->generation() != ch->wire.qp_generation) {
    // Channel gone, or its QP slot was already reclaimed and reused by a
    // newer connection -- killing it now would hit an unrelated pair.
    return false;
  }
  // Abrupt asynchronous QP error: the fabric closes both ends without the
  // mux layer hearing about it. In-flight ops flush, endpoints time out,
  // report the failure, and re-establish lazily.
  fabric_.disconnect(ch->wire.qp);
  return true;
}

std::vector<replication::SecondaryShard*> HydraCluster::secondaries_of(ShardId id) {
  std::vector<replication::SecondaryShard*> out;
  for (auto& s : primaries_[id].secondaries) out.push_back(s.get());
  return out;
}

ShardId HydraCluster::owner_of(std::string_view key) const {
  return ring_.owner(hash_key(key));
}

// ---------------------------------------------------------------- sync ops

namespace {
template <typename Pred>
bool drive_until(sim::Scheduler& sched, const Pred& done) {
  std::uint64_t steps = 0;
  while (!done()) {
    if (!sched.step() || ++steps > kSyncStepLimit) return false;
  }
  return true;
}
}  // namespace

Status HydraCluster::put(std::string key, std::string value, int client_idx) {
  std::optional<Status> result;
  client_ptrs_[static_cast<std::size_t>(client_idx)]->put(
      std::move(key), std::move(value), [&](Status s) { result = s; });
  drive_until(sched_, [&] { return result.has_value(); });
  return result.value_or(Status::kTimeout);
}

Status HydraCluster::insert(std::string key, std::string value, int client_idx) {
  std::optional<Status> result;
  client_ptrs_[static_cast<std::size_t>(client_idx)]->insert(
      std::move(key), std::move(value), [&](Status s) { result = s; });
  drive_until(sched_, [&] { return result.has_value(); });
  return result.value_or(Status::kTimeout);
}

Status HydraCluster::remove(std::string key, int client_idx) {
  std::optional<Status> result;
  client_ptrs_[static_cast<std::size_t>(client_idx)]->remove(
      std::move(key), [&](Status s) { result = s; });
  drive_until(sched_, [&] { return result.has_value(); });
  return result.value_or(Status::kTimeout);
}

std::optional<std::string> HydraCluster::get(std::string key, int client_idx,
                                             Status* status_out) {
  std::optional<Status> status;
  std::string value;
  client_ptrs_[static_cast<std::size_t>(client_idx)]->get(
      std::move(key), [&](Status s, std::string_view v) {
        status = s;
        value.assign(v);
      });
  drive_until(sched_, [&] { return status.has_value(); });
  if (status_out != nullptr) *status_out = status.value_or(Status::kTimeout);
  if (!status.has_value() || *status != Status::kOk) return std::nullopt;
  return value;
}

Status HydraCluster::scan(std::string start_key, std::uint32_t limit,
                          std::vector<std::pair<std::string, std::string>>* out,
                          int client_idx) {
  std::optional<Status> status;
  client_ptrs_[static_cast<std::size_t>(client_idx)]->scan(
      std::move(start_key), limit,
      [&](Status s, client::Client::ScanEntries entries) {
        status = s;
        if (out != nullptr) *out = std::move(entries);
      });
  drive_until(sched_, [&] { return status.has_value(); });
  return status.value_or(Status::kTimeout);
}

void HydraCluster::direct_load(std::string_view key, std::string_view value) {
  // One hash routes the record and indexes every copy's table. All copies'
  // root buckets are requested before the first put walks one, so their
  // cache misses overlap instead of queueing.
  const std::uint64_t hash = hash_key(key);
  ShardSlot& slot = primaries_[ring_.owner(hash)];
  const auto each_copy = [&slot](auto&& fn) {
    fn(slot.primary->store());
    for (auto& sec : slot.secondaries) fn(sec->store());
  };
  each_copy([hash](core::KVStore& store) { store.table().prefetch(hash); });
  const Time now = sched_.now();
  each_copy([&](core::KVStore& store) { store.put(hash, key, value, now); });
}

// ---------------------------------------------------------------- failover

void HydraCluster::crash_primary(ShardId id) {
  ShardSlot& slot = primaries_[id];
  if (slot.primary == nullptr) return;
  HYDRA_INFO("crash injection: killing primary of shard %u", id);
  if (opts_.obs != nullptr) {
    opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kCrashInjected, id, 0, 0);
  }
  slot.crashed_at = sched_.now();
  slot.primary->kill();  // heartbeats stop; session expires; SWAT reacts
}

void HydraCluster::crash_secondary(ShardId id, int idx) {
  if (id >= primaries_.size()) return;
  ShardSlot& slot = primaries_[id];
  if (idx < 0 || idx >= static_cast<int>(slot.secondaries.size())) return;
  replication::SecondaryShard* sec = slot.secondaries[static_cast<std::size_t>(idx)].get();
  if (!sec->alive()) return;
  HYDRA_INFO("crash injection: killing secondary %d of shard %u", idx, id);
  if (opts_.obs != nullptr) {
    opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kCrashInjected, id, 1,
                     static_cast<std::uint64_t>(idx));
  }
  sec->kill();
}

void HydraCluster::kill_swat_member(int idx) {
  if (opts_.obs != nullptr && swat_) {
    opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kCrashInjected, obs::kNoShard,
                     2, static_cast<std::uint64_t>(idx));
  }
  if (swat_) swat_->kill_member(idx);
}

void HydraCluster::suppress_heartbeats(ShardId id, Duration d) {
  if (id >= primaries_.size()) return;
  HYDRA_INFO("chaos: muting heartbeats of shard %u for %llu ns", id,
             static_cast<unsigned long long>(d));
  if (opts_.obs != nullptr) {
    opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kHeartbeatSuppressed, id, d);
  }
  primaries_[id].heartbeat_muted_until = sched_.now() + d;
}

std::uint64_t HydraCluster::failovers() const noexcept {
  return (swat_ ? swat_->failovers() : 0) + (fast_ ? fast_->promotions() : 0);
}

bool HydraCluster::primary_healthy(ShardId id) const noexcept {
  if (id >= primaries_.size()) return false;
  const ShardSlot& slot = primaries_[id];
  return slot.primary != nullptr && slot.primary->alive() &&
         coordinator_->session_alive(slot.session);
}

bool HydraCluster::promote_secondary(ShardId id,
                                     replication::SecondaryShard* preferred) {
  if (id >= primaries_.size()) return false;
  ShardSlot& slot = primaries_[id];
  // A retired shard's znode deletion is expected teardown, not a death to
  // react to; promoting it would resurrect a drained range.
  if (slot.retired) return false;
  const bool primary_running = slot.primary != nullptr && slot.primary->alive();
  if (primary_running && coordinator_->session_alive(slot.session)) {
    // Duplicate or stale death event (e.g. the watch for a znode the new
    // primary re-registered moments later); nothing to do.
    return false;
  }
  if (opts_.obs != nullptr) {
    opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kPromotionStart, id);
  }
  if (primary_running) {
    // The process is still running but its session expired -- its heartbeats
    // were suppressed (partition, GC pause). The self-fencing check only
    // runs at heartbeat-tick granularity, so SWAT may react to the reaped
    // znode first; promoting underneath a still-serving primary would
    // split-brain, and refusing to promote would strand the shard (the
    // death event has already been consumed from the pending set). Fence it
    // here, then proceed with the promotion.
    HYDRA_WARN("shard %u: fencing still-running primary with expired session", id);
    if (opts_.obs != nullptr) {
      opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kFenced, id, 2);
    }
    slot.primary->kill();
  }
  slot.heartbeat_muted_until = 0;  // suppression targeted the old process

  // A secondary that died mid-replay cannot be promoted and must not stay
  // in the replica set; quarantine its link and bury it.
  for (auto it = slot.secondaries.begin(); it != slot.secondaries.end();) {
    if ((*it)->alive()) {
      ++it;
      continue;
    }
    if (slot.primary != nullptr && slot.primary->replicator() != nullptr) {
      slot.primary->replicator()->remove_secondary(**it);
    }
    graveyard_.push_back(std::move(*it));
    it = slot.secondaries.erase(it);
  }
  if (slot.secondaries.empty()) {
    HYDRA_WARN("shard %u lost its primary and has no live secondary to promote", id);
    return false;
  }
  // A ballot winner (fast failover) promotes itself specifically; rotate it
  // to the front. If it died since the ballot, fall back to slot order.
  if (preferred != nullptr) {
    for (auto it = slot.secondaries.begin(); it != slot.secondaries.end(); ++it) {
      if (it->get() == preferred) {
        std::rotate(slot.secondaries.begin(), it, it + 1);
        break;
      }
    }
  }
  auto secondary = std::move(slot.secondaries.front());
  slot.secondaries.erase(slot.secondaries.begin());
  const NodeId new_node = secondary->node();
  // Replay acked records its poll loop had not reached yet (see drain_ring).
  secondary->drain_ring();
  auto store = secondary->release_store();
  secondary->kill();
  graveyard_.push_back(std::move(secondary));  // its ring MR stays mapped

  HYDRA_INFO("SWAT: promoting secondary on node %u to primary of shard %u", new_node, id);
  // The dead primary's buffers stay allocated (its regions are revoked, so
  // in-flight remote ops fail cleanly instead of scribbling on a corpse).
  server::Shard* fallen = slot.primary.get();
  graveyard_.push_back(std::move(slot.primary));
  spawn_primary(id, new_node, std::move(store));

  // Remaining secondaries re-attach to the new primary's log stream.
  for (auto& sec : slot.secondaries) {
    slot.primary->replicator()->add_secondary(*sec);
  }
  // Restore the configured replication factor: every promotion consumes one
  // replica, so without respawning, repeated failovers would walk the shard
  // down to zero redundancy.
  while (static_cast<int>(slot.secondaries.size()) < opts_.replicas) {
    spawn_secondary(id);
    if (opts_.obs != nullptr) {
      opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kSecondaryRespawned, id,
                       slot.secondaries.back()->node());
    }
  }
  // Publish new routing metadata. Every client machine's routing watch fires
  // one op_latency after the set_data lands, and its clients re-route the
  // connections opened under the fallen incarnation at once (the request
  // timeout is only the backstop for a lost notification).
  ++routing_epoch_;
  coordinator_->set_data("/routing/version", std::to_string(routing_epoch_));
  if (opts_.obs != nullptr) {
    opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kEpochPublished, id,
                     routing_epoch_);
    opts_.obs->trace(sched_.now(), kInvalidNode, obs::TraceKind::kPromotionDone, id,
                     new_node);
  }
  // The fallen primary's hot-key promotion set dies with its epoch, exactly
  // as a migration epoch demotes: the re-attached secondaries' slabs were
  // zeroed by reset_stream above, and this records the withdrawal (b=1)
  // after the epoch publish so trace order pins epoch -> demotion.
  // Its replication links go too: the replicas re-attached to the
  // successor's own links above.
  if (fallen != nullptr) {
    fallen->withdraw_promotions(/*reason=*/1);
    if (fallen->replicator() != nullptr) fallen->replicator()->disconnect_links();
  }
  if (slot.crashed_at != 0) {
    if (opts_.obs != nullptr) {
      opts_.obs->metrics()
          .histogram("cluster.failover_gap_us")
          .record((sched_.now() - slot.crashed_at) / 1000);
    }
    slot.crashed_at = 0;
  }
  return true;
}

void HydraCluster::spawn_secondary(ShardId id) {
  ShardSlot& slot = primaries_[id];
  // Place the replica off the primary's machine when the cluster has more
  // than one server node (a replica on the same machine would not survive a
  // machine loss), each replica on the next node along.
  NodeId sec_node = slot.node;
  if (server_node_ids_.size() > 1) {
    std::size_t at = 0;
    for (std::size_t i = 0; i < server_node_ids_.size(); ++i) {
      if (server_node_ids_[i] == slot.node) at = i;
    }
    sec_node = server_node_ids_[(at + 1 + slot.secondaries.size()) % server_node_ids_.size()];
  }
  replication::SecondaryConfig sec_cfg;
  sec_cfg.primary_shard = id;
  sec_cfg.store = opts_.shard_template.store;
  auto secondary =
      std::make_unique<replication::SecondaryShard>(sched_, fabric_, sec_node, sec_cfg);
  slot.primary->replicator()->add_secondary(*secondary);
  if (fast_ != nullptr) fast_->attach_secondary(id, *secondary);
  // Bootstrap state transfer: copy the primary's current contents before any
  // new log records replay on top (all within this event, so nothing can
  // slip in between). Acked writes the replica never saw thus survive the
  // *next* failover too. A new shard's store is empty: its bucket array
  // is not walked.
  core::KVStore& src = slot.primary->store();
  core::KVStore& dst = secondary->store();
  const Time now = sched_.now();
  if (src.size() > 0) {
    src.for_each([&](std::string_view key, std::string_view value, std::uint64_t) {
      dst.put(key, value, now);
    });
  }
  slot.secondaries.push_back(std::move(secondary));
}

// ---------------------------------------------------------------- migration

bool HydraCluster::shard_owns(ShardId id, std::uint64_t key_hash) const {
  // Consult the *live* ring, not a snapshot: after a migration commits, the
  // old owner rejects moved keys with no further bookkeeping, and a shard
  // that later regains a range starts accepting it again automatically.
  if (ring_.owner(key_hash) != id) return false;
  return !(migration_ != nullptr && migration_->sealed_rejects(id, key_hash));
}

ShardId HydraCluster::add_shard_live() {
  if (opts_.server_mode == server::ServerMode::kPipelined || migration_->active()) {
    return kInvalidShard;
  }
  const auto id = static_cast<ShardId>(primaries_.size());
  // Elastic scale-out: the newcomer gets its own fresh machine, like a node
  // joining the paper's testbed.
  const NodeId node =
      fabric_.add_node("server-" + std::to_string(server_node_ids_.size())).id();
  server_node_ids_.push_back(node);
  primaries_.emplace_back();
  primaries_.back().node = node;
  spawn_primary(id, node, nullptr);
  for (int r = 0; r < opts_.replicas; ++r) spawn_secondary(id);
  if (!migration_->begin_add(id)) {
    retire_shard(id);
    return kInvalidShard;
  }
  return id;
}

bool HydraCluster::drain_shard_live(ShardId victim) {
  if (opts_.server_mode == server::ServerMode::kPipelined || migration_->active()) {
    return false;
  }
  if (victim >= primaries_.size() || primaries_[victim].retired) return false;
  return migration_->begin_drain(victim);
}

void HydraCluster::retire_shard(ShardId id) {
  if (id >= primaries_.size()) return;
  ShardSlot& slot = primaries_[id];
  if (slot.retired) return;
  // Mark first: the session close below deletes the ephemeral znode, which
  // wakes SWAT, whose promotion attempt must see the retired flag.
  slot.retired = true;
  HYDRA_INFO("retiring shard %u", id);
  coordinator_->close_session(slot.session);
  const std::string path = "/shards/" + std::to_string(id) + "/primary";
  if (coordinator_->exists(path)) coordinator_->remove(path);
  for (auto& sec : slot.secondaries) {
    sec->kill();
    graveyard_.push_back(std::move(sec));
  }
  slot.secondaries.clear();
  if (slot.primary != nullptr) {
    slot.primary->kill();
    graveyard_.push_back(std::move(slot.primary));
  }
}

}  // namespace hydra::db
