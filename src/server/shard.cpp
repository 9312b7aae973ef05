#include "server/shard.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "core/item.hpp"
#include "index/leaf_page.hpp"
#include "obs/plane.hpp"

namespace hydra::server {
namespace {

/// Cap on entries returned per kScan batch (responses are additionally
/// bounded by the connection's response-slot byte budget).
constexpr std::uint32_t kScanMaxBatch = 32;

/// Requests that, applied, hand the replicator exactly one record.
bool is_single_key_write(proto::MsgType t) noexcept {
  return t == proto::MsgType::kInsert || t == proto::MsgType::kUpdate ||
         t == proto::MsgType::kPut || t == proto::MsgType::kRemove;
}

/// The replication record of one applied write (any put flavour is a kPut).
proto::RepRecord make_record(proto::MsgType op, std::string key, std::string value, Time at) {
  proto::RepRecord rec;
  rec.op = op == proto::MsgType::kRemove ? proto::MsgType::kRemove : proto::MsgType::kPut;
  rec.op_time = at;
  rec.key = std::move(key);
  rec.value = std::move(value);
  return rec;
}

}  // namespace

Shard::Shard(sim::Scheduler& sched, fabric::Fabric& fabric, NodeId node,
             ShardConfig cfg, std::unique_ptr<core::KVStore> existing_store)
    : sim::Actor(sched, "shard-" + std::to_string(cfg.id)),
      fabric_(fabric),
      node_(node),
      cfg_(cfg),
      store_(existing_store ? std::move(existing_store)
                            : std::make_unique<core::KVStore>(cfg.store)) {
  // One region spans every item: this is what remote pointers point into.
  arena_mr_ = fabric_.node(node_).register_memory(store_->arena().bytes());
  if (cfg_.txn_lock_words > 0) {
    // Registered last and only on demand: a txn-off shard performs exactly
    // the seed's registrations, keeping rkey assignment (and therefore
    // chaos histories) byte-identical. Words start zero = unlocked, which
    // also means a promoted primary's arena never inherits a held lock.
    lock_region_ = fabric::RegisteredBuffer(static_cast<std::size_t>(cfg_.txn_lock_words) * 8);
    lock_mr_ = fabric_.node(node_).register_memory(lock_region_.bytes());
  }
  if (cfg_.hotkey_top_k > 0) {
    // Hot-key plane (DESIGN.md §12). The tracker is the only allocation;
    // follower promo slabs register lazily on first promotion, so a shard
    // that never promotes performs exactly the pre-feature registrations.
    hotkey_ = std::make_unique<HotKeyTracker>(cfg_.hotkey_tracker_capacity);
    dead_word_.resize(sizeof(std::uint64_t));
    const std::uint64_t dead = core::kGuardianDead;
    std::memcpy(dead_word_.data(), &dead, sizeof(dead));
  }
  if (store_->config().ordered_index) {
    // One-sided scan-leaf mirror (DESIGN.md §13). Gated on the ordered
    // index so index-off runs perform exactly the seed's registrations --
    // rkey assignment and event histories stay byte-identical (same
    // contract as txn_lock_words above). The page arena reserves what the
    // store arena does; it is demand-zero, so only written pages cost RAM.
    leaf_arena_ = std::make_unique<core::Arena>(store_->config().arena_bytes);
    leaf_mr_ = fabric_.node(node_).register_memory(leaf_arena_->bytes());
    store_->index()->set_retire_hook([this](std::uint64_t leaf_id) {
      const auto it = mirror_pages_.find(leaf_id);
      if (it == mirror_pages_.end()) return;
      release_mirror_page(it->second.offset, it->second.len);
      mirror_pages_.erase(it);
    });
    // Poison-on-write: a leaf's page dies in the same event as the change,
    // before any ack, so every page a client decodes is current. The block
    // and its entry stay; the next hint re-encodes the page in place. The
    // 12-byte prefix write is part of the put's index swing, so it costs no
    // CPU of its own.
    store_->index()->set_change_hook([this](std::uint64_t leaf_id) {
      const auto it = mirror_pages_.find(leaf_id);
      if (it == mirror_pages_.end()) return;
      index::poison_leaf_page({leaf_arena_->at(it->second.offset), it->second.len});
    });
  }
}

void Shard::kill() {
  // Process death deregisters its regions: in-flight client writes and
  // RDMA reads fail with protection errors rather than touching a corpse.
  arena_mr_->revoke();
  if (lock_mr_ != nullptr) lock_mr_->revoke();
  if (leaf_mr_ != nullptr) leaf_mr_->revoke();
  for (Connection& conn : conns_) {
    if (conn.ring_mr != nullptr && !conn.closed) conn.ring_mr->revoke();
  }
  sim::Actor::kill();
}

Shard::MuxGroupResult Shard::accept_mux_group(fabric::QueuePair* qp, std::uint32_t ring_slots,
                                              bool shared, bool two_sided) {
  // Groups pass one admission gate: live connections, never unbounded
  // growth across the failure/reopen cycles the chaos families drive.
  if (live_conns_ >= cfg_.max_connections) return {};
  ring_slots = std::max<std::uint32_t>(1, ring_slots);
  std::uint32_t idx;
  const auto reuse =
      std::find_if(free_mux_groups_.rbegin(), free_mux_groups_.rend(),
                   [&](std::uint32_t g) { return conns_[g].ring_slots == ring_slots; });
  if (reuse != free_mux_groups_.rend()) {
    // Reuse a closed group's conns_ slot: same ring bytes, but a *fresh*
    // registration (new rkey), so straggler writes addressed to the dead
    // incarnation still fault on its revoked region.
    idx = *reuse;
    free_mux_groups_.erase(std::next(reuse).base());
    Connection& c = conns_[idx];
    c.qp = qp;
    c.closed = false;
    c.next_slot = 0;
    c.ring.zero(0, c.ring.size());
    dirty_.reactivate(idx);
  } else {
    idx = static_cast<std::uint32_t>(conns_.size());
    Connection conn;
    conn.qp = qp;
    conn.ring_slots = ring_slots;
    conn.ring = fabric::RegisteredBuffer(static_cast<std::size_t>(ring_slots) *
                                         cfg_.msg_slot_bytes);
    conns_.push_back(std::move(conn));
    dirty_.add_endpoint();
  }
  ++live_conns_;
  Connection& c = conns_[idx];
  c.shared = shared;
  c.two_sided = two_sided;
  c.ring_mr = fabric_.node(node_).register_memory(c.ring.bytes());
  c.ring_mr->set_write_hook(guard([this, idx](std::uint64_t, std::uint32_t) {
    if (dirty_.mark(idx)) wake();
  }));
  if (two_sided) {
    // The ring's slots are the QP's receive buffers, and a receive marks the
    // group dirty as a ring write does. A filled buffer goes straight back
    // to the QP: receives fill the slots in turn, and the client's credits
    // keep a slot from refilling before the sweep that drains it.
    const auto slot_buf = [ring = c.ring.data(), bytes = cfg_.msg_slot_bytes](std::uint64_t slot) {
      return std::span<std::byte>{
          ring + proto::ring_slot_offset(static_cast<std::uint32_t>(slot), bytes), bytes};
    };
    for (std::uint32_t slot = 0; slot < c.ring_slots; ++slot) qp->post_recv(slot_buf(slot), slot);
    qp->set_recv_handler(guard([this, idx, qp, slot_buf](const fabric::Completion& wc,
                                                          std::span<std::byte>) {
      qp->post_recv(slot_buf(wc.wr_id), wc.wr_id);
      if (dirty_.mark(idx)) wake();
    }));
  }
  MuxGroupResult res;
  res.group = idx;
  res.req_ring = fabric::RemoteAddr{c.ring_mr->rkey(), 0};
  res.slot_bytes = cfg_.msg_slot_bytes;
  res.ring_slots = c.ring_slots;
  res.lock_rkey = lock_rkey();
  res.lock_words = lock_word_count();
  res.ok = true;
  return res;
}

Shard::MuxEndpointResult Shard::accept_mux_endpoint(std::uint32_t group,
                                                    fabric::RemoteAddr client_resp_slot,
                                                    std::uint32_t client_resp_bytes,
                                                    ClientId /*client*/, std::uint32_t window) {
  if (group >= conns_.size() || conns_[group].closed) return {};
  // Live-endpoint admission bound: a runaway (re)registration loop must not
  // grow the table without limit. Deactivated slots below do not count.
  if (endpoints_.size() - free_endpoints_.size() >= cfg_.max_mux_endpoints) return {};
  MuxEndpoint ep;
  ep.group = group;
  ep.resp_addr = client_resp_slot;
  ep.resp_bytes = client_resp_bytes;
  // An endpoint can never hold more slots than the group's ring has.
  ep.window = std::clamp<std::uint32_t>(window, 1, conns_[group].ring_slots);
  ep.active = true;
  std::uint32_t id;
  if (!free_endpoints_.empty()) {
    id = free_endpoints_.back();
    free_endpoints_.pop_back();
    endpoints_[id] = ep;
  } else {
    id = static_cast<std::uint32_t>(endpoints_.size());
    endpoints_.push_back(ep);
  }
  MuxEndpointResult res;
  res.endpoint = id;
  res.window = ep.window;
  res.ok = true;
  return res;
}

void Shard::close_mux_group(std::uint32_t group) {
  if (group >= conns_.size() || conns_[group].closed) return;
  Connection& c = conns_[group];
  c.closed = true;
  // Revoking the ring registration makes a straggler client write (issued
  // against the dead QP's successor before the client noticed) fault
  // instead of landing in a ring nobody sweeps.
  c.ring_mr->revoke();
  for (std::uint32_t e = 0; e < endpoints_.size(); ++e) {
    if (endpoints_[e].group == group && endpoints_[e].active) {
      endpoints_[e].active = false;
      free_endpoints_.push_back(e);
    }
  }
  free_mux_groups_.push_back(group);
  --live_conns_;
  // Withdraw any queued dirty mark: the revoked ring can never produce a
  // sweepable frame again, so the retired endpoint must not resurface from
  // the scheduler. accept_mux_group's reuse path reactivates the id.
  dirty_.deregister(group);
}

void Shard::enable_replication(replication::PrimaryConfig rep_cfg) {
  replicator_ = std::make_unique<replication::ReplicationPrimary>(*this, fabric_, node_, rep_cfg);
}

std::uint32_t Shard::arena_rkey() const noexcept { return arena_mr_->rkey(); }

std::uint64_t Shard::lock_word(std::uint32_t idx) const noexcept {
  if (lock_mr_ == nullptr || idx >= cfg_.txn_lock_words) return 0;
  std::uint64_t w = 0;
  std::memcpy(&w, lock_region_.data() + static_cast<std::size_t>(idx) * 8, 8);
  return w;
}

void Shard::wake() {
  if (busy_) return;
  busy_ = true;
  // The paper's loop sleeps 100ns between empty scans; a fresh arrival is
  // therefore noticed after at most one backoff.
  schedule_after(cfg_.cpu.idle_backoff, [this] { process_loop(); });
}

void Shard::process_loop() {
  // A sweep made ahead (next_is_write) charges its scan to the request
  // picked up next.
  Duration scan_cost = std::exchange(ahead_scan_cost_, 0);
  ReadyReq r;
  if (!next_swept(r, scan_cost)) {
    charge(scan_cost);
    busy_ = false;  // idle; the write hook re-arms us
    return;
  }
  handle(std::move(r.req), r.reply, scan_cost);
}

bool Shard::next_swept(ReadyReq& out, Duration& scan_cost) {
  // Requests an earlier sweep already decoded go before new polling.
  if (ready_.empty()) scan_cost += sweep_dirty();
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

Duration Shard::sweep_dirty() {
  // Polling mode: round-robin over groups whose rings saw a write; a dirty
  // group has all of its occupied slots drained in one sweep. The scheduler
  // pops exactly the groups that saw traffic, so this is O(active) per
  // wakeup no matter how many connections are registered.
  Duration scan_cost = 0;
  while (ready_.empty() && !dirty_.empty()) {
    scan_cost += cfg_.cpu.poll_scan;
    sweep_group(dirty_.pop());
  }
  return scan_cost;
}

bool Shard::next_is_write() {
  if (ready_.empty()) ahead_scan_cost_ += sweep_dirty();
  return !ready_.empty() && is_single_key_write(ready_.front().req.type);
}

Duration Shard::ring_held_run() {
  if (replicator_ == nullptr) return 0;
  return replicator_->config().record_post_cost * static_cast<Duration>(replicator_->ring());
}

void Shard::sweep_group(std::uint32_t idx) {
  Connection& conn = conns_[idx];
  if (conn.closed) return;
  bool first_in_sweep = true;
  std::uint32_t decoded = 0;
  std::uint32_t occupied = 0;  // ring depth at sweep time (ready + landing)
  const std::uint32_t start = conn.next_slot;
  for (std::uint32_t i = 0; i < conn.ring_slots; ++i) {
    const std::uint32_t slot = (start + i) % conn.ring_slots;
    const std::span<std::byte> span{
        conn.ring.data() + proto::ring_slot_offset(slot, cfg_.msg_slot_bytes), cfg_.msg_slot_bytes};
    switch (proto::probe_frame(span)) {
      case proto::FrameState::kEmpty:
        continue;
      case proto::FrameState::kPartial:  // still landing; redirtied on commit
        ++occupied;
        continue;
      case proto::FrameState::kMalformed:
        // Torn or garbage bytes: scrub the whole slot so the ring does not
        // wedge on a head word that lies about its size.
        ++stats_.malformed;
        conn.ring.zero(proto::ring_slot_offset(slot, cfg_.msg_slot_bytes), span.size());
        continue;
      case proto::FrameState::kReady:
        break;
    }
    ++occupied;
    const auto payload = proto::frame_payload(span);
    const auto hdr = proto::decode_mux_header(payload);
    std::optional<proto::Request> req;
    if (hdr.has_value()) req = proto::decode_request(proto::mux_request_body(payload));
    proto::clear_frame(span);
    conn.next_slot = (slot + 1) % conn.ring_slots;
    if (!req.has_value() || hdr->endpoint >= endpoints_.size() ||
        !endpoints_[hdr->endpoint].active || endpoints_[hdr->endpoint].group != idx ||
        hdr->resp_slot >= endpoints_[hdr->endpoint].window) {
      // Garbage body, unknown endpoint, an endpoint that hopped groups, or a
      // response slot past the endpoint's granted window (a corrupt header
      // must not steer the response RDMA Write outside the endpoint's
      // response ring): drop; the client's timeout path retransmits.
      ++stats_.malformed;
      continue;
    }
    ready_.push_back(ReadyReq{std::move(*req),
                              {.conn_idx = idx, .endpoint = hdr->endpoint,
                               .slot = hdr->resp_slot, .batched = !first_in_sweep}});
    first_in_sweep = false;
    ++decoded;
    ++stats_.mux_requests;
  }
  if (fabric_.obs() != nullptr) {
    if (decoded > 0) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kRingSweep, cfg_.id, decoded, idx);
    }
    // Only a shared ring has a depth worth tracing: on a channel of one it
    // is just that client's in-flight count, traced on every sweep.
    if (conn.shared) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kSrqDepth, cfg_.id, occupied, idx);
    }
  }
}

void Shard::handle(proto::Request req, const Reply& to, Duration cost) {
  // A request that will not hand the replicator a record rings the held
  // run as it starts (a failed or refused write rings in commit()).
  if (!is_single_key_write(req.type)) cost += ring_held_run();
  if (req.type == proto::MsgType::kScan) {
    // Scans dispatch before the per-key owner filter: the request's key is a
    // range position, not an owned key, and the handler runs its own epoch
    // fence against the continuation token.
    handle_scan(std::move(req), to, cost);
    return;
  }
  const CpuModel& cpu = cfg_.cpu;
  proto::Response resp;
  resp.req_id = req.req_id;

  if (owner_filter_ && !owner_filter_(hash_key(req.key))) {
    // Epoch fencing: this shard no longer (or does not yet) own the key's
    // range. Answer without touching the store -- serving the request would
    // split ownership with the range's new home.
    ++stats_.wrong_owner;
    resp.status = Status::kWrongOwner;
    commit(std::move(resp), to, cost);
    return;
  }

  bool applied = false;  // a write the replicator must carry
  switch (req.type) {
    case proto::MsgType::kGet: {
      cost += cpu.base_get;
      auto r = store_->get(req.key, now());
      resp.status = r.status();
      if (r.ok()) {
        const core::GetView& view = r.value();
        resp.value.assign(view.value);
        resp.version = view.version;
        cost += static_cast<Duration>(cpu.per_value_byte * static_cast<double>(view.value.size()));
        if (cfg_.grant_remote_pointers) grant_pointer(resp, view);
      }
      ++stats_.gets;
      if (hotkey_ != nullptr && r.ok()) hotkey_note_get(req.key, resp.version, resp);
      break;
    }
    case proto::MsgType::kInsert:
    case proto::MsgType::kUpdate:
    case proto::MsgType::kPut: {
      cost += cpu.base_put +
              static_cast<Duration>(cpu.per_value_byte * static_cast<double>(req.value.size()));
      core::GetView written;
      if (req.type == proto::MsgType::kInsert) {
        resp.status = store_->insert(req.key, req.value, now(), &written);
      } else if (req.type == proto::MsgType::kUpdate) {
        resp.status = store_->update(req.key, req.value, now(), &written);
      } else {
        resp.status = store_->put(req.key, req.value, now(), &written);
      }
      applied = resp.status == Status::kOk;
      // The writer's node refreshes its cached pointer with the new item's,
      // so its next GET need not read the item this write just killed.
      if (applied && cfg_.grant_remote_pointers) grant_pointer(resp, written);
      ++stats_.puts;
      break;
    }
    case proto::MsgType::kRemove: {
      cost += cpu.base_remove;
      resp.status = store_->remove(req.key, now());
      applied = resp.status == Status::kOk;
      ++stats_.removes;
      break;
    }
    case proto::MsgType::kRenewLease: {
      cost += cpu.base_renew;
      resp.status = store_->renew_lease(req.key, now());
      if (resp.status == Status::kOk && cfg_.grant_remote_pointers) {
        // Return the refreshed pointer so the client's cache entry reflects
        // the extended lease term.
        auto r = store_->get(req.key, now(), /*grant_lease=*/false);
        if (r.ok()) {
          grant_pointer(resp, r.value());
          // Renewals are the hot-key tracker's only visibility into
          // one-sided read traffic (RDMA GETs never reach this handler), so
          // they count as reads -- and the refreshed cache entry must carry
          // the current promotion set, not silently wipe it.
          if (hotkey_ != nullptr) hotkey_note_get(req.key, r.value().version, resp);
        }
      }
      ++stats_.renews;
      break;
    }
    case proto::MsgType::kTxnCommit:
      // Multi-key commit group: validated and applied all-or-nothing in its
      // own handler, which ends in the same commit tail.
      handle_txn_commit(std::move(req), to, cost);
      return;
    default:
      ++stats_.malformed;
      resp.status = Status::kInvalidArgument;
      break;
  }
  schedule_gc();
  std::vector<proto::RepRecord> records;
  if (applied) {
    records.push_back(make_record(req.type, std::move(req.key), std::move(req.value), now()));
  }
  commit(std::move(resp), to, cost, std::move(records), /*may_hold=*/true);
}

void Shard::commit(proto::Response resp, const Reply& to, Duration cost,
                   std::vector<proto::RepRecord> records, bool may_hold) {
  cost += to.batched ? cfg_.cpu.post_response_batched : cfg_.cpu.post_response;
  if (records.empty()) cost += ring_held_run();

  // Dual ownership: a write that landed in a range currently being migrated
  // away also rides the migration flow's record ring.
  if (migration_forward_) {
    for (const proto::RepRecord& rec : records) {
      const std::uint64_t key_hash = hash_key(rec.key);
      if (!forward_moving_(key_hash)) continue;
      ++stats_.forwarded;
      migration_forward_(key_hash, rec);
    }
  }

  // Hot-key invalidation: a write to a promoted key must flip every follower
  // copy's guardian to DEAD *before* the ack leaves, or a client could read
  // the superseded value from a follower after observing the write
  // acknowledged. The kill completions therefore join the ack barrier.
  std::vector<std::shared_ptr<Promotion>> promos;
  int kills = 0;
  if (hotkey_ != nullptr) {
    for (const proto::RepRecord& rec : records) {
      if (auto p = take_promotion_for_write(rec.key)) {
        kills += static_cast<int>(p->targets.size());
        promos.push_back(std::move(p));
      }
    }
  }

  const bool replicate =
      !records.empty() && replicator_ != nullptr && replicator_->secondary_count() > 0;
  if (!replicate && kills == 0) {
    charge(cost);
    schedule_after(cost, [this, resp = std::move(resp), to] {
      send_response(resp, to);
      process_loop();
    });
    return;
  }

  // The response leaves once the shard's CPU work is done, every record rode
  // the replication ring and every kill settled. Every op of a commit group
  // joins the barrier, so an acked commit survives a primary kill in its
  // entirety, never as a partial group. Under the relaxed log protocol the
  // shard polls the next request as soon as the records are posted (the
  // overlap Fig 13 credits); the conventional strict protocol serializes:
  // the shard cannot move on until the secondary acknowledged.
  bool hold = false;
  bool blocking = false;
  if (replicate) {
    // Doorbell run (DESIGN.md §4): when the next request is a write too, a
    // single-key write's record waits for it, and the run's last write
    // posts the whole run as one ring write per link.
    hold = may_hold && replicator_->can_hold() && next_is_write();
    blocking = replicator_->config().mode == replication::ReplicationMode::kStrictAck;
  }
  auto barrier =
      std::make_shared<int>((replicate ? static_cast<int>(records.size()) : 0) + 1 + kills);
  std::function<void()> arm = guard([this, resp = std::move(resp), to, barrier, blocking] {
    if (--*barrier > 0) return;
    send_response(resp, to);
    if (blocking) process_loop();
  });
  for (const auto& p : promos) post_promotion_kills(p, arm);
  if (replicate) {
    // A held record rides its run's write, so it costs only its staging
    // copy, once for every link; a record that posts builds each link's WQE.
    const Duration wqe_cost = replicator_->post_cost();
    for (proto::RepRecord& rec : records) {
      const std::size_t framed = replicator_->replicate(std::move(rec), arm, hold);
      cost += hold ? static_cast<Duration>(cfg_.cpu.per_value_byte * static_cast<double>(framed))
                   : wqe_cost;
    }
  }
  charge(cost);
  schedule_after(cost, [this, arm, blocking] {
    arm();
    if (!blocking) process_loop();
  });
}

void Shard::grant_pointer(proto::Response& resp, const core::GetView& view) const {
  resp.remote_ptr.rkey = arena_mr_->rkey();
  resp.remote_ptr.offset = view.offset;
  resp.remote_ptr.total_len = view.total_len;
  resp.remote_ptr.lease_expiry = view.lease_expiry;
  resp.remote_ptr.version = view.version;
  resp.remote_ptr.shard = cfg_.id;
}

void Shard::handle_txn_commit(proto::Request req, const Reply& to, Duration cost) {
  proto::Response resp;
  resp.req_id = req.req_id;
  cost += cfg_.cpu.base_txn_commit;

  const auto* value_bytes = reinterpret_cast<const std::byte*>(req.value.data());
  auto txn = proto::decode_txn_commit({value_bytes, req.value.size()});
  if (!txn.has_value() || txn->ops.empty() || lock_mr_ == nullptr) {
    // Garbage payload, an empty group, or a commit aimed at a shard that
    // never provisioned lock words: refuse before touching anything.
    ++stats_.malformed;
    resp.status = Status::kInvalidArgument;
    commit(std::move(resp), to, cost);
    return;
  }

  resp.status = apply_txn_group(*txn, cost);
  if (resp.status != Status::kOk) {
    if (resp.status == Status::kWrongOwner) {
      ++stats_.wrong_owner;
    } else {
      ++stats_.txn_conflicts;
    }
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kTxnCommitRejected, cfg_.id,
                           txn->hdr.txn_id, static_cast<std::uint64_t>(resp.status));
    }
    commit(std::move(resp), to, cost);
    return;
  }

  ++stats_.txn_commits;
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kTxnCommitApplied, cfg_.id,
                         txn->hdr.txn_id, txn->ops.size());
  }
  schedule_gc();
  std::vector<proto::RepRecord> records;
  records.reserve(txn->ops.size());
  for (proto::TxnOp& op : txn->ops) {
    records.push_back(make_record(op.op, std::move(op.key), std::move(op.value), now()));
  }
  commit(std::move(resp), to, cost, std::move(records));
}

Status Shard::apply_txn_group(const proto::TxnCommit& txn, Duration& cost) {
  const CpuModel& cpu = cfg_.cpu;
  // Validation order: epoch fence first (a promotion/migration the client
  // has not seen invalidates its whole lock set), then per-key ownership,
  // then every lock word. Nothing applies unless all three pass for the
  // entire group -- the all-or-nothing half of the invariant.
  if (epoch_source_ && txn.hdr.epoch != epoch_source_()) return Status::kTxnConflict;
  std::vector<std::uint64_t> hashes;
  hashes.reserve(txn.ops.size());
  for (const auto& op : txn.ops) hashes.push_back(hash_key(op.key));
  if (owner_filter_) {
    for (const std::uint64_t h : hashes) {
      if (!owner_filter_(h)) return Status::kWrongOwner;
    }
  }
  const std::uint64_t held = std::uint64_t{1} << 63;
  for (const std::uint64_t h : hashes) {
    const auto widx = static_cast<std::uint32_t>(h % cfg_.txn_lock_words);
    if (lock_word(widx) != (held | txn.hdr.txn_id)) return Status::kTxnConflict;
  }

  // Apply the whole group in this single invocation: the shard is one
  // logical thread, so no reader or rival commit can interleave. A store
  // failure mid-group (arena exhaustion) rolls the applied prefix back so
  // partial application is impossible even then.
  struct Undo {
    std::string key;
    bool existed = false;
    std::string old_value;
  };
  std::vector<Undo> undo;
  undo.reserve(txn.ops.size());
  for (const auto& op : txn.ops) {
    Undo u;
    u.key = op.key;
    auto cur = store_->get(op.key, now(), /*grant_lease=*/false);
    if (cur.ok()) {
      u.existed = true;
      u.old_value.assign(cur.value().value);
    }
    Status st;
    if (op.op == proto::MsgType::kRemove) {
      cost += cpu.base_remove;
      st = store_->remove(op.key, now());
      if (st == Status::kNotFound) st = Status::kOk;  // desired end state holds
    } else {
      cost += cpu.base_put +
              static_cast<Duration>(cpu.per_value_byte * static_cast<double>(op.value.size()));
      st = store_->put(op.key, op.value, now());
    }
    if (st != Status::kOk) {
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        if (it->existed) {
          store_->put(it->key, it->old_value, now());
        } else {
          store_->remove(it->key, now());
        }
      }
      return st;
    }
    undo.push_back(std::move(u));
  }
  return Status::kOk;
}

void Shard::handle_scan(proto::Request req, const Reply& to, Duration cost) {
  const CpuModel& cpu = cfg_.cpu;
  proto::Response resp;
  resp.req_id = req.req_id;
  cost += cpu.base_scan;

  const auto* value_bytes = reinterpret_cast<const std::byte*>(req.value.data());
  const auto sreq = proto::decode_scan_req({value_bytes, req.value.size()});
  index::OrderedIndex* idx = store_->index();
  if (!sreq.has_value() || idx == nullptr) {
    // Garbage payload or a scan aimed at a shard without an ordered index:
    // refuse before touching anything (mirrors the kTxnCommit discipline).
    ++stats_.malformed;
    resp.status = Status::kInvalidArgument;
    commit(std::move(resp), to, cost);
    return;
  }

  // Epoch fence: a continuation token minted under an older routing epoch may
  // straddle a migration seal or a promotion; the client must re-resolve and
  // resume rather than trust a stale shard set.
  const std::uint64_t live_epoch = epoch_source_ ? epoch_source_() : 0;
  if (sreq->epoch != live_epoch) {
    ++stats_.scan_token_rejects;
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kScanTokenRejected, cfg_.id,
                           sreq->epoch, live_epoch);
    }
    resp.status = Status::kWrongOwner;
    commit(std::move(resp), to, cost);
    return;
  }

  // The batch must fit the requester's response slot -- leave margin for the
  // response envelope + frame so send_response never degrades a scan.
  const std::uint32_t resp_bytes = endpoints_[to.endpoint].resp_bytes;
  const std::size_t budget = resp_bytes > 192 ? resp_bytes - 192 : 0;
  const std::uint32_t limit =
      std::min(std::max<std::uint32_t>(sreq->limit, 1), kScanMaxBatch);
  const bool exclusive = (sreq->flags & proto::kScanFlagExclusive) != 0;

  proto::ScanResp body;
  body.epoch = live_epoch;
  std::size_t bytes_used = 0;
  std::uint64_t payload_bytes = 0;
  bool more = false;
  // A scan that wants more than this batch gets the rest as leaf pages, so
  // the batch ends with its first leaf: copying entries the client will
  // read one-sidedly anyway would only spend shard CPU.
  const bool pages_follow = leaf_mr_ != nullptr && sreq->want > limit;
  idx->leaves_from(req.key, exclusive, [&](const index::OrderedIndex::LeafRef& leaf) {
    for (std::size_t i = leaf.first; i < leaf.entries->size(); ++i) {
      const index::OrderedIndex::Entry& e = (*leaf.entries)[i];
      const std::string_view v = store_->value_at(e.offset);
      const std::size_t entry_bytes = 8 + e.key.size() + v.size();
      // Always admit the first entry even past the byte budget: a zero-entry
      // not-done response would make the client re-issue the same token
      // forever.
      if (body.entries.size() >= limit ||
          (!body.entries.empty() && bytes_used + entry_bytes > budget)) {
        more = true;
        return false;
      }
      body.entries.emplace_back(e.key, std::string(v));
      bytes_used += entry_bytes;
      payload_bytes += v.size();
    }
    more = !leaf.last;
    return more && !pages_follow;
  });
  body.done = !more;
  cost += cpu.per_scan_entry * static_cast<Duration>(body.entries.size()) +
          static_cast<Duration>(cpu.per_value_byte * static_cast<double>(payload_bytes));

  // When the batch stops mid-range, hint the mirror pages of the leaf holding
  // the continuation and of the leaves after it, until they cover what the
  // scan still wants. The client reads the hints back to back, so the chain
  // stops at the first leaf without a page rather than skip it. The first
  // hint rides in the response margin; each further one needs budget room.
  const std::size_t rest =
      sreq->want > body.entries.size() ? sreq->want - body.entries.size() : 0;
  if (!body.done && leaf_mr_ != nullptr && rest > 0) {
    const std::size_t room =
        1 + (budget > bytes_used ? (budget - bytes_used) / proto::kScanHintBytes : 0);
    const std::size_t cap = std::min(proto::kMaxScanHints, room);
    std::size_t covered = 0;
    idx->leaves_from(body.entries.back().first, /*exclusive=*/true,
                     [&](const index::OrderedIndex::LeafRef& leaf) {
                       const auto hint = refresh_leaf_mirror(leaf, live_epoch, cost);
                       if (!hint.has_value()) return false;
                       body.hints.push_back(*hint);
                       covered += leaf.entries->size() - leaf.first;
                       return covered < rest && body.hints.size() < cap;
                     });
  }

  ++stats_.scans;
  stats_.scan_entries += body.entries.size();
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kScanHandled, cfg_.id,
                         body.entries.size(), body.done ? 1 : 0);
  }
  const auto enc = proto::encode_scan_resp(body);
  resp.status = Status::kOk;
  resp.value.assign(reinterpret_cast<const char*>(enc.data()), enc.size());
  commit(std::move(resp), to, cost);
}

std::optional<proto::ScanLeafHint> Shard::refresh_leaf_mirror(
    const index::OrderedIndex::LeafRef& leaf, std::uint64_t epoch, Duration& cost) {
  auto [it, fresh] = mirror_pages_.try_emplace(leaf.id);
  MirrorPage& page = it->second;
  if (fresh || page.leaf_version != leaf.version || page.epoch != epoch) {
    index::LeafPageEntries kv;
    kv.reserve(leaf.entries->size());
    for (const auto& e : *leaf.entries) kv.emplace_back(e.key, store_->value_at(e.offset));
    const index::LeafPageHeader header{leaf.id, leaf.version, epoch, leaf.next_id,
                                       store_->index()->left_shifts(), leaf.head};
    const std::size_t len = index::leaf_page_bytes(header, kv);
    // Same size class: re-encode in place (the change already poisoned the
    // old content). Otherwise the page moves to a block of its class.
    if (!fresh && core::Arena::class_for(len) != core::Arena::class_for(page.len)) {
      release_mirror_page(page.offset, page.len);
      fresh = true;
    }
    if (fresh) page.offset = leaf_arena_->allocate(len);
    if (page.offset == core::kNullOffset ||
        !index::encode_leaf_page({leaf_arena_->at(page.offset), len}, header, kv)) {
      if (page.offset != core::kNullOffset) release_mirror_page(page.offset, len);
      mirror_pages_.erase(it);
      return std::nullopt;
    }
    page.len = static_cast<std::uint32_t>(len);
    page.leaf_version = leaf.version;
    page.epoch = epoch;
    ++stats_.scan_leaf_refreshes;
    cost += cfg_.cpu.leaf_refresh;
  }

  proto::ScanLeafHint hint;
  hint.node = node_;
  hint.rkey = leaf_mr_->rkey();
  hint.offset = page.offset;
  hint.len = page.len;
  hint.leaf_id = leaf.id;
  hint.leaf_version = leaf.version;
  return hint;
}

void Shard::release_mirror_page(std::uint64_t offset, std::uint32_t len) {
  index::poison_leaf_page({leaf_arena_->at(offset), len});
  leaf_arena_->deallocate(offset, len);
}

void Shard::send_response(const proto::Response& resp, const Reply& to) {
  Connection& conn = conns_[to.conn_idx];
  // Requests answer into their *endpoint's* private response ring; the
  // group QP carries the answer. If the group died while the request was
  // executing, drop the response -- the endpoint retransmits through a
  // fresh channel and the (idempotent-at-the-client) retry re-answers.
  if (conn.closed || to.endpoint >= endpoints_.size() || !endpoints_[to.endpoint].active) {
    return;
  }
  const MuxEndpoint& ep = endpoints_[to.endpoint];
  auto payload = proto::encode_response(resp);
  if (proto::frame_size(payload.size()) > ep.resp_bytes) {
    // Response exceeds the client's slot (value too large for the
    // configured slot size): degrade to an error the client can act on.
    proto::Response err;
    err.req_id = resp.req_id;
    err.status = Status::kInvalidArgument;
    payload = proto::encode_response(err);
  }
  std::vector<std::byte> frame(proto::frame_size(payload.size()));
  proto::encode_frame(frame, payload);
  if (conn.two_sided) {
    conn.qp->post_send(frame);
  } else {
    // The response lands in the resp-ring slot the envelope named, which is
    // exactly what releases that slot pair for reuse at the client.
    const fabric::RemoteAddr dst{
        ep.resp_addr.rkey, ep.resp_addr.offset + proto::ring_slot_offset(to.slot, ep.resp_bytes)};
    conn.qp->post_write(frame, dst, 0, nullptr, to.batched);
  }
  ++stats_.responses;
  if (to.batched) ++stats_.batched_responses;
}

// --- hot-key replication plane (DESIGN.md §12) -----------------------------

void Shard::hotkey_note_get(const std::string& key, std::uint64_t version,
                            proto::Response& resp) {
  // Lazy epoch demotion: a routing-epoch advance (a promotion elsewhere, a
  // migration commit) retires every advertisement minted under the old
  // ownership map before anything else is advertised under the new one.
  if (epoch_source_) {
    const std::uint64_t e = epoch_source_();
    if (e != hotkey_epoch_seen_) {
      hotkey_epoch_seen_ = e;
      demote_all(/*reason=*/1);
    }
  }
  hotkey_->record(key);
  if (!hotkey_scan_armed_) {
    hotkey_scan_armed_ = true;
    schedule_after(cfg_.hotkey_scan_interval, [this] { hotkey_scan(); });
  }
  if (!cfg_.grant_remote_pointers) return;
  const auto it = promotions_.find(key);
  if (it == promotions_.end() || !it->second->live || it->second->version != version) return;
  resp.replicas = it->second->replicas;
  ++stats_.hotkey_advertised;
}

void Shard::hotkey_scan() {
  hotkey_scan_armed_ = false;
  if (epoch_source_) {
    const std::uint64_t e = epoch_source_();
    if (e != hotkey_epoch_seen_) {
      hotkey_epoch_seen_ = e;
      demote_all(/*reason=*/1);
    }
  }
  const bool had_traffic = hotkey_->total() > 0;
  const auto top = hotkey_->top(cfg_.hotkey_top_k, cfg_.hotkey_promote_min_hits);
  hotkey_->clear();

  // Demote promotions that cooled off this interval: stop advertising,
  // poison the copies, then free their slots. The kill is not optional:
  // clients hold the advertisement until their lease runs out, so after a
  // kill-free demotion a write would find no promotion to invalidate and
  // ack while a straggler still reads the superseded value off a follower.
  std::vector<std::shared_ptr<Promotion>> cooled;
  for (const auto& [key, p] : promotions_) {
    bool still_hot = false;
    for (const auto& e : top) {
      if (e.key == key) {
        still_hot = true;
        break;
      }
    }
    if (!still_hot) cooled.push_back(p);
  }
  for (const auto& p : cooled) retire_promotion(p, /*reason=*/2);

  for (const auto& e : top) {
    if (promotions_.count(e.key) != 0) continue;
    promote_key(e.key);
  }

  if (had_traffic || !promotions_.empty()) {
    hotkey_scan_armed_ = true;
    schedule_after(cfg_.hotkey_scan_interval, [this] { hotkey_scan(); });
  }
}

void Shard::promote_key(const std::string& key) {
  if (replicator_ == nullptr) return;
  // Claim a slab slot (same index on every follower).
  std::uint32_t slot;
  if (!free_promo_slots_.empty()) {
    slot = free_promo_slots_.back();
    free_promo_slots_.pop_back();
  } else if (promo_slots_used_ < cfg_.hotkey_top_k) {
    slot = promo_slots_used_++;
  } else {
    return;  // slab full; retry next interval once something demotes
  }
  auto reclaim = [this, slot] { free_promo_slots_.push_back(slot); };

  auto r = store_->get(key, now(), /*grant_lease=*/false);
  if (!r.ok()) {
    reclaim();
    return;
  }
  const core::GetView& view = r.value();
  const std::size_t len = core::item_size(key.size(), view.value.size());
  if (len > kHotKeySlotBytes) {
    reclaim();
    return;  // item does not fit a slab slot; never promotable
  }

  auto p = std::make_shared<Promotion>();
  p->key = key;
  p->key_hash = hash_key(key);
  p->slot = slot;
  p->version = view.version;
  p->image.assign(len, std::byte{0});
  core::ItemView(p->image.data())
      .initialize(key, view.value, view.version, view.lease_expiry);

  replicator_->for_each_live_link(
      [&](replication::SecondaryShard& sec, fabric::QueuePair& qp) {
        if (p->targets.size() >= proto::kMaxReplicaPtrs) return;
        fabric::MemoryRegion* mr =
            sec.promo_slab(kHotKeySlotBytes, cfg_.hotkey_top_k);
        Promotion::Target t;
        t.sec = &sec;
        t.qp = &qp;
        t.node = sec.node();
        t.rkey = mr->rkey();
        t.offset = static_cast<std::uint64_t>(slot) * kHotKeySlotBytes;
        p->targets.push_back(t);
      });
  if (p->targets.empty()) {
    reclaim();
    return;  // no live followers to host a copy
  }

  promotions_.emplace(key, p);
  for (const auto& t : p->targets) {
    ++p->pending;
    t.qp->post_write(
        p->image, fabric::RemoteAddr{t.rkey, t.offset}, 0,
        guard([this, p](const fabric::Completion& wc) {
          if (wc.status != fabric::WcStatus::kSuccess) {
            // Follower died (or its channel tore) mid-copy: abort the whole
            // promotion -- a partial copy set must never be advertised.
            if (!p->retired) retire_promotion(p, /*reason=*/2);
            promotion_op_done(p);
            return;
          }
          promotion_op_done(p);
          if (p->retired || p->pending != 0 || p->live) return;
          // Every copy landed: go live and start advertising.
          p->live = true;
          p->replicas.reserve(p->targets.size());
          for (const auto& tgt : p->targets) {
            proto::ReplicaPtr rp;
            rp.node = tgt.node;
            rp.rkey = tgt.rkey;
            rp.offset = tgt.offset;
            rp.total_len = static_cast<std::uint32_t>(p->image.size());
            p->replicas.push_back(rp);
          }
          ++stats_.hotkey_promotions;
          if (fabric_.obs() != nullptr) {
            fabric_.obs()->trace(now(), node_, obs::TraceKind::kHotKeyPromoted, cfg_.id,
                                 p->key_hash, p->replicas.size());
          }
        }));
  }
}

void Shard::withdraw_promotions(std::uint64_t reason) {
  // A promotion already retired traced its own demotion.
  for (const auto& [key, p] : promotions_) mark_retired(*p, reason);
  promotions_.clear();
}

void Shard::demote_all(std::uint64_t reason) {
  std::vector<std::shared_ptr<Promotion>> all;
  all.reserve(promotions_.size());
  for (const auto& [key, p] : promotions_) all.push_back(p);
  for (const auto& p : all) retire_promotion(p, reason);
}

bool Shard::mark_retired(Promotion& p, std::uint64_t reason) {
  if (p.retired) return false;
  p.retired = true;
  p.live = false;
  ++stats_.hotkey_demotions;
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kHotKeyDemoted, cfg_.id, p.key_hash,
                         reason);
  }
  return true;
}

void Shard::retire_promotion(const std::shared_ptr<Promotion>& p, std::uint64_t reason) {
  if (!mark_retired(*p, reason)) return;
  if (!p->targets.empty()) {
    // Clients keep the advertisement until their lease expires, so the
    // copies must fail closed before the slot can be reused -- otherwise a
    // post-demotion write finds no promotion to invalidate and acks while a
    // follower still serves the superseded value. That holds for copies
    // never advertised too (still in flight, or aborted): a copy lands
    // alive, and clients may hold an older advertisement of the same key
    // for the same slot. Kills ride the copies' QPs, so they land after
    // them. The promotion stays in promotions_ (dying, never advertised
    // again) until the last kill drains through promotion_op_done, so a
    // racing write can still find it and join the kill barrier.
    post_promotion_kills(p, [] {});
    return;
  }
  if (p->pending == 0) release_promo_slot(p);
}

std::shared_ptr<Shard::Promotion> Shard::take_promotion_for_write(const std::string& key) {
  const auto it = promotions_.find(key);
  if (it == promotions_.end()) return nullptr;
  std::shared_ptr<Promotion> p = it->second;
  // A promotion a cooldown/epoch demotion already retired has guardian
  // kills still in flight. The write still must not ack before the copies
  // are dead: the caller posts one more (idempotent) kill per target, whose
  // completion orders after the in-flight one on the same QP.
  const bool fresh = mark_retired(*p, /*reason=*/0);
  if (p->targets.empty()) {
    if (fresh && p->pending == 0) release_promo_slot(p);
    return nullptr;
  }
  // Live or not, a copy may sit alive in a slot some client holds an
  // advertisement for (an earlier promotion of this key used the same
  // slot), so its kill gates the ack either way.
  return p;  // caller posts guardian kills before acking
}

void Shard::post_promotion_kills(const std::shared_ptr<Promotion>& p,
                                 const std::function<void()>& settle) {
  for (std::size_t i = 0; i < p->targets.size(); ++i) {
    ++p->pending;
    ++stats_.hotkey_invalidations;
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kHotKeyInvalidated, cfg_.id,
                           p->key_hash, p->targets[i].node);
    }
    post_one_kill(p, i, 1, settle);
  }
}

void Shard::post_one_kill(const std::shared_ptr<Promotion>& p, std::size_t target_idx,
                          int attempt, std::function<void()> settle) {
  constexpr int kMaxKillAttempts = 8;
  const Promotion::Target& t = p->targets[target_idx];
  // The guardian word lives in the image's last 8 bytes; flipping it to
  // DEAD makes every client-side validate_item() of the copy fail closed.
  const fabric::RemoteAddr dst{t.rkey,
                               t.offset + p->image.size() - sizeof(std::uint64_t)};
  t.qp->post_write(
      dead_word_, dst, 0,
      guard([this, p, target_idx, attempt,
             settle = std::move(settle)](const fabric::Completion& wc) mutable {
        const Promotion::Target& tgt = p->targets[target_idx];
        const bool follower_dead = tgt.sec == nullptr || !tgt.sec->alive();
        if (wc.status == fabric::WcStatus::kSuccess || follower_dead ||
            attempt >= kMaxKillAttempts) {
          // Success, or the follower is a corpse (its promo slab's
          // registration is revoked, so any client read faults instead of
          // returning the copy -- the invalidation goal holds vacuously).
          if (wc.status != fabric::WcStatus::kSuccess && !follower_dead &&
              attempt >= kMaxKillAttempts) {
            HYDRA_WARN("hotkey: guardian kill refused to land after %d attempts "
                       "(status %d) toward node %llu",
                       attempt, static_cast<int>(wc.status),
                       static_cast<unsigned long long>(tgt.node));
          }
          settle();
          promotion_op_done(p);
          return;
        }
        post_one_kill(p, target_idx, attempt + 1, std::move(settle));
      }));
}

void Shard::promotion_op_done(const std::shared_ptr<Promotion>& p) {
  if (p->pending > 0) --p->pending;
  if (p->retired && p->pending == 0) release_promo_slot(p);
}

void Shard::release_promo_slot(const std::shared_ptr<Promotion>& p) {
  if (p->slot_released) return;
  p->slot_released = true;
  free_promo_slots_.push_back(p->slot);
  // Dying promotions linger in the map until their kills drain (so racing
  // writes can join the kill barrier); drop the entry now that it is inert.
  const auto it = promotions_.find(p->key);
  if (it != promotions_.end() && it->second == p) promotions_.erase(it);
}

void Shard::schedule_gc() {
  if (gc_scheduled_ || store_->deferred_count() == 0) return;
  gc_scheduled_ = true;
  const Time due = std::max<Time>(store_->next_reclaim_due(), now() + cfg_.gc_min_interval);
  schedule_at(due, [this] {
    // Background reclamation: on real hardware this is a helper thread;
    // here it costs the shard nothing on the request path (paper 4.2.3).
    store_->collect_garbage(now());
    gc_scheduled_ = false;
    schedule_gc();
  });
}

}  // namespace hydra::server
