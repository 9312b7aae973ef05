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

Shard::Shard(sim::Scheduler& sched, fabric::Fabric& fabric, NodeId node,
             ShardConfig cfg, std::unique_ptr<core::KVStore> existing_store)
    : sim::Actor(sched, "shard-" + std::to_string(cfg.id)),
      fabric_(fabric),
      node_(node),
      cfg_(cfg),
      store_(existing_store ? std::move(existing_store)
                            : std::make_unique<core::KVStore>(cfg.store)),
      msg_region_(static_cast<std::size_t>(cfg.max_connections) * cfg.ring_slots *
                  cfg.msg_slot_bytes) {
  // One region spans every item: this is what remote pointers point into.
  arena_mr_ = fabric_.node(node_).register_memory(store_->arena().bytes());
  msg_mr_ = fabric_.node(node_).register_memory(msg_region_.bytes());
  msg_mr_->set_write_hook(
      guard([this](std::uint64_t offset, std::uint32_t) { on_request_write(offset); }));
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
  if (cfg_.scan_mirror_pages > 0 && store_->config().ordered_index) {
    // One-sided scan-leaf mirror (DESIGN.md §13). Gated on the ordered
    // index so index-off runs perform exactly the seed's registrations --
    // rkey assignment and event histories stay byte-identical (same
    // contract as txn_lock_words above).
    leaf_region_ = fabric::RegisteredBuffer(static_cast<std::size_t>(cfg_.scan_mirror_pages) *
                                            cfg_.scan_mirror_page_bytes);
    leaf_mr_ = fabric_.node(node_).register_memory(leaf_region_.bytes());
    mirror_slots_.resize(cfg_.scan_mirror_pages);
  }
}

void Shard::kill() {
  // Process death deregisters its regions: in-flight client writes and
  // RDMA reads fail with protection errors rather than touching a corpse.
  msg_mr_->revoke();
  arena_mr_->revoke();
  if (lock_mr_ != nullptr) lock_mr_->revoke();
  if (leaf_mr_ != nullptr) leaf_mr_->revoke();
  for (Connection& conn : conns_) {
    if (conn.mux && conn.ring_mr != nullptr && !conn.closed) conn.ring_mr->revoke();
  }
  sim::Actor::kill();
}

Shard::AcceptResult Shard::accept(fabric::QueuePair* server_qp,
                                  fabric::RemoteAddr client_resp_slot,
                                  std::uint32_t client_resp_bytes, ClientId client,
                                  std::uint32_t window) {
  if (block_to_conn_.size() >= cfg_.max_connections) return {};
  const auto idx = static_cast<std::uint32_t>(conns_.size());
  const auto block = static_cast<std::uint32_t>(block_to_conn_.size());
  Connection conn;
  conn.qp = server_qp;
  conn.resp_addr = client_resp_slot;
  conn.resp_bytes = client_resp_bytes;
  conn.window = std::clamp<std::uint32_t>(window, 1, cfg_.ring_slots);
  conn.client = client;
  conn.region_block = block;
  conns_.push_back(std::move(conn));
  block_to_conn_.push_back(idx);
  dirty_.add_endpoint();
  AcceptResult res;
  res.req_slot =
      fabric::RemoteAddr{msg_mr_->rkey(), static_cast<std::uint64_t>(block) * conn_stride()};
  res.slot_bytes = cfg_.msg_slot_bytes;
  res.arena_rkey = arena_mr_->rkey();
  res.window = conns_.back().window;
  res.lock_rkey = lock_rkey();
  res.lock_words = lock_word_count();
  res.ok = true;
  return res;
}

Shard::AcceptResult Shard::accept_send_recv(fabric::QueuePair* server_qp, ClientId client) {
  if (block_to_conn_.size() >= cfg_.max_connections) return {};
  const auto idx = static_cast<std::uint32_t>(conns_.size());
  Connection conn;
  conn.qp = server_qp;
  conn.client = client;
  conn.send_recv = true;
  conn.region_block = static_cast<std::uint32_t>(block_to_conn_.size());
  conn.recv_bufs.resize(8, std::vector<std::byte>(cfg_.msg_slot_bytes));
  conns_.push_back(std::move(conn));
  block_to_conn_.push_back(idx);
  dirty_.add_endpoint();
  Connection& c = conns_.back();
  for (std::size_t i = 0; i < c.recv_bufs.size(); ++i) c.qp->post_recv(c.recv_bufs[i], i);
  c.qp->set_recv_handler(guard([this, idx](const fabric::Completion& wc,
                                           std::span<std::byte> data) {
    auto req = proto::decode_request(data.subspan(0, wc.byte_len));
    // Hand the buffer back to the QP immediately (flow control like real
    // verbs apps that repost inside the completion handler).
    Connection& conn = conns_[idx];
    conn.qp->post_recv(conn.recv_bufs[wc.wr_id], wc.wr_id);
    if (!req.has_value()) {
      ++stats_.malformed;
      return;
    }
    sr_pending_.emplace_back(std::move(*req), idx);
    wake();
  }));
  AcceptResult res;
  res.arena_rkey = arena_mr_->rkey();
  res.slot_bytes = cfg_.msg_slot_bytes;
  res.ok = true;
  return res;
}

Shard::MuxGroupResult Shard::accept_mux_group(fabric::QueuePair* qp) {
  // Shared channels pass the same admission gate as dedicated connections:
  // one live group per client node, never unbounded growth across the
  // failure/reopen cycles the chaos families drive.
  if (block_to_conn_.size() + live_mux_groups_ >= cfg_.max_connections) return {};
  std::uint32_t idx;
  if (!free_mux_groups_.empty()) {
    // Reuse a closed group's conns_ slot: same ring bytes, but a *fresh*
    // registration (new rkey), so straggler writes addressed to the dead
    // incarnation still fault on its revoked region.
    idx = free_mux_groups_.back();
    free_mux_groups_.pop_back();
    Connection& c = conns_[idx];
    c.qp = qp;
    c.closed = false;
    c.ring.zero(0, c.ring.size());
    dirty_.reactivate(idx);
  } else {
    idx = static_cast<std::uint32_t>(conns_.size());
    Connection conn;
    conn.qp = qp;
    conn.mux = true;
    conn.ring_slots = std::max<std::uint32_t>(1, cfg_.mux_ring_slots);
    conn.ring = fabric::RegisteredBuffer(static_cast<std::size_t>(conn.ring_slots) *
                                         cfg_.msg_slot_bytes);
    conns_.push_back(std::move(conn));
    dirty_.add_endpoint();
  }
  ++live_mux_groups_;
  Connection& c = conns_[idx];
  c.ring_mr = fabric_.node(node_).register_memory(c.ring.bytes());
  c.ring_mr->set_write_hook(guard([this, idx](std::uint64_t, std::uint32_t) {
    if (dirty_.mark(idx)) wake();
  }));
  MuxGroupResult res;
  res.group = idx;
  res.req_ring = fabric::RemoteAddr{c.ring_mr->rkey(), 0};
  res.slot_bytes = cfg_.msg_slot_bytes;
  res.ring_slots = c.ring_slots;
  res.arena_rkey = arena_mr_->rkey();
  res.lock_rkey = lock_rkey();
  res.lock_words = lock_word_count();
  res.ok = true;
  return res;
}

Shard::MuxEndpointResult Shard::accept_mux_endpoint(std::uint32_t group,
                                                    fabric::RemoteAddr client_resp_slot,
                                                    std::uint32_t client_resp_bytes,
                                                    ClientId client, std::uint32_t window) {
  if (group >= conns_.size() || !conns_[group].mux || conns_[group].closed) return {};
  // Live-endpoint admission bound: a runaway (re)registration loop must not
  // grow the table without limit. Deactivated slots below do not count.
  if (endpoints_.size() - free_endpoints_.size() >= cfg_.max_mux_endpoints) return {};
  MuxEndpoint ep;
  ep.group = group;
  ep.resp_addr = client_resp_slot;
  ep.resp_bytes = client_resp_bytes;
  // An endpoint can never hold more slots than the shared ring has.
  ep.window = std::clamp<std::uint32_t>(window, 1, conns_[group].ring_slots);
  ep.client = client;
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
  if (group >= conns_.size() || !conns_[group].mux || conns_[group].closed) return;
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
  if (live_mux_groups_ > 0) --live_mux_groups_;
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

void Shard::on_request_write(std::uint64_t offset) {
  const auto block = static_cast<std::uint32_t>(offset / conn_stride());
  if (block >= block_to_conn_.size()) return;
  if (dirty_.mark(block_to_conn_[block])) wake();
}

void Shard::wake() {
  if (busy_) return;
  busy_ = true;
  // The paper's loop sleeps 100ns between empty scans; a fresh arrival is
  // therefore noticed after at most one backoff.
  schedule_after(cfg_.cpu.idle_backoff, [this] { process_loop(); });
}

void Shard::process_loop() {
  // Send/Recv mode: decoded requests queue up from completion handlers.
  if (!sr_pending_.empty()) {
    auto [req, idx] = std::move(sr_pending_.front());
    sr_pending_.pop_front();
    handle(std::move(req), idx, 0, cfg_.cpu.poll_scan, /*batched=*/false);
    return;
  }
  // Requests an earlier sweep already decoded execute before new polling.
  if (!ready_.empty()) {
    ReadyReq r = std::move(ready_.front());
    ready_.pop_front();
    handle(std::move(r.req), r.conn_idx, r.slot, 0, r.batched, r.endpoint);
    return;
  }
  // Polling mode: round-robin over connections whose rings saw a write;
  // a dirty connection has all of its occupied slots drained in one sweep.
  // The scheduler pops exactly the endpoints that saw traffic, so this is
  // O(active) per wakeup no matter how many connections are registered.
  Duration scan_cost = 0;
  while (!dirty_.empty()) {
    const std::uint32_t idx = dirty_.pop();
    scan_cost += cfg_.cpu.poll_scan;
    sweep_connection(idx);
    if (!ready_.empty()) {
      ReadyReq r = std::move(ready_.front());
      ready_.pop_front();
      handle(std::move(r.req), r.conn_idx, r.slot, scan_cost, r.batched, r.endpoint);
      return;
    }
  }
  charge(scan_cost);
  busy_ = false;  // idle; the write hook re-arms us
}

void Shard::sweep_connection(std::uint32_t idx) {
  if (conns_[idx].mux) {
    sweep_mux_group(idx);
    return;
  }
  const Connection& conn = conns_[idx];
  bool first_in_sweep = true;
  std::uint32_t decoded = 0;
  for (std::uint32_t slot = 0; slot < conn.window; ++slot) {
    const auto span = slot_span(conn.region_block, slot);
    switch (proto::probe_frame(span)) {
      case proto::FrameState::kEmpty:
      case proto::FrameState::kPartial:  // still landing; redirtied on commit
        continue;
      case proto::FrameState::kMalformed:
        // Torn or garbage bytes: scrub the whole slot so the ring does not
        // wedge on a head word that lies about its size.
        ++stats_.malformed;
        msg_region_.zero(static_cast<std::size_t>(span.data() - msg_region_.data()),
                         span.size());
        continue;
      case proto::FrameState::kReady:
        break;
    }
    auto req = proto::decode_request(proto::frame_payload(span));
    proto::clear_frame(span);
    if (!req.has_value()) {
      ++stats_.malformed;
      continue;
    }
    ready_.push_back(ReadyReq{std::move(*req), idx, slot, !first_in_sweep});
    first_in_sweep = false;
    ++decoded;
  }
  if (decoded > 0 && fabric_.obs() != nullptr) {
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kRingSweep, cfg_.id, decoded, idx);
  }
}

void Shard::sweep_mux_group(std::uint32_t idx) {
  Connection& conn = conns_[idx];
  if (conn.closed) return;
  bool first_in_sweep = true;
  std::uint32_t decoded = 0;
  std::uint32_t occupied = 0;  // SRQ depth at sweep time (ready + landing)
  for (std::uint32_t slot = 0; slot < conn.ring_slots; ++slot) {
    const auto span = mux_slot_span(conn, slot);
    switch (proto::probe_frame(span)) {
      case proto::FrameState::kEmpty:
        continue;
      case proto::FrameState::kPartial:  // still landing; redirtied on commit
        ++occupied;
        continue;
      case proto::FrameState::kMalformed:
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
    ready_.push_back(ReadyReq{std::move(*req), idx, hdr->resp_slot, !first_in_sweep,
                              hdr->endpoint});
    first_in_sweep = false;
    ++decoded;
    ++stats_.mux_requests;
  }
  if (fabric_.obs() != nullptr) {
    if (decoded > 0) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kRingSweep, cfg_.id, decoded, idx);
    }
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kSrqDepth, cfg_.id, occupied, idx);
  }
}

void Shard::handle(proto::Request req, std::uint32_t conn_idx, std::uint32_t slot,
                   Duration cost_so_far, bool batched, std::uint32_t endpoint) {
  if (req.type == proto::MsgType::kScan) {
    // Scans dispatch before the per-key owner filter: the request's key is a
    // range position, not an owned key, and the handler runs its own epoch
    // fence against the continuation token.
    handle_scan(std::move(req), conn_idx, slot, cost_so_far, batched, endpoint);
    return;
  }
  const CpuModel& cpu = cfg_.cpu;
  proto::Response resp;
  resp.req_id = req.req_id;
  Duration cost = cost_so_far;
  bool replicate = false;

  const std::uint64_t key_hash =
      (owner_filter_ || migration_forward_) ? hash_key(req.key) : 0;
  if (owner_filter_ && !owner_filter_(key_hash)) {
    // Epoch fencing: this shard no longer (or does not yet) own the key's
    // range. Answer without touching the store -- serving the request would
    // split ownership with the range's new home.
    ++stats_.wrong_owner;
    resp.status = Status::kWrongOwner;
    cost += batched ? cpu.post_response_batched : cpu.post_response;
    charge(cost);
    schedule_after(cost, [this, resp = std::move(resp), conn_idx, slot, batched, endpoint] {
      send_response(resp, conn_idx, slot, batched, endpoint);
      process_loop();
    });
    return;
  }

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
        if (cfg_.grant_remote_pointers) {
          resp.remote_ptr.rkey = arena_mr_->rkey();
          resp.remote_ptr.offset = view.offset;
          resp.remote_ptr.total_len = view.total_len;
          resp.remote_ptr.lease_expiry = view.lease_expiry;
          resp.remote_ptr.version = view.version;
          resp.remote_ptr.shard = cfg_.id;
        }
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
      if (req.type == proto::MsgType::kInsert) {
        resp.status = store_->insert(req.key, req.value, now());
      } else if (req.type == proto::MsgType::kUpdate) {
        resp.status = store_->update(req.key, req.value, now());
      } else {
        resp.status = store_->put(req.key, req.value, now());
      }
      replicate = resp.status == Status::kOk;
      ++stats_.puts;
      break;
    }
    case proto::MsgType::kRemove: {
      cost += cpu.base_remove;
      resp.status = store_->remove(req.key, now());
      replicate = resp.status == Status::kOk;
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
          resp.remote_ptr.rkey = arena_mr_->rkey();
          resp.remote_ptr.offset = r.value().offset;
          resp.remote_ptr.total_len = r.value().total_len;
          resp.remote_ptr.lease_expiry = r.value().lease_expiry;
          resp.remote_ptr.version = r.value().version;
          resp.remote_ptr.shard = cfg_.id;
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
      // own handler (which also owns the replication barrier).
      handle_txn_commit(std::move(req), conn_idx, slot, cost, batched, endpoint);
      return;
    default:
      ++stats_.malformed;
      resp.status = Status::kInvalidArgument;
      break;
  }

  cost += batched ? cpu.post_response_batched : cpu.post_response;
  schedule_gc();

  if (replicate && migration_forward_ && forward_moving_(key_hash)) {
    // Dual ownership: the write landed in a range currently being migrated
    // away, so it also rides the migration flow's record ring. Copied
    // before the replicator below moves the key/value out of the request.
    proto::RepRecord fwd;
    fwd.op = req.type == proto::MsgType::kRemove ? proto::MsgType::kRemove
                                                 : proto::MsgType::kPut;
    fwd.op_time = now();
    fwd.key = req.key;
    fwd.value = req.value;
    ++stats_.forwarded;
    migration_forward_(key_hash, std::move(fwd));
  }

  // Hot-key invalidation: a write to a promoted key must flip every follower
  // copy's guardian to DEAD *before* the ack leaves, or a client could read
  // the superseded value from a follower after observing the write
  // acknowledged. The kill completions therefore join the ack barrier.
  std::shared_ptr<Promotion> promo;
  if (hotkey_ != nullptr && replicate) promo = take_promotion_for_write(req.key);
  const int kills = promo != nullptr ? static_cast<int>(promo->targets.size()) : 0;

  if (replicate && replicator_ != nullptr && replicator_->secondary_count() > 0) {
    cost += replicator_->post_cost();
    proto::RepRecord rec;
    rec.op = req.type == proto::MsgType::kRemove ? proto::MsgType::kRemove : proto::MsgType::kPut;
    rec.op_time = now();
    rec.key = std::move(req.key);
    rec.value = std::move(req.value);

    // The response leaves once BOTH the shard's CPU work is done and the
    // replication policy is satisfied. Under the relaxed log protocol the
    // shard polls the next request as soon as the records are posted (the
    // overlap Fig 13 credits); the conventional strict protocol serializes:
    // the shard cannot move on until the secondary acknowledged.
    const bool blocking =
        replicator_->config().mode == replication::ReplicationMode::kStrictAck;
    auto barrier = std::make_shared<int>(2 + kills);
    std::function<void()> arm =
        guard([this, resp, conn_idx, slot, batched, endpoint, barrier, blocking] {
          if (--*barrier > 0) return;
          send_response(resp, conn_idx, slot, batched, endpoint);
          if (blocking) process_loop();
        });
    if (promo != nullptr) post_promotion_kills(promo, arm);
    replicator_->replicate(std::move(rec), arm);
    charge(cost);
    schedule_after(cost, [this, arm, blocking] {
      arm();
      if (!blocking) process_loop();
    });
    return;
  }

  if (kills > 0) {
    // No replication stream to wait on, but the advertised copies still
    // must die before the ack: same barrier shape, CPU + kill completions.
    auto barrier = std::make_shared<int>(1 + kills);
    std::function<void()> arm =
        guard([this, resp, conn_idx, slot, batched, endpoint, barrier] {
          if (--*barrier > 0) return;
          send_response(resp, conn_idx, slot, batched, endpoint);
        });
    post_promotion_kills(promo, arm);
    charge(cost);
    schedule_after(cost, [this, arm] {
      arm();
      process_loop();
    });
    return;
  }

  charge(cost);
  schedule_after(cost, [this, resp = std::move(resp), conn_idx, slot, batched, endpoint] {
    send_response(resp, conn_idx, slot, batched, endpoint);
    process_loop();
  });
}

void Shard::handle_txn_commit(proto::Request req, std::uint32_t conn_idx, std::uint32_t slot,
                              Duration cost, bool batched, std::uint32_t endpoint) {
  const CpuModel& cpu = cfg_.cpu;
  proto::Response resp;
  resp.req_id = req.req_id;
  cost += cpu.base_txn_commit;

  auto respond = [this, conn_idx, slot, batched, endpoint](proto::Response r, Duration c) {
    charge(c);
    schedule_after(c, [this, r = std::move(r), conn_idx, slot, batched, endpoint] {
      send_response(r, conn_idx, slot, batched, endpoint);
      process_loop();
    });
  };

  const auto* value_bytes = reinterpret_cast<const std::byte*>(req.value.data());
  auto txn = proto::decode_txn_commit({value_bytes, req.value.size()});
  if (!txn.has_value() || txn->ops.empty() || lock_mr_ == nullptr) {
    // Garbage payload, an empty group, or a commit aimed at a shard that
    // never provisioned lock words: refuse before touching anything.
    ++stats_.malformed;
    resp.status = Status::kInvalidArgument;
    cost += batched ? cpu.post_response_batched : cpu.post_response;
    respond(std::move(resp), cost);
    return;
  }

  const std::uint64_t txn_id = txn->hdr.txn_id;
  auto reject = [&](Status why) {
    if (why == Status::kWrongOwner) {
      ++stats_.wrong_owner;
    } else {
      ++stats_.txn_conflicts;
    }
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kTxnCommitRejected, cfg_.id, txn_id,
                           static_cast<std::uint64_t>(why));
    }
    resp.status = why;
    cost += batched ? cpu.post_response_batched : cpu.post_response;
    respond(std::move(resp), cost);
  };

  // Validation order: epoch fence first (a promotion/migration the client
  // has not seen invalidates its whole lock set), then per-key ownership,
  // then every lock word. Nothing applies unless all three pass for the
  // entire group -- the all-or-nothing half of the invariant.
  if (epoch_source_ && txn->hdr.epoch != epoch_source_()) {
    reject(Status::kTxnConflict);
    return;
  }
  std::vector<std::uint64_t> hashes;
  hashes.reserve(txn->ops.size());
  for (const auto& op : txn->ops) hashes.push_back(hash_key(op.key));
  if (owner_filter_) {
    for (const std::uint64_t h : hashes) {
      if (!owner_filter_(h)) {
        reject(Status::kWrongOwner);
        return;
      }
    }
  }
  const std::uint64_t held = std::uint64_t{1} << 63;
  for (const std::uint64_t h : hashes) {
    const auto widx = static_cast<std::uint32_t>(h % cfg_.txn_lock_words);
    if (lock_word(widx) != (held | txn_id)) {
      reject(Status::kTxnConflict);
      return;
    }
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
  undo.reserve(txn->ops.size());
  Status fail = Status::kOk;
  for (const auto& op : txn->ops) {
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
      fail = st;
      break;
    }
    undo.push_back(std::move(u));
  }
  if (fail != Status::kOk) {
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      if (it->existed) {
        store_->put(it->key, it->old_value, now());
      } else {
        store_->remove(it->key, now());
      }
    }
    reject(fail);
    return;
  }

  ++stats_.txn_commits;
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kTxnCommitApplied, cfg_.id, txn_id,
                         txn->ops.size());
  }
  resp.status = Status::kOk;
  cost += batched ? cpu.post_response_batched : cpu.post_response;
  schedule_gc();

  // Dual-ownership catch-up, per op, exactly as the single-key PUT path.
  if (migration_forward_) {
    for (std::size_t i = 0; i < txn->ops.size(); ++i) {
      if (!forward_moving_(hashes[i])) continue;
      proto::RepRecord fwd;
      fwd.op = txn->ops[i].op == proto::MsgType::kRemove ? proto::MsgType::kRemove
                                                         : proto::MsgType::kPut;
      fwd.op_time = now();
      fwd.key = txn->ops[i].key;
      fwd.value = txn->ops[i].value;
      ++stats_.forwarded;
      migration_forward_(hashes[i], std::move(fwd));
    }
  }

  // Hot-key invalidation across the whole group: every promoted key the
  // commit touched loses its follower copies before the commit ack leaves
  // (same pre-ack guardian-kill rule as the single-key write path).
  std::vector<std::shared_ptr<Promotion>> promos;
  int kills = 0;
  if (hotkey_ != nullptr) {
    for (const auto& op : txn->ops) {
      if (auto p = take_promotion_for_write(op.key)) {
        kills += static_cast<int>(p->targets.size());
        promos.push_back(std::move(p));
      }
    }
  }

  if (replicator_ != nullptr && replicator_->secondary_count() > 0) {
    // Every op of the group rides the replication ring before the ack
    // leaves (group-sized barrier): an acked commit therefore survives a
    // primary kill in its entirety, never as a partial group.
    cost += replicator_->post_cost() * txn->ops.size();
    const bool blocking =
        replicator_->config().mode == replication::ReplicationMode::kStrictAck;
    auto barrier = std::make_shared<int>(static_cast<int>(txn->ops.size()) + 1 + kills);
    std::function<void()> arm =
        guard([this, resp, conn_idx, slot, batched, endpoint, barrier, blocking] {
          if (--*barrier > 0) return;
          send_response(resp, conn_idx, slot, batched, endpoint);
          if (blocking) process_loop();
        });
    for (const auto& p : promos) post_promotion_kills(p, arm);
    for (auto& op : txn->ops) {
      proto::RepRecord rec;
      rec.op = op.op == proto::MsgType::kRemove ? proto::MsgType::kRemove : proto::MsgType::kPut;
      rec.op_time = now();
      rec.key = std::move(op.key);
      rec.value = std::move(op.value);
      replicator_->replicate(std::move(rec), arm);
    }
    charge(cost);
    schedule_after(cost, [this, arm, blocking] {
      arm();
      if (!blocking) process_loop();
    });
    return;
  }

  if (kills > 0) {
    auto barrier = std::make_shared<int>(1 + kills);
    std::function<void()> arm =
        guard([this, resp, conn_idx, slot, batched, endpoint, barrier] {
          if (--*barrier > 0) return;
          send_response(resp, conn_idx, slot, batched, endpoint);
        });
    for (const auto& p : promos) post_promotion_kills(p, arm);
    charge(cost);
    schedule_after(cost, [this, arm] {
      arm();
      process_loop();
    });
    return;
  }

  respond(std::move(resp), cost);
}

void Shard::handle_scan(proto::Request req, std::uint32_t conn_idx, std::uint32_t slot,
                        Duration cost, bool batched, std::uint32_t endpoint) {
  const CpuModel& cpu = cfg_.cpu;
  proto::Response resp;
  resp.req_id = req.req_id;
  cost += cpu.base_scan;

  auto respond = [this, conn_idx, slot, batched, endpoint](proto::Response r, Duration c) {
    charge(c);
    schedule_after(c, [this, r = std::move(r), conn_idx, slot, batched, endpoint] {
      send_response(r, conn_idx, slot, batched, endpoint);
      process_loop();
    });
  };

  const auto* value_bytes = reinterpret_cast<const std::byte*>(req.value.data());
  const auto sreq = proto::decode_scan_req({value_bytes, req.value.size()});
  index::OrderedIndex* idx = store_->index();
  if (!sreq.has_value() || idx == nullptr) {
    // Garbage payload or a scan aimed at a shard without an ordered index:
    // refuse before touching anything (mirrors the kTxnCommit discipline).
    ++stats_.malformed;
    resp.status = Status::kInvalidArgument;
    cost += batched ? cpu.post_response_batched : cpu.post_response;
    respond(std::move(resp), cost);
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
    cost += batched ? cpu.post_response_batched : cpu.post_response;
    respond(std::move(resp), cost);
    return;
  }

  // The batch must fit the requester's response slot -- leave margin for the
  // response envelope + frame so send_response never degrades a scan.
  std::uint32_t resp_bytes = conns_[conn_idx].resp_bytes;
  if (endpoint != kNoEndpoint && endpoint < endpoints_.size()) {
    resp_bytes = endpoints_[endpoint].resp_bytes;
  }
  const std::size_t budget = resp_bytes > 192 ? resp_bytes - 192 : 0;
  const std::uint32_t limit =
      std::min(std::max<std::uint32_t>(sreq->limit, 1), cfg_.scan_max_batch);
  const bool exclusive = (sreq->flags & proto::kScanFlagExclusive) != 0;

  proto::ScanResp body;
  body.epoch = live_epoch;
  std::size_t bytes_used = 0;
  std::uint64_t payload_bytes = 0;
  bool more = false;
  idx->scan(req.key, exclusive, [&](std::string_view k, std::uint64_t off) {
    const std::string_view v = store_->value_at(off);
    const std::size_t entry_bytes = 8 + k.size() + v.size();
    // Always admit the first entry even past the byte budget: a zero-entry
    // not-done response would make the client re-issue the same token forever.
    if (body.entries.size() >= limit ||
        (!body.entries.empty() && bytes_used + entry_bytes > budget)) {
      more = true;
      return false;
    }
    body.entries.emplace_back(std::string(k), std::string(v));
    bytes_used += entry_bytes;
    payload_bytes += v.size();
    return true;
  });
  body.done = !more;
  cost += cpu.per_scan_entry * static_cast<Duration>(body.entries.size()) +
          static_cast<Duration>(cpu.per_value_byte * static_cast<double>(payload_bytes));

  // When the batch stops mid-range, hand the client a one-sided hint for the
  // leaf holding the continuation so short follow-ups can skip the shard CPU.
  if (!body.done && leaf_mr_ != nullptr && !body.entries.empty()) {
    if (auto leaf = idx->leaf_for(body.entries.back().first, /*exclusive=*/true)) {
      if (auto hint = refresh_leaf_mirror(*leaf, live_epoch, cost)) body.hint = *hint;
    }
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
  cost += batched ? cpu.post_response_batched : cpu.post_response;
  respond(std::move(resp), cost);
}

std::optional<proto::ScanLeafHint> Shard::refresh_leaf_mirror(
    const index::OrderedIndex::LeafRef& leaf, std::uint64_t epoch, Duration& cost) {
  if (leaf_mr_ == nullptr || mirror_slots_.empty()) return std::nullopt;
  std::vector<std::pair<std::string_view, std::string_view>> kv;
  kv.reserve(leaf.entries->size());
  for (const auto& e : *leaf.entries) kv.emplace_back(e.key, store_->value_at(e.offset));
  if (index::leaf_page_bytes(kv) > cfg_.scan_mirror_page_bytes) {
    ++stats_.scan_leaf_oversize;
    return std::nullopt;
  }

  std::uint32_t mslot;
  const auto it = mirror_slot_of_.find(leaf.id);
  if (it != mirror_slot_of_.end()) {
    mslot = it->second;
  } else {
    // Round-robin eviction keeps the mirror O(pages) regardless of tree size;
    // a stale victim page simply fails its version check client-side.
    mslot = mirror_clock_++ % static_cast<std::uint32_t>(mirror_slots_.size());
    if (mirror_slots_[mslot].used) mirror_slot_of_.erase(mirror_slots_[mslot].leaf_id);
    mirror_slot_of_[leaf.id] = mslot;
    mirror_slots_[mslot] = MirrorSlot{};
  }
  MirrorSlot& ms = mirror_slots_[mslot];
  if (!ms.used || ms.leaf_version != leaf.version || ms.epoch != epoch) {
    const std::size_t off =
        static_cast<std::size_t>(mslot) * cfg_.scan_mirror_page_bytes;
    std::span<std::byte> page{leaf_region_.data() + off, cfg_.scan_mirror_page_bytes};
    if (!index::encode_leaf_page(page, leaf.id, leaf.version, epoch, leaf.last, kv)) {
      return std::nullopt;
    }
    ms.used = true;
    ms.leaf_id = leaf.id;
    ms.leaf_version = leaf.version;
    ms.epoch = epoch;
    ++stats_.scan_leaf_refreshes;
    cost += cfg_.cpu.leaf_refresh;
  }

  proto::ScanLeafHint hint;
  hint.node = node_;
  hint.rkey = leaf_mr_->rkey();
  hint.offset = static_cast<std::uint64_t>(mslot) * cfg_.scan_mirror_page_bytes;
  hint.len = cfg_.scan_mirror_page_bytes;
  hint.leaf_id = leaf.id;
  hint.leaf_version = leaf.version;
  return hint;
}

void Shard::send_response(const proto::Response& resp, std::uint32_t conn_idx,
                          std::uint32_t slot, bool batched, std::uint32_t endpoint) {
  Connection& conn = conns_[conn_idx];
  // Mux requests answer into the *endpoint's* private response ring; the
  // shared group QP carries the write. If the group died while the request
  // was executing, drop the response -- the endpoint retransmits through a
  // fresh channel and the (idempotent-at-the-client) retry re-answers.
  fabric::RemoteAddr resp_base = conn.resp_addr;
  std::uint32_t resp_bytes = conn.resp_bytes;
  if (endpoint != kNoEndpoint) {
    if (conn.closed || endpoint >= endpoints_.size() || !endpoints_[endpoint].active) return;
    resp_base = endpoints_[endpoint].resp_addr;
    resp_bytes = endpoints_[endpoint].resp_bytes;
  }
  // The response lands in the resp-ring slot matching the request's slot,
  // which is exactly what releases that slot pair for reuse at the client.
  const fabric::RemoteAddr dst{resp_base.rkey,
                               resp_base.offset + proto::ring_slot_offset(slot, resp_bytes)};
  const auto payload = proto::encode_response(resp);
  if (conn.send_recv) {
    conn.qp->post_send(payload);
    ++stats_.responses;
    return;
  }
  const std::size_t framed = proto::frame_size(payload.size());
  if (framed > resp_bytes) {
    // Response exceeds the client's slot (value too large for the
    // configured slot size): degrade to an error the client can act on.
    proto::Response err;
    err.req_id = resp.req_id;
    err.status = Status::kInvalidArgument;
    const auto err_payload = proto::encode_response(err);
    std::vector<std::byte> frame(proto::frame_size(err_payload.size()));
    proto::encode_frame(frame, err_payload);
    conn.qp->post_write(frame, dst, 0, nullptr, batched);
    ++stats_.responses;
    if (batched) ++stats_.batched_responses;
    return;
  }
  std::vector<std::byte> frame(framed);
  proto::encode_frame(frame, payload);
  conn.qp->post_write(frame, dst, 0, nullptr, batched);
  ++stats_.responses;
  if (batched) ++stats_.batched_responses;
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
  if (len > cfg_.hotkey_slot_bytes) {
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
            sec.promo_slab(cfg_.hotkey_slot_bytes, cfg_.hotkey_top_k);
        Promotion::Target t;
        t.sec = &sec;
        t.qp = &qp;
        t.node = sec.node();
        t.rkey = mr->rkey();
        t.offset = static_cast<std::uint64_t>(slot) * cfg_.hotkey_slot_bytes;
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
  for (const auto& [key, p] : promotions_) {
    if (p->retired) continue;  // already traced its own demotion
    p->retired = true;
    p->live = false;
    ++stats_.hotkey_demotions;
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kHotKeyDemoted, cfg_.id,
                           p->key_hash, reason);
    }
  }
  promotions_.clear();
}

void Shard::demote_all(std::uint64_t reason) {
  std::vector<std::shared_ptr<Promotion>> all;
  all.reserve(promotions_.size());
  for (const auto& [key, p] : promotions_) all.push_back(p);
  for (const auto& p : all) retire_promotion(p, reason);
}

void Shard::retire_promotion(const std::shared_ptr<Promotion>& p, std::uint64_t reason) {
  if (p->retired) return;
  p->retired = true;
  p->live = false;
  ++stats_.hotkey_demotions;
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kHotKeyDemoted, cfg_.id, p->key_hash,
                         reason);
  }
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
  if (p->retired) {
    // A cooldown/epoch demotion already posted guardian kills that are
    // still in flight. The write still must not ack before the copies are
    // dead: the caller posts one more (idempotent) kill per target, whose
    // completion orders after the in-flight one on the same QP.
    return p->targets.empty() ? nullptr : p;
  }
  p->retired = true;
  p->live = false;
  ++stats_.hotkey_demotions;
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kHotKeyDemoted, cfg_.id, p->key_hash,
                         /*reason=*/0);
  }
  if (p->targets.empty()) {
    if (p->pending == 0) release_promo_slot(p);
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
