#include "client/client.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "core/item.hpp"
#include "obs/plane.hpp"

namespace hydra::client {

Client::Client(sim::Scheduler& sched, fabric::Fabric& fabric, NodeId node,
               ClientConfig cfg, std::shared_ptr<RemotePtrCache> pointer_cache)
    : sim::Actor(sched, "client-" + std::to_string(cfg.id)),
      fabric_(fabric),
      node_(node),
      cfg_([&cfg] {
        cfg.window = std::max<std::uint32_t>(cfg.window, 1);
        return cfg;
      }()),
      cache_(pointer_cache ? std::move(pointer_cache)
                           : std::make_shared<RemotePtrCache>(64 * 1024)),
      resp_region_(static_cast<std::size_t>(cfg_.max_shard_connections) *
                   cfg_.window * cfg_.resp_slot_bytes) {
  resp_mr_ = fabric_.node(node_).register_memory(resp_region_.bytes());
  resp_mr_->set_write_hook(
      guard([this](std::uint64_t offset, std::uint32_t) { on_response_write(offset); }));
  for (std::uint32_t i = 0; i < cfg_.max_shard_connections; ++i) free_blocks_.push_back(i);
}

// ---------------------------------------------------------------- public ops

void Client::get(std::string key, GetCallback cb) {
  PendingOp op;
  op.req.type = proto::MsgType::kGet;
  op.req.client = cfg_.id;
  op.req.key = std::move(key);
  op.get_cb = std::move(cb);
  op.issued = now();

  if (cfg_.use_rdma_read) {
    const std::uint64_t h = hash_key(op.req.key);
    CachedPtr entry;
    if (cache_->get(h, &entry)) {
      const std::uint64_t epoch = current_epoch();
      if (entry.primary.epoch != epoch) {
        // The routing epoch moved past this pointer's lease (failover
        // promotion or migration commit): its rkey may reference memory a
        // fenced primary no longer owns, so it must never be read again.
        cache_->erase(h);
        ++stats_.epoch_invalidations;
        if (epoch != last_swept_epoch_) {
          // First stale hit under the new epoch: sweep the whole cache of
          // entries leased under superseded epochs. They used to linger --
          // skipped on every lookup but never erased -- holding slots
          // hostage until eviction pressure happened to land on them.
          last_swept_epoch_ = epoch;
          stats_.stale_evicted += cache_->erase_if(
              [epoch](std::uint64_t, const CachedPtr& v) {
                return v.primary.epoch != epoch;
              });
        }
      } else if (entry.primary.lease_expiry > now() + cfg_.lease_safety_margin) {
        // Strict >: a lease expiring exactly at the assumed read-completion
        // time (now + margin) counts as expired and takes the message path.
        if (replica_connector_ && entry.replica_count > 0) {
          // Promoted key: spread one-sided reads round-robin across the
          // primary and its advertised follower copies (DESIGN.md §12).
          const std::uint32_t fan =
              std::min<std::uint32_t>(entry.replica_count,
                                      proto::kMaxReplicaPtrs) + 1;
          const auto pick = static_cast<std::uint32_t>(replica_rr_++ % fan);
          if (pick > 0) {
            try_replica_read(h, entry, pick - 1, std::move(op));
            return;
          }
        }
        try_rdma_read(h, entry.primary, std::move(op));
        return;
      }
    }
    ++stats_.ptr_misses;
  }
  submit(std::move(op));
}

void Client::put(std::string key, std::string value, OpCallback cb) {
  PendingOp op;
  op.req.type = proto::MsgType::kPut;
  op.req.client = cfg_.id;
  op.req.key = std::move(key);
  op.req.value = std::move(value);
  op.op_cb = std::move(cb);
  op.issued = now();
  submit(std::move(op));
}

void Client::insert(std::string key, std::string value, OpCallback cb) {
  PendingOp op;
  op.req.type = proto::MsgType::kInsert;
  op.req.client = cfg_.id;
  op.req.key = std::move(key);
  op.req.value = std::move(value);
  op.op_cb = std::move(cb);
  op.issued = now();
  submit(std::move(op));
}

void Client::update(std::string key, std::string value, OpCallback cb) {
  PendingOp op;
  op.req.type = proto::MsgType::kUpdate;
  op.req.client = cfg_.id;
  op.req.key = std::move(key);
  op.req.value = std::move(value);
  op.op_cb = std::move(cb);
  op.issued = now();
  submit(std::move(op));
}

void Client::remove(std::string key, OpCallback cb) {
  PendingOp op;
  op.req.type = proto::MsgType::kRemove;
  op.req.client = cfg_.id;
  op.req.key = std::move(key);
  op.op_cb = std::move(cb);
  op.issued = now();
  submit(std::move(op));
}

void Client::renew_lease(std::string key, OpCallback cb) {
  PendingOp op;
  op.req.type = proto::MsgType::kRenewLease;
  op.req.client = cfg_.id;
  op.req.key = std::move(key);
  op.op_cb = std::move(cb);
  op.issued = now();
  submit(std::move(op));
}

// --------------------------------------------------------------- range scans

void Client::scan_shard(ShardId shard, std::string start_key, const proto::ScanReq& sreq,
                        ScanRespCallback cb) {
  PendingOp op;
  op.req.type = proto::MsgType::kScan;
  op.req.client = cfg_.id;
  op.req.key = std::move(start_key);
  const auto payload = proto::encode_scan_req(sreq);
  op.req.value.assign(reinterpret_cast<const char*>(payload.data()), payload.size());
  op.scan_cb = std::move(cb);
  op.target = shard;
  op.issued = now();
  submit(std::move(op));
}

void Client::leaf_read(NodeId node, fabric::RemoteAddr addr, std::uint32_t len,
                       LeafReadCallback cb) {
  if (!replica_connector_) {
    if (cb) cb(Status::kDisconnected, {});
    return;
  }
  ReplicaWire wire = replica_connector_(node);
  if (wire.qp == nullptr) {
    if (cb) cb(Status::kDisconnected, {});
    return;
  }
  auto buf = std::make_shared<std::vector<std::byte>>(len);
  auto cb_holder = std::make_shared<LeafReadCallback>(std::move(cb));
  wire.qp->post_read(
      *buf, addr, next_req_id_++,
      guard([this, buf, cb_holder, release = std::move(wire.release)](
                const fabric::Completion& wc) {
        // Release the channel pin first, exactly like try_replica_read: the
        // idle reaper must not stay blocked if the scan path errors out.
        if (release) release();
        if (wc.status != fabric::WcStatus::kSuccess) {
          (*cb_holder)(Status::kDisconnected, {});
          return;
        }
        schedule_after(cfg_.decode_cost, [buf, cb_holder] {
          (*cb_holder)(Status::kOk, std::move(*buf));
        });
      }));
}

// -------------------------------------------------------------- transactions

Client::TxnWire Client::txn_wire(ShardId shard) {
  TxnWire wire;
  Conn* conn = connection_to(shard);
  if (conn == nullptr) return wire;
  if (conn->wire.mux &&
      !conn->wire.mux_node->live(shard, conn->wire.mux_generation)) {
    // Same staleness rule as try_rdma_read: never hand out a QP belonging
    // to a channel that was reclaimed behind this endpoint's back.
    salvage_connection(shard);
    return wire;
  }
  if (conn->wire.lock_words == 0) {
    // Reachable but transactions are off: expose the QP so callers can tell
    // "arena disabled" (terminal) from "shard unreachable" (retryable).
    wire.qp = conn->wire.qp;
    return wire;
  }
  wire.qp = conn->wire.qp;
  wire.lock_rkey = conn->wire.lock_rkey;
  wire.lock_words = conn->wire.lock_words;
  wire.ok = true;
  return wire;
}

void Client::invalidate_connection(ShardId shard) { salvage_connection(shard); }

void Client::txn_commit(std::string routing_key, std::string payload, OpCallback cb) {
  PendingOp op;
  op.req.type = proto::MsgType::kTxnCommit;
  op.req.client = cfg_.id;
  op.req.key = std::move(routing_key);
  op.req.value = std::move(payload);
  op.op_cb = std::move(cb);
  op.issued = now();
  submit(std::move(op));
}

// ---------------------------------------------------------------- RDMA read

void Client::try_rdma_read(std::uint64_t key_hash, const proto::RemotePtr& ptr,
                           PendingOp op) {
  Conn* conn = connection_to(ptr.shard);
  if (conn != nullptr && conn->wire.mux &&
      !conn->wire.mux_node->live(ptr.shard, conn->wire.mux_generation)) {
    // The shared channel this endpoint registered against was reclaimed;
    // its QP may already carry someone else's traffic. Salvage (not drop):
    // other slots on this logical connection may still hold in-flight or
    // queued ops whose callbacks must re-submit, not silently vanish.
    salvage_connection(ptr.shard);
    conn = nullptr;
  }
  if (conn == nullptr) {
    ++stats_.ptr_misses;
    submit(std::move(op));
    return;
  }
  // The read buffer lives in the completion closure; items are fetched
  // whole (header + key + value + guardian) and validated locally.
  auto buf = std::make_shared<std::vector<std::byte>>(ptr.total_len);
  auto op_holder = std::make_shared<PendingOp>(std::move(op));
  conn->wire.qp->post_read(
      *buf, fabric::RemoteAddr{ptr.rkey, ptr.offset}, next_req_id_++,
      guard([this, buf, op_holder, key_hash, ptr](const fabric::Completion& wc) {
        if (wc.status != fabric::WcStatus::kSuccess) {
          // Shard unreachable: treat like a miss; the message path will
          // retry/re-route through the failover machinery.
          cache_->erase(key_hash);
          ++stats_.ptr_misses;
          submit(std::move(*op_holder));
          return;
        }
        schedule_after(cfg_.decode_cost, [this, buf, op_holder, key_hash, ptr] {
          const core::ItemValidity validity =
              core::validate_item(buf->data(), buf->size(), op_holder->req.key);
          if (validity == core::ItemValidity::kValid) {
            ++stats_.ptr_hits;
            ++stats_.gets;
            core::ItemView item(buf->data());
            stats_.get_latency.record(now() - op_holder->issued);
            maybe_auto_renew(op_holder->req.key, ptr);
            if (op_holder->get_cb) op_holder->get_cb(Status::kOk, item.value());
            return;
          }
          // Outdated or reclaimed: invalidate and fall back to a GET
          // message to fetch the latest version (paper section 4.2.3).
          ++stats_.invalid_hits;
          cache_->erase(key_hash);
          submit(std::move(*op_holder));
        });
      }));
}

void Client::try_replica_read(std::uint64_t key_hash, const CachedPtr& entry,
                              std::uint32_t replica_idx, PendingOp op) {
  const proto::ReplicaPtr rep = entry.replicas[replica_idx];
  ReplicaWire wire = replica_connector_(rep.node);
  if (wire.qp == nullptr) {
    // No channel to the follower right now (node dead, mux saturated):
    // fall back to the primary copy rather than the message path -- the
    // primary pointer is still lease-valid.
    try_rdma_read(key_hash, entry.primary, std::move(op));
    return;
  }
  auto buf = std::make_shared<std::vector<std::byte>>(rep.total_len);
  auto op_holder = std::make_shared<PendingOp>(std::move(op));
  wire.qp->post_read(
      *buf, fabric::RemoteAddr{rep.rkey, rep.offset}, next_req_id_++,
      guard([this, buf, op_holder, key_hash, rep, prim = entry.primary,
             release = std::move(wire.release)](const fabric::Completion& wc) {
        // Release the channel pin before anything else: the reaper must not
        // stay blocked if the completion path re-submits or errors out.
        if (release) release();
        if (wc.status != fabric::WcStatus::kSuccess) {
          cache_->erase(key_hash);
          ++stats_.ptr_misses;
          submit(std::move(*op_holder));
          return;
        }
        schedule_after(cfg_.decode_cost, [this, buf, op_holder, key_hash, rep,
                                          prim] {
          const core::ItemValidity validity =
              core::validate_item(buf->data(), buf->size(), op_holder->req.key);
          if (validity == core::ItemValidity::kValid) {
            ++stats_.ptr_hits;
            ++stats_.replica_hits;
            ++stats_.gets;
            core::ItemView item(buf->data());
            stats_.get_latency.record(now() - op_holder->issued);
            if (fabric_.obs() != nullptr) {
              fabric_.obs()->trace(now(), node_, obs::TraceKind::kReplicaReadHit,
                                   prim.shard, key_hash, rep.node);
            }
            maybe_auto_renew(op_holder->req.key, prim);
            if (op_holder->get_cb) op_holder->get_cb(Status::kOk, item.value());
            return;
          }
          // Dead guardian or mismatch: the copy was invalidated by a write
          // or demotion. Drop the whole entry (primary included -- the next
          // GET response re-advertises whatever is still promoted).
          ++stats_.invalid_hits;
          cache_->erase(key_hash);
          submit(std::move(*op_holder));
        });
      }));
}

void Client::maybe_auto_renew(const std::string& key, const proto::RemotePtr& ptr) {
  if (!cfg_.auto_renew) return;
  // Renew when less than a quarter of the lease term remains, so pointers
  // for keys this client keeps reading stay valid (C-Hint-style renewal).
  const Duration remaining = ptr.lease_expiry > now() ? ptr.lease_expiry - now() : 0;
  if (remaining > kSecond / 4) return;
  ++stats_.renews_sent;
  renew_lease(key, nullptr);
}

// ---------------------------------------------------------------- messaging

Client::Conn* Client::connection_to(ShardId shard) {
  auto it = conns_.find(shard);
  if (it != conns_.end()) return it->second.get();
  if (!connector_ || free_blocks_.empty()) return nullptr;

  auto conn = std::make_unique<Conn>();
  conn->resp_block = free_blocks_.back();
  const fabric::RemoteAddr resp_addr =
      resp_mr_->addr(static_cast<std::uint64_t>(conn->resp_block) * block_stride());
  if (!connector_(shard, *this, resp_addr, cfg_.resp_slot_bytes, cfg_.window,
                  &conn->wire)) {
    return nullptr;
  }
  free_blocks_.pop_back();
  block_to_shard_[conn->resp_block] = shard;
  conn->window = std::clamp<std::uint32_t>(conn->wire.window, 1, cfg_.window);
  conn->slots.resize(conn->window);

  if (conn->wire.send_recv) {
    conn->recv_bufs.resize(std::max<std::size_t>(8, conn->window),
                           std::vector<std::byte>(cfg_.resp_slot_bytes));
    for (std::size_t i = 0; i < conn->recv_bufs.size(); ++i) {
      conn->wire.qp->post_recv(conn->recv_bufs[i], i);
    }
    Conn* raw = conn.get();
    conn->wire.qp->set_recv_handler(
        guard([this, shard, raw](const fabric::Completion& wc, std::span<std::byte> data) {
          auto resp = proto::decode_response(data.subspan(0, wc.byte_len));
          raw->wire.qp->post_recv(raw->recv_bufs[wc.wr_id], wc.wr_id);
          if (resp.has_value()) handle_response(shard, *raw, *resp);
        }));
  }
  Conn* raw = conn.get();
  conns_[shard] = std::move(conn);
  return raw;
}

void Client::drop_connection(ShardId shard) {
  auto it = conns_.find(shard);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  for (Slot& s : conn.slots) {
    scheduler().cancel(s.timeout);
    if (s.busy && s.holds_ring_slot && conn.wire.mux && conn.wire.mux_node != nullptr) {
      // Return credits still held on a live channel (no-op if the channel
      // itself died -- teardown already recycled them).
      conn.wire.mux_node->release(shard, conn.wire.mux_generation, s.mux_ring_slot);
    }
  }
  // Scrub the response ring so a later connection reusing this block never
  // sees a stale landed frame; its pages go back to the kernel.
  resp_region_.zero(static_cast<std::size_t>(conn.resp_block) * block_stride(), block_stride());
  free_blocks_.push_back(conn.resp_block);
  block_to_shard_.erase(conn.resp_block);
  conns_.erase(it);
}

void Client::submit(PendingOp op) {
  // Scans carry an explicit destination: their key is a range position, so
  // hash-routing it through the resolver would be meaningless.
  const bool routed = op.req.type != proto::MsgType::kScan;
  if (routed && !resolver_) {
    complete(op, Status::kDisconnected, {});
    return;
  }
  const ShardId shard = routed ? resolver_(hash_key(op.req.key)) : op.target;
  if (shard == kInvalidShard) {
    complete(op, Status::kDisconnected, {});
    return;
  }
  Conn* conn = connection_to(shard);
  if (conn == nullptr) {
    // No route right now (mid-failover): retry shortly rather than fail.
    if (++op.retries > cfg_.max_retries) {
      complete(op, Status::kTimeout, {});
      return;
    }
    ++stats_.retries;
    schedule_after(cfg_.request_timeout / 4,
                   [this, op = std::move(op)]() mutable { submit(std::move(op)); });
    return;
  }
  if (conn->in_flight >= conn->window) {
    conn->queue.push_back(std::move(op));
    return;
  }
  issue(shard, *conn, std::move(op));
}

void Client::issue(ShardId shard, Conn& conn, PendingOp op) {
  // Claim the next free ring slot (round-robin from the cursor; responses
  // may complete out of order, so free slots need not be contiguous).
  std::uint32_t slot_idx = conn.window;
  for (std::uint32_t i = 0; i < conn.window; ++i) {
    const std::uint32_t s = (conn.next_slot + i) % conn.window;
    if (!conn.slots[s].busy) {
      slot_idx = s;
      break;
    }
  }
  if (slot_idx == conn.window) {  // no free slot (callers check in_flight)
    conn.queue.push_back(std::move(op));
    return;
  }
  Slot& slot = conn.slots[slot_idx];
  slot.busy = true;
  slot.op = std::move(op);
  slot.op.req.req_id = next_req_id_++;
  conn.next_slot = (slot_idx + 1) % conn.window;
  ++conn.in_flight;
  stats_.max_in_flight = std::max(stats_.max_in_flight, conn.in_flight);
  post_slot(shard, slot_idx);
}

void Client::post_slot(ShardId shard, std::uint32_t slot_idx) {
  auto it = conns_.find(shard);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  Slot& slot = conn.slots[slot_idx];

  if (conn.wire.mux) {
    // Mux path: the request travels the node's shared ring, enveloped so
    // the shard can route the response back to this endpoint's slot.
    const proto::MuxHeader hdr{conn.wire.endpoint, slot_idx};
    const auto payload = proto::encode_mux_request(hdr, slot.op.req);
    const std::size_t framed_size = proto::frame_size(payload.size());
    if (framed_size > conn.wire.req_slot_bytes) {
      PendingOp op = std::move(slot.op);
      slot.busy = false;
      --conn.in_flight;
      complete(op, Status::kInvalidArgument, {});
      return;
    }
    std::vector<std::byte> frame(framed_size);
    proto::encode_frame(frame, payload);
    schedule_after(cfg_.issue_cost, [this, shard, slot_idx, frame = std::move(frame)]() mutable {
      post_mux_slot(shard, slot_idx, std::move(frame));
    });
    return;
  }

  const auto payload = proto::encode_request(slot.op.req);

  if (conn.wire.send_recv) {
    schedule_after(cfg_.issue_cost, [this, shard, slot_idx, payload] {
      auto cit = conns_.find(shard);  // connection may have been torn down
      if (cit == conns_.end() || slot_idx >= cit->second->slots.size()) return;
      Conn& c = *cit->second;
      if (!c.slots[slot_idx].busy) return;
      c.wire.qp->post_send(payload);
      c.slots[slot_idx].timeout =
          schedule_after(cfg_.request_timeout, [this, shard] { on_timeout(shard); });
    });
    return;
  }

  const std::size_t framed_size = proto::frame_size(payload.size());
  if (framed_size > conn.wire.req_slot_bytes) {
    PendingOp op = std::move(slot.op);
    slot.busy = false;
    --conn.in_flight;
    complete(op, Status::kInvalidArgument, {});
    return;
  }
  std::vector<std::byte> frame(framed_size);
  proto::encode_frame(frame, payload);
  schedule_after(cfg_.issue_cost, [this, shard, slot_idx, frame = std::move(frame)] {
    auto cit = conns_.find(shard);
    if (cit == conns_.end() || slot_idx >= cit->second->slots.size()) return;
    Conn& c = *cit->second;
    if (!c.slots[slot_idx].busy) return;
    const fabric::RemoteAddr dst{
        c.wire.req_slot.rkey,
        c.wire.req_slot.offset +
            proto::ring_slot_offset(slot_idx, c.wire.req_slot_bytes)};
    c.wire.qp->post_write(frame, dst);
    c.slots[slot_idx].timeout =
        schedule_after(cfg_.request_timeout, [this, shard] { on_timeout(shard); });
  });
}

void Client::post_mux_slot(ShardId shard, std::uint32_t slot_idx,
                           std::vector<std::byte> frame) {
  auto it = conns_.find(shard);
  if (it == conns_.end() || slot_idx >= it->second->slots.size()) return;
  Conn& conn = *it->second;
  if (!conn.slots[slot_idx].busy) return;
  // Claim a shared-ring credit (SRQ-style flow control). A full ring parks
  // us on the channel's waiter list; a dead channel hands back nullptr and
  // the op re-submits through a freshly established channel.
  NodeMux* mux = conn.wire.mux_node;
  mux->acquire(
      shard, conn.wire.mux_generation,
      guard([this, mux, shard, slot_idx, frame = std::move(frame)](NodeMux::Channel* ch,
                                                                   std::uint32_t ring_slot) {
        auto cit = conns_.find(shard);
        if (cit == conns_.end() || slot_idx >= cit->second->slots.size() ||
            !cit->second->slots[slot_idx].busy) {
          // The logical connection vanished while we waited for a credit;
          // give the credit back through the channel's release flow so it
          // reaches the oldest parked waiter instead of stranding them.
          if (ch != nullptr) mux->recycle(*ch, ring_slot);
          return;
        }
        Conn& c = *cit->second;
        if (ch == nullptr) {
          // Channel died while we waited: the endpoint registration died
          // with it, so every op on this logical connection re-submits
          // through a freshly established channel.
          salvage_connection(shard);
          return;
        }
        Slot& slot = c.slots[slot_idx];
        slot.holds_ring_slot = true;
        slot.mux_ring_slot = ring_slot;
        const fabric::RemoteAddr dst{
            c.wire.req_slot.rkey,
            c.wire.req_slot.offset +
                proto::ring_slot_offset(ring_slot, c.wire.req_slot_bytes)};
        ch->wire.qp->post_write(frame, dst);
        slot.timeout =
            schedule_after(cfg_.request_timeout, [this, shard] { on_timeout(shard); });
      }));
}

void Client::salvage_connection(ShardId shard) {
  auto it = conns_.find(shard);
  if (it == conns_.end()) return;
  std::vector<PendingOp> to_retry;
  for (Slot& s : it->second->slots) {
    if (s.busy) to_retry.push_back(std::move(s.op));
  }
  for (auto& queued : it->second->queue) to_retry.push_back(std::move(queued));
  drop_connection(shard);
  for (auto& op : to_retry) retry_or_fail(std::move(op));
}

void Client::retry_or_fail(PendingOp op) {
  if (++op.retries > cfg_.max_retries) {
    complete(op, Status::kTimeout, {});
    return;
  }
  ++stats_.retries;
  schedule_after(cfg_.request_timeout / 4,
                 [this, op = std::move(op)]() mutable { submit(std::move(op)); });
}

void Client::on_response_write(std::uint64_t offset) {
  const auto block = static_cast<std::uint32_t>(offset / block_stride());
  const auto unit = static_cast<std::uint32_t>(offset / cfg_.resp_slot_bytes);
  const std::uint32_t slot = unit - block * cfg_.window;
  auto sit = block_to_shard_.find(block);
  if (sit == block_to_shard_.end()) return;
  const ShardId shard = sit->second;
  auto cit = conns_.find(shard);
  if (cit == conns_.end()) return;
  Conn& conn = *cit->second;

  const auto span = resp_slot(conn.resp_block, slot);
  switch (proto::probe_frame(span)) {
    case proto::FrameState::kEmpty:
    case proto::FrameState::kPartial:
      return;  // frame still landing
    case proto::FrameState::kMalformed:
      proto::clear_frame(span);  // scrub garbage so the slot stays usable
      return;
    case proto::FrameState::kReady:
      break;
  }
  auto resp = proto::decode_response(proto::frame_payload(span));
  proto::clear_frame(span);
  if (!resp.has_value()) return;
  handle_response(shard, conn, *resp);
}

void Client::handle_response(ShardId shard, Conn& conn, const proto::Response& resp) {
  // Match the response to its in-flight slot by req_id: with window > 1
  // completions can arrive in any order.
  std::uint32_t slot_idx = conn.window;
  for (std::uint32_t i = 0; i < conn.window; ++i) {
    if (conn.slots[i].busy && conn.slots[i].op.req.req_id == resp.req_id) {
      slot_idx = i;
      break;
    }
  }
  if (slot_idx == conn.window) return;  // stale (timed out / retried already)
  Slot& slot = conn.slots[slot_idx];
  for (std::uint32_t i = 0; i < conn.window; ++i) {
    if (i != slot_idx && conn.slots[i].busy &&
        conn.slots[i].op.req.req_id < resp.req_id) {
      ++stats_.ooo_responses;
      break;
    }
  }
  scheduler().cancel(slot.timeout);
  PendingOp op = std::move(slot.op);
  slot.busy = false;
  if (slot.holds_ring_slot) {
    // The shard consumed the shared-ring frame before answering: the
    // credit flows back to the channel (or straight to its oldest waiter).
    slot.holds_ring_slot = false;
    conn.wire.mux_node->release(shard, conn.wire.mux_generation, slot.mux_ring_slot);
  }
  --conn.in_flight;

  // Cache/refresh the granted remote pointer (GET and lease-renew paths),
  // stamped with the epoch it was leased under so a later epoch bump
  // invalidates it before the next one-sided read.
  if (cfg_.use_rdma_read && resp.remote_ptr.valid()) {
    CachedPtr entry;
    entry.primary = resp.remote_ptr;
    entry.primary.epoch = current_epoch();
    // Hot-key promotion set: the shard advertises follower copies alongside
    // the primary pointer; cache them so subsequent one-sided GETs can fan
    // out. An empty set (the common case) leaves replica_count == 0.
    for (const auto& rp : resp.replicas) {
      if (entry.replica_count >= proto::kMaxReplicaPtrs) break;
      if (!rp.valid()) continue;
      entry.replicas[entry.replica_count++] = rp;
    }
    cache_->put(hash_key(op.req.key), entry);
  }

  // Refill the ring from the overflow queue before running the callback.
  while (conn.in_flight < conn.window && !conn.queue.empty()) {
    PendingOp next = std::move(conn.queue.front());
    conn.queue.pop_front();
    issue(shard, conn, std::move(next));
  }

  if (resp.status == Status::kWrongOwner &&
      op.req.type != proto::MsgType::kTxnCommit &&
      op.req.type != proto::MsgType::kScan) {
    // (kScan and kTxnCommit treat kWrongOwner as terminal: the caller must
    // re-plan against the new epoch, not blindly re-route.)
    // The shard fenced this key's range (a migration or promotion raced the
    // request). Drop any pointer into the old owner and re-resolve after a
    // short backoff -- the routing table flips within the seal window.
    cache_->erase(hash_key(op.req.key));
    ++stats_.wrong_owner_redirects;
    if (++op.retries > cfg_.max_retries) {
      schedule_after(cfg_.decode_cost, [this, op = std::move(op)]() mutable {
        complete(op, Status::kWrongOwner, {});
      });
      return;
    }
    ++stats_.retries;
    schedule_after(cfg_.request_timeout / 4,
                   [this, op = std::move(op)]() mutable { submit(std::move(op)); });
    return;
  }

  schedule_after(cfg_.decode_cost,
                 [this, op = std::move(op), resp = std::move(resp)]() mutable {
                   complete(op, resp.status, resp.value);
                 });
}

void Client::on_timeout(ShardId shard) {
  auto it = conns_.find(shard);
  if (it == conns_.end() || it->second->in_flight == 0) return;
  ++stats_.timeouts;
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kClientTimeout, shard,
                         it->second->in_flight);
  }

  // A mux timeout indicts the *shared* QP, not just this endpoint: report
  // it so the channel is torn down and every endpoint re-establishes
  // lazily (their own timeouts salvage their in-flight ops).
  if (it->second->wire.mux && it->second->wire.mux_node != nullptr) {
    it->second->wire.mux_node->report_failure(shard, it->second->wire.mux_generation);
  }

  // Salvage every in-flight slot and everything queued on this connection,
  // tear it down, and re-resolve: after a failover the shard's primary
  // lives elsewhere.
  salvage_connection(shard);
}

void Client::complete(PendingOp& op, Status status, std::string_view value) {
  const Duration latency = now() - op.issued;
  if (status != Status::kOk && status != Status::kNotFound &&
      status != Status::kExists && status != Status::kTxnConflict) {
    ++stats_.failures;
  }
  switch (op.req.type) {
    case proto::MsgType::kGet:
      ++stats_.gets;
      stats_.get_latency.record(latency);
      if (op.get_cb) op.get_cb(status, value);
      return;
    case proto::MsgType::kScan: {
      ++stats_.scan_batches;
      if (!op.scan_cb) return;
      proto::ScanResp body;
      if (status == Status::kOk) {
        const auto* bytes = reinterpret_cast<const std::byte*>(value.data());
        auto decoded = proto::decode_scan_resp({bytes, value.size()});
        if (!decoded.has_value()) {
          op.scan_cb(Status::kInvalidArgument, body);
          return;
        }
        stats_.scan_entries += decoded->entries.size();
        op.scan_cb(Status::kOk, *decoded);
        return;
      }
      op.scan_cb(status, body);
      return;
    }
    case proto::MsgType::kInsert:
    case proto::MsgType::kUpdate:
    case proto::MsgType::kPut:
      ++stats_.puts;
      stats_.put_latency.record(latency);
      break;
    case proto::MsgType::kRemove:
      ++stats_.removes;
      stats_.put_latency.record(latency);
      break;
    default:
      break;
  }
  if (op.op_cb) op.op_cb(status);
}

}  // namespace hydra::client
