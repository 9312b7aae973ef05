#include "server/pipelined_shard.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/plane.hpp"

namespace hydra::server {

PipelinedShard::PipelinedShard(sim::Scheduler& sched, fabric::Fabric& fabric,
                               NodeId node, ShardConfig cfg, int dispatchers,
                               int workers)
    : sim::Actor(sched, "pipelined-shard-" + std::to_string(cfg.id)),
      fabric_(fabric),
      node_(node),
      cfg_(cfg),
      store_(std::make_unique<core::KVStore>(cfg.store)),
      msg_region_(static_cast<std::size_t>(cfg.max_connections) * cfg.msg_slot_bytes),
      dispatcher_busy_(static_cast<std::size_t>(dispatchers), false),
      worker_busy_(static_cast<std::size_t>(workers), false) {
  arena_mr_ = fabric_.node(node_).register_memory(store_->arena().bytes());
  msg_mr_ = fabric_.node(node_).register_memory(msg_region_.bytes());
  msg_mr_->set_write_hook(
      guard([this](std::uint64_t offset, std::uint32_t) { on_request_write(offset); }));
}

void PipelinedShard::kill() {
  msg_mr_->revoke();
  arena_mr_->revoke();
  sim::Actor::kill();
}

Shard::MuxGroupResult PipelinedShard::accept_mux_group(fabric::QueuePair* qp) {
  // Reuse a closed group's slot: its QP was disconnected, so nothing still
  // in flight can land there.
  const auto idx = static_cast<std::uint32_t>(
      std::find_if(conns_.begin(), conns_.end(), [](const Connection& c) { return !c.open; }) -
      conns_.begin());
  if (idx == conns_.size()) {
    if (idx >= cfg_.max_connections) return {};
    conns_.emplace_back();
    dirty_.add_endpoint();
  }
  proto::clear_frame(slot_span(idx));
  conns_[idx] = Connection{qp, {}, 0, true};
  Shard::MuxGroupResult res;
  res.group = idx;
  res.req_ring = fabric::RemoteAddr{msg_mr_->rkey(),
                                    static_cast<std::uint64_t>(idx) * cfg_.msg_slot_bytes};
  res.slot_bytes = cfg_.msg_slot_bytes;
  res.ring_slots = 1;
  res.ok = true;
  return res;
}

Shard::MuxEndpointResult PipelinedShard::accept_mux_endpoint(std::uint32_t group,
                                                            fabric::RemoteAddr client_resp_slot,
                                                            std::uint32_t client_resp_bytes,
                                                            ClientId /*client*/) {
  if (group >= conns_.size() || !conns_[group].open) return {};
  conns_[group].resp_addr = client_resp_slot;
  conns_[group].resp_bytes = client_resp_bytes;
  Shard::MuxEndpointResult res;
  res.endpoint = group;
  res.window = 1;
  res.ok = true;
  return res;
}

void PipelinedShard::close_mux_group(std::uint32_t group) {
  if (group < conns_.size()) conns_[group].open = false;
}

void PipelinedShard::on_request_write(std::uint64_t offset) {
  const auto idx = static_cast<std::uint32_t>(offset / cfg_.msg_slot_bytes);
  if (!dirty_.mark(idx)) return;
  wake_dispatchers();
}

void PipelinedShard::wake_dispatchers() {
  for (std::size_t d = 0; d < dispatcher_busy_.size(); ++d) {
    if (!dispatcher_busy_[d]) {
      dispatcher_busy_[d] = true;
      schedule_after(cfg_.cpu.idle_backoff, [this, d] { dispatcher_loop(d); });
      return;  // one dispatcher per wake; others wake on further arrivals
    }
  }
}

void PipelinedShard::dispatcher_loop(std::size_t d) {
  Duration scan_cost = 0;
  while (!dirty_.empty()) {
    const std::uint32_t idx = dirty_.pop();
    scan_cost += cfg_.cpu.poll_scan;
    const auto slot = slot_span(idx);
    if (!proto::poll_frame(slot).has_value()) continue;
    // Strip the envelope: it must name this group's endpoint and the one
    // response slot its window holds.
    const auto payload = proto::frame_payload(slot);
    const auto hdr = proto::decode_mux_header(payload);
    std::optional<proto::Request> req;
    if (hdr.has_value()) req = proto::decode_request(proto::mux_request_body(payload));
    proto::clear_frame(slot);
    if (!req.has_value() || hdr->endpoint != idx || hdr->resp_slot != 0 ||
        conns_[idx].resp_bytes == 0) {
      ++stats_.malformed;
      continue;
    }
    ++stats_.mux_requests;
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kRingSweep, cfg_.id, 1, idx);
    }
    // Dispatch: detection plus the enqueue into the shared work queue.
    const Duration cost = scan_cost + cfg_.cpu.dispatch_cost;
    stats_.busy_time += cost;
    schedule_after(cost, [this, d, req = std::move(*req), idx]() mutable {
      work_queue_.emplace_back(std::move(req), idx);
      wake_workers();
      dispatcher_loop(d);
    });
    return;
  }
  stats_.busy_time += scan_cost;
  dispatcher_busy_[d] = false;
}

void PipelinedShard::wake_workers() {
  for (std::size_t w = 0; w < worker_busy_.size(); ++w) {
    if (!worker_busy_[w]) {
      worker_busy_[w] = true;
      schedule_after(0, [this, w] { worker_loop(w); });
      return;
    }
  }
}

void PipelinedShard::worker_loop(std::size_t w) {
  if (work_queue_.empty()) {
    worker_busy_[w] = false;
    return;
  }
  auto [req, idx] = std::move(work_queue_.front());
  work_queue_.pop_front();
  execute(std::move(req), idx, w);
}

void PipelinedShard::execute(proto::Request req, std::uint32_t conn_idx, std::size_t w) {
  const CpuModel& cpu = cfg_.cpu;
  proto::Response resp;
  resp.req_id = req.req_id;
  // The handoff itself costs: dequeue, synchronization, and the request's
  // cache lines migrating from the dispatcher's core to the worker's.
  Duration cost = cpu.handoff_sync;

  switch (req.type) {
    case proto::MsgType::kGet: {
      cost += cpu.base_get;
      auto r = store_->get(req.key, now());
      resp.status = r.status();
      if (r.ok()) {
        resp.value.assign(r.value().value);
        resp.version = r.value().version;
        cost += static_cast<Duration>(cpu.per_value_byte *
                                      static_cast<double>(r.value().value.size()));
        // The pipelined comparator in the paper runs without remote-pointer
        // caching ("Pipeline + RDMA Write"), so no pointer is granted.
      }
      ++stats_.gets;
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
      ++stats_.puts;
      break;
    }
    case proto::MsgType::kRemove:
      cost += cpu.base_remove;
      resp.status = store_->remove(req.key, now());
      ++stats_.removes;
      break;
    case proto::MsgType::kScan:
      // The pipelined comparator exists to reproduce Fig 5's point-op loss;
      // range scans are out of its scope. Well-formed, just unsupported.
      resp.status = Status::kInvalidArgument;
      break;
    default:
      resp.status = Status::kInvalidArgument;
      ++stats_.malformed;
      break;
  }

  cost += cpu.post_response;
  stats_.busy_time += cost;
  schedule_after(cost, [this, w, resp = std::move(resp), conn_idx] {
    send_response(resp, conn_idx);
    worker_loop(w);
  });
}

void PipelinedShard::send_response(const proto::Response& resp, std::uint32_t conn_idx) {
  Connection& conn = conns_[conn_idx];
  if (!conn.open) return;  // the group closed while the request executed
  const auto payload = proto::encode_response(resp);
  const std::size_t framed = proto::frame_size(payload.size());
  if (framed > conn.resp_bytes) return;
  std::vector<std::byte> frame(framed);
  proto::encode_frame(frame, payload);
  conn.qp->post_write(frame, conn.resp_addr);
  ++stats_.responses;
}

}  // namespace hydra::server
