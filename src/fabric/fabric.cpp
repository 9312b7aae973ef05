#include "fabric/fabric.hpp"

#include "obs/plane.hpp"

namespace hydra::fabric {

MemoryRegion* Node::register_memory(std::span<std::byte> bytes) {
  const auto rkey = static_cast<std::uint32_t>(regions_.size() + 1);
  regions_.push_back(std::make_unique<MemoryRegion>(id_, rkey, bytes));
  return regions_.back().get();
}

MemoryRegion* Node::find_region(std::uint32_t rkey) noexcept {
  // regions_ only grows and region i carries rkey i + 1.
  if (rkey == 0 || rkey > regions_.size()) return nullptr;
  return regions_[rkey - 1].get();
}

Node& Fabric::add_node(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, std::move(name)));
  return *nodes_.back();
}

std::pair<QueuePair*, QueuePair*> Fabric::connect(NodeId a, NodeId b) {
  ++stats_.qp_connects;
  const std::uint32_t id = next_qp_id_;
  next_qp_id_ += 2;
  QueuePair* qa = nullptr;
  QueuePair* qb = nullptr;
  if (!qp_pool_.empty()) {
    // Recycle a reclaimed pair: fresh ids and a bumped generation keep any
    // op still draining through the old incarnation from committing here.
    ++stats_.qp_slot_reuses;
    std::tie(qa, qb) = qp_pool_.back();
    qp_pool_.pop_back();
    qa->reopen(id, a, b);
    qb->reopen(id + 1, b, a);
    if (obs_ != nullptr) {
      obs_->trace(sched_.now(), a, obs::TraceKind::kQpReused, obs::kNoShard, id,
                  qp_pool_.size());
    }
  } else {
    qps_.push_back(std::make_unique<QueuePair>(*this, id, a, b));
    qa = qps_.back().get();
    qps_.push_back(std::make_unique<QueuePair>(*this, id + 1, b, a));
    qb = qps_.back().get();
    qa->peer_ = qb;
    qb->peer_ = qa;
  }
  ++nodes_[a]->nic().qp_count;
  ++nodes_[b]->nic().qp_count;
  return {qa, qb};
}

void Fabric::disconnect(QueuePair* qp) {
  if (qp == nullptr || !qp->open()) return;
  QueuePair* peer = qp->peer_;
  ++stats_.qp_disconnects;
  --nodes_[qp->local_node()]->nic().qp_count;
  --nodes_[peer->local_node()]->nic().qp_count;
  qp->close();
  peer->close();
  qp_pool_.emplace_back(qp, peer);
  if (obs_ != nullptr) {
    obs_->trace(sched_.now(), qp->local_node(), obs::TraceKind::kQpReclaimed, obs::kNoShard,
                qp->id(), live_qp_pairs());
  }
}

void Fabric::revoke_rkey(NodeId owner, std::uint32_t rkey, Duration latency,
                         std::function<void(bool confirmed)> on_done) {
  sched_.after(latency, [this, owner, rkey, on_done = std::move(on_done)] {
    Node& n = *nodes_[owner];
    MemoryRegion* mr = n.alive() ? n.find_region(rkey) : nullptr;
    if (mr == nullptr) {
      // Dead owner or unknown rkey: nothing to revoke, nothing to confirm.
      if (on_done) on_done(false);
      return;
    }
    const RevokeFault fault = revoke_fault_ ? revoke_fault_(owner, rkey) : RevokeFault{};
    const bool applied = fault.kind != RevokeFault::Kind::kDrop;
    const bool confirmed = fault.kind == RevokeFault::Kind::kDeliver;
    if (applied) {
      if (!mr->revoked()) ++stats_.rkey_revocations;
      mr->revoke();
    }
    if (fault.kind != RevokeFault::Kind::kDeliver) ++stats_.revoke_faults;
    if (obs_ != nullptr) {
      obs_->trace(sched_.now(), owner, obs::TraceKind::kRkeyRevoked, obs::kNoShard, rkey,
                  static_cast<std::uint64_t>(fault.kind));
    }
    if (on_done) on_done(confirmed);
  });
}

MemoryRegion* Fabric::reregister_mr(NodeId owner, MemoryRegion* old) {
  if (old == nullptr) return nullptr;
  if (!old->revoked()) old->revoke();
  MemoryRegion* fresh = nodes_[owner]->register_memory(old->slice(0, old->length()));
  ++stats_.rkey_reregistrations;
  if (obs_ != nullptr) {
    obs_->trace(sched_.now(), owner, obs::TraceKind::kRkeyReregistered, obs::kNoShard,
                fresh->rkey(), old->rkey());
  }
  return fresh;
}

std::pair<TcpConn*, TcpConn*> Fabric::tcp_connect(NodeId a, NodeId b) {
  const auto id = static_cast<std::uint32_t>(tcp_conns_.size());
  tcp_conns_.push_back(std::make_unique<TcpConn>(*this, id, a, b));
  TcpConn* ca = tcp_conns_.back().get();
  tcp_conns_.push_back(std::make_unique<TcpConn>(*this, id + 1, b, a));
  TcpConn* cb = tcp_conns_.back().get();
  ca->peer_ = cb;
  cb->peer_ = ca;
  return {ca, cb};
}

}  // namespace hydra::fabric
