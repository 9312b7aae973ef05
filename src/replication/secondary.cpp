#include "replication/secondary.hpp"

#include <string>

#include "common/logging.hpp"
#include "obs/plane.hpp"

namespace hydra::replication {

SecondaryShard::SecondaryShard(sim::Scheduler& sched, fabric::Fabric& fabric,
                               NodeId node, SecondaryConfig cfg)
    : sim::Actor(sched, "secondary-" + std::to_string(cfg.primary_shard)),
      fabric_(fabric),
      node_(node),
      cfg_(cfg),
      store_(std::make_unique<core::KVStore>(cfg.store)),
      ring_(cfg.ring_bytes),
      cursor_{cfg.ring_bytes, 0} {
  ring_mr_ = fabric_.node(node_).register_memory(ring_.bytes());
  ring_mr_->set_write_hook(guard([this](std::uint64_t, std::uint32_t) { on_ring_write(); }));
}

void SecondaryShard::attach_primary(fabric::QueuePair* qp_to_primary,
                                    fabric::RemoteAddr ack_slot) {
  qp_to_primary_ = qp_to_primary;
  ack_slot_ = ack_slot;
}

fabric::MemoryRegion* SecondaryShard::promo_slab(std::uint32_t slot_bytes,
                                                 std::uint32_t slots) {
  if (promo_mr_ == nullptr) {
    promo_ = fabric::RegisteredBuffer(static_cast<std::size_t>(slot_bytes) * slots);
    promo_mr_ = fabric_.node(node_).register_memory(promo_.bytes());
  }
  return promo_mr_;
}

fabric::MemoryRegion* SecondaryShard::failover_arena() {
  if (arena_mr_ == nullptr) {
    arena_ = fabric::RegisteredBuffer(kFailoverArenaBytes);
    arena_mr_ = fabric_.node(node_).register_memory(arena_.bytes());
    arena_mr_->set_write_hook(
        guard([this](std::uint64_t, std::uint32_t) { note_liveness(); }));
  }
  return arena_mr_;
}

void SecondaryShard::enable_suspicion(Duration deadline,
                                      std::function<void(SecondaryShard&)> on_suspect) {
  suspicion_deadline_ = deadline;
  on_suspect_ = std::move(on_suspect);
  last_signal_ = now();
  suspected_ = false;
  arm_suspicion_tick();
}

void SecondaryShard::note_liveness() {
  last_signal_ = now();
}

void SecondaryShard::arm_suspicion_tick() {
  if (suspicion_tick_armed_ || suspicion_deadline_ == 0) return;
  suspicion_tick_armed_ = true;
  // Half-deadline ticks bound detection latency at 1.5x the deadline while
  // keeping the tick volume modest.
  schedule_after(suspicion_deadline_ / 2, [this] { suspicion_tick(); });
}

void SecondaryShard::suspicion_tick() {
  suspicion_tick_armed_ = false;
  if (suspected_) return;  // one-shot until reset_stream() re-arms
  const Duration silent = now() - last_signal_;
  if (silent >= suspicion_deadline_) {
    suspected_ = true;
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(now(), node_, obs::TraceKind::kSuspicionRaised,
                           cfg_.primary_shard, static_cast<std::uint64_t>(silent));
    }
    if (on_suspect_) on_suspect_(*this);
    return;  // ticking resumes when a new primary attaches
  }
  arm_suspicion_tick();
}

void SecondaryShard::drain_ring() {
  if (store_ == nullptr) return;
  while (true) {
    std::span<std::byte> at{ring_.data() + cursor_.offset, ring_.size() - cursor_.offset};
    if (!frame_landed(at)) break;
    consume_frame(at);
  }
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(now(), node_, obs::TraceKind::kRingDrained, cfg_.primary_shard,
                         applied_seq_);
  }
}

std::unique_ptr<core::KVStore> SecondaryShard::release_store() {
  // The ring hook must stop mutating the store we are giving away.
  ring_mr_->set_write_hook(nullptr);
  return std::move(store_);
}

void SecondaryShard::kill() {
  ring_mr_->revoke();
  if (promo_mr_ != nullptr) promo_mr_->revoke();
  if (arena_mr_ != nullptr) arena_mr_->revoke();
  sim::Actor::kill();
}

void SecondaryShard::reset_stream() {
  // Promoted copies belong to the old primary's promotion set; zero the
  // slab so a stale client pointer can never validate against them (the
  // guardian word is gone along with everything else).
  promo_.zero(0, promo_.size());
  ring_.zero(0, ring_.size());
  cursor_ = RingCursor{cfg_.ring_bytes, 0};
  applied_seq_ = 0;
  first_failed_seq_ = 0;
  polling_ = false;
  // Fast failover: a revocation round fenced the old primary by revoking
  // this ring's rkey. The new primary needs a writable ring, so re-register
  // under a fresh rkey -- in-flight ops against the dead rkey keep failing
  // cleanly -- and re-install the consumption hook.
  if (ring_mr_->revoked()) {
    ring_mr_ = fabric_.reregister_mr(node_, ring_mr_);
    ring_mr_->set_write_hook(
        guard([this](std::uint64_t, std::uint32_t) { on_ring_write(); }));
  }
  // New primary, fresh suspicion epoch: clear the pulse/ballot words and
  // resume deadline ticking.
  arena_.zero(0, arena_.size());
  last_signal_ = now();
  suspected_ = false;
  arm_suspicion_tick();
}

void SecondaryShard::on_ring_write() {
  note_liveness();
  if (polling_) return;  // the loop is awake; it will reach the new frame
  polling_ = true;
  schedule_after(cfg_.poll_backoff, [this] { poll_loop(); });
}

bool SecondaryShard::frame_landed(std::span<const std::byte> at) const {
  return proto::poll_frame(at).has_value() &&
         (proto::frame_flags(at) & kFlagOddLap) == cursor_.lap_flag();
}

void SecondaryShard::poll_loop() {
  std::span<std::byte> at{ring_.data() + cursor_.offset, ring_.size() - cursor_.offset};
  if (!frame_landed(at)) {
    polling_ = false;  // go idle; the write hook re-arms us
    return;
  }
  const Duration cost = consume_frame(at);
  schedule_after(cost, [this] { poll_loop(); });
}

Duration SecondaryShard::consume_frame(std::span<std::byte> frame) {
  const std::uint16_t flags = proto::frame_flags(frame);
  const auto payload = proto::frame_payload(frame);
  const std::uint64_t framed = proto::frame_size(payload.size());

  if (flags & kFlagWrap) {
    // Zero the marker and the slack behind it: a later lap may place a frame
    // boundary inside the slack, where a stale frame from two laps back
    // would carry that lap's flag. Every write to these bytes landed before
    // the marker did (ring bytes are reused only once their write landed).
    ring_.zero(cursor_.offset, ring_.size() - cursor_.offset);
    cursor_.wrap();
    return cfg_.poll_backoff;  // nominal cost to jump
  }

  if (flags & kFlagAckProbe) {
    // The primary lost (or never got) our last acknowledgement -- a torn
    // ack write, or a stalled stream hitting its ack deadline. Re-send the
    // cumulative state; carries no record, so the sequence stream is
    // untouched.
    proto::clear_frame(frame);
    cursor_.place(framed);
    const Duration cost = cfg_.poll_backoff + cfg_.ack_post_cost;
    schedule_after(cost, [this] { send_ack(); });
    return cost;
  }

  Duration cost = cfg_.apply_base;
  const auto rec = proto::decode_rep_record(payload);
  proto::clear_frame(frame);
  cursor_.place(framed);

  if (!rec.has_value()) {
    // Corrupt record: same treatment as a failed apply.
    if (first_failed_seq_ == 0) first_failed_seq_ = applied_seq_ + 1;
    ++discarded_;
  } else if (first_failed_seq_ != 0 && rec->seq != first_failed_seq_) {
    // Failed earlier: discard followers until the rollback resend arrives.
    ++discarded_;
  } else if (rec->seq <= applied_seq_) {
    ++discarded_;  // duplicate from a resend; idempotent skip
  } else if (rec->seq != applied_seq_ + 1) {
    // Gap: something upstream went missing; refuse and report.
    if (first_failed_seq_ == 0) first_failed_seq_ = applied_seq_ + 1;
    ++discarded_;
  } else if (fail_budget_ > 0) {
    --fail_budget_;
    if (first_failed_seq_ == 0) first_failed_seq_ = rec->seq;
    ++discarded_;
    HYDRA_DEBUG("secondary %s: injected failure at seq %llu", name().c_str(),
                static_cast<unsigned long long>(rec->seq));
  } else {
    // Healthy apply: merge into the replica store with the primary's
    // operation timestamp so lease state replays identically.
    if (rec->op == proto::MsgType::kRemove) {
      store_->remove(rec->key, rec->op_time);
    } else {
      store_->put(rec->key, rec->value, rec->op_time);
    }
    store_->collect_garbage(now());
    applied_seq_ = rec->seq;
    first_failed_seq_ = 0;  // a successful resend clears the failure
    ++applied_records_;
    cost += static_cast<Duration>(cfg_.per_value_byte * static_cast<double>(rec->value.size()));
  }

  if (flags & proto::kFlagAckRequest) {
    // The acknowledgement leaves only after the apply work is done -- the
    // secondary's CPU is on the strict-mode critical path, which is exactly
    // why strict request/acknowledge doubles write latency (Fig 13).
    cost += cfg_.ack_post_cost;
    schedule_after(cost, [this] { send_ack(); });
  }
  return cost;
}

void SecondaryShard::send_ack() {
  if (qp_to_primary_ == nullptr) return;
  proto::RepAck ack;
  ack.acked_seq = applied_seq_;
  ack.first_failed_seq = first_failed_seq_;
  const auto payload = proto::encode_rep_ack(ack);
  std::vector<std::byte> framed(proto::frame_size(payload.size()));
  proto::encode_frame(framed, payload);
  qp_to_primary_->post_write(framed, ack_slot_);
}

}  // namespace hydra::replication
