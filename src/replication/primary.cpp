#include "replication/primary.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hpp"
#include "obs/plane.hpp"

namespace hydra::replication {
namespace {

/// In-place retransmit budget per frame. Real RC hardware retries a bounded
/// number of times before moving the QP to the error state; we mirror that
/// by quarantining the link when a frame refuses to land.
constexpr int kMaxWriteAttempts = 8;

/// Ack-progress deadline: while records are pending and no ack (or write
/// completion) has arrived for this long, the primary writes an ack-probe
/// frame to re-solicit the secondary's cumulative ack. This is the recovery
/// path for torn/lost acks and the liveness probe for stalled replicas.
constexpr Duration kAckTimeout = 1 * kMillisecond;

}  // namespace

ReplicationPrimary::ReplicationPrimary(sim::Actor& owner, fabric::Fabric& fabric,
                                       NodeId node, PrimaryConfig cfg)
    : owner_(owner), fabric_(fabric), node_(node), cfg_(cfg) {}

void ReplicationPrimary::add_secondary(SecondaryShard& secondary) {
  // Align the secondary's consumption state with this (possibly new)
  // primary's sequence numbering and ring cursor.
  secondary.reset_stream();
  auto link = std::make_unique<Link>();
  link->secondary = &secondary;
  auto [primary_qp, secondary_qp] = fabric_.connect(node_, secondary.node());
  link->qp = primary_qp;
  link->qp_generation = primary_qp->generation();
  link->ring_rkey = secondary.ring_mr()->rkey();
  link->cursor = RingCursor{secondary.ring_mr()->length(), 0};
  link->last_progress = owner_.now();
  link->ack_buf.resize(256);
  link->ack_mr = fabric_.node(node_).register_memory(link->ack_buf);

  Link* raw = link.get();
  link->ack_mr->set_write_hook(
      owner_.guard([this, raw](std::uint64_t, std::uint32_t) { on_ack(*raw); }));
  secondary.attach_primary(secondary_qp, link->ack_mr->addr(0));
  if (cfg_.pulse_interval > 0) {
    // Fast failover on: learn the replica's (lazily registered) failover
    // arena and start pulsing. Off, no arena is ever registered, keeping
    // rkey sequences -- and therefore histories -- byte-identical.
    link->arena_rkey = secondary.failover_arena()->rkey();
  }
  links_.push_back(std::move(link));
  if (cfg_.pulse_interval > 0) arm_pulse_timer();
}

void ReplicationPrimary::remove_secondary(SecondaryShard& secondary) {
  for (auto& link : links_) {
    if (link->secondary == &secondary) {
      quarantine(*link);
      return;
    }
  }
}

void ReplicationPrimary::disconnect_links() {
  for (const auto& link : links_) {
    if (link->qp->open() && link->qp->generation() == link->qp_generation) {
      fabric_.disconnect(link->qp);
    }
  }
}

std::size_t ReplicationPrimary::secondary_count() const noexcept {
  std::size_t live = 0;
  for (const auto& link : links_) {
    if (!link->dead) ++live;
  }
  return live;
}

void ReplicationPrimary::for_each_live_link(
    const std::function<void(SecondaryShard&, fabric::QueuePair&)>& fn) {
  for (const auto& link : links_) {
    if (link->dead || link->secondary == nullptr || !link->secondary->alive()) continue;
    if (link->qp == nullptr) continue;
    fn(*link->secondary, *link->qp);
  }
}

std::vector<std::uint32_t> ReplicationPrimary::ack_rkeys() const {
  std::vector<std::uint32_t> keys;
  for (const auto& link : links_) {
    if (link->ack_mr != nullptr) keys.push_back(link->ack_mr->rkey());
  }
  return keys;
}

std::size_t ReplicationPrimary::replicate(proto::RepRecord rec, std::function<void()> done,
                                          bool hold) {
  const std::size_t live = secondary_count();
  if (live == 0 || cfg_.mode == ReplicationMode::kNone) {
    if (done) done();
    return 0;
  }
  rec.seq = assign_seq();
  hold = hold && cfg_.mode == ReplicationMode::kLogRelaxed;
  const EncodedRecord encoded{
      rec.seq, std::make_shared<const std::vector<std::byte>>(proto::encode_rep_record(rec))};

  if (cfg_.mode == ReplicationMode::kStrictAck) {
    strict_waiters_.emplace(rec.seq, std::move(done));
    done = nullptr;
  }

  // Relaxed mode: the callback fires once the RDMA Write to every live
  // secondary's ring has completed (one NIC-level round trip, no
  // secondary CPU on the critical path).
  auto remaining = std::make_shared<std::size_t>(live);
  auto on_write = [remaining, done = std::move(done)]() {
    if (--*remaining == 0 && done) done();
  };

  for (auto& link : links_) {
    if (link->dead) continue;
    link->pending.push_back(PendingRecord{encoded});
    // A record not held joins a held run as its last; with none held it
    // posts alone.
    holding_ = hold || !link->held.empty();
    if (!link->backlog.empty() || !write_record(*link, encoded, on_write)) {
      link->backlog.push_back(encoded);
      ++backlogged_;
      // on_write stays owed; flush_backlog settles it when space frees.
      link->backlog_completions.push_back(on_write);
    }
    holding_ = false;
    if (!hold) ring(*link);
    arm_ack_timer(*link);
  }
  return proto::frame_size(encoded.payload->size());
}

bool ReplicationPrimary::can_hold() const noexcept {
  if (cfg_.mode != ReplicationMode::kLogRelaxed) return false;
  const std::uint32_t longest = std::min(cfg_.ack_interval, kMaxRunRecords);
  return std::none_of(links_.begin(), links_.end(), [longest](const auto& link) {
    return !link->dead && link->run_records + 1 >= longest;
  });
}

std::size_t ReplicationPrimary::ring() {
  std::size_t rung = 0;
  for (auto& link : links_) rung += ring(*link) ? 1 : 0;
  return rung;
}

bool ReplicationPrimary::ring(Link& link) {
  if (link.held.empty()) return false;
  auto run = std::exchange(link.held, {});
  link.run_records = 0;
  bool batched = false;
  for (RingWrite& write : run) {
    post_attempt(link, std::move(write), 1, batched);
    batched = true;  // the span after a wrap rides the same doorbell
  }
  return true;
}

bool ReplicationPrimary::write_record(Link& link, const EncodedRecord& rec,
                                      std::function<void()> on_write_complete) {
  const std::uint64_t framed_size = proto::frame_size(rec.payload->size());
  std::uint64_t waste = 0;

  if (link.cursor.needs_wrap(framed_size)) {
    waste = link.cursor.wrap_waste();
    if (link.used_bytes + framed_size + waste > link.cursor.ring_size) {
      link.awaiting_space = true;
      return false;
    }
    // Wrap marker tells the consumer to jump to offset 0.
    post_frame(link, link.cursor.offset, {}, kFlagWrap, {});
    link.cursor.wrap();
  } else if (link.used_bytes + framed_size > link.cursor.ring_size) {
    link.awaiting_space = true;
    return false;
  }

  ++link.since_ack_request;
  std::uint16_t flags = proto::kFlagNone;
  const bool pressure = link.used_bytes + framed_size > link.cursor.ring_size / 2;
  if (cfg_.mode == ReplicationMode::kStrictAck ||
      link.since_ack_request >= cfg_.ack_interval || pressure) {
    flags |= proto::kFlagAckRequest;
    link.since_ack_request = 0;
  }

  const std::uint64_t at = link.cursor.place(framed_size);
  link.used_bytes += framed_size + waste;
  if (holding_) ++link.run_records;
  const std::uint64_t id =
      post_frame(link, at, *rec.payload, flags, std::move(on_write_complete));
  // Record the ring footprint on the pending entry so the ack can free it.
  for (auto it = link.pending.rbegin(); it != link.pending.rend(); ++it) {
    if (it->rec.seq == rec.seq) {
      it->footprint += framed_size + waste;
      it->last_id = id;
      break;
    }
  }
  return true;
}

bool ReplicationPrimary::write_control_frame(Link& link, std::uint16_t flags) {
  const std::uint64_t framed_size = kWrapMarkerBytes;
  std::uint64_t waste = 0;
  if (link.cursor.needs_wrap(framed_size)) {
    waste = link.cursor.wrap_waste();
    if (link.used_bytes + framed_size + waste > link.cursor.ring_size) return false;
    post_frame(link, link.cursor.offset, {}, kFlagWrap, {});
    link.cursor.wrap();
  } else if (link.used_bytes + framed_size > link.cursor.ring_size) {
    return false;
  }

  const std::uint64_t at = link.cursor.place(framed_size);
  link.used_bytes += framed_size + waste;
  // Charge the control frame to the oldest pending record so the next
  // cumulative ack frees its bytes (callers only probe while records are
  // outstanding).
  if (!link.pending.empty()) link.pending.front().footprint += framed_size + waste;
  post_frame(link, at, {}, flags, {});
  return true;
}

std::uint64_t ReplicationPrimary::post_frame(Link& link, std::uint64_t at,
                                             std::span<const std::byte> payload,
                                             std::uint16_t flags, std::function<void()> settle) {
  if (!holding_) ring(link);  // a post that does not extend the run keeps ring order
  const std::uint64_t id = link.landing_base + link.landing.size();
  link.landing.push_back(Landing{false, std::move(settle)});
  if (link.held.empty() || link.held.back().at + link.held.back().bytes.size() != at) {
    link.held.push_back(RingWrite{{}, at, id, 0});
  }
  RingWrite& write = link.held.back();
  const std::size_t offset = write.bytes.size();
  write.bytes.resize(offset + proto::frame_size(payload.size()));
  proto::encode_frame(std::span(write.bytes).subspan(offset), payload,
                      flags | link.cursor.lap_flag());
  ++write.frames;
  if (!holding_) ring(link);
  return id;
}

void ReplicationPrimary::post_attempt(Link& link, RingWrite write, int attempt, bool batched) {
  // The completion owns the staged bytes so a torn or dropped delivery can
  // be retransmitted to the *same* span (RC retransmit). The consumer never
  // advances past an incomplete frame, and frames it already took come back
  // carrying their lap's flag, so rewriting in place is race-free.
  const auto span = std::span<const std::byte>(write.bytes);
  const fabric::RemoteAddr dst{link.ring_rkey, write.at};
  const std::uint32_t frames = write.frames;
  auto handler = owner_.guard(
      [this, lp = &link, write = std::move(write), attempt](const fabric::Completion& wc) mutable {
        if (wc.status != fabric::WcStatus::kSuccess) {
          on_write_error(*lp, std::move(write), attempt, wc.status);
          return;
        }
        lp->last_progress = owner_.now();
        if (!lp->dead) {
          land(*lp, write);
          return;
        }
        for (auto& settle : take_settles(*lp, write)) settle();
      });
  ++ring_writes_;
  if (!batched) ++doorbells_;
  link.qp->post_write(span, dst, 0,
                      [handler = std::move(handler)](const fabric::Completion& wc) mutable {
                        handler(wc);
                      },
                      batched, frames);
}

void ReplicationPrimary::land(Link& link, const RingWrite& write) {
  for (std::uint32_t i = 0; i < write.frames; ++i) {
    link.landing[write.first_id + i - link.landing_base].landed = true;
  }
  while (!link.landing.empty() && link.landing.front().landed) {
    auto settle = std::move(link.landing.front().settle);
    link.landing.pop_front();
    ++link.landing_base;
    if (settle) settle();
  }
  if (release(link) && !link.backlog.empty()) flush_backlog(link);
}

std::vector<std::function<void()>> ReplicationPrimary::take_settles(Link& link,
                                                                     const RingWrite& write) {
  std::vector<std::function<void()>> out;
  for (std::uint64_t id = std::max(write.first_id, link.landing_base);
       id < write.first_id + write.frames; ++id) {
    if (auto& settle = link.landing[id - link.landing_base].settle) {
      out.push_back(std::exchange(settle, {}));
    }
  }
  return out;
}

bool ReplicationPrimary::release(Link& link) {
  bool freed = false;
  while (!link.pending.empty() && link.pending.front().rec.seq <= link.acked_seq &&
         link.pending.front().last_id < link.landing_base) {
    link.used_bytes -= std::min(link.used_bytes, link.pending.front().footprint);
    link.pending.pop_front();
    freed = true;
  }
  return freed;
}

void ReplicationPrimary::on_write_error(Link& link, RingWrite write, int attempt,
                                        fabric::WcStatus status) {
  if (link.dead) {
    // Already quarantined; the caller was settled by the quarantine sweep --
    // but this write's settles travelled with the retry chain, so fire them.
    for (auto& settle : take_settles(link, write)) settle();
    return;
  }
  const bool live = link.secondary != nullptr && link.secondary->alive();
  // A *live* replica completing our write kProtectionError revoked the rkey,
  // i.e. the failover plane fenced this primary (DESIGN.md §14). A revoked
  // rkey never heals, so retrying would just burn the retransmit budget
  // before quarantining anyway.
  if (live && status != fabric::WcStatus::kProtectionError && attempt < kMaxWriteAttempts) {
    ++write_retries_;
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(owner_.now(), node_, obs::TraceKind::kRetransmit, obs::kNoShard,
                           write.at, static_cast<std::uint64_t>(attempt));
    }
    ring(link);  // the retransmit is a post of its own: ring the held run first
    post_attempt(link, std::move(write), attempt + 1, /*batched=*/false);
    return;
  }
  // Settle now: quarantine (or the fence) fires everything owed.
  for (auto& settle : take_settles(link, write)) {
    link.backlog_completions.push_back(std::move(settle));
  }
  if (live && status == fabric::WcStatus::kProtectionError) {
    fenced_by_replica(link);
    return;
  }
  if (live) {
    HYDRA_WARN("replication: ring write at offset %llu refused to land after %d attempts "
               "(status %d); quarantining link to %s",
               static_cast<unsigned long long>(write.at), attempt, static_cast<int>(status),
               link.secondary->name().c_str());
  }
  quarantine(link);
}

void ReplicationPrimary::flush_backlog(Link& link) {
  link.awaiting_space = false;
  while (!link.backlog.empty()) {
    const EncodedRecord rec = link.backlog.front();
    auto cb = link.backlog_completions.empty() ? std::function<void()>{}
                                               : link.backlog_completions.front();
    if (!write_record(link, rec, cb)) return;  // still no space
    link.backlog.pop_front();
    if (!link.backlog_completions.empty()) link.backlog_completions.pop_front();
  }
}

void ReplicationPrimary::on_ack(Link& link) {
  if (link.dead) return;
  switch (proto::probe_frame(link.ack_buf)) {
    case proto::FrameState::kEmpty:
      return;  // hook fired for a write we already consumed
    case proto::FrameState::kPartial:
    case proto::FrameState::kMalformed:
      // Torn ack write: the slot is single-producer and the write that tore
      // will never finish, so scrub the slot and ask the secondary to
      // re-acknowledge instead of silently dropping the ack.
      ++torn_acks_;
      if (fabric_.obs() != nullptr) {
        fabric_.obs()->trace(owner_.now(), node_, obs::TraceKind::kTornAck);
      }
      std::fill(link.ack_buf.begin(), link.ack_buf.end(), std::byte{0});
      solicit_ack(link);
      arm_ack_timer(link);
      return;
    case proto::FrameState::kReady:
      break;
  }
  const auto ack = proto::decode_rep_ack(proto::frame_payload(link.ack_buf));
  proto::clear_frame(link.ack_buf);
  if (!ack.has_value()) {
    // Framing intact but the payload didn't decode: treat like a torn ack.
    ++torn_acks_;
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(owner_.now(), node_, obs::TraceKind::kTornAck);
    }
    solicit_ack(link);
    arm_ack_timer(link);
    return;
  }
  ++acks_received_;
  link.last_progress = owner_.now();
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(owner_.now(), node_, obs::TraceKind::kAckReceived, obs::kNoShard,
                         ack->acked_seq, ack->first_failed_seq);
  }

  link.acked_seq = std::max(link.acked_seq, ack->acked_seq);
  release(link);

  if (ack->first_failed_seq != 0 && ack->first_failed_seq > link.acked_seq) {
    resend_from(link, ack->first_failed_seq);
  }
  if (!link.backlog.empty()) flush_backlog(link);
  if (cfg_.mode == ReplicationMode::kStrictAck) fire_strict_waiters();
}

void ReplicationPrimary::resend_from(Link& link, std::uint64_t first_failed_seq) {
  HYDRA_DEBUG("replication: rolling back to seq %llu and resending %zu records",
              static_cast<unsigned long long>(first_failed_seq), link.pending.size());
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(owner_.now(), node_, obs::TraceKind::kRollback, obs::kNoShard,
                         first_failed_seq);
  }
  for (auto& p : link.pending) {
    if (p.rec.seq < first_failed_seq) continue;
    ++resends_;
    if (!write_record(link, p.rec, {})) {
      link.backlog.push_back(p.rec);
      link.backlog_completions.push_back({});
    }
  }
}

void ReplicationPrimary::fire_strict_waiters() {
  std::uint64_t min_acked = ~std::uint64_t{0};
  bool any_live = false;
  for (const auto& link : links_) {
    if (link->dead) continue;
    any_live = true;
    min_acked = std::min(min_acked, link->acked_seq);
  }
  // With no live replica left there is nothing to wait for: fire every
  // waiter rather than wedging callers behind a corpse's acked_seq (the
  // write is as durable as a replication factor of zero allows).
  while (!strict_waiters_.empty() &&
         (!any_live || strict_waiters_.begin()->first <= min_acked)) {
    auto done = std::move(strict_waiters_.begin()->second);
    strict_waiters_.erase(strict_waiters_.begin());
    if (done) done();
  }
}

void ReplicationPrimary::quarantine(Link& link) {
  if (link.dead) return;
  link.dead = true;
  ++quarantined_;
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(owner_.now(), node_, obs::TraceKind::kQuarantine, obs::kNoShard,
                         link.secondary != nullptr ? link.secondary->node() : kInvalidNode);
  }
  if (link.ack_mr != nullptr) link.ack_mr->set_write_hook(nullptr);
  HYDRA_DEBUG("replication: quarantining link to %s (%zu completions owed)",
              link.secondary != nullptr ? link.secondary->name().c_str() : "?",
              link.backlog_completions.size());

  // Settle everything owed through this link: the replica is gone and
  // SWAT-level repair (promotion / respawn) restores the factor; the write
  // path must never wedge behind a corpse. If the owning shard itself has
  // crashed (promotion pruning a dead primary's links), the completions die
  // with it instead -- crash semantics, same as every guarded callback.
  // Frames that landed behind one that never did are owed too, and so are
  // held frames; those still in flight settle with their own completion.
  std::deque<std::function<void()>> owed;
  for (Landing& l : link.landing) {
    if (l.landed && l.settle) owed.push_back(std::exchange(l.settle, {}));
  }
  // Held frames were never posted, so no completion will settle them.
  for (const RingWrite& write : link.held) {
    for (auto& settle : take_settles(link, write)) owed.push_back(std::move(settle));
  }
  link.held.clear();
  link.run_records = 0;
  for (auto& fn : link.backlog_completions) owed.push_back(std::move(fn));
  link.backlog_completions.clear();
  link.backlog.clear();
  link.pending.clear();
  link.used_bytes = 0;
  if (owner_.alive()) {
    for (auto& fn : owed) {
      if (fn) fn();
    }
    fire_strict_waiters();
  }
}

void ReplicationPrimary::solicit_ack(Link& link) {
  if (link.dead || link.pending.empty()) return;
  if (write_control_frame(link, kFlagAckProbe | proto::kFlagAckRequest)) {
    ++ack_probes_;
    if (fabric_.obs() != nullptr) {
      fabric_.obs()->trace(owner_.now(), node_, obs::TraceKind::kAckProbe);
    }
  }
  // On a full ring the probe is retried by the next ack-timer tick.
}

void ReplicationPrimary::arm_ack_timer(Link& link) {
  if (link.ack_timer_armed) return;
  link.ack_timer_armed = true;
  Link* raw = &link;
  owner_.schedule_after(kAckTimeout, [this, raw] { on_ack_timer(*raw); });
}

void ReplicationPrimary::on_ack_timer(Link& link) {
  link.ack_timer_armed = false;
  if (link.dead || link.pending.empty()) return;  // nothing outstanding
  if (owner_.now() - link.last_progress >= kAckTimeout) {
    if (link.secondary == nullptr || !link.secondary->alive()) {
      // Dead replica discovered by the deadline probe (it died while we had
      // no writes in flight to observe the failure on).
      quarantine(link);
      return;
    }
    solicit_ack(link);
  }
  arm_ack_timer(link);
}

void ReplicationPrimary::fenced_by_replica(Link& link) {
  ++fence_errors_;
  if (fabric_.obs() != nullptr) {
    fabric_.obs()->trace(owner_.now(), node_, obs::TraceKind::kFenced, obs::kNoShard,
                         /*a=*/3,
                         link.secondary != nullptr ? link.secondary->node() : kInvalidNode);
  }
  // The handler runs *before* quarantine so a self-fencing owner (which
  // kills the shard) makes owner_.alive() false and the quarantine sweep
  // skips settling owed completions -- no acknowledgement ever escapes a
  // fenced primary. Without a handler (standalone engine tests) quarantine
  // settles the waiters as usual.
  if (fence_handler_) fence_handler_();
  quarantine(link);
}

void ReplicationPrimary::arm_pulse_timer() {
  if (pulse_armed_ || cfg_.pulse_interval == 0) return;
  pulse_armed_ = true;
  owner_.schedule_after(cfg_.pulse_interval, [this] { on_pulse_timer(); });
}

void ReplicationPrimary::on_pulse_timer() {
  pulse_armed_ = false;
  // Liveness pulse (DESIGN.md §14): an incrementing word RDMA-Written into
  // each live secondary's failover arena. The arena write hook resets the
  // replica's suspicion deadline, so a healthy primary is never suspected
  // even when the workload leaves its rings idle.
  ++pulse_seq_;
  std::memcpy(pulse_buf_.data(), &pulse_seq_, sizeof(pulse_seq_));
  bool any_pulsed = false;
  for (auto& link : links_) {
    if (link->dead || link->arena_rkey == 0) continue;
    any_pulsed = true;
    Link* raw = link.get();
    ring(*raw);  // the pulse shares the link's QP: ring the held run first
    raw->qp->post_write(
        std::span<const std::byte>(pulse_buf_),
        fabric::RemoteAddr{raw->arena_rkey, SecondaryShard::kPulseOffset}, 0,
        owner_.guard([this, raw](const fabric::Completion& wc) {
          // A landed pulse is not stream progress: it must not hold off the
          // ack-deadline probe that recovers a lost ack.
          if (raw->dead || wc.status == fabric::WcStatus::kSuccess) return;
          if (raw->secondary == nullptr || !raw->secondary->alive()) {
            quarantine(*raw);
            return;
          }
          if (wc.status == fabric::WcStatus::kProtectionError) fenced_by_replica(*raw);
          // kFlushed/kRemoteDead against a still-live replica: transient
          // fault-injection loss; the next pulse re-covers it.
        }));
  }
  if (any_pulsed) arm_pulse_timer();
}

}  // namespace hydra::replication
