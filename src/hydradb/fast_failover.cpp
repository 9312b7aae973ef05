#include "hydradb/fast_failover.hpp"

#include "common/logging.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "hydradb/swat.hpp"

namespace hydra::db {
namespace {

/// Ring-write suspicion deadline = pulse_interval * kMissedPulses.
constexpr int kMissedPulses = 4;
/// Unconfirmed revocations retried this many times before the round aborts
/// and the legacy session-timeout path takes over.
constexpr int kMaxRevokeAttempts = 3;

}  // namespace

FastFailover::FastFailover(HydraCluster& cluster, FastFailoverConfig cfg)
    : cluster_(cluster), cfg_(cfg) {}

void FastFailover::attach_secondary(ShardId id, replication::SecondaryShard& sec) {
  const Duration deadline =
      cfg_.pulse_interval * static_cast<Duration>(kMissedPulses);
  sec.enable_suspicion(
      deadline, [this, id](replication::SecondaryShard& s) { on_suspect(id, s); });
}

void FastFailover::on_suspect(ShardId id, replication::SecondaryShard& sec) {
  if (!sec.alive()) return;
  auto& slots = cluster_.primaries_;
  if (id >= slots.size() || slots[id].retired) return;
  auto& slot = slots[id];

  ++rounds_started_;
  ++active_rounds_[id];
  auto r = std::make_shared<Round>();
  r->shard = id;
  r->candidate = &sec;
  r->generation = slot.generation;
  // Fence first, ask questions later: revoke the suspected primary's write
  // permission to EVERY live replica ring. Once all revocations apply, no
  // replicated write can complete, so no acknowledgement can escape --
  // fail-stop holds even if the suspicion was wrong (the primary was merely
  // slow, or chaos ate its pulses). Availability costs a promotion; safety
  // costs nothing.
  for (auto& s : slot.secondaries) {
    if (s->alive()) r->targets.push_back(s.get());
  }
  if (r->targets.empty()) {
    abort_round(r);
    return;
  }
  HYDRA_INFO("fast-failover: shard %u suspected by node %u; revoking %zu ring rkeys",
             id, sec.node(), r->targets.size());
  r->revocations_left = r->targets.size();
  for (auto* t : r->targets) revoke_target(r, t, 1);
}

void FastFailover::revoke_target(const std::shared_ptr<Round>& r,
                                 replication::SecondaryShard* target, int attempt) {
  const std::uint32_t rkey = target->ring_mr()->rkey();
  cluster_.fabric_.revoke_rkey(
      target->node(), rkey, cfg_.revoke_latency,
      [this, r, target, attempt](bool confirmed) {
        if (r->done) return;
        if (confirmed) {
          one_revocation_done(r);
          return;
        }
        if (!target->alive()) {
          // A dead replica cannot receive (let alone acknowledge) a write;
          // its ring needs no fencing. Count it revoked.
          one_revocation_done(r);
          return;
        }
        if (attempt >= kMaxRevokeAttempts) {
          // A live ring we cannot confirm fenced: promotion would risk a
          // not-actually-fenced primary acking writes behind our back.
          // Abort; the legacy session-timeout path remains armed.
          HYDRA_WARN("fast-failover: shard %u revocation unconfirmed after %d "
                     "attempts; aborting round",
                     r->shard, attempt);
          abort_round(r);
          return;
        }
        // Torn delivery: the verb is idempotent, so re-revoking a region the
        // lost confirmation already revoked simply confirms it.
        revoke_target(r, target, attempt + 1);
      });
}

void FastFailover::one_revocation_done(const std::shared_ptr<Round>& r) {
  if (--r->revocations_left == 0) cast_ballot(r);
}

void FastFailover::cast_ballot(const std::shared_ptr<Round>& r) {
  auto& slot = cluster_.primaries_[r->shard];
  if (slot.retired || slot.generation != r->generation || !r->candidate->alive()) {
    abort_round(r);
    return;
  }
  // The decision arena is the first live replica's (slot order is shared
  // cluster state, so concurrent candidate rounds of one generation resolve
  // to the same arena and the CAS serializes them; cross-generation races
  // are caught by the generation check at completion).
  replication::SecondaryShard* decider = nullptr;
  for (auto& s : slot.secondaries) {
    if (s->alive()) {
      decider = s.get();
      break;
    }
  }
  if (decider == nullptr) {
    abort_round(r);
    return;
  }
  fabric::MemoryRegion* arena = decider->failover_arena();
  const std::uint64_t token = static_cast<std::uint64_t>(r->candidate->node()) + 1;
  auto [cq, sq] = cluster_.fabric_.connect(r->candidate->node(), decider->node());
  (void)sq;
  if (cluster_.obs() != nullptr) {
    cluster_.obs()->trace(cluster_.sched_.now(), r->candidate->node(),
                          obs::TraceKind::kBallotCast, r->shard, token, arena->rkey());
  }
  cq->post_cas(
      fabric::RemoteAddr{arena->rkey(), replication::SecondaryShard::kBallotOffset},
      /*compare=*/0, /*swap=*/token, /*wr_id=*/0,
      [this, r, cq, token](const fabric::Completion& wc) {
        cluster_.fabric_.disconnect(cq);
        if (r->done) return;
        if (wc.status != fabric::WcStatus::kSuccess) {
          // Decision replica died (or chaos flushed the atomic) mid-round.
          abort_round(r);
          return;
        }
        if (wc.old_value != 0 && wc.old_value != token) {
          ++ballots_lost_;
          if (cluster_.obs() != nullptr) {
            cluster_.obs()->trace(cluster_.sched_.now(), r->candidate->node(),
                                  obs::TraceKind::kBallotLost, r->shard, token,
                                  wc.old_value);
          }
          // The winner's round performs the promotion; just step aside.
          r->done = true;
          end_round(r->shard);
          return;
        }
        if (cluster_.obs() != nullptr) {
          cluster_.obs()->trace(cluster_.sched_.now(), r->candidate->node(),
                                obs::TraceKind::kBallotWon, r->shard, token);
        }
        complete_round(r);
      });
}

void FastFailover::complete_round(const std::shared_ptr<Round>& r) {
  r->done = true;
  auto& slot = cluster_.primaries_[r->shard];
  if (slot.retired || slot.generation != r->generation || !r->candidate->alive()) {
    ++rounds_aborted_;
    end_round(r->shard);
    return;
  }
  // A still-running primary here means the suspicion was wrong about the
  // *process* but the fencing already happened: its ring rkeys are revoked,
  // so it cannot complete another replicated write -- it is operationally
  // dead. Kill it before promoting so promote_secondary's duplicate-event
  // check sees a corpse rather than refusing and stranding the shard.
  if (slot.primary != nullptr && slot.primary->alive()) {
    HYDRA_WARN("fast-failover: shard %u primary still running but fenced; killing",
               r->shard);
    if (cluster_.obs() != nullptr) {
      cluster_.obs()->trace(cluster_.sched_.now(), kInvalidNode, obs::TraceKind::kFenced,
                            r->shard, 2);
    }
    slot.primary->kill();
  }
  if (cluster_.promote_secondary(r->shard, r->candidate)) {
    ++promotions_;
  } else {
    ++rounds_aborted_;
  }
  end_round(r->shard);
}

void FastFailover::abort_round(const std::shared_ptr<Round>& r) {
  r->done = true;
  ++rounds_aborted_;
  end_round(r->shard);
}

void FastFailover::end_round(ShardId id) {
  auto it = active_rounds_.find(id);
  if (it != active_rounds_.end() && --it->second <= 0) active_rounds_.erase(it);
  // Release the double-promotion guard: any primary-death znode deletion
  // SWAT deferred while this round ran is re-drained now. If we promoted,
  // the re-drain sees a live primary (or a re-registered znode) and no-ops;
  // if we aborted, the legacy path takes over from here.
  if (cluster_.swat_ != nullptr) cluster_.swat_->redrain();
}

}  // namespace hydra::db
