// The fast-failover family (DESIGN.md §14): the PUT stream on a cluster
// with fast failover on, under the fault points the agreement protocol must
// survive -- the primary killed mid-ring-write, torn and dropped revocation
// verbs, several replicas suspecting at once (split CAS ballots), a SWAT
// kill mid-round, and a live add-migration. On top of the shared checks
// (including "at most one primary per epoch": routing epochs publish
// strictly monotonically) the family verifies that:
//
//   1. each of the victim shard's epochs pairs with exactly one promotion;
//   2. when the fast path is expected to win, the crash-to-promotion gap
//      stays under one millisecond of virtual time (versus ~2.45 s for the
//      legacy session-timeout path, which stays armed as the fallback);
//   3. a fast promotion follows suspicion -> revocation -> ballot.
#include <optional>
#include <utility>

#include "chaos/run.hpp"

namespace hydra::chaos {
namespace {

using replication::ReplicationMode;

std::vector<Schedule> scripted() {
  std::vector<Schedule> out;
  auto add = [&](std::string name) -> Schedule& {
    return out.emplace_back(make_schedule(Family::kFailover, std::move(name)));
  };
  // The headline case: the primary dies while ring writes are on the wire.
  // Both replicas miss the pulse deadline, revoke, and race CAS ballots;
  // the winner must promote within the microsecond bound.
  add("fast-kill-mid-ring-write")
      .faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                         .delay = 2 * kMicrosecond});
  {
    // Strict acks in flight when the primary dies: client retries (not the
    // dead primary's half-finished pipeline) re-drive the records on the
    // promoted replica, and any probe retransmit that lands after the
    // revocation must surface as a fabric permission error, never wedge.
    Schedule& s = add("fast-kill-strict-inflight");
    s.mode = ReplicationMode::kStrictAck;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 2 * kMicrosecond});
  }
  {
    // A torn revocation: the verb applies at the owner but its confirmation
    // is lost. The retry re-revokes an already-revoked region (idempotent)
    // and the round still completes fast.
    Schedule& s = add("fast-torn-revocation");
    s.faults.push_back({.kind = FaultKind::kTearRevocation, .index = 1, .at_op = 12});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
  }
  {
    // A dropped revocation: the verb is lost entirely; the retry must
    // deliver and the round still beats the millisecond bound.
    Schedule& s = add("fast-dropped-revocation");
    s.faults.push_back({.kind = FaultKind::kDropRevocation, .index = 1, .at_op = 12});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
  }
  {
    // Revocation storm: every revoke verb is dropped, the retry budget
    // exhausts, every round aborts -- the legacy session-timeout promotion
    // must still recover the shard (the fallback ordering argument).
    Schedule& s = add("fast-revocation-storm-falls-back");
    s.expect_fast = false;
    s.faults.push_back({.kind = FaultKind::kDropRevocation, .index = 64, .at_op = 10});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 2 * kMicrosecond});
  }
  {
    // Split suspicion: three replicas all suspect at once and cast ballots
    // against the same decision arena; exactly one may win its round.
    Schedule& s = add("fast-split-ballots");
    s.replicas = 3;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
  }
  {
    // The SWAT leader dies in the same instant as the primary: the agreement
    // round must not depend on coordinator liveness (SWAT only publishes the
    // epoch, and any member can).
    Schedule& s = add("fast-swat-kill-mid-round");
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 2 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 10});
  }
  {
    // Legacy/fast interplay: heartbeat suppression past the session timeout
    // self-fences the primary (the legacy path), which silences its pulses
    // -- the fast plane must then promote off the resulting suspicion
    // without double-promoting against SWAT's own reaction.
    Schedule& s = add("fast-suppression-interplay");
    s.ops = 50;
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .at_op = 10,
                        .duration = 3 * kSecond});
  }
  {
    // Composed with a live add-migration (the new shard is 1; the victim
    // stays shard 0): the victim is a copy source, so the flow must be
    // rebuilt from the fast-promoted replica and the migration still commit.
    Schedule& s = add("fast-composed-with-migration");
    s.ops = 48;
    s.migrate_at = 6;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 300 * kMicrosecond});
  }
  return out;
}

Schedule random(std::uint64_t seed) {
  // Decorrelate from the driver's value stream, which hashes the raw seed.
  Xoshiro256 rng(seed * 0xD6E8FEB86659FD93ULL + 0x2545F4914F6CDD1DULL);
  Schedule s = make_schedule(Family::kFailover, "ff-random-" + std::to_string(seed));
  s.ops = 30 + static_cast<std::uint32_t>(rng.below(31));
  s.replicas = 2 + static_cast<int>(rng.below(2));
  s.mode = rng.below(2) == 0 ? ReplicationMode::kStrictAck : ReplicationMode::kLogRelaxed;

  // Every random schedule kills the primary -- the family is about the
  // agreement round, and the other kinds compose around that kill.
  const std::uint32_t kill_op = 5 + static_cast<std::uint32_t>(rng.below(s.ops - 5));
  const auto tears = static_cast<int>(rng.below(3));
  const auto drops = static_cast<int>(rng.below(3));
  // Worst case puts every unconfirmed verb on one target consecutively; the
  // round survives while that streak stays under the retry budget (3).
  s.expect_fast = tears + drops < 3;
  if (tears > 0) {
    s.faults.push_back({.kind = FaultKind::kTearRevocation, .index = tears, .at_op = kill_op});
  }
  if (drops > 0) {
    s.faults.push_back({.kind = FaultKind::kDropRevocation, .index = drops, .at_op = kill_op});
  }
  if (s.replicas == 3 && rng.below(4) == 0) {
    // One replica is already a corpse when suspicion fires; the round must
    // skip it as a revocation target and still agree among the survivors.
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 2,
                        .at_op = kill_op > 5 ? kill_op - 3 : 0,
                        .delay = static_cast<Duration>(rng.below(20 * kMicrosecond))});
  }
  s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = kill_op,
                      .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  if (rng.below(4) == 0) {
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = kill_op,
                        .delay = static_cast<Duration>(rng.below(100 * kMicrosecond))});
  }
  return s;
}

/// The family's own invariants, checked after the PUT driver's final reads.
void audit_fast_failover(Run& r) {
  // Invariant 1: a double promotion would publish two epochs for one
  // death (the legacy and fast paths racing past the double-promotion
  // guard).
  const obs::TraceQuery q = r.plane->query();
  const std::size_t promos = q.count(obs::TraceKind::kPromotionDone, 0);
  const std::size_t epochs = q.count(obs::TraceKind::kEpochPublished, 0);
  if (promos != epochs) {
    r.violation("shard 0 published " + std::to_string(epochs) + " epochs for " +
                std::to_string(promos) + " promotions");
  }

  // Gap and ordering read the recovery-time snapshot: the failover
  // records are near the kill, and by settle's end the promoted primary's
  // pulse traffic has evicted them from the bounded node rings.
  const obs::TraceQuery fq = r.recovery_trace.value_or(q);
  if (r.killed_a_primary()) {
    std::optional<obs::TraceRecord> crash;
    for (const obs::TraceRecord& t : fq.of(obs::TraceKind::kCrashInjected)) {
      if (t.a == 0) {  // a=0: primary crash
        crash = t;
        break;
      }
    }
    const std::optional<obs::TraceRecord> done =
        crash.has_value()
            ? fq.first_after(obs::TraceKind::kPromotionDone, crash->seq, crash->shard)
            : std::nullopt;
    if (crash.has_value() && done.has_value()) {
      r.report.failover_gap = done->at - crash->at;
      r.log("failover-gap=%llu", static_cast<unsigned long long>(r.report.failover_gap));
      if (r.plan.expect_fast && r.report.failover_gap > kMillisecond) {
        r.violation("fast failover gap " + std::to_string(r.report.failover_gap) +
                    "ns exceeds the 1ms bound");
      }
    } else if (!done.has_value()) {
      r.violation("primary crash has no matching promotion trace");
    }
  }

  // Protocol ordering whenever the fast path actually promoted.
  if (r.cluster.fast_failover()->promotions() > 0) {
    if (!fq.happened_before(obs::TraceKind::kSuspicionRaised, obs::TraceKind::kRkeyRevoked)) {
      r.violation("revocation preceded suspicion");
    }
    if (!fq.happened_before(obs::TraceKind::kRkeyRevoked, obs::TraceKind::kBallotCast)) {
      r.violation("ballot preceded revocation");
    }
    if (!fq.happened_before(obs::TraceKind::kBallotCast, obs::TraceKind::kPromotionDone)) {
      r.violation("promotion preceded ballot");
    }
    if (fq.count(obs::TraceKind::kBallotWon) == 0) {
      r.violation("fast promotion without a winning ballot");
    }
  }
}

}  // namespace

const FamilyDef kFailoverFamily = {
    "failover", scripted, random,
    [] { return make_put_driver("ff-", "ff-probe", audit_fast_failover); }};

}  // namespace hydra::chaos
