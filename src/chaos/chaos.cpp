// The chaos family (DESIGN.md §7) and the PUT-stream driver it shares with
// the migration and failover families.
#include <algorithm>
#include <utility>

#include "chaos/run.hpp"

namespace hydra::chaos {
namespace {

using replication::ReplicationMode;

std::vector<Schedule> scripted() {
  std::vector<Schedule> out;
  auto add = [&](std::string name) -> Schedule& {
    return out.emplace_back(make_schedule(Family::kChaos, std::move(name)));
  };
  {
    // The headline crash: the primary dies while a PUT is on the wire.
    Schedule& s = add("primary-kill-mid-put");
    s.ops = 40;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
  }
  {
    // Replica apply failures force the rollback-resend protocol, and the
    // primary dies while that rollback is still in flight. Strict mode keeps
    // the affected records unacknowledged, so the client's retries (not the
    // half-finished rollback) are what re-drive them on the new primary.
    Schedule& s = add("primary-kill-mid-rollback");
    s.ops = 30;
    s.mode = ReplicationMode::kStrictAck;
    s.faults.push_back({.kind = FaultKind::kFailApply, .index = 0, .at_op = 10});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 200 * kMicrosecond});
  }
  {
    // A replica dies mid-replay with strict acks outstanding: the primary
    // must quarantine the corpse and fire the strict waiters, never wedge.
    Schedule& s = add("secondary-kill-mid-replay");
    s.ops = 40;
    s.mode = ReplicationMode::kStrictAck;
    s.replicas = 2;
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 1,
                        .at_op = 15, .delay = 5 * kMicrosecond});
  }
  {
    // Acks themselves are RDMA writes: tear one and drop another. The
    // ack-deadline probe must recover both without a single client timeout
    // budget being exhausted.
    Schedule& s = add("torn-and-dropped-ack");
    s.ops = 40;
    s.mode = ReplicationMode::kStrictAck;
    s.faults.push_back({.kind = FaultKind::kTearAckWrite, .at_op = 10, .torn_bytes = 12});
    s.faults.push_back({.kind = FaultKind::kDropAckWrite, .at_op = 25});
  }
  {
    // Torn and dropped log-record writes: the in-place retransmit path must
    // heal the ring hole before the completion (and thus the client ack).
    Schedule& s = add("torn-and-dropped-record");
    s.ops = 40;
    s.faults.push_back({.kind = FaultKind::kTearRecordWrite, .at_op = 8, .torn_bytes = 16});
    s.faults.push_back({.kind = FaultKind::kDropRecordWrite, .at_op = 20});
  }
  {
    // Four writers on one shard: their relaxed PUTs queue behind each other,
    // so records ride the replication stream in doorbell runs (one ring
    // write carries several), and one run's write is torn, a later one
    // dropped -- both four-record runs. Retransmits must heal both before
    // any record in them acks.
    Schedule& s = add("torn-and-dropped-doorbell-run");
    s.clients = 4;
    s.ops = 20;
    s.faults.push_back({.kind = FaultKind::kTearRecordWrite, .at_op = 24, .torn_bytes = 24});
    s.faults.push_back({.kind = FaultKind::kDropRecordWrite, .at_op = 44});
  }
  {
    // Heartbeat suppression past the session timeout: the shard must be
    // fenced (not split-brained) and a replica promoted under it.
    Schedule& s = add("heartbeat-suppression-fences");
    s.ops = 50;
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .at_op = 10,
                        .duration = 3 * kSecond});
  }
  {
    // The shared mux QP carrying every co-located client's traffic dies
    // abruptly -- twice -- while PUTs are on the wire. The mux layer is not
    // told; endpoints must discover the corpse by timeout, tear the channel
    // down, re-establish lazily and retransmit. No acked write may be lost.
    Schedule& s = add("mux-channel-kill-mid-put");
    s.ops = 40;
    s.mux = true;
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .at_op = 10,
                        .delay = 2 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .at_op = 25,
                        .delay = 2 * kMicrosecond});
  }
  {
    // The SWAT leader is a corpse (znode lingering until session expiry)
    // when the primary's death event arrives -- the leadership-gap window.
    // The pending-death set must hold the event until member 1 takes over.
    Schedule& s = add("swat-leader-dead-during-failover");
    s.ops = 40;
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0,
                        .at_op = 10, .delay = 1900 * kMillisecond});
  }
  return out;
}

Schedule random(std::uint64_t seed) {
  // Decorrelate from the driver's value stream, which hashes the raw seed.
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  Schedule s = make_schedule(Family::kChaos, "random-" + std::to_string(seed));
  s.ops = 30 + static_cast<std::uint32_t>(rng.below(31));

  // Safety rules keeping the invariants meaningful (never a schedule whose
  // data loss is *correct* behaviour):
  //  * secondary kills only with two replicas, and only replica #1, so a
  //    live replica always remains for promotion;
  //  * injected apply failures force strict mode -- under relaxed acks a
  //    primary death racing an unfinished rollback may legitimately lose
  //    acked records (the durability trade the paper makes explicit).
  const bool kill_secondary = rng.below(3) == 0;
  s.replicas = kill_secondary ? 2 : 1 + static_cast<int>(rng.below(2));
  const bool fail_apply = rng.below(4) == 0;
  s.mode = (fail_apply || rng.below(2) == 0) ? ReplicationMode::kStrictAck
                                             : ReplicationMode::kLogRelaxed;
  const bool kill_primary = rng.below(2) == 0;
  const bool kill_swat = kill_primary && rng.below(3) == 0;
  const bool suppress = rng.below(3) == 0;

  auto op_point = [&] { return static_cast<std::uint32_t>(rng.below(s.ops)); };
  auto small_delay = [&] { return static_cast<Duration>(rng.below(50 * kMicrosecond)); };

  // One or two wire faults in every schedule.
  const int wire_faults = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < wire_faults; ++i) {
    static constexpr FaultKind kWire[] = {
        FaultKind::kTearRecordWrite, FaultKind::kDropRecordWrite,
        FaultKind::kTearAckWrite, FaultKind::kDropAckWrite};
    s.faults.push_back({.kind = kWire[rng.below(4)], .at_op = op_point(),
                        .torn_bytes = 8 + static_cast<std::uint32_t>(rng.below(40))});
  }
  if (fail_apply) {
    s.faults.push_back({.kind = FaultKind::kFailApply, .index = 0, .at_op = op_point()});
  }
  if (kill_secondary) {
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 1,
                        .at_op = op_point(), .delay = small_delay()});
  }
  if (kill_primary) {
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = op_point(),
                        .delay = small_delay()});
  }
  if (kill_swat) {
    // A dead SWAT leader's znode lingers ~2s; killing it around the primary's
    // session expiry maximises the leadership-gap overlap.
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0,
                        .at_op = op_point(),
                        .delay = 1500 * kMillisecond + rng.below(kSecond)});
  }
  if (suppress) {
    // Sometimes short (benign blip), sometimes past the session timeout
    // (fencing + promotion).
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .at_op = op_point(),
                        .duration = kSecond + rng.below(3 * kSecond)});
  }
  return s;
}

/// Closed-loop PUTs of unique keys, each written exactly once, which makes
/// "no acked write is lost" exact: an acked key must read back as precisely
/// its seeded value. Each of the schedule's clients runs its own stream
/// under its own key prefix (client 0 keeps the bare prefix). With a
/// preload (the migration family) every PUT is chased by a readback of an
/// already-settled key -- the GETs that exercise cached remote pointers
/// across an epoch bump: a stale pointer must be invalidated, never
/// silently read.
class PutDriver : public Driver {
 public:
  PutDriver(const char* key_prefix, const char* probe_key, void (*family_audit)(Run&))
      : prefix_(key_prefix), probe_key_(probe_key), family_audit_(family_audit) {}

  void configure(const Schedule& plan, db::ClusterOptions& opts) const override {
    // A lone shard's secondaries live on otherwise idle machines.
    if (plan.shards == 1) opts.server_nodes = 1 + std::max(plan.replicas, 1);
    opts.shard_template.store.arena_bytes = 16 << 20;
    opts.shard_template.store.min_buckets = 1 << 12;
  }

  void start(Run& r) override {
    run_ = &r;
    Xoshiro256 preload_rng(r.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
    for (std::uint32_t i = 0; i < r.plan.preload; ++i) {
      std::string key = "pre-" + std::to_string(i);
      std::string value = "p-" + hex16(preload_rng());
      r.cluster.direct_load(key, value);
      preloaded_.emplace_back(std::move(key), std::move(value));
    }
    Xoshiro256 value_rng(r.seed);
    const int clients = std::max(r.plan.clients, 1);
    for (int c = 0; c < clients; ++c) {
      const std::string prefix = c == 0 ? prefix_ : prefix_ + "c" + std::to_string(c) + "-";
      for (std::uint32_t t = 0; t < r.plan.ops; ++t) {
        ops_.push_back({prefix + std::to_string(t), "v-" + hex16(value_rng())});
      }
    }
    read_rng_ = Xoshiro256(r.seed * 0x2545F4914F6CDD1DULL + 1);
    for (int c = 0; c < clients; ++c) issue(c);
  }

  void audit(Run& r) override {
    db::HydraCluster& cluster = r.cluster;
    std::vector<std::pair<std::string, std::string>> expected = preloaded_;
    for (const Op& op : ops_) {
      if (op.status == Status::kOk) expected.emplace_back(op.key, op.value);
    }
    // Every settled key reads back with its exact value and is held by
    // exactly one ring member's store: its owner's.
    std::uint64_t subject_owned = 0;
    const std::vector<ShardId> members = cluster.ring().shards();
    for (const auto& [key, value] : expected) {
      Status st = Status::kOk;
      auto v = cluster.get(key, 0, &st);
      if (!v.has_value()) {
        r.violation("key " + key + " unreadable after faults: " + std::string(to_string(st)));
        continue;
      }
      if (*v != value) {
        r.violation("key " + key + " returned a different value after faults");
        continue;
      }
      const ShardId owner = cluster.owner_of(key);
      if (owner == r.subject) ++subject_owned;
      for (const ShardId member : members) {
        auto* sh = cluster.shard(member);
        if (sh == nullptr || !sh->alive()) {
          r.violation("ring member " + std::to_string(member) + " not serving");
          break;
        }
        auto view = sh->store().get(key, r.sched.now(), /*grant_lease=*/false);
        if (member == owner) {
          if (!view.ok()) {
            r.violation("key " + key + " lost: owner " + std::to_string(owner) +
                        " does not hold it");
          } else if (view.value().value != value) {
            r.violation("key " + key + " stale in owner store");
          }
        } else if (view.ok()) {
          r.violation("key " + key + " double-owned: shard " + std::to_string(member) +
                      " still holds it (owner " + std::to_string(owner) + ")");
        }
      }
    }
    if (r.plan.migrate_at != Schedule::kNever && r.plan.migrate_op == MigrationOp::kAdd &&
        cluster.migration_stats().completed > 0 && subject_owned == 0) {
      r.violation("added shard owns none of the dataset");
    }
    if (probe_key_ != nullptr) r.probe(probe_key_);
    if (family_audit_ != nullptr) family_audit_(r);
  }

 private:
  struct Op {
    std::string key;
    std::string value;
    Status status = Status::kTimeout;
  };

  // Closed loop: client c's op t+1 is issued by its op t's completion
  // callback. ops_ holds the streams back to back.
  void issue(int c) {
    Run& r = *run_;
    const auto op = r.next(c);
    if (!op.has_value()) return;
    const std::uint32_t i = static_cast<std::uint32_t>(c) * r.plan.ops + op->t;
    r.log("op=%u issue key=%s", i, ops_[i].key.c_str());
    client(c).put(ops_[i].key, ops_[i].value, [this, c, i, slot = op->slot](Status st) {
      Run& rr = *run_;
      ops_[i].status = st;
      rr.done(slot);
      if (st == Status::kOk) ++rr.report.acked;
      rr.log("op=%u done status=%s", i, std::string(to_string(st)).c_str());
      if (preloaded_.empty()) {
        issue(c);
      } else {
        readback(c, i);
      }
    });
  }

  client::Client& client(int c) {
    return *run_->cluster.clients()[static_cast<std::size_t>(c)];
  }

  // Readback of an already-settled key (preloaded, or an earlier op whose
  // PUT was acked): must return exactly the written value even while
  // ownership is in motion.
  void readback(int c, std::uint32_t i) {
    Run& r = *run_;
    const auto preload = static_cast<std::uint32_t>(preloaded_.size());
    std::uint64_t pick = read_rng_.below(preload + i);
    std::pair<std::string, std::string> settled;
    if (pick >= preload) {
      const Op& op = ops_[static_cast<std::size_t>(pick - preload)];
      if (op.status == Status::kOk) {
        settled = {op.key, op.value};
      } else {
        pick = (pick - preload) % preload;  // deterministic fallback
      }
    }
    if (settled.first.empty()) settled = preloaded_[static_cast<std::size_t>(pick)];
    ++r.report.readbacks;
    const std::size_t slot =
        r.track("op " + std::to_string(i) + " readback (" + settled.first + ")");
    client(c).get(
        settled.first, [this, c, slot, settled](Status st, std::string_view value) {
          Run& rr = *run_;
          rr.done(slot);
          if (st != Status::kOk) {
            rr.violation("readback of " + settled.first + " failed mid-migration: " +
                         std::string(to_string(st)));
          } else if (value != settled.second) {
            rr.violation("readback of " + settled.first +
                         " returned a different value mid-migration");
          }
          issue(c);
        });
  }

  const std::string prefix_;
  const char* const probe_key_;
  void (*const family_audit_)(Run&);
  Run* run_ = nullptr;
  std::vector<Op> ops_;
  std::vector<std::pair<std::string, std::string>> preloaded_;
  Xoshiro256 read_rng_{0};
};

}  // namespace

std::unique_ptr<Driver> make_put_driver(const char* key_prefix, const char* probe_key,
                                        void (*family_audit)(Run&)) {
  return std::make_unique<PutDriver>(key_prefix, probe_key, family_audit);
}

const FamilyDef kChaosFamily = {"chaos", scripted, random,
                                [] { return make_put_driver("chaos-", "chaos-probe"); }};

}  // namespace hydra::chaos
