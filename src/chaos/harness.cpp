#include "chaos/harness.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "chaos/run.hpp"

namespace hydra::chaos {
namespace {

using replication::ReplicationMode;

/// Virtual time granted after the workload: long enough for the legacy
/// session-timeout promotion (~2.45 s, also the fast path's fallback when a
/// round aborts), retry backoffs and migration copies to finish.
constexpr Duration kSettle = 6 * kSecond;
/// Wedge detection: a workload that has not completed by this much virtual
/// time (or this many events) is stuck.
constexpr Time kWorkloadTimeLimit = 120 * kSecond;
constexpr std::uint64_t kWorkloadStepLimit = 40'000'000;

#if defined(__GNUC__)
__attribute__((format(printf, 2, 0)))
#endif
void vappendf(std::string& out, const char* fmt, va_list ap) {
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  out += buf;
}

const char* mode_name(ReplicationMode m) {
  switch (m) {
    case ReplicationMode::kNone: return "none";
    case ReplicationMode::kLogRelaxed: return "relaxed";
    case ReplicationMode::kStrictAck: return "strict";
  }
  return "unknown";
}

using ULL = unsigned long long;

/// The cross-plane family: one family's random schedule plus two or three
/// faults of kinds that family never applies, aimed at a plane its workload
/// exercises. The safety rules are the union of the families' own:
///  * the family's faults are unchanged, so its rules (a promotable replica
///    always survives, the revocation retry budget) still hold;
///  * kFailApply forces strict acks -- under relaxed acks a primary death
///    racing an unfinished rollback may legitimately lose acked records;
///  * a mux-channel kill turns mux connections on;
///  * at most one migration runs at a time, so an add-shard fault only joins
///    a schedule that starts none.
Schedule cross(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x94D049BB133111EBULL + 0xBF58476D1CE4E5B9ULL);
  static constexpr Family kDrivers[] = {Family::kMigration, Family::kFailover,
                                        Family::kHotKey, Family::kScan, Family::kTxn};
  const Family driver = kDrivers[rng.below(5)];
  Schedule s = Schedule::random(driver, rng());
  s.name = "cross-" + std::to_string(seed);
  s.family = Family::kCross;

  std::vector<FaultKind> foreign = {FaultKind::kTearRecordWrite, FaultKind::kDropRecordWrite,
                                    FaultKind::kTearAckWrite, FaultKind::kDropAckWrite,
                                    FaultKind::kFailApply};
  if (driver != Family::kHotKey && driver != Family::kTxn) {
    foreign.push_back(FaultKind::kKillMuxChannel);
  }
  const bool migrates =
      s.migrate_at != Schedule::kNever ||
      std::any_of(s.faults.begin(), s.faults.end(), [](const Fault& f) {
        return f.kind == FaultKind::kAddShard || f.kind == FaultKind::kDrainShard;
      });
  if (!migrates && driver != Family::kScan) foreign.push_back(FaultKind::kAddShard);

  const int extra = 2 + static_cast<int>(rng.below(2));
  for (int i = 0; i < extra; ++i) {
    const auto pick = foreign.begin() + static_cast<std::ptrdiff_t>(rng.below(foreign.size()));
    Fault f{.kind = *pick,
            .shard = driver == Family::kHotKey
                         ? kHotShard
                         : static_cast<ShardId>(rng.below(static_cast<std::uint64_t>(s.shards))),
            .at_op = static_cast<std::uint32_t>(rng.below(s.total_ops())),
            .delay = static_cast<Duration>(rng.below(50 * kMicrosecond)),
            .torn_bytes = 8 + static_cast<std::uint32_t>(rng.below(40))};
    if (f.kind == FaultKind::kFailApply) s.mode = ReplicationMode::kStrictAck;
    if (f.kind == FaultKind::kKillMuxChannel) s.mux = true;
    if (f.kind == FaultKind::kAddShard) foreign.erase(pick);
    s.faults.push_back(f);
  }
  return s;
}

/// The cross family's scripted schedules: failures its random sweep found,
/// minimized, each pinning the fix of one defect.
std::vector<Schedule> cross_scripted() {
  std::vector<Schedule> out;
  {
    // A dropped ack under strict acks on a fast-failover cluster: landed
    // liveness pulses counted as stream progress and held off the
    // ack-deadline probe, so the write waited for its ack forever (the
    // probe PUT timed out). Found by cross-43.
    Schedule& s = out.emplace_back(make_schedule(Family::kFailover, "cross-dropped-ack-under-pulses"));
    s.mode = ReplicationMode::kStrictAck;
    s.ops = 45;
    s.faults.push_back({.kind = FaultKind::kDropAckWrite, .at_op = 37, .delay = 50 * kMicrosecond});
  }
  {
    // A lock release whose CAS flushed on a killed mux channel re-posted on
    // the same dead QP -- the mux layer is never told it died -- until the
    // retry budget ran out and the word leaked held. The record tear only
    // moves the release past the last data-path timeout that would have
    // torn the channel down. Found by cross-82.
    Schedule& s = out.emplace_back(make_schedule(Family::kTxn, "cross-unlock-after-mux-kill"));
    s.mux = true;
    s.clients = 4;
    s.ops = 11;
    s.txn_mode = proto::TxnMode::kWaitDie;
    s.keys_per_txn = 3;
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .shard = 1, .at_op = 13,
                        .delay = 50 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kTearRecordWrite, .shard = 0, .at_op = 14,
                        .delay = 20 * kMicrosecond, .torn_bytes = 10});
  }
  {
    // Relaxed acks went out for records that landed behind a torn one: the
    // replica's consumer never crosses the hole, so when the primary died
    // before rewriting it, promotion lost every acked record after it. Takes
    // concurrent writers -- a closed-loop PUT stream never has a record
    // behind an unrepaired one. Found by cross-264 and cross-338.
    Schedule& s = out.emplace_back(make_schedule(Family::kTxn, "cross-relaxed-ack-behind-torn-record"));
    s.shards = 1;
    s.replicas = 2;
    s.clients = 4;
    s.ops = 6;
    s.faults.push_back({.kind = FaultKind::kTearRecordWrite, .at_op = 2,
                        .delay = 10 * kMicrosecond, .torn_bytes = 40});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 3, .delay = 60 * kMicrosecond});
  }
  for (Schedule& s : out) s.family = Family::kCross;
  return out;
}

const FamilyDef kCrossFamily = {"cross", cross_scripted, cross, nullptr};

const FamilyDef& def(Family family) {
  static const FamilyDef* const kDefs[] = {&kChaosFamily, &kMigrationFamily, &kFailoverFamily,
                                           &kHotKeyFamily, &kScanFamily, &kTxnFamily,
                                           &kCrossFamily};  // in Family order
  return *kDefs[static_cast<std::size_t>(family)];
}

}  // namespace

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kKillPrimary: return "kill-primary";
    case FaultKind::kKillSecondary: return "kill-secondary";
    case FaultKind::kKillSwatMember: return "kill-swat-member";
    case FaultKind::kTearRecordWrite: return "tear-record-write";
    case FaultKind::kDropRecordWrite: return "drop-record-write";
    case FaultKind::kTearAckWrite: return "tear-ack-write";
    case FaultKind::kDropAckWrite: return "drop-ack-write";
    case FaultKind::kSuppressHeartbeats: return "suppress-heartbeats";
    case FaultKind::kFailApply: return "fail-apply";
    case FaultKind::kKillMuxChannel: return "kill-mux-channel";
    case FaultKind::kTearRevocation: return "tear-revocation";
    case FaultKind::kDropRevocation: return "drop-revocation";
    case FaultKind::kTearAtomic: return "tear-atomic";
    case FaultKind::kDropAtomic: return "drop-atomic";
    case FaultKind::kTornLeafReads: return "torn-leaf-reads";
    case FaultKind::kAddShard: return "add-shard";
    case FaultKind::kDrainShard: return "drain-shard";
  }
  return "unknown";
}

const char* to_string(Family family) noexcept { return def(family).name; }

std::optional<Family> family_named(std::string_view name) noexcept {
  for (auto f = Family::kChaos; f <= Family::kCross; f = static_cast<Family>(static_cast<int>(f) + 1)) {
    if (name == to_string(f)) return f;
  }
  return std::nullopt;
}

Schedule make_schedule(Family family, std::string name) {
  Schedule s;
  s.name = std::move(name);
  s.family = family;
  s.driver = family;
  switch (family) {
    case Family::kChaos:
    case Family::kCross:
      break;
    case Family::kMigration:
      // Sized so the bulk copy spans many manager ticks and faults can land
      // mid-copy.
      s.shards = 3;
      s.preload = 1536;
      s.ops = 72;
      s.migrate_at = 8;
      break;
    case Family::kFailover:
      s.replicas = 2;
      s.fast_failover = true;
      s.ops = 40;
      break;
    case Family::kHotKey:
      s.shards = 3;
      s.replicas = 2;
      s.clients = 3;
      s.ops = 150;
      s.universe = 8;
      break;
    case Family::kScan:
      s.shards = 3;
      s.replicas = 2;
      s.ops = 150;
      s.scans = 80;
      break;
    case Family::kTxn:
      s.shards = 2;
      s.clients = 3;
      s.ops = 8;
      break;
  }
  return s;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<ULL>(v));
  return buf;
}

std::vector<Schedule> Schedule::scripted(Family family) { return def(family).scripted(); }

Schedule Schedule::random(Family family, std::uint64_t seed) {
  return def(family).random(seed);
}

Schedule scripted_by_name(Family family, std::string_view name) {
  for (Schedule& s : Schedule::scripted(family)) {
    if (s.name == name) return std::move(s);
  }
  throw std::invalid_argument("no scripted " + std::string(to_string(family)) +
                              " schedule named " + std::string(name));
}

std::string describe(const Report& report) {
  std::string out;
  for (const auto& v : report.violations) out += "  " + v + "\n";
  out += "replay: " + report.replay + "\n--- history ---\n" + report.history;
  return out;
}

// --- the run skeleton --------------------------------------------------------

Report run(const Schedule& schedule, std::uint64_t seed, obs::Plane* plane) {
  // Normalized local copy: op indices are clamped into the workload so every
  // fault is guaranteed to fire.
  Schedule plan = schedule;
  plan.ops = std::max<std::uint32_t>(plan.ops, 1);
  const std::uint32_t last = plan.total_ops() - 1;
  for (Fault& f : plan.faults) f.at_op = std::min(f.at_op, last);
  if (plan.migrate_at != Schedule::kNever) plan.migrate_at = std::min(plan.migrate_at, last);
  plan.drain_victim = static_cast<ShardId>(plan.drain_victim %
                                           static_cast<ShardId>(std::max(plan.shards, 1)));

  Report report;
  const bool is_random = Schedule::random(plan.family, seed).name == plan.name;
  report.replay = "build/examples/chaos_replay " + std::string(to_string(plan.family)) + " " +
                  (is_random ? std::string("random") : plan.name) + " " + std::to_string(seed);

  // Fast-failover invariants read the trace, so those runs always get a
  // plane; attaching one never perturbs the virtual-time history (DESIGN.md
  // §8), so the history is the same either way.
  std::optional<obs::Plane> local_plane;
  if (plane == nullptr && plan.fast_failover) plane = &local_plane.emplace();
  const std::unique_ptr<Driver> driver = def(plan.driver).driver();

  db::ClusterOptions opts;
  opts.server_nodes = plan.shards;
  opts.shards_per_node = 1;
  opts.total_shards = plan.shards;
  opts.client_nodes = 1;
  opts.clients_per_node = plan.clients;
  opts.replicas = plan.replicas;
  opts.replication.mode = plan.mode;
  opts.enable_swat = true;
  opts.swat_members = plan.swat_members;
  opts.mux_connections = plan.mux;
  opts.fast_failover = plan.fast_failover;
  // Patient enough to ride through a failover, quick enough to retry often.
  opts.client_template.request_timeout = 100 * kMillisecond;
  opts.client_template.max_retries = 100;
  opts.obs = plane;
  driver->configure(plan, opts);

  Run(plan, seed, plane, report, std::move(opts)).execute(*driver);
  return report;
}

Run::Run(const Schedule& p, std::uint64_t s, obs::Plane* pl, Report& r,
         db::ClusterOptions opts)
    : plan(p),
      seed(s),
      plane(pl),
      report(r),
      cluster(std::move(opts)),
      sched(cluster.scheduler()),
      torn_rng_(s ^ 0xC2B2AE3D27D4EB4FULL),
      cursors_(static_cast<std::size_t>(std::max(p.clients, 1)), 0) {}

void Run::log(const char* fmt, ...) {
  report.history += "t=" + std::to_string(sched.now()) + " ";
  va_list ap;
  va_start(ap, fmt);
  vappendf(report.history, fmt, ap);
  va_end(ap);
  report.history += '\n';
}

void Run::violation(std::string text) {
  report.history += "violation: " + text + "\n";
  report.violations.push_back(std::move(text));
}

Run::Op Run::issue(const std::string& what) {
  const std::uint32_t idx = issued_++;
  if (idx == plan.migrate_at) migrate(plan.migrate_op, plan.drain_victim);
  for (const Fault& f : plan.faults) {
    if (f.at_op != idx) continue;
    const Fault* fp = &f;
    sched.after(f.delay, [this, fp] { apply(*fp); });
  }
  return {0, idx, track("op " + std::to_string(idx) + " " + what)};
}

std::optional<Run::Op> Run::next(int c) {
  std::uint32_t& t = cursors_[static_cast<std::size_t>(c)];
  if (t >= plan.ops) return std::nullopt;
  Op op = issue("(client " + std::to_string(c) + " #" + std::to_string(t) + ")");
  op.t = t++;
  return op;
}

std::size_t Run::track(std::string label) {
  ops_.push_back(std::move(label));
  done_.push_back(false);
  ++outstanding_;
  return ops_.size() - 1;
}

void Run::done(std::size_t slot) {
  if (done_[slot]) return;
  done_[slot] = true;
  --outstanding_;
}

void Run::migrate(MigrationOp op, ShardId victim) {
  if (op == MigrationOp::kAdd) {
    subject = cluster.add_shard_live();
    migration_started = subject != kInvalidShard;
  } else {
    subject = victim;
    migration_started = cluster.drain_shard_live(victim);
  }
  migrate_called_at_ = sched.now();
  migration_epoch = cluster.routing_epoch();
  log("migrate op=%s subject=%d started=%d", op == MigrationOp::kAdd ? "add" : "drain",
      subject == kInvalidShard ? -1 : static_cast<int>(subject), migration_started ? 1 : 0);
}

void Run::probe(const char* key) {
  const Status st = cluster.put(key, "alive");
  log("probe-put status=%s", std::string(to_string(st)).c_str());
  if (st != Status::kOk) {
    violation("probe PUT failed: cluster not writable after faults (" +
              std::string(to_string(st)) + ")");
  }
}

void Run::install_hooks() {
  // Record, ack and lock-arena faults: armed one-shot, matched in arming
  // order by the destination rkey of the write or atomic they tear or drop.
  cluster.fabric().set_write_fault_hook([this](NodeId, NodeId dst,
                                               const fabric::RemoteAddr& addr,
                                               std::uint32_t size) -> fabric::WriteFault {
    for (auto it = armed_writes_.begin(); it != armed_writes_.end(); ++it) {
      auto* sh = cluster.shard(it->shard);
      bool hit = false;
      switch (it->kind) {
        case FaultKind::kTearAckWrite:
        case FaultKind::kDropAckWrite:
          if (sh != nullptr && sh->replicator() != nullptr && dst == sh->node()) {
            const auto& rkeys = sh->replicator()->ack_rkeys();
            hit = std::find(rkeys.begin(), rkeys.end(), addr.rkey) != rkeys.end();
          }
          break;
        case FaultKind::kTearAtomic:
        case FaultKind::kDropAtomic:
          hit = size == 8 && sh != nullptr && sh->lock_rkey() != 0 && sh->lock_rkey() == addr.rkey;
          break;
        default:  // record-ring writes
          if (it->shard >= cluster.shard_count()) break;
          for (auto* sec : cluster.secondaries_of(it->shard)) {
            hit = hit || (sec->alive() && dst == sec->node() && sec->ring_mr() != nullptr &&
                          sec->ring_mr()->rkey() == addr.rkey);
          }
      }
      if (!hit) continue;
      fabric::WriteFault wf;
      const bool tear = it->kind == FaultKind::kTearRecordWrite ||
                        it->kind == FaultKind::kTearAckWrite ||
                        it->kind == FaultKind::kTearAtomic;
      wf.kind = tear ? fabric::WriteFault::Kind::kTorn : fabric::WriteFault::Kind::kDrop;
      wf.torn_bytes = std::min(it->torn_bytes, size);
      log("wire-fault %s rkey=%u size=%u torn=%u", to_string(it->kind), addr.rkey, size,
          wf.torn_bytes);
      armed_writes_.erase(it);
      return wf;
    }
    return {};
  });

  // Revocation faults: armed in order, consumed one per revoke verb.
  cluster.fabric().set_revoke_fault_hook([this](NodeId owner,
                                                std::uint32_t rkey) -> fabric::RevokeFault {
    if (armed_revokes_.empty()) return {};
    const FaultKind k = armed_revokes_.front();
    armed_revokes_.erase(armed_revokes_.begin());
    log("revoke-fault %s owner=%u rkey=%u", to_string(k), static_cast<unsigned>(owner), rkey);
    fabric::RevokeFault rf;
    rf.kind = k == FaultKind::kTearRevocation ? fabric::RevokeFault::Kind::kTorn
                                              : fabric::RevokeFault::Kind::kDrop;
    return rf;
  });

  // Torn leaf reads: while the window is open, tear a share of the reads of
  // any live shard's leaf-page region. Reads started from the leaf cache,
  // from a page's successor and from a batch's hint all target that region.
  cluster.fabric().set_read_fault_hook([this](NodeId, NodeId, const fabric::RemoteAddr& addr,
                                              std::uint32_t size) {
    fabric::ReadFault fault;
    if (!torn_armed_) return fault;
    bool leaf = false;
    for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()) && !leaf; ++s) {
      auto* sh = cluster.shard(s);
      leaf = sh != nullptr && sh->alive() && sh->scan_leaf_rkey() != 0 &&
             sh->scan_leaf_rkey() == addr.rkey;
    }
    if (leaf && torn_rng_.below(100) < torn_percent_) {
      fault.kind = fabric::ReadFault::Kind::kTorn;
      // A hint's length is the page's encoded length, so a tear anywhere in
      // the read corrupts the page.
      fault.torn_bytes = static_cast<std::uint32_t>(torn_rng_.below(size));
    }
    return fault;
  });
}

void Run::apply(const Fault& fault) {
  Fault f = fault;
  if (f.shard == kHotShard) f.shard = hot_shard;
  ++report.faults_applied;
  log("fault %s shard=%u idx=%d", to_string(f.kind), static_cast<unsigned>(f.shard), f.index);
  if (plane != nullptr) {
    plane->trace(sched.now(), kInvalidNode, obs::TraceKind::kFaultInjected, f.shard,
                 static_cast<std::uint64_t>(f.kind),
                 static_cast<std::uint64_t>(static_cast<unsigned>(f.index)));
  }
  switch (f.kind) {
    case FaultKind::kKillPrimary: {
      auto* sh = cluster.shard(f.shard);
      if (sh == nullptr || !sh->alive()) break;
      killed_.push_back(f.shard);
      if (first_kill_ == 0) {
        first_kill_ = sched.now();
        recovery_pending_ = true;
        failovers_at_kill_ = cluster.failovers();
      }
      cluster.crash_primary(f.shard);
      break;
    }
    case FaultKind::kKillSecondary:
      killed_secondary_ = true;
      cluster.crash_secondary(f.shard, f.index);
      break;
    case FaultKind::kKillSwatMember:
      cluster.kill_swat_member(f.index);
      break;
    case FaultKind::kSuppressHeartbeats:
      cluster.suppress_heartbeats(f.shard, f.duration);
      break;
    case FaultKind::kFailApply: {
      if (f.shard >= cluster.shard_count()) break;
      auto secs = cluster.secondaries_of(f.shard);
      if (f.index >= 0 && static_cast<std::size_t>(f.index) < secs.size() &&
          secs[static_cast<std::size_t>(f.index)]->alive()) {
        secs[static_cast<std::size_t>(f.index)]->fail_next(3);
      }
      break;
    }
    case FaultKind::kKillMuxChannel:
      // Abrupt shared-QP death: the mux layer is NOT notified. Any write in
      // flight on the channel flushes without committing; endpoints
      // discover the corpse by timeout and re-establish lazily.
      cluster.kill_mux_channel(f.index, f.shard);
      break;
    case FaultKind::kTearRecordWrite:
    case FaultKind::kDropRecordWrite:
    case FaultKind::kTearAckWrite:
    case FaultKind::kDropAckWrite:
    case FaultKind::kTearAtomic:
    case FaultKind::kDropAtomic:
      armed_writes_.push_back(f);
      break;
    case FaultKind::kTearRevocation:
    case FaultKind::kDropRevocation:
      for (int i = 0; i < std::max(1, f.index); ++i) armed_revokes_.push_back(f.kind);
      break;
    case FaultKind::kTornLeafReads:
      torn_armed_ = true;
      torn_percent_ = std::min<std::uint32_t>(f.percent, 100);
      sched.after(f.duration, [this] { torn_armed_ = false; });
      break;
    case FaultKind::kAddShard:
      migrate(MigrationOp::kAdd, kInvalidShard);
      break;
    case FaultKind::kDrainShard:
      migrate(MigrationOp::kDrain, f.shard);
      break;
  }
}

void Run::observe() {
  if (recovery_pending_ && cluster.failovers() > failovers_at_kill_) {
    recovery_pending_ = false;
    report.recovery_time = sched.now() - first_kill_;
    if (plane != nullptr) recovery_trace.emplace(plane->query());
    log("failover-complete recovery=%llu", static_cast<ULL>(report.recovery_time));
  }
  if (migration_started && !migration_settled_ && !cluster.migration_active()) {
    migration_settled_ = true;
    report.migration_time = sched.now() - migrate_called_at_;
    log("migrate-settled duration=%llu", static_cast<ULL>(report.migration_time));
  }
}

void Run::execute(Driver& driver) {
  install_hooks();
  report.epoch_before = cluster.routing_epoch();
  log("run schedule=%s family=%s seed=%llu shards=%d replicas=%d swat=%d mode=%s mux=%d "
      "fast=%d clients=%d ops=%u",
      plan.name.c_str(), to_string(plan.family), static_cast<ULL>(seed), plan.shards,
      plan.replicas, plan.swat_members, mode_name(plan.mode), plan.mux ? 1 : 0,
      plan.fast_failover ? 1 : 0, plan.clients, plan.total_ops());
  driver.start(*this);

  std::uint64_t steps = 0;
  while (outstanding_ > 0 && sched.now() < kWorkloadTimeLimit && steps < kWorkloadStepLimit) {
    if (!sched.step()) break;
    ++steps;
    observe();
  }
  // A migration may still be copying or waiting out a promotion; let it
  // finish before settling.
  while (migration_started && cluster.migration_active() && sched.now() < kWorkloadTimeLimit &&
         sched.step()) {
    observe();
  }
  const Time settle_end = sched.now() + kSettle;
  while (sched.now() < settle_end && sched.step()) observe();
  torn_armed_ = false;

  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (done_[i]) continue;
    ++report.wedged;
    violation(ops_[i] + " never completed: callback wedged");
  }
  // The workload's pointer invalidations, before the final reads add theirs.
  for (const auto* c : cluster.clients()) {
    report.epoch_invalidations += c->stats().epoch_invalidations;
  }
  driver.audit(*this);
  shared_checks();

  report.end_time = sched.now();
  log("end events=%llu failovers=%llu acked=%llu wedged=%llu faults=%llu violations=%zu",
      static_cast<ULL>(sched.events_executed()), static_cast<ULL>(report.failovers),
      static_cast<ULL>(report.acked), static_cast<ULL>(report.wedged),
      static_cast<ULL>(report.faults_applied), report.violations.size());
}

void Run::shared_checks() {
  report.failovers = cluster.failovers();
  for (const ShardId id : killed_) {
    auto* sh = cluster.shard(id);
    if (!cluster.shard_retired(id) && (sh == nullptr || !sh->alive())) {
      violation("primary of shard " + std::to_string(id) +
                " was killed and no promotion ever completed");
    }
  }
  // Promotions respawn a replacement replica, so the factor comes back --
  // unless a secondary was killed after the last promotion, which
  // legitimately degrades it (only promotions respawn).
  if (report.failovers > 0 && !killed_secondary_) {
    for (ShardId id = 0; id < static_cast<ShardId>(cluster.shard_count()); ++id) {
      if (cluster.shard(id) == nullptr) continue;
      int live = 0;
      for (auto* sec : cluster.secondaries_of(id)) live += sec->alive() ? 1 : 0;
      if (live != plan.replicas) {
        violation("shard " + std::to_string(id) + " replication factor " +
                  std::to_string(live) + " != " + std::to_string(plan.replicas) +
                  " after promotion");
      }
    }
  }
  // At most one primary per epoch: routing epochs publish strictly
  // monotonically (a regressing or duplicated epoch means two promotions
  // fought over the same slot). Read from the trace, when a plane is on.
  bool first_epoch = true;
  std::uint64_t prev_epoch = 0;
  for (const obs::TraceRecord& r :
       plane != nullptr ? plane->cluster_ring().records() : std::vector<obs::TraceRecord>{}) {
    if (r.kind != obs::TraceKind::kEpochPublished) continue;
    if (!first_epoch && r.a <= prev_epoch) {
      violation("routing epoch published non-monotonically: " + std::to_string(r.a) +
                " after " + std::to_string(prev_epoch));
    }
    prev_epoch = r.a;
    first_epoch = false;
  }

  const db::MigrationStats& ms = cluster.migration_stats();
  report.migration_completed = ms.completed > 0;
  report.keys_moved = ms.keys_moved;
  report.flow_restarts = ms.flow_restarts;
  report.forwarded = ms.forwarded;
  report.epoch_after = cluster.routing_epoch();
  if (plan.migrate_at != Schedule::kNever) {
    if (!migration_started) {
      violation("migration never started (add/drain call rejected)");
    } else {
      if (!report.migration_completed) violation("migration never committed");
      if (ms.aborted > 0) violation("migration aborted");
      if (report.migration_completed && report.epoch_after <= report.epoch_before) {
        violation("commit did not bump the routing epoch");
      }
    }
    if (report.migration_completed && plan.migrate_op == MigrationOp::kAdd &&
        !cluster.ring().contains(subject)) {
      violation("added shard missing from the committed ring");
    }
    if (report.migration_completed && plan.migrate_op == MigrationOp::kDrain &&
        (cluster.ring().contains(subject) || !cluster.shard_retired(subject))) {
      violation("drained shard still present after commit");
    }
  }

  if (auto* ff = cluster.fast_failover()) {
    report.fast_promotions = ff->promotions();
    report.rounds_started = ff->rounds_started();
    report.rounds_aborted = ff->rounds_aborted();
    report.ballots_lost = ff->ballots_lost();
  }
  const fabric::FabricStats& fs = cluster.fabric().stats();
  report.revocations = fs.rkey_revocations;
  report.torn_reads = fs.torn_reads;
  report.torn_atomics = fs.torn_atomics;
  report.dropped_atomics = fs.dropped_atomics;
  for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()); ++s) {
    auto* sh = cluster.shard(s);
    if (sh == nullptr || !sh->alive()) continue;
    report.promotions += sh->stats().hotkey_promotions;
    report.demotions += sh->stats().hotkey_demotions;
    report.invalidations += sh->stats().hotkey_invalidations;
    report.scan_token_rejects += sh->stats().scan_token_rejects;
  }
  for (const auto* c : cluster.clients()) {
    report.replica_hits += c->stats().replica_hits;
    report.scan_restarts += c->stats().scan_restarts;
    report.scan_leaf_reads += c->stats().scan_leaf_reads;
    report.scan_leaf_fallbacks += c->stats().scan_leaf_fallbacks;
  }
}

}  // namespace hydra::chaos
