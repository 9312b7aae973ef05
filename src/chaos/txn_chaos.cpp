// The txn-kill-mid-commit family (DESIGN.md §11): primary / secondary /
// SWAT kills, shared mux-QP deaths, torn or dropped lock-arena atomics,
// heartbeat suppression and a live migration, fired into a multi-client,
// multi-shard transactional workload. Beyond the shared checks (every
// callback fires, so no transaction wedges), the family verifies that:
//
//   1. an acked transaction is all-or-nothing: every key it wrote reads
//      back with exactly its value (or its deletion), on every shard it
//      touched, even after failover or mid-migration re-routing;
//   2. no lock word is leaked held: post-settle, every live shard's lock
//      arena is all zeroes;
//   3. abort-order discipline: NO_WAIT never waits; WAIT_DIE never kills
//      an older transaction on behalf of a younger holder.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "chaos/run.hpp"
#include "txn/txn.hpp"

namespace hydra::chaos {
namespace {

std::vector<Schedule> scripted() {
  std::vector<Schedule> out;
  auto add = [&](std::string name) -> Schedule& {
    return out.emplace_back(make_schedule(Family::kTxn, std::move(name)));
  };
  for (const proto::TxnMode mode : {proto::TxnMode::kNoWait, proto::TxnMode::kWaitDie}) {
    const std::string suffix = mode == proto::TxnMode::kWaitDie ? "-wait-die" : "-no-wait";
    // Fault-free multi-shard baseline: every txn commits, nothing leaks.
    add("txn-baseline" + suffix).txn_mode = mode;
    {
      // Hot-key contention: the abort-order discipline under fire.
      Schedule& s = add("txn-contention" + suffix);
      s.txn_mode = mode;
      s.clients = 4;
      s.keys_per_txn = 3;
      s.universe = 8;
      s.lock_words = 8;  // word collisions guaranteed
    }
    {
      // The headline chaos: the primary dies between lock-acquire and
      // unlock, while commits are on the wire. Acked txns must survive the
      // promotion whole; every lock word the corpse held dies with it.
      Schedule& s = add("txn-kill-mid-commit" + suffix);
      s.txn_mode = mode;
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 0, .at_op = 8,
                          .delay = 40 * kMicrosecond});
    }
  }
  {
    // SWAT leadership gap overlapping the primary kill: the death event
    // pends ~2s until member 1 takes over; txns stall, then roll forward.
    Schedule& s = add("txn-kill-mid-commit-swat-gap");
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 0, .at_op = 8,
                        .delay = 40 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 8,
                        .delay = 1900 * kMillisecond});
  }
  {
    // A replica dies with group commit barriers outstanding: the primary
    // must quarantine the corpse and still ack -- never wedge a commit.
    Schedule& s = add("txn-kill-secondary-mid-commit");
    s.replicas = 2;
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 1, .at_op = 8,
                        .delay = 20 * kMicrosecond});
  }
  // A dropped lock CAS: the verb never executes, the initiator sees a flush
  // and must re-post (finding the word still free).
  add("txn-drop-lock-cas")
      .faults.push_back({.kind = FaultKind::kDropAtomic, .shard = 0, .at_op = 6});
  // A torn lock CAS: the verb executes but the completion flushes, so the
  // client holds a lock it cannot confirm. The maybe-held set must treat
  // old == own-word as acquired on retry and release it on abort.
  add("txn-tear-lock-cas")
      .faults.push_back({.kind = FaultKind::kTearAtomic, .shard = 0, .at_op = 6});
  // An atomic fault landing late in a txn's life -- on the unlock path. The
  // release loop must retry through a fresh connection until the word is
  // confirmed clear; a leaked word fails invariant 2.
  add("txn-drop-unlock-cas")
      .faults.push_back({.kind = FaultKind::kDropAtomic, .shard = 0, .at_op = 6,
                         .delay = 300 * kMicrosecond});
  {
    // The shared mux QP carrying all lock + commit traffic dies abruptly.
    Schedule& s = add("txn-mux-channel-kill");
    s.mux = true;
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .shard = 0, .at_op = 8,
                        .delay = 30 * kMicrosecond});
  }
  // Heartbeat suppression past the session timeout: the primary fences
  // itself; in-flight txns re-lock against the promoted arena.
  add("txn-heartbeat-fence")
      .faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = 0, .at_op = 6,
                         .duration = 3 * kSecond});
  {
    // A live migration overlapping the workload: the epoch fence rejects
    // commits stamped before the bump and txns re-resolve onto the new ring
    // -- mid-migration, a group may even split across more shards.
    Schedule& s = add("txn-migrate-mid-txn");
    s.ops = 10;
    s.migrate_at = 6;
  }
  return out;
}

Schedule random(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xD6E8FEB86659FD93ULL + 0x8CB92BA72F3D8DD7ULL);
  Schedule s = make_schedule(Family::kTxn, "txn-random-" + std::to_string(seed));
  s.txn_mode = rng.below(2) == 0 ? proto::TxnMode::kNoWait : proto::TxnMode::kWaitDie;
  s.clients = 2 + static_cast<int>(rng.below(3));
  s.ops = 6 + static_cast<std::uint32_t>(rng.below(7));
  s.keys_per_txn = 2 + static_cast<std::uint32_t>(rng.below(4));
  s.shards = 1 + static_cast<int>(rng.below(3));
  s.mux = rng.below(3) == 0;
  auto txn_point = [&] { return static_cast<std::uint32_t>(rng.below(s.total_ops())); };
  auto shard = [&] { return static_cast<ShardId>(rng.below(static_cast<std::uint64_t>(s.shards))); };

  // Safety rules mirroring the chaos family: a live replica must always
  // remain, so secondary kills force two replicas and only kill #1.
  const bool kill_secondary = rng.below(4) == 0;
  s.replicas = kill_secondary ? 2 : 1 + static_cast<int>(rng.below(2));
  const bool kill_primary = rng.below(2) == 0;
  const bool kill_swat = kill_primary && rng.below(3) == 0;

  if (rng.below(3) == 0) {
    // Contention run: shrink the key universe and the lock arena.
    s.universe = 6 + static_cast<std::uint32_t>(rng.below(8));
    s.keys_per_txn = std::min(s.keys_per_txn, s.universe);
    s.lock_words = 8 + static_cast<std::uint32_t>(rng.below(16));
  }
  // Zero to two lock-arena atomic faults in every schedule.
  const int atomics = static_cast<int>(rng.below(3));
  for (int i = 0; i < atomics; ++i) {
    s.faults.push_back(
        {.kind = rng.below(2) == 0 ? FaultKind::kTearAtomic : FaultKind::kDropAtomic,
         .shard = shard(), .at_op = txn_point(),
         .delay = static_cast<Duration>(rng.below(400 * kMicrosecond))});
  }
  if (kill_secondary) {
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .shard = shard(), .index = 1,
                        .at_op = txn_point(),
                        .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  }
  if (kill_primary) {
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = shard(), .at_op = txn_point(),
                        .delay = static_cast<Duration>(rng.below(100 * kMicrosecond))});
  }
  if (kill_swat) {
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = txn_point(),
                        .delay = 1500 * kMillisecond + rng.below(kSecond)});
  }
  if (s.mux && rng.below(3) == 0) {
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .shard = shard(),
                        .at_op = txn_point(),
                        .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  }
  if (rng.below(4) == 0) {
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = shard(),
                        .at_op = txn_point(), .duration = kSecond + rng.below(3 * kSecond)});
  }
  return s;
}

class TxnDriver : public Driver {
 public:
  void configure(const Schedule& plan, db::ClusterOptions& opts) const override {
    opts.shard_template.store.arena_bytes = 16 << 20;
    opts.shard_template.store.min_buckets = 1 << 12;
    opts.shard_template.txn_lock_words = plan.lock_words;
  }

  void start(Run& r) override {
    run_ = &r;
    const Schedule& plan = r.plan;
    const std::uint32_t keys =
        plan.universe > 0 ? std::min(plan.keys_per_txn, plan.universe) : plan.keys_per_txn;
    // Disjoint mode: txn (c, t) writes keys txn-c<c>-t<t>-k<i>, reads one and
    // removes one key of the client's previous txn. Every value is a pure
    // function of (seed, c, t, i), so roll-forward re-commits re-apply
    // identical bytes and the final-state check is exact.
    // Contention mode: keys come from a tiny shared universe; values stay
    // unique per txn so any committed value is traceable to its writer.
    Xoshiro256 value_rng(r.seed);
    for (int c = 0; c < plan.clients; ++c) {
      for (std::uint32_t t = 0; t < plan.ops; ++t) {
        std::vector<proto::TxnOp>& ops = txns_.emplace_back();
        std::set<std::string> used;
        for (std::uint32_t k = 0; k < keys; ++k) {
          std::string key;
          if (plan.universe > 0) {
            do {
              key = "hot-" + std::to_string(value_rng.below(plan.universe));
            } while (!used.insert(key).second);
          } else {
            key = "txn-c" + std::to_string(c) + "-t" + std::to_string(t) + "-k" +
                  std::to_string(k);
          }
          ops.push_back({proto::MsgType::kPut, std::move(key), "v-" + hex16(value_rng())});
        }
        if (plan.universe == 0 && t > 0 && keys >= 2) {
          const std::string prev =
              "txn-c" + std::to_string(c) + "-t" + std::to_string(t - 1) + "-k";
          ops.push_back({proto::MsgType::kGet, prev + "0", ""});
          ops.push_back({proto::MsgType::kRemove, prev + "1", ""});
        }
      }
    }
    status_.resize(txns_.size());

    txn::TxnOptions topts;
    topts.mode = plan.txn_mode;
    topts.max_restarts = 400;
    topts.restart_backoff = 2 * kMillisecond;
    topts.wait_retries = 400;
    topts.wait_backoff = 50 * kMicrosecond;
    topts.wire_retries = 64;
    auto ids = txn::TxnClient::make_id_source();
    db::HydraCluster& cluster = r.cluster;
    for (int c = 0; c < plan.clients; ++c) {
      auto& d = clients_.emplace_back(std::make_unique<txn::TxnClient>(
          r.sched, *cluster.clients()[static_cast<std::size_t>(c)], topts, ids));
      d->set_resolver([&cluster](std::uint64_t h) { return cluster.ring().owner(h); });
      d->set_epoch_source([&cluster] { return cluster.routing_epoch(); });
      d->set_conflict_probe([this, mode = plan.txn_mode](std::uint64_t requester,
                                                         std::uint64_t holder, bool died) {
        if (mode == proto::TxnMode::kNoWait && !died) order_violation_ = true;
        if (mode == proto::TxnMode::kWaitDie && died && requester < holder) {
          order_violation_ = true;
        }
      });
    }
    for (int c = 0; c < plan.clients; ++c) drive(c);
  }

  void audit(Run& r) override {
    for (const std::optional<Status>& st : status_) {
      if (st == Status::kOk) {
        ++r.report.acked;
      } else if (st.has_value()) {
        ++r.report.failed;
      }
    }
    if (r.plan.universe == 0) {
      // Per-client serial replay of *acked* txns yields the expected final
      // state; any key a non-acked txn ever touched is tainted (its fate is
      // legitimately unknown) and excluded.
      std::map<std::string, std::pair<bool, std::string>> expected;  // present?, value
      std::set<std::string> tainted;
      for (std::size_t i = 0; i < txns_.size(); ++i) {
        for (const proto::TxnOp& op : txns_[i]) {
          if (op.op == proto::MsgType::kGet) continue;
          if (status_[i] != Status::kOk) {
            tainted.insert(op.key);
          } else {
            expected[op.key] = {op.op != proto::MsgType::kRemove,
                                op.op == proto::MsgType::kRemove ? "" : op.value};
          }
        }
      }
      for (const auto& [key, want] : expected) {
        if (tainted.count(key) != 0) continue;
        Status st = Status::kOk;
        auto got = r.cluster.get(key, 0, &st);
        if (want.first && !got.has_value()) {
          r.violation("acked key " + key + " unreadable after faults: " +
                      std::string(to_string(st)));
        } else if (want.first && *got != want.second) {
          r.violation("acked key " + key + " returned a different value");
        } else if (!want.first && got.has_value()) {
          r.violation("acked remove of " + key + " resurfaced a value");
        }
      }
    } else {
      // Contention runs overwrite keys concurrently; the exact winner is
      // schedule-dependent, but any surviving value must trace to some
      // transaction that actually wrote that key -- no torn or invented data.
      std::map<std::string, std::set<std::string>> writers;
      for (const auto& ops : txns_) {
        for (const proto::TxnOp& op : ops) {
          if (op.op == proto::MsgType::kPut) writers[op.key].insert(op.value);
        }
      }
      for (const auto& [key, values] : writers) {
        auto got = r.cluster.get(key, 0, nullptr);
        if (got.has_value() && values.count(*got) == 0) {
          r.violation("hot key " + key + " holds a value no transaction wrote");
        }
      }
    }

    for (ShardId s = 0; s < static_cast<ShardId>(r.cluster.shard_count()); ++s) {
      auto* sh = r.cluster.shard(s);
      if (sh == nullptr || !sh->alive()) continue;
      for (std::uint32_t w = 0; w < sh->lock_word_count(); ++w) {
        const std::uint64_t word = sh->lock_word(w);
        if (word == 0) continue;
        ++r.report.lock_leaks;
        r.violation("shard " + std::to_string(s) + " lock word " + std::to_string(w) +
                    " leaked held by txn " + std::to_string(word & ~txn::kLockHeldBit));
      }
    }
    if (order_violation_) {
      r.violation(r.plan.txn_mode == proto::TxnMode::kNoWait
                      ? "NO_WAIT transaction waited on a conflict"
                      : "WAIT_DIE killed an older transaction for a younger holder");
    }
    r.probe("txn-probe");
    for (const auto& d : clients_) {
      r.report.conflicts += d->stats().conflicts;
      r.report.died += d->stats().died;
      r.report.waits += d->stats().waits;
      r.report.restarts += d->stats().restarts;
    }
  }

 private:
  void drive(int c) {
    Run& r = *run_;
    const auto op = r.next(c);
    if (!op.has_value()) return;
    const std::size_t i = static_cast<std::size_t>(c) * r.plan.ops + op->t;
    r.log("txn=%u client=%d issue ops=%zu", op->idx, c, txns_[i].size());
    clients_[static_cast<std::size_t>(c)]->run(
        txns_[i], [this, i, idx = op->idx, slot = op->slot, c](Status st, std::vector<std::string>) {
          status_[i] = st;
          run_->done(slot);
          run_->log("txn=%u client=%d done status=%s", idx, c, std::string(to_string(st)).c_str());
          drive(c);
        });
  }

  Run* run_ = nullptr;
  std::vector<std::vector<proto::TxnOp>> txns_;  // planned before the clock starts
  std::vector<std::optional<Status>> status_;  ///< empty until the callback fires
  std::vector<std::unique_ptr<txn::TxnClient>> clients_;
  bool order_violation_ = false;
};

}  // namespace

const FamilyDef kTxnFamily = {"txn", scripted, random,
                              [] { return std::unique_ptr<Driver>(new TxnDriver); }};

}  // namespace hydra::chaos
