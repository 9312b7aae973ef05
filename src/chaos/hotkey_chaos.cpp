// The hot-key family (DESIGN.md §12): primary kills while promoted copies
// are live, destination-replica kills mid-promotion copy, heartbeat
// suppression (fencing + epoch bump) and shared mux-QP deaths, fired into a
// skewed multi-client GET/PUT workload that keeps the promotion plane hot.
// Every fault aims at the shard owning the hottest key (kHotShard). Beyond
// the shared checks, the family verifies that no read is ever stale: a GET
// acked kOk returns a value at least as new as the latest PUT on that key
// acked before the GET was issued -- whether it was served by the primary,
// a promoted follower copy, or the message path, and across
// write-invalidation and kEpochPublished -- and so does every post-settle
// read.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "chaos/run.hpp"

namespace hydra::chaos {
namespace {

std::vector<Schedule> scripted() {
  std::vector<Schedule> out;
  auto add = [&](std::string name, std::uint32_t write_every) -> Schedule& {
    Schedule& s = out.emplace_back(make_schedule(Family::kHotKey, std::move(name)));
    s.write_every = write_every;
    return s;
  };
  // Fault-free promotion baseline: skewed reads promote the hot keys and a
  // healthy share of GETs serve from follower copies.
  add("hotkey-baseline", 0);
  // Write-invalidate vs concurrent replica reads: client 0 keeps rewriting
  // the hot key while the others hammer one-sided reads of its promoted
  // copies. Every copy must die before the PUT acks.
  add("hotkey-write-invalidate-race", 6).clients = 4;
  // A promotion destination dies in the mid-copy window (promotions are
  // re-attempted every scan, so some copy write is always in flight early
  // on). Partial copy sets must never be advertised.
  add("hotkey-kill-dest-mid-promotion", 10)
      .faults.push_back({.kind = FaultKind::kKillSecondary, .shard = kHotShard, .index = 0,
                         .at_op = 12, .delay = 5 * kMicrosecond});
  // The hot key's primary dies while promoted copies are live. The promoted
  // successor knows nothing of the old promotion set; clients must drop it
  // at the epoch bump, not read the orphaned copies.
  add("hotkey-kill-primary-copies-live", 10)
      .faults.push_back({.kind = FaultKind::kKillPrimary, .shard = kHotShard, .at_op = 60,
                         .delay = 20 * kMicrosecond});
  // Fencing epoch bump with no crash: suppressed heartbeats expire the
  // session, SWAT promotes a replica -- possibly one *holding a copy* -- and
  // every promoted pointer must demote at kEpochPublished.
  add("hotkey-fence-demotes", 12)
      .faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = kHotShard,
                         .at_op = 40, .duration = 3 * kSecond});
  {
    // The shared mux QP dies while replica reads ride the node's read
    // channels; endpoints re-establish and no read wedges.
    Schedule& s = add("hotkey-mux-channel-kill", 8);
    s.mux = true;
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .shard = kHotShard, .at_op = 50,
                        .delay = 10 * kMicrosecond});
  }
  {
    // Primary kill overlapping a SWAT leadership gap: promotions stay
    // orphaned for the whole gap; reads must fail over, never read stale.
    Schedule& s = add("hotkey-kill-primary-swat-gap", 10);
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = kHotShard, .at_op = 50,
                        .delay = 20 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 50,
                        .delay = 1900 * kMillisecond});
  }
  return out;
}

Schedule random(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xA24BAED4963EE407ULL + 0x9FB21C651E98DF25ULL);
  Schedule s = make_schedule(Family::kHotKey, "hotkey-random-" + std::to_string(seed));
  s.clients = 2 + static_cast<int>(rng.below(3));
  s.ops = 100 + static_cast<std::uint32_t>(rng.below(100));
  s.universe = 4 + static_cast<std::uint32_t>(rng.below(8));
  s.hot_percent = 50 + static_cast<std::uint32_t>(rng.below(40));
  s.write_every = rng.below(3) == 0 ? 0 : 4 + static_cast<std::uint32_t>(rng.below(12));
  s.mux = rng.below(3) == 0;
  auto op_point = [&] { return static_cast<std::uint32_t>(rng.below(s.total_ops())); };

  // A destination kill consumes one replica; keep one live so the hot shard
  // never loses redundancy entirely when the primary also dies.
  const bool kill_secondary = rng.below(3) == 0;
  const bool kill_primary = rng.below(2) == 0;
  const bool kill_swat = kill_primary && rng.below(3) == 0;

  if (kill_secondary) {
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .shard = kHotShard, .index = 0,
                        .at_op = op_point(),
                        .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  }
  if (kill_primary) {
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = kHotShard,
                        .at_op = op_point(),
                        .delay = static_cast<Duration>(rng.below(100 * kMicrosecond))});
  }
  if (kill_swat) {
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = op_point(),
                        .delay = 1500 * kMillisecond + rng.below(kSecond)});
  }
  if (s.mux && rng.below(2) == 0) {
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .shard = kHotShard,
                        .at_op = op_point(),
                        .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  }
  if (rng.below(4) == 0) {
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = kHotShard,
                        .at_op = op_point(), .duration = kSecond + rng.below(3 * kSecond)});
  }
  return s;
}

std::string hot_key(std::uint32_t idx) { return "hk-" + std::to_string(idx); }

/// Values carry their per-key version up front so the no-stale-read check
/// can compare what a GET returned against what was acked at issue time.
std::string versioned_value(std::uint32_t version, std::uint64_t salt) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "v%06u-%016llx", version,
                static_cast<unsigned long long>(salt));
  return buf;
}

std::uint32_t parse_version(std::string_view value) {
  if (value.size() < 2 || value[0] != 'v') return 0;
  return static_cast<std::uint32_t>(std::strtoul(std::string(value.substr(1)).c_str(), nullptr, 10));
}

class HotKeyDriver : public Driver {
 public:
  void configure(const Schedule&, db::ClusterOptions& opts) const override {
    opts.client_rdma_read = true;
    opts.shard_template.grant_remote_pointers = true;
    // Short leases force frequent renewals -- the message-path traffic that
    // carries promotion sets to clients holding cached pointers.
    opts.shard_template.store.min_lease = 20 * kMillisecond;
    opts.shard_template.store.max_lease = 50 * kMillisecond;
    opts.shard_template.hotkey_top_k = 4;
    opts.shard_template.hotkey_tracker_capacity = 32;
    opts.shard_template.hotkey_promote_min_hits = 3;
    // One-sided GETs complete in ~1.3us here, so a whole schedule spans only
    // a few hundred microseconds; the scan must tick many times inside that
    // window or promotions would land after the workload already drained.
    opts.shard_template.hotkey_scan_interval = 25 * kMicrosecond;
  }

  void start(Run& r) override {
    run_ = &r;
    const Schedule& plan = r.plan;
    universe_ = std::max<std::uint32_t>(plan.universe, 1);
    r.hot_shard = r.cluster.owner_of(hot_key(0));
    r.log("hot-shard=%u", static_cast<unsigned>(r.hot_shard));

    // Skewed read stream per client; client 0 interleaves PUTs that bump a
    // per-key version. Every value is a pure function of (seed, key,
    // version), so the stale-read check is exact under any interleaving.
    Xoshiro256 value_rng(r.seed);
    std::map<std::string, std::uint32_t> planned_version;
    for (int c = 0; c < plan.clients; ++c) {
      for (std::uint32_t t = 0; t < plan.ops; ++t) {
        Op op;
        std::uint32_t key_idx = 0;
        if (universe_ > 1 && value_rng.below(100) >= plan.hot_percent) {
          key_idx = 1 + static_cast<std::uint32_t>(value_rng.below(universe_ - 1));
        }
        op.key = hot_key(key_idx);
        if (c == 0 && plan.write_every > 0 && (t + 1) % plan.write_every == 0) {
          // Writes bias to the hot key too: invalidation must race the reads.
          if (value_rng.below(3) != 0) op.key = hot_key(0);
          op.put = true;
          op.version = ++planned_version[op.key];
          op.value = versioned_value(op.version, value_rng());
        }
        ops_.push_back(std::move(op));
      }
    }
    // Preload the universe at version 0 so cold GETs hit.
    for (std::uint32_t k = 0; k < universe_; ++k) {
      r.cluster.direct_load(hot_key(k), versioned_value(0, value_rng()));
    }
    for (int c = 0; c < plan.clients; ++c) drive(c);
  }

  void audit(Run& r) override {
    r.probe("hotkey-probe");
    for (std::uint32_t k = 0; k < universe_; ++k) {
      const std::string key = hot_key(k);
      const std::uint32_t floor = latest_acked_[key];
      Status st = Status::kOk;
      auto got = r.cluster.get(key, 0, &st);
      if (!got.has_value()) {
        r.violation("preloaded key " + key + " unreadable after settle: " +
                    std::string(to_string(st)));
      } else if (parse_version(*got) < floor) {
        ++r.report.stale_reads;
        r.violation("post-settle read of " + key + " returned v" +
                    std::to_string(parse_version(*got)) + " < acked v" + std::to_string(floor));
      }
    }
  }

 private:
  /// One operation, fully precomputed before the clock starts so keys and
  /// values never depend on execution interleaving.
  struct Op {
    bool put = false;
    std::string key;
    std::uint32_t version = 0;  ///< PUT payload version
    std::string value;          ///< PUT payload
  };

  // latest_acked_[key] advances when a PUT callback fires kOk; each GET
  // snapshots it at issue time as the floor its result must meet.
  void drive(int c) {
    Run& r = *run_;
    const auto issued = r.next(c);
    if (!issued.has_value()) return;
    const Op& op = ops_[static_cast<std::size_t>(c) * r.plan.ops + issued->t];
    const std::uint32_t idx = issued->idx;
    const std::size_t slot = issued->slot;
    client::Client* cl = r.cluster.clients()[static_cast<std::size_t>(c)];
    if (op.put) {
      r.log("op=%u client=%d put %s v%u", idx, c, op.key.c_str(), op.version);
      cl->put(op.key, op.value, [this, &op, idx, slot, c](Status st) {
        run_->done(slot);
        if (st == Status::kOk) {
          ++run_->report.acked;
          auto& acked = latest_acked_[op.key];
          acked = std::max(acked, op.version);
        }
        run_->log("op=%u client=%d put-done status=%s", idx, c, std::string(to_string(st)).c_str());
        drive(c);
      });
      return;
    }
    const std::uint32_t floor = latest_acked_[op.key];
    r.log("op=%u client=%d get %s floor=v%u", idx, c, op.key.c_str(), floor);
    cl->get(op.key, [this, &op, idx, slot, c, floor](Status st, std::string_view value) {
      run_->done(slot);
      std::uint32_t got = 0;
      if (st == Status::kOk) {
        ++run_->report.gets_acked;
        got = parse_version(value);
        if (got < floor) {
          ++run_->report.stale_reads;
          run_->violation("stale read: op " + std::to_string(idx) + " key " + op.key +
                          " returned v" + std::to_string(got) + " but v" +
                          std::to_string(floor) + " was acked before the GET was issued");
        }
      }
      run_->log("op=%u client=%d get-done status=%s v%u", idx, c, std::string(to_string(st)).c_str(),
                got);
      drive(c);
    });
  }

  Run* run_ = nullptr;
  std::uint32_t universe_ = 1;
  std::vector<Op> ops_;  // never reallocates once planned: callbacks hold refs
  std::map<std::string, std::uint32_t> latest_acked_;
};

}  // namespace

const FamilyDef kHotKeyFamily = {"hotkey", scripted, random,
                                 [] { return std::unique_ptr<Driver>(new HotKeyDriver); }};

}  // namespace hydra::chaos
