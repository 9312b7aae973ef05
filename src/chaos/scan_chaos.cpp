// The scan-mid-migration family (DESIGN.md §13): live expansion and drain
// migrations, source/destination primary kills, SWAT-member kills, heartbeat
// suppression (fencing + epoch bump) and torn one-sided leaf-page reads,
// fired into a two-role workload -- client 0 streams INSERTs of brand-new
// keys while client 1 issues seeded range scans the whole time. Beyond the
// shared checks, every completed scan must show:
//
//   1. no duplicate key: the merged result is strictly ascending (the
//      dual-ownership window of a migration must be deduplicated);
//   2. no lost key: every key whose INSERT was acked before the scan was
//      issued and that falls inside the scan's observed window appears;
//   3. no phantom: every returned (key, value) pair is one the workload
//      actually wrote;
//
// and a final full-range scan audit sees every acked key exactly once.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "chaos/run.hpp"

namespace hydra::chaos {
namespace {

std::vector<Schedule> scripted() {
  std::vector<Schedule> out;
  auto add = [&](std::string name) -> Schedule& {
    return out.emplace_back(make_schedule(Family::kScan, std::move(name)));
  };
  // Fault-free cross-shard merge baseline: inserts race scans, nothing else.
  // Establishes that the cursor alone never loses/dups a key.
  add("scan-baseline");
  {
    // Live expansion: a new shard joins and ~1/N of every range migrates
    // while scans stream. The commit's epoch bump must restart cursors
    // without dropping or duplicating across the handover.
    Schedule& s = add("scan-add-shard-live");
    // Scans keep streaming until the copy commits (~450 us in): the driver
    // issues more while a migration is in flight.
    s.scans = 120;
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 30});
  }
  // Live drain: an original shard empties onto the survivors and leaves the
  // ring; scans spanning the drain see every key exactly once.
  add("scan-drain-shard-live")
      .faults.push_back({.kind = FaultKind::kDrainShard, .shard = 0, .at_op = 30});
  {
    // The expansion destination (shard 3: ids are append-only) dies
    // mid-copy: the migration aborts and the half-copied shard must never
    // serve (or leak into) a scan.
    Schedule& s = add("scan-add-kill-dest");
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 20});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 3, .at_op = 45,
                        .delay = 10 * kMicrosecond});
  }
  {
    // A migration source dies mid-copy: failover promotes a replica and
    // scans targeting the dead primary restart against the new epoch.
    Schedule& s = add("scan-add-kill-source");
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 20});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 1, .at_op = 50,
                        .delay = 20 * kMicrosecond});
  }
  {
    // Drain overlapping a SWAT leadership gap: promotions stall for the gap;
    // scans must keep restarting (not wedge) until the plane recovers.
    Schedule& s = add("scan-drain-swat-gap");
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kDrainShard, .shard = 0, .at_op = 25});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 1, .at_op = 55,
                        .delay = 20 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 55,
                        .delay = 1900 * kMillisecond});
  }
  // Torn one-sided leaf reads the whole run: every garbled page must be
  // caught by the client-side checksum and fall back to the message path.
  add("scan-torn-leaf-reads")
      .faults.push_back({.kind = FaultKind::kTornLeafReads, .at_op = 0,
                         .duration = 120 * kSecond, .percent = 60});
  {
    // The kitchen sink: expansion + fencing epoch bump + torn leaf reads.
    Schedule& s = add("scan-migration-fence-torn");
    s.faults.push_back({.kind = FaultKind::kTornLeafReads, .at_op = 0,
                        .duration = 120 * kSecond, .percent = 40});
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 25});
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = 2, .at_op = 60,
                        .duration = 3 * kSecond});
  }
  return out;
}

Schedule random(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  Schedule s = make_schedule(Family::kScan, "scan-random-" + std::to_string(seed));
  s.ops = 100 + static_cast<std::uint32_t>(rng.below(100));
  s.scans = 50 + static_cast<std::uint32_t>(rng.below(60));
  s.max_scan_limit = 16 + static_cast<std::uint32_t>(rng.below(48));
  s.leaf_reads = rng.below(4) != 0;
  auto op_point = [&] { return static_cast<std::uint32_t>(rng.below(s.total_ops())); };
  auto original = [&] { return static_cast<ShardId>(rng.below(3)); };

  // At most one migration at a time is supported; pick one (or none).
  const std::uint64_t mig = rng.below(3);
  if (mig == 1) {
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = op_point()});
    if (rng.below(3) == 0) {  // kill the destination, shard 3
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 3, .at_op = op_point(),
                          .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
    }
  } else if (mig == 2) {
    s.faults.push_back({.kind = FaultKind::kDrainShard, .shard = original(),
                        .at_op = op_point()});
  }
  if (rng.below(3) == 0) {
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = original(),
                        .at_op = op_point(),
                        .delay = static_cast<Duration>(rng.below(100 * kMicrosecond))});
    if (rng.below(3) == 0) {
      s.swat_members = 3;
      s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = op_point(),
                          .delay = 1500 * kMillisecond + rng.below(kSecond)});
    }
  }
  if (rng.below(4) == 0) {
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = original(),
                        .at_op = op_point(), .duration = kSecond + rng.below(3 * kSecond)});
  }
  if (s.leaf_reads && rng.below(2) == 0) {
    s.faults.push_back({.kind = FaultKind::kTornLeafReads, .at_op = 0,
                        .duration = 120 * kSecond,
                        .percent = 20 + static_cast<std::uint32_t>(rng.below(60))});
  }
  return s;
}

/// Scan keys are zero-padded so lexicographic order == numeric order; the
/// invariant checks lean on that.
std::string scan_key(std::uint32_t idx) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "sk-%06u", idx);
  return buf;
}

std::string scan_value(std::uint32_t idx, std::uint64_t salt) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sv%06u-%016llx", idx, static_cast<unsigned long long>(salt));
  return buf;
}

/// Parses "sk-NNNNNN" back to NNNNNN; nullopt for any foreign shape.
std::optional<std::uint32_t> parse_scan_key(const std::string& key) {
  if (key.size() != 9 || key.compare(0, 3, "sk-") != 0) return std::nullopt;
  std::uint32_t idx = 0;
  for (std::size_t i = 3; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return std::nullopt;
    idx = idx * 10 + static_cast<std::uint32_t>(key[i] - '0');
  }
  return idx;
}

class ScanDriver : public Driver {
 public:
  void configure(const Schedule& plan, db::ClusterOptions& opts) const override {
    opts.clients_per_node = 2;  // client 0 inserts, client 1 scans
    opts.client_rdma_read = true;
    opts.ordered_index = true;
    opts.client_template.scan_leaf_reads = plan.leaf_reads;
    // Small batches force multi-round continuations: tokens live across
    // epoch bumps and leaf hints actually get consumed, which is the whole
    // point of this family.
    opts.client_template.scan_batch = 4;
  }

  void start(Run& r) override {
    run_ = &r;
    const Schedule& plan = r.plan;
    // Client 0 inserts every key exactly once, in a seeded shuffle so the
    // key space fills non-monotonically; values are a pure function of
    // (seed, key), making the phantom check exact.
    Xoshiro256 rng(r.seed);
    insert_order_.resize(plan.ops);
    for (std::uint32_t i = 0; i < plan.ops; ++i) insert_order_[i] = i;
    for (std::uint32_t i = plan.ops; i > 1; --i) {
      std::swap(insert_order_[i - 1], insert_order_[rng.below(i)]);
    }
    for (std::uint32_t i = 0; i < plan.ops; ++i) values_.push_back(scan_value(i, rng()));
    const std::uint32_t max_limit = std::max<std::uint32_t>(plan.max_scan_limit, 1);
    scan_plan_.resize(std::max<std::uint32_t>(plan.scans, 1));
    for (Planned& ps : scan_plan_) {
      ps.start = static_cast<std::uint32_t>(rng.below(plan.ops));
      ps.limit = 1 + static_cast<std::uint32_t>(rng.below(max_limit));
    }
    drive_put();
    drive_scan();
  }

  void audit(Run& r) override {
    r.probe("scan-probe");
    // A full-range scan sees every acked key exactly once.
    std::vector<std::pair<std::string, std::string>> out;
    const std::uint32_t limit = r.plan.ops + 8;
    const Status st = r.cluster.scan(scan_key(0), limit, &out, 1);
    r.log("audit-scan status=%s entries=%zu acked=%zu scan-failures=%llu",
          std::string(to_string(st)).c_str(), out.size(), acked_.size(),
          static_cast<unsigned long long>(scan_failures_));
    if (st != Status::kOk) {
      r.violation("final audit scan failed: " + std::string(to_string(st)));
    } else {
      check_scan("audit", scan_key(0), limit, {acked_.begin(), acked_.end()}, out);
    }
  }

 private:
  struct Planned {
    std::uint32_t start = 0;
    std::uint32_t limit = 1;
  };

  void drive_put() {
    Run& r = *run_;
    const auto op = r.next(0);
    if (!op.has_value()) return;
    const std::uint32_t key_idx = insert_order_[op->t];
    const std::uint32_t idx = op->idx;
    r.log("op=%u put sk-%06u", idx, key_idx);
    r.cluster.clients()[0]->put(scan_key(key_idx), values_[key_idx],
                                [this, key_idx, idx, slot = op->slot](Status st) {
                                  run_->done(slot);
                                  if (st == Status::kOk) {
                                    ++run_->report.acked;
                                    acked_.insert(key_idx);
                                  }
                                  run_->log("op=%u put-done status=%s", idx,
                                            std::string(to_string(st)).c_str());
                                  drive_put();
                                });
  }

  void drive_scan() {
    Run& r = *run_;
    const auto planned = static_cast<std::uint32_t>(scan_plan_.size());
    // Scans outlast the plan, replaying the planned scans, while a healthy
    // migration is in flight -- no epoch advance since it began and no shard
    // down -- so its commit always meets a streaming cursor. A migration a
    // crash stalls ends the stream at the plan.
    if (scan_cursor_ >= planned) {
      db::HydraCluster& cluster = r.cluster;
      bool healthy =
          cluster.migration_active() && cluster.routing_epoch() == r.migration_epoch;
      for (ShardId id = 0; healthy && id < static_cast<ShardId>(cluster.shard_count()); ++id) {
        healthy = cluster.shard_retired(id) || cluster.shard(id)->alive();
      }
      if (!healthy) return;
    }
    const Planned ps = scan_plan_[scan_cursor_ % planned];
    const std::uint32_t scan_idx = scan_cursor_++;
    const std::string start_key = scan_key(ps.start);
    const auto [t, idx, slot] = r.issue("scan " + start_key);
    auto snapshot = std::make_shared<std::vector<std::uint32_t>>(acked_.begin(), acked_.end());
    r.log("op=%u scan start=sk-%06u limit=%u acked=%zu", idx, ps.start, ps.limit,
          snapshot->size());
    r.cluster.clients()[1]->scan(
        start_key, ps.limit,
        [this, scan_idx, idx, slot, start_key, ps, snapshot](
            Status st, client::Client::ScanEntries entries) {
          run_->done(slot);
          run_->log("op=%u scan-done status=%s entries=%zu", idx,
                    std::string(to_string(st)).c_str(), entries.size());
          if (st == Status::kOk) {
            ++run_->report.scans_acked;
            run_->report.scan_entries += entries.size();
            check_scan("scan " + std::to_string(scan_idx), start_key, ps.limit, *snapshot,
                       entries);
          } else {
            ++scan_failures_;
          }
          drive_scan();
        });
  }

  // Verifies one completed scan against the acked-set snapshot taken when
  // it was issued. `context` labels the violation text.
  void check_scan(const std::string& context, const std::string& start_key,
                  std::uint32_t limit, const std::vector<std::uint32_t>& snapshot,
                  const client::Client::ScanEntries& entries) {
    Run& r = *run_;
    // Invariant 1: strictly ascending (covers both ordering and dups).
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (entries[i - 1].first < entries[i].first) continue;
      ++r.report.dup_keys;
      r.violation(context + ": result not strictly ascending at [" + std::to_string(i) +
                  "]: \"" + entries[i - 1].first + "\" then \"" + entries[i].first + "\"");
    }
    // Invariant 3: no phantoms -- every entry is a planned (key, value).
    for (const auto& [k, v] : entries) {
      const auto idx = parse_scan_key(k);
      if (!idx.has_value() || *idx >= r.plan.ops) {
        ++r.report.phantoms;
        r.violation(context + ": phantom key \"" + k + "\"");
        continue;
      }
      if (k < start_key) {
        ++r.report.lost_keys;
        r.violation(context + ": key \"" + k + "\" precedes scan start \"" + start_key + "\"");
      }
      if (v != values_[*idx]) {
        ++r.report.phantoms;
        r.violation(context + ": key \"" + k + "\" carries foreign value \"" + v + "\"");
      }
    }
    // Invariant 2: no lost key inside the observed window. When the limit
    // was filled the window closes at the last returned key; otherwise the
    // scan claims to have exhausted the range.
    const bool window_closed = entries.size() >= limit;
    const std::string upper =
        window_closed && !entries.empty() ? entries.back().first : std::string();
    for (const std::uint32_t idx : snapshot) {
      const std::string key = scan_key(idx);
      if (key < start_key || (window_closed && key > upper)) continue;
      const bool present = std::binary_search(
          entries.begin(), entries.end(), std::pair<std::string, std::string>(key, ""),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (!present) {
        ++r.report.lost_keys;
        r.violation(context + ": acked key \"" + key + "\" missing from scan window [\"" +
                    start_key + "\", " + (window_closed ? "\"" + upper + "\"" : "inf") + "]");
      }
    }
  }

  Run* run_ = nullptr;
  std::vector<std::uint32_t> insert_order_;
  std::vector<std::string> values_;
  std::vector<Planned> scan_plan_;
  std::set<std::uint32_t> acked_;  ///< key indices whose INSERT acked kOk
  std::uint32_t scan_cursor_ = 0;
  std::uint64_t scan_failures_ = 0;
};

}  // namespace

const FamilyDef kScanFamily = {"scan", scripted, random,
                               [] { return std::unique_ptr<Driver>(new ScanDriver); }};

}  // namespace hydra::chaos
