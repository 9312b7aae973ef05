#include "chaos/scan_chaos.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"
#include "hydradb/hydra_cluster.hpp"

namespace hydra::chaos {

const char* to_string(ScanFaultKind kind) noexcept {
  switch (kind) {
    case ScanFaultKind::kAddShard: return "add-shard";
    case ScanFaultKind::kDrainShard: return "drain-shard";
    case ScanFaultKind::kKillSource: return "kill-source";
    case ScanFaultKind::kKillDest: return "kill-dest";
    case ScanFaultKind::kKillSwatMember: return "kill-swat-member";
    case ScanFaultKind::kSuppressHeartbeats: return "suppress-heartbeats";
    case ScanFaultKind::kTornLeafReads: return "torn-leaf-reads";
  }
  return "unknown";
}

namespace {

/// Failover (session timeout 2s) + migration copy + retry backoffs.
constexpr Duration kSettle = 6 * kSecond;
constexpr Time kWorkloadTimeLimit = 120 * kSecond;
constexpr std::uint64_t kWorkloadStepLimit = 40'000'000;

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
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
  std::snprintf(buf, sizeof(buf), "sv%06u-%016llx", idx,
                static_cast<unsigned long long>(salt));
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

}  // namespace

std::vector<ScanSchedule> ScanSchedule::scripted() {
  std::vector<ScanSchedule> out;
  {
    // Fault-free cross-shard merge baseline: inserts race scans, nothing
    // else. Establishes that the cursor alone never loses/dups a key.
    ScanSchedule s;
    s.name = "scan-baseline";
    out.push_back(std::move(s));
  }
  {
    // Live expansion: a new shard joins and ~1/N of every range migrates
    // while scans stream. The commit's epoch bump must restart cursors
    // without dropping or duplicating across the handover.
    ScanSchedule s;
    s.name = "scan-add-shard-live";
    // Scans keep streaming until the copy commits (~450 us in): the runner
    // issues more while a migration is in flight.
    s.scans = 120;
    s.faults.push_back({.kind = ScanFaultKind::kAddShard, .at_op = 30});
    out.push_back(std::move(s));
  }
  {
    // Live drain: an original shard empties onto the survivors and leaves
    // the ring; scans spanning the drain see every key exactly once.
    ScanSchedule s;
    s.name = "scan-drain-shard-live";
    s.faults.push_back({.kind = ScanFaultKind::kDrainShard, .index = 0,
                        .at_op = 30});
    out.push_back(std::move(s));
  }
  {
    // The expansion destination dies mid-copy: the migration aborts and
    // the half-copied shard must never serve (or leak into) a scan.
    ScanSchedule s;
    s.name = "scan-add-kill-dest";
    s.faults.push_back({.kind = ScanFaultKind::kAddShard, .at_op = 20});
    s.faults.push_back({.kind = ScanFaultKind::kKillDest, .at_op = 45,
                        .delay = 10 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // A migration source dies mid-copy: failover promotes a replica and
    // scans targeting the dead primary restart against the new epoch.
    ScanSchedule s;
    s.name = "scan-add-kill-source";
    s.faults.push_back({.kind = ScanFaultKind::kAddShard, .at_op = 20});
    s.faults.push_back({.kind = ScanFaultKind::kKillSource, .index = 1,
                        .at_op = 50, .delay = 20 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Drain overlapping a SWAT leadership gap: promotions stall for the
    // gap; scans must keep restarting (not wedge) until the plane recovers.
    ScanSchedule s;
    s.name = "scan-drain-swat-gap";
    s.swat_members = 3;
    s.faults.push_back({.kind = ScanFaultKind::kDrainShard, .index = 0,
                        .at_op = 25});
    s.faults.push_back({.kind = ScanFaultKind::kKillSource, .index = 1,
                        .at_op = 55, .delay = 20 * kMicrosecond});
    s.faults.push_back({.kind = ScanFaultKind::kKillSwatMember, .index = 0,
                        .at_op = 55, .delay = 1900 * kMillisecond});
    out.push_back(std::move(s));
  }
  {
    // Torn one-sided leaf reads the whole run: every garbled page must be
    // caught by the client-side checksum and fall back to the message path.
    ScanSchedule s;
    s.name = "scan-torn-leaf-reads";
    s.faults.push_back({.kind = ScanFaultKind::kTornLeafReads, .at_op = 0,
                        .duration = 120 * kSecond, .percent = 60});
    out.push_back(std::move(s));
  }
  {
    // The kitchen sink: expansion + fencing epoch bump + torn leaf reads.
    ScanSchedule s;
    s.name = "scan-migration-fence-torn";
    s.faults.push_back({.kind = ScanFaultKind::kTornLeafReads, .at_op = 0,
                        .duration = 120 * kSecond, .percent = 40});
    s.faults.push_back({.kind = ScanFaultKind::kAddShard, .at_op = 25});
    s.faults.push_back({.kind = ScanFaultKind::kSuppressHeartbeats, .index = 2,
                        .at_op = 60, .duration = 3 * kSecond});
    out.push_back(std::move(s));
  }
  return out;
}

ScanSchedule ScanSchedule::random(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  ScanSchedule s;
  s.name = "scan-random-" + std::to_string(seed);
  s.inserts = 100 + static_cast<std::uint32_t>(rng.below(100));
  s.scans = 50 + static_cast<std::uint32_t>(rng.below(60));
  s.max_scan_limit = 16 + static_cast<std::uint32_t>(rng.below(48));
  s.leaf_reads = rng.below(4) != 0;
  const std::uint32_t total = s.inserts + s.scans;
  auto op_point = [&] { return static_cast<std::uint32_t>(rng.below(total)); };

  // At most one migration at a time is supported; pick one (or none).
  const std::uint64_t mig = rng.below(3);
  if (mig == 1) {
    s.faults.push_back({.kind = ScanFaultKind::kAddShard, .at_op = op_point()});
    if (rng.below(3) == 0) {
      s.faults.push_back({.kind = ScanFaultKind::kKillDest, .at_op = op_point(),
                          .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
    }
  } else if (mig == 2) {
    s.faults.push_back({.kind = ScanFaultKind::kDrainShard,
                        .index = static_cast<int>(rng.below(3)),
                        .at_op = op_point()});
  }
  if (rng.below(3) == 0) {
    s.faults.push_back({.kind = ScanFaultKind::kKillSource,
                        .index = static_cast<int>(rng.below(3)),
                        .at_op = op_point(),
                        .delay = static_cast<Duration>(rng.below(100 * kMicrosecond))});
    if (rng.below(3) == 0) {
      s.swat_members = 3;
      s.faults.push_back({.kind = ScanFaultKind::kKillSwatMember, .index = 0,
                          .at_op = op_point(),
                          .delay = 1500 * kMillisecond + rng.below(kSecond)});
    }
  }
  if (rng.below(4) == 0) {
    s.faults.push_back({.kind = ScanFaultKind::kSuppressHeartbeats,
                        .index = static_cast<int>(rng.below(3)),
                        .at_op = op_point(),
                        .duration = kSecond + rng.below(3 * kSecond)});
  }
  if (s.leaf_reads && rng.below(2) == 0) {
    s.faults.push_back({.kind = ScanFaultKind::kTornLeafReads, .at_op = 0,
                        .duration = 120 * kSecond,
                        .percent = 20 + static_cast<std::uint32_t>(rng.below(60))});
  }
  return s;
}

ScanRunReport ScanChaosRunner::run(const ScanSchedule& schedule, std::uint64_t seed,
                                   obs::Plane* plane) {
  ScanSchedule plan = schedule;
  plan.inserts = std::max<std::uint32_t>(plan.inserts, 1);
  plan.scans = std::max<std::uint32_t>(plan.scans, 1);
  plan.max_scan_limit = std::max<std::uint32_t>(plan.max_scan_limit, 1);
  // Grows past the plan when scans outlast it (see drive_scan).
  std::uint32_t total_ops = plan.inserts + plan.scans;
  for (ScanFault& f : plan.faults) f.at_op = std::min(f.at_op, total_ops - 1);

  ScanRunReport report;
  std::string& hist = report.history;
  auto violation = [&](std::string text) {
    hist += "violation: " + text + "\n";
    report.violations.push_back(std::move(text));
  };

  db::ClusterOptions opts;
  opts.server_nodes = plan.server_nodes;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 2;  // client 0 inserts, client 1 scans
  opts.replicas = plan.replicas;
  opts.enable_swat = true;
  opts.swat_members = plan.swat_members;
  opts.client_rdma_read = true;
  opts.ordered_index = true;
  opts.client_template.scan_leaf_reads = plan.leaf_reads;
  // Small batches force multi-round continuations: tokens live across epoch
  // bumps and leaf hints actually get consumed, which is the whole point of
  // this family.
  opts.client_template.scan_batch = 4;
  opts.client_template.request_timeout = 100 * kMillisecond;
  opts.client_template.max_retries = 100;
  opts.obs = plane;

  db::HydraCluster cluster(opts);
  sim::Scheduler& sched = cluster.scheduler();
  const int original_shards = static_cast<int>(cluster.shard_count());

  appendf(hist, "run schedule=%s seed=%llu inserts=%u scans=%u max-limit=%u "
                "leaf-reads=%d shards=%d\n",
          plan.name.c_str(), static_cast<unsigned long long>(seed), plan.inserts,
          plan.scans, plan.max_scan_limit, plan.leaf_reads ? 1 : 0, original_shards);

  // --- fault machinery ------------------------------------------------------
  ShardId added_shard = kInvalidShard;
  std::uint64_t migration_epoch = 0;  ///< routing epoch the last migration began in
  // The torn-read rng outlives apply_fault's frame (the hook keeps firing
  // until the window closes), hence the shared_ptr capture.
  auto torn_rng = std::make_shared<Xoshiro256>(seed ^ 0xC2B2AE3D27D4EB4FULL);

  auto apply_fault = [&](const ScanFault& f) {
    appendf(hist, "t=%llu fault %s idx=%d\n",
            static_cast<unsigned long long>(sched.now()), to_string(f.kind), f.index);
    auto original = [&](int idx) {
      return static_cast<ShardId>(idx % original_shards);
    };
    switch (f.kind) {
      case ScanFaultKind::kAddShard: {
        added_shard = cluster.add_shard_live();
        migration_epoch = cluster.routing_epoch();
        appendf(hist, "t=%llu add-shard -> %d\n",
                static_cast<unsigned long long>(sched.now()),
                added_shard == kInvalidShard ? -1 : static_cast<int>(added_shard));
        break;
      }
      case ScanFaultKind::kDrainShard: {
        const bool ok = cluster.drain_shard_live(original(f.index));
        migration_epoch = cluster.routing_epoch();
        appendf(hist, "t=%llu drain-shard %u -> %d\n",
                static_cast<unsigned long long>(sched.now()),
                static_cast<unsigned>(original(f.index)), ok ? 1 : 0);
        break;
      }
      case ScanFaultKind::kKillSource: {
        const ShardId id = original(f.index);
        auto* sh = cluster.shard(id);
        if (sh != nullptr && sh->alive() && !cluster.shard_retired(id)) {
          cluster.crash_primary(id);
        }
        break;
      }
      case ScanFaultKind::kKillDest: {
        if (added_shard == kInvalidShard) break;
        auto* sh = cluster.shard(added_shard);
        if (sh != nullptr && sh->alive()) cluster.crash_primary(added_shard);
        break;
      }
      case ScanFaultKind::kKillSwatMember:
        cluster.kill_swat_member(f.index);
        break;
      case ScanFaultKind::kSuppressHeartbeats:
        cluster.suppress_heartbeats(original(f.index), f.duration);
        break;
      case ScanFaultKind::kTornLeafReads: {
        const std::uint32_t percent = std::min<std::uint32_t>(f.percent, 100);
        cluster.fabric().set_read_fault_hook(
            [&cluster, torn_rng, percent](NodeId, NodeId, const fabric::RemoteAddr& addr,
                                          std::uint32_t size) {
              // Only leaf-page mirror reads are torn. Reads started from the
              // leaf cache, from a page's successor and from a batch's hint
              // all target a shard's page region, so matching the rkey
              // against every live shard's registration tears each kind.
              bool leaf = false;
              for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count());
                   ++s) {
                auto* sh = cluster.shard(s);
                if (sh != nullptr && sh->alive() && sh->scan_leaf_rkey() != 0 &&
                    sh->scan_leaf_rkey() == addr.rkey) {
                  leaf = true;
                  break;
                }
              }
              fabric::ReadFault fault;
              if (leaf && torn_rng->below(100) < percent) {
                fault.kind = fabric::ReadFault::Kind::kTorn;
                // A hint's length is the page's encoded length, so a tear
                // anywhere in the read corrupts the page.
                fault.torn_bytes = static_cast<std::uint32_t>(torn_rng->below(size));
              }
              return fault;
            });
        sched.after(f.duration, [&cluster] {
          cluster.fabric().set_read_fault_hook(nullptr);
        });
        break;
      }
    }
  };

  // --- workload plan --------------------------------------------------------
  // Client 0 inserts every key exactly once, in a seeded shuffle so the key
  // space fills non-monotonically; values are a pure function of
  // (seed, key), making the phantom check exact.
  Xoshiro256 rng(seed);
  std::vector<std::uint32_t> insert_order(plan.inserts);
  for (std::uint32_t i = 0; i < plan.inserts; ++i) insert_order[i] = i;
  for (std::uint32_t i = plan.inserts; i > 1; --i) {
    std::swap(insert_order[i - 1], insert_order[rng.below(i)]);
  }
  std::vector<std::string> values(plan.inserts);
  for (std::uint32_t i = 0; i < plan.inserts; ++i) values[i] = scan_value(i, rng());

  struct PlannedScan {
    std::uint32_t start = 0;
    std::uint32_t limit = 1;
  };
  std::vector<PlannedScan> scan_plan(plan.scans);
  for (auto& ps : scan_plan) {
    ps.start = static_cast<std::uint32_t>(rng.below(plan.inserts));
    ps.limit = 1 + static_cast<std::uint32_t>(rng.below(plan.max_scan_limit));
  }

  // --- closed-loop issue ----------------------------------------------------
  std::set<std::uint32_t> acked;  ///< key indices whose INSERT acked kOk
  std::uint32_t global_issue = 0;
  std::uint32_t completed = 0;
  std::uint32_t put_cursor = 0;
  std::uint32_t scan_cursor = 0;
  std::uint64_t scan_failures = 0;

  auto arm_faults = [&](std::uint32_t issue_idx) {
    for (const ScanFault& f : plan.faults) {
      if (f.at_op != issue_idx) continue;
      const ScanFault* fp = &f;
      sched.after(f.delay, [&apply_fault, fp] { apply_fault(*fp); });
    }
  };

  client::Client* writer = cluster.clients()[0];
  client::Client* scanner = cluster.clients()[1];

  std::function<void()> drive_put = [&] {
    if (put_cursor >= plan.inserts) return;
    const std::uint32_t key_idx = insert_order[put_cursor++];
    const std::uint32_t issue_idx = global_issue++;
    arm_faults(issue_idx);
    appendf(hist, "t=%llu op=%u put sk-%06u\n",
            static_cast<unsigned long long>(sched.now()), issue_idx, key_idx);
    writer->put(scan_key(key_idx), values[key_idx], [&, key_idx, issue_idx](Status st) {
      ++completed;
      if (st == Status::kOk) {
        ++report.puts_acked;
        acked.insert(key_idx);
      }
      appendf(hist, "t=%llu op=%u put-done status=%s\n",
              static_cast<unsigned long long>(sched.now()), issue_idx,
              std::string(to_string(st)).c_str());
      drive_put();
    });
  };

  // Verifies one completed scan against the acked-set snapshot taken when
  // it was issued. `context` labels the violation text.
  auto check_scan = [&](const std::string& context, const std::string& start_key,
                        std::uint32_t limit, const std::vector<std::uint32_t>& snapshot,
                        const client::Client::ScanEntries& entries) {
    // Invariant 1: strictly ascending (covers both ordering and dups).
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (entries[i - 1].first < entries[i].first) continue;
      ++report.dup_keys;
      violation(context + ": result not strictly ascending at [" +
                std::to_string(i) + "]: \"" + entries[i - 1].first +
                "\" then \"" + entries[i].first + "\"");
    }
    // Invariant 3: no phantoms -- every entry is a planned (key, value).
    for (const auto& [k, v] : entries) {
      const auto idx = parse_scan_key(k);
      if (!idx.has_value() || *idx >= plan.inserts) {
        ++report.phantoms;
        violation(context + ": phantom key \"" + k + "\"");
        continue;
      }
      if (k < start_key) {
        ++report.lost_keys;
        violation(context + ": key \"" + k + "\" precedes scan start \"" +
                  start_key + "\"");
      }
      if (v != values[*idx]) {
        ++report.phantoms;
        violation(context + ": key \"" + k + "\" carries foreign value \"" + v +
                  "\"");
      }
    }
    // Invariant 2: no lost key inside the observed window. When the limit
    // was filled the window closes at the last returned key; otherwise the
    // scan claims to have exhausted the range.
    const bool window_closed = entries.size() >= limit;
    const std::string upper = window_closed && !entries.empty()
                                  ? entries.back().first
                                  : std::string();
    for (const std::uint32_t idx : snapshot) {
      const std::string key = scan_key(idx);
      if (key < start_key) continue;
      if (window_closed && key > upper) continue;
      const bool present = std::binary_search(
          entries.begin(), entries.end(), key,
          [](const auto& a, const auto& b) {
            if constexpr (std::is_same_v<std::decay_t<decltype(a)>, std::string>) {
              return a < b.first;
            } else {
              return a.first < b;
            }
          });
      if (!present) {
        ++report.lost_keys;
        violation(context + ": acked key \"" + key +
                  "\" missing from scan window [\"" + start_key + "\", " +
                  (window_closed ? "\"" + upper + "\"" : "inf") + "]");
      }
    }
  };

  std::function<void()> drive_scan = [&] {
    // Scans outlast the plan, replaying the planned scans, while a healthy
    // migration is in flight -- no epoch advance since it began and no shard
    // down -- so its commit always meets a streaming cursor. A migration a
    // crash stalls ends the stream at the plan as before.
    if (scan_cursor >= plan.scans) {
      bool healthy = cluster.migration_active() && cluster.routing_epoch() == migration_epoch;
      for (ShardId id = 0; healthy && id < static_cast<ShardId>(cluster.shard_count()); ++id) {
        healthy = cluster.shard_retired(id) || cluster.shard(id)->alive();
      }
      if (!healthy) return;
      ++total_ops;
    }
    const PlannedScan ps = scan_plan[scan_cursor % plan.scans];
    const std::uint32_t scan_idx = scan_cursor++;
    const std::uint32_t issue_idx = global_issue++;
    arm_faults(issue_idx);
    const std::string start_key = scan_key(ps.start);
    auto snapshot = std::make_shared<std::vector<std::uint32_t>>(acked.begin(),
                                                                 acked.end());
    appendf(hist, "t=%llu op=%u scan start=sk-%06u limit=%u acked=%zu\n",
            static_cast<unsigned long long>(sched.now()), issue_idx, ps.start,
            ps.limit, snapshot->size());
    scanner->scan(start_key, ps.limit,
                  [&, scan_idx, issue_idx, start_key, ps, snapshot](
                      Status st, client::Client::ScanEntries entries) {
                    ++completed;
                    appendf(hist, "t=%llu op=%u scan-done status=%s entries=%zu\n",
                            static_cast<unsigned long long>(sched.now()), issue_idx,
                            std::string(to_string(st)).c_str(), entries.size());
                    if (st == Status::kOk) {
                      ++report.scans_acked;
                      report.scan_entries += entries.size();
                      check_scan("scan " + std::to_string(scan_idx), start_key,
                                 ps.limit, *snapshot, entries);
                    } else {
                      ++scan_failures;
                    }
                    drive_scan();
                  });
  };

  drive_put();
  drive_scan();

  std::uint64_t steps = 0;
  while (completed < total_ops && sched.now() < kWorkloadTimeLimit &&
         steps < kWorkloadStepLimit) {
    if (!sched.step()) break;
    ++steps;
  }
  const Time settle_end = sched.now() + kSettle;
  while (sched.now() < settle_end && sched.step()) {
  }
  cluster.fabric().set_read_fault_hook(nullptr);

  // --- invariant 4: every callback fired ------------------------------------
  if (completed < total_ops) {
    report.wedged = total_ops - completed;
    violation(std::to_string(report.wedged) +
              " operation(s) never completed: callback wedged");
  }

  // --- cluster still writable ----------------------------------------------
  const Status probe = cluster.put("scan-probe", "alive");
  appendf(hist, "t=%llu probe-put status=%s\n",
          static_cast<unsigned long long>(sched.now()),
          std::string(to_string(probe)).c_str());
  if (probe != Status::kOk) {
    violation("probe PUT failed: cluster not writable after faults (" +
              std::string(to_string(probe)) + ")");
  }

  // --- final audit: a full-range scan sees every acked key exactly once ----
  {
    std::vector<std::pair<std::string, std::string>> out;
    const Status st = cluster.scan(scan_key(0), plan.inserts + 8, &out, 1);
    appendf(hist, "t=%llu audit-scan status=%s entries=%zu acked=%zu\n",
            static_cast<unsigned long long>(sched.now()),
            std::string(to_string(st)).c_str(), out.size(), acked.size());
    if (st != Status::kOk) {
      violation("final audit scan failed: " + std::string(to_string(st)));
    } else {
      const std::vector<std::uint32_t> all_acked(acked.begin(), acked.end());
      check_scan("audit", scan_key(0), plan.inserts + 8, all_acked, out);
    }
  }

  // --- bookkeeping ----------------------------------------------------------
  report.failovers = cluster.failovers();
  report.torn_reads = cluster.fabric().stats().torn_reads;
  for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()); ++s) {
    auto* sh = cluster.shard(s);
    if (sh == nullptr || !sh->alive()) continue;
    report.scan_token_rejects += sh->stats().scan_token_rejects;
  }
  for (const auto* cl : cluster.clients()) {
    report.scan_restarts += cl->stats().scan_restarts;
    report.scan_leaf_reads += cl->stats().scan_leaf_reads;
    report.scan_leaf_fallbacks += cl->stats().scan_leaf_fallbacks;
  }

  appendf(hist,
          "end t=%llu puts=%llu scans=%llu scan-failures=%llu entries=%llu "
          "wedged=%llu lost=%llu dup=%llu phantom=%llu failovers=%llu "
          "restarts=%llu leaf-reads=%llu leaf-fallbacks=%llu token-rejects=%llu "
          "torn=%llu violations=%zu\n",
          static_cast<unsigned long long>(sched.now()),
          static_cast<unsigned long long>(report.puts_acked),
          static_cast<unsigned long long>(report.scans_acked),
          static_cast<unsigned long long>(scan_failures),
          static_cast<unsigned long long>(report.scan_entries),
          static_cast<unsigned long long>(report.wedged),
          static_cast<unsigned long long>(report.lost_keys),
          static_cast<unsigned long long>(report.dup_keys),
          static_cast<unsigned long long>(report.phantoms),
          static_cast<unsigned long long>(report.failovers),
          static_cast<unsigned long long>(report.scan_restarts),
          static_cast<unsigned long long>(report.scan_leaf_reads),
          static_cast<unsigned long long>(report.scan_leaf_fallbacks),
          static_cast<unsigned long long>(report.scan_token_rejects),
          static_cast<unsigned long long>(report.torn_reads),
          report.violations.size());
  return report;
}

}  // namespace hydra::chaos
