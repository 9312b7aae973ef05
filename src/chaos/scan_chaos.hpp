// Chaos harness for ordered range scans across live migration (DESIGN.md
// §13) -- the scan-mid-migration family.
//
// A ScanSchedule composes faults -- live expansion (add_shard_live) and
// drain (drain_shard_live) migrations, source/destination primary kills,
// SWAT-member kills, heartbeat suppression (fencing + epoch bump) and torn
// one-sided leaf-page reads -- fired at parameterized points of a two-role
// workload: one client streams INSERTs of brand-new keys while another
// issues seeded range scans the whole time. The ScanChaosRunner executes
// the workload against a fresh ordered-index cluster, injects the faults,
// lets failover/migration settle, and verifies per completed scan:
//
//   1. no duplicate key: the merged result is strictly ascending (the
//      dual-ownership window of a migration must be deduplicated);
//   2. no lost key: every key whose INSERT was acked before the scan was
//      issued and that falls inside the scan's observed window appears;
//   3. no phantom: every returned (key, value) pair is one the workload
//      actually wrote;
//   4. nothing wedges: every operation callback eventually fires;
//
// plus cluster-level post-conditions: a probe PUT succeeds and a final
// full-range scan audit sees every acked key exactly once. Everything
// flows from (schedule, seed) through the virtual clock, so the report's
// history string is byte-identical across runs of the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace hydra::obs {
class Plane;
}  // namespace hydra::obs

namespace hydra::chaos {

enum class ScanFaultKind : std::uint8_t {
  kAddShard,     ///< start a live expansion migration
  kDrainShard,   ///< start draining an original shard out of the ring
  kKillSource,   ///< crash an original (migration-source) primary
  kKillDest,     ///< crash the shard spawned by kAddShard (no-op before it)
  kKillSwatMember,
  kSuppressHeartbeats,  ///< fence an original primary: epoch-bump demotion
  kTornLeafReads,       ///< garble a share of one-sided leaf-page reads
};

[[nodiscard]] const char* to_string(ScanFaultKind kind) noexcept;

struct ScanFault {
  ScanFaultKind kind = ScanFaultKind::kAddShard;
  int index = 0;  ///< source-shard / SWAT-member index
  /// Fires `delay` of virtual time after the operation with this global
  /// issue index starts.
  std::uint32_t at_op = 0;
  Duration delay = 0;
  Duration duration = 0;        ///< suppression length / torn-read window
  std::uint32_t percent = 50;   ///< torn-read probability (kTornLeafReads)
};

struct ScanSchedule {
  std::string name;
  std::uint32_t inserts = 150;     ///< client 0: INSERT stream length
  /// Client 1: scan stream length; the stream runs on while a migration is
  /// in flight with every shard up and has not yet advanced the routing
  /// epoch.
  std::uint32_t scans = 80;
  /// Per-scan limit drawn in [1, max]. Deliberately larger than
  /// shards x the runner's scan batch so scans need continuation rounds --
  /// that is where tokens straddle epoch bumps and leaf hints get consumed.
  std::uint32_t max_scan_limit = 48;
  int server_nodes = 3;            ///< one original shard per node
  int replicas = 2;
  int swat_members = 2;
  bool leaf_reads = true;          ///< one-sided leaf-page continuations on
  std::vector<ScanFault> faults;

  /// The scripted families: fault-free merge baseline, scans across a live
  /// expansion, scans across a live drain, destination and source kills
  /// mid-copy, a drain overlapping a SWAT leadership gap, torn leaf reads,
  /// and a migration + fencing + torn-read composition.
  static std::vector<ScanSchedule> scripted();

  /// Seeded-random composition over the same fault alphabet.
  static ScanSchedule random(std::uint64_t seed);
};

struct ScanRunReport {
  /// Deterministic textual log; byte-identical across runs of one
  /// (schedule, seed), with or without an observability plane attached.
  std::string history;
  std::vector<std::string> violations;
  std::uint64_t puts_acked = 0;
  std::uint64_t scans_acked = 0;   ///< scans completing kOk
  std::uint64_t scan_entries = 0;  ///< entries across all acked scans
  std::uint64_t wedged = 0;
  std::uint64_t lost_keys = 0;     ///< invariant-2 violations (also listed)
  std::uint64_t dup_keys = 0;      ///< invariant-1 violations (also listed)
  std::uint64_t phantoms = 0;      ///< invariant-3 violations (also listed)
  std::uint64_t failovers = 0;
  // Plane activity post-settle.
  std::uint64_t scan_restarts = 0;
  std::uint64_t scan_leaf_reads = 0;
  std::uint64_t scan_leaf_fallbacks = 0;
  std::uint64_t scan_token_rejects = 0;
  std::uint64_t torn_reads = 0;

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
};

class ScanChaosRunner {
 public:
  /// Runs `schedule` against a fresh cluster; `seed` drives the insert
  /// order, scan start points and any randomized schedule parameters.
  static ScanRunReport run(const ScanSchedule& schedule, std::uint64_t seed,
                           obs::Plane* plane = nullptr);
};

}  // namespace hydra::chaos
