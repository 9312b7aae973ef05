// Deterministic chaos harness (DESIGN.md section 7).
//
// One fault alphabet, one schedule and report type, and one run skeleton
// that every chaos family plugs a workload driver into. A Schedule composes
// faults fired at parameterized points of its family's workload (op index +
// virtual-time delay, so kills land mid-operation). run() builds a fresh
// HydraCluster, installs the write/revoke/read fault hooks once, drives the
// workload, waits out any migration, settles, and checks the
// invariants every family shares -- no wedged callback, the cluster still
// writable, a killed primary promoted, the replication factor restored,
// routing epochs published monotonically -- before the driver checks its
// own (DESIGN.md sections 9 and 11-14).
//
// Everything flows from (schedule, seed) through hydra::sim's virtual clock,
// so a run is reproducible byte-for-byte: the report's history string is
// identical across runs with the same (schedule, seed), with or without an
// observability plane attached.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "proto/messages.hpp"
#include "replication/primary.hpp"

namespace hydra::obs {
class Plane;
}  // namespace hydra::obs

namespace hydra::chaos {

/// The union of every family's faults. Values are stable: the obs plane
/// traces kFaultInjected with a = FaultKind, and new kinds only append.
enum class FaultKind : std::uint8_t {
  kKillPrimary,         ///< crash a shard's primary process
  kKillSecondary,       ///< crash one replica (primary must self-discover)
  kKillSwatMember,      ///< crash a SWAT member (leadership-gap window)
  kTearRecordWrite,     ///< next record-ring RDMA write commits a prefix
  kDropRecordWrite,     ///< next record-ring RDMA write commits nothing
  kTearAckWrite,        ///< next ack RDMA write commits a prefix
  kDropAckWrite,        ///< next ack RDMA write commits nothing
  kSuppressHeartbeats,  ///< mute a primary's coordinator heartbeats
  kFailApply,           ///< inject replica apply failures (forces rollback)
  kKillMuxChannel,      ///< abruptly kill a client node's shared mux QP
  kTearRevocation,      ///< next rkey revocation applies but loses its confirm
  kDropRevocation,      ///< next rkey revocation is lost entirely (forces retry)
  kTearAtomic,          ///< next lock-arena atomic executes but flushes
  kDropAtomic,          ///< next lock-arena atomic never executes
  kTornLeafReads,       ///< garble a share of one-sided leaf-page reads
  kAddShard,            ///< start a live expansion migration
  kDrainShard,          ///< start draining a shard out of the ring
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// A fault's `shard` may name this instead of an id: the shard owning the
/// hotkey workload's hottest key, resolved when the fault fires (placement
/// is a hash artifact a schedule cannot know).
inline constexpr ShardId kHotShard = kInvalidShard - 1;

struct Fault {
  FaultKind kind = FaultKind::kKillPrimary;
  /// Target of kills, wire faults, heartbeat suppression and drains. Shard
  /// ids are append-only, so a schedule can aim at a shard an add-migration
  /// will create; the fault is skipped if it still does not exist.
  ShardId shard = 0;
  /// Secondary index / SWAT member / client node (mux kill) / number of
  /// revocation verbs to fault (`max(1, index)`).
  int index = 0;
  /// Fires `delay` of virtual time after operation `at_op` is issued --
  /// op-indexed so schedules compose with any workload length, delayed so
  /// kills land mid-operation rather than between operations.
  std::uint32_t at_op = 0;
  Duration delay = 0;
  Duration duration = 0;         ///< heartbeat suppression / torn-read window
  std::uint32_t torn_bytes = 8;  ///< committed prefix for record/ack tears
  std::uint32_t percent = 50;    ///< share of leaf reads torn (kTornLeafReads)
};

/// A chaos family: the sweep a schedule belongs to and, except for kCross,
/// the workload driver that runs it.
enum class Family : std::uint8_t {
  kChaos,      ///< closed-loop unique-key PUTs (the failover plane)
  kMigration,  ///< PUT + readback across a live add/drain (section 9)
  kFailover,   ///< PUTs on a fast-failover cluster (section 14)
  kHotKey,     ///< skewed multi-client GET/PUT (section 12)
  kScan,       ///< INSERT stream racing range scans (section 13)
  kTxn,        ///< multi-shard transaction mix (section 11)
  kCross,      ///< any driver above plus faults from other planes
};

[[nodiscard]] const char* to_string(Family family) noexcept;
[[nodiscard]] std::optional<Family> family_named(std::string_view name) noexcept;

enum class MigrationOp : std::uint8_t {
  kAdd,    ///< spawn a new shard and rebalance ~1/N of every range onto it
  kDrain,  ///< move everything off an existing shard, then retire it
};

struct Schedule {
  static constexpr std::uint32_t kNever = 0xFFFFFFFFU;

  std::string name;
  Family family = Family::kChaos;  ///< the sweep (replay key)
  Family driver = Family::kChaos;  ///< the workload; never kCross
  std::vector<Fault> faults;

  // --- cluster shape -------------------------------------------------------
  int shards = 1;  ///< initial primaries
  int replicas = 1;
  int swat_members = 2;
  replication::ReplicationMode mode = replication::ReplicationMode::kLogRelaxed;
  bool mux = false;  ///< QP-multiplexed connections (DESIGN.md §10)
  bool fast_failover = false;

  // --- workload ------------------------------------------------------------
  /// `clients` closed-loop streams of `ops` operations each.
  int clients = 1;
  std::uint32_t ops = 60;
  /// Start a live migration synchronously when op `migrate_at` issues. Unlike
  /// a kAddShard/kDrainShard fault, this one must commit.
  std::uint32_t migrate_at = kNever;
  MigrationOp migrate_op = MigrationOp::kAdd;
  ShardId drain_victim = 1;

  // --- driver knobs --------------------------------------------------------
  /// Failover: false when the faults are designed to exhaust the revocation
  /// retry budget, waiving the <1 ms gap bound (legacy path promotes).
  bool expect_fast = true;
  std::uint32_t preload = 0;  ///< migration: keys direct-loaded; readbacks on
  /// Hotkey: the key universe hk-0..N-1. Txn: keys come from a shared
  /// universe this small (contention runs); 0 = disjoint keys per txn.
  std::uint32_t universe = 0;
  std::uint32_t hot_percent = 70;  ///< hotkey: share of reads hitting hk-0
  std::uint32_t write_every = 0;   ///< hotkey: client 0 PUTs every N ops
  std::uint32_t scans = 0;  ///< scan: client 1's scans; client 0 inserts `ops`
  std::uint32_t max_scan_limit = 48;  ///< scan: per-scan limit in [1, max]
  bool leaf_reads = true;             ///< scan: one-sided leaf continuations
  proto::TxnMode txn_mode = proto::TxnMode::kNoWait;
  std::uint32_t keys_per_txn = 4;
  std::uint32_t lock_words = 128;  ///< txn: per-shard lock arena size

  [[nodiscard]] std::uint32_t total_ops() const noexcept {
    return static_cast<std::uint32_t>(clients) * ops + scans;
  }

  /// The family's scripted schedules (for kCross: regressions its random
  /// sweep found).
  static std::vector<Schedule> scripted(Family family);
  /// Seeded-random composition over the family's alphabet.
  static Schedule random(Family family, std::uint64_t seed);
};

/// The scripted schedule `name` of `family`; throws std::invalid_argument
/// when there is none.
[[nodiscard]] Schedule scripted_by_name(Family family, std::string_view name);

struct Report {
  /// Deterministic textual log of everything that happened (ops, faults,
  /// probes, verdicts); byte-identical across runs of the same seed.
  std::string history;
  /// Human-readable invariant violations; empty means the run passed.
  std::vector<std::string> violations;
  std::string replay;  ///< the chaos_replay command reproducing this run
  Time end_time = 0;   ///< virtual time of the history's `end` line
  std::uint64_t faults_applied = 0;
  std::uint64_t acked = 0;   ///< writes acked kOk: PUTs, INSERTs or txns
  std::uint64_t wedged = 0;  ///< operations whose callback never fired
  std::uint64_t failovers = 0;
  /// Virtual time from the first primary kill to the failover completing
  /// (0 when the schedule kills no primary or no failover happened).
  Duration recovery_time = 0;

  // Migration plane.
  bool migration_completed = false;
  /// Virtual time from the add/drain call to the commit (0 if never done).
  Duration migration_time = 0;
  std::uint64_t readbacks = 0;  ///< mid-migration GETs issued by the workload
  std::uint64_t keys_moved = 0;
  std::uint64_t flow_restarts = 0;
  std::uint64_t forwarded = 0;            ///< dual-ownership catch-up records
  std::uint64_t epoch_invalidations = 0;  ///< cached pointers dropped by clients
  std::uint64_t epoch_before = 0;
  std::uint64_t epoch_after = 0;

  // Fast-failover plane.
  std::uint64_t fast_promotions = 0;  ///< rounds that won the ballot and promoted
  std::uint64_t rounds_started = 0;   ///< suspicion rounds opened (>=2 = a race)
  std::uint64_t rounds_aborted = 0;
  std::uint64_t ballots_lost = 0;  ///< CAS ballots that saw another winner
  std::uint64_t revocations = 0;   ///< revoke verbs that applied at the owner
  /// First primary crash to that shard's promotion, from the trace.
  Duration failover_gap = 0;

  // Hot-key plane (summed over live shards / all clients post-settle).
  std::uint64_t gets_acked = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t replica_hits = 0;

  // Scan plane.
  std::uint64_t scans_acked = 0;   ///< scans completing kOk
  std::uint64_t scan_entries = 0;  ///< entries across all acked scans
  std::uint64_t lost_keys = 0;
  std::uint64_t dup_keys = 0;
  std::uint64_t phantoms = 0;
  std::uint64_t scan_restarts = 0;
  std::uint64_t scan_leaf_reads = 0;
  std::uint64_t scan_leaf_fallbacks = 0;
  std::uint64_t scan_token_rejects = 0;
  std::uint64_t torn_reads = 0;

  // Transaction plane.
  std::uint64_t failed = 0;     ///< transactions completed non-kOk
  std::uint64_t conflicts = 0;  ///< lock CAS conflicts across all clients
  std::uint64_t died = 0;       ///< conflict aborts
  std::uint64_t waits = 0;      ///< WAIT_DIE older-waits retries
  std::uint64_t restarts = 0;
  std::uint64_t torn_atomics = 0;
  std::uint64_t dropped_atomics = 0;
  std::uint64_t lock_leaks = 0;  ///< non-zero lock words found post-settle

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
};

/// Runs `schedule` against a fresh cluster; `seed` drives the payloads and
/// any randomized workload choices. `plane` (optional) is attached to the
/// cluster -- fast-failover runs get an internal one without it -- and the
/// history is byte-identical either way.
Report run(const Schedule& schedule, std::uint64_t seed, obs::Plane* plane = nullptr);

/// Violations, the replay command and the history: a sweep's failure text.
[[nodiscard]] std::string describe(const Report& report);

/// The run count a seeded sweep reads from environment variable `env`
/// (tier1.sh scales sweeps with these), or `fallback` when unset or invalid.
[[nodiscard]] inline int random_runs(const char* env, int fallback) {
  const char* v = std::getenv(env);
  const int n = v == nullptr ? 0 : std::atoi(v);
  return n > 0 ? n : fallback;
}

}  // namespace hydra::chaos
