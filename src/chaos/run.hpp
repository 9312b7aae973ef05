// The chaos run skeleton as a workload driver sees it (DESIGN.md §7).
// Internal to src/chaos: harness.cpp owns the skeleton, and each family's
// file supplies its schedules and a Driver.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/harness.hpp"
#include "common/rng.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"

namespace hydra::chaos {

class Run;

/// One family's workload and the invariants only it has.
class Driver {
 public:
  virtual ~Driver() = default;
  /// Adjusts the options the skeleton derived from the schedule's shape.
  virtual void configure(const Schedule& plan, db::ClusterOptions& opts) const = 0;
  /// Plans the workload and issues each stream's first operation. Drivers
  /// issue every op through Run::next/issue and call Run::done from its
  /// callback, so the skeleton can fire faults and detect wedges.
  virtual void start(Run& run) = 0;
  /// Post-settle checks, including the probe PUT at the family's point in
  /// its final reads (probes and reads advance the virtual clock).
  virtual void audit(Run& run) = 0;
};

struct FamilyDef {
  const char* name;  ///< to_string(Family), the replay key
  std::vector<Schedule> (*scripted)();
  Schedule (*random)(std::uint64_t seed);
  std::unique_ptr<Driver> (*driver)();  ///< null for the cross family
};

extern const FamilyDef kChaosFamily;
extern const FamilyDef kMigrationFamily;
extern const FamilyDef kFailoverFamily;
extern const FamilyDef kHotKeyFamily;
extern const FamilyDef kScanFamily;
extern const FamilyDef kTxnFamily;

/// A schedule holding `family`'s default shape, named `name`.
Schedule make_schedule(Family family, std::string name);

/// Closed-loop unique-key PUTs (keys `key_prefix`<i>); a probe PUT of
/// `probe_key` (none when null) follows the final reads, then the family's
/// own checks (`family_audit`, when set).
std::unique_ptr<Driver> make_put_driver(const char* key_prefix, const char* probe_key,
                                        void (*family_audit)(Run&) = nullptr);

/// "%016llx" of `v`: the payload suffix of every family's values.
std::string hex16(std::uint64_t v);

class Run {
 public:
  Run(const Schedule& plan, std::uint64_t seed, obs::Plane* plane, Report& report,
      db::ClusterOptions opts);

  /// The whole skeleton: hooks, workload, settle, shared checks, `end` line.
  void execute(Driver& driver);

  /// Appends "t=<now> <text>\n" to the history.
#if defined(__GNUC__)
  __attribute__((format(printf, 2, 3)))
#endif
  void log(const char* fmt, ...);
  void violation(std::string text);

  struct Op {
    std::uint32_t t = 0;    ///< index within its client's stream
    std::uint32_t idx = 0;  ///< global issue index, which faults are keyed on
    std::size_t slot = 0;   ///< for done()
  };
  /// Issues the run's next operation: starts the schedule's migration if it
  /// is due, arms every fault scheduled at this global index, and tracks
  /// the op as in flight (`what` names it if it wedges).
  Op issue(const std::string& what);
  /// Issues client `c`'s next op of its closed-loop stream of `plan.ops`;
  /// nullopt once the stream is done.
  std::optional<Op> next(int c);
  /// Tracks a follow-up step of an issued op (a readback); `label` names it.
  std::size_t track(std::string label);
  void done(std::size_t slot);

  /// Writes `key` through the cluster; a failure means it is not writable.
  void probe(const char* key);
  /// Starts a live add or drain and records it as the run's migration.
  void migrate(MigrationOp op, ShardId victim);

  const Schedule& plan;
  const std::uint64_t seed;
  obs::Plane* const plane;  ///< null when the run is not traced
  Report& report;
  db::HydraCluster cluster;
  sim::Scheduler& sched;

  ShardId hot_shard = kInvalidShard;  ///< what kHotShard resolves to
  ShardId subject = kInvalidShard;    ///< the migration's added/drained shard
  bool migration_started = false;
  std::uint64_t migration_epoch = 0;  ///< routing epoch the migration began in
  /// The trace as it stood when the first failover completed (with a plane):
  /// the bounded node rings evict lifecycle records under pulse traffic.
  std::optional<obs::TraceQuery> recovery_trace;

  [[nodiscard]] bool killed_a_primary() const noexcept { return !killed_.empty(); }

 private:
  void install_hooks();
  void apply(const Fault& f);
  void observe();
  void shared_checks();

  std::vector<Fault> armed_writes_;
  std::vector<FaultKind> armed_revokes_;
  bool torn_armed_ = false;
  std::uint32_t torn_percent_ = 0;
  Xoshiro256 torn_rng_;

  std::uint32_t issued_ = 0;
  std::vector<std::uint32_t> cursors_;  ///< per client: next op of its stream
  std::vector<std::string> ops_;        ///< labels of tracked operations
  std::vector<bool> done_;
  std::size_t outstanding_ = 0;

  std::vector<ShardId> killed_;  ///< shards whose primary a fault killed
  bool killed_secondary_ = false;
  Time first_kill_ = 0;
  bool recovery_pending_ = false;
  std::uint64_t failovers_at_kill_ = 0;
  Time migrate_called_at_ = 0;
  bool migration_settled_ = false;
};

}  // namespace hydra::chaos
