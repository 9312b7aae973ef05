// MigrationManager: the coordinator-driven executor of live shard
// migrations (DESIGN.md §9).
//
// Protocol phases, per migration:
//
//   prepare    begin_add()/begin_drain() freezes a MigrationPlan (before and
//              after ring copies) and builds one *flow* per (src, dst) pair:
//              a staging SecondaryShard ("sink") on the destination's node
//              plus a ReplicationPrimary ("link") running inside the source
//              shard's actor, reusing the record-ring transfer machinery --
//              retransmit-in-place, cumulative acks, backlog -- for the bulk
//              copy.
//   copy       each manager tick posts a bounded batch of snapshot keys down
//              the link, re-reading the source store at post time. The
//              source keeps serving the moving range; every write it applies
//              there is *also* forwarded down the matching flow
//              (dual-ownership catch-up), and the FIFO ring makes the last
//              write win at the sink.
//   seal       once every snapshot is fully posted, sources start answering
//              kWrongOwner for moving keys (no new writes can race) while
//              in-flight ring records settle.
//   commit     sinks drain + merge into the destination primaries (and their
//              replicas), the live ring is mutated, the routing epoch is
//              bumped and published -- which invalidates every cached remote
//              pointer into the moved ranges -- and, for a drain, the
//              subject shard is retired.
//
// Crash tolerance: a source crash invalidates its flow (the link's pending
// completions die with the shard actor); the flow is rebuilt from scratch --
// fresh sink, fresh link under the promoted primary, fresh snapshot -- so a
// key removed during the gap can never be resurrected from a stale sink. A
// destination crash just delays the commit until SWAT promotes a replica.
// A migration that stops making progress (e.g. a shard with no promotable
// replica) aborts without mutating the ring.
//
// The manager schedules events only while a migration is active, so idle
// clusters keep byte-identical event histories with or without it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/migration.hpp"
#include "obs/trace.hpp"
#include "proto/messages.hpp"
#include "replication/primary.hpp"
#include "replication/secondary.hpp"
#include "sim/actor.hpp"

namespace hydra::db {

class HydraCluster;

struct MigrationStats {
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t flow_restarts = 0;  ///< flows rebuilt after a source crash
  std::uint64_t keys_moved = 0;     ///< keys merged into destinations
  std::uint64_t bytes_moved = 0;    ///< key+value bytes of those merges
  std::uint64_t forwarded = 0;      ///< dual-ownership records forwarded
};

class MigrationManager : public sim::Actor {
 public:
  explicit MigrationManager(HydraCluster& cluster);

  /// Starts migrating ~1/N of every existing shard's keys toward `subject`
  /// (already spawned, not yet in the ring). False if a migration is active.
  bool begin_add(ShardId subject);
  /// Starts draining every key off `subject` (in the ring, primary alive).
  bool begin_drain(ShardId subject);

  [[nodiscard]] bool active() const noexcept { return phase_ != Phase::kIdle; }
  /// True when the seal is up and `shard` must reject `key_hash`: it is the
  /// pre-migration owner of a moving key whose new owner is about to be
  /// committed. Consulted by the owner filter on every request.
  [[nodiscard]] bool sealed_rejects(ShardId shard, std::uint64_t key_hash) const {
    return sealed_ && plan_.moving_from(shard, key_hash);
  }
  [[nodiscard]] const MigrationStats& stats() const noexcept { return stats_; }

 private:
  enum class Phase : std::uint8_t { kIdle, kCopy, kSealWait };

  /// One (src, dst) transfer lane. `sink` and `link` are rebuilt wholesale
  /// when the source crashes; retired instances stay allocated in
  /// `retired_` because in-flight fabric ops may still reference them.
  struct Flow {
    ShardId src = kInvalidShard;
    ShardId dst = kInvalidShard;
    std::uint32_t src_gen = 0;  ///< source generation the flow was built under
    bool started = false;       ///< sink/link built, hook installed, snapshot taken
    bool copied = false;        ///< snapshot fully posted (kMigrationCopied traced)
    std::vector<std::string> keys;  ///< moving-key snapshot
    std::size_t next = 0;           ///< snapshot cursor
    std::uint64_t posted = 0;       ///< records sent down the link (copy + forward)
    /// Records posted whose ring write has not completed yet. shared_ptr so
    /// completions of a retired flow decrement a counter nothing reads.
    std::shared_ptr<std::uint64_t> inflight;
    std::unique_ptr<replication::SecondaryShard> sink;
    std::unique_ptr<replication::ReplicationPrimary> link;
  };

  bool begin(cluster::MigrationPlan plan);
  void tick();
  void start_flow(Flow& flow);
  void invalidate_flow(Flow& flow);
  void pump_flow(Flow& flow);
  /// Dual-ownership hook body: routes a write applied at `src` to the flow
  /// whose destination owns the key post-migration.
  void forward_from(ShardId src, std::uint64_t key_hash, proto::RepRecord rec);
  void seal();
  void finalize();
  void abort(std::uint64_t reason);
  void retire_flow(Flow& flow);
  [[nodiscard]] bool flow_settled(const Flow& flow) const;
  void trace(obs::TraceKind kind, std::uint64_t shard, std::uint64_t a = 0,
             std::uint64_t b = 0);

  HydraCluster& cluster_;
  Phase phase_ = Phase::kIdle;
  bool sealed_ = false;
  cluster::MigrationPlan plan_;
  std::vector<Flow> flows_;
  /// Per-migration merge totals (reported in kMigrationDone).
  std::uint64_t run_keys_ = 0;
  std::uint64_t run_bytes_ = 0;
  /// Stall detection: progress signature + ticks it has been unchanged.
  std::uint64_t progress_sig_ = 0;
  std::uint64_t stalled_ticks_ = 0;
  /// Sinks/links of finished or rebuilt flows: dead but still addressable.
  std::vector<std::unique_ptr<replication::SecondaryShard>> retired_sinks_;
  std::vector<std::unique_ptr<replication::ReplicationPrimary>> retired_links_;
  MigrationStats stats_;
};

}  // namespace hydra::db
