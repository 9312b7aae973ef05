#include "hydradb/migration.hpp"

#include <string>
#include <utility>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"

namespace hydra::db {
namespace {

constexpr Duration kTick = 200 * kMicrosecond;  ///< protocol pump interval
constexpr int kCopyBatch = 16;                  ///< snapshot records posted per tick
/// Abort when no flow makes observable progress for this long.
constexpr Duration kStallTimeout = 30 * kSecond;

}  // namespace

MigrationManager::MigrationManager(HydraCluster& cluster)
    : sim::Actor(cluster.scheduler(), "migration-mgr"), cluster_(cluster) {}

void MigrationManager::trace(obs::TraceKind kind, std::uint64_t shard, std::uint64_t a,
                             std::uint64_t b) {
  if (cluster_.obs() != nullptr) {
    cluster_.obs()->trace(now(), kInvalidNode, kind, shard, a, b);
  }
}

bool MigrationManager::begin_add(ShardId subject) {
  if (cluster_.ring_.contains(subject)) return false;
  return begin(cluster::plan_add(cluster_.ring_, subject));
}

bool MigrationManager::begin_drain(ShardId subject) {
  if (!cluster_.ring_.contains(subject) || cluster_.ring_.shard_count() < 2) return false;
  server::Shard* victim = cluster_.shard(subject);
  if (victim == nullptr || !victim->alive()) return false;
  return begin(cluster::plan_drain(cluster_.ring_, subject));
}

bool MigrationManager::begin(cluster::MigrationPlan plan) {
  if (active()) return false;
  plan_ = std::move(plan);
  phase_ = Phase::kCopy;
  sealed_ = false;
  run_keys_ = 0;
  run_bytes_ = 0;
  progress_sig_ = 0;
  stalled_ticks_ = 0;
  flows_.clear();
  for (const cluster::MigrationFlowSpec& spec : plan_.flows) {
    Flow flow;
    flow.src = spec.src;
    flow.dst = spec.dst;
    flow.inflight = std::make_shared<std::uint64_t>(0);
    flows_.push_back(std::move(flow));
  }
  ++stats_.started;
  HYDRA_INFO("migration: %s shard %u (%zu flows)",
             plan_.kind == cluster::MigrationKind::kAdd ? "adding" : "draining",
             plan_.subject, flows_.size());
  trace(obs::TraceKind::kMigrationStart, plan_.subject,
        plan_.kind == cluster::MigrationKind::kAdd ? 0 : 1, flows_.size());
  schedule_after(kTick, [this] { tick(); });
  return true;
}

void MigrationManager::start_flow(Flow& flow) {
  server::Shard* src = cluster_.shard(flow.src);
  flow.src_gen = cluster_.shard_generation(flow.src);

  replication::SecondaryConfig sink_cfg;
  sink_cfg.primary_shard = flow.dst;
  sink_cfg.store = cluster_.opts_.shard_template.store;
  flow.sink = std::make_unique<replication::SecondaryShard>(
      scheduler(), cluster_.fabric(), cluster_.primaries_[flow.dst].node, sink_cfg);

  // The link runs inside the source shard's actor: if the source crashes,
  // every pending completion dies with it and the flow is rebuilt.
  replication::PrimaryConfig link_cfg;
  link_cfg.mode = replication::ReplicationMode::kLogRelaxed;
  link_cfg.ack_interval = 16;
  flow.link = std::make_unique<replication::ReplicationPrimary>(*src, cluster_.fabric(),
                                                                src->node(), link_cfg);
  flow.link->add_secondary(*flow.sink);

  // Install the dual-ownership hook *before* snapshotting: a write landing
  // between the two is both forwarded and (as the key's current value)
  // re-read by the copy cursor -- either way the sink converges on it.
  const ShardId src_id = flow.src;
  src->set_migration_forward(
      [this, src_id](std::uint64_t h) {
        return active() && !sealed_ && plan_.moving_from(src_id, h);
      },
      [this, src_id](std::uint64_t h, proto::RepRecord rec) {
        forward_from(src_id, h, std::move(rec));
      });

  flow.keys.clear();
  src->store().for_each([&](std::string_view key, std::string_view, std::uint64_t) {
    const std::uint64_t h = hash_key(key);
    if (plan_.moving_from(flow.src, h) && plan_.target_of(h) == flow.dst) {
      flow.keys.emplace_back(key);
    }
  });
  flow.next = 0;
  flow.posted = 0;
  flow.copied = false;
  flow.inflight = std::make_shared<std::uint64_t>(0);
  flow.started = true;
}

void MigrationManager::invalidate_flow(Flow& flow) {
  HYDRA_WARN("migration: source shard %u crashed; rebuilding flow to %u", flow.src,
             flow.dst);
  retire_flow(flow);
  flow.started = false;
  flow.copied = false;
  flow.keys.clear();
  flow.next = 0;
  flow.posted = 0;
  flow.inflight = std::make_shared<std::uint64_t>(0);
  ++stats_.flow_restarts;
  trace(obs::TraceKind::kMigrationRestarted, flow.src, 0, flow.dst);
  // Records lost with the crashed source reopen the copy phase.
  if (phase_ == Phase::kSealWait) phase_ = Phase::kCopy;
}

void MigrationManager::retire_flow(Flow& flow) {
  if (flow.sink) {
    flow.sink->kill();
    retired_sinks_.push_back(std::move(flow.sink));
  }
  if (flow.link) retired_links_.push_back(std::move(flow.link));
}

void MigrationManager::pump_flow(Flow& flow) {
  if (flow.copied) return;
  server::Shard* src = cluster_.shard(flow.src);
  // Self-throttle on write completions so the sink ring backlog stays
  // bounded no matter how large the snapshot is.
  int budget = kCopyBatch;
  while (budget > 0 && flow.next < flow.keys.size() &&
         *flow.inflight < 2u * static_cast<std::uint32_t>(kCopyBatch)) {
    const std::string& key = flow.keys[flow.next++];
    // Re-read at post time: the source kept serving writes, so the snapshot
    // is a key list, not a value list (last writer wins at the sink).
    auto view = src->store().get(key, now(), /*grant_lease=*/false);
    if (!view.ok()) continue;  // removed since the snapshot; forward covered it
    proto::RepRecord rec;
    rec.op = proto::MsgType::kPut;
    rec.op_time = now();
    rec.key = key;
    rec.value.assign(view.value().value);
    ++flow.posted;
    auto inflight = flow.inflight;
    ++*inflight;
    flow.link->replicate(std::move(rec), [inflight] { --*inflight; });
    --budget;
  }
  if (flow.next == flow.keys.size() && !flow.copied) {
    flow.copied = true;
    trace(obs::TraceKind::kMigrationCopied, flow.src, flow.posted, flow.dst);
  }
}

void MigrationManager::forward_from(ShardId src, std::uint64_t key_hash,
                                    proto::RepRecord rec) {
  for (Flow& flow : flows_) {
    if (flow.src != src || plan_.target_of(key_hash) != flow.dst) continue;
    if (!flow.started || cluster_.shard_generation(src) != flow.src_gen) return;
    ++flow.posted;
    ++stats_.forwarded;
    auto inflight = flow.inflight;
    ++*inflight;
    flow.link->replicate(std::move(rec), [inflight] { --*inflight; });
    return;
  }
}

bool MigrationManager::flow_settled(const Flow& flow) const {
  return flow.started && flow.next == flow.keys.size() && *flow.inflight == 0 &&
         flow.sink->applied_seq() == flow.posted;
}

void MigrationManager::tick() {
  if (phase_ == Phase::kIdle) return;

  for (Flow& flow : flows_) {
    if (flow.started && cluster_.shard_generation(flow.src) != flow.src_gen) {
      invalidate_flow(flow);
    }
    server::Shard* src = cluster_.shard(flow.src);
    const bool src_ok = src != nullptr && src->alive();
    if (!flow.started && src_ok) start_flow(flow);
    if (flow.started && src_ok && phase_ == Phase::kCopy) pump_flow(flow);
  }

  if (phase_ == Phase::kCopy) {
    bool all_copied = true;
    for (const Flow& flow : flows_) {
      if (!flow.started || !flow.copied) all_copied = false;
    }
    if (all_copied) seal();
  } else if (phase_ == Phase::kSealWait) {
    // Both endpoints must be live: the destination to receive the merge,
    // the source so moved keys can be scrubbed from its store (a source
    // that dies here is rebuilt from its promoted replica first).
    bool ready = true;
    for (const Flow& flow : flows_) {
      server::Shard* src = cluster_.shard(flow.src);
      server::Shard* dst = cluster_.shard(flow.dst);
      if (!flow_settled(flow) || dst == nullptr || !dst->alive() || src == nullptr ||
          !src->alive()) {
        ready = false;
      }
    }
    if (ready) finalize();
  }

  if (phase_ == Phase::kIdle) return;  // finalize/abort ended the migration

  // Stall detection: the signature folds in every monotonic counter a
  // healthy migration advances; when none moves for kStallTimeout, no
  // promotion or ack is coming (e.g. a source with no promotable replica).
  std::uint64_t sig = static_cast<std::uint64_t>(phase_) ^ (stats_.flow_restarts << 8);
  for (const Flow& flow : flows_) {
    sig = sig * 1099511628211ULL + flow.posted + flow.next + *flow.inflight +
          (flow.sink ? flow.sink->applied_seq() : 0) + (flow.started ? 1 : 0);
  }
  if (sig == progress_sig_) {
    if (++stalled_ticks_ * kTick >= kStallTimeout) {
      abort(1);
      return;
    }
  } else {
    progress_sig_ = sig;
    stalled_ticks_ = 0;
  }
  schedule_after(kTick, [this] { tick(); });
}

void MigrationManager::seal() {
  sealed_ = true;
  phase_ = Phase::kSealWait;
  // From this event on the owner filter answers kWrongOwner for moving keys
  // at their sources, so no write can race the remaining in-flight records;
  // the hooks are dead weight and can go.
  for (Flow& flow : flows_) {
    server::Shard* src = cluster_.shard(flow.src);
    if (src != nullptr && src->alive()) src->clear_migration_forward();
  }
  trace(obs::TraceKind::kMigrationSealed, plan_.subject);
}

void MigrationManager::finalize() {
  const Time t = now();
  for (Flow& flow : flows_) {
    // Replays any complete frame the sink's poll loop had not reached (a
    // no-op here given the settle condition, but kept for symmetry with
    // promotion's crash path).
    flow.sink->drain_ring();
    server::Shard* dst = cluster_.shard(flow.dst);
    server::Shard* src = cluster_.shard(flow.src);
    HydraCluster::ShardSlot& dst_slot = cluster_.primaries_[flow.dst];
    HydraCluster::ShardSlot& src_slot = cluster_.primaries_[flow.src];
    flow.sink->store().for_each(
        [&](std::string_view key, std::string_view value, std::uint64_t) {
          dst->store().put(key, value, t);
          for (auto& sec : dst_slot.secondaries) {
            if (sec->alive()) sec->store().put(key, value, t);
          }
          ++run_keys_;
          run_bytes_ += key.size() + value.size();
        });
    if (plan_.kind == cluster::MigrationKind::kAdd) {
      // Scrub moved keys out of the source (and its replicas): after the
      // commit exactly one ring member holds each key. A drain retires the
      // whole source below, so no scrub is needed there.
      flow.sink->store().for_each(
          [&](std::string_view key, std::string_view, std::uint64_t) {
            src->store().remove(key, t);
            for (auto& sec : src_slot.secondaries) {
              if (sec->alive()) sec->store().remove(key, t);
            }
          });
    }
  }

  // Commit: mutate the live ring, bump + publish the routing epoch. Clients
  // re-resolve moved keys on their next request, and every cached remote
  // pointer into the moved ranges dies at the epoch check.
  if (plan_.kind == cluster::MigrationKind::kAdd) {
    cluster_.ring_.add_shard(plan_.subject);
  } else {
    cluster_.ring_.remove_shard(plan_.subject);
  }
  ++cluster_.routing_epoch_;
  cluster_.coordinator_->set_data("/routing/version",
                                  std::to_string(cluster_.routing_epoch_));
  trace(obs::TraceKind::kEpochPublished, plan_.subject, cluster_.routing_epoch_);
  trace(obs::TraceKind::kMigrationDone, plan_.subject, run_keys_, run_bytes_);
  HYDRA_INFO("migration: committed %s of shard %u (%llu keys, %llu bytes)",
             plan_.kind == cluster::MigrationKind::kAdd ? "add" : "drain",
             plan_.subject, static_cast<unsigned long long>(run_keys_),
             static_cast<unsigned long long>(run_bytes_));

  sealed_ = false;
  stats_.keys_moved += run_keys_;
  stats_.bytes_moved += run_bytes_;
  if (plan_.kind == cluster::MigrationKind::kDrain) {
    cluster_.retire_shard(plan_.subject);
  }
  for (Flow& flow : flows_) retire_flow(flow);
  flows_.clear();
  phase_ = Phase::kIdle;
  ++stats_.completed;
}

void MigrationManager::abort(std::uint64_t reason) {
  HYDRA_WARN("migration: aborting %s of shard %u (reason %llu)",
             plan_.kind == cluster::MigrationKind::kAdd ? "add" : "drain",
             plan_.subject, static_cast<unsigned long long>(reason));
  trace(obs::TraceKind::kMigrationAborted, plan_.subject, reason);
  for (Flow& flow : flows_) {
    server::Shard* src = cluster_.shard(flow.src);
    if (src != nullptr && src->alive()) src->clear_migration_forward();
    retire_flow(flow);
  }
  flows_.clear();
  sealed_ = false;
  phase_ = Phase::kIdle;
  ++stats_.aborted;
  // An aborted add leaves the ring untouched; the never-routed subject is
  // retired so it does not linger as a half-member.
  if (plan_.kind == cluster::MigrationKind::kAdd) {
    cluster_.retire_shard(plan_.subject);
  }
}

}  // namespace hydra::db
