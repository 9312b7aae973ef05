// The live-migration family (DESIGN.md §9): the PUT + readback workload runs
// across a multi-shard cluster while one live add or drain executes, with
// kill faults landing on the migration's source, its destination, or the
// SWAT team mid-copy.
#include <utility>

#include "chaos/run.hpp"

namespace hydra::chaos {
namespace {

std::vector<Schedule> scripted() {
  std::vector<Schedule> out;
  auto add = [&](std::string name, MigrationOp op) -> Schedule& {
    Schedule& s = out.emplace_back(make_schedule(Family::kMigration, std::move(name)));
    s.migrate_op = op;
    return s;
  };
  // Kill delays are sized for the default copy cadence (a few thousand
  // preloaded keys, 16 records per 200us tick) so they land mid-copy. For an
  // add, the new shard's id is `shards` (ids are append-only).
  add("add-clean", MigrationOp::kAdd);
  add("drain-clean", MigrationOp::kDrain);
  // A copy source dies mid-copy: its flow must be rebuilt from the promoted
  // replica (fresh sink, fresh snapshot) and still commit.
  add("add-kill-source", MigrationOp::kAdd)
      .faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 0, .at_op = 8,
                         .delay = 400 * kMicrosecond});
  // The brand-new destination dies mid-copy: the commit must wait for its
  // replica to be promoted, then merge into the promoted store.
  add("add-kill-destination", MigrationOp::kAdd)
      .faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 3, .at_op = 8,
                         .delay = 500 * kMicrosecond});
  // The drain victim (source of every flow) dies mid-drain.
  add("drain-kill-victim", MigrationOp::kDrain)
      .faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 1, .at_op = 8,
                         .delay = 400 * kMicrosecond});
  // One of the drain's destinations dies mid-copy.
  add("drain-kill-destination", MigrationOp::kDrain)
      .faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 2, .at_op = 8,
                         .delay = 500 * kMicrosecond});
  {
    // SWAT leadership gap overlapping a source kill: the death event pends
    // until member 1 takes over, stretching the migration stall by ~2s.
    Schedule& s = add("add-kill-swat-and-source", MigrationOp::kAdd);
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 8});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 0, .at_op = 8,
                        .delay = 300 * kMicrosecond});
  }
  return out;
}

Schedule random(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  Schedule s = make_schedule(Family::kMigration, "mig-random-" + std::to_string(seed));
  s.migrate_op = rng.below(2) == 0 ? MigrationOp::kAdd : MigrationOp::kDrain;
  s.shards = 2 + static_cast<int>(rng.below(3));
  s.replicas = 1 + static_cast<int>(rng.below(2));
  s.preload = 512 + static_cast<std::uint32_t>(rng.below(1537));
  s.ops = 48 + static_cast<std::uint32_t>(rng.below(49));
  s.migrate_at = 4 + static_cast<std::uint32_t>(rng.below(s.ops / 3));
  s.drain_victim = static_cast<ShardId>(rng.below(s.shards));

  const ShardId n = static_cast<ShardId>(s.shards);
  const bool add = s.migrate_op == MigrationOp::kAdd;
  const auto kill_delay = [&] {
    return static_cast<Duration>(100 * kMicrosecond + rng.below(2 * kMillisecond));
  };
  switch (rng.below(4)) {
    case 0:  // clean run
      break;
    case 1: {  // kill a source mid-copy
      const ShardId src = add ? static_cast<ShardId>(rng.below(n)) : s.drain_victim;
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = src,
                          .at_op = s.migrate_at, .delay = kill_delay()});
      break;
    }
    case 2: {  // kill a destination mid-copy
      const ShardId dst =
          add ? n : static_cast<ShardId>((s.drain_victim + 1 + rng.below(n - 1)) % n);
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = dst,
                          .at_op = s.migrate_at, .delay = kill_delay()});
      break;
    }
    default: {  // SWAT leadership gap + source kill
      s.swat_members = 3;
      const ShardId src = add ? static_cast<ShardId>(rng.below(n)) : s.drain_victim;
      s.faults.push_back(
          {.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = s.migrate_at});
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = src,
                          .at_op = s.migrate_at, .delay = kill_delay()});
      break;
    }
  }
  return s;
}

}  // namespace

// Beyond the shared migration checks (the add/drain committed, bumped the
// epoch and left the subject serving or retired), the PUT driver's final
// reads prove every preloaded and acked key readable with its exact value
// and held by exactly one ring member's store, and that an added shard owns
// part of the dataset.
const FamilyDef kMigrationFamily = {"migration", scripted, random,
                                    [] { return make_put_driver("mig-", nullptr); }};

}  // namespace hydra::chaos
