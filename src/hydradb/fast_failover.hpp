// Fast failover (DESIGN.md §14): RDMA-native fail-stop agreement.
//
// Replaces heartbeat-timeout promotion on the detection/agreement path.
// Replicas detect primary silence through missed ring-write deadlines (the
// primary pulses an incrementing word into each replica's failover arena
// between real ring writes), then run a *permission-revocation round*: the
// suspecting replica revokes the suspected primary's write access to every
// replica record ring, so a fenced primary physically cannot complete -- and
// therefore cannot acknowledge -- another replicated write, regardless of
// how wrong the suspicion was. Only then do candidates agree on a promotion
// winner with a one-sided CAS ballot in the decision replica's arena. The
// coordinator (SWAT) keeps membership/epoch publication duty; its legacy
// timeout promotion stays armed as the fallback when a round aborts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "replication/secondary.hpp"

namespace hydra::db {

class HydraCluster;

struct FastFailoverConfig {
  /// Primary liveness pulse period (fans into PrimaryConfig::pulse_interval).
  Duration pulse_interval = 50 * kMicrosecond;
  /// One-way latency of the MR-permission revocation verb.
  Duration revoke_latency = 3 * kMicrosecond;
};

/// Per-cluster manager: arms suspicion deadlines on every secondary and runs
/// the suspicion -> revoke -> ballot -> promote rounds.
class FastFailover {
 public:
  FastFailover(HydraCluster& cluster, FastFailoverConfig cfg);

  /// Arms the ring-write suspicion deadline on a (newly attached) replica.
  void attach_secondary(ShardId id, replication::SecondaryShard& sec);

  /// True while any agreement round for `id` is in flight -- SWAT defers
  /// legacy timeout promotion for the shard until the round ends (the
  /// double-promotion guard).
  [[nodiscard]] bool round_active(ShardId id) const noexcept {
    return active_rounds_.count(id) != 0;
  }

  [[nodiscard]] std::uint64_t promotions() const noexcept { return promotions_; }
  [[nodiscard]] std::uint64_t rounds_started() const noexcept { return rounds_started_; }
  [[nodiscard]] std::uint64_t rounds_aborted() const noexcept { return rounds_aborted_; }
  [[nodiscard]] std::uint64_t ballots_lost() const noexcept { return ballots_lost_; }

 private:
  struct Round {
    ShardId shard = 0;
    replication::SecondaryShard* candidate = nullptr;
    /// Shard generation at suspicion time; a mismatch at any later step
    /// means someone else already promoted -- the round is stale and aborts.
    std::uint32_t generation = 0;
    std::vector<replication::SecondaryShard*> targets;
    std::size_t revocations_left = 0;
    bool done = false;  ///< aborted or completed; late completions no-op
  };

  void on_suspect(ShardId id, replication::SecondaryShard& sec);
  void revoke_target(const std::shared_ptr<Round>& r,
                     replication::SecondaryShard* target, int attempt);
  void one_revocation_done(const std::shared_ptr<Round>& r);
  void cast_ballot(const std::shared_ptr<Round>& r);
  void complete_round(const std::shared_ptr<Round>& r);
  void abort_round(const std::shared_ptr<Round>& r);
  /// Decrements the shard's active-round count and re-drains SWAT's pending
  /// deaths (legacy promotions deferred by the double-promotion guard).
  void end_round(ShardId id);

  HydraCluster& cluster_;
  FastFailoverConfig cfg_;
  /// Concurrent round count per shard (both replicas may suspect at once).
  std::map<ShardId, int> active_rounds_;
  std::uint64_t promotions_ = 0;
  std::uint64_t rounds_started_ = 0;
  std::uint64_t rounds_aborted_ = 0;
  std::uint64_t ballots_lost_ = 0;
};

}  // namespace hydra::db
