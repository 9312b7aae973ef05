// Trace plane: bounded per-node event rings recording fabric-level ops and
// failover lifecycle steps on the virtual clock, plus the TraceQuery helper
// tests use to pin *orderings* ("fence happened-before ring drain
// happened-before epoch publish") instead of just end states.
//
// Records carry an explicit timestamp supplied by the caller (always
// scheduler time) -- the trace layer itself never reads a clock and never
// schedules events, so attaching it cannot perturb a run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace hydra::obs {

/// Event taxonomy (DESIGN.md §8). Fabric events fire per posted verb op;
/// replication events mark the crash-path machinery; lifecycle events mark
/// the failover phases the chaos harness and timeline tests assert on.
enum class TraceKind : std::uint8_t {
  // Fabric data plane.
  kWritePosted,      ///< RDMA Write posted (a=size, b=posted_write_b(dst rkey, ring frames))
  kWriteCommitted,   ///< RDMA Write bytes landed at the target (a=size, b=rkey)
  kWriteFaulted,     ///< chaos-injected torn/dropped write (a=committed, b=rkey)
  kWriteDeadPeer,    ///< write, atomic or send toward a crashed node (a=size)
  kReadPosted,       ///< RDMA Read posted (a=size, b=src rkey)
  kReadCompleted,    ///< RDMA Read completion at the initiator (a=size)
  kSendPosted,       ///< two-sided Send posted (a=size)
  kSendDelivered,    ///< Send consumed a posted Receive (a=bytes delivered)
  kDoorbellBatched,  ///< write rode the doorbell of the WQE before it: a sweep's
                     ///< response, or a replication run's span after its ring wrapped
                     ///< (a=size, b as for kWritePosted)
  kQpReused,         ///< connect() recycled a reclaimed QP slot (a=qp id, b=pool size)
  kQpReclaimed,      ///< disconnect() released a QP pair (a=qp id, b=live pairs)
  // Replication crash path.
  kRetransmit,       ///< in-place rewrite of a torn/dropped ring frame (a=offset, b=attempt)
  kQuarantine,       ///< link to a dead replica entered terminal quarantine
  kTornAck,          ///< ack slot held a torn/undecodable frame
  kAckProbe,         ///< ack-probe control frame written (re-solicits the ack)
  kRollback,         ///< rollback-resend from first failed seq (a=seq)
  kAckReceived,      ///< cumulative ack decoded (a=acked seq)
  kRingDrained,      ///< promotion replayed parked ring frames (a=applied seq)
  // Server / client.
  kRingSweep,        ///< shard sweep decoded occupied slots (a=count, b=conn)
  kClientTimeout,    ///< client request timeout salvage (shard=target)
  // Connection multiplexing (SRQ-style shared rings, DESIGN.md §10).
  kSrqDepth,             ///< occupied slots found in a shared-ring sweep (a=depth, b=group);
                         ///< mux groups only, not channels of one
  kMuxChannelOpened,     ///< client-node<->shard mux channel established (a=group)
  kMuxChannelReclaimed,  ///< mux channel torn down (a=group, b=0 idle / 1 failure)
  // Failover lifecycle.
  kCrashInjected,        ///< a=0 primary, 1 secondary, 2 SWAT member; b=index
  kHeartbeatSuppressed,  ///< a=suppression duration (ns)
  kFenced,               ///< a=1 heartbeat self-fence, 2 promotion-time fence, 3 replica revoked our rkey
  kPrimaryDeathObserved, ///< SWAT recorded a primary-death znode deletion
  kPromotionStart,       ///< SWAT began promoting a replica
  kEpochPublished,       ///< routing epoch bumped + written to /routing/version (a=epoch)
  kSecondaryRespawned,   ///< replacement replica spawned + bootstrap-copied
  kPromotionDone,        ///< promotion finished; shard serving again
  // Live migration (DESIGN.md §9); `shard` is the migration subject (the
  // shard being added or drained) unless noted.
  kMigrationStart,     ///< protocol began (a=0 add / 1 drain, b=flow count)
  kMigrationCopied,    ///< one flow's snapshot fully posted (shard=src, a=keys, b=dst)
  kMigrationSealed,    ///< dual-ownership window closed; sources reject moved keys
  kMigrationDone,      ///< ring + epoch committed (a=keys moved, b=bytes moved)
  kMigrationAborted,   ///< protocol gave up (a=abort reason code)
  kMigrationRestarted, ///< a flow rebuilt after a mid-migration crash (shard=src)
  // Chaos.
  kFaultInjected,    ///< chaos fault applied (a=chaos::FaultKind, b=index)
  // One-sided atomics + transactions (DESIGN.md §11). Appended after the
  // original taxonomy so every pre-existing kind keeps its numeric value.
  kAtomicPosted,     ///< CAS/FAA posted (a=0 CAS / 1 FAA, b=dst rkey)
  kAtomicCommitted,  ///< atomic executed at the target (a=0 CAS / 1 FAA, b=rkey)
  kAtomicFaulted,    ///< chaos-faulted atomic (a=1 executed-but-flushed / 0 dropped, b=rkey)
  kTxnCommitApplied, ///< multi-key commit applied atomically (a=txn id, b=op count)
  kTxnCommitRejected,///< commit refused, nothing applied (a=txn id, b=Status)
  // Hot-key replication plane (DESIGN.md §12). Appended last, same rule.
  kHotKeyPromoted,    ///< key copied to followers + advertised (a=key hash, b=replica count)
  kHotKeyDemoted,     ///< promotion withdrawn (a=key hash, b=0 write / 1 epoch / 2 capacity)
  kHotKeyInvalidated, ///< follower copy guardian killed pre-ack (a=key hash, b=node)
  kReplicaReadHit,    ///< client one-sided read served from a promoted copy (a=key hash, b=node)
  // Ordered index + range scans (DESIGN.md §13). Appended last, same rule.
  kReadFaulted,       ///< chaos-torn RDMA Read snapshot (a=intact prefix bytes, b=rkey)
  kScanHandled,       ///< shard served a kScan batch (a=entries, b=done flag)
  kScanTokenRejected, ///< continuation-token epoch mismatch (a=token epoch, b=live epoch)
  kScanLeafRead,      ///< client consumed a mirrored leaf page one-sidedly (a=leaf id, b=entries)
  kScanLeafFallback,  ///< leaf-page validation failed; message path took over (a=leaf id)
  // Fast failover: RDMA permission-revocation fencing + one-sided CAS ballot
  // agreement (DESIGN.md §14). Appended last, same rule.
  kSuspicionRaised,   ///< replica missed the primary's ring-write deadline (a=silent ns)
  kRkeyRevoked,       ///< MR write permission revoked (a=rkey, b=0 ok / 1 torn / 2 dropped)
  kRkeyReregistered,  ///< region re-registered under a fresh rkey (a=new rkey, b=old rkey)
  kBallotCast,        ///< promotion ballot CAS posted (a=candidate token, b=arena rkey)
  kBallotWon,         ///< ballot CAS saw zero: the candidate owns the round (a=token)
  kBallotLost,        ///< ballot CAS lost the race (a=token, b=winning token)
};

[[nodiscard]] const char* to_string(TraceKind kind) noexcept;

inline constexpr std::uint64_t kNoShard = ~std::uint64_t{0};

/// `b` of a posted write: the target rkey in the low 32 bits and, for a
/// replication ring write, the frames it carries in the high 32 (0 else).
constexpr std::uint64_t posted_write_b(std::uint32_t rkey, std::uint32_t frames) noexcept {
  return (static_cast<std::uint64_t>(frames) << 32) | rkey;
}

struct TraceRecord {
  Time at = 0;           ///< virtual time, supplied by the caller
  std::uint64_t seq = 0; ///< global record order within the run (Plane-assigned)
  TraceKind kind = TraceKind::kWritePosted;
  NodeId node = kInvalidNode;      ///< ring the record lives in
  std::uint64_t shard = kNoShard;  ///< owning shard, when meaningful
  std::uint64_t a = 0;             ///< per-kind argument (see TraceKind docs)
  std::uint64_t b = 0;             ///< per-kind argument
};

/// Fixed-capacity ring: pushes past capacity overwrite the oldest record
/// (dropped count retained), so tracing is O(1) and allocation-free after
/// construction.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : buf_(capacity ? capacity : 1) {}

  void push(const TraceRecord& r) noexcept {
    if (size_ == buf_.size()) {
      buf_[head_] = r;
      head_ = (head_ + 1) % buf_.size();
      ++dropped_;
      return;
    }
    buf_[(head_ + size_) % buf_.size()] = r;
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Retained records, oldest first.
  [[nodiscard]] std::vector<TraceRecord> records() const {
    std::vector<TraceRecord> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back(buf_[(head_ + i) % buf_.size()]);
    return out;
  }

 private:
  std::vector<TraceRecord> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Read-side helper over a set of trace records (normally a Plane's merged
/// rings): ordered selection plus happened-before assertions keyed on the
/// global sequence number.
class TraceQuery {
 public:
  /// `records` in any order; the query sorts by global seq.
  explicit TraceQuery(std::vector<TraceRecord> records);

  [[nodiscard]] const std::vector<TraceRecord>& all() const noexcept { return records_; }

  [[nodiscard]] std::vector<TraceRecord> of(TraceKind kind,
                                            std::uint64_t shard = kNoShard) const;
  [[nodiscard]] std::size_t count(TraceKind kind, std::uint64_t shard = kNoShard) const;
  [[nodiscard]] std::optional<TraceRecord> first(TraceKind kind,
                                                 std::uint64_t shard = kNoShard) const;
  [[nodiscard]] std::optional<TraceRecord> last(TraceKind kind,
                                                std::uint64_t shard = kNoShard) const;
  /// First `kind` record strictly after global seq `after_seq`.
  [[nodiscard]] std::optional<TraceRecord> first_after(TraceKind kind, std::uint64_t after_seq,
                                                       std::uint64_t shard = kNoShard) const;

  /// True when both kinds occurred and the first `a` precedes the first `b`
  /// in global record order (virtual-time ties broken by scheduling order,
  /// which the global seq preserves).
  [[nodiscard]] bool happened_before(TraceKind a, TraceKind b,
                                     std::uint64_t shard = kNoShard) const;

 private:
  [[nodiscard]] bool matches(const TraceRecord& r, TraceKind kind,
                             std::uint64_t shard) const noexcept {
    return r.kind == kind && (shard == kNoShard || r.shard == shard);
  }
  std::vector<TraceRecord> records_;
};

}  // namespace hydra::obs
