// Primary-side replication engine (paper section 5.2).
//
// For every write the primary appends a sequence-numbered log record into
// each secondary's exposed ring via one-sided RDMA Write. Two completion
// policies implement the paper's comparison:
//
//  * kLogRelaxed -- the paper's design: the caller's callback fires when the
//    RDMA Write completes (data durable in the secondary's memory); the
//    secondary's cumulative acknowledgement is only requested every
//    ack_interval records ("several tens") or under ring pressure.
//  * kStrictAck -- the conventional request/acknowledge baseline: every
//    record demands an ack and the callback waits for it.
//
// On an ack reporting a failed record, the primary rolls back to that
// record and resends it and everything after it.
//
// Doorbell runs (relaxed mode, DESIGN.md §4 "Replication doorbell runs"):
// a caller that knows more records follow can *hold* a record. Its frame
// is placed in the ring and staged at once, but posted later, with the
// next record not held: each link posts its run's frames as one RDMA Write
// (split only where the link's ring wraps) under one doorbell. Post order
// per link stays ring order: any other post on a link rings its held run
// first.
//
// Crash handling: a link whose secondary has died is *quarantined* -- it is
// marked dead, every completion owed through it is settled, and it stops
// counting toward strict-ack barriers -- so a replica crash can never wedge
// the primary's write path. Links are never erased (in-flight completion
// lambdas hold pointers into them); quarantine is the terminal state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "fabric/fabric.hpp"
#include "proto/messages.hpp"
#include "replication/ring_log.hpp"
#include "replication/secondary.hpp"
#include "sim/actor.hpp"

namespace hydra::replication {

enum class ReplicationMode : std::uint8_t { kNone, kLogRelaxed, kStrictAck };

struct PrimaryConfig {
  ReplicationMode mode = ReplicationMode::kLogRelaxed;
  /// Relaxed mode: how many records between acknowledgement requests.
  std::uint32_t ack_interval = 32;
  /// CPU the owning shard burns per secondary per record (WQE build).
  Duration record_post_cost = 220;
  /// Fast-failover liveness pulses (DESIGN.md §14): while positive, the
  /// primary RDMA-Writes an incrementing heartbeat word into each live
  /// secondary's failover arena every pulse_interval, so replicas can run
  /// ring-write suspicion deadlines in the hundreds of microseconds instead
  /// of leaning on the multi-second coordinator session timeout. 0 (the
  /// default) disables pulsing -- no pulse writes, no arena registration --
  /// keeping histories byte-identical to heartbeat-only builds.
  Duration pulse_interval = 0;
};

class ReplicationPrimary {
 public:
  /// `owner` is the shard actor this engine runs inside: all callbacks are
  /// guarded by its lifetime and all posting happens from its node.
  ReplicationPrimary(sim::Actor& owner, fabric::Fabric& fabric, NodeId node,
                     PrimaryConfig cfg);

  /// Connects a secondary: builds the QP pair, hands the secondary its ack
  /// path, and learns the ring geometry.
  void add_secondary(SecondaryShard& secondary);

  /// Quarantines the link carrying `secondary`: settles every completion
  /// owed through it and removes it from strict-ack barriers. Called by
  /// promotion when a replica dies; idempotent and safe for unknown
  /// secondaries.
  void remove_secondary(SecondaryShard& secondary);

  /// Tears down every link's QP pair. Called on a fallen primary once its
  /// successor took over (the replicas re-attached to the successor's own
  /// links). A pair the fabric already reclaimed and handed to a newer
  /// connection is left alone.
  void disconnect_links();

  /// Replicates one record to every live secondary. `done` fires according
  /// to the configured mode (immediately if there are no live secondaries).
  /// `hold` places the record in the held run (relaxed mode only); a record
  /// not held is posted together with any held run, in one write per link.
  /// The record is encoded once for every link. Returns its framed size:
  /// the bytes a held record's staging copy moves.
  std::size_t replicate(proto::RepRecord rec, std::function<void()> done, bool hold = false);

  /// Longest doorbell run, in records. A held record's response waits for
  /// every later write of its run, so run length trades shard CPU for update
  /// latency: on perfbench `failover`, update p50 is lowest at runs of 3-4
  /// and climbs past them while the throughput gained levels off
  /// (EXPERIMENTS.md).
  static constexpr std::uint32_t kMaxRunRecords = 4;

  /// Whether one more record may join the held run: relaxed mode, and no
  /// live link's run would reach min(ack_interval, kMaxRunRecords) records
  /// without its last.
  [[nodiscard]] bool can_hold() const noexcept;

  /// Posts every link's held run as one ring write per link. Returns the
  /// doorbells rung: one per link that held frames.
  std::size_t ring();

  /// Assigns the next sequence number (incremented per replicated record).
  [[nodiscard]] std::uint64_t assign_seq() noexcept { return next_seq_++; }

  /// Live (non-quarantined) replicas -- the current replication factor.
  [[nodiscard]] std::size_t secondary_count() const noexcept;
  [[nodiscard]] const PrimaryConfig& config() const noexcept { return cfg_; }
  /// CPU cost the shard should charge itself per replicated record.
  [[nodiscard]] Duration post_cost() const noexcept {
    return cfg_.record_post_cost * secondary_count();
  }

  /// rkeys of the per-link ack landing slots on the primary's node; lets
  /// the chaos harness aim write faults at ack traffic specifically.
  [[nodiscard]] std::vector<std::uint32_t> ack_rkeys() const;

  /// Visits every live (non-quarantined, still-alive) link: the follower
  /// set the hot-key plane may promote readable copies to, together with
  /// the primary-side QP those copies are written through.
  void for_each_live_link(
      const std::function<void(SecondaryShard&, fabric::QueuePair&)>& fn);

  [[nodiscard]] std::uint64_t resends() const noexcept { return resends_; }
  /// Doorbells rung on ring writes: every WQE posted unbatched (first
  /// attempts and retransmits).
  [[nodiscard]] std::uint64_t doorbells() const noexcept { return doorbells_; }
  /// Ring WQEs posted (first attempts and retransmits): one per doorbell
  /// run and link, plus one where a run wraps the link's ring. Frames per
  /// ring write is the coalescing (each write's trace carries its count).
  [[nodiscard]] std::uint64_t ring_writes() const noexcept { return ring_writes_; }
  [[nodiscard]] std::uint64_t acks_received() const noexcept { return acks_received_; }
  [[nodiscard]] std::uint64_t backlogged() const noexcept { return backlogged_; }
  [[nodiscard]] std::uint64_t torn_acks() const noexcept { return torn_acks_; }
  [[nodiscard]] std::uint64_t ack_probes() const noexcept { return ack_probes_; }
  [[nodiscard]] std::uint64_t quarantined() const noexcept { return quarantined_; }
  [[nodiscard]] std::uint64_t write_retries() const noexcept { return write_retries_; }
  /// Ring (or pulse) writes that completed kProtectionError against a live
  /// replica: the replica revoked our rkey, i.e. the failover plane fenced
  /// this primary (DESIGN.md §14).
  [[nodiscard]] std::uint64_t fence_errors() const noexcept { return fence_errors_; }

  /// Installs the owner's reaction to being fenced by a replica (a revoked
  /// ring rkey surfacing as kProtectionError). Runs *before* the fenced
  /// link's owed completions would settle, so a self-fencing handler (which
  /// kills the owning shard) guarantees no acknowledgement escapes a fenced
  /// primary.
  void set_fence_handler(std::function<void()> handler) {
    fence_handler_ = std::move(handler);
  }

 private:
  /// A record encoded once, its bytes shared by every link that carries it.
  struct EncodedRecord {
    std::uint64_t seq = 0;
    std::shared_ptr<const std::vector<std::byte>> payload;
  };

  struct PendingRecord {
    EncodedRecord rec;
    std::uint64_t footprint = 0;  ///< ring bytes charged until acked and landed
    std::uint64_t last_id = 0;    ///< landing id of its latest frame
  };

  /// A posted frame's completion, held until every frame posted before it
  /// on the link has landed: the consumer never crosses a torn or dropped
  /// frame, so nothing behind one is durable until it is rewritten.
  struct Landing {
    bool landed = false;
    std::function<void()> settle;
  };

  /// Frames contiguous in a link's ring, staged in ring order and posted
  /// (and retransmitted in place) as one RDMA Write: a doorbell run up to
  /// the ring's end, or a frame posted alone.
  struct RingWrite {
    std::vector<std::byte> bytes;
    std::uint64_t at = 0;        ///< ring offset of the first frame
    std::uint64_t first_id = 0;  ///< landing id of the first frame
    std::uint32_t frames = 0;
  };

  struct Link {
    SecondaryShard* secondary = nullptr;
    fabric::QueuePair* qp = nullptr;  // primary-side endpoint
    std::uint32_t qp_generation = 0;  ///< qp's incarnation at connect
    std::uint32_t ring_rkey = 0;
    /// Failover-arena rkey on the secondary (pulse word target); 0 when
    /// pulsing is off.
    std::uint32_t arena_rkey = 0;
    RingCursor cursor;
    std::uint64_t used_bytes = 0;
    std::uint64_t acked_seq = 0;
    std::uint32_t since_ack_request = 0;
    bool awaiting_space = false;
    bool dead = false;  ///< quarantined; terminal
    bool ack_timer_armed = false;
    Time last_progress = 0;  ///< last ack or successful write completion
    std::deque<PendingRecord> pending;
    std::deque<EncodedRecord> backlog;  // ring-full overflow
    std::deque<std::function<void()>> backlog_completions;
    std::deque<Landing> landing;      ///< posted frames, in ring order
    std::uint64_t landing_base = 0;   ///< id of landing.front()
    /// The held run, staged: one write per contiguous span (two when the
    /// run wraps the ring).
    std::vector<RingWrite> held;
    std::uint32_t run_records = 0;    ///< records (not wrap markers) in held
    std::vector<std::byte> ack_buf;
    fabric::MemoryRegion* ack_mr = nullptr;
  };

  /// Writes one record into the link's ring; returns false when the ring
  /// is out of space (caller backlogs).
  bool write_record(Link& link, const EncodedRecord& rec,
                    std::function<void()> on_write_complete);
  /// Writes a zero-payload control frame (wrap already handled inside);
  /// returns false when the ring is out of space.
  bool write_control_frame(Link& link, std::uint16_t flags);
  /// Stages a frame at ring offset `at` (tagged with the cursor's lap) and
  /// returns its landing id. While `holding_` the frame joins the link's
  /// held run; otherwise the held run is rung first and the frame is then
  /// posted alone. `settle` fires once the frame and every frame posted
  /// before it on the link have landed.
  std::uint64_t post_frame(Link& link, std::uint64_t at, std::span<const std::byte> payload,
                           std::uint16_t flags, std::function<void()> settle);
  /// Posts the link's held run, one write per span under one doorbell;
  /// true if it held frames.
  bool ring(Link& link);
  /// One delivery attempt of `write`, with retransmit-in-place semantics: a
  /// torn or dropped delivery rewrites the same span. `batched` rides the
  /// doorbell of the write posted just before it.
  void post_attempt(Link& link, RingWrite write, int attempt, bool batched);
  void on_write_error(Link& link, RingWrite write, int attempt, fabric::WcStatus status);
  /// Marks `write`'s frames landed, settles the landed prefix of the link
  /// and releases the ring bytes that became free.
  void land(Link& link, const RingWrite& write);
  /// Takes the settles still owed for `write`'s frames out of line.
  std::vector<std::function<void()>> take_settles(Link& link, const RingWrite& write);
  /// Frees the ring bytes of every record both acked and landed; true if
  /// any came back. A write still owed a retransmit rewrites its whole
  /// span, frames the secondary already consumed included, so its bytes
  /// must not be reused before it lands.
  bool release(Link& link);
  void flush_backlog(Link& link);
  void on_ack(Link& link);
  void resend_from(Link& link, std::uint64_t first_failed_seq);
  void fire_strict_waiters();
  /// Terminal: settles everything owed through the link (see class doc).
  void quarantine(Link& link);
  /// Writes an ack-probe frame asking the secondary to re-acknowledge.
  void solicit_ack(Link& link);
  void arm_ack_timer(Link& link);
  void on_ack_timer(Link& link);
  /// A live replica completed our write kProtectionError: it revoked the
  /// rkey to fence us. Notifies the owner, then quarantines the link.
  void fenced_by_replica(Link& link);
  void arm_pulse_timer();
  void on_pulse_timer();

  sim::Actor& owner_;
  fabric::Fabric& fabric_;
  NodeId node_;
  PrimaryConfig cfg_;
  std::uint64_t next_seq_ = 1;
  std::vector<std::unique_ptr<Link>> links_;
  /// Strict-mode waiters keyed by sequence number.
  std::map<std::uint64_t, std::function<void()>> strict_waiters_;
  /// Set while replicate() places a record that joins a held run.
  bool holding_ = false;
  std::uint64_t resends_ = 0;
  std::uint64_t doorbells_ = 0;
  std::uint64_t ring_writes_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t backlogged_ = 0;
  std::uint64_t torn_acks_ = 0;
  std::uint64_t ack_probes_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t write_retries_ = 0;
  std::uint64_t fence_errors_ = 0;
  std::function<void()> fence_handler_;
  bool pulse_armed_ = false;
  std::uint64_t pulse_seq_ = 0;
  /// Pulse payload buffer (outlives any in-flight pulse write).
  std::vector<std::byte> pulse_buf_ = std::vector<std::byte>(8);
};

}  // namespace hydra::replication
