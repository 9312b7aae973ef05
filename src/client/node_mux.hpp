// Per-client-node connection pool (DESIGN.md §10). A channel is one
// physical QP plus one request ring on a shard (a mux group) carrying the
// MuxHeader-enveloped requests of its endpoints (logical client
// connections). With QP multiplexing all clients on the node share one
// channel per shard, which keeps the server NIC's connection state (and its
// qp_penalty) bounded; without it each client gets a channel of one per
// shard -- the paper's one QP per client per shard. Channels open lazily on
// first use, hand out ring slots as flow credits (a full ring parks the
// requester on a waiter list), and are reclaimed when idle -- returning
// their QPs to the fabric's reuse pool -- or torn down on failure so
// endpoints re-establish and retransmit.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "fabric/fabric.hpp"
#include "sim/actor.hpp"

namespace hydra::client {

inline constexpr ClientId kSharedChannel = ~ClientId{0};

/// Names a channel: the shard it reaches and whose requests it carries --
/// every client of the node (kSharedChannel) or one client alone.
struct ChannelKey {
  ShardId shard = kInvalidShard;
  ClientId client = kSharedChannel;
  [[nodiscard]] bool shared() const noexcept { return client == kSharedChannel; }
  friend auto operator<=>(const ChannelKey&, const ChannelKey&) = default;
};

struct NodeMuxConfig {
  /// Close a channel with no in-flight credits after this much inactivity.
  Duration idle_timeout = 10 * kMillisecond;
};

struct NodeMuxStats {
  std::uint64_t channels_opened = 0;
  /// Closed while healthy: idle, or (a channel of one) left by its endpoint.
  std::uint64_t reclaimed_idle = 0;
  std::uint64_t reclaimed_failure = 0;
  std::uint64_t credit_waits = 0;  ///< acquires that parked on a full ring
  std::uint64_t read_channels_opened = 0;
  std::uint64_t reclaimed_read_idle = 0;
  /// Reap passes that found a read channel idle past the timeout but pinned
  /// by an in-flight replica read, and left it alone.
  std::uint64_t read_reap_deferred = 0;
};

class NodeMux : public sim::Actor {
 public:
  /// What the cluster-side opener fills in when establishing a channel:
  /// the client end of the channel's QP plus the shard's mux-group grant.
  struct MuxWire {
    fabric::QueuePair* qp = nullptr;
    std::uint32_t group = 0;  ///< shard-side mux-group id
    fabric::RemoteAddr req_ring{};
    std::uint32_t slot_bytes = 0;
    std::uint32_t ring_slots = 0;
    /// Lock-word arena of the shard (DESIGN.md §11); 0/0 = txn disabled.
    std::uint32_t lock_rkey = 0;
    std::uint32_t lock_words = 0;
    /// The shard incarnation the group was opened against (a failover spawns
    /// a fresh primary whose group ids restart); the closer checks it before
    /// telling "the" shard to drop the group.
    std::uint32_t owner_generation = 0;
    /// The QP's incarnation at open time. Fabric QP slots are pooled and
    /// reused, so the closer must no-op when the pointer now carries a
    /// different (later-established) connection.
    std::uint32_t qp_generation = 0;
    /// Frames travel as two-sided Sends into the ring's slots, and responses
    /// come back as Sends (Fig 10's Send/Recv baseline), not RDMA Writes.
    bool two_sided = false;
  };

  struct Channel {
    MuxWire wire;
    /// Bumped on every (re)open; clients snapshot it when they register an
    /// endpoint and check it before touching the channel again, so nothing
    /// rides a channel that died and was re-established behind their back.
    std::uint64_t generation = 0;
    bool open = false;
    std::vector<bool> slot_busy;  ///< ring credit pool
    std::uint32_t next_slot = 0;
    std::uint32_t in_flight = 0;
    /// Last credit claimed or returned, or one-sided op posted on wire.qp
    /// (touch()); the idle reaper measures from here.
    Time last_activity = 0;
    /// Requests parked while the shared ring was full, woken per release.
    std::deque<std::function<void(Channel*, std::uint32_t)>> waiters;
  };

  /// One-sided read channel to a *node* (not a shard): hot-key replica
  /// reads (DESIGN.md §12) target follower promo slabs on whichever nodes
  /// host the copies, so they get their own lazily opened QPs, reaped on
  /// idle like mux channels -- but never while a read is in flight.
  struct ReadChannel {
    fabric::QueuePair* qp = nullptr;
    /// QP incarnation at open time; the closer checks it so a pooled slot
    /// reused for a later connection is never disconnected by mistake.
    std::uint32_t qp_generation = 0;
    bool open = false;
    /// One-sided replica reads posted but not yet completed. The idle
    /// reaper defers reclamation while this is non-zero: a read posted
    /// just before the reap tick would otherwise be flushed mid-flight.
    std::uint32_t read_refs = 0;
    Time last_activity = 0;
  };

  /// Establishes the QP + mux group of channel `key`; false if the shard is
  /// currently unreachable.
  using Opener = std::function<bool(ChannelKey key, MuxWire* out)>;
  /// Releases the shard-side group and the QP (fabric disconnect).
  using Closer = std::function<void(ChannelKey key, const MuxWire& wire)>;
  /// acquire() continuation: the channel and a claimed ring slot, or
  /// (nullptr, 0) when the channel died before a credit freed up.
  using SlotCallback = std::function<void(Channel*, std::uint32_t slot)>;
  /// Connects a one-sided read QP to `node`; nullptr when unreachable.
  using ReadOpener = std::function<fabric::QueuePair*(NodeId node)>;
  /// Disconnects a read QP iff its generation still matches `qp_generation`.
  using ReadCloser =
      std::function<void(NodeId node, fabric::QueuePair* qp, std::uint32_t qp_generation)>;

  NodeMux(sim::Scheduler& sched, NodeId node, NodeMuxConfig cfg);

  void set_opener(Opener o) { opener_ = std::move(o); }
  void set_closer(Closer c) { closer_ = std::move(c); }
  void set_read_opener(ReadOpener o) { read_opener_ = std::move(o); }
  void set_read_closer(ReadCloser c) { read_closer_ = std::move(c); }
  void set_obs(obs::Plane* obs) noexcept { obs_ = obs; }

  /// Returns the (lazily opened) channel `key`; nullptr when the opener
  /// fails. The caller snapshots channel->generation.
  Channel* channel_to(ChannelKey key);

  /// Looks up the channel without establishing one (chaos/test hook);
  /// nullptr when none was ever opened.
  [[nodiscard]] Channel* peek_channel(ChannelKey key) {
    auto it = channels_.find(key);
    return it == channels_.end() ? nullptr : &it->second;
  }

  /// A one-sided op (pointer-hit read, lock CAS) is about to ride the QP of
  /// the channel registered against at `generation`: stamps its activity
  /// for the idle reaper. False when that channel is no longer live.
  bool touch(ChannelKey key, std::uint64_t generation);

  /// Claims a ring slot on the channel, now or when one frees up: the
  /// endpoint's own slot `endpoint_slot` on a channel of one, the next
  /// free one round-robin on a shared channel. The callback fires with
  /// (nullptr, 0) if `generation` is stale or the channel dies while
  /// waiting.
  void acquire(ChannelKey key, std::uint64_t generation, std::uint32_t endpoint_slot,
               SlotCallback cb);

  /// Returns a slot claimed by acquire() (response received or request
  /// abandoned). No-op when `generation` is stale -- teardown already
  /// recycled every credit.
  void release(ChannelKey key, std::uint64_t generation, std::uint32_t slot);

  /// An endpoint left the channel: a channel of one closes with it (QP and
  /// group go at once), a shared one stays. No-op when `generation` is stale.
  void detach(ChannelKey key, std::uint64_t generation);

  /// Channel-keyed credit give-back for callers holding the Channel* an
  /// acquire() callback handed them (e.g. the logical connection vanished
  /// while the credit was being granted). Identical flow to release():
  /// the freed slot goes to the oldest parked waiter first, so a credit
  /// returned this way can never strand the waiter queue.
  void recycle(Channel& ch, std::uint32_t slot);

  /// Pins (lazily opening) the read channel to `node` for one one-sided
  /// replica read and returns its QP; nullptr when the opener fails. The
  /// caller must balance with exactly one end_replica_read(node) once the
  /// read completes (success or failure) -- the pin is what keeps the idle
  /// reaper from reclaiming the QP under the in-flight read.
  fabric::QueuePair* begin_replica_read(NodeId node);
  void end_replica_read(NodeId node);

  /// Test/chaos hook: the read channel to `node`, or nullptr if never opened.
  [[nodiscard]] ReadChannel* peek_read_channel(NodeId node) {
    auto it = read_channels_.find(node);
    return it == read_channels_.end() ? nullptr : &it->second;
  }

  /// A client timed out on this channel: its QP is presumed dead. Tears the
  /// channel down (all endpoints re-establish lazily and retransmit). No-op
  /// when `generation` is stale.
  void report_failure(ChannelKey key, std::uint64_t generation);

  [[nodiscard]] const NodeMuxStats& stats() const noexcept { return stats_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }

 private:
  /// The channel `key` at `generation` if it is the live one, else nullptr.
  Channel* live_channel(ChannelKey key, std::uint64_t generation);
  void close_channel(ChannelKey key, Channel& ch, bool failure);
  void reap_loop();

  NodeId node_;
  NodeMuxConfig cfg_;
  Opener opener_;
  Closer closer_;
  ReadOpener read_opener_;
  ReadCloser read_closer_;
  obs::Plane* obs_ = nullptr;
  std::map<ChannelKey, Channel> channels_;
  std::map<NodeId, ReadChannel> read_channels_;
  bool reaper_armed_ = false;
  NodeMuxStats stats_;
};

}  // namespace hydra::client
