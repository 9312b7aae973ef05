#include "client/node_mux.hpp"

#include <utility>

#include "obs/plane.hpp"

namespace hydra::client {
namespace {

/// How often the reaper scans for idle channels.
constexpr Duration kReapInterval = 5 * kMillisecond;

}  // namespace

NodeMux::NodeMux(sim::Scheduler& sched, NodeId node, NodeMuxConfig cfg)
    : sim::Actor(sched, "mux-" + std::to_string(node)), node_(node), cfg_(cfg) {}

NodeMux::Channel* NodeMux::channel_to(ChannelKey key) {
  auto it = channels_.find(key);
  if (it != channels_.end() && it->second.open) {
    it->second.last_activity = now();
    return &it->second;
  }
  if (!opener_) return nullptr;
  Channel& ch = channels_[key];  // keeps its generation across reopens
  MuxWire wire;
  if (!opener_(key, &wire)) return nullptr;
  ch.wire = wire;
  ++ch.generation;
  ch.open = true;
  ch.slot_busy.assign(wire.ring_slots, false);
  ch.next_slot = 0;
  ch.in_flight = 0;
  ch.last_activity = now();
  ++stats_.channels_opened;
  if (obs_ != nullptr) {
    obs_->trace(now(), node_, obs::TraceKind::kMuxChannelOpened, key.shard, wire.group);
  }
  if (!reaper_armed_) {
    reaper_armed_ = true;
    schedule_after(kReapInterval, [this] { reap_loop(); });
  }
  return &ch;
}

NodeMux::Channel* NodeMux::live_channel(ChannelKey key, std::uint64_t generation) {
  auto it = channels_.find(key);
  if (it == channels_.end() || !it->second.open || it->second.generation != generation) {
    return nullptr;
  }
  return &it->second;
}

bool NodeMux::touch(ChannelKey key, std::uint64_t generation) {
  Channel* ch = live_channel(key, generation);
  if (ch != nullptr) ch->last_activity = now();
  return ch != nullptr;
}

void NodeMux::acquire(ChannelKey key, std::uint64_t generation, std::uint32_t endpoint_slot,
                      SlotCallback cb) {
  Channel* live = live_channel(key, generation);
  if (live == nullptr) {
    cb(nullptr, 0);
    return;
  }
  Channel& ch = *live;
  ch.last_activity = now();
  // A channel of one pairs ring slot i with its endpoint's slot i, like a
  // dedicated ring: that slot is free whenever the endpoint's is.
  const std::uint32_t first = key.shared() ? ch.next_slot : endpoint_slot;
  for (std::uint32_t i = 0; i < ch.slot_busy.size(); ++i) {
    const auto s = static_cast<std::uint32_t>((first + i) % ch.slot_busy.size());
    if (!ch.slot_busy[s]) {
      ch.slot_busy[s] = true;
      ch.next_slot = (s + 1) % static_cast<std::uint32_t>(ch.slot_busy.size());
      ++ch.in_flight;
      cb(&ch, s);
      return;
    }
  }
  // Shared ring full: every credit is carrying someone's request. Park the
  // requester; release() hands the freed slot straight to the oldest waiter.
  ++stats_.credit_waits;
  ch.waiters.push_back(std::move(cb));
}

void NodeMux::release(ChannelKey key, std::uint64_t generation, std::uint32_t slot) {
  // A channel that died since already recycled its credits at teardown.
  if (Channel* ch = live_channel(key, generation)) recycle(*ch, slot);
}

void NodeMux::detach(ChannelKey key, std::uint64_t generation) {
  Channel* ch = live_channel(key, generation);
  if (ch != nullptr && !key.shared()) close_channel(key, *ch, /*failure=*/false);
}

void NodeMux::recycle(Channel& ch, std::uint32_t slot) {
  if (!ch.open) return;  // teardown already recycled the credits
  ch.last_activity = now();
  if (!ch.waiters.empty()) {
    // Hand the slot over without ever marking it free: FIFO credit flow.
    auto cb = std::move(ch.waiters.front());
    ch.waiters.pop_front();
    cb(&ch, slot);
    return;
  }
  if (slot < ch.slot_busy.size()) ch.slot_busy[slot] = false;
  if (ch.in_flight > 0) --ch.in_flight;
}

fabric::QueuePair* NodeMux::begin_replica_read(NodeId node) {
  auto it = read_channels_.find(node);
  if (it == read_channels_.end() || !it->second.open) {
    if (!read_opener_) return nullptr;
    fabric::QueuePair* qp = read_opener_(node);
    if (qp == nullptr) return nullptr;
    ReadChannel& ch = read_channels_[node];
    ch.qp = qp;
    ch.qp_generation = qp->generation();
    ch.open = true;
    ch.read_refs = 0;
    ++stats_.read_channels_opened;
    it = read_channels_.find(node);
    if (!reaper_armed_) {
      reaper_armed_ = true;
      schedule_after(kReapInterval, [this] { reap_loop(); });
    }
  }
  ReadChannel& ch = it->second;
  ch.last_activity = now();
  ++ch.read_refs;
  return ch.qp;
}

void NodeMux::end_replica_read(NodeId node) {
  auto it = read_channels_.find(node);
  if (it == read_channels_.end()) return;
  ReadChannel& ch = it->second;
  if (ch.read_refs > 0) --ch.read_refs;
  ch.last_activity = now();
}

void NodeMux::report_failure(ChannelKey key, std::uint64_t generation) {
  if (Channel* ch = live_channel(key, generation)) close_channel(key, *ch, /*failure=*/true);
}

void NodeMux::close_channel(ChannelKey key, Channel& ch, bool failure) {
  ch.open = false;
  ++ch.generation;  // acquires/releases against the old incarnation no-op
  if (closer_) closer_(key, ch.wire);
  ch.wire.qp = nullptr;
  ch.slot_busy.clear();
  ch.in_flight = 0;
  if (failure) {
    ++stats_.reclaimed_failure;
  } else {
    ++stats_.reclaimed_idle;
  }
  if (obs_ != nullptr) {
    obs_->trace(now(), node_, obs::TraceKind::kMuxChannelReclaimed, key.shard, ch.wire.group,
                failure ? 1 : 0);
  }
  // Waiters never get a credit from this incarnation; they re-establish.
  auto waiters = std::move(ch.waiters);
  ch.waiters.clear();
  for (auto& cb : waiters) cb(nullptr, 0);
}

void NodeMux::reap_loop() {
  bool any_open = false;
  for (auto& [key, ch] : channels_) {
    if (!ch.open) continue;
    if (ch.in_flight == 0 && ch.waiters.empty() &&
        now() - ch.last_activity >= cfg_.idle_timeout) {
      close_channel(key, ch, /*failure=*/false);
    } else {
      any_open = true;
    }
  }
  for (auto& [node, ch] : read_channels_) {
    if (!ch.open) continue;
    if (now() - ch.last_activity < cfg_.idle_timeout) {
      any_open = true;
      continue;
    }
    if (ch.read_refs > 0) {
      // Idle past the timeout but a replica read is still in flight on
      // this QP. Reclaiming now would flush the read mid-air (the race
      // this refcount exists to close): defer until the pin drops.
      ++stats_.read_reap_deferred;
      any_open = true;
      continue;
    }
    ch.open = false;
    if (read_closer_) read_closer_(node, ch.qp, ch.qp_generation);
    ch.qp = nullptr;
    ++stats_.reclaimed_read_idle;
  }
  if (any_open) {
    schedule_after(kReapInterval, [this] { reap_loop(); });
  } else {
    reaper_armed_ = false;  // channel_to re-arms on the next open
  }
}

}  // namespace hydra::client
