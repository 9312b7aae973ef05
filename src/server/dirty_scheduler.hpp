// Index-driven dirty-ring scheduler of the shard (one class; PipelinedShard
// only reschedules who runs what its sweep yields).
//
// The shard's wakeup path must do O(active) work per wakeup no matter how
// many endpoints are registered: a write hook marks its endpoint dirty in
// O(1) (a flag suppresses duplicates, an index ring preserves FIFO sweep
// order), and the poll loop pops exactly the endpoints that saw traffic.
//
// Fairness guarantee (DESIGN.md §10): endpoints are swept in the order they
// became dirty (FIFO), and an endpoint re-marked while queued is not
// enqueued twice -- so between two sweeps of one endpoint, every other
// dirty endpoint is swept at least once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

namespace hydra::server {

class DirtyScheduler {
 public:
  /// Registers one more endpoint (ids are dense, assigned in call order).
  /// Returns the new endpoint's id.
  std::uint32_t add_endpoint() {
    flags_.push_back(false);
    dead_.push_back(false);
    return static_cast<std::uint32_t>(flags_.size() - 1);
  }

  [[nodiscard]] std::size_t endpoints() const noexcept { return flags_.size(); }

  /// Marks an endpoint dirty. Returns true when it was newly marked (the
  /// caller wakes the poll loop); false for duplicates, out-of-range ids
  /// (a write landing past the registered endpoints is ignored) and
  /// deregistered endpoints.
  bool mark(std::uint32_t id) {
    if (id >= flags_.size() || flags_[id] || dead_[id]) return false;
    flags_[id] = true;
    queue_.push_back(id);
    return true;
  }

  /// Retires an endpoint (its connection closed): any queued dirty mark is
  /// withdrawn immediately and later mark() calls are ignored, so a retired
  /// endpoint can never resurface from the queue. Ids stay dense -- the slot
  /// is not reassigned until reactivate(). Idempotent; out-of-range ignored.
  void deregister(std::uint32_t id) {
    if (id >= flags_.size() || dead_[id]) return;
    dead_[id] = true;
    if (flags_[id]) {
      flags_[id] = false;
      // O(queue) scan; deregistration is a rare control-plane event while
      // the queue holds only currently-dirty endpoints.
      queue_.erase(std::find(queue_.begin(), queue_.end(), id));
    }
  }

  /// Re-arms a deregistered endpoint id for a fresh logical connection
  /// reusing its slot (the mux-group reopen path).
  void reactivate(std::uint32_t id) {
    if (id < flags_.size()) dead_[id] = false;
  }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t active() const noexcept { return queue_.size(); }

  /// Pops the oldest dirty endpoint and clears its flag (so a write landing
  /// during the sweep re-marks it). Callers must check empty() first.
  std::uint32_t pop() {
    const std::uint32_t id = queue_.front();
    queue_.pop_front();
    flags_[id] = false;
    return id;
  }

 private:
  std::vector<bool> flags_;          // endpoint id -> queued?
  std::vector<bool> dead_;           // endpoint id -> deregistered?
  std::deque<std::uint32_t> queue_;  // dirty ids, FIFO sweep order
};

}  // namespace hydra::server
