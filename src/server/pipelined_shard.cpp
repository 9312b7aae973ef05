#include "server/pipelined_shard.hpp"

#include <utility>

namespace hydra::server {

void PipelinedShard::wake() {
  if (idle_dispatchers_ == 0) return;
  --idle_dispatchers_;
  schedule_after(config().cpu.idle_backoff, [this] { dispatch(); });
}

void PipelinedShard::dispatch() {
  Duration scan_cost = 0;
  ReadyReq r;
  if (!next_swept(r, scan_cost)) {
    charge(scan_cost);
    ++idle_dispatchers_;
    return;
  }
  // Dispatch: detection plus the enqueue into the shared work queue.
  const Duration cost = scan_cost + config().cpu.dispatch_cost;
  charge(cost);
  schedule_after(cost, [this, r = std::move(r)]() mutable {
    handoff_.push_back(std::move(r));
    if (idle_workers_ > 0) {
      --idle_workers_;
      schedule_after(0, [this] { process_loop(); });
    }
    dispatch();
  });
}

void PipelinedShard::process_loop() {
  if (handoff_.empty()) {
    ++idle_workers_;
    return;
  }
  ReadyReq r = std::move(handoff_.front());
  handoff_.pop_front();
  // The handoff itself costs: dequeue, synchronization, and the request's
  // cache lines migrating from the dispatcher's core to the worker's.
  handle(std::move(r.req), r.reply, config().cpu.handoff_sync);
}

}  // namespace hydra::server
