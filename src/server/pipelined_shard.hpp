// Pipelined (decoupled I/O + computation) shard -- the Figure 10 "Pipeline +
// RDMA Write" comparator for section 6.2.1.
//
// A Shard in everything but scheduling: dispatcher threads detect requests
// in the request rings and hand them to worker threads over an internal
// queue; a worker runs Shard's handlers and commit tail. Even with 2
// dispatchers + 2 workers (4x the cores of the single-threaded shard,
// matching the paper's experiment), per-request handoff and synchronization
// overhead makes it lose to the single-threaded design once RDMA removed the
// I/O work that pipelining was supposed to hide.
#pragma once

#include <deque>

#include "server/shard.hpp"

namespace hydra::server {

class PipelinedShard final : public Shard {
 public:
  using Shard::Shard;

 private:
  static constexpr int kDispatchers = 2;
  static constexpr int kWorkers = 2;

  /// Wakes one idle dispatcher; the others wake on further arrivals.
  void wake() override;
  /// A worker is free: it takes the next handed-off request, or goes idle.
  void process_loop() override;
  /// A dispatcher sweeps until a request decodes, pays the scan plus
  /// dispatch_cost, enqueues it for the workers and dispatches again.
  void dispatch();

  /// Dispatcher -> worker handoff queue (the pipeline's synchronization point).
  std::deque<ReadyReq> handoff_;
  int idle_dispatchers_ = kDispatchers;
  int idle_workers_ = kWorkers;
};

}  // namespace hydra::server
