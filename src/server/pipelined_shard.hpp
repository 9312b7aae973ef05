// Pipelined (decoupled I/O + computation) shard -- the Figure 5(a)
// comparator for section 6.2.1.
//
// Dispatcher threads detect requests in the connection buffers and hand
// them to worker threads over an internal queue. Even with 2 dispatchers +
// 2 workers (4x the cores of the single-threaded shard, matching the
// paper's experiment), per-request handoff and synchronization overhead
// makes it lose to the single-threaded design once RDMA removed the I/O
// work that pipelining was supposed to hide.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/store.hpp"
#include "fabric/fabric.hpp"
#include "fabric/registered_buffer.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "server/config.hpp"
#include "server/dirty_scheduler.hpp"
#include "server/shard.hpp"
#include "sim/actor.hpp"

namespace hydra::server {

class PipelinedShard : public sim::Actor {
 public:
  PipelinedShard(sim::Scheduler& sched, fabric::Fabric& fabric, NodeId node,
                 ShardConfig cfg, int dispatchers = 2, int workers = 2);

  /// The same group/endpoint grant as Shard's (polling mode only), kept to
  /// the comparator's single-slot contract: every group is a one-slot ring
  /// with one endpoint (whose id is the group's), and the dispatcher strips
  /// the MuxHeader envelope. A second endpoint replaces the first.
  Shard::MuxGroupResult accept_mux_group(fabric::QueuePair* qp);
  Shard::MuxEndpointResult accept_mux_endpoint(std::uint32_t group,
                                               fabric::RemoteAddr client_resp_slot,
                                               std::uint32_t client_resp_bytes,
                                               ClientId client);
  /// Frees the group's slot; a response still being computed for it drops.
  void close_mux_group(std::uint32_t group);

  [[nodiscard]] ShardId id() const noexcept { return cfg_.id; }
  [[nodiscard]] core::KVStore& store() noexcept { return *store_; }
  [[nodiscard]] const ShardStats& stats() const noexcept { return stats_; }

  void kill() override;

 private:
  /// One group: the one-slot ring at its index in msg_region_. Closed
  /// groups' slots are reused.
  struct Connection {
    fabric::QueuePair* qp = nullptr;
    fabric::RemoteAddr resp_addr{};  ///< the endpoint's response slot
    std::uint32_t resp_bytes = 0;    ///< 0 until the endpoint registers
    bool open = false;
  };

  [[nodiscard]] std::span<std::byte> slot_span(std::uint32_t idx) noexcept {
    return {msg_region_.data() + static_cast<std::size_t>(idx) * cfg_.msg_slot_bytes,
            cfg_.msg_slot_bytes};
  }

  void on_request_write(std::uint64_t offset);
  void wake_dispatchers();
  void dispatcher_loop(std::size_t d);
  void wake_workers();
  void worker_loop(std::size_t w);
  void execute(proto::Request req, std::uint32_t conn_idx, std::size_t w);
  void send_response(const proto::Response& resp, std::uint32_t conn_idx);

  fabric::Fabric& fabric_;
  NodeId node_;
  ShardConfig cfg_;
  std::unique_ptr<core::KVStore> store_;
  fabric::MemoryRegion* arena_mr_;
  fabric::RegisteredBuffer msg_region_;
  fabric::MemoryRegion* msg_mr_;

  std::vector<Connection> conns_;
  DirtyScheduler dirty_;  ///< shared with Shard; see dirty_scheduler.hpp
  /// Dispatcher -> worker handoff queue (the pipeline's synchronization point).
  std::deque<std::pair<proto::Request, std::uint32_t>> work_queue_;
  std::vector<bool> dispatcher_busy_;
  std::vector<bool> worker_busy_;
  ShardStats stats_;
};

}  // namespace hydra::server
