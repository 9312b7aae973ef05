// Cross-shard scan cursor (DESIGN.md §13).
//
// A scan fans out across every live shard (range ownership is scattered by
// consistent hashing, so any shard may own any key of the range) and k-way
// merges the per-shard ordered streams into one ascending sequence. Each
// stream alternates between the always-correct kScan message path and --
// when the shard advertises leaf-page hints -- one-sided RDMA Reads of the
// mirrored B+-tree leaves, one hint after another in key order, each
// validated client-side by checksum and (leaf id, version, epoch) stamp;
// any validation failure drops the rest of the hints and falls back to the
// message path.
//
// Routing-epoch advances (failover promotions, live-migration commits)
// invalidate every outstanding continuation token: the affected shard
// answers kWrongOwner, and the cursor restarts against the refreshed epoch
// and shard list, resuming *exclusively* from the last key it emitted -- so
// an observer never sees a dropped or duplicated key across the transition.
// Keys the dual-ownership window makes visible on two shards at once are
// deduplicated by the merge's strictly-ascending emit rule.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client.hpp"

namespace hydra::client {

class ScanCursor : public std::enable_shared_from_this<ScanCursor> {
 public:
  /// Starts a self-owning cursor: it keeps itself alive until the final
  /// callback fires (Client::scan is the public face of this).
  static void start(Client& client, std::string start_key, std::uint32_t limit,
                    Client::ScanResultFn cb);

 private:
  struct Stream {
    ShardId shard = kInvalidShard;
    std::string resume;       ///< last key consumed from this shard
    bool exclusive = false;   ///< resume strictly after `resume`
    bool done = false;        ///< shard exhausted (no more fetches)
    bool inflight = false;
    std::deque<std::pair<std::string, std::string>> buffer;
    /// One-sided continuation: the leaf pages that followed the last message
    /// batch, read front to back while they validate.
    std::deque<proto::ScanLeafHint> hints;
  };

  ScanCursor(Client& client, std::string start_key, std::uint32_t limit,
             Client::ScanResultFn cb);

  /// (Re)builds the stream set from the live epoch + shard list, resuming
  /// exclusively from the last emitted key when anything was emitted.
  void begin();
  void restart();
  /// Merge driver: keeps every unfinished stream either buffered or
  /// fetching, and emits the global minimum only when no stream could still
  /// produce a smaller key.
  void pump();
  void fetch(std::size_t idx);
  void on_batch(std::size_t idx, std::uint64_t gen, Status st,
                const proto::ScanResp& resp);
  void on_leaf_page(std::size_t idx, std::uint64_t gen, proto::ScanLeafHint hint,
                    Status st, std::vector<std::byte> page);
  void finish(Status st);

  Client& client_;
  std::string start_;
  std::uint32_t limit_;
  Client::ScanResultFn cb_;
  Time started_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<Stream> streams_;
  Client::ScanEntries out_;
  std::string last_emitted_;
  bool emitted_any_ = false;
  int restarts_ = 0;
  /// Bumped on every restart so stale in-flight callbacks are ignored.
  std::uint64_t generation_ = 0;
  bool finished_ = false;
  std::shared_ptr<ScanCursor> self_;
};

}  // namespace hydra::client
