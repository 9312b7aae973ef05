// Cross-shard scan cursor (DESIGN.md §13).
//
// A scan fans out across every live shard (range ownership is scattered by
// consistent hashing, so any shard may own any key of the range) and k-way
// merges the per-shard ordered streams into one ascending sequence. Each
// stream starts one-sidedly when it can: from the node's leaf cache it
// RDMA-Reads the mirrored B+-tree leaf page with the greatest known first
// key at or below its resume key (or the shard's head page) and walks on by
// the successor ids the pages name. A page counts only if it decodes (the
// shard poisons a page on every change, so a decoded page is current),
// names the leaf the stream expected, carries the cursor's epoch and covers
// the resume key: a page looked up by key starts at or below it (or is the
// head), a successor shows no left shift newer than the page that named it,
// and a batch's continuation leaf is still the version the batch named.
// Any failure takes the always-correct kScan message path once; its leaf
// hints refill the cache and name the leaf the stream continues from.
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
  /// The leaf a stream continues from one-sidedly, and what its page must
  /// show to cover the stream's resume key.
  struct Link {
    std::uint64_t leaf = 0;  ///< 0: look the resume key up in the leaf cache
    bool from_batch = false;
    /// Named by a batch hint: the page must still be this version.
    std::uint64_t version = 0;
    /// Named by a page: the successor's left-shift stamp may not exceed it.
    std::uint64_t left_shifts = 0;
  };

  struct Stream {
    ShardId shard = kInvalidShard;
    std::string resume;       ///< last key consumed from this shard
    bool exclusive = false;   ///< resume strictly after `resume`
    bool done = false;        ///< shard exhausted (no more fetches)
    bool inflight = false;
    std::deque<std::pair<std::string, std::string>> buffer;
    /// The successor the last page named, or the last batch's first hint.
    Link next;
    bool by_message = false;  ///< the last page failed: next fetch is a batch
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
  /// `chained`: `link` came from the stream, not from a lookup by key.
  void on_leaf_page(std::size_t idx, std::uint64_t gen, Link link, bool chained, Status st,
                    std::vector<std::byte> page);
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
