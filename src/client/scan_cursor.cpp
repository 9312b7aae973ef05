#include "client/scan_cursor.hpp"

#include <algorithm>
#include <utility>

#include "index/leaf_page.hpp"
#include "obs/plane.hpp"

namespace hydra::client {
namespace {

/// Cursor-level restarts (epoch bumps, drained shards) before a scan gives
/// up with kTimeout.
constexpr int kMaxScanRestarts = 32;

}  // namespace

void Client::scan(std::string start_key, std::uint32_t limit, ScanResultFn cb) {
  ScanCursor::start(*this, std::move(start_key), limit, std::move(cb));
}

void ScanCursor::start(Client& client, std::string start_key, std::uint32_t limit,
                       Client::ScanResultFn cb) {
  auto cursor = std::shared_ptr<ScanCursor>(
      new ScanCursor(client, std::move(start_key), limit, std::move(cb)));
  cursor->self_ = cursor;
  cursor->begin();
}

ScanCursor::ScanCursor(Client& client, std::string start_key, std::uint32_t limit,
                       Client::ScanResultFn cb)
    : client_(client),
      start_(std::move(start_key)),
      limit_(limit),
      cb_(std::move(cb)),
      started_(client.now()) {}

void ScanCursor::begin() {
  if (limit_ == 0) {
    finish(Status::kOk);
    return;
  }
  epoch_ = client_.routing_epoch();
  const std::vector<ShardId> shards = client_.shard_list();
  if (shards.empty()) {
    finish(Status::kDisconnected);
    return;
  }
  streams_.clear();
  streams_.reserve(shards.size());
  for (const ShardId shard : shards) {
    Stream s;
    s.shard = shard;
    // After a restart, every stream resumes strictly past the last key the
    // *merge* emitted -- buffered-but-unemitted entries were discarded and
    // will be re-fetched, which is what makes restarts drop/dup-free.
    s.resume = emitted_any_ ? last_emitted_ : start_;
    s.exclusive = emitted_any_;
    streams_.push_back(std::move(s));
  }
  pump();
}

void ScanCursor::restart() {
  if (finished_) return;
  ++client_.mutable_stats().scan_restarts;
  if (++restarts_ > kMaxScanRestarts) {
    finish(Status::kTimeout);
    return;
  }
  ++generation_;
  begin();
}

void ScanCursor::pump() {
  if (finished_) return;
  while (true) {
    if (out_.size() >= limit_) {
      finish(Status::kOk);
      return;
    }
    // Phase 1: every unfinished, unbuffered stream must be fetching. The
    // merge may not emit while any of them is outstanding -- it could still
    // produce the global minimum.
    bool waiting = false;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      Stream& s = streams_[i];
      if (s.done || !s.buffer.empty()) continue;
      if (!s.inflight) fetch(i);
      waiting = true;
    }
    if (waiting) return;
    // Phase 2: all streams are done or buffered; emit the smallest head.
    std::size_t best = streams_.size();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (streams_[i].buffer.empty()) continue;
      if (best == streams_.size() ||
          streams_[i].buffer.front().first < streams_[best].buffer.front().first) {
        best = i;
      }
    }
    if (best == streams_.size()) {
      finish(Status::kOk);  // every shard exhausted before `limit`
      return;
    }
    auto kv = std::move(streams_[best].buffer.front());
    streams_[best].buffer.pop_front();
    // Strictly-ascending emit: a key at or below the last emitted one is a
    // dual-ownership duplicate (the migration copy window briefly exposes
    // moved keys on source and destination alike) -- drop it.
    if (emitted_any_ && kv.first <= last_emitted_) continue;
    last_emitted_ = kv.first;
    emitted_any_ = true;
    out_.push_back(std::move(kv));
  }
}

void ScanCursor::fetch(std::size_t idx) {
  Stream& s = streams_[idx];
  s.inflight = true;
  const std::uint64_t gen = generation_;
  auto self = shared_from_this();

  // Like a pointer-cache read, a leaf read never crosses a routing-epoch
  // advance the client knows of: the message path's epoch fence restarts
  // the cursor instead.
  LeafCache& cache = client_.leaf_cache();
  if (client_.config().scan_leaf_reads && !s.by_message &&
      client_.routing_epoch() == epoch_ && cache.adopt(epoch_)) {
    Link link = s.next;
    const bool chained = link.leaf != 0;
    if (!chained) link.leaf = cache.start(s.shard, s.resume);
    if (const auto where = link.leaf != 0 ? cache.find(s.shard, link.leaf) : std::nullopt) {
      client_.leaf_read(where->node, fabric::RemoteAddr{where->rkey, where->offset}, where->len,
                        [this, self, idx, gen, link, chained](Status st,
                                                              std::vector<std::byte> page) {
                          on_leaf_page(idx, gen, link, chained, st, std::move(page));
                        });
      return;
    }
  }
  s.by_message = false;
  s.next = Link{};

  proto::ScanReq sreq;
  sreq.epoch = epoch_;
  const std::uint32_t need =
      limit_ - static_cast<std::uint32_t>(std::min<std::size_t>(out_.size(), limit_));
  std::uint32_t batch = need;
  if (client_.config().scan_leaf_reads) {
    // Keys scatter evenly over the shards, so a batch asks for this stream's
    // share of the scan, and leaf pages serve whatever more it turns out to
    // need without the shard's CPU.
    const auto streams = static_cast<std::uint32_t>(streams_.size());
    batch = (need + streams - 1) / streams;
    sreq.want = need;
  }
  sreq.limit = std::max<std::uint32_t>(1, std::min(client_.config().scan_batch, batch));
  sreq.flags = s.exclusive ? proto::kScanFlagExclusive : std::uint8_t{0};
  client_.scan_shard(s.shard, s.resume, sreq,
                     [this, self, idx, gen](Status st, const proto::ScanResp& resp) {
                       on_batch(idx, gen, st, resp);
                     });
}

void ScanCursor::on_batch(std::size_t idx, std::uint64_t gen, Status st,
                          const proto::ScanResp& resp) {
  if (finished_ || gen != generation_) return;
  Stream& s = streams_[idx];
  s.inflight = false;
  if (st == Status::kWrongOwner || st == Status::kTimeout || st == Status::kDisconnected) {
    // Epoch fence, a mid-scan failover, or a drained shard: the whole shard
    // set may have changed; re-resolve and resume from the merge position.
    restart();
    return;
  }
  if (st != Status::kOk) {
    finish(st);
    return;
  }
  if (resp.entries.empty() && !resp.done) {
    // A live shard never answers "not done" with zero entries; treat the
    // contradiction like a lost response rather than spinning on it.
    restart();
    return;
  }
  for (const auto& [key, value] : resp.entries) {
    s.resume = key;
    s.exclusive = true;
    s.buffer.emplace_back(key, value);
  }
  s.done = resp.done;
  // The first hint is the leaf holding the continuation; the rest follow it
  // in the chain. All of them serve later scans too.
  if (!resp.done && !resp.hints.empty()) {
    LeafCache& cache = client_.leaf_cache();
    if (cache.adopt(epoch_)) {
      for (const proto::ScanLeafHint& hint : resp.hints) cache.add(s.shard, hint);
    }
    const proto::ScanLeafHint& first = resp.hints.front();
    s.next = Link{first.leaf_id, /*from_batch=*/true, first.leaf_version, 0};
  }
  pump();
}

void ScanCursor::on_leaf_page(std::size_t idx, std::uint64_t gen, Link link, bool chained,
                              Status st, std::vector<std::byte> page) {
  if (finished_ || gen != generation_) return;
  Stream& s = streams_[idx];
  s.inflight = false;
  ClientStats& stats = client_.mutable_stats();
  obs::Plane* obs = client_.fabric().obs();
  LeafCache& cache = client_.leaf_cache();
  const std::uint64_t leaf_id = link.leaf;

  auto fall_back = [&] {
    // The page failed to arrive or to validate (torn read, poisoned by a
    // write, stale epoch, block freed or reused for another leaf, or it does
    // not cover the resume key): forget it, and pump() re-fetches this
    // position through the message path.
    if (cache.adopt(epoch_)) cache.erase(s.shard, leaf_id);
    s.next = Link{};
    s.by_message = true;
    ++stats.scan_leaf_fallbacks;
    if (obs != nullptr) {
      obs->trace(client_.now(), client_.node(), obs::TraceKind::kScanLeafFallback,
                 s.shard, leaf_id, 0);
    }
    pump();
  };

  if (st != Status::kOk) {
    fall_back();
    return;
  }
  auto decoded = index::decode_leaf_page({page.data(), page.size()});
  if (!decoded.has_value() || decoded->leaf_id != leaf_id || decoded->epoch != epoch_) {
    fall_back();
    return;
  }
  auto& entries = decoded->entries;
  // Structural re-check: entries must be strictly ascending (a checksum
  // collision shield; also what lets the merge trust the buffered order).
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].first <= entries[i - 1].first) {
      fall_back();
      return;
    }
  }
  // The page must cover the resume key: no entry past it may sit in an
  // earlier leaf. A page looked up by key shows that by starting at or below
  // the key (or by being the head). A chained page was the successor of
  // what the stream read last, and entries leave it leftward only when the
  // index counts a left shift, so it must not show a newer shift than the
  // page that named it -- or, when a batch named it, the batch's version.
  bool covers = false;
  if (!chained) {
    covers = decoded->first || (!entries.empty() && entries.front().first <= s.resume);
  } else if (link.from_batch) {
    covers = decoded->leaf_version == link.version;
  } else {
    covers = decoded->left_shifts <= link.left_shifts;
  }
  if (!covers) {
    fall_back();
    return;
  }
  if (cache.adopt(epoch_)) {
    cache.learn(s.shard, leaf_id, entries.empty() ? nullptr : &entries.front().first,
                decoded->first);
  }
  std::size_t fresh = 0;
  for (auto& [key, value] : entries) {
    if (s.exclusive ? key <= s.resume : key < s.resume) continue;
    s.resume = key;
    s.exclusive = true;
    s.buffer.emplace_back(std::move(key), std::move(value));
    ++fresh;
  }
  ++stats.scan_leaf_reads;
  stats.scan_entries += fresh;
  if (obs != nullptr) {
    obs->trace(client_.now(), client_.node(), obs::TraceKind::kScanLeafRead, s.shard,
               leaf_id, fresh);
  }
  // An empty window (deletions, or a resume key at the leaf's end) simply
  // walks on to the successor.
  s.done = decoded->last;
  s.next = Link{decoded->next_id, /*from_batch=*/false, 0, decoded->left_shifts};
  pump();
}

void ScanCursor::finish(Status st) {
  if (finished_) return;
  finished_ = true;
  ClientStats& stats = client_.mutable_stats();
  ++stats.scans;
  stats.scan_latency.record(client_.now() - started_);
  auto cb = std::move(cb_);
  const auto self = std::move(self_);  // keep *this alive through the callback
  if (cb) cb(st, std::move(out_));
}

}  // namespace hydra::client
