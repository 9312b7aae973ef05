// The op driver: generates each workload's ops from the seed, sends them
// through the client API, records per-op virtual latencies and checks
// every answer against a model of the writes it has issued.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "perfbench.hpp"

namespace perfbench {

using namespace hydra;

namespace {
constexpr Duration kChunk = 100 * kMicrosecond;      ///< wall-clock check cadence
constexpr Duration kDrainLimit = 2 * kSecond;        ///< ops still open after this fail
constexpr std::size_t kMaxWrongReports = 10;
}  // namespace

Driver::Driver(db::HydraCluster& cluster, const Workload& w, std::uint64_t seed,
               Tracer* tracer)
    : cluster_(cluster),
      w_(w),
      tracer_(tracer),
      chooser_(make_chooser(w.dist, w.records)),
      arrival_rng_(seed * 0x9E3779B97F4A7C15ULL + 0x51ED),
      max_acked_issue_(w.records, 0),
      written_(w.records, false) {
  const std::size_t n = cluster_.clients().size();
  client_rng_.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    client_rng_.emplace_back(seed * 0x9E3779B97F4A7C15ULL + c + 1);
  }
  writes_.resize(n);
}

void Driver::issue(std::uint32_t client, Time due, Xoshiro256& rng) {
  const Time now = cluster_.scheduler().now();
  max_lateness_ = std::max<Duration>(max_lateness_, now - due);
  const double u = rng.uniform();
  OpRec op;
  op.due = due;
  op.client = client;
  op.record = static_cast<std::uint32_t>(chooser_->next(rng));
  op.type = u < w_.scan_frac                  ? OpType::kScan
            : u < w_.scan_frac + w_.get_frac ? OpType::kGet
                                              : OpType::kUpdate;
  client::Client& cl = *cluster_.clients()[client];
  const std::uint64_t id = ops_.size();
  if (tracer_ != nullptr && id < Tracer::kMaxOpSpans) {
    tracer_->ops().push_back({id, op.type, client, due, 0, wall_now(), 0});
  }
  ++in_flight_;
  std::string key = format_key(op.record);
  switch (op.type) {
    case OpType::kGet:
      op.aux = max_acked_issue_[op.record];
      op.ptr_hits_before = cl.stats().ptr_hits;
      ops_.push_back(op);
      cl.get(std::move(key),
             [this, id](Status st, std::string_view v) { on_get(id, st, v); });
      break;
    case OpType::kUpdate: {
      auto& mine = writes_[client];
      mine.push_back({now, kNever, op.record});
      op.aux = mine.size();
      written_[op.record] = true;
      ops_.push_back(op);
      cl.update(std::move(key), encode_value(op.record, client, op.aux),
                [this, id](Status st) { on_update(id, st); });
      break;
    }
    case OpType::kScan:
      op.aux = 1 + rng.below(w_.max_scan_len);
      ops_.push_back(op);
      cl.scan(std::move(key), static_cast<std::uint32_t>(op.aux),
              [this, id](Status st, client::Client::ScanEntries e) { on_scan(id, st, e); });
      break;
  }
}

void Driver::on_done(std::uint64_t id) {
  OpRec& op = ops_[id];
  const Time now = cluster_.scheduler().now();
  op.done = now;
  op.finished = true;
  --in_flight_;
  ++completed_;
  if (tracer_ != nullptr && id < Tracer::kMaxOpSpans) {
    auto& span = tracer_->ops()[id];
    span.v_end = now;
    span.w_end = wall_now();
  }
  const std::size_t pending = cluster_.scheduler().pending();
  pending_max_ = std::max(pending_max_, pending);
  pending_sum_ += static_cast<double>(pending);
  ++pending_samples_;
  for (Crash& c : crashes_) {
    if (!c.promoted && cluster_.routing_epoch() > c.epoch_before) {
      c.promoted = true;
      c.promote_gap = now - c.at;
    }
  }
  if (issuing_ && !w_.open_loop) issue(op.client, now, client_rng_[op.client]);
}

void Driver::on_get(std::uint64_t id, Status st, std::string_view value) {
  OpRec& op = ops_[id];
  const client::Client& cl = *cluster_.clients()[op.client];
  op.onesided = cl.stats().ptr_hits > op.ptr_hits_before;
  op.status = st;
  op.ok = st == Status::kOk;
  if (st == Status::kNotFound) {
    wrong(id, "GET of a loaded key found nothing");
  } else if (op.ok && !value_ok(op.record, value, op.aux, cluster_.scheduler().now())) {
    std::string why = std::string(op.onesided ? "one-sided" : "message-path") +
                      " GET issued at " + std::to_string(op.due) + " returned " +
                      std::string(value);
    DecodedValue d;
    if (decode_value(value, &d) && d.writer < writes_.size() && d.seq >= 1 &&
        d.seq <= writes_[d.writer].size()) {
      const WriteRec& wr = writes_[d.writer][d.seq - 1];
      why += " (written " + std::to_string(wr.issue) + ".." + std::to_string(wr.ack) + ")";
    }
    wrong(id, why + ", but a write issued at " + std::to_string(op.aux) +
                  " was acked before the GET began");
  }
  on_done(id);
}

void Driver::on_update(std::uint64_t id, Status st) {
  OpRec& op = ops_[id];
  const Time now = cluster_.scheduler().now();
  op.status = st;
  op.ok = st == Status::kOk;
  if (op.ok) {
    WriteRec& wr = writes_[op.client][op.aux - 1];
    wr.ack = now;
    max_acked_issue_[op.record] = std::max(max_acked_issue_[op.record], wr.issue);
    for (Crash& c : crashes_) {
      if (!c.recovered && op.due >= c.at &&
          cluster_.owner_of(format_key(op.record)) == c.shard) {
        c.recovered = true;
        c.recovery_gap = now - c.at;
      }
    }
  }
  on_done(id);
}

void Driver::on_scan(std::uint64_t id, Status st, const client::Client::ScanEntries& entries) {
  OpRec& op = ops_[id];
  op.status = st;
  op.ok = st == Status::kOk;
  if (op.ok) {
    // Every record exists and keys sort by record number, so the answer is
    // exactly the next min(len, records - start) records, in order: this
    // also rules out duplicates, gaps and overruns of the limit.
    const std::uint64_t expect =
        std::min<std::uint64_t>(op.aux, w_.records - op.record);
    const Time now = cluster_.scheduler().now();
    if (entries.size() != expect) {
      wrong(id, "SCAN returned " + std::to_string(entries.size()) + " entries, expected " +
                    std::to_string(expect));
    } else {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto rec = static_cast<std::uint32_t>(op.record + i);
        if (entries[i].first != format_key(rec) || !value_ok(rec, entries[i].second, 0, now)) {
          wrong(id, "SCAN entry " + std::to_string(i) + " is out of order or wrong");
          break;
        }
      }
    }
  }
  on_done(id);
}

bool Driver::value_ok(std::uint32_t record, std::string_view v, Time snapshot, Time now) const {
  DecodedValue d;
  if (!decode_value(v, &d) || d.record != record) return false;
  Time issued = 0, acked = 0;
  if (d.writer == kPreloadWriter) {
    if (d.seq != 0) return false;
  } else {
    if (d.writer >= writes_.size() || d.seq == 0 || d.seq > writes_[d.writer].size()) {
      return false;
    }
    const WriteRec& wr = writes_[d.writer][d.seq - 1];
    if (wr.record != record) return false;
    issued = wr.issue;
    acked = wr.ack;
  }
  // Stale: the write was acked before another write to the key began, and
  // that other write was acked before this read began.
  return issued <= now && (acked == kNever || acked >= snapshot);
}

void Driver::wrong(std::uint64_t id, const std::string& why) {
  if (wrong_ + readback_wrong_ < kMaxWrongReports) {
    std::fprintf(stderr, "perfbench: wrong answer (op %llu, record %u): %s\n",
                 static_cast<unsigned long long>(id), ops_[id].record, why.c_str());
  }
  ++wrong_;
}

void Driver::next_arrival() {
  if (!issuing_) return;
  const std::uint32_t client =
      static_cast<std::uint32_t>(arrival_rng_.below(cluster_.clients().size()));
  issue(client, static_cast<Time>(next_due_), arrival_rng_);
  // Exponential inter-arrival gaps at the aggregate rate (ops per ns).
  const double rate = w_.offered_mops / 1000.0;
  next_due_ += -std::log(1.0 - arrival_rng_.uniform()) / rate;
  cluster_.scheduler().at(static_cast<Time>(next_due_), [this] { next_arrival(); });
}

void Driver::crash_next() {
  if (!issuing_ || cluster_.scheduler().now() >= t1_) return;
  Crash c;
  c.at = cluster_.scheduler().now();
  c.shard = static_cast<ShardId>(crashes_.size() % cluster_.shard_count());
  c.epoch_before = cluster_.routing_epoch();
  crashes_.push_back(c);
  cluster_.crash_primary(c.shard);
  cluster_.scheduler().after(w_.crash_period, [this] { crash_next(); });
}

void Driver::warm_up() {
  issuing_ = true;
  const Time now = cluster_.scheduler().now();
  if (w_.open_loop) {
    next_due_ = static_cast<double>(now);
    cluster_.scheduler().at(now, [this] { next_arrival(); });
  } else {
    for (std::uint32_t c = 0; c < cluster_.clients().size(); ++c) {
      issue(c, now, client_rng_[c]);
    }
  }
  run_to(now + w_.warmup);
}

void Driver::run_to(Time t) { cluster_.scheduler().run_until(t); }

void Driver::measure(double wall_budget_s, Time stop_at) {
  sim::Scheduler& sched = cluster_.scheduler();
  t0_ = sched.now();
  t1_ = t0_ + w_.window;
  const std::uint64_t ev0 = sched.events_executed();
  const std::uint64_t ops0 = completed_;
  const double w0 = wall_now();
  if (w_.crash_first > 0) sched.at(t0_ + w_.crash_first, [this] { crash_next(); });
  // Chunk boundaries are t0 + k * kChunk in both modes, so a wall-bounded
  // run and a rerun to its end instant execute the same history.
  double slice_start = w0;
  std::uint64_t slice_ops = completed_;
  while (stop_at == 0 ? wall_now() - w0 < wall_budget_s || sched.now() < t1_
                      : sched.now() < stop_at) {
    Time next = sched.now() + kChunk;
    if (stop_at != 0) next = std::min(next, stop_at);
    run_to(next);
    const double w = wall_now();
    if (stop_at == 0 && w - slice_start >= wall_budget_s / kSlices) {
      slice_rates_.push_back(static_cast<double>(completed_ - slice_ops) / (w - slice_start));
      slice_start = w;
      slice_ops = completed_;
    }
  }
  t_end_ = sched.now();
  wall_s_ = wall_now() - w0;
  events_ = sched.events_executed() - ev0;
  phase_ops_ = completed_ - ops0;
}

void Driver::drain() {
  issuing_ = false;
  sim::Scheduler& sched = cluster_.scheduler();
  const Time limit = sched.now() + kDrainLimit;
  while (in_flight_ > 0 && sched.now() < limit && sched.step()) {
  }
}

void Driver::read_back() {
  std::vector<std::uint32_t> todo;
  for (std::uint32_t r = 0; r < written_.size(); ++r) {
    if (written_[r]) todo.push_back(r);
  }
  std::size_t next = 0, open = 0;
  std::function<void(std::uint32_t)> send = [&](std::uint32_t client) {
    if (next == todo.size()) return;
    const std::uint32_t rec = todo[next++];
    ++open;
    cluster_.clients()[client]->get(format_key(rec), [&, rec, client](Status st,
                                                                     std::string_view v) {
      --open;
      if (st != Status::kOk ||
          !value_ok(rec, v, max_acked_issue_[rec], cluster_.scheduler().now())) {
        if (wrong_ + readback_wrong_ < kMaxWrongReports) {
          std::fprintf(stderr, "perfbench: read-back of record %u lost an acked write (%s)\n",
                       rec, std::string(to_string(st)).c_str());
        }
        ++readback_wrong_;
      }
      send(client);
    });
  };
  for (std::uint32_t c = 0; c < cluster_.clients().size(); ++c) send(c);
  sim::Scheduler& sched = cluster_.scheduler();
  const Time limit = sched.now() + kDrainLimit;
  while (open > 0 && sched.now() < limit && sched.step()) {
  }
  readback_wrong_ += open + (todo.size() - next);
}

VirtualResult Driver::result() const {
  VirtualResult r;
  r.t0 = t0_;
  r.t1 = t1_;
  for (const OpRec& op : ops_) {
    if (op.finished && op.done > t0_ && op.done <= t1_) ++r.completed;
    if (op.due < t0_ || op.due > t1_) continue;
    ++r.attempted;
    if (!op.finished || !op.ok) {
      ++r.failed;
      const auto st = static_cast<std::size_t>(op.status);
      if (r.status_counts.size() <= st) r.status_counts.resize(st + 1);
      ++r.status_counts[st];
      continue;
    }
    const Duration lat = op.done - op.due;
    switch (op.type) {
      case OpType::kGet:
        r.get_lat.push_back(lat);
        (op.onesided ? r.get_onesided_lat : r.get_message_lat).push_back(lat);
        break;
      case OpType::kUpdate: r.update_lat.push_back(lat); break;
      case OpType::kScan: r.scan_lat.push_back(lat); break;
    }
  }
  for (const Crash& c : crashes_) {
    if (c.promoted) r.promote.push_back(c.promote_gap);
    if (c.recovered) r.recovery.push_back(c.recovery_gap);
  }
  r.crashes = crashes_.size();
  r.wrong = wrong_ + readback_wrong_;
  return r;
}

}  // namespace perfbench
