// Per-layer metrics: counters read from each layer's public stats
// accessors around the measured window, and wall-clock replays of single
// calls into each layer's public functions on the workload's own inputs.
#include <algorithm>
#include <cstdio>

#include "client/client.hpp"
#include "common/hash.hpp"
#include "core/lockfree_cache.hpp"
#include "core/store.hpp"
#include "index/btree.hpp"
#include "perfbench.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

using namespace hydra;

LayerSnapshot snapshot(db::HydraCluster& cluster) {
  LayerSnapshot s;
  s.at = cluster.scheduler().now();
  s.fabric = cluster.fabric().stats();
  s.live_qp_pairs = cluster.fabric().live_qp_pairs();
  for (const NodeId n : cluster.server_nodes()) {
    const auto& nic = cluster.fabric().node(n).nic();
    s.server_tx_ops.push_back(nic.tx_ops);
    s.server_tx_bytes.push_back(nic.tx_bytes);
  }
  for (ShardId id = 0; id < cluster.shard_count(); ++id) {
    LayerSnapshot::ShardSnap ss;
    if (server::Shard* sh = cluster.shard(id); sh != nullptr) {
      ss.who = sh;
      ss.st = sh->stats();
      if (const auto* rep = sh->replicator(); rep != nullptr) {
        ss.acks = rep->acks_received();
        ss.resends = rep->resends();
        ss.write_retries = rep->write_retries();
        ss.quarantined = rep->quarantined();
      }
    }
    s.shards.push_back(ss);
  }
  for (const client::Client* c : cluster.clients()) {
    const auto& st = c->stats();
    s.gets += st.gets;
    s.puts += st.puts;
    s.ptr_hits += st.ptr_hits;
    s.invalid_hits += st.invalid_hits;
    s.replica_hits += st.replica_hits;
    s.epoch_invalidations += st.epoch_invalidations;
    s.timeouts += st.timeouts;
    s.retries += st.retries;
    s.scans += st.scans;
    s.scan_batches += st.scan_batches;
    s.scan_leaf_reads += st.scan_leaf_reads;
    s.scan_leaf_fallbacks += st.scan_leaf_fallbacks;
  }
  for (int n = 0; n < cluster.options().client_nodes; ++n) {
    if (const client::NodeMux* mux = cluster.node_mux(n); mux != nullptr) {
      s.credit_waits += mux->stats().credit_waits;
      s.channels_opened += mux->stats().channels_opened;
    }
  }
  if (const db::FastFailover* ff = cluster.fast_failover(); ff != nullptr) {
    s.rounds_started = ff->rounds_started();
    s.rounds_aborted = ff->rounds_aborted();
    s.ballots_lost = ff->ballots_lost();
  }
  return s;
}

// ---- replays -------------------------------------------------------------------

namespace {

constexpr std::size_t kReplayOps = 200'000;

struct StreamOp {
  OpType type;
  std::uint64_t record;
  std::uint32_t scan_len;
};

/// The workload's op mix and key stream, drawn the way the driver draws it.
std::vector<StreamOp> op_stream(const Workload& w, std::uint64_t seed, std::size_t n) {
  auto chooser = make_chooser(w.dist, w.records);
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 0xF00D);
  std::vector<StreamOp> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    StreamOp op{u < w.scan_frac                  ? OpType::kScan
                : u < w.scan_frac + w.get_frac ? OpType::kGet
                                                : OpType::kUpdate,
                chooser->next(rng), 1};
    if (op.type == OpType::kScan) op.scan_len = 1 + static_cast<std::uint32_t>(rng.below(w.max_scan_len));
    ops.push_back(op);
  }
  return ops;
}

template <typename Fn>
double ns_per(std::size_t n, Fn&& fn) {
  const double t0 = wall_now();
  fn();
  return n == 0 ? 0.0 : (wall_now() - t0) * 1e9 / static_cast<double>(n);
}

/// Keeps `depth` events pending: each fired event schedules one more.
struct Refill {
  sim::Scheduler* sched;
  Xoshiro256* rng;
  std::size_t* left;
  void operator()() const {
    if (*left == 0) return;
    --*left;
    sched->after(1 + static_cast<Duration>(rng->below(10 * kMicrosecond)), *this);
  }
};

}  // namespace

Replays run_replays(const Workload& w, std::uint64_t seed, double pending_mean) {
  Replays r;
  const auto stream = op_stream(w, seed, kReplayOps);

  {  // sim: schedule + fire at the workload's mean queue depth
    sim::Scheduler sched;
    Xoshiro256 rng(seed);
    std::size_t left = kReplayOps;
    const auto depth = std::max<std::size_t>(1, static_cast<std::size_t>(pending_mean));
    r.sim_schedule_fire_ns = ns_per(kReplayOps, [&] {
      for (std::size_t i = 0; i < depth; ++i) Refill{&sched, &rng, &left}();
      sched.run();
    });
  }

  {  // proto: request encode + decode, and framing, on the op mix
    std::vector<proto::Request> reqs;
    reqs.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const StreamOp& op = stream[i];
      proto::Request q;
      q.type = op.type == OpType::kGet    ? proto::MsgType::kGet
               : op.type == OpType::kScan ? proto::MsgType::kScan
                                          : proto::MsgType::kUpdate;
      q.req_id = i + 1;
      q.key = format_key(op.record);
      if (op.type == OpType::kUpdate) q.value = encode_value(op.record, 0, i + 1);
      reqs.push_back(std::move(q));
    }
    std::size_t decoded = 0;
    std::vector<std::vector<std::byte>> payloads(reqs.size());
    r.proto_request_codec_ns = ns_per(reqs.size(), [&] {
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        payloads[i] = proto::encode_request(reqs[i]);
        decoded += proto::decode_request(payloads[i]).has_value();
      }
    });
    std::vector<std::byte> slot(4096);
    std::size_t polled = 0;
    r.proto_frame_ns = ns_per(payloads.size(), [&] {
      for (const auto& p : payloads) {
        proto::encode_frame(slot, p);
        polled += proto::poll_frame(slot).value_or(0);
      }
    });
    if (decoded != reqs.size() || polled == 0) std::fprintf(stderr, "perfbench: proto replay failed\n");
  }

  // core + index + client cache: one shard's share of the records.
  const std::uint64_t shards = std::max<std::uint64_t>(1, w.cluster.server_nodes *
                                                              w.cluster.shards_per_node);
  auto own = [&](std::uint64_t rec) { return rec - rec % shards; };
  core::StoreConfig sc = w.cluster.shard_template.store;
  sc.ordered_index = w.cluster.ordered_index;
  core::KVStore store(sc);
  Time now = 1;
  std::uint64_t loaded = 0;
  r.core_load_ns_per_record = ns_per((w.records + shards - 1) / shards, [&] {
    for (std::uint64_t rec = 0; rec < w.records; rec += shards) {
      loaded += store.insert(format_key(rec), encode_value(rec, kPreloadWriter, 0), now) ==
                Status::kOk;
    }
  });
  std::vector<std::string> keys;
  keys.reserve(stream.size());
  for (const StreamOp& op : stream) keys.push_back(format_key(own(op.record)));
  std::size_t hits = 0;
  r.core_get_ns = ns_per(keys.size(), [&] {
    for (const auto& k : keys) hits += store.get(k, ++now).ok();
  });
  const std::size_t updates = std::min<std::size_t>(keys.size(), 50'000);
  r.core_put_ns = ns_per(updates, [&] {
    for (std::size_t i = 0; i < updates; ++i) {
      store.update(keys[i], encode_value(own(stream[i].record), 0, i + 1), ++now);
    }
  });
  if (hits != keys.size() || loaded == 0) std::fprintf(stderr, "perfbench: core replay missed\n");

  if (w.scan_frac > 0) {
    const index::OrderedIndex* idx = store.index();
    std::size_t seen = 0, scans = 0;
    const double ns = ns_per(1, [&] {
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].type != OpType::kScan) continue;
        ++scans;
        std::uint32_t left = stream[i].scan_len;
        idx->scan(keys[i], false, [&](std::string_view, std::uint64_t) {
          ++seen;
          return --left > 0;
        });
      }
    });
    r.index_scan_ns = scans == 0 ? 0.0 : ns / static_cast<double>(scans);
    if (seen == 0) std::fprintf(stderr, "perfbench: index replay saw nothing\n");
  }

  {  // client: the per-node pointer cache, filled as GETs would fill it
    client::Client::RemotePtrCache cache(64 * 1024);
    for (const StreamOp& op : stream) {
      client::CachedPtr p;
      p.primary.total_len = 64;
      p.primary.offset = op.record;
      cache.put(hash_key(format_key(op.record)), p);
    }
    std::vector<std::uint64_t> hashes;
    hashes.reserve(stream.size());
    for (const StreamOp& op : stream) hashes.push_back(hash_key(format_key(op.record)));
    std::size_t cached = 0;
    r.client_ptr_cache_get_ns = ns_per(hashes.size(), [&] {
      client::CachedPtr out;
      for (const std::uint64_t h : hashes) cached += cache.get(h, &out);
    });
    if (cached == 0) std::fprintf(stderr, "perfbench: pointer cache replay missed\n");
  }
  return r;
}

// ---- metrics -------------------------------------------------------------------

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Metrics layer_metrics(const TracedRun& run) {
  const LayerSnapshot& a = run.before;
  const LayerSnapshot& b = run.after;
  const VirtualResult& res = *run.result;
  const Driver& drv = *run.traced;
  // The counters span the whole measured phase, so normalise by its ops.
  const auto ops = static_cast<double>(drv.measured_ops());
  const double window = static_cast<double>(b.at - a.at);
  const auto gets = static_cast<double>(b.gets - a.gets);
  const auto puts = static_cast<double>(b.puts - a.puts);
  const auto scans = static_cast<double>(b.scans - a.scans);

  // Shard counters: a promotion replaces the primary, whose fresh stats then
  // count from zero.
  double requests = 0, responses = 0, batched = 0, busy_max = 0, promotions = 0;
  double hot_inval = 0, leaf_refresh = 0, acks = 0, resends = 0, retries = 0, quarantined = 0;
  for (std::size_t i = 0; i < b.shards.size(); ++i) {
    const auto& sb = b.shards[i];
    const LayerSnapshot::ShardSnap zero;
    const auto& sa = (i < a.shards.size() && a.shards[i].who == sb.who) ? a.shards[i] : zero;
    auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(x - y); };
    requests += d(sb.st.gets, sa.st.gets) + d(sb.st.puts, sa.st.puts) +
                d(sb.st.removes, sa.st.removes) + d(sb.st.renews, sa.st.renews) +
                d(sb.st.scans, sa.st.scans);
    responses += d(sb.st.responses, sa.st.responses);
    batched += d(sb.st.batched_responses, sa.st.batched_responses);
    busy_max = std::max(busy_max, ratio(d(sb.st.busy_time, sa.st.busy_time), window));
    promotions += d(sb.st.hotkey_promotions, sa.st.hotkey_promotions);
    hot_inval += d(sb.st.hotkey_invalidations, sa.st.hotkey_invalidations);
    leaf_refresh += d(sb.st.scan_leaf_refreshes, sa.st.scan_leaf_refreshes);
    acks += d(sb.acks, sa.acks);
    resends += d(sb.resends, sa.resends);
    retries += d(sb.write_retries, sa.write_retries);
    quarantined += d(sb.quarantined, sa.quarantined);
  }
  double tx_total = 0, tx_peak = 0, tx_bytes = 0;
  for (std::size_t i = 0; i < b.server_tx_ops.size(); ++i) {
    const auto tx = static_cast<double>(b.server_tx_ops[i] - a.server_tx_ops[i]);
    tx_total += tx;
    tx_peak = std::max(tx_peak, tx);
    tx_bytes += static_cast<double>(b.server_tx_bytes[i] - a.server_tx_bytes[i]);
  }
  const double tx_mean = ratio(tx_total, static_cast<double>(b.server_tx_ops.size()));
  const auto fd = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const Replays& rp = run.replays;

  Metrics m;
  // What each layer's metrics should move, printed beside them.
  const char* moves = "";
  auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit, moves});
  };
  moves = "sim.kops_per_s on every workload";
  add("sim.kops_per_s", run.untraced_kops_per_s, "kops/s");
  add("sim.events_per_op",
      ratio(static_cast<double>(run.untraced_events), static_cast<double>(run.untraced_ops)),
      "1/op");
  add("sim.wall_ns_per_event",
      ratio(run.untraced_wall_s * 1e9, static_cast<double>(run.untraced_events)), "ns");
  add("sim.pending_max", static_cast<double>(drv.pending_max()), "count");
  add("sim.schedule_fire_ns", rp.sim_schedule_fire_ns, "ns");
  moves = "read_p99_us on read_hot; QP count -> peak_rss_mb";
  add("fabric.rdma_reads_per_op", ratio(fd(b.fabric.rdma_reads, a.fabric.rdma_reads), ops), "1/op");
  add("fabric.rdma_writes_per_op", ratio(fd(b.fabric.rdma_writes, a.fabric.rdma_writes), ops),
      "1/op");
  add("fabric.atomics_per_op", ratio(fd(b.fabric.rdma_atomics, a.fabric.rdma_atomics), ops),
      "1/op");
  add("fabric.server_tx_bytes_per_op", ratio(tx_bytes, ops), "B/op");
  add("fabric.server_tx_load_ratio", ratio(tx_peak, tx_mean), "ratio");
  add("fabric.live_qp_pairs", static_cast<double>(b.live_qp_pairs), "count");
  add("fabric.rkey_revocations", fd(b.fabric.rkey_revocations, a.fabric.rkey_revocations),
      "count");
  moves = "sim.kops_per_s on write_mux, not on read_hot";
  add("proto.request_codec_ns", rp.proto_request_codec_ns, "ns");
  add("proto.frame_ns", rp.proto_frame_ns, "ns");
  moves = "setup_s and sim.kops_per_s on write_mux";
  add("core.get_ns", rp.core_get_ns, "ns");
  add("core.put_ns", rp.core_put_ns, "ns");
  add("core.load_ns_per_record", rp.core_load_ns_per_record, "ns");
  moves = "read_p99_us on scan_e; 0 elsewhere";
  add("index.batches_per_scan", ratio(static_cast<double>(b.scan_batches - a.scan_batches), scans),
      "1/scan");
  add("index.leaf_reads_per_scan",
      ratio(static_cast<double>(b.scan_leaf_reads - a.scan_leaf_reads), scans), "1/scan");
  const auto leaf_reads = static_cast<double>(b.scan_leaf_reads - a.scan_leaf_reads);
  const auto fallbacks = static_cast<double>(b.scan_leaf_fallbacks - a.scan_leaf_fallbacks);
  add("index.leaf_fallback_ratio", ratio(fallbacks, leaf_reads + fallbacks), "ratio");
  add("index.leaf_refreshes_per_update", ratio(leaf_refresh, puts), "1/op");
  add("index.scan_ns", rp.index_scan_ns, "ns");
  moves = "throughput_mops and update_p99_us on write_mux";
  add("server.busy_frac_max", busy_max, "ratio");
  add("server.requests_per_op", ratio(requests, ops), "1/op");
  add("server.batched_response_ratio", ratio(batched, responses), "ratio");
  moves = "read_p99_us on read_hot once the plane is on";
  add("hotkey.promotions", promotions, "count");
  add("hotkey.replica_hit_ratio",
      ratio(static_cast<double>(b.replica_hits - a.replica_hits), gets), "ratio");
  add("hotkey.invalidations_per_update", ratio(hot_inval, puts), "1/op");
  moves = "read_p50_us on read_hot; ~0 on write_mux";
  add("client.ptr_hit_ratio", ratio(static_cast<double>(b.ptr_hits - a.ptr_hits), gets), "ratio");
  add("client.invalid_hit_ratio",
      ratio(static_cast<double>(b.invalid_hits - a.invalid_hits), gets), "ratio");
  add("client.retries_per_op", ratio(static_cast<double>(b.retries - a.retries), ops), "1/op");
  add("client.timeouts", static_cast<double>(b.timeouts - a.timeouts), "count");
  add("client.epoch_invalidations",
      static_cast<double>(b.epoch_invalidations - a.epoch_invalidations), "count");
  add("client.get_onesided_p50_us", percentile(res.get_onesided_lat, 50) / 1e3, "us");
  add("client.get_onesided_p99_us", percentile(res.get_onesided_lat, 99) / 1e3, "us");
  add("client.get_message_p50_us", percentile(res.get_message_lat, 50) / 1e3, "us");
  add("client.get_message_p99_us", percentile(res.get_message_lat, 99) / 1e3, "us");
  add("client.ptr_cache_get_ns", rp.client_ptr_cache_get_ns, "ns");
  moves = "update_p99_us on write_mux; 0 on per-QP workloads";
  add("mux.credit_waits_per_op", ratio(static_cast<double>(b.credit_waits - a.credit_waits), ops),
      "1/op");
  add("mux.channels_opened", static_cast<double>(b.channels_opened), "count");
  moves = "update_p99_us on write_mux and failover";
  add("rep.acks_per_update", ratio(acks, puts), "1/op");
  add("rep.resends", resends, "count");
  add("rep.write_retries", retries, "count");
  add("rep.quarantined", quarantined, "count");
  moves = "update_p99_us and throughput_mops on failover; 0 elsewhere";
  add("failover.crashes", static_cast<double>(res.crashes), "count");
  add("failover.promote_us", percentile(res.promote, 50) / 1e3, "us");
  add("failover.recovery_us", percentile(res.recovery, 50) / 1e3, "us");
  add("failover.rounds_started", static_cast<double>(b.rounds_started - a.rounds_started),
      "count");
  add("failover.rounds_aborted", static_cast<double>(b.rounds_aborted - a.rounds_aborted),
      "count");
  add("failover.ballots_lost", static_cast<double>(b.ballots_lost - a.ballots_lost), "count");
  moves = "nothing: guards the traced run and the generator";
  add("obs.trace_records", static_cast<double>(run.trace_records), "count");
  add("obs.overhead_frac",
      ratio(drv.measured_wall_s() - run.untraced_wall_s, run.untraced_wall_s), "ratio");
  add("driver.max_lateness_us", static_cast<double>(drv.max_lateness()) / 1000.0, "us");
  add("driver.error_rate",
      ratio(static_cast<double>(res.failed + res.wrong), static_cast<double>(res.attempted)),
      "ratio");
  return m;
}

}  // namespace perfbench
