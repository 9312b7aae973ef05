// Recovery latency of the failover plane: primary loss -> promotion ->
// first successful client write, measured on the virtual clock.
//
// Paper shape (legacy rows): detection is dominated by the coordinator
// session timeout (2s here); promotion plus client re-routing add only a
// small fraction on top, and neither the replica count nor the failure
// flavour (hard crash versus a fenced partition) changes the picture
// materially.
//
// --fast-failover adds rows with the RDMA permission-revocation agreement
// plane enabled (DESIGN.md 14): replicas detect the silent primary by
// missed pulses, fence it by revoking its ring rkeys, and agree on a
// successor with a one-sided CAS ballot -- promotion lands in microseconds
// instead of seconds, and the before/after comparison is written to
// BENCH_failover.json (hydradb-obs-v1). A loaded row then puts 50
// closed-loop clients on the fast path and measures what they see: the gap
// from the crash to the completion of the last op the crash stalled, which
// the clients' routing watch (not their 5 ms request timeout) closes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/plane.hpp"

namespace {

struct Row {
  std::string label;
  bool fast = false;           // fast-failover agreement plane enabled
  double promote_s = 0;        // crash -> failovers() observed
  double first_write_s = 0;    // crash -> first acked post-failover PUT
  double trace_promote_s = -1; // fault -> kPromotionDone, from trace alone
  double gap_hist_us = -1;     // cluster.failover_gap_us histogram max
  std::string obs_json;        // full hydradb-obs-v1 snapshot (--metrics-out)
};

/// Fast failover under load: 50 closed-loop clients (80% updates, 20% GETs,
/// uniform over preloaded keys) at the default request timeout.
struct LoadedRow {
  std::string label = "fast-loaded-50c";
  double promote_us = 0;      // crash -> routing epoch published
  double client_gap_us = 0;   // crash -> last stalled op completed
  std::uint64_t stalled_ops = 0;  // outstanding at the crash or issued before promotion
  std::uint64_t timeouts = 0;     // ClientStats::timeouts summed over clients
  std::uint64_t failed = 0;       // ops answered with an error
};

LoadedRow run_loaded_fast_failover() {
  using namespace hydra;
  db::ClusterOptions opts;
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.client_nodes = 5;
  opts.clients_per_node = 10;
  opts.replicas = 2;
  opts.enable_swat = true;
  opts.fast_failover = true;
  opts.shard_template.store.arena_bytes = 16 << 20;
  opts.shard_template.store.min_buckets = 1 << 12;
  db::HydraCluster cluster(opts);
  constexpr std::uint64_t kRecords = 5000;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    cluster.direct_load(format_key(i), synth_value(i));
  }

  struct Op {
    Time issued = 0;
    Time done = 0;
    bool answered = false;
    bool ok = false;
  };
  std::vector<Op> ops;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  bool issuing = true;
  std::function<void(std::size_t)> next = [&](std::size_t k) {
    if (!issuing) return;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t record = (rng >> 33) % kRecords;
    const std::size_t id = ops.size();
    ops.push_back(Op{cluster.scheduler().now()});
    const auto finish = [&, id, k](bool ok) {
      ops[id].answered = true;
      ops[id].done = cluster.scheduler().now();
      ops[id].ok = ok;
      next(k);
    };
    client::Client& c = *cluster.clients()[k];
    if ((rng >> 20) % 5 == 0) {
      c.get(format_key(record),
            [finish](Status st, std::string_view) { finish(st == Status::kOk); });
    } else {
      c.update(format_key(record), synth_value(record + id),
               [finish](Status st) { finish(st == Status::kOk); });
    }
  };
  for (std::size_t k = 0; k < cluster.clients().size(); ++k) next(k);
  cluster.run_for(5 * kMillisecond);

  const Time crash_at = cluster.scheduler().now();
  const std::uint64_t epoch = cluster.routing_epoch();
  cluster.crash_primary(0);
  while (cluster.routing_epoch() == epoch && cluster.scheduler().step()) {
  }
  const Time promoted_at = cluster.scheduler().now();
  cluster.run_for(20 * kMillisecond);
  issuing = false;
  cluster.run_for(50 * kMillisecond);

  LoadedRow row;
  row.promote_us = static_cast<double>(promoted_at - crash_at) / kMicrosecond;
  Time last = crash_at;
  for (const Op& op : ops) {
    if (!op.answered || !op.ok) ++row.failed;
    if (op.issued >= promoted_at || (op.answered && op.done <= crash_at)) continue;
    ++row.stalled_ops;
    last = std::max(last, op.done);
  }
  row.client_gap_us = static_cast<double>(last - crash_at) / kMicrosecond;
  for (const client::Client* c : cluster.clients()) row.timeouts += c->stats().timeouts;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hydra;
  std::string metrics_out;
  std::string json_path = "BENCH_failover.json";
  bool fast_rows = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::string("--metrics-out=").size());
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--fast-failover") {
      fast_rows = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::string("--json=").size());
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::ShapeChecker shape;
  std::vector<Row> rows;

  struct Config {
    const char* label;
    int replicas;
    replication::ReplicationMode mode;
    bool partition;  // fence via suppressed heartbeats instead of a crash
    bool fast;       // enable the revocation/ballot agreement plane
  };
  std::vector<Config> configs = {
      {"crash-relaxed-1r", 1, replication::ReplicationMode::kLogRelaxed, false, false},
      {"crash-relaxed-2r", 2, replication::ReplicationMode::kLogRelaxed, false, false},
      {"crash-strict-1r", 1, replication::ReplicationMode::kStrictAck, false, false},
      {"partition-relaxed-1r", 1, replication::ReplicationMode::kLogRelaxed, true, false},
  };
  if (fast_rows) {
    configs.push_back(
        {"fast-relaxed-2r", 2, replication::ReplicationMode::kLogRelaxed, false, true});
    configs.push_back(
        {"fast-strict-2r", 2, replication::ReplicationMode::kStrictAck, false, true});
  }

  for (const auto& cfg : configs) {
    db::ClusterOptions opts;
    opts.server_nodes = 1 + std::max(cfg.replicas, 1);
    opts.shards_per_node = 1;
    opts.total_shards = 1;
    opts.client_nodes = 1;
    opts.clients_per_node = 1;
    opts.replicas = cfg.replicas;
    opts.replication.mode = cfg.mode;
    opts.enable_swat = true;
    opts.fast_failover = cfg.fast;
    opts.client_template.request_timeout = 100 * kMillisecond;
    opts.client_template.max_retries = 100;
    // The obs plane is always attached: by the determinism contract
    // (DESIGN.md §8, obs_test) it cannot perturb the measured history.
    obs::Plane plane;
    opts.obs = &plane;
    db::HydraCluster cluster(opts);

    for (std::uint64_t i = 0; i < 200; ++i) {
      if (cluster.put(format_key(i), synth_value(i)) != Status::kOk) return 1;
    }
    cluster.run_for(50 * kMillisecond);  // drain replication

    const Time crash_at = cluster.scheduler().now();
    if (cfg.partition) {
      cluster.suppress_heartbeats(0, 10 * kSecond);
    } else {
      cluster.crash_primary(0);
    }

    const Time deadline = crash_at + 20 * kSecond;
    while (cluster.failovers() == 0 && cluster.scheduler().now() < deadline &&
           cluster.scheduler().step()) {
    }
    const Time promoted_at = cluster.scheduler().now();

    const Status st = cluster.put("post-failover", "v");
    const Time first_write_at = cluster.scheduler().now();

    Row row;
    row.label = cfg.label;
    row.fast = cfg.fast;
    row.promote_s = static_cast<double>(promoted_at - crash_at) / kSecond;
    row.first_write_s = static_cast<double>(first_write_at - crash_at) / kSecond;

    // Re-derive the promotion latency from trace events alone: the fault
    // marker (crash or heartbeat suppression) to kPromotionDone, with no
    // reference to the measurement variables above.
    const obs::TraceQuery q = plane.query();
    const auto fault = cfg.partition ? q.first(obs::TraceKind::kHeartbeatSuppressed)
                                     : q.first(obs::TraceKind::kCrashInjected);
    const auto done = q.first(obs::TraceKind::kPromotionDone);
    if (fault && done) {
      row.trace_promote_s = static_cast<double>(done->at - fault->at) / kSecond;
    }
    // Promotion also stamps the crash-to-promotion gap into the obs
    // histogram (partition rows never stamp crashed_at, so theirs is empty).
    const auto& gap_hist = plane.metrics().histogram("cluster.failover_gap_us");
    if (gap_hist.count() > 0) {
      row.gap_hist_us = static_cast<double>(gap_hist.max());
    }
    if (!metrics_out.empty()) {
      row.obs_json = plane.json(cluster.scheduler().now());
    }
    rows.push_back(row);

    shape.expect(cluster.failovers() == 1,
                 row.label + ": exactly one promotion happened");
    shape.expect(st == Status::kOk, row.label + ": writes resume after failover");
    shape.expect(row.trace_promote_s >= 0,
                 row.label + ": promotion latency derivable from trace alone");
    shape.expect(std::fabs(row.trace_promote_s - row.promote_s) < 0.05,
                 row.label + ": trace-derived latency matches the measured one");
  }

  LoadedRow loaded;
  if (fast_rows) loaded = run_loaded_fast_failover();

  const double session_s =
      static_cast<double>(db::ClusterOptions{}.coordinator.session_timeout) / kSecond;
  std::printf("Failover recovery latency (virtual seconds; session timeout %.1fs)\n",
              session_s);
  std::printf("%-24s %12s %14s %12s\n", "scenario", "promotion", "first write",
              "from-trace");
  for (const Row& r : rows) {
    std::printf("%-24s %11.6fs %13.6fs %11.6fs\n", r.label.c_str(), r.promote_s,
                r.first_write_s, r.trace_promote_s);
  }

  if (fast_rows) {
    std::printf("\nFast failover under load (50 closed-loop clients, virtual us)\n");
    std::printf("%-24s %12s %12s %12s %10s\n", "scenario", "promotion", "client gap",
                "stalled ops", "timeouts");
    std::printf("%-24s %10.1fus %10.1fus %12llu %10llu\n", loaded.label.c_str(),
                loaded.promote_us, loaded.client_gap_us,
                static_cast<unsigned long long>(loaded.stalled_ops),
                static_cast<unsigned long long>(loaded.timeouts));
  }

  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_chaos_recovery: cannot write %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"chaos_recovery\",\n  \"scenarios\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"promotion_s\": %.6f, "
                   "\"first_write_s\": %.6f, \"trace_promotion_s\": %.6f,\n"
                   "     \"obs\": %s}%s\n",
                   r.label.c_str(), r.promote_s, r.first_write_s, r.trace_promote_s,
                   r.obs_json.c_str(), i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", metrics_out.c_str());
  }

  if (fast_rows) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_chaos_recovery: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"failover_gap\",\n");
    std::fprintf(f, "  \"schema\": \"hydradb-obs-v1\",\n");
    std::fprintf(f,
                 "  \"workload\": \"200 preload PUTs, 1 shard; kill (or fence) the "
                 "primary, measure crash->promotion->first acked write on the "
                 "virtual clock; legacy rows promote via the 2s coordinator "
                 "session timeout, fast rows via pulse-miss suspicion + rkey "
                 "revocation + CAS ballot\",\n");
    std::fprintf(f,
                 "  \"gap_hist_us\": \"max of the cluster.failover_gap_us obs "
                 "histogram (-1 when the fault never stamped a crash)\",\n");
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"fast_failover\": %s, "
                   "\"promotion_s\": %.6f, \"first_write_s\": %.6f, "
                   "\"trace_promotion_s\": %.6f, \"gap_hist_us\": %.1f}%s\n",
                   r.label.c_str(), r.fast ? "true" : "false", r.promote_s,
                   r.first_write_s, r.trace_promote_s, r.gap_hist_us,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"loaded\": {\"label\": \"%s\", \"clients\": 50, "
                 "\"promotion_us\": %.1f, \"client_gap_us\": %.1f, "
                 "\"stalled_ops\": %llu, \"client_timeouts\": %llu, \"failed\": %llu}\n",
                 loaded.label.c_str(), loaded.promote_us, loaded.client_gap_us,
                 static_cast<unsigned long long>(loaded.stalled_ops),
                 static_cast<unsigned long long>(loaded.timeouts),
                 static_cast<unsigned long long>(loaded.failed));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  for (const Row& r : rows) {
    if (r.fast) {
      // The whole point of the agreement plane: promotion no longer waits
      // for the session timeout -- the gap collapses to microseconds.
      shape.expect(r.promote_s < 0.001,
                   r.label + ": fast failover promotes within 1ms virtual");
      shape.expect(r.gap_hist_us >= 0 && r.gap_hist_us < 1000.0,
                   r.label + ": failover_gap_us histogram stays under 1ms");
    } else {
      shape.expect(r.promote_s > session_s,
                   r.label + ": detection cannot beat the session timeout");
      shape.expect(r.promote_s < session_s + 2.0,
                   r.label + ": promotion lands within ~2s of the timeout");
    }
    shape.expect(r.first_write_s - r.promote_s < 1.0,
                 r.label + ": client re-routes within 1s of promotion");
  }
  // Replica count and failure flavour shouldn't move recovery materially.
  shape.expect(rows[1].promote_s < rows[0].promote_s * 1.5,
               "two replicas do not slow down promotion");
  shape.expect(rows[3].promote_s < rows[0].promote_s + 2.0,
               "a fenced partition recovers like a crash (+heartbeat slack)");
  if (fast_rows) {
    // Before/after: the revocation plane beats heartbeat promotion by >1000x.
    shape.expect(rows[4].promote_s * 1000.0 < rows[1].promote_s,
                 "fast failover is at least 1000x faster than session timeout");
    // Under load the clients' routing watch, not the request timeout, ends
    // the stall: every op the crash held up completes within 1 ms.
    shape.expect(loaded.stalled_ops > 0, loaded.label + ": the crash stalled some ops");
    shape.expect(loaded.client_gap_us < 1000.0,
                 loaded.label + ": stalled ops complete within 1ms of the crash");
    shape.expect(loaded.timeouts == 0, loaded.label + ": no client request timed out");
    shape.expect(loaded.failed == 0, loaded.label + ": every op succeeded");
  }
  return shape.summarize("chaos_recovery");
}
