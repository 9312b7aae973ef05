// Figure 12: scale-out (1-7 server machines) and scale-up (1-8 shard
// instances on one machine), 60 clients on 6 machines.
//
// Paper shape: Uniform 50/50 and 90/10 scale out near-linearly; Zipfian
// workloads saturate (skew cannot be rebalanced by adding machines);
// scale-up is linear to ~5 shards, then the NIC's QP-count penalty
// (shards x clients connections) flattens it; 100% GET saturates the NIC
// with few shards.
//
// --clients[=N,N,...] switches to the connection-scalability sweep
// (DESIGN.md §10): a think-time GET workload over 1k..100k clients, run
// with per-client QPs and/or QP-multiplexed shared channels (--per-qp /
// --mux; default both), reporting where each wiring's p99 doubles over its
// own 1k baseline (the "knee") and writing BENCH_fig12.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/keygen.hpp"
#include "common/rng.hpp"

namespace {

using namespace hydra;

// ------------------- connection-scalability sweep (DESIGN.md §10) ----------

struct ConnPoint {
  std::uint32_t clients = 0;
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  double ops_per_sec = 0.0;
  obs::LatencySummary lat;
  std::uint64_t qp_connects = 0;
  std::uint64_t live_qp_pairs = 0;
  std::uint64_t mux_requests = 0;
  std::uint64_t credit_waits = 0;
};

/// One sweep point: `clients` simulated clients on 20 client machines
/// against 2 server machines x 8 shards, each client GETting its own
/// preloaded key at think-time-staggered instants (aggregate rate held
/// well under shard saturation, so latency tracks the connection plane,
/// not queueing). Returns the pooled latency summary plus the QP census.
ConnPoint run_conn_point(std::uint32_t clients, bool mux) {
  constexpr int kClientNodes = 20;
  db::ClusterOptions opts;
  opts.server_nodes = 2;
  opts.shards_per_node = 8;
  opts.client_nodes = kClientNodes;
  opts.clients_per_node = static_cast<int>(clients) / kClientNodes;
  opts.enable_swat = false;
  opts.client_rdma_read = false;  // every GET exercises the QP message path
  opts.share_pointer_cache = true;
  opts.mux_connections = mux;
  opts.mux.idle_timeout = kSecond;  // no reclaim churn mid-measurement
  opts.client_template.window = 1;
  opts.client_template.resp_slot_bytes = 512;
  opts.client_template.request_timeout = 50 * kMillisecond;
  opts.shard_template.msg_slot_bytes = 512;
  opts.shard_template.ring_slots = 1;
  // Per-client wiring holds one live connection (a channel of one) per
  // client a shard serves; mux needs one per client machine.
  opts.shard_template.max_connections = mux ? 256 : clients + 64;
  opts.shard_template.store.arena_bytes = 32ull << 20;
  opts.shard_template.store.min_buckets = 1 << 15;
  db::HydraCluster cluster(opts);

  for (std::uint32_t c = 0; c < clients; ++c) {
    cluster.direct_load(format_key(c), "v0");
  }

  // Fixed ~48k-op budget spread over all clients; issue instants uniform in
  // a window sized for ~1.2M aggregate ops/s (16 shards saturate far
  // higher, so the servers stay uncongested at every sweep point).
  const std::uint64_t per_client = std::max<std::uint64_t>(1, 48'000 / clients);
  const std::uint64_t total = per_client * clients;
  const Duration window = static_cast<Duration>(total * 833);
  Xoshiro256 rng(0x5ca1ab1eULL + clients * 2 + (mux ? 1 : 0));

  auto& sched = cluster.scheduler();
  LatencyHistogram lat;
  std::uint64_t done = 0;
  std::uint64_t failures = 0;
  for (std::uint32_t c = 0; c < clients; ++c) {
    for (std::uint64_t j = 0; j < per_client; ++j) {
      const auto at = static_cast<Time>(rng.below(static_cast<std::uint64_t>(window)));
      sched.at(at, [&cluster, &sched, &lat, &done, &failures, c] {
        const Time t0 = sched.now();
        cluster.clients()[c]->get(format_key(c),
                                  [&sched, &lat, &done, &failures, t0](Status s,
                                                                       std::string_view) {
                                    lat.record(sched.now() - t0);
                                    ++done;
                                    failures += s != Status::kOk;
                                  });
      });
    }
  }
  while (done < total && sched.step()) {
  }

  ConnPoint p;
  p.clients = clients;
  p.ops = done;
  p.failures = failures;
  p.ops_per_sec = sched.now() > 0 ? static_cast<double>(done) * 1e9 /
                                        static_cast<double>(sched.now())
                                  : 0.0;
  p.lat = obs::summarize(lat);
  p.qp_connects = cluster.fabric().stats().qp_connects;
  p.live_qp_pairs = cluster.fabric().live_qp_pairs();
  for (ShardId s = 0; s < cluster.shard_count(); ++s) {
    p.mux_requests += cluster.shard(s)->stats().mux_requests;
  }
  for (int n = 0; n < kClientNodes; ++n) {
    if (auto* m = cluster.node_mux(n)) p.credit_waits += m->stats().credit_waits;
  }
  return p;
}

/// First swept client count whose p99 is >= 2x the first point's p99;
/// 0 when the series never knees within the sweep.
std::uint32_t knee_of(const std::vector<ConnPoint>& pts) {
  if (pts.empty()) return 0;
  const auto baseline = static_cast<double>(pts.front().lat.p99_ns);
  for (const auto& p : pts) {
    if (static_cast<double>(p.lat.p99_ns) >= 2.0 * baseline) return p.clients;
  }
  return 0;
}

void print_conn_table(const char* label, const std::vector<ConnPoint>& pts) {
  std::printf("\n%s\n", label);
  std::printf("%10s %9s %12s %10s %10s %8s %8s %12s %12s\n", "clients", "ops",
              "ops/s", "p50 ns", "p99 ns", "qps", "fail", "mux_reqs", "credit_waits");
  for (const auto& p : pts) {
    std::printf("%10u %9llu %12.0f %10llu %10llu %8llu %8llu %12llu %12llu\n", p.clients,
                static_cast<unsigned long long>(p.ops), p.ops_per_sec,
                static_cast<unsigned long long>(p.lat.p50_ns),
                static_cast<unsigned long long>(p.lat.p99_ns),
                static_cast<unsigned long long>(p.live_qp_pairs),
                static_cast<unsigned long long>(p.failures),
                static_cast<unsigned long long>(p.mux_requests),
                static_cast<unsigned long long>(p.credit_waits));
  }
}

void write_conn_json(const std::string& path, const std::vector<ConnPoint>& perqp,
                     const std::vector<ConnPoint>& muxed, std::uint32_t perqp_knee,
                     std::uint32_t mux_knee) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_fig12: cannot write %s\n", path.c_str());
    return;
  }
  auto write_mode = [&](const char* name, const std::vector<ConnPoint>& pts,
                        std::uint32_t knee, const char* trailing) {
    std::fprintf(f, "  \"%s\": {\n    \"knee_clients\": %u,\n    \"points\": [\n", name,
                 knee);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const auto& p = pts[i];
      std::fprintf(f,
                   "      {\"clients\": %u, \"ops\": %llu, \"failures\": %llu, "
                   "\"ops_per_sec\": %.1f, \"get_latency\": %s, "
                   "\"qp_connects\": %llu, \"live_qp_pairs\": %llu, "
                   "\"mux_requests\": %llu, \"credit_waits\": %llu}%s\n",
                   p.clients, static_cast<unsigned long long>(p.ops),
                   static_cast<unsigned long long>(p.failures), p.ops_per_sec,
                   bench::latency_json(p.lat).c_str(),
                   static_cast<unsigned long long>(p.qp_connects),
                   static_cast<unsigned long long>(p.live_qp_pairs),
                   static_cast<unsigned long long>(p.mux_requests),
                   static_cast<unsigned long long>(p.credit_waits),
                   i + 1 < pts.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }%s\n", trailing);
  };
  std::fprintf(f, "{\n  \"bench\": \"fig12_conn_scale\",\n"
                  "  \"schema\": \"hydradb-obs-v1\",\n"
                  "  \"knee_definition\": \"first client count whose p99 >= 2x "
                  "the mode's own first-point p99; 0 = no knee within sweep\",\n");
  write_mode("per_qp", perqp, perqp_knee, ",");
  write_mode("mux", muxed, mux_knee, "");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

std::vector<std::uint32_t> parse_counts(const std::string& arg) {
  std::vector<std::uint32_t> counts;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok =
        arg.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const long v = std::strtol(tok.c_str(), nullptr, 10);
    // Client counts are spread over 20 client machines.
    if (v > 0) counts.push_back(std::max(20u, static_cast<std::uint32_t>(v) / 20 * 20));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return counts;
}

int run_conn_sweep(std::vector<std::uint32_t> counts, bool run_perqp, bool run_mux,
                   std::uint32_t perqp_cap, const std::string& json_path) {
  if (counts.empty()) counts = {1'000, 2'000, 5'000, 10'000, 25'000, 50'000, 100'000};
  bench::ShapeChecker shape;

  std::vector<ConnPoint> perqp;
  std::vector<ConnPoint> muxed;
  if (run_perqp) {
    for (const std::uint32_t c : counts) {
      // Per-client QPs past the cap cost O(clients) rings per shard for no
      // extra signal: the knee sits far below it.
      if (c > perqp_cap) {
        std::printf("per-qp: skipping %u clients (cap %u)\n", c, perqp_cap);
        continue;
      }
      perqp.push_back(run_conn_point(c, /*mux=*/false));
    }
    print_conn_table("per-client QPs", perqp);
  }
  if (run_mux) {
    for (const std::uint32_t c : counts) muxed.push_back(run_conn_point(c, /*mux=*/true));
    print_conn_table("QP-mux + shared rings", muxed);
  }

  const std::uint32_t perqp_knee = knee_of(perqp);
  const std::uint32_t mux_knee = knee_of(muxed);
  if (run_perqp) {
    std::printf("\nper-qp knee: %u clients%s\n", perqp_knee,
                perqp_knee == 0 ? " (none within sweep)" : "");
  }
  if (run_mux) {
    std::printf("mux knee: %u clients%s\n", mux_knee,
                mux_knee == 0 ? " (none within sweep)" : "");
  }
  write_conn_json(json_path, perqp, muxed, perqp_knee, mux_knee);

  if (!run_perqp || !run_mux) return 0;  // single mode: census only, no verdict
  for (const auto& pts : {&perqp, &muxed}) {
    for (const auto& p : *pts) {
      shape.expect(p.failures == 0, "all ops complete Ok at " +
                                        std::to_string(p.clients) + " clients");
    }
  }
  shape.expect(perqp_knee != 0,
               "per-client QPs: p99 doubles within the sweep (QP-count penalty)");
  // A mode that never knees is credited with its last completed point.
  const std::uint32_t mux_eff = mux_knee != 0 ? mux_knee : muxed.back().clients;
  shape.expect(perqp_knee != 0 && mux_eff >= 4 * perqp_knee,
               "QP-mux moves the p99 knee >= 4x more clients out");
  return shape.summarize("fig12_conn_scale");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hydra;
  bench::ShapeChecker shape;

  // --window N re-runs the whole sweep with N-deep request rings and
  // N-outstanding drivers (default 1 = the paper's closed-loop setup).
  // --clients[=list] switches to the connection-scalability sweep instead.
  std::uint32_t window = 1;
  bool conn_sweep = false;
  bool run_perqp = true;
  bool run_mux = true;
  std::uint32_t perqp_cap = 25'000;
  std::vector<std::uint32_t> counts;
  std::string json_path = "BENCH_fig12.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--window=", 9) == 0) {
      window = static_cast<std::uint32_t>(std::strtoul(argv[i] + 9, nullptr, 10));
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      window = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      conn_sweep = true;
      counts = parse_counts(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      conn_sweep = true;
    } else if (std::strcmp(argv[i], "--mux") == 0) {
      run_perqp = false;
    } else if (std::strcmp(argv[i], "--per-qp") == 0) {
      run_mux = false;
    } else if (std::strncmp(argv[i], "--perqp-cap=", 12) == 0) {
      perqp_cap = static_cast<std::uint32_t>(std::strtoul(argv[i] + 12, nullptr, 10));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (conn_sweep) {
    return run_conn_sweep(std::move(counts), run_perqp, run_mux, perqp_cap, json_path);
  }
  if (window == 0) window = 1;
  if (window > 1) std::printf("request-ring window: %u\n", window);
  ycsb::RunOptions ropts;
  ropts.outstanding = window;

  const std::vector<std::pair<double, Distribution>> mixes = {
      {0.5, Distribution::kUniform},  {0.9, Distribution::kUniform},
      {1.0, Distribution::kUniform},  {0.5, Distribution::kZipfian},
      {0.9, Distribution::kZipfian},  {1.0, Distribution::kZipfian},
  };

  // ---------------- scale-out: 1..7 machines, 1 shard each -----------------
  std::map<std::string, std::vector<double>> out_tput;
  for (int nodes = 1; nodes <= 7; ++nodes) {
    for (const auto& [get_frac, dist] : mixes) {
      auto opts = bench::paper_cluster_options(/*shards=*/1);
      opts.server_nodes = nodes;
      opts.shards_per_node = 1;
      opts.client_nodes = 6;
      opts.clients_per_node = 10;
      opts.client_template.window = window;
      db::HydraCluster cluster(opts);
      const auto spec = bench::scaled_spec(get_frac, dist, 20'000, 24'000);
      const auto r = ycsb::run_workload(cluster, spec, ropts);
      out_tput[spec.name()].push_back(r.throughput_mops);
    }
  }

  std::printf("Figure 12(a,b): scale-out, normalized throughput vs server machines\n");
  std::printf("%-20s", "workload");
  for (int n = 1; n <= 7; ++n) std::printf("  n=%d  ", n);
  std::printf("\n");
  for (const auto& [workload, series] : out_tput) {
    std::printf("%-20s", workload.c_str());
    for (const double v : series) std::printf(" %5.2f ", v / series[0]);
    std::printf("\n");
  }

  // ---------------- scale-up: 1..8 shards on one machine --------------------
  std::map<std::string, std::vector<double>> up_tput;
  for (int shards = 1; shards <= 8; ++shards) {
    for (const auto& [get_frac, dist] : mixes) {
      auto opts = bench::paper_cluster_options(shards);
      opts.client_nodes = 6;
      opts.clients_per_node = 10;
      opts.client_template.window = window;
      db::HydraCluster cluster(opts);
      const auto spec = bench::scaled_spec(get_frac, dist, 20'000, 24'000);
      const auto r = ycsb::run_workload(cluster, spec, ropts);
      up_tput[spec.name()].push_back(r.throughput_mops);
    }
  }

  std::printf("\nFigure 12(c,d): scale-up, normalized throughput vs shard count\n");
  std::printf("%-20s", "workload");
  for (int s = 1; s <= 8; ++s) std::printf("  s=%d  ", s);
  std::printf("\n");
  for (const auto& [workload, series] : up_tput) {
    std::printf("%-20s", workload.c_str());
    for (const double v : series) std::printf(" %5.2f ", v / series[0]);
    std::printf("\n");
  }

  // ---- shape assertions -----------------------------------------------------
  auto norm = [](const std::vector<double>& s, int i) { return s[static_cast<std::size_t>(i)] / s[0]; };

  const auto& u50_out = out_tput.at("50%GET/uniform");
  const auto& u90_out = out_tput.at("90%GET/uniform");
  shape.expect(norm(u50_out, 6) > 4.0,
               "scale-out: Uniform 50/50 near-linear over 7 machines (paper: linear)");
  shape.expect(norm(u90_out, 6) > 4.0,
               "scale-out: Uniform 90/10 near-linear over 7 machines (paper: linear)");
  const auto& z50_out = out_tput.at("50%GET/zipfian");
  shape.expect(norm(z50_out, 6) < norm(u50_out, 6),
               "scale-out: Zipfian saturates below Uniform (skew resists rebalance)");

  const auto& u50_up = up_tput.at("50%GET/uniform");
  shape.expect(norm(u50_up, 4) > 3.0,
               "scale-up: Uniform 50/50 scales well to 5 shards (paper: linear to 5)");
  const double tail_growth = norm(u50_up, 7) / norm(u50_up, 4);
  shape.expect(tail_growth < 1.5,
               "scale-up: growth flattens beyond 5 shards (QP-count penalty, paper 6.3)");
  const auto& z90_up = up_tput.at("90%GET/zipfian");
  shape.expect(norm(z90_up, 7) < norm(u50_up, 7),
               "scale-up: skew limits Zipfian below Uniform");
  const auto& g100_up = up_tput.at("100%GET/zipfian");
  shape.expect(norm(g100_up, 7) < norm(u50_up, 7),
               "scale-up: 100% GET NIC-bound early (RDMA Reads saturate the device)");
  return shape.summarize("fig12_scalability");
}
