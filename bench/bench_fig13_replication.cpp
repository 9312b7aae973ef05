// Figure 13: latency cost of replication -- strict request/acknowledge
// versus RDMA logging replication with relaxed acknowledgements.
//
// Paper shape: strict req/ack consistently ~doubles the no-replication
// INSERT latency; RDMA logging adds only ~12.3% for one replica and ~41.1%
// for two, across client counts.
//
//   bench_fig13_replication [--json=BENCH_fig13.json]
//
// --json writes every configuration's INSERT latency per client count and
// each paper-shape check as a named boolean (hydradb-obs-v1).
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hydra;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  bench::ShapeChecker shape;

  struct Config {
    const char* label;
    int replicas;
    replication::ReplicationMode mode;
  };
  const Config configs[] = {
      {"no-replication", 0, replication::ReplicationMode::kNone},
      {"strict-1-replica", 1, replication::ReplicationMode::kStrictAck},
      {"strict-2-replicas", 2, replication::ReplicationMode::kStrictAck},
      {"rdmalog-1-replica", 1, replication::ReplicationMode::kLogRelaxed},
      {"rdmalog-2-replicas", 2, replication::ReplicationMode::kLogRelaxed},
  };
  const std::vector<int> client_counts = {1, 8, 16, 32};

  // avg INSERT latency (us): config -> per client count
  std::map<std::string, std::vector<double>> latency;
  std::map<std::string, std::vector<obs::LatencySummary>> summaries;

  for (const auto& cfg : configs) {
    for (const int clients : client_counts) {
      db::ClusterOptions opts;
      // A single shard instance, as in the paper's experiment; its
      // secondaries land on the otherwise idle server machines.
      opts.server_nodes = 1 + std::max(cfg.replicas, 1);
      opts.shards_per_node = 1;
      opts.total_shards = 1;
      opts.client_nodes = 4;
      opts.clients_per_node = (clients + 3) / 4;
      opts.enable_swat = false;
      opts.replicas = cfg.replicas;
      opts.replication.mode = cfg.mode;
      db::HydraCluster cluster(opts);

      // Only one primary shard exists (shard 0 on node 0); route all
      // inserts there by using each client's own unique key space.
      auto& all = cluster.clients();
      const int usable = std::min<int>(clients, static_cast<int>(all.size()));
      int remaining = usable;
      constexpr int kInsertsPerClient = 400;
      for (int c = 0; c < usable; ++c) {
        auto* cl = all[static_cast<std::size_t>(c)];
        auto counter = std::make_shared<int>(0);
        auto issue = std::make_shared<std::function<void()>>();
        *issue = [&cluster, cl, c, counter, issue, &remaining] {
          if (*counter == kInsertsPerClient) {
            --remaining;
            return;
          }
          const std::uint64_t i = static_cast<std::uint64_t>(c) * 1'000'000 +
                                  static_cast<std::uint64_t>((*counter)++);
          cl->insert(format_key(i), synth_value(i), [issue](Status) { (*issue)(); });
        };
        (*issue)();
      }
      while (remaining > 0 && cluster.scheduler().step()) {
      }

      LatencyHistogram hist;
      for (int c = 0; c < usable; ++c) {
        hist.merge(all[static_cast<std::size_t>(c)]->stats().put_latency);
      }
      latency[cfg.label].push_back(hist.mean() / 1000.0);
      summaries[cfg.label].push_back(obs::summarize(hist));
    }
  }

  std::printf("Figure 13: average INSERT latency (us) vs number of clients\n");
  std::printf("%-20s", "replication");
  for (const int c : client_counts) std::printf(" %8dcl", c);
  std::printf("\n");
  for (const auto& cfg : configs) {
    std::printf("%-20s", cfg.label);
    for (const double us : latency[cfg.label]) std::printf(" %10.2f", us);
    std::printf("\n");
  }

  // ---- shape assertions -----------------------------------------------------
  for (std::size_t i = 0; i < client_counts.size(); ++i) {
    const double base = latency["no-replication"][i];
    const double strict1 = latency["strict-1-replica"][i];
    const double log1 = latency["rdmalog-1-replica"][i];
    const double log2 = latency["rdmalog-2-replicas"][i];
    const std::string tag = std::to_string(client_counts[i]) + " clients";
    const std::string key = "clients_" + std::to_string(client_counts[i]) + ".";
    shape.expect(strict1 > 1.6 * base,
                 tag + ": strict req/ack roughly doubles latency (paper: ~2x)",
                 key + "strict_doubles");
    shape.expect(log1 < 1.35 * base,
                 tag + ": RDMA logging adds little for one replica (paper: +12.3%)",
                 key + "rdmalog_1_cheap");
    shape.expect(log2 < 1.75 * base,
                 tag + ": two replicas still cheap under RDMA logging (paper: +41.1%)",
                 key + "rdmalog_2_cheap");
    shape.expect(log1 < strict1, tag + ": relaxed beats strict", key + "relaxed_beats_strict");
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fig13_replication\",\n"
                 "  \"schema\": \"hydradb-obs-v1\",\n"
                 "  \"workload\": \"INSERT-only, 400 inserts per closed-loop client, one "
                 "primary shard\",\n"
                 "  \"configs\": [\n");
    for (std::size_t c = 0; c < std::size(configs); ++c) {
      const Config& cfg = configs[c];
      std::fprintf(f, "    {\"replication\": \"%s\", \"replicas\": %d, \"points\": [\n",
                   cfg.label, cfg.replicas);
      const auto& pts = summaries[cfg.label];
      for (std::size_t i = 0; i < pts.size(); ++i) {
        std::fprintf(f, "      {\"clients\": %d, \"insert_latency\": %s}%s\n", client_counts[i],
                     bench::latency_json(pts[i]).c_str(), i + 1 < pts.size() ? "," : "");
      }
      std::fprintf(f, "    ]}%s\n", c + 1 < std::size(configs) ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"paper_shape\": %s\n}\n", shape.json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return shape.summarize("fig13_replication");
}
