// Figure 10 (and section 6.2.1): incremental evaluation of the RDMA design
// choices over the six YCSB workloads.
//
//   Send/Recv            -- two-sided verbs baseline
//   RDMA Write Only      -- one-sided message passing, no pointer caching
//   RDMA Write + Read    -- plus client-side remote pointer caching
//   Pipeline + RDMA Write -- decoupled dispatcher/worker shard (4x cores)
//
// Paper shape: Write beats Send/Recv by 75-163%; +Read adds 10-30% on
// Zipfian read-heavy mixes but little on Uniform; the single-threaded shard
// beats the pipelined one by 27-95% despite using a quarter of the cores.
//
//   bench_fig10_design [--json=BENCH_fig10.json]
//
// --json writes every workload's throughput per design (Mops, full
// precision) and each paper-shape check as a named boolean (hydradb-obs-v1).
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hydra;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  bench::ShapeChecker shape;

  struct Design {
    const char* label;
    server::ServerMode mode;
    bool rdma_read;
  };
  const Design designs[] = {
      {"Send/Recv", server::ServerMode::kSendRecv, false},
      {"RDMA Write Only", server::ServerMode::kRdmaWritePolling, false},
      {"RDMA Write + Read", server::ServerMode::kRdmaWritePolling, true},
      // 2 dispatchers + 2 workers per shard.
      {"Pipeline + RDMA Write", server::ServerMode::kPipelined, false},
  };

  std::map<std::string, std::map<std::string, double>> mops;  // workload -> design
  const auto workloads = ycsb::paper_workloads(20'000, 40'000);
  for (const auto& spec : workloads) {
    for (const auto& design : designs) {
      auto opts = bench::paper_cluster_options();
      opts.server_mode = design.mode;
      opts.client_rdma_read = design.rdma_read;
      db::HydraCluster cluster(opts);
      ycsb::RunOptions ropts;
      ropts.warmup_ops_per_client = 150;  // fill the pointer cache (paper: warm runs)
      const auto r = ycsb::run_workload(cluster, spec, ropts);
      mops[spec.name()][design.label] = r.throughput_mops;
    }
  }

  std::printf("Figure 10: throughput (Mops) per design, six YCSB workloads\n");
  std::printf("%-20s", "workload");
  for (const auto& d : designs) std::printf(" %22s", d.label);
  std::printf("\n");
  for (const auto& [workload, per_design] : mops) {
    std::printf("%-20s", workload.c_str());
    for (const auto& d : designs) std::printf(" %22.3f", per_design.at(d.label));
    std::printf("\n");
  }

  // ---- shape assertions --------------------------------------------------
  for (const auto& [workload, d] : mops) {
    shape.expect(d.at("RDMA Write Only") > 1.3 * d.at("Send/Recv"),
                 workload + ": RDMA-Write messaging well above Send/Recv (paper: +75-163%)",
                 workload + ".write_beats_send_recv");
    shape.expect(d.at("RDMA Write Only") > 1.2 * d.at("Pipeline + RDMA Write"),
                 workload + ": single-threaded beats pipelined with 4x cores (paper: +27-95%)",
                 workload + ".single_beats_pipelined");
  }
  const auto& z100 = mops.at("100%GET/zipfian");
  const auto& z50 = mops.at("50%GET/zipfian");
  const auto& u100 = mops.at("100%GET/uniform");
  shape.expect(z100.at("RDMA Write + Read") > 1.05 * z100.at("RDMA Write Only"),
               "pointer caching helps Zipfian 100% GET (paper: +29.9%)",
               "read_helps_zipfian_get");
  const double zipf_read_gain =
      z100.at("RDMA Write + Read") / z100.at("RDMA Write Only");
  const double zipf50_read_gain =
      z50.at("RDMA Write + Read") / z50.at("RDMA Write Only");
  shape.expect(zipf_read_gain > zipf50_read_gain,
               "read benefit shrinks as updates grow (invalidation, paper 6.2)",
               "read_gain_shrinks_with_updates");
  const double unif_read_gain =
      u100.at("RDMA Write + Read") / u100.at("RDMA Write Only");
  shape.expect(zipf_read_gain > unif_read_gain,
               "Zipfian benefits more than Uniform from cached pointers",
               "zipfian_gains_more_than_uniform");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fig10_design\",\n"
                 "  \"schema\": \"hydradb-obs-v1\",\n"
                 "  \"workload\": \"six YCSB mixes, 20000 records, 40000 ops, 50 closed-loop "
                 "clients, 4 shards; throughput in Mops\",\n"
                 "  \"workloads\": [\n");
    std::size_t w = 0;
    for (const auto& [workload, per_design] : mops) {
      std::fprintf(f, "    {\"workload\": \"%s\", \"mops\": {", workload.c_str());
      for (std::size_t i = 0; i < std::size(designs); ++i) {
        std::fprintf(f, "%s\"%s\": %.17g", i > 0 ? ", " : "", designs[i].label,
                     per_design.at(designs[i].label));
      }
      std::fprintf(f, "}}%s\n", ++w < mops.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"paper_shape\": %s\n}\n", shape.json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return shape.summarize("fig10_design");
}
