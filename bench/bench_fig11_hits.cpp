// Figure 11: remote-pointer hit analysis (50 clients).
//
// Paper shape: for Zipfian workloads, successful remote-pointer hits fall
// ~75% as the update ratio rises from 0% to 50% while invalid hits explode;
// Uniform workloads get far fewer hits to begin with.
//
//   bench_fig11_hits [--json=BENCH_fig11.json]
//
// --json writes every workload's valid-hit, invalid-hit and miss counts and
// each paper-shape check as a named boolean (hydradb-obs-v1).
#include <cstdio>
#include <cstring>
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

  struct Hits {
    std::uint64_t valid = 0, invalid = 0, miss = 0;
  };
  std::map<std::string, Hits> rows;

  for (const auto& spec : ycsb::paper_workloads(20'000, 40'000)) {
    db::HydraCluster cluster(bench::paper_cluster_options());
    ycsb::RunOptions ropts;
    ropts.warmup_ops_per_client = 150;  // fill the pointer cache (paper: warm runs)
    const auto r = ycsb::run_workload(cluster, spec, ropts);
    rows[spec.name()] = Hits{r.ptr_hits, r.invalid_hits, r.ptr_misses};
  }

  std::printf("Figure 11: remote pointer hit analysis (50 clients)\n");
  std::printf("%-20s %14s %14s %14s\n", "workload", "valid_hits", "invalid_hits", "misses");
  for (const auto& [workload, h] : rows) {
    std::printf("%-20s %14llu %14llu %14llu\n", workload.c_str(),
                static_cast<unsigned long long>(h.valid),
                static_cast<unsigned long long>(h.invalid),
                static_cast<unsigned long long>(h.miss));
  }

  const Hits& z100 = rows.at("100%GET/zipfian");
  const Hits& z90 = rows.at("90%GET/zipfian");
  const Hits& z50 = rows.at("50%GET/zipfian");
  const Hits& u100 = rows.at("100%GET/uniform");
  shape.expect(z50.valid * 2 < z100.valid,
               "Zipfian valid hits collapse as updates reach 50% (paper: -75.5%)",
               "zipfian_valid_hits_collapse_with_updates");
  shape.expect(z50.invalid > 10 * std::max<std::uint64_t>(z100.invalid, 1),
               "Zipfian invalid hits explode with updates (paper: ~7 million-fold)",
               "zipfian_invalid_hits_explode_with_updates");
  shape.expect(z90.valid > z50.valid, "hits decrease monotonically with update ratio",
               "hits_fall_with_update_ratio");
  shape.expect(z100.valid > 3 * std::max<std::uint64_t>(u100.valid, 1),
               "Uniform reuses cached pointers far less than Zipfian",
               "uniform_reuses_far_less_than_zipfian");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fig11_hits\",\n"
                 "  \"schema\": \"hydradb-obs-v1\",\n"
                 "  \"workload\": \"six YCSB mixes, 20000 records, 40000 ops, 50 closed-loop "
                 "clients, 4 shards; remote-pointer lookups per outcome\",\n"
                 "  \"workloads\": [\n");
    std::size_t w = 0;
    for (const auto& [workload, h] : rows) {
      std::fprintf(f,
                   "    {\"workload\": \"%s\", \"valid_hits\": %llu, \"invalid_hits\": %llu, "
                   "\"misses\": %llu}%s\n",
                   workload.c_str(), static_cast<unsigned long long>(h.valid),
                   static_cast<unsigned long long>(h.invalid),
                   static_cast<unsigned long long>(h.miss), ++w < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"paper_shape\": %s\n}\n", shape.json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return shape.summarize("fig11_hits");
}
