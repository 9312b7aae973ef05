// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "hydradb/hydra_cluster.hpp"
#include "obs/metrics.hpp"
#include "ycsb/runner.hpp"

namespace hydra::bench {

/// Collects qualitative assertions ("who wins, by roughly what factor") and
/// prints a PAPER-SHAPE summary the harness scripts can grep. A check given
/// a `name` also appears in json() as a named boolean.
class ShapeChecker {
 public:
  void expect(bool condition, const std::string& claim, std::string name = {}) {
    checks_.push_back(Check{condition, claim, std::move(name)});
    if (!condition) ok_ = false;
  }

  int summarize(const char* bench_name) const {
    std::printf("\n");
    for (const Check& c : checks_) {
      std::printf("  [%s] %s\n", c.ok ? "ok" : "MISMATCH", c.claim.c_str());
    }
    std::printf("PAPER-SHAPE %s: %s (%zu/%zu checks)\n", bench_name,
                ok_ ? "REPRODUCED" : "DIVERGED", passed(), checks_.size());
    return ok_ ? 0 : 1;
  }

  /// {"reproduced": .., "passed": .., "total": .., "checks": {name: ok, ..}}
  /// over the named checks, in the order they were made.
  [[nodiscard]] std::string json() const {
    std::string out = std::string("{\"reproduced\": ") + (ok_ ? "true" : "false") +
                      ", \"passed\": " + std::to_string(passed()) +
                      ", \"total\": " + std::to_string(checks_.size()) + ", \"checks\": {";
    bool first = true;
    for (const Check& c : checks_) {
      if (c.name.empty()) continue;
      out += (first ? "\"" : ", \"") + c.name + "\": " + (c.ok ? "true" : "false");
      first = false;
    }
    return out + "}}";
  }

 private:
  struct Check {
    bool ok = false;
    std::string claim;
    std::string name;
  };
  [[nodiscard]] std::size_t passed() const {
    std::size_t n = 0;
    for (const Check& c : checks_) n += c.ok;
    return n;
  }
  std::vector<Check> checks_;
  bool ok_ = true;
};

/// The paper's default testbed: one server machine with `shards` shard
/// instances, 50 clients on 5 machines.
inline db::ClusterOptions paper_cluster_options(int shards = 4) {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = shards;
  opts.client_nodes = 5;
  opts.clients_per_node = 10;
  opts.enable_swat = false;  // HA idle during throughput measurements
  opts.shard_template.store.arena_bytes = 128ull << 20;
  opts.shard_template.store.min_buckets = 1 << 15;
  return opts;
}

/// Scaled-down trace sizes (documented in EXPERIMENTS.md): the paper uses
/// 60M records / 60M requests; shapes are stable from ~10^4 per point.
inline ycsb::WorkloadSpec scaled_spec(double get_fraction, Distribution dist,
                                      std::uint64_t records = 20'000,
                                      std::uint64_t operations = 40'000) {
  ycsb::WorkloadSpec spec;
  spec.get_fraction = get_fraction;
  spec.distribution = dist;
  spec.record_count = records;
  spec.operations = operations;
  return spec;
}

inline const char* fmt_mops(double mops) {
  static thread_local char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", mops);
  return buf;
}

/// The one latency-summary JSON object every bench emits. Percentiles come
/// from obs::summarize, so benches share the registry's percentile math
/// instead of each re-deriving it from raw histograms.
inline std::string latency_json(const obs::LatencySummary& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"count\": %llu, \"mean_ns\": %.1f, \"min_ns\": %llu, "
                "\"max_ns\": %llu, \"p50_ns\": %llu, \"p90_ns\": %llu, "
                "\"p99_ns\": %llu, \"p999_ns\": %llu}",
                static_cast<unsigned long long>(s.count), s.mean_ns,
                static_cast<unsigned long long>(s.min_ns),
                static_cast<unsigned long long>(s.max_ns),
                static_cast<unsigned long long>(s.p50_ns),
                static_cast<unsigned long long>(s.p90_ns),
                static_cast<unsigned long long>(s.p99_ns),
                static_cast<unsigned long long>(s.p999_ns));
  return buf;
}

}  // namespace hydra::bench
