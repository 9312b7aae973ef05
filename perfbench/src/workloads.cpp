// The four benchmark workloads. Each one puts most of its work on a
// different set of layers (see perfbench/README.md for the map).
#include <cstdio>

#include "perfbench.hpp"

namespace perfbench {

using namespace hydra;

namespace {

db::ClusterOptions base_options(int clients_per_node) {
  db::ClusterOptions o;
  o.server_nodes = 3;
  o.shards_per_node = 1;
  o.client_nodes = 5;
  o.clients_per_node = clients_per_node;
  o.enable_swat = false;  // HA idle unless the workload exercises it
  return o;
}

/// Smaller stores and response rings for the workloads whose subject is not
/// memory: the clients only ever talk to the 3 shards, and the default of
/// 128 pre-zeroed response blocks per client would dominate their set-up.
/// read_hot keeps the defaults, so peak_rss_mb and setup_s show that cost.
void trim_memory(db::ClusterOptions& o) {
  o.shard_template.store.arena_bytes = 32ull << 20;
  o.shard_template.store.min_buckets = 1 << 14;
  o.client_template.max_shard_connections = 8;
}

Workload read_hot() {
  Workload w;
  w.name = "read_hot";
  w.get_frac = 0.95;
  w.dist = Distribution::kZipfian;
  w.records = 50'000;  // fits the 64k-entry per-node pointer cache
  w.warmup = 5 * kMillisecond;
  w.window = 200 * kMillisecond;
  auto& o = w.cluster = base_options(10);
  o.replicas = 2;
  o.client_rdma_read = true;
  o.shard_template.grant_remote_pointers = true;
  // The hot-key plane (shard_template.hotkey_top_k > 0) stays off: with it
  // on, one-sided GETs of the hottest keys return values that an acked
  // write had already replaced, which the driver rejects as wrong answers.
  return w;
}

Workload write_mux() {
  Workload w;
  w.name = "write_mux";
  w.open_loop = true;
  w.offered_mops = 2.1;  // about two-thirds of the ~3.2 Mops saturation point
  w.get_frac = 0.5;
  w.dist = Distribution::kUniform;
  w.records = 1'000'000;  // ~15x the pointer cache
  w.warmup = 1 * kMillisecond;
  w.window = 300 * kMillisecond;
  auto& o = w.cluster = base_options(200);
  o.replicas = 2;
  o.mux_connections = true;
  o.shard_template.store.arena_bytes = 64ull << 20;
  o.shard_template.store.min_buckets = 1 << 19;
  // Replaced items are freed only once their pointer leases expire; with
  // the default 1-64 s leases the arenas fill within a second of updates.
  o.shard_template.store.min_lease = 10 * kMillisecond;
  o.shard_template.store.max_lease = 50 * kMillisecond;
  // 1,000 clients: small response slots keep the rings in memory.
  o.client_template.resp_slot_bytes = 512;
  o.client_template.max_shard_connections = 4;
  return w;
}

Workload scan_e() {
  Workload w;
  w.name = "scan_e";
  w.scan_frac = 0.95;
  w.dist = Distribution::kZipfian;
  w.records = 50'000;
  w.max_scan_len = 64;
  w.warmup = 2 * kMillisecond;
  w.window = 480 * kMillisecond;
  auto& o = w.cluster = base_options(10);
  trim_memory(o);
  o.ordered_index = true;
  o.client_template.scan_leaf_reads = true;
  o.client_template.scan_batch = 8;
  return w;
}

Workload failover() {
  Workload w;
  w.name = "failover";
  w.get_frac = 0.2;
  w.dist = Distribution::kUniform;
  w.records = 50'000;
  w.warmup = 2 * kMillisecond;
  w.window = 400 * kMillisecond;
  w.crash_first = 1 * kMillisecond;
  // Many crashes per run, so the metrics average over the primary
  // placements that successive promotions leave behind.
  w.crash_period = 20 * kMillisecond;
  auto& o = w.cluster = base_options(10);
  trim_memory(o);
  // Crashed primaries stay allocated (in-flight ops may still name their
  // memory) and each promotion spawns a fresh secondary: keep shards small,
  // and free replaced items soon after their short leases end.
  o.shard_template.max_connections = 64;
  o.shard_template.store.arena_bytes = 8ull << 20;
  o.shard_template.store.min_lease = 5 * kMillisecond;
  o.shard_template.store.max_lease = 20 * kMillisecond;
  o.shard_template.gc_min_interval = 20 * kMillisecond;
  o.replicas = 2;
  o.enable_swat = true;
  o.fast_failover = true;
  return w;
}

}  // namespace

bool make_workload(std::string_view name, Workload* out) {
  if (name == "read_hot") {
    *out = read_hot();
  } else if (name == "write_mux") {
    *out = write_mux();
  } else if (name == "scan_e") {
    *out = scan_e();
  } else if (name == "failover") {
    *out = failover();
  } else {
    return false;
  }
  return true;
}

// "r<record:10>w<writer:5>s<seq:10>", padded to the paper's 32-byte values.
std::string encode_value(std::uint64_t record, std::uint32_t writer, std::uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "r%010lluw%05us%010llu....",
                static_cast<unsigned long long>(record), writer,
                static_cast<unsigned long long>(seq));
  return std::string(buf, 32);
}

namespace {
bool parse_digits(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}
}  // namespace

bool decode_value(std::string_view v, DecodedValue* out) {
  if (v.size() != 32 || v[0] != 'r' || v[11] != 'w' || v[17] != 's') return false;
  std::uint64_t writer = 0;
  if (!parse_digits(v.substr(1, 10), &out->record) || !parse_digits(v.substr(12, 5), &writer) ||
      !parse_digits(v.substr(18, 10), &out->seq)) {
    return false;
  }
  out->writer = static_cast<std::uint32_t>(writer);
  return true;
}

std::unique_ptr<db::HydraCluster> build_cluster(const Workload& w, obs::Plane* plane) {
  db::ClusterOptions opts = w.cluster;
  opts.obs = plane;
  auto cluster = std::make_unique<db::HydraCluster>(opts);
  for (std::uint64_t r = 0; r < w.records; ++r) {
    cluster->direct_load(format_key(r), encode_value(r, kPreloadWriter, 0));
  }
  return cluster;
}

}  // namespace perfbench
