// Microbenchmarks in two parts:
//
//  1. google-benchmark real-time measurements of the hot-path primitives:
//     hashing, key generation, framing, the compact hash table, the arena,
//     the replicated preload, the event scheduler and the lock-free pointer
//     cache.
//  2. A simulated closed-loop message-path GET run per request-ring window
//     (`--window 1,2,4,8`), demonstrating the pipelining win of multi-slot
//     request rings. Results (ops/s, p50/p99 GET latency per config) land in
//     BENCH_micro.json (override with `--json PATH`).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/keygen.hpp"
#include "core/arena.hpp"
#include "core/hash_table.hpp"
#include "core/lockfree_cache.hpp"
#include "core/store.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/metrics.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "sim/scheduler.hpp"
#include "ycsb/runner.hpp"

namespace {

using namespace hydra;

void BM_HashKey(benchmark::State& state) {
  const std::string key = format_key(123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_key(key));
  }
}
BENCHMARK(BM_HashKey);

void BM_FormatKey(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(format_key(i++));
  }
}
BENCHMARK(BM_FormatKey);

void BM_ZipfianNext(benchmark::State& state) {
  ScrambledZipfianChooser chooser(static_cast<std::uint64_t>(state.range(0)));
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chooser.next(rng));
  }
}
BENCHMARK(BM_ZipfianNext)->Arg(1000)->Arg(1000000);

void BM_FrameEncodePoll(benchmark::State& state) {
  std::vector<std::byte> buf(4096);
  std::vector<std::byte> payload(static_cast<std::size_t>(state.range(0)), std::byte{7});
  for (auto _ : state) {
    proto::encode_frame(buf, payload);
    benchmark::DoNotOptimize(proto::poll_frame(buf));
    proto::clear_frame(buf);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameEncodePoll)->Arg(64)->Arg(1024);

void BM_RequestCodec(benchmark::State& state) {
  proto::Request req;
  req.type = proto::MsgType::kPut;
  req.key = format_key(42);
  req.value = synth_value(42, 32);
  for (auto _ : state) {
    auto bytes = proto::encode_request(req);
    benchmark::DoNotOptimize(proto::decode_request(bytes));
  }
}
BENCHMARK(BM_RequestCodec);

void BM_CompactTableFind(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  core::Arena arena(256 << 20);
  core::CompactHashTable table(arena, n / 4);  // force some overflow chains
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < n; ++i) {
    keys.push_back(format_key(i));
    const std::size_t size = core::item_size(16, 32);
    const std::uint64_t off = arena.allocate(size);
    core::ItemView(arena.at(off)).initialize(keys.back(), synth_value(i), 1, 0);
    table.insert(hash_key(keys.back()), keys.back(), off);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string& key = keys[i++ % n];
    benchmark::DoNotOptimize(table.find(hash_key(key), key));
  }
}
BENCHMARK(BM_CompactTableFind)->Arg(1000)->Arg(100000);

void BM_ArenaAllocFree(benchmark::State& state) {
  core::Arena arena(64 << 20);
  for (auto _ : state) {
    const std::uint64_t off = arena.allocate(88);
    benchmark::DoNotOptimize(off);
    arena.deallocate(off, 88);
  }
}
BENCHMARK(BM_ArenaAllocFree);

void BM_StorePutGet(benchmark::State& state) {
  core::KVStore store;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = format_key(i % 10000);
    store.put(key, synth_value(i, 32), i * 100);
    benchmark::DoNotOptimize(store.get(key, i * 100));
    ++i;
    if (i % 4096 == 0) store.collect_garbage(i * 100 + 100 * kSecond);
  }
}
BENCHMARK(BM_StorePutGet);

// Bulk load of fresh keys, the set-up phase of every benchmark: each op
// stores a key the store has not seen. Arg 0 loads through put (an upsert
// that probes once, then inserts), arg 1 through insert.
void BM_StoreLoadFresh(benchmark::State& state) {
  constexpr std::uint64_t kKeys = 100000;
  const bool via_insert = state.range(0) != 0;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) keys.push_back(format_key(i));
  const std::string value = synth_value(0, 32);
  auto store = std::make_unique<core::KVStore>();
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (i == kKeys) {
      state.PauseTiming();
      store = std::make_unique<core::KVStore>();
      i = 0;
      state.ResumeTiming();
    }
    const std::string& key = keys[i++];
    benchmark::DoNotOptimize(via_insert ? store->insert(key, value, 0) : store->put(key, value, 0));
  }
  state.SetLabel(via_insert ? "insert" : "put");
}
BENCHMARK(BM_StoreLoadFresh)->Arg(0)->Arg(1);

// The replicated preload: each op stores a fresh record in its owner and
// both secondaries of a 3-shard cluster (2^19 buckets per store, as in the
// write_mux benchmark), so every op takes three random bucket misses.
void BM_DirectLoad(benchmark::State& state) {
  constexpr std::uint64_t kKeys = 100000;
  db::ClusterOptions opts;
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.enable_swat = false;
  opts.replicas = 2;
  opts.shard_template.store.min_buckets = 1 << 19;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) keys.push_back(format_key(i));
  const std::string value = synth_value(0, 32);
  std::unique_ptr<db::HydraCluster> cluster;
  std::uint64_t i = kKeys;
  for (auto _ : state) {
    if (i == kKeys) {
      state.PauseTiming();
      cluster.reset();
      cluster = std::make_unique<db::HydraCluster>(opts);
      i = 0;
      state.ResumeTiming();
    }
    cluster->direct_load(keys[i++], value);
  }
}
BENCHMARK(BM_DirectLoad);

// One schedule + fire with `range(0)` events pending (the heap's depth).
// With `range(1)` set, each callback captures 56 bytes, past
// std::function's 16-byte inline buffer, so each schedule also allocates.
void BM_SchedulerScheduleFire(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const bool large = state.range(1) != 0;
  sim::Scheduler sched;
  Xoshiro256 rng(1);
  std::uint64_t fired = 0;
  std::array<std::uint64_t, 6> payload{};
  const auto schedule = [&] {
    const Duration delay = 1 + rng.below(1000);
    if (large) {
      sched.after(delay, [&fired, payload] { fired += payload[0] + 1; });
    } else {
      sched.after(delay, [&fired] { ++fired; });
    }
  };
  for (std::size_t k = 0; k < depth; ++k) schedule();
  for (auto _ : state) {
    schedule();
    sched.step();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_SchedulerScheduleFire)->Args({1, 0})->Args({1024, 0})->Args({1024, 1});

void BM_LockFreeCacheGet(benchmark::State& state) {
  core::LockFreeCache<proto::RemotePtr> cache(64 * 1024);
  for (std::uint64_t k = 1; k <= 10000; ++k) {
    proto::RemotePtr ptr;
    ptr.offset = k;
    ptr.total_len = 88;
    cache.put(k, ptr);
  }
  std::uint64_t k = 1;
  proto::RemotePtr out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(1 + (k++ % 10000), &out));
  }
}
BENCHMARK(BM_LockFreeCacheGet);

void BM_GuardianValidate(benchmark::State& state) {
  std::vector<std::byte> buf(core::item_size(16, 32));
  const std::string key = format_key(7);
  core::ItemView(buf.data()).initialize(key, synth_value(7, 32), 1, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::validate_item(buf.data(), buf.size(), key));
  }
}
BENCHMARK(BM_GuardianValidate);

// ------------------------------------------------------------------ windows

struct WindowResult {
  std::uint32_t window = 0;
  std::uint64_t operations = 0;
  double ops_per_sec = 0.0;
  obs::LatencySummary get;  // shared percentile math (obs::summarize)
  std::uint32_t max_in_flight = 0;
  std::uint64_t batched_responses = 0;
};

/// Message-path GET throughput (virtual time) at one ring-window depth:
/// 1 shard, 2 clients each keeping `window` requests outstanding, remote
/// pointers off so every GET crosses the shard core.
WindowResult run_window_config(std::uint32_t window) {
  db::ClusterOptions opts;
  opts.server_nodes = 1;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 2;
  opts.enable_swat = false;
  opts.client_rdma_read = false;  // force the RDMA-Write message path
  opts.client_template.window = window;
  opts.shard_template.store.arena_bytes = 32ull << 20;
  db::HydraCluster cluster(opts);

  ycsb::WorkloadSpec spec;
  spec.get_fraction = 1.0;
  spec.distribution = Distribution::kUniform;
  spec.record_count = 16'000;
  spec.operations = 40'000;

  ycsb::RunOptions ropts;
  ropts.outstanding = window;
  const auto r = ycsb::run_workload(cluster, spec, ropts);

  LatencyHistogram gets;
  WindowResult w;
  w.window = window;
  for (const auto* c : cluster.clients()) {
    gets.merge(c->stats().get_latency);
    w.max_in_flight = std::max(w.max_in_flight, c->stats().max_in_flight);
  }
  w.operations = r.operations;
  w.ops_per_sec = r.throughput_mops * 1e6;
  w.get = obs::summarize(gets);
  w.batched_responses = cluster.shard(0)->stats().batched_responses;
  return w;
}

void write_json(const std::string& path, const std::vector<WindowResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro\",\n  \"message_path_get\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& w = results[i];
    std::fprintf(f,
                 "    {\"window\": %u, \"operations\": %llu, \"ops_per_sec\": %.1f, "
                 "\"get_latency\": %s, "
                 "\"max_in_flight\": %u, \"batched_responses\": %llu}%s\n",
                 w.window, static_cast<unsigned long long>(w.operations), w.ops_per_sec,
                 hydra::bench::latency_json(w.get).c_str(), w.max_in_flight,
                 static_cast<unsigned long long>(w.batched_responses),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

std::vector<std::uint32_t> parse_windows(const std::string& arg) {
  std::vector<std::uint32_t> windows;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok = arg.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const long v = std::strtol(tok.c_str(), nullptr, 10);
    if (v > 0) windows.push_back(static_cast<std::uint32_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return windows;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> windows = {1, 2, 4, 8};
  std::string json_path = "BENCH_micro.json";
  bool primitives = true;

  // Strip our flags; everything else goes to google-benchmark.
  std::vector<char*> bench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* name) -> std::string {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (arg == name && i + 1 < argc) return argv[++i];
      return {};
    };
    if (arg.rfind("--window", 0) == 0) {
      windows = parse_windows(value_of("--window"));
    } else if (arg.rfind("--json", 0) == 0) {
      json_path = value_of("--json");
    } else if (arg == "--no-primitives") {
      primitives = false;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (windows.empty()) windows = {1, 8};

  if (primitives) {
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  std::printf("\nmessage-path GET throughput vs request-ring window "
              "(1 shard, 2 clients, virtual time)\n");
  std::printf("%-8s %12s %12s %10s %10s %8s %10s\n", "window", "ops/s", "mean ns",
              "p50 ns", "p99 ns", "inflight", "batched");
  std::vector<WindowResult> results;
  for (const std::uint32_t w : windows) {
    results.push_back(run_window_config(w));
    const auto& r = results.back();
    std::printf("%-8u %12.0f %12.1f %10llu %10llu %8u %10llu\n", r.window, r.ops_per_sec,
                r.get.mean_ns, static_cast<unsigned long long>(r.get.p50_ns),
                static_cast<unsigned long long>(r.get.p99_ns), r.max_in_flight,
                static_cast<unsigned long long>(r.batched_responses));
  }
  if (results.size() > 1) {
    std::printf("speedup window=%u vs window=%u: %.2fx\n", results.back().window,
                results.front().window,
                results.back().ops_per_sec / results.front().ops_per_sec);
  }
  write_json(json_path, results);
  return 0;
}
