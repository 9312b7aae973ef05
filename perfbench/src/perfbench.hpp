// HydraDB benchmark driver: the workloads, the op driver with its
// correctness model, the per-layer counters and the metric printer.
//
// Everything runs on one thread. Simulated clients are HydraDB client
// actors inside one sim::Scheduler; the driver only feeds them generated
// ops through the public client API and checks what comes back.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/keygen.hpp"
#include "common/rng.hpp"
#include "hydradb/hydra_cluster.hpp"

namespace perfbench {

using hydra::Duration;
using hydra::Time;

enum class OpType : std::uint8_t { kGet, kUpdate, kScan };

// ---- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  /// Open loop: Poisson arrivals at `offered_mops` (ops per virtual µs),
  /// each sent through a uniformly chosen client and timed from its due
  /// instant. Closed loop: every client keeps exactly one op in flight.
  bool open_loop = false;
  double offered_mops = 0.0;
  double get_frac = 0.0;   ///< share of GETs
  double scan_frac = 0.0;  ///< share of SCANs; the rest are UPDATEs
  hydra::Distribution dist = hydra::Distribution::kZipfian;
  std::uint64_t records = 0;
  std::uint32_t max_scan_len = 1;  ///< scan lengths uniform in [1, max]
  Duration warmup = 0;
  /// Virtual length of the window the virtual-time metrics cover. Fixed, so
  /// they depend only on the seed and the code, never on how fast the
  /// machine simulates; sized to take at most ~11 s of wall time.
  Duration window = 0;
  /// Primary crashes (rotating over shards) at measured-start + first,
  /// then every period until the window ends. 0 = no crashes. After a run
  /// with crashes every written key is read back: acked writes must survive.
  Duration crash_first = 0;
  Duration crash_period = 0;
  hydra::db::ClusterOptions cluster;
};

/// The named workload, or false when `name` is unknown.
bool make_workload(std::string_view name, Workload* out);

/// Value payload encoding record, writer and per-writer sequence number, so
/// every answer can be traced back to the write that produced it.
inline constexpr std::uint32_t kPreloadWriter = 99999;
std::string encode_value(std::uint64_t record, std::uint32_t writer, std::uint64_t seq);
struct DecodedValue {
  std::uint64_t record = 0;
  std::uint32_t writer = 0;
  std::uint64_t seq = 0;
};
bool decode_value(std::string_view v, DecodedValue* out);

/// Builds the cluster and loads every record (the set-up that setup_s times).
std::unique_ptr<hydra::db::HydraCluster> build_cluster(const Workload& w,
                                                       hydra::obs::Plane* plane);

inline double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans -------------------------------------------------------------------

/// In-memory spans recorded from the driver's side of each layer boundary,
/// written out once the run ends.
class Tracer {
 public:
  struct Phase {
    std::string name;
    Time v_start = 0, v_end = 0;
    double w_start = 0, w_end = 0;
  };
  struct Op {
    std::uint64_t id = 0;
    OpType type = OpType::kGet;
    std::uint32_t client = 0;
    Time v_start = 0, v_end = 0;
    double w_start = 0, w_end = 0;
  };

  void phase(std::string name, Time v_start, Time v_end, double w_start, double w_end) {
    phases_.push_back({std::move(name), v_start, v_end, w_start, w_end});
  }
  /// Per-op spans are kept for the first kMaxOpSpans ops only, which bounds
  /// the memory and the size of the written trace.
  static constexpr std::uint64_t kMaxOpSpans = 200'000;
  std::vector<Op>& ops() noexcept { return ops_; }
  bool write(const std::string& path) const;

 private:
  std::vector<Phase> phases_;
  std::vector<Op> ops_;  ///< indexed by op id
};

// ---- driver ------------------------------------------------------------------

/// Virtual-time results of one measured window; two runs of one seed must
/// produce identical values, with or without obs attached (DESIGN.md §8).
struct VirtualResult {
  Time t0 = 0, t1 = 0;
  std::uint64_t completed = 0;  ///< ops completing inside (t0, t1]
  std::vector<Duration> get_lat, update_lat, scan_lat;
  std::vector<Duration> get_onesided_lat, get_message_lat;
  std::vector<Duration> promote, recovery;
  std::uint64_t crashes = 0;
  std::vector<std::uint64_t> status_counts;  ///< failed ops by hydra::Status
  std::uint64_t attempted = 0, failed = 0, wrong = 0;

  bool operator==(const VirtualResult&) const = default;
};

class Driver {
 public:
  Driver(hydra::db::HydraCluster& cluster, const Workload& w, std::uint64_t seed,
         Tracer* tracer);
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  void warm_up();
  /// Runs the measured phase: until `wall_budget_s` seconds of wall time
  /// have passed and the virtual window is complete (stop_at == 0), or up
  /// to virtual instant `stop_at`.
  void measure(double wall_budget_s, Time stop_at);
  /// Stops issuing and lets every op in flight complete.
  void drain();
  /// GETs every key written during the run and checks the final values.
  void read_back();

  [[nodiscard]] VirtualResult result() const;
  [[nodiscard]] double measured_wall_s() const noexcept { return wall_s_; }
  /// Ops completed per wall second in each of kSlices equal wall-time
  /// slices of the measured window (wall-bounded runs only).
  [[nodiscard]] const std::vector<double>& slice_rates() const noexcept { return slice_rates_; }
  static constexpr int kSlices = 40;
  [[nodiscard]] std::uint64_t measured_events() const noexcept { return events_; }
  [[nodiscard]] std::uint64_t measured_ops() const noexcept { return phase_ops_; }
  [[nodiscard]] Time phase_end() const noexcept { return t_end_; }
  [[nodiscard]] std::size_t pending_max() const noexcept { return pending_max_; }
  [[nodiscard]] double pending_mean() const noexcept {
    return pending_samples_ ? pending_sum_ / static_cast<double>(pending_samples_) : 0.0;
  }
  [[nodiscard]] Duration max_lateness() const noexcept { return max_lateness_; }

 private:
  static constexpr Time kNever = ~Time{0};
  struct OpRec {
    Time due = 0;
    Time done = 0;
    std::uint64_t aux = 0;  ///< GET: staleness snapshot; UPDATE: seq; SCAN: length
    std::uint64_t ptr_hits_before = 0;
    std::uint32_t client = 0;
    std::uint32_t record = 0;
    OpType type = OpType::kGet;
    hydra::Status status = hydra::Status::kTimeout;
    bool finished = false;
    bool ok = false;
    bool onesided = false;
  };
  struct WriteRec {
    Time issue = 0;
    Time ack = kNever;
    std::uint32_t record = 0;
  };
  struct Crash {
    Time at = 0;
    hydra::ShardId shard = 0;
    std::uint64_t epoch_before = 0;
    bool promoted = false;
    bool recovered = false;
    Duration promote_gap = 0;   ///< crash to routing-epoch advance
    Duration recovery_gap = 0;  ///< crash to first acked write on the shard's keys
  };

  void issue(std::uint32_t client, Time due, hydra::Xoshiro256& rng);
  void on_done(std::uint64_t id);
  void on_get(std::uint64_t id, hydra::Status st, std::string_view value);
  void on_update(std::uint64_t id, hydra::Status st);
  void on_scan(std::uint64_t id, hydra::Status st,
               const hydra::client::Client::ScanEntries& entries);
  void next_arrival();
  void crash_next();
  /// True when `v` is an answer a linearizable store may give for `record`
  /// to a read that began after every write acked before `snapshot`.
  bool value_ok(std::uint32_t record, std::string_view v, Time snapshot, Time now) const;
  void wrong(std::uint64_t id, const std::string& why);
  void run_to(Time t);

  hydra::db::HydraCluster& cluster_;
  const Workload& w_;
  Tracer* tracer_;
  std::unique_ptr<hydra::KeyChooser> chooser_;
  std::vector<hydra::Xoshiro256> client_rng_;
  hydra::Xoshiro256 arrival_rng_;
  double next_due_ = 0.0;

  std::vector<OpRec> ops_;
  std::vector<std::vector<WriteRec>> writes_;  ///< per writer, by seq - 1
  std::vector<Time> max_acked_issue_;          ///< per record
  std::vector<bool> written_;                  ///< per record
  std::vector<Crash> crashes_;
  std::uint64_t in_flight_ = 0;
  std::uint64_t completed_ = 0;
  bool issuing_ = false;

  Time t0_ = 0, t1_ = 0;  ///< the virtual window
  Time t_end_ = 0;        ///< end of the measured phase (>= t1_)
  std::uint64_t phase_ops_ = 0;
  double wall_s_ = 0.0;
  std::vector<double> slice_rates_;
  std::uint64_t events_ = 0;
  std::size_t pending_max_ = 0;
  double pending_sum_ = 0.0;
  std::uint64_t pending_samples_ = 0;
  Duration max_lateness_ = 0;
  std::uint64_t wrong_ = 0, readback_wrong_ = 0;
};

// ---- per-layer counters --------------------------------------------------------

/// Public stats of every layer at one instant, read through accessors only.
struct LayerSnapshot {
  Time at = 0;
  hydra::fabric::FabricStats fabric;
  std::size_t live_qp_pairs = 0;
  std::vector<std::uint64_t> server_tx_ops, server_tx_bytes;  ///< per server node
  struct ShardSnap {
    const void* who = nullptr;  ///< a promotion replaces the primary object
    hydra::server::ShardStats st;
    std::uint64_t acks = 0, resends = 0, write_retries = 0, quarantined = 0;
  };
  std::vector<ShardSnap> shards;
  std::uint64_t gets = 0, puts = 0, ptr_hits = 0, invalid_hits = 0, replica_hits = 0;
  std::uint64_t epoch_invalidations = 0, timeouts = 0, retries = 0;
  std::uint64_t scans = 0, scan_batches = 0, scan_leaf_reads = 0, scan_leaf_fallbacks = 0;
  std::uint64_t credit_waits = 0, channels_opened = 0;
  std::uint64_t rounds_started = 0, rounds_aborted = 0, ballots_lost = 0;
};
LayerSnapshot snapshot(hydra::db::HydraCluster& cluster);

/// Wall-clock cost of single calls into each layer's public functions,
/// replayed outside the simulation on the workload's own generated inputs.
struct Replays {
  double sim_schedule_fire_ns = 0, proto_request_codec_ns = 0, proto_frame_ns = 0;
  double core_get_ns = 0, core_put_ns = 0, core_load_ns_per_record = 0;
  double index_scan_ns = 0, client_ptr_cache_get_ns = 0;
};
Replays run_replays(const Workload& w, std::uint64_t seed, double pending_mean);

// ---- metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;  ///< per-layer only: the end-to-end metric it should move
};
using Metrics = std::vector<Metric>;

/// Exact nearest-rank percentile of `v`: the smallest sample with at least
/// pct% of the samples <= it; 0 for an empty sample.
template <typename T>
double percentile(std::vector<T> v, double pct) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(pct / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

struct TracedRun {
  const Driver* traced = nullptr;
  const VirtualResult* result = nullptr;
  LayerSnapshot before, after;
  double untraced_wall_s = 0.0;
  std::uint64_t untraced_events = 0;
  std::uint64_t untraced_ops = 0;
  double untraced_kops_per_s = 0.0;
  std::uint64_t trace_records = 0;
  Replays replays;
};
Metrics layer_metrics(const TracedRun& run);

}  // namespace perfbench
