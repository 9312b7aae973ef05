// perfbench: the HydraDB benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 runs one workload for <s> wall seconds, sets the cluster up at
// least four times before and four times after that (setup_s is the
// fastest set-up), and prints the end-to-end metrics. Virtual-time metrics cover the workload's fixed
// virtual window at the start of that phase. --trace 1 runs an untraced
// pass for <s>/2 wall seconds, reruns it
// to the same virtual instant with an obs::Plane attached and the driver's
// own spans on, checks that both passes agree on every virtual-time result,
// and prints the per-layer metrics. The last stdout line is one JSON
// object; the exit code is non-zero on any wrong answer.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace hydra;

// An untraced run times two batches of set-ups, one before and one after
// the measured phase. A batch has at least kMinSetups, and more until
// kSetupBudgetS seconds have gone into it, so short set-ups get more
// chances at the minimum.
constexpr int kMinSetups = 4;
constexpr int kMaxSetups = 8;
constexpr double kSetupBudgetS = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void print_result(bool correct, const VirtualResult& r, const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(r.attempted, 1));
  s += ", \"failed\": " + std::to_string(r.failed + r.wrong);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + m[i].name + "\": {\"value\": " + num(m[i].value) + ", \"unit\": \"" +
         m[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report(const Workload& w, const VirtualResult& r) {
  std::printf("%s: window %.3f ms virtual, %llu ops completed, %zu get / %zu update / %zu scan "
              "samples, %llu crashes, %llu failed, %llu wrong\n",
              w.name.c_str(), static_cast<double>(r.t1 - r.t0) / 1e6,
              static_cast<unsigned long long>(r.completed), r.get_lat.size(),
              r.update_lat.size(), r.scan_lat.size(), static_cast<unsigned long long>(r.crashes),
              static_cast<unsigned long long>(r.failed), static_cast<unsigned long long>(r.wrong));
  for (std::size_t st = 0; st < r.status_counts.size(); ++st) {
    if (r.status_counts[st] == 0) continue;
    std::printf("%s: %llu ops failed with %s\n", w.name.c_str(),
                static_cast<unsigned long long>(r.status_counts[st]),
                std::string(to_string(static_cast<Status>(st))).c_str());
  }
}

/// The read op of the workload: SCAN where it issues scans, else GET.
const std::vector<Duration>& read_lat(const Workload& w, const VirtualResult& r) {
  return w.scan_frac > 0 ? r.scan_lat : r.get_lat;
}

/// Times one batch of set-ups (see kMinSetups) into `times`; returns the
/// cluster the last one built.
std::unique_ptr<db::HydraCluster> time_setups(const Workload& w, std::vector<double>* times) {
  std::unique_ptr<db::HydraCluster> cluster;
  double spent = 0.0;
  for (int n = 0; n < kMinSetups || (spent < kSetupBudgetS && n < kMaxSetups); ++n) {
    cluster.reset();
    const double t0 = wall_now();
    cluster = build_cluster(w, nullptr);
    times->push_back(wall_now() - t0);
    spent += times->back();
  }
  return cluster;
}

int run_untraced(const Workload& w, const Args& a) {
  std::vector<double> setups;
  VirtualResult r;
  double rss_mb = 0.0;
  {
    auto cluster = time_setups(w, &setups);
    Driver d(*cluster, w, a.seed, nullptr);
    d.warm_up();
    // Read before the driver's own per-op log grows with the run length.
    rss_mb = peak_rss_mb();
    d.measure(a.seconds, 0);
    d.drain();
    if (w.crash_period > 0) d.read_back();
    r = d.result();
    report(w, r);
    std::printf("%s: sim kops/s per slice", w.name.c_str());
    for (const double x : d.slice_rates()) std::printf(" %.1f", x / 1e3);
    std::printf("\n");
  }
  // The host switches between a fast and a ~1.5x slower state every few
  // seconds; set-ups on both sides of the measured phase give the minimum
  // more chances to see the fast one.
  time_setups(w, &setups);
  std::printf("%s: setups", w.name.c_str());
  for (const double t : setups) std::printf(" %.3f", t);
  std::printf(" s\n");

  const double window_s = static_cast<double>(r.t1 - r.t0) / 1e9;
  Metrics m;
  auto add = [&](const char* name, double v, const char* unit) {
    m.push_back({name, v, unit, ""});
  };
  add("throughput_mops", static_cast<double>(r.completed) / window_s / 1e6, "Mops");
  add("read_p50_us", percentile(read_lat(w, r), 50) / 1e3, "us");
  add("read_p99_us", percentile(read_lat(w, r), 99) / 1e3, "us");
  add("update_p50_us", percentile(r.update_lat, 50) / 1e3, "us");
  add("update_p99_us", percentile(r.update_lat, 99) / 1e3, "us");
  add("peak_rss_mb", rss_mb, "MB");
  add("setup_s", *std::min_element(setups.begin(), setups.end()), "s");
  const bool correct = r.wrong == 0;
  print_result(correct, r, m);
  return correct ? 0 : 1;
}

int run_traced(const Workload& w, const Args& a) {
  TracedRun run;
  VirtualResult untraced;
  Time untraced_end = 0;
  {
    auto cluster = build_cluster(w, nullptr);
    Driver d(*cluster, w, a.seed, nullptr);
    d.warm_up();
    d.measure(a.seconds / 2, 0);
    d.drain();
    if (w.crash_period > 0) d.read_back();
    untraced = d.result();
    run.untraced_wall_s = d.measured_wall_s();
    run.untraced_events = d.measured_events();
    run.untraced_ops = d.measured_ops();
    // The 90th percentile of the slices: the simulator's speed while other
    // tenants do not slow the machine down, which a mean would mix in.
    run.untraced_kops_per_s = percentile(d.slice_rates(), 90) / 1e3;
    untraced_end = d.phase_end();
  }

  obs::Plane plane;
  Tracer tracer;
  double w0 = wall_now();
  auto cluster = build_cluster(w, &plane);
  sim::Scheduler& sched = cluster->scheduler();
  tracer.phase("setup", 0, sched.now(), w0, wall_now());
  Driver d(*cluster, w, a.seed, &tracer);
  w0 = wall_now();
  Time v0 = sched.now();
  d.warm_up();
  tracer.phase("warm-up", v0, sched.now(), w0, wall_now());
  run.before = snapshot(*cluster);
  w0 = wall_now();
  v0 = sched.now();
  d.measure(0, untraced_end);
  run.after = snapshot(*cluster);
  tracer.phase("measured", v0, sched.now(), w0, wall_now());
  w0 = wall_now();
  v0 = sched.now();
  d.drain();
  if (w.crash_period > 0) d.read_back();
  tracer.phase("drain", v0, sched.now(), w0, wall_now());
  const VirtualResult traced = d.result();
  report(w, traced);
  run.traced = &d;
  run.result = &traced;
  run.trace_records = plane.trace_count();
  w0 = wall_now();
  run.replays = run_replays(w, a.seed, d.pending_mean());
  tracer.phase("replays", sched.now(), sched.now(), w0, wall_now());

  // DESIGN.md §8: attaching the plane must not change the virtual history.
  const bool same = traced == untraced;
  if (!same) {
    std::fprintf(stderr, "perfbench: traced run diverged from the untraced run "
                         "(%llu vs %llu ops completed)\n",
                 static_cast<unsigned long long>(traced.completed),
                 static_cast<unsigned long long>(untraced.completed));
  }
  if (!a.trace_out.empty() && !tracer.write(a.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
  }
  const bool correct = same && traced.wrong == 0 && untraced.wrong == 0;
  const Metrics m = layer_metrics(run);
  for (const Metric& x : m) {
    std::printf("  %-34s %14.6g %-7s -> %s\n", x.name.c_str(), x.value, x.unit.c_str(),
                x.moves.c_str());
  }
  print_result(correct, traced, m);
  return correct ? 0 : 1;
}

}  // namespace

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static constexpr const char* kType[] = {"get", "update", "scan"};
  const double origin = phases_.empty() ? 0.0 : phases_.front().w_start;
  for (const Phase& p : phases_) {
    std::fprintf(f,
                 "{\"span\": \"%s\", \"v_start_ns\": %llu, \"v_end_ns\": %llu, "
                 "\"w_start_s\": %.9f, \"w_end_s\": %.9f}\n",
                 p.name.c_str(), static_cast<unsigned long long>(p.v_start),
                 static_cast<unsigned long long>(p.v_end), p.w_start - origin, p.w_end - origin);
  }
  for (const Op& o : ops_) {
    std::fprintf(f,
                 "{\"op\": %llu, \"type\": \"%s\", \"client\": %u, \"v_start_ns\": %llu, "
                 "\"v_end_ns\": %llu, \"w_start_s\": %.9f, \"w_end_s\": %.9f}\n",
                 static_cast<unsigned long long>(o.id), kType[static_cast<int>(o.type)],
                 o.client, static_cast<unsigned long long>(o.v_start),
                 static_cast<unsigned long long>(o.v_end), o.w_start - origin,
                 o.w_end - origin);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  Workload w;
  if (!make_workload(a.workload, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  return a.trace != 0 ? run_traced(w, a) : run_untraced(w, a);
}
