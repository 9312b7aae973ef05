// Replays one chaos run from its (family, schedule, seed) triple -- the
// command every sweep prints next to a failure (DESIGN.md §7).
//
//   chaos_replay <family> <schedule-name|random> <seed>
//   chaos_replay <family> all <n>
//   chaos_replay all all <n>
//
// family: chaos, migration, failover, hotkey, scan, txn or cross. The first
// form prints the run's history (violations included) and exits 1 on any
// violation. The second sweeps every scripted schedule of the family at
// seeds 1..n, then random schedules at seeds 1..n, printing one line per
// run -- schedule, seed, end time, verdict and a 64-bit hash of the history
// -- so two builds that must not move virtual time can be compared with
// diff. It exits 1 if any run failed. The third sweeps all seven families
// in that order, each line led by its family.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "chaos/harness.hpp"
#include "common/hash.hpp"

namespace {

using namespace hydra::chaos;

/// Runs `schedule` at `seed` and prints its one-line summary after `prefix`.
bool sweep_line(const std::string& prefix, const Schedule& schedule, std::uint64_t seed) {
  const Report report = run(schedule, seed);
  std::printf("%s%s %" PRIu64 " end_time=%" PRIu64 " %s history=%016" PRIx64 "\n",
              prefix.c_str(), schedule.name.c_str(), seed,
              static_cast<std::uint64_t>(report.end_time),
              report.passed() ? "PASS" : "FAIL",
              hydra::hash_bytes(report.history.data(), report.history.size()));
  return report.passed();
}

int sweep(Family family, std::uint64_t n, const std::string& prefix = "") {
  bool passed = true;
  for (const Schedule& schedule : Schedule::scripted(family)) {
    for (std::uint64_t seed = 1; seed <= n; ++seed) passed &= sweep_line(prefix, schedule, seed);
  }
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    passed &= sweep_line(prefix, Schedule::random(family, seed), seed);
  }
  return passed ? 0 : 1;
}

int sweep_all(std::uint64_t n) {
  int rc = 0;
  for (int f = 0; f <= static_cast<int>(Family::kCross); ++f) {
    const auto family = static_cast<Family>(f);
    rc |= sweep(family, n, std::string(to_string(family)) + " ");
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const bool every_family = argc == 4 && std::string(argv[1]) == "all" &&
                            std::string(argv[2]) == "all";
  const auto family = argc == 4 ? family_named(argv[1]) : std::nullopt;
  if (!family.has_value() && !every_family) {
    std::fprintf(stderr,
                 "usage: %s <chaos|migration|failover|hotkey|scan|txn|cross> "
                 "<schedule-name|random|all> <seed|n>\n"
                 "       %s all all <n>\n",
                 argv[0], argv[0]);
    return 2;
  }
  const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  if (every_family) return sweep_all(seed);
  if (std::string(argv[2]) == "all") return sweep(*family, seed);
  Schedule schedule;
  try {
    schedule = std::string(argv[2]) == "random" ? Schedule::random(*family, seed)
                                                : scripted_by_name(*family, argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const Report report = run(schedule, seed);
  std::fputs(report.history.c_str(), stdout);
  std::printf("%s: %zu violation(s)\n", report.passed() ? "PASS" : "FAIL",
              report.violations.size());
  return report.passed() ? 0 : 1;
}
