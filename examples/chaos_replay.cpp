// Replays one chaos run from its (family, schedule, seed) triple -- the
// command every sweep prints next to a failure (DESIGN.md §7).
//
//   chaos_replay <family> <schedule-name|random> <seed>
//
// family: chaos, migration, failover, hotkey, scan, txn or cross. Prints
// the run's history (violations included) and exits 1 on any violation.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "chaos/harness.hpp"

int main(int argc, char** argv) {
  using namespace hydra::chaos;
  const auto family = argc == 4 ? family_named(argv[1]) : std::nullopt;
  if (!family.has_value()) {
    std::fprintf(stderr,
                 "usage: %s <chaos|migration|failover|hotkey|scan|txn|cross> "
                 "<schedule-name|random> <seed>\n",
                 argv[0]);
    return 2;
  }
  const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
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
