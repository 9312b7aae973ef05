#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): configure, build and run the full test
# suite. Pass --asan to run the same suite under ASan+UBSan (the `asan`
# CMake preset, building into build-asan/), or --tsan for ThreadSanitizer
# (the `tsan` preset, build-tsan/). Under --tsan only the tests that run
# real threads (ctest label `concurrency`) run unless --labels or a suite
# mode picks others: the rest of the suite is a single-threaded simulation.
#
# Pass --bench for the BENCH gate instead of the tests: it rebuilds
# bench_txn, bench_hotkey, bench_ycsb_e, bench_fig12_scalability,
# bench_fig13_replication, bench_fig10_design and bench_fig11_hits,
# regenerates their JSON (fig12: the connection-scalability sweep over
# 1k-50k clients) into a temporary directory, running the benches as
# parallel jobs (at most nproc at a time), and fails unless each file is
# byte-identical to the checked-in BENCH_*.json (the simulator is
# deterministic). On a difference it prints the changed fields
# (scripts/json_diff.py). It ends by printing the gate's wall time.
#
# The chaos counterpart for a change that must not move virtual time:
# `build/examples/chaos_replay all all <n>` prints one line per run of all
# seven families (chaos, migration, failover, hotkey, scan, txn, cross):
# every scripted schedule and random schedules at seeds 1..n, each with its
# family, end time, verdict and a 64-bit hash of its history. Run it at the
# change and at its parent and `diff` the outputs (DESIGN.md §7);
# `chaos_replay <family> all <n>` sweeps one family.
#
# Pass --txn to run only the transaction-layer suite (ctest label `txn`)
# with an enlarged seeded-random sweep; --hotkey for the hot-key replication
# plane suite (ctest label `hotkey`, DESIGN.md §12) likewise widened;
# --scan for the ordered-index + range-scan suite (ctest label `scan`,
# DESIGN.md §13) with both the index model check and the scan-mid-migration
# sweep enlarged; --failover for the fast-failover agreement plane suite
# (ctest label `failover`, DESIGN.md §14) with its seeded-random sweep
# widened; --labels <regex> to run any other ctest label subset
# (unit/chaos/txn/scale/hotkey/scan/failover/concurrency, see
# tests/CMakeLists.txt).
# Modes compose: `tier1.sh --asan --txn` runs the txn suite under ASan with
# the sweep scaled down to sanitizer speed.
set -euo pipefail
cd "$(dirname "$0")/.."

preset=default
label_regex=""
txn_mode=0
hotkey_mode=0
scan_mode=0
failover_mode=0
bench_mode=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --asan|--tsan)
      preset="${1#--}"
      shift
      # The chaos sweeps run their full random schedules in the default
      # preset; under a sanitizer each run is ~10x slower, so scale the
      # randomized portions down (the scripted runs always execute in full).
      # This covers migration_test too: its scripted families plus a reduced
      # random sweep run under both --asan and --tsan.
      export HYDRA_CHAOS_RANDOM_RUNS="${HYDRA_CHAOS_RANDOM_RUNS:-40}"
      export HYDRA_MIGRATION_RANDOM_RUNS="${HYDRA_MIGRATION_RANDOM_RUNS:-8}"
      export HYDRA_TXN_RANDOM_RUNS="${HYDRA_TXN_RANDOM_RUNS:-30}"
      export HYDRA_HOTKEY_RANDOM_RUNS="${HYDRA_HOTKEY_RANDOM_RUNS:-8}"
      export HYDRA_SCAN_RANDOM_RUNS="${HYDRA_SCAN_RANDOM_RUNS:-8}"
      export HYDRA_INDEX_RANDOM_RUNS="${HYDRA_INDEX_RANDOM_RUNS:-60}"
      export HYDRA_FAILOVER_RANDOM_RUNS="${HYDRA_FAILOVER_RANDOM_RUNS:-8}"
      ;;
    --txn)
      txn_mode=1
      label_regex="txn"
      shift
      ;;
    --hotkey)
      hotkey_mode=1
      label_regex="hotkey"
      shift
      ;;
    --scan)
      scan_mode=1
      label_regex="scan"
      shift
      ;;
    --failover)
      failover_mode=1
      label_regex="failover"
      shift
      ;;
    --labels)
      label_regex="$2"
      shift 2
      ;;
    --bench)
      bench_mode=1
      shift
      ;;
    *)
      break
      ;;
  esac
done

if [[ $txn_mode -eq 1 && "$preset" == default ]]; then
  # Dedicated txn sweep: widen the seeded-random txn-kill-mid-commit family
  # well past the per-PR acceptance floor of 100 runs.
  export HYDRA_TXN_RANDOM_RUNS="${HYDRA_TXN_RANDOM_RUNS:-200}"
fi
if [[ $hotkey_mode -eq 1 && "$preset" == default ]]; then
  # Dedicated hot-key sweep: widen the seeded-random promotion/invalidation
  # chaos family well past the default 6 in-suite runs.
  export HYDRA_HOTKEY_RANDOM_RUNS="${HYDRA_HOTKEY_RANDOM_RUNS:-60}"
fi
if [[ $scan_mode -eq 1 && "$preset" == default ]]; then
  # Dedicated scan sweep: widen the scan-mid-migration chaos family past the
  # default 25 in-suite runs, and the index model check past its 200-seed
  # acceptance floor.
  export HYDRA_SCAN_RANDOM_RUNS="${HYDRA_SCAN_RANDOM_RUNS:-100}"
  export HYDRA_INDEX_RANDOM_RUNS="${HYDRA_INDEX_RANDOM_RUNS:-500}"
fi
if [[ $failover_mode -eq 1 && "$preset" == default ]]; then
  # Dedicated failover-agreement sweep: widen the seeded-random kill/torn
  # revocation/split-ballot chaos family past the default 40 in-suite runs.
  export HYDRA_FAILOVER_RANDOM_RUNS="${HYDRA_FAILOVER_RANDOM_RUNS:-60}"
fi

build_dir=build
if [[ "$preset" != default ]]; then
  build_dir="build-$preset"
fi

if [[ $bench_mode -eq 1 ]]; then
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)" \
    --target bench_txn bench_hotkey bench_ycsb_e bench_fig12_scalability \
    bench_fig13_replication bench_fig10_design bench_fig11_hits
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
  # name:binary[:arguments], longest first so the parallel jobs pack well.
  specs=(fig10:bench_fig10_design
         fig12_conn:bench_fig12_scalability:--clients=1000,2000,5000,10000,50000
         ycsbE:bench_ycsb_e fig11:bench_fig11_hits hotkey:bench_hotkey
         fig13:bench_fig13_replication txn:bench_txn)
  # Every bench runs as its own job, at most nproc at a time; each records
  # its exit status next to its log.
  max_jobs="$(nproc)"
  started=$EPOCHREALTIME
  for spec in "${specs[@]}"; do
    IFS=: read -r short bin args <<<"$spec"
    while [[ $(jobs -rp | wc -l) -ge $max_jobs ]]; do wait -n || true; done
    # shellcheck disable=SC2086  # args is a word list
    ( rc=0
      "$build_dir/bench/$bin" $args --json="$out/BENCH_$short.json" >"$out/$short.log" 2>&1 ||
        rc=$?
      echo "$rc" >"$out/$short.rc" ) &
  done
  wait
  wall=$(awk -v a="$started" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f", b - a }')
  status=0
  for spec in "${specs[@]}"; do
    IFS=: read -r short bin args <<<"$spec"
    name="BENCH_$short.json"
    if [[ "$(cat "$out/$short.rc")" != 0 ]]; then
      cat "$out/$short.log"
      echo "$bin failed"
      status=1
    elif cmp "$name" "$out/$name"; then
      echo "$name: regenerated byte-identically"
    else
      echo "$name: the regenerated file differs (checked-in -> regenerated):"
      if python3 scripts/json_diff.py "$name" "$out/$name"; then
        echo "  every field is equal: only the formatting differs"
      fi
      status=1
    fi
  done
  echo "BENCH gate: ${#specs[@]} benches in ${wall} s wall (up to $max_jobs at a time)"
  exit $status
fi

if [[ "$preset" == tsan && -z "$label_regex" ]]; then
  label_regex="concurrency"
fi

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest_args=()
if [[ -n "$label_regex" ]]; then
  ctest_args+=(--label-regex "$label_regex")
fi
ctest --preset "$preset" -j "$(nproc)" "${ctest_args[@]}" "$@"

# Under ASan, also smoke the connection-scalability path (DESIGN.md §10) at
# ~5k muxed clients: enough to exercise the shared-ring demux, credit waits
# and the reaper with sanitizer instrumentation live, without the cost of
# the full 100k sweep. (It is single-threaded, so TSan has nothing to see.)
if [[ "$preset" == asan && -z "$label_regex" ]]; then
  "$build_dir/bench/bench_fig12_scalability" \
    --clients=5000 --mux --json="$build_dir/BENCH_fig12_smoke.json"
fi
