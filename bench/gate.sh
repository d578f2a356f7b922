#!/usr/bin/env bash
# Bench regression gate.  Every experiment with a committed baseline in
# bench/baseline/ runs twice; its two BENCH_<exp>.json dumps must be
# byte-identical, and bench/regress.exe checks the first against the
# baseline.  The parallel-replay scaling run must be deterministic too.
# Every check runs; the script exits 1 at the end if any failed.
#
#   dune build && bench/gate.sh [OUT_DIR]     (OUT_DIR defaults to artifacts)
#
# OUT_DIR keeps each run's stdout, both dumps and the regress report.
set -uo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
bench=$root/_build/default/bench/main.exe
regress=$root/_build/default/bench/regress.exe
mkdir -p "${1:-artifacts}" && out=$(cd "${1:-artifacts}" && pwd)
failed=()

# run EXP TAG ARGS...: one bench run in OUT_DIR, its stdout kept as
# bench_<EXP>_<TAG>.txt and its dump as BENCH_<EXP>_<TAG>.json.
run() {
  local exp=$1 tag=$2
  shift 2
  (cd "$out" && "$bench" "$exp" "$@") | tee "$out/bench_${exp}_$tag.txt" &&
    mv "$out/BENCH_$exp.json" "$out/BENCH_${exp}_$tag.json"
}

# twice EXP PREFIX ARGS...: two same-seed runs whose dumps must match.
twice() {
  local exp=$1 pre=$2
  shift 2
  run "$exp" "${pre}run1" "$@" && run "$exp" "${pre}run2" "$@" &&
    cmp "$out/BENCH_${exp}_${pre}run1.json" "$out/BENCH_${exp}_${pre}run2.json"
}

for baseline in "$root"/bench/baseline/BENCH_*.json; do
  exp=$(basename "$baseline" .json)
  exp=${exp#BENCH_}
  case $exp in
    c10k) twice c10k "" ;; # the baseline is recorded at full scale
    chaosparallel) run chaosparallel run1 --quick ;; # host wall-clock gauges
    *) twice "$exp" "" --quick ;;
  esac || { failed+=("$exp: run or same-seed dumps"); continue; }
  "$regress" "$baseline" "$out/BENCH_${exp}_run1.json" |
    tee "$out/bench_${exp}_regress_report.txt" ||
    failed+=("$exp: regression against its baseline")
done

twice scaling rw4_ --quick --replay-workers 4 ||
  failed+=("scaling --replay-workers 4: run or same-seed dumps")

if [ ${#failed[@]} -gt 0 ]; then
  printf 'gate: FAILED %s\n' "${failed[@]}"
  exit 1
fi
echo "gate: every experiment reproduced its dump and passed its baseline"
