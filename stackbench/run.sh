#!/usr/bin/env bash
# The one command for people: builds the benchmark, runs every workload
# untraced and traced, prints each metric as `workload metric value unit
# spread`, and appends one record per run to a results file that
# `stackbench compare` reads. Exits non-zero if any run failed a check.
#
#   stackbench/run.sh [--workload <name>] [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
#
# --smoke measures for 3 s per run: a quick check, not a result.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
workloads=(scan_exact pruned_unique hot_cached cold_tier_rw)
seed=1
seconds=()
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds=(--seconds "$2"); shift 2 ;;
    --smoke) seconds=(--seconds 3); shift ;;
    --out) out="$2"; shift 2 ;;
    *) sed -n '2,10p' "$0" >&2; exit 2 ;;
  esac
done

target="${CARGO_TARGET_DIR:-stackbench/target}"
out="${out:-$target/stackbench-results.jsonl}"
cargo build --release --manifest-path stackbench/Cargo.toml
bin="$target/release/stackbench"

rm -f "$out"
status=0
for workload in "${workloads[@]}"; do
  for trace in 0 1; do
    "$bin" --workload "$workload" --seed "$seed" "${seconds[@]}" --trace "$trace" --out "$out" \
      >/dev/null || status=1
  done
done
echo "[stackbench] total wall ${SECONDS} s; records in $out; traces in $target/release/stackbench-scratch" >&2
exit "$status"
