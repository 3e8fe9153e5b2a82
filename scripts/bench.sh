#!/usr/bin/env bash
# Refresh the tracked BENCH_*.json perf snapshots and optionally run the
# full Criterion micro-benchmark suite. Every tracked BENCH_*.json is
# named as an output below (scripts/check_doc_refs.sh enforces it).
#
# LCDD_THREADS=N pins the work-pool width for every bin.
# LCDD_BENCH_STRICT=1 turns the store bench's write-stall warning and the
# gateway bench's tracing-overhead warning into hard failures.
#
# Usage:
#   scripts/bench.sh            # all bench bins -> BENCH_*.json
#   scripts/bench.sh --all      # also run `cargo bench` (microbench suite)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== kernel benches -> BENCH_kernels.json =="
cargo run --release -p lcdd-bench --bin bench_kernels -- BENCH_kernels.json

echo
echo "== durable-store benches -> BENCH_store.json =="
cargo run --release -p lcdd-bench --bin bench_store -- BENCH_store.json

echo
echo "== replication benches -> BENCH_repl.json =="
cargo run --release -p lcdd-bench --bin bench_repl -- BENCH_repl.json

echo
echo "== gateway benches -> BENCH_server.json =="
cargo run --release -p lcdd-bench --bin bench_server -- BENCH_server.json

echo
echo "== tiered-corpus scale benches -> BENCH_scale.json =="
# Full ladder: 10k and 100k with exact ground truth (gates deepest
# re-rank recall@10 >= 0.95), plus a 1M-table fabricate/cold-open/scan
# smoke. Takes a few minutes; CI runs the 10k-only `--smoke` variant.
cargo run --release -p lcdd-bench --bin bench_scale -- BENCH_scale.json

if [[ "${1:-}" == "--all" ]]; then
    echo
    echo "== criterion micro-benchmarks =="
    cargo bench -p lcdd-bench
fi
