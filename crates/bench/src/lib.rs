//! # lcdd-bench
//!
//! Experiment harness: shared setup for the per-table/figure binaries in
//! `src/bin/` (each regenerates one table or figure of the paper), the
//! layer benches that emit the tracked `BENCH_*.json` snapshots
//! (`scripts/bench.sh`), plus Criterion micro-benchmarks in `benches/`.
//!
//! Scale: experiments run the CPU-scale configuration of README.md,
//! "Layout notes" (paper: 10k-table repository, k=50, 12-layer/768-dim
//! encoders on a GPU; here: ~200-table repository, k=8, 2-layer/32-dim
//! encoders). Set `LCDD_SCALE=full` for a larger, slower run.

pub mod experiments;
pub mod harness;

pub use harness::*;

/// True when `LCDD_BENCH_STRICT=1`: a bench's soft budget (a warning by
/// default) then fails the run. Any other value, or none, stays lenient.
pub fn strict() -> bool {
    std::env::var("LCDD_BENCH_STRICT").as_deref() == Ok("1")
}
