//! Scoped-thread work pool shared by every parallel hot path in the
//! workspace: repository encoding, candidate scoring, benchmark
//! evaluation and ground-truth DTW matrices. The matmul kernel itself is
//! serial; callers parallelize over the tables, candidates or queries
//! around it.
//!
//! The pool is deliberately structured around `std::thread::scope`: workers
//! borrow their inputs directly (no `Arc`, no channels, no 'static bounds)
//! and a panicking worker propagates at the scope boundary. Threads are
//! spawned per call — for the coarse-grained work units here (encoding a
//! table, scoring a candidate, one DTW row) spawn cost is noise, and scoped
//! spawning keeps the API allocation- and lifetime-free.
//!
//! # Thread-count resolution and the freeze point
//!
//! Thread count comes from `LCDD_THREADS` when set (useful for pinning
//! benchmarks or forcing serial execution), otherwise from
//! `available_parallelism`, capped at [`MAX_THREADS`]. The environment is
//! read **once**, on the first call to [`num_threads`] from outside a
//! worker, and the result is cached for the life of the process — changing
//! `LCDD_THREADS` after that first touch is silently ignored. This freeze
//! is deliberate (a thread count that drifts mid-query would make parallel
//! splits nondeterministic within one search), but it means anything that
//! wants a *specific* count must resolve it before the first `par_*` call:
//!
//! * process entry points that sweep thread counts must re-exec per sweep
//!   point (a child process gets a fresh cache — see
//!   `fresh_processes_honour_lcdd_threads_and_agree_bitwise` in
//!   `lcdd-engine`'s `tests/threads.rs`),
//! * tests that need a specific count use [`force_threads`], which
//!   overwrites the cache.
//!
//! [`resolve_threads`] performs the first-touch resolution explicitly so
//! binaries can freeze (and report) the count at startup instead of
//! wherever the first parallel call happens to be.
//!
//! # Determinism
//!
//! Every `par_*` helper produces results identical to its serial
//! equivalent: splitting only distributes *which worker* computes an
//! (index, item) pair, never the per-pair computation or the order results
//! are assembled in. The kernels in [`crate::kernels`] never split, so
//! all tensor results are bit-identical at any thread count.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard ceiling on worker threads; beyond this the workloads in this
/// workspace are memory-bound and extra threads only add contention.
pub const MAX_THREADS: usize = 16;

thread_local! {
    /// Set inside pool workers so nested `par_*` calls run serial instead
    /// of multiplying threads (e.g. per-query eval → per-candidate scoring
    /// would otherwise square the thread count).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Cached thread count; 0 = not yet resolved. A plain atomic (not a
/// `OnceLock`) so [`force_threads`] can overwrite the frozen value in
/// tests and thread-sweep harnesses.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Parallel map invocations executed (monotone, relaxed). Scraped
/// by the gateway's telemetry registry as `lcdd_pool_tasks`.
static TASKS: AtomicUsize = AtomicUsize::new(0);

/// Parallel invocations executed so far (each [`par_map`] call counts
/// one, whether it ran fanned-out or serial).
pub fn tasks_executed() -> u64 {
    TASKS.load(Ordering::Relaxed) as u64
}

fn detect_threads() -> usize {
    if let Ok(v) = std::env::var("LCDD_THREADS") {
        // 0 and garbage both fall through to detection.
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(MAX_THREADS)
}

/// Number of worker threads the pool helpers will use from the current
/// context (always 1 inside a pool worker — nesting stays serial).
///
/// The first call from outside a worker freezes the count for the process
/// lifetime; see the module docs for why and for the escape hatches.
pub fn num_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    match THREADS.load(Ordering::Relaxed) {
        0 => resolve_threads(),
        n => n,
    }
}

/// Resolves and freezes the thread count now (idempotent): reads
/// `LCDD_THREADS` / `available_parallelism` unless a count is already
/// cached, stores it, and returns the frozen value. Call this at binary
/// startup to pin the count before any parallel work — after the first
/// `par_*` call it is a no-op.
pub fn resolve_threads() -> usize {
    let n = detect_threads();
    match THREADS.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => n,
        // Lost the race (or already frozen): honor the cached value.
        Err(frozen) => frozen,
    }
}

/// Overwrites the frozen thread count (clamped to `1..=`[`MAX_THREADS`]).
///
/// **Test and bench harness use only.** Production code must rely on the
/// one-shot `LCDD_THREADS` / `available_parallelism` resolution; this hook
/// exists so invariance suites can sweep thread counts inside one process
/// and so the pool's own coverage tests can exercise adversarial counts.
/// Callers that share a process with other tests must serialize around it.
pub fn force_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::SeqCst);
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// Items are split into one contiguous chunk per worker. Falls back to a
/// serial loop when the pool has a single thread or the input is small
/// enough that spawn overhead would dominate.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_indexed(items, |_, item| f(item))
}

/// Like [`par_map`], additionally passing each item's index.
pub fn par_map_indexed<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    TASKS.fetch_add(1, Ordering::Relaxed);
    let threads = num_threads();
    if threads <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    // `per >= 1` because items.len() > 1; `chunks(per)` then yields at most
    // `threads` chunks and covers every item exactly once regardless of
    // `items.len() % threads` (the last chunk is simply shorter).
    let per = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        let f = &f;
        let mut slots: &mut [Option<R>] = &mut out;
        for (ci, chunk) in items.chunks(per).enumerate() {
            let (head, tail) = slots.split_at_mut(chunk.len());
            slots = tail;
            s.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                let base = ci * per;
                for (j, (slot, item)) in head.iter_mut().zip(chunk).enumerate() {
                    *slot = Some(f(base + j, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("par_map: worker skipped a slot"))
        .collect()
}

/// Splits `items` into per-worker chunks and maps each chunk as a unit,
/// concatenating results in order. Useful when per-item work is tiny and
/// the closure wants to amortize setup across a chunk.
pub fn par_chunks<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(usize, &[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    let threads = num_threads();
    if threads <= 1 || items.len() <= 1 {
        return f(0, items);
    }
    let per = items.len().div_ceil(threads);
    let chunks: Vec<&[T]> = items.chunks(per).collect();
    let results = par_map_indexed(&chunks, |ci, chunk| f(ci * per, chunk));
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that call [`force_threads`]: the cached count
    /// is process-global, so forced-count tests must not interleave.
    fn forced_threads_lock() -> MutexGuard<'static, ()> {
        static FORCED: Mutex<()> = Mutex::new(());
        FORCED.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `body` with the pool forced to each count in `counts`,
    /// restoring the detected count afterwards.
    fn with_forced_threads(counts: &[usize], body: impl Fn(usize)) {
        let _guard = forced_threads_lock();
        for &t in counts {
            force_threads(t);
            body(t);
        }
        force_threads(detect_threads());
    }

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
        assert!(num_threads() <= MAX_THREADS);
    }

    #[test]
    fn resolve_is_idempotent_and_matches_num_threads() {
        let a = resolve_threads();
        let b = num_threads();
        let c = resolve_threads();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let mapped = par_map(&items, |&x| x * 2);
        assert_eq!(mapped, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_indexed_gives_global_indices() {
        let items: Vec<u32> = (0..100).collect();
        let mapped = par_map_indexed(&items, |i, &x| (i, x));
        for (i, &(gi, x)) in mapped.iter().enumerate() {
            assert_eq!(gi, i);
            assert_eq!(x as usize, i);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<i32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_chunks_concatenates_in_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_chunks(&items, |base, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(j, &x)| (base + j, x))
                .collect()
        });
        assert_eq!(out.len(), 1000);
        for (i, &(gi, x)) in out.iter().enumerate() {
            assert_eq!(gi, i);
            assert_eq!(x, i);
        }
    }

    #[test]
    fn nested_par_map_is_correct_and_serial() {
        let outer: Vec<usize> = (0..16).collect();
        let out = par_map(&outer, |&x| {
            // Inside a worker the pool must report a single thread so
            // nesting cannot multiply spawn counts.
            if std::thread::current().name().is_none() {
                assert_eq!(num_threads(), 1);
            }
            par_map(&[1usize, 2, 3], |&y| y * x).iter().sum::<usize>()
        });
        assert_eq!(out, outer.iter().map(|&x| 6 * x).collect::<Vec<_>>());
    }

    #[test]
    fn results_match_serial_reference() {
        let items: Vec<f64> = (0..500).map(|i| i as f64 * 0.25).collect();
        let serial: Vec<f64> = items.iter().map(|&x| x.sin() * x).collect();
        assert_eq!(par_map(&items, |&x| x.sin() * x), serial);
    }

    #[test]
    fn force_threads_overrides_frozen_count() {
        let _guard = forced_threads_lock();
        force_threads(3);
        assert_eq!(num_threads(), 3);
        force_threads(0); // clamped up
        assert_eq!(num_threads(), 1);
        force_threads(999); // clamped down
        assert_eq!(num_threads(), MAX_THREADS);
        force_threads(detect_threads());
    }

    /// Satellite audit: every helper must visit each index exactly once for
    /// adversarial (len, threads) pairs — `len < threads`,
    /// `len % threads != 0`, len 0/1, thread counts at and above the cap.
    #[test]
    fn every_index_visited_exactly_once_across_adversarial_pairs() {
        use std::sync::atomic::AtomicU32;

        let lens = [0usize, 1, 2, 3, 5, 7, 8, 15, 16, 17, 100, 101];
        let threads = [1usize, 2, 3, 4, 5, 7, 13, 16];
        with_forced_threads(&threads, |t| {
            for &len in &lens {
                let items: Vec<usize> = (0..len).collect();

                // par_map_indexed: order-preserving, each index once, and
                // the reported index matches the item.
                let visits: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
                let out = par_map_indexed(&items, |i, &x| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    assert_eq!(i, x, "threads={t} len={len}: index/item mismatch");
                    i
                });
                assert_eq!(out, items, "threads={t} len={len}: par_map_indexed");
                for (i, v) in visits.iter().enumerate() {
                    assert_eq!(
                        v.load(Ordering::Relaxed),
                        1,
                        "threads={t} len={len}: index {i} visited != once"
                    );
                }

                // par_chunks: concatenation covers 0..len in order and base
                // offsets line up with chunk contents.
                let visits: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
                let out = par_chunks(&items, |base, chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(j, &x)| {
                            assert_eq!(base + j, x, "threads={t} len={len}: chunk base");
                            visits[x].fetch_add(1, Ordering::Relaxed);
                            x
                        })
                        .collect()
                });
                assert_eq!(out, items, "threads={t} len={len}: par_chunks");
                for (i, v) in visits.iter().enumerate() {
                    assert_eq!(
                        v.load(Ordering::Relaxed),
                        1,
                        "threads={t} len={len}: par_chunks index {i}"
                    );
                }
            }
        });
    }
}
