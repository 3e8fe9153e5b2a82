//! The blocked scorer allocates nothing per candidate: once one block has
//! grown a scratch to the largest shape, scoring further blocks through
//! that scratch makes no heap allocation at all. A counting global
//! allocator counts the allocations of the test's own thread.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use lcdd_fcm::fastscore::BLOCK;
use lcdd_fcm::{FcmConfig, FcmModel, QueryScorer, ScoreScratch};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the thread whose allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping reads
// a const-initialised thread-local and bumps an atomic, neither of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn scoring_blocks_through_a_warm_scratch_allocates_nothing() {
    for hcman in [true, false] {
        let mut cfg = FcmConfig::small();
        cfg.hcman_enabled = hcman;
        let model = FcmModel::new(cfg);
        let (tables, repo) = common::corpus(&model, 64, 31);
        let parts = |&i: &usize| (&repo.tables[i].column_ranges[..], &repo.encodings[i][..]);
        let widest = (0..repo.len())
            .max_by_key(|&i| repo.tables[i].column_segments.len())
            .expect("non-empty corpus");
        let ids: Vec<usize> = (0..repo.len()).collect();
        let mut out = vec![0.0f32; ids.len()];
        for query in common::queries(&model, &tables, 3, 32) {
            let ev = model.encode_query_values(&query);
            let scorer = QueryScorer::new(&model, &ev);
            let mut scratch = ScoreScratch::default();
            // Warm-up: one block of the widest candidate.
            let warm = [widest; BLOCK];
            let mut warm_out = [0.0f32; BLOCK];
            let center = &repo.pooled_mean;
            scorer.score_into(&warm, &query, center, &mut scratch, &mut warm_out, parts);
            let n = allocations_of(|| {
                scorer.score_into(&ids, &query, center, &mut scratch, &mut out, parts);
            });
            assert_eq!(
                n,
                0,
                "hcman={hcman}: {} blocks allocated {n} times",
                ids.len().div_ceil(BLOCK)
            );
            assert!(out.iter().all(|s| s.is_finite()));
        }
    }
}
