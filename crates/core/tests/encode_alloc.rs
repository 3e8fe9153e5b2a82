//! The tape-free encoders allocate only what they return: once one table
//! (one chart) has grown an `EncodeScratch` to the widest shape, encoding
//! further tables (charts) through that scratch allocates exactly the
//! returned `Vec<Matrix>` — one block for the vector, one per matrix. The
//! scratch itself stays below glibc's 128 KiB mmap threshold, so growing it
//! never maps pages. A counting global allocator counts the allocations of
//! the test's own thread.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use lcdd_fcm::{EncodeScratch, FcmConfig, FcmModel};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the thread whose allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation(size: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping reads
// a const-initialised thread-local and bumps atomics, none of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` allocates on this thread: (allocations, bytes, largest block).
fn allocations_of(f: impl FnOnce()) -> (usize, usize, usize) {
    let (n0, b0) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    LARGEST.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (
        ALLOCATIONS.load(Ordering::Relaxed) - n0,
        BYTES.load(Ordering::Relaxed) - b0,
        LARGEST.load(Ordering::Relaxed),
    )
}

/// glibc's default `M_MMAP_THRESHOLD`: blocks this large are mapped.
const MMAP_THRESHOLD: usize = 128 * 1024;

#[test]
fn a_warm_encode_scratch_allocates_only_the_results() {
    for da in [true, false] {
        let mut cfg = FcmConfig::small();
        cfg.da_enabled = da;
        let model = FcmModel::new(cfg);
        let (tables, repo) = common::corpus(&model, 48, 41);
        let widest = (0..repo.len())
            .max_by_key(|&i| repo.tables[i].column_segments.len())
            .expect("non-empty corpus");

        let mut scratch = EncodeScratch::default();
        let (_, warm_bytes, largest) = allocations_of(|| {
            model.encode_table_with(&repo.tables[widest], &mut scratch);
        });
        assert!(
            largest < MMAP_THRESHOLD && warm_bytes < MMAP_THRESHOLD,
            "da={da}: warming the scratch allocated {warm_bytes} B, largest block {largest} B"
        );
        let mut want = 0;
        let (n, _, _) = allocations_of(|| {
            for pt in &repo.tables {
                let enc = model.encode_table_with(pt, &mut scratch);
                want += enc.len() + 1;
            }
        });
        assert_eq!(
            n,
            want,
            "da={da}: {} tables through a warm scratch",
            repo.len()
        );

        let queries = common::queries(&model, &tables, 16, 42);
        let widest = queries
            .iter()
            .max_by_key(|q| q.line_patches.len())
            .expect("queries");
        let mut scratch = EncodeScratch::default();
        let (_, warm_bytes, largest) = allocations_of(|| {
            model.encode_query_with(widest, &mut scratch);
        });
        assert!(
            largest < MMAP_THRESHOLD && warm_bytes < MMAP_THRESHOLD,
            "da={da}: warming the scratch on a query allocated {warm_bytes} B, largest block {largest} B"
        );
        let mut want = 0;
        let (n, _, _) = allocations_of(|| {
            for q in &queries {
                want += model.encode_query_with(q, &mut scratch).len() + 1;
            }
        });
        assert_eq!(
            n,
            want,
            "da={da}: {} queries through a warm scratch",
            queries.len()
        );
    }
}
