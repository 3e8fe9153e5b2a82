//! Concurrent reader/writer harness for the serving engines.
//!
//! The harness runs N reader threads in a tight search loop against a
//! [`ReadHalf`] — a [`ServingEngine`]'s or a durable store's — while one
//! writer thread applies a scripted mutation sequence through the
//! engine's own write path. Along the way it checks the serving contract:
//!
//! * **per-response internal consistency** — every response must be
//!   self-consistent with exactly one published epoch: its `counts.total`
//!   must equal the corpus size *at that epoch*, its hit indices must
//!   address that corpus, hit counts must respect `k`, and scores must
//!   never be NaN;
//! * **monotone publication** — a single reader thread must never observe
//!   the epoch go backwards;
//! * **serial equivalence** — after the writer finishes and readers join,
//!   the published state must answer queries hit-for-hit identically to a
//!   plain [`Engine`] that applied the same ops serially (the caller
//!   asserts this with [`crate::assert_same_hits`]).
//!
//! Epoch → corpus-size bookkeeping works without instrumenting the engine:
//! every mutation bumps the epoch by exactly one, so the writer records
//! `(epoch_after_op, len_after_op)` after each op and the map is total.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Mutex;

use lcdd_engine::{Engine, EngineError, Query, ReadHalf, SearchOptions, ServingEngine};

use crate::crash::{apply_serial, ScriptedOp};

/// What one harness run observed.
#[derive(Clone, Debug, Default)]
pub struct SessionReport {
    /// Total successful responses across all readers.
    pub responses: usize,
    /// Total erroneous (but non-panicking) responses.
    pub errors: usize,
    /// Distinct epochs readers actually observed.
    pub epochs_observed: Vec<u64>,
    /// Responses served from the query cache.
    pub cached_responses: usize,
}

/// [`run_concurrent_session_with`] over a [`ServingEngine`], whose writer
/// applies each op inside [`ServingEngine::write`].
pub fn run_concurrent_session(
    serving: &ServingEngine,
    ops: &[ScriptedOp],
    queries: &[Query],
    opts: &SearchOptions,
    n_readers: usize,
    min_queries_per_reader: usize,
) -> SessionReport {
    let apply = |op: &ScriptedOp| {
        let Ok(()) = serving.write(|e| {
            apply_serial(e, op);
            Ok::<_, Infallible>(())
        });
    };
    let min = min_queries_per_reader;
    run_concurrent_session_with(serving, apply, ops, queries, opts, n_readers, min)
}

/// Drives `n_readers` query loops on `reads` concurrently with a writer
/// passing `ops` in order to `apply` (which must write through the engine
/// `reads` belongs to), validating every response against the epoch
/// ledger. Returns what was observed; panics (inside a reader/writer
/// thread, which propagates) on any contract violation.
///
/// Readers keep querying until the writer finishes *and* each has issued
/// at least `min_queries_per_reader` searches, so short op scripts still
/// exercise cross-epoch interleavings.
pub fn run_concurrent_session_with(
    reads: &ReadHalf,
    mut apply: impl FnMut(&ScriptedOp),
    ops: &[ScriptedOp],
    queries: &[Query],
    opts: &SearchOptions,
    n_readers: usize,
    min_queries_per_reader: usize,
) -> SessionReport {
    assert!(!queries.is_empty(), "harness needs at least one query");
    // Epoch ledger: epoch -> corpus size. The initial epoch is known up
    // front; each op appends its (epoch, len) after it returns. Readers
    // may observe an epoch a beat before the ledger records it (publish
    // happens inside the op), so they buffer observations and the ledger
    // is checked after the join, when it is complete.
    let ledger: Mutex<HashMap<u64, usize>> =
        Mutex::new(HashMap::from([(reads.epoch(), reads.len())]));
    let writer_done = AtomicBool::new(false);
    let observations: Mutex<Vec<(u64, usize)>> = Mutex::new(Vec::new());
    let report: Mutex<SessionReport> = Mutex::new(SessionReport::default());

    std::thread::scope(|scope| {
        for reader in 0..n_readers {
            let writer_done = &writer_done;
            let observations = &observations;
            let report = &report;
            scope.spawn(move || {
                let mut local_obs = Vec::new();
                let mut last_epoch = 0u64;
                let mut issued = 0usize;
                let (mut ok, mut errs, mut cached) = (0usize, 0usize, 0usize);
                while !writer_done.load(SeqCst) || issued < min_queries_per_reader {
                    let q = &queries[(reader + issued) % queries.len()];
                    issued += 1;
                    match reads.search(q, opts) {
                        Ok(resp) => {
                            assert!(
                                resp.epoch >= last_epoch,
                                "reader {reader} saw epoch regress {last_epoch} -> {}",
                                resp.epoch
                            );
                            last_epoch = resp.epoch;
                            assert!(
                                resp.hits.len() <= opts.k,
                                "response exceeded k: {} > {}",
                                resp.hits.len(),
                                opts.k
                            );
                            assert!(
                                resp.counts.scored <= resp.counts.total,
                                "scored {} candidates out of a corpus of {}",
                                resp.counts.scored,
                                resp.counts.total
                            );
                            for hit in &resp.hits {
                                assert!(
                                    hit.index < resp.counts.total,
                                    "hit index {} outside epoch-{} corpus of {}",
                                    hit.index,
                                    resp.epoch,
                                    resp.counts.total
                                );
                                assert!(
                                    !hit.score.is_nan(),
                                    "NaN score surfaced as a hit at epoch {}",
                                    resp.epoch
                                );
                            }
                            local_obs.push((resp.epoch, resp.counts.total));
                            ok += 1;
                            cached += usize::from(resp.cached);
                        }
                        Err(EngineError::EmptyQuery | EngineError::UnsupportedQuery(_)) => {
                            errs += 1;
                        }
                        Err(e) => panic!("reader {reader}: unexpected engine error: {e:?}"),
                    }
                }
                observations
                    .lock()
                    .expect("harness mutex")
                    .extend(local_obs);
                let mut r = report.lock().expect("harness mutex");
                r.responses += ok;
                r.errors += errs;
                r.cached_responses += cached;
            });
        }

        // The single writer.
        for op in ops {
            apply(op);
            ledger
                .lock()
                .expect("harness mutex")
                .insert(reads.epoch(), reads.len());
        }
        writer_done.store(true, SeqCst);
    });

    // Join complete: the ledger is total, validate every observation.
    let ledger = ledger.into_inner().expect("harness mutex");
    let observations = observations.into_inner().expect("harness mutex");
    let mut epochs: Vec<u64> = Vec::new();
    for (epoch, total) in observations {
        let expect = ledger.get(&epoch).unwrap_or_else(|| {
            panic!("response reported epoch {epoch}, which the writer never published")
        });
        assert_eq!(
            *expect, total,
            "epoch {epoch}: response saw a corpus of {total}, writer recorded {expect} \
             (response mixed two epochs)"
        );
        epochs.push(epoch);
    }
    epochs.sort_unstable();
    epochs.dedup();
    let mut report = report.into_inner().expect("harness mutex");
    report.epochs_observed = epochs;
    report
}

/// Serially replays `ops` onto `engine` (the equivalence reference for
/// [`run_concurrent_session`]).
pub fn replay_serial(engine: &mut Engine, ops: &[ScriptedOp]) {
    for op in ops {
        apply_serial(engine, op);
    }
}
