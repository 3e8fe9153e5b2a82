//! The blocked scorer against itself and against the tape path, on a
//! seeded corpus:
//!
//! * a candidate's score has the same bits alone, at every position of
//!   blocks of every size up to [`BLOCK`] among random block-mates (empty
//!   candidates included), and fanned out over 1, 2 and 4 threads;
//! * the exact-scan top 10 equals the ranking of the tape path
//!   ([`FcmModel::match_cached_centered`]) up to ties within 1e-5.

mod common;

use lcdd_fcm::fastscore::BLOCK;
use lcdd_fcm::input::filter_columns;
use lcdd_fcm::{search_top_k, FcmConfig, FcmModel, ProcessedTable, QueryScorer, ScoreScratch};
use lcdd_tensor::{pool, Matrix};
use rand::prelude::*;

/// A candidate with no columns: it scores 0 and stages no rows.
fn empty_table() -> ProcessedTable {
    ProcessedTable {
        table_id: u64::MAX,
        column_segments: Vec::new(),
        column_ranges: Vec::new(),
    }
}

#[test]
fn a_candidates_bits_do_not_depend_on_its_block_or_the_thread_count() {
    let model = FcmModel::new(FcmConfig::small());
    let (tables, repo) = common::corpus(&model, 24, 11);
    let empty = empty_table();
    let no_encodings: Vec<Matrix> = Vec::new();
    // Candidate `repo.len()` is the empty one.
    let parts = |&i: &usize| {
        if i < repo.len() {
            (&repo.tables[i].column_ranges[..], &repo.encodings[i][..])
        } else {
            (&empty.column_ranges[..], &no_encodings[..])
        }
    };
    let ids: Vec<usize> = (0..=repo.len()).collect();
    let center = &repo.pooled_mean;
    let mut rng = StdRng::seed_from_u64(5);
    // One scratch for everything: stale contents from a differently
    // shaped block must not leak into the next.
    let mut scratch = ScoreScratch::default();
    let resolved = pool::num_threads();
    for query in common::queries(&model, &tables, 4, 12) {
        let ev = model.encode_query_values(&query);
        let scorer = QueryScorer::new(&model, &ev);
        let alone: Vec<u32> = ids
            .iter()
            .map(|&i| {
                let mut out = [0.0];
                scorer.score_into(
                    &[i],
                    &query,
                    center,
                    &mut ScoreScratch::default(),
                    &mut out,
                    parts,
                );
                out[0].to_bits()
            })
            .collect();
        assert_eq!(alone[repo.len()], 0.0f32.to_bits(), "empty candidate");
        for b in 1..=BLOCK {
            for pos in 0..b {
                for &i in &ids {
                    let mut block: Vec<usize> =
                        (0..b).map(|_| rng.gen_range(0..ids.len())).collect();
                    block[pos] = i;
                    let mut out = vec![0.0; b];
                    scorer.score_into(&block, &query, center, &mut scratch, &mut out, parts);
                    for (&id, s) in block.iter().zip(&out) {
                        assert_eq!(s.to_bits(), alone[id], "candidate {id} in {block:?}");
                    }
                }
            }
        }
        let mut shuffled = ids.clone();
        shuffled.shuffle(&mut rng);
        for threads in [1, 2, 4] {
            pool::force_threads(threads);
            for order in [&ids, &shuffled] {
                let scores = scorer.score_all(order, &query, center, parts);
                for (&id, s) in order.iter().zip(&scores) {
                    assert_eq!(
                        s.to_bits(),
                        alone[id],
                        "candidate {id} at {threads} threads"
                    );
                }
            }
        }
        pool::force_threads(resolved);
    }
}

#[test]
fn exact_scan_top_10_matches_the_tape_ranking() {
    let model = FcmModel::new(FcmConfig::small());
    let (tables, repo) = common::corpus(&model, 40, 21);
    let queries = common::queries(&model, &tables, 32, 22);
    for (q, query) in queries.iter().enumerate() {
        let ev = model.encode_query_values(query);
        let tape: Vec<f32> = (0..repo.len())
            .map(|t| {
                let cols = filter_columns(&repo.tables[t], query.y_range, model.config.range_slack);
                let et: Vec<Matrix> = cols.iter().map(|&c| repo.encodings[t][c].clone()).collect();
                model.match_cached_centered(&ev, &et, Some(&repo.pooled_mean))
            })
            .collect();
        let mut tape_ranking: Vec<usize> = (0..repo.len()).collect();
        tape_ranking.sort_by(|&a, &b| tape[b].total_cmp(&tape[a]));
        let fast = search_top_k(&model, &repo, query, 10, None);
        assert_eq!(fast.len(), 10);
        for (rank, (&(id, score), &tape_id)) in fast.iter().zip(&tape_ranking).enumerate() {
            assert!(
                (score - tape[id]).abs() <= 1e-5,
                "query {q}: table {id} scores {score} blocked, {} on the tape",
                tape[id]
            );
            assert!(
                id == tape_id || (tape[id] - tape[tape_id]).abs() <= 1e-5,
                "query {q} rank {rank}: blocked ranks table {id} ({}), the tape table {tape_id} ({})",
                tape[id],
                tape[tape_id]
            );
        }
    }
}
