//! A table's encodings do not depend on how it was batched: encoded alone,
//! through one scratch among random chunk-mates, and through
//! `encode_tables` at 1, 2 and 4 threads, every column has the same bits —
//! and each table is counted by `table_encode_count` exactly once per
//! encode. Likewise a query line's encoding does not depend on the other
//! lines stacked with it.
//!
//! Single-test binary on purpose: the encode counter is process-wide, so a
//! sibling test encoding tables concurrently would break the exact counts.

mod common;

use lcdd_fcm::{
    encode_tables, process_table, table_encode_count, EncodeScratch, FcmConfig, FcmModel,
};
use lcdd_tensor::{pool, Matrix};
use rand::prelude::*;

fn bits(enc: &[Matrix]) -> Vec<Vec<u32>> {
    enc.iter()
        .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn encodings_do_not_depend_on_chunk_mates_or_thread_count() {
    let model = FcmModel::new(FcmConfig::small());
    let (tables, _) = common::corpus(&model, 40, 17);

    let before = table_encode_count();
    let alone: Vec<Vec<Vec<u32>>> = tables
        .iter()
        .map(|t| bits(&model.encode_table_values(&process_table(t, &model.config))))
        .collect();
    assert_eq!(table_encode_count() - before, tables.len() as u64);

    // One scratch for every chunk: stale contents from differently shaped
    // chunk-mates must not leak into a table's encoding.
    let mut rng = StdRng::seed_from_u64(3);
    let mut scratch = EncodeScratch::default();
    for (i, t) in tables.iter().enumerate() {
        let mut chunk: Vec<usize> = (0..rng.gen_range(0..6))
            .map(|_| rng.gen_range(0..tables.len()))
            .collect();
        chunk.insert(rng.gen_range(0..=chunk.len()), i);
        let before = table_encode_count();
        for &j in &chunk {
            let pt = process_table(&tables[j], &model.config);
            let enc = model.encode_table_with(&pt, &mut scratch);
            if j == i {
                assert_eq!(bits(&enc), alone[i], "table {} in chunk {chunk:?}", t.id);
            }
        }
        assert_eq!(table_encode_count() - before, chunk.len() as u64);
    }

    let resolved = pool::num_threads();
    for threads in [1, 2, 4] {
        pool::force_threads(threads);
        let before = table_encode_count();
        let (processed, encodings) = encode_tables(&model, &tables);
        assert_eq!(
            table_encode_count() - before,
            tables.len() as u64,
            "{threads} threads"
        );
        assert_eq!(processed.len(), tables.len());
        for (i, enc) in encodings.iter().enumerate() {
            assert_eq!(processed[i].table_id, tables[i].id);
            assert_eq!(bits(enc), alone[i], "table {i} at {threads} threads");
        }
    }
    pool::force_threads(resolved);

    // Query lines are stacked the same way: each line alone, as a
    // one-line query, has the bits it has inside its chart.
    let mut scratch = EncodeScratch::default();
    for query in common::queries(&model, &tables, 12, 18) {
        let stacked = model.encode_query_with(&query, &mut scratch);
        for (l, patches) in query.line_patches.iter().enumerate() {
            let mut one = query.clone();
            one.line_patches = vec![patches.clone()];
            let alone = model.encode_query_with(&one, &mut scratch);
            assert_eq!(bits(&alone), bits(&stacked[l..=l]), "line {l}");
        }
    }
}
