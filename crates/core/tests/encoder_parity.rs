//! The tape-free encoders against the tape encoders they replace at
//! inference: `FcmModel::encode_table_values` must give, bit for bit, what
//! `DatasetEncoder::encode_column` computes on the tape for each column,
//! and `FcmModel::encode_query_values` what `ChartEncoder::encode_line`
//! computes for each line — at `FcmConfig::tiny()` and `small()` (and
//! HMRL depths 0 and 3), with and without the DA layers, for tables of 1
//! to 9 columns of ragged raw lengths and charts of 1 to 3 lines (5 for
//! the stacking groups).
//!
//! Every parameter is perturbed first, so zero biases, unit LayerNorm
//! gains and zero LayerNorm shifts cannot hide a term the value path drops
//! or adds twice.

use lcdd_chart::{render, ChartStyle};
use lcdd_fcm::{
    column_to_segments, process_query, FcmConfig, FcmModel, ProcessedQuery, ProcessedTable,
};
use lcdd_table::series::{DataSeries, UnderlyingData};
use lcdd_tensor::{Matrix, Tape};
use lcdd_vision::VisualElementExtractor;
use rand::prelude::*;

/// A model of `cfg` (DA on or off) whose parameters all carry noise.
fn model(mut cfg: FcmConfig, da: bool) -> FcmModel {
    cfg.da_enabled = da;
    let mut model = FcmModel::new(cfg);
    let mut rng = StdRng::seed_from_u64(99);
    let params: Vec<(String, Matrix)> = model
        .store
        .iter()
        .map(|(name, m)| {
            let mut noisy = m.clone();
            for x in noisy.as_mut_slice() {
                *x += rng.gen_range(-0.05..0.05);
            }
            (name.to_string(), noisy)
        })
        .collect();
    for (name, m) in params {
        assert_eq!(model.store.assign(&name, m), Ok(true), "{name}");
    }
    model
}

fn configs() -> [(&'static str, FcmConfig); 2] {
    [("tiny", FcmConfig::tiny()), ("small", FcmConfig::small())]
}

fn walk(rng: &mut StdRng, len: usize) -> Vec<f64> {
    let mut v = rng.gen_range(-10.0..10.0);
    (0..len)
        .map(|_| {
            v += rng.gen_range(-1.0..1.0);
            v
        })
        .collect()
}

fn assert_same_bits(value: &[Matrix], tape: &[Matrix], ctx: &str) {
    assert_eq!(value.len(), tape.len(), "{ctx}: count");
    for (i, (v, t)) in value.iter().zip(tape).enumerate() {
        assert_eq!(v.shape(), t.shape(), "{ctx}: item {i} shape");
        for (j, (a, b)) in v.as_slice().iter().zip(t.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: item {i} element {j}: value {a} vs tape {b}"
            );
        }
    }
}

#[test]
fn table_encodings_have_the_tape_bits() {
    let mut rng = StdRng::seed_from_u64(7);
    // HMRL depth 0 (no combiner level) and 3 (two levels between the
    // leaves and the root) beside the configs' depth 2.
    let mut flat = FcmConfig::tiny();
    flat.beta = 0;
    let mut deep = FcmConfig::tiny();
    deep.beta = 3;
    let depths = [("tiny beta=0", flat), ("tiny beta=3", deep)];
    for (name, cfg) in configs().into_iter().chain(depths) {
        for da in [true, false] {
            let model = model(cfg.clone(), da);
            // 5 and 9 columns span more than one stacking group.
            for n_cols in [1, 2, 4, 5, 9] {
                // Ragged raw columns, shorter and longer than column_len
                // (a `Table` holds equal-length columns, so the processed
                // table is assembled column by column).
                let raw: Vec<Vec<f64>> = (0..n_cols)
                    .map(|c| walk(&mut rng, [3, 37, 120, 256, 700][(c + n_cols) % 5]))
                    .collect();
                let pt = ProcessedTable {
                    table_id: n_cols as u64,
                    column_segments: raw
                        .iter()
                        .map(|v| column_to_segments(v, &model.config))
                        .collect(),
                    column_ranges: vec![(0.0, 1.0); n_cols],
                };
                let tape = Tape::new();
                let want: Vec<Matrix> = pt
                    .column_segments
                    .iter()
                    .map(|c| {
                        model
                            .dataset_encoder
                            .encode_column(&model.store, &tape, c)
                            .0
                            .value()
                    })
                    .collect();
                let got = model.encode_table_values(&pt);
                assert_same_bits(&got, &want, &format!("{name} da={da} {n_cols} columns"));
            }
        }
    }
}

/// A chart of `n_lines` random walks, rendered and read back.
fn query(model: &FcmModel, rng: &mut StdRng, n_lines: usize) -> ProcessedQuery {
    let series = (0..n_lines)
        .map(|l| DataSeries::new(format!("l{l}"), walk(rng, 90 + 40 * l)))
        .collect();
    let chart = render(&UnderlyingData { series }, &ChartStyle::default());
    let q = process_query(
        &VisualElementExtractor::oracle().extract(&chart),
        &model.config,
    );
    assert_eq!(q.line_patches.len(), n_lines, "extractor lost a line");
    q
}

#[test]
fn query_encodings_have_the_tape_bits() {
    let mut rng = StdRng::seed_from_u64(8);
    for (name, cfg) in configs() {
        let model = model(cfg, true);
        let mut queries: Vec<ProcessedQuery> =
            (1..=3).map(|n| query(&model, &mut rng, n)).collect();
        // Five lines: more than one stacking group.
        let three = queries[2].line_patches.clone();
        let mut five = queries[1].clone();
        five.line_patches.extend(three);
        queries.push(five);
        for q in &queries {
            let tape = Tape::new();
            let want: Vec<Matrix> = q
                .line_patches
                .iter()
                .map(|p| {
                    model
                        .chart_encoder
                        .encode_line(&model.store, &tape, p)
                        .value()
                })
                .collect();
            let got = model.encode_query_values(q);
            let n = q.line_patches.len();
            assert_same_bits(&got, &want, &format!("{name}: {n} lines"));
        }
    }
}
