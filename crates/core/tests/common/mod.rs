//! A seeded corpus for the scorer's integration tests: random-walk tables
//! of 1–4 columns, and chart queries of one or two lines rendered from
//! (rippled) corpus columns and read back with the oracle extractor.

use lcdd_chart::{render, ChartStyle};
use lcdd_fcm::{encode_repository, process_query, EncodedRepository, FcmModel, ProcessedQuery};
use lcdd_table::series::{DataSeries, UnderlyingData};
use lcdd_table::{Column, Table};
use lcdd_vision::VisualElementExtractor;
use rand::prelude::*;

fn walk(rng: &mut StdRng, len: usize) -> Vec<f64> {
    let scale = rng.gen_range(0.5..20.0);
    let mut v = rng.gen_range(-10.0..10.0);
    (0..len)
        .map(|_| {
            v += rng.gen_range(-1.0..1.0) * scale * 0.1;
            v
        })
        .collect()
}

/// `n` tables with 1, 2 or 4 columns of 120 points, encoded.
pub fn corpus(model: &FcmModel, n: usize, seed: u64) -> (Vec<Table>, EncodedRepository) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tables: Vec<Table> = (0..n)
        .map(|i| {
            let n_cols = [1, 1, 2, 4][rng.gen_range(0..4)];
            let columns = (0..n_cols)
                .map(|c| Column::new(format!("c{c}"), walk(&mut rng, 120)))
                .collect();
            Table::new(i as u64, format!("t{i}"), columns)
        })
        .collect();
    let repo = encode_repository(model, &tables);
    (tables, repo)
}

/// `n` queries: one or two columns of a random table, each multiplied by a
/// small ripple, rendered and extracted.
pub fn queries(model: &FcmModel, tables: &[Table], n: usize, seed: u64) -> Vec<ProcessedQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let extractor = VisualElementExtractor::oracle();
    (0..n)
        .map(|q| {
            let t = &tables[rng.gen_range(0..tables.len())];
            let n_lines = if rng.gen_bool(0.3) { 2 } else { 1 };
            let series = (0..n_lines)
                .map(|l| {
                    let col = &t.columns[(l + rng.gen_range(0..t.columns.len())) % t.columns.len()];
                    let depth = rng.gen_range(0.0..0.05);
                    let values = col
                        .values
                        .iter()
                        .enumerate()
                        .map(|(i, v)| v * (1.0 + depth * (i as f64 * 0.2).sin()))
                        .collect();
                    DataSeries::new(format!("q{q}.{l}"), values)
                })
                .collect();
            let chart = render(&UnderlyingData { series }, &ChartStyle::default());
            process_query(&extractor.extract(&chart), &model.config)
        })
        .collect()
}
