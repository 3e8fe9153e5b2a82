//! Repository encoding and top-k search with a trained FCM model.
//!
//! Dataset encodings are query-independent, so the repository is encoded
//! once (in parallel) and cached; each query then runs the matcher against
//! cached `ET` matrices — the linear-scan path that Sec. VI's indexes prune.

use lcdd_table::Table;
use lcdd_tensor::{pool, Matrix};

use crate::fastscore::QueryScorer;
use crate::input::{process_table, ProcessedQuery, ProcessedTable};
use crate::model::{EncodeScratch, FcmModel};

/// A repository with cached dataset-encoder outputs.
#[derive(Clone)]
pub struct EncodedRepository {
    pub tables: Vec<ProcessedTable>,
    /// Per table, per column: `N2 x K` segment representations.
    pub encodings: Vec<Vec<Matrix>>,
    /// Mean over all tables of the pooled (all-column, all-segment) table
    /// embedding — the centering reference for the matcher's alignment
    /// term.
    pub pooled_mean: Matrix,
}

impl EncodedRepository {
    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// Mean-pooled column embedding of one `N2 x K` encoding (`K` floats) —
/// what the LSH index hashes (Sec. VI-A: "derive its representation EC by
/// averaging all representations of segments belonging to that column").
/// Index builds and segment-image writers both derive it here, so an
/// index rebuilt from an image hashes the vectors a fresh build does.
pub fn column_embedding(m: &Matrix) -> Vec<f32> {
    let (rows, cols) = m.shape();
    let mut out = vec![0.0f32; cols];
    // A zero-row encoding has no segments to average; dividing by
    // `rows as f32 == 0.0` would hand NaNs to the LSH index, whose
    // signature bits then poison every bucket they touch.
    if rows == 0 {
        return out;
    }
    for r in 0..rows {
        for (o, &v) in out.iter_mut().zip(m.row(r)) {
            *o += v;
        }
    }
    for o in &mut out {
        *o /= rows as f32;
    }
    out
}

/// Preprocesses and encodes a batch of tables in parallel (the model is
/// read-only and `Sync`): one chunk of tables per pool worker, each
/// preprocessed and encoded through the chunk's own [`EncodeScratch`].
/// This is the shared ingest kernel: full repository builds and live delta
/// ingest both encode through here, and a table's encoding never depends
/// on what else is in the batch or its chunk.
pub fn encode_tables(
    model: &FcmModel,
    tables: &[Table],
) -> (Vec<ProcessedTable>, Vec<Vec<Matrix>>) {
    // One scratch per chunk, not per thread: the pool spawns its threads
    // per call, so a thread-local would start cold every time anyway.
    pool::par_chunks(tables, |_, chunk| {
        let mut scratch = EncodeScratch::default();
        chunk
            .iter()
            .map(|t| {
                let pt = process_table(t, &model.config);
                let enc = model.encode_table_with(&pt, &mut scratch);
                (pt, enc)
            })
            .collect()
    })
    .into_iter()
    .unzip()
}

/// Mean over tables of the pooled (all-column, all-segment) table embedding
/// — the centering reference for the matcher's alignment term.
///
/// The accumulation order is exactly the iteration order of `encodings`;
/// callers that need bit-identical results across layouts (the sharded
/// engine, snapshot restore) must iterate tables in the same global order.
pub fn pooled_mean_of<'a>(
    encodings: impl IntoIterator<Item = &'a Vec<Matrix>>,
    k: usize,
) -> Matrix {
    let mut pooled_mean = Matrix::zeros(1, k);
    let mut count = 0usize;
    for table_enc in encodings {
        if table_enc.is_empty() {
            continue;
        }
        let mut t_pool = vec![0.0f32; k];
        let mut rows = 0usize;
        for col in table_enc {
            for r in 0..col.rows() {
                for (acc, &v) in t_pool.iter_mut().zip(col.row(r)) {
                    *acc += v;
                }
            }
            rows += col.rows();
        }
        if rows > 0 {
            for (m, v) in pooled_mean.as_mut_slice().iter_mut().zip(&t_pool) {
                *m += v / rows as f32;
            }
            count += 1;
        }
    }
    if count > 0 {
        pooled_mean.scale_assign(1.0 / count as f32);
    }
    pooled_mean
}

/// Encodes every table in parallel and assembles the cached repository.
pub fn encode_repository(model: &FcmModel, tables: &[Table]) -> EncodedRepository {
    let (processed, encodings) = encode_tables(model, tables);
    let pooled_mean = pooled_mean_of(&encodings, model.config.embed_dim);
    EncodedRepository {
        tables: processed,
        encodings,
        pooled_mean,
    }
}

/// Scores the query against one cached table, centering with the
/// repository's own `pooled_mean`.
pub fn score_against(
    model: &FcmModel,
    repo: &EncodedRepository,
    ev: &[Matrix],
    query: &ProcessedQuery,
    table_idx: usize,
) -> f32 {
    score_against_centered(model, repo, ev, query, table_idx, &repo.pooled_mean)
}

/// Scores the query against one cached table with an explicit centering
/// reference. The sharded engine keeps the repository-mean embedding at the
/// corpus level (one value for every shard layout) rather than mirroring it
/// into each shard's repository slice, so its hot path passes the global
/// mean through here.
pub fn score_against_centered(
    model: &FcmModel,
    repo: &EncodedRepository,
    ev: &[Matrix],
    query: &ProcessedQuery,
    table_idx: usize,
    pooled_mean: &Matrix,
) -> f32 {
    if ev.is_empty() {
        return 0.0;
    }
    QueryScorer::new(model, ev).score_table(repo, query, table_idx, pooled_mean)
}

/// Top-k search over the repository (or a candidate subset), parallelised.
/// Returns `(table_index, score)` descending by score.
pub fn search_top_k(
    model: &FcmModel,
    repo: &EncodedRepository,
    query: &ProcessedQuery,
    k: usize,
    candidates: Option<&[usize]>,
) -> Vec<(usize, f32)> {
    if query.line_patches.is_empty() {
        return Vec::new();
    }
    let ev = model.encode_query_values(query);
    let indices: Vec<usize> = match candidates {
        Some(c) => c.to_vec(),
        None => (0..repo.len()).collect(),
    };
    // One scorer for the whole scan: the query-side hoists are computed
    // once, then every candidate is scored tape-free in blocks across the
    // pool. A candidate's score is a pure function of (query, candidate,
    // center), so the fan-out is thread-count invariant.
    let scorer = QueryScorer::new(model, &ev);
    let scores = scorer.score_all(&indices, query, &repo.pooled_mean, |&ti| {
        (&repo.tables[ti].column_ranges[..], &repo.encodings[ti][..])
    });
    let mut scored: Vec<(usize, f32)> = indices.into_iter().zip(scores).collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FcmConfig;
    use crate::input::process_query;
    use lcdd_chart::{render, ChartStyle};
    use lcdd_table::series::{DataSeries, UnderlyingData};
    use lcdd_table::Column;
    use lcdd_vision::VisualElementExtractor;

    fn world() -> (FcmModel, Vec<Table>, ProcessedQuery) {
        let model = FcmModel::new(FcmConfig::tiny());
        let tables: Vec<Table> = (0..5)
            .map(|i| {
                let vals: Vec<f64> = (0..80)
                    .map(|j| ((j + i * 13) as f64 / 7.0).sin() * (i + 1) as f64)
                    .collect();
                Table::new(i as u64, format!("t{i}"), vec![Column::new("c", vals)])
            })
            .collect();
        let data = UnderlyingData {
            series: vec![DataSeries::new("q", tables[2].columns[0].values.clone())],
        };
        let chart = render(&data, &ChartStyle::default());
        let q = process_query(
            &VisualElementExtractor::oracle().extract(&chart),
            &model.config,
        );
        (model, tables, q)
    }

    #[test]
    fn repository_encodes_all_tables() {
        let (model, tables, _) = world();
        let repo = encode_repository(&model, &tables);
        assert_eq!(repo.len(), 5);
        for t in 0..5 {
            assert_eq!(repo.encodings[t].len(), 1);
            assert_eq!(
                repo.encodings[t][0].shape(),
                (model.config.n_data_segments(), model.config.embed_dim)
            );
        }
    }

    #[test]
    fn column_embedding_is_segment_mean() {
        let (model, tables, _) = world();
        let repo = encode_repository(&model, &tables);
        let emb = column_embedding(&repo.encodings[0][0]);
        assert_eq!(emb.len(), model.config.embed_dim);
        let m = &repo.encodings[0][0];
        let expect: f32 = (0..m.rows()).map(|r| m.get(r, 0)).sum::<f32>() / m.rows() as f32;
        assert!((emb[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn zero_row_encoding_yields_finite_zero_embedding() {
        // Regression: a column with no segment rows used to divide by zero
        // and feed NaNs into the LSH index.
        let emb = column_embedding(&Matrix::zeros(0, 8));
        assert_eq!(emb, vec![0.0; 8]);
        assert!(emb.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn search_returns_ranked_k() {
        let (model, tables, q) = world();
        let repo = encode_repository(&model, &tables);
        let top = search_top_k(&model, &repo, &q, 3, None);
        assert_eq!(top.len(), 3);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn candidate_subset_respected() {
        let (model, tables, q) = world();
        let repo = encode_repository(&model, &tables);
        let top = search_top_k(&model, &repo, &q, 10, Some(&[1, 3]));
        assert_eq!(top.len(), 2);
        assert!(top.iter().all(|&(i, _)| i == 1 || i == 3));
    }
}
