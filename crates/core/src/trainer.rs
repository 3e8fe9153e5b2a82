//! FCM training loop (paper Sec. V-E): mini-batch negative sampling against
//! ground-truth `Rel(D, T)`, class-balanced BCE (Eq. 2), Adam updates.

use lcdd_relevance::{rel_score, RelevanceConfig};
use lcdd_table::series::UnderlyingData;
use lcdd_table::Table;
use lcdd_tensor::{Adam, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::input::{filter_columns, process_table, ProcessedQuery, ProcessedTable};
use crate::model::FcmModel;
use crate::negatives::{select_negatives, NegativeStrategy};

/// One training triplet `(V, D, T)` (Def. 2): the processed chart query,
/// its underlying data, and the index of its source table.
pub struct TrainExample {
    pub query: ProcessedQuery,
    pub underlying: UnderlyingData,
    pub positive: usize,
}

/// Training hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub lr: f32,
    /// Negatives per positive (`N⁻`, paper default 3).
    pub n_neg: usize,
    /// Mini-batch size (negatives are drawn within the batch).
    pub batch_size: usize,
    pub strategy: NegativeStrategy,
    pub seed: u64,
    /// Ground-truth relevance configuration for negative ranking.
    pub rel_cfg: RelevanceConfig,
    /// Weight of the auxiliary contrastive alignment loss. The Eq. 2 BCE
    /// alone gives no direct pressure to align the two encoders' embedding
    /// spaces, and at CPU reproduction scale training stalls in the
    /// predict-0.5 saddle without it (the paper escapes it with 2.3M
    /// training records); an InfoNCE term over pooled encoder outputs
    /// provides the alignment gradient.
    pub aux_contrastive: f32,
    /// Temperature of the auxiliary contrastive term.
    pub aux_temperature: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            lr: 3e-3,
            n_neg: 3,
            batch_size: 12,
            strategy: NegativeStrategy::SemiHard,
            seed: 17,
            rel_cfg: RelevanceConfig::default(),
            aux_contrastive: 1.0,
            aux_temperature: 0.2,
        }
    }
}

/// Per-epoch statistics.
#[derive(Clone, Debug)]
pub struct TrainReport {
    pub epoch_losses: Vec<f32>,
    /// Values produced by the per-epoch callback (e.g. validation prec@k).
    pub epoch_metrics: Vec<f32>,
    /// Mean global gradient norm per epoch (optimisation diagnostics).
    pub epoch_grad_norms: Vec<f32>,
    /// Per-epoch `(bce, nce, mean cos(pos), mean cos(neg))` diagnostics.
    pub epoch_components: Vec<(f32, f32, f32, f32)>,
}

/// Precomputes `Rel(D_i, T_j)` for every example × candidate-table pair,
/// parallelised across queries.
pub fn relevance_matrix(
    examples: &[TrainExample],
    tables: &[Table],
    rel_cfg: &RelevanceConfig,
) -> Vec<Vec<f64>> {
    lcdd_tensor::pool::par_map(examples, |ex| {
        tables
            .iter()
            .map(|t| rel_score(&ex.underlying, t, rel_cfg))
            .collect()
    })
}

/// Trains the model. The callback runs after each epoch with
/// `(epoch, mean_loss, &model)` and returns a metric to record (use `0.0`
/// when not needed).
pub fn train_with_callback(
    model: &mut FcmModel,
    examples: &[TrainExample],
    tables: &[Table],
    cfg: &TrainConfig,
    mut callback: impl FnMut(usize, f32, &FcmModel) -> f32,
) -> TrainReport {
    assert!(!examples.is_empty(), "train: no examples");
    let processed: Vec<ProcessedTable> = tables
        .iter()
        .map(|t| process_table(t, &model.config))
        .collect();
    let rel = relevance_matrix(examples, tables, &cfg.rel_cfg);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut report = TrainReport {
        epoch_losses: Vec::new(),
        epoch_metrics: Vec::new(),
        epoch_grad_norms: Vec::new(),
        epoch_components: Vec::new(),
    };

    let mut order: Vec<usize> = (0..examples.len()).collect();
    for epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut epoch_bce = 0.0f32;
        let mut epoch_nce = 0.0f32;
        let mut epoch_cos_pos = 0.0f32;
        let mut epoch_cos_neg = 0.0f32;
        let mut epoch_norm = 0.0f32;
        let mut steps = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            for &qi in batch {
                let ex = &examples[qi];
                // Candidate pool: positives of the other batch members.
                let pool: Vec<(usize, f64)> = batch
                    .iter()
                    .filter(|&&other| examples[other].positive != ex.positive)
                    .map(|&other| {
                        let t = examples[other].positive;
                        (t, rel[qi][t])
                    })
                    .collect();
                let negs = select_negatives(cfg.strategy, &pool, cfg.n_neg, &mut rng);

                let candidates: Vec<(&ProcessedTable, f32)> =
                    std::iter::once((&processed[ex.positive], 1.0f32))
                        .chain(negs.iter().map(|&ni| (&processed[ni], 0.0f32)))
                        .collect();
                let step = train_step(model, &mut opt, cfg, &ex.query, &candidates);
                epoch_bce += step.bce;
                if let Some((nce, cos_pos, cos_neg)) = step.aux {
                    epoch_cos_pos += cos_pos;
                    epoch_cos_neg += cos_neg;
                    epoch_nce += nce;
                }
                epoch_norm += step.grad_norm;
                epoch_loss += step.loss;
                steps += 1;
            }
        }
        let n_steps = steps.max(1) as f32;
        let mean_loss = epoch_loss / n_steps;
        report.epoch_losses.push(mean_loss);
        report.epoch_grad_norms.push(epoch_norm / n_steps);
        report.epoch_components.push((
            epoch_bce / n_steps,
            epoch_nce / n_steps,
            epoch_cos_pos / n_steps,
            epoch_cos_neg / n_steps,
        ));
        report.epoch_metrics.push(callback(epoch, mean_loss, model));
    }
    report
}

/// What one [`train_step`] measured.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// The loss the step minimised: BCE plus the weighted auxiliary term.
    pub loss: f32,
    /// The class-balanced BCE of Eq. 2.
    pub bce: f32,
    /// `(InfoNCE loss, cos(positive), mean cos(negatives))` of the
    /// auxiliary alignment term, when it ran.
    pub aux: Option<(f32, f32, f32)>,
    /// Global gradient norm of the update.
    pub grad_norm: f32,
}

/// One training step on one example, on a fresh tape: encodes the query
/// and each candidate table (only the columns in the query's y-range),
/// scores every candidate, and steps `opt` once on the class-balanced BCE
/// plus the auxiliary alignment term. `candidates` pairs each table with
/// its label, 1 for the positive and 0 for a negative.
pub fn train_step(
    model: &mut FcmModel,
    opt: &mut Adam,
    cfg: &TrainConfig,
    query: &ProcessedQuery,
    candidates: &[(&ProcessedTable, f32)],
) -> StepStats {
    let tape = Tape::new();
    // Encode the query once; every candidate shares the nodes.
    let ev = model
        .chart_encoder
        .encode_chart(&model.store, &tape, &query.line_patches);
    let v_pooled = Var::concat_rows(&ev).mean_rows();

    // First pass: encode every candidate table.
    let mut labels: Vec<f32> = Vec::with_capacity(candidates.len());
    let mut ets: Vec<Vec<Var>> = Vec::with_capacity(candidates.len());
    let mut t_pooled: Vec<Var> = Vec::with_capacity(candidates.len());
    for &(pt, label) in candidates {
        let cols = filter_columns(pt, query.y_range, model.config.range_slack);
        let col_refs: Vec<&lcdd_tensor::Matrix> =
            cols.iter().map(|&c| &pt.column_segments[c]).collect();
        let et = model
            .dataset_encoder
            .encode_columns(&model.store, &tape, &col_refs);
        t_pooled.push(Var::concat_rows(&et).mean_rows());
        ets.push(et);
        labels.push(label);
    }
    // Second pass: logits, with the alignment term centered on the
    // in-batch candidate mean (matches inference, which centers on the
    // repository mean).
    let batch_center = Var::concat_rows(&t_pooled).mean_rows();
    let logits: Vec<Var> = ets
        .iter()
        .map(|et| {
            model.matcher.relevance_logit_centered(
                &model.store,
                &tape,
                &ev,
                et,
                Some(&batch_center),
            )
        })
        .collect();
    let logit_col = Var::concat_rows(&logits);
    let bce = lcdd_nn::balanced_bce_logits(&tape, &logit_col, &labels);
    let bce_value = bce.scalar();
    let mut loss = bce;
    let mut aux = None;
    if cfg.aux_contrastive > 0.0 && t_pooled.len() > 1 {
        // Centre candidate embeddings across the candidate set:
        // positional embeddings and projection biases pool into a
        // per-modality constant direction that otherwise dominates every
        // cosine and starves the gradient.
        let t_centered: Vec<Var> = t_pooled.iter().map(|t| t.sub(&batch_center)).collect();
        let sims = lcdd_nn::cosine_scores(&v_pooled, &t_centered);
        let sv = sims.value();
        let cos_neg =
            (1..sv.cols()).map(|j| sv.get(0, j)).sum::<f32>() / (sv.cols() - 1).max(1) as f32;
        let nce = lcdd_nn::contrastive_nce(&tape, &sims, 0, cfg.aux_temperature);
        aux = Some((nce.scalar(), sv.get(0, 0), cos_neg));
        loss = loss.add(&nce.scale(cfg.aux_contrastive));
    }
    tape.backward(&loss);
    let grad_norm = model.store.apply_grads(&tape, opt);
    StepStats {
        loss: loss.scalar(),
        bce: bce_value,
        aux,
        grad_norm,
    }
}

/// Trains without a per-epoch callback.
pub fn train(
    model: &mut FcmModel,
    examples: &[TrainExample],
    tables: &[Table],
    cfg: &TrainConfig,
) -> TrainReport {
    train_with_callback(model, examples, tables, cfg, |_, _, _| 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FcmConfig;
    use crate::input::process_query;
    use lcdd_chart::{render, ChartStyle};
    use lcdd_table::series::DataSeries;
    use lcdd_table::{Column, SeriesFamily};
    use lcdd_vision::VisualElementExtractor;

    /// Builds a tiny 6-table world with one query per table.
    fn tiny_world() -> (Vec<TrainExample>, Vec<Table>) {
        let mut rng = StdRng::seed_from_u64(99);
        let cfg = FcmConfig::tiny();
        let extractor = VisualElementExtractor::oracle();
        let mut tables = Vec::new();
        let mut examples = Vec::new();
        for i in 0..6 {
            let family = SeriesFamily::ALL[i % SeriesFamily::ALL.len()];
            let values = lcdd_table::generate(&mut rng, family, 96, 1.0, i as f64 * 10.0);
            let table = Table::new(
                i as u64,
                format!("t{i}"),
                vec![Column::new("a", values.clone())],
            );
            let underlying = UnderlyingData {
                series: vec![DataSeries::new("a", values)],
            };
            let chart = render(&underlying, &ChartStyle::default());
            let query = process_query(&extractor.extract(&chart), &cfg);
            if query.line_patches.is_empty() {
                continue;
            }
            examples.push(TrainExample {
                query,
                underlying,
                positive: tables.len(),
            });
            tables.push(table);
        }
        (examples, tables)
    }

    #[test]
    fn loss_decreases_over_training() {
        let (examples, tables) = tiny_world();
        let mut model = FcmModel::new(FcmConfig::tiny());
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 6,
            n_neg: 2,
            lr: 5e-3,
            ..Default::default()
        };
        let report = train(&mut model, &examples, &tables, &cfg);
        assert_eq!(report.epoch_losses.len(), 5);
        let first = report.epoch_losses.first().unwrap();
        let last = report.epoch_losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn trained_model_ranks_positive_above_random_negative() {
        let (examples, tables) = tiny_world();
        let mut model = FcmModel::new(FcmConfig::tiny());
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 6,
            n_neg: 2,
            lr: 1e-2,
            ..Default::default()
        };
        train(&mut model, &examples, &tables, &cfg);
        let mut wins = 0usize;
        let mut total = 0usize;
        for ex in &examples {
            let pos = model.score_table(&ex.query, &tables[ex.positive]);
            for (ti, t) in tables.iter().enumerate() {
                if ti != ex.positive {
                    total += 1;
                    wins += usize::from(pos > model.score_table(&ex.query, t));
                }
            }
        }
        let rate = wins as f64 / total as f64;
        assert!(rate > 0.6, "positive-over-negative win rate only {rate}");
    }

    #[test]
    fn relevance_matrix_shape_and_diagonal_dominance() {
        let (examples, tables) = tiny_world();
        let rel = relevance_matrix(&examples, &tables, &RelevanceConfig::default());
        assert_eq!(rel.len(), examples.len());
        for (qi, row) in rel.iter().enumerate() {
            assert_eq!(row.len(), tables.len());
            let pos = examples[qi].positive;
            let best = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(best, pos, "query {qi}: source table must maximise Rel(D,T)");
        }
    }

    #[test]
    fn callback_collects_metrics() {
        let (examples, tables) = tiny_world();
        let mut model = FcmModel::new(FcmConfig::tiny());
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 6,
            n_neg: 1,
            ..Default::default()
        };
        let report = train_with_callback(&mut model, &examples, &tables, &cfg, |e, _, _| e as f32);
        assert_eq!(report.epoch_metrics, vec![0.0, 1.0]);
    }
}
