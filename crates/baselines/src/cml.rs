//! CML baseline (paper Sec. VII-B): state-of-the-art single-vector
//! encoders — a ViT-role image encoder for the chart and a TURL-role table
//! encoder — compared by cosine similarity. Trained contrastively on the
//! same triplets as FCM. Its defining limitation (and the paper's point):
//! one coarse embedding per modality, no fine-grained segment matching.

use lcdd_chart::RgbImage;
use lcdd_nn::{contrastive_nce, Linear, TransformerEncoder};
use lcdd_table::normalize::{resample, z_normalized};
use lcdd_table::{RepoEntry, Table};
use lcdd_tensor::{Adam, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::image_encoder::{cosine, cosine_scores, ImageEncoder, ImageEncoderConfig};
use crate::method::{DiscoveryMethod, QueryInput};

/// CML hyper-parameters.
#[derive(Clone, Debug)]
pub struct CmlConfig {
    pub image: ImageEncoderConfig,
    /// Length columns are resampled to before the table encoder.
    pub column_len: usize,
    pub epochs: usize,
    pub lr: f32,
    pub batch_size: usize,
    pub temperature: f32,
    pub seed: u64,
}

impl Default for CmlConfig {
    fn default() -> Self {
        CmlConfig {
            image: ImageEncoderConfig::default(),
            column_len: 64,
            epochs: 6,
            lr: 3e-3,
            batch_size: 12,
            temperature: 0.2,
            seed: 0xc31,
        }
    }
}

/// The trained CML model.
pub struct Cml {
    cfg: CmlConfig,
    store: ParamStore,
    image_encoder: ImageEncoder,
    col_proj: Linear,
    table_encoder: TransformerEncoder,
    /// Per-repository table embeddings built by [`DiscoveryMethod::prepare`].
    table_cache: Vec<Vec<f32>>,
}

/// Maximum columns the table encoder attends over.
const MAX_COLS: usize = 16;

impl Cml {
    /// Builds an untrained model.
    pub fn new(cfg: CmlConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let image_encoder = ImageEncoder::new(&mut store, &mut rng, "cml.img", cfg.image.clone());
        let col_proj = Linear::new(
            &mut store,
            &mut rng,
            "cml.tbl.proj",
            cfg.column_len,
            cfg.image.embed_dim,
            true,
        );
        let table_encoder = TransformerEncoder::new(
            &mut store,
            &mut rng,
            "cml.tbl.enc",
            cfg.image.embed_dim,
            cfg.image.n_heads,
            cfg.image.n_layers,
            cfg.image.ff_mult,
            MAX_COLS,
        );
        Cml {
            cfg,
            store,
            image_encoder,
            col_proj,
            table_encoder,
            table_cache: Vec::new(),
        }
    }

    fn table_tokens(&self, table: &Table) -> Matrix {
        let n = table.num_cols().clamp(1, MAX_COLS);
        let mut data = Vec::with_capacity(n * self.cfg.column_len);
        for c in table.columns.iter().take(n) {
            let r = resample(&c.values, self.cfg.column_len);
            // Zero-mean features: cosine retrieval degenerates when every
            // embedding shares a positive offset component.
            data.extend(z_normalized(&r).iter().map(|&v| v as f32));
        }
        if table.num_cols() == 0 {
            data = vec![0.0; self.cfg.column_len];
        }
        Matrix::from_vec(n.max(1), self.cfg.column_len, data)
    }

    fn embed_table_var(&self, tape: &Tape, table: &Table) -> Var {
        let tokens = self
            .col_proj
            .forward(&self.store, tape, &tape.leaf(self.table_tokens(table)));
        self.table_encoder
            .forward(&self.store, tape, &tokens)
            .mean_rows()
    }

    /// Pooled table embedding (inference).
    pub fn embed_table(&self, table: &Table) -> Vec<f32> {
        let tape = Tape::new();
        self.embed_table_var(&tape, table).value().into_vec()
    }

    /// Pooled chart embedding (inference).
    pub fn embed_chart(&self, img: &RgbImage) -> Vec<f32> {
        self.image_encoder.embed_image(&self.store, img)
    }

    /// Contrastive training on `(chart image, source table)` pairs: each
    /// chart's positive is its own table; in-batch tables act as negatives.
    /// Returns per-epoch mean losses.
    pub fn train(&mut self, pairs: &[(RgbImage, Table)]) -> Vec<f32> {
        assert!(!pairs.is_empty(), "Cml::train: no pairs");
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xbeef);
        let mut opt = Adam::new(self.cfg.lr);
        let patch_cache: Vec<Matrix> = pairs
            .iter()
            .map(|(img, _)| self.image_encoder.image_to_patches(img))
            .collect();
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        for _epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut steps = 0usize;
            for batch in order.chunks(self.cfg.batch_size) {
                if batch.len() < 2 {
                    continue;
                }
                let tape = Tape::new();
                let table_embs: Vec<Var> = batch
                    .iter()
                    .map(|&i| self.embed_table_var(&tape, &pairs[i].1))
                    .collect();
                let mut batch_loss: Option<Var> = None;
                for (bi, &qi) in batch.iter().enumerate() {
                    let q = self
                        .image_encoder
                        .embed(&self.store, &tape, &patch_cache[qi]);
                    let scores = cosine_scores(&tape, &q, &table_embs);
                    let l = contrastive_nce(&tape, &scores, bi, self.cfg.temperature);
                    batch_loss = Some(match batch_loss {
                        Some(acc) => acc.add(&l),
                        None => l,
                    });
                }
                let loss = batch_loss.unwrap().scale(1.0 / batch.len() as f32);
                tape.backward(&loss);
                self.store.apply_grads(&tape, &mut opt);
                epoch_loss += loss.scalar();
                steps += 1;
            }
            losses.push(epoch_loss / steps.max(1) as f32);
        }
        losses
    }
}

impl DiscoveryMethod for Cml {
    fn name(&self) -> &str {
        "CML"
    }

    fn prepare(&mut self, repo: &[RepoEntry]) {
        self.table_cache = repo.iter().map(|e| self.embed_table(&e.table)).collect();
    }

    fn score(&self, query: &QueryInput, entry: &RepoEntry) -> f64 {
        cosine(
            &self.embed_chart(&query.image),
            &self.embed_table(&entry.table),
        )
    }

    fn rank(&self, query: &QueryInput, repo: &[RepoEntry], k: usize) -> Vec<(usize, f64)> {
        let q = self.embed_chart(&query.image);
        let cached = self.table_cache.len() == repo.len();
        let mut scored: Vec<(usize, f64)> = repo
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let emb;
                let t = if cached {
                    &self.table_cache[i]
                } else {
                    emb = self.embed_table(&e.table);
                    &emb
                };
                (i, cosine(&q, t))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_chart::{render, ChartStyle};
    use lcdd_table::series::{DataSeries, UnderlyingData};
    use lcdd_table::{Column, SeriesFamily};

    fn world(n: usize) -> Vec<(RgbImage, Table)> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|i| {
                let fam = SeriesFamily::ALL[i % SeriesFamily::ALL.len()];
                let vals = lcdd_table::generate(&mut rng, fam, 120, 1.0, 0.0);
                let table = Table::new(
                    i as u64,
                    format!("t{i}"),
                    vec![Column::new("a", vals.clone())],
                );
                let data = UnderlyingData {
                    series: vec![DataSeries::new("a", vals)],
                };
                let chart = render(&data, &ChartStyle::default());
                (chart.image, table)
            })
            .collect()
    }

    fn small_cfg() -> CmlConfig {
        CmlConfig {
            image: ImageEncoderConfig {
                embed_dim: 16,
                n_heads: 2,
                n_layers: 1,
                ..Default::default()
            },
            epochs: 6,
            batch_size: 6,
            ..Default::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let pairs = world(6);
        let mut cml = Cml::new(small_cfg());
        let losses = cml.train(&pairs);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
    }

    #[test]
    fn embeddings_have_configured_dim() {
        let cml = Cml::new(small_cfg());
        let pairs = world(1);
        assert_eq!(cml.embed_chart(&pairs[0].0).len(), 16);
        assert_eq!(cml.embed_table(&pairs[0].1).len(), 16);
    }

    #[test]
    fn trained_cml_retrieves_own_table_above_median() {
        let pairs = world(8);
        let mut cml = Cml::new(small_cfg());
        cml.train(&pairs);
        let repo: Vec<RepoEntry> = pairs
            .iter()
            .map(|(_, t)| RepoEntry {
                table: t.clone(),
                spec: lcdd_table::VisSpec::plain(vec![0]),
            })
            .collect();
        let mut mean_rank = 0.0;
        for (qi, (img, _)) in pairs.iter().enumerate() {
            let q = QueryInput {
                image: img.clone(),
                extracted: lcdd_vision::ExtractedChart {
                    lines: vec![],
                    y_range: None,
                    ticks: None,
                },
            };
            let ranked = cml.rank(&q, &repo, repo.len());
            let pos = ranked.iter().position(|&(i, _)| i == qi).unwrap();
            mean_rank += pos as f64;
        }
        mean_rank /= pairs.len() as f64;
        assert!(
            mean_rank < 3.5,
            "mean rank of true table too high: {mean_rank}"
        );
    }
}
