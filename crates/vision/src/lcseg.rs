//! LCSeg — the trainable line-chart segmentation model (paper Sec. IV-A).
//!
//! **Substitution note:** the paper trains a Mask R-CNN.
//! Training a region-proposal CNN from scratch on CPU is out of scope for a
//! reproduction whose contribution lies elsewhere, so LCSeg here is a
//! multinomial logistic pixel classifier over local features
//! ([`crate::features`]) trained by SGD on LineChartSeg, followed by
//! colour/connectivity instance separation ([`crate::components`]). It
//! occupies the same pipeline slot (pixels → element masks → per-line
//! images + tick info) and is trained from the same auto-labelled data with
//! the same augmentations.

use lcdd_chart::{ElementClass, RgbImage};
use lcdd_tensor::{Matrix, ParamStore, Sgd, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::features::{FeaturePlanes, NUM_FEATURES};
use crate::linechartseg::SegExample;

/// Pixel-classifier configuration.
#[derive(Clone, Debug)]
pub struct LcsegConfig {
    /// Pixels sampled per training example per epoch (class-balanced).
    pub pixels_per_example: usize,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for LcsegConfig {
    fn default() -> Self {
        LcsegConfig {
            pixels_per_example: 160,
            epochs: 6,
            lr: 0.5,
            seed: 0xc1a55,
        }
    }
}

/// The trained pixel classifier: a single linear layer + softmax over the
/// four coarse classes (background / axis / tick / line).
pub struct Lcseg {
    store: ParamStore,
    w: lcdd_tensor::ParamId,
    b: lcdd_tensor::ParamId,
}

impl Lcseg {
    fn new(seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = store.add(
            "lcseg.w",
            lcdd_tensor::init::xavier_uniform(&mut rng, NUM_FEATURES, ElementClass::NUM_COARSE),
        );
        let b = store.add("lcseg.b", Matrix::zeros(1, ElementClass::NUM_COARSE));
        Lcseg { store, w, b }
    }

    /// Trains on LineChartSeg examples with class-balanced pixel sampling.
    /// Returns the trained model and the final-epoch training accuracy.
    pub fn train(examples: &[SegExample], cfg: &LcsegConfig) -> (Self, f32) {
        assert!(!examples.is_empty(), "Lcseg::train: no examples");
        let mut model = Lcseg::new(cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
        let mut opt = Sgd::new(cfg.lr);
        let mut last_acc = 0.0;

        for _epoch in 0..cfg.epochs {
            let mut correct = 0usize;
            let mut total = 0usize;
            for ex in examples {
                let planes = FeaturePlanes::compute(&ex.chart.image);
                let (w, h) = (planes.width(), planes.height());
                // Bucket pixel coordinates by coarse class for balancing.
                let mut buckets: [Vec<(usize, usize)>; 4] = Default::default();
                for y in 0..h {
                    for x in 0..w {
                        let c = ex.chart.mask.get(x, y).coarse_code() as usize;
                        // Background dominates; subsample it on the fly.
                        if c == 0 && !rng.gen_bool(0.02) {
                            continue;
                        }
                        buckets[c].push((x, y));
                    }
                }
                let per_class = (cfg.pixels_per_example / 4).max(1);
                let mut feats = Vec::new();
                let mut labels = Vec::new();
                let mut buf = vec![0.0f32; NUM_FEATURES];
                for (class, bucket) in buckets.iter().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    for _ in 0..per_class {
                        let &(x, y) = &bucket[rng.gen_range(0..bucket.len())];
                        planes.features_into(x, y, &mut buf);
                        feats.extend_from_slice(&buf);
                        labels.push(class);
                    }
                }
                if labels.is_empty() {
                    continue;
                }
                let n = labels.len();
                let tape = Tape::new();
                let x = tape.leaf(Matrix::from_vec(n, NUM_FEATURES, feats));
                let wv = model.store.leaf(&tape, model.w);
                let bv = model.store.leaf(&tape, model.b);
                let logits = x.matmul(&wv).add_row_broadcast(&bv);
                let probs = logits.softmax_rows();
                // Cross entropy: -mean log p[label]
                let mut mask = vec![0.0f32; n * ElementClass::NUM_COARSE];
                for (i, &l) in labels.iter().enumerate() {
                    mask[i * ElementClass::NUM_COARSE + l] = -1.0 / n as f32;
                }
                let mask = tape.constant(Matrix::from_vec(n, ElementClass::NUM_COARSE, mask));
                let loss = probs.ln_clamped(1e-7).mul(&mask).sum_all();
                tape.backward(&loss);
                model.store.apply_grads(&tape, &mut opt);

                // Track accuracy on this batch.
                let pv = probs.value();
                for (i, &l) in labels.iter().enumerate() {
                    let row = pv.row(i);
                    // `total_cmp`: a NaN probability (diverged training)
                    // must miscount accuracy, not abort the process.
                    let pred = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map_or(0, |(j, _)| j);
                    correct += usize::from(pred == l);
                    total += 1;
                }
            }
            last_acc = correct as f32 / total.max(1) as f32;
        }
        (model, last_acc)
    }

    /// Classifies every pixel, returning coarse class codes (row-major).
    pub fn predict_map(&self, img: &RgbImage) -> Vec<u8> {
        let planes = FeaturePlanes::compute(img);
        let (w, h) = (planes.width(), planes.height());
        let wm = self.store.value(self.w).clone();
        let bm = self.store.value(self.b).clone();
        let mut out = vec![0u8; w * h];
        let mut buf = vec![0.0f32; NUM_FEATURES];
        for y in 0..h {
            for x in 0..w {
                // Fast path: pure-white pixels are background by definition.
                if !planes.is_ink(x, y) {
                    continue;
                }
                planes.features_into(x, y, &mut buf);
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for c in 0..ElementClass::NUM_COARSE {
                    let mut v = bm.get(0, c);
                    for (f, &fv) in buf.iter().enumerate() {
                        v += fv * wm.get(f, c);
                    }
                    if v > best_v {
                        best_v = v;
                        best = c;
                    }
                }
                out[y * w + x] = best as u8;
            }
        }
        out
    }

    /// Pixel accuracy of the predicted map against a ground-truth mask,
    /// measured over ink pixels only (background is trivially correct).
    pub fn evaluate(&self, examples: &[SegExample]) -> f32 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for ex in examples {
            let pred = self.predict_map(&ex.chart.image);
            let (w, h) = (ex.chart.mask.width(), ex.chart.mask.height());
            for y in 0..h {
                for x in 0..w {
                    let truth = ex.chart.mask.get(x, y).coarse_code();
                    if truth == 0 {
                        continue;
                    }
                    correct += usize::from(pred[y * w + x] == truth);
                    total += 1;
                }
            }
        }
        correct as f32 / total.max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linechartseg::build_linechartseg;
    use lcdd_chart::ChartStyle;
    use lcdd_table::{build_corpus, CorpusConfig};

    fn small_dataset() -> Vec<SegExample> {
        let cfg = CorpusConfig {
            n_records: 6,
            near_duplicate_rate: 0.0,
            ..Default::default()
        };
        build_linechartseg(&build_corpus(&cfg), &ChartStyle::default(), 1, 3)
    }

    #[test]
    fn trains_to_high_pixel_accuracy() {
        let ds = small_dataset();
        let (model, train_acc) = Lcseg::train(&ds, &LcsegConfig::default());
        assert!(train_acc > 0.85, "train accuracy too low: {train_acc}");
        let eval_acc = model.evaluate(&ds[..2.min(ds.len())]);
        assert!(eval_acc > 0.8, "ink-pixel accuracy too low: {eval_acc}");
    }

    #[test]
    fn line_pixels_classified_as_line() {
        let ds = small_dataset();
        let (model, _) = Lcseg::train(&ds, &LcsegConfig::default());
        let ex = &ds[0];
        let pred = model.predict_map(&ex.chart.image);
        let (w, h) = (ex.chart.mask.width(), ex.chart.mask.height());
        let mut line_correct = 0usize;
        let mut line_total = 0usize;
        for y in 0..h {
            for x in 0..w {
                if ex.chart.mask.get(x, y).coarse_code() == 3 {
                    line_total += 1;
                    line_correct += usize::from(pred[y * w + x] == 3);
                }
            }
        }
        assert!(
            line_correct as f32 / line_total.max(1) as f32 > 0.9,
            "line recall {line_correct}/{line_total}"
        );
    }
}
