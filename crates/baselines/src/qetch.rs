//! Qetch* baseline (paper Sec. VII-B): the Qetch sketch-matching algorithm
//! (Mannino & Abouzied 2018) lifted to multi-line charts via maximum
//! bipartite matching, exactly as the paper constructs it.
//!
//! Qetch's core idea: compare a sketched curve against candidate series
//! *locally and scale-free* — split both into segments, compare per-segment
//! shape (slope sequences after local normalisation) and penalise local
//! distortions rather than absolute differences. It matches local patterns
//! well but has no learned global alignment — the limitation Table II
//! exposes.

use lcdd_relevance::max_weight_matching;
use lcdd_table::normalize::{resample, z_normalized};
use lcdd_table::{RepoEntry, Table};

use crate::method::{DiscoveryMethod, QueryInput};

/// Qetch* configuration.
#[derive(Clone, Debug)]
pub struct QetchConfig {
    /// Both series are resampled to this length before matching.
    pub target_len: usize,
    /// Number of local segments the curves are split into.
    pub n_segments: usize,
    /// Weight of the local-distortion penalty.
    pub distortion_weight: f64,
}

impl Default for QetchConfig {
    fn default() -> Self {
        QetchConfig {
            target_len: 96,
            n_segments: 8,
            distortion_weight: 0.35,
        }
    }
}

/// The Qetch* method (stateless; no training).
#[derive(Default)]
pub struct QetchStar {
    pub cfg: QetchConfig,
}

impl QetchStar {
    /// Qetch's per-pair matching error between a drawn line (extracted
    /// values) and a column. Lower = better. Scale-free: both sides are
    /// z-normalised; each segment is compared by slope shape plus a local
    /// distortion term measuring how much the segment's own scale deviates
    /// from the global one.
    pub fn match_error(&self, line: &[f64], column: &[f64]) -> f64 {
        if line.is_empty() || column.is_empty() {
            return f64::INFINITY;
        }
        let q = z_normalized(&resample(line, self.cfg.target_len));
        let c = z_normalized(&resample(column, self.cfg.target_len));
        let seg_len = (self.cfg.target_len / self.cfg.n_segments).max(2);
        let mut total = 0.0;
        let mut n_segs = 0.0f64;
        for s in 0..self.cfg.n_segments {
            let lo = s * seg_len;
            let hi = ((s + 1) * seg_len).min(self.cfg.target_len);
            if hi - lo < 2 {
                continue;
            }
            let qs = &q[lo..hi];
            let cs = &c[lo..hi];
            // Shape error: mean absolute difference of first differences.
            let mut shape = 0.0;
            for i in 1..qs.len() {
                shape += ((qs[i] - qs[i - 1]) - (cs[i] - cs[i - 1])).abs();
            }
            shape /= (qs.len() - 1) as f64;
            // Local distortion: mismatch in the segment's local amplitude
            // (Qetch's "local scaling" penalty).
            let amp = |v: &[f64]| {
                v.iter().cloned().fold(f64::MIN, f64::max)
                    - v.iter().cloned().fold(f64::MAX, f64::min)
            };
            let (aq, ac) = (amp(qs), amp(cs));
            let distortion = ((aq + 1e-9).ln() - (ac + 1e-9).ln()).abs();
            total += shape + self.cfg.distortion_weight * distortion;
            n_segs += 1.0;
        }
        total / n_segs.max(1.0)
    }

    /// Relevance between one line and one column: `1 / (1 + error)`.
    pub fn line_column_rel(&self, line: &[f64], column: &[f64]) -> f64 {
        let e = self.match_error(line, column);
        if e.is_finite() {
            1.0 / (1.0 + e)
        } else {
            0.0
        }
    }

    /// Multi-line relevance: maximum bipartite matching over per-pair
    /// scores (the paper's Qetch* construction, Sec. VII-B).
    pub fn chart_table_rel(&self, lines: &[Vec<f64>], table: &Table) -> f64 {
        if lines.is_empty() || table.num_cols() == 0 {
            return 0.0;
        }
        let weights: Vec<Vec<f64>> = lines
            .iter()
            .map(|l| {
                table
                    .columns
                    .iter()
                    .map(|c| self.line_column_rel(l, &c.values))
                    .collect()
            })
            .collect();
        max_weight_matching(&weights).0
    }
}

impl DiscoveryMethod for QetchStar {
    fn name(&self) -> &str {
        "Qetch*"
    }

    fn score(&self, query: &QueryInput, entry: &RepoEntry) -> f64 {
        let lines: Vec<Vec<f64>> = query
            .extracted
            .lines
            .iter()
            .map(|l| l.values.clone())
            .collect();
        self.chart_table_rel(&lines, &entry.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_table::Column;

    fn wave(n: usize, period: f64, amp: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 / period).sin() * amp).collect()
    }

    #[test]
    fn identical_shapes_match_best() {
        let q = QetchStar::default();
        let a = wave(100, 8.0, 1.0);
        let same_scaled = wave(100, 8.0, 50.0); // scale-free: same shape
        let different = wave(100, 2.0, 1.0);
        let e_same = q.match_error(&a, &same_scaled);
        let e_diff = q.match_error(&a, &different);
        assert!(e_same < e_diff, "{e_same} !< {e_diff}");
        assert!(e_same < 0.1);
    }

    #[test]
    fn local_pattern_insensitive_to_global_offset() {
        let q = QetchStar::default();
        let a = wave(80, 10.0, 1.0);
        let offset: Vec<f64> = a.iter().map(|v| v + 1000.0).collect();
        assert!(q.match_error(&a, &offset) < 1e-9);
    }

    #[test]
    fn bipartite_lifting_matches_each_line() {
        let q = QetchStar::default();
        let up: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let down: Vec<f64> = (0..60).map(|i| -(i as f64)).collect();
        let table = Table::new(
            0,
            "t",
            vec![
                Column::new("down", down.clone()),
                Column::new("up", up.clone()),
            ],
        );
        let rel = q.chart_table_rel(&[up.clone(), down.clone()], &table);
        // Both lines should find near-perfect matches: rel close to 2.
        assert!(rel > 1.8, "rel = {rel}");
        // A table with only one matching column scores lower.
        let table1 = Table::new(
            1,
            "t1",
            vec![
                Column::new("up", up.clone()),
                Column::new("flat", vec![0.0; 60]),
            ],
        );
        let rel1 = q.chart_table_rel(&[up, down], &table1);
        assert!(rel1 < rel);
    }

    #[test]
    fn empty_inputs_are_zero() {
        let q = QetchStar::default();
        assert_eq!(q.line_column_rel(&[], &[1.0]), 0.0);
        let t = Table::new(0, "t", vec![]);
        assert_eq!(q.chart_table_rel(&[vec![1.0]], &t), 0.0);
    }
}
