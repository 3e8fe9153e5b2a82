//! DE-LN and Opt-LN baselines (paper Sec. VII-B).
//!
//! **DE-LN**: DeepEye-role recommender proposes 5 line-chart candidates per
//! table; each is rendered and compared to the query chart with the
//! LineNet-role similarity model; the best similarity is the relevance. Its
//! quality is bounded by the recommender — the effect Table II shows.
//!
//! **Opt-LN**: the upper bound of that family — skips the recommender and
//! renders the candidate with the visualization spec *actually associated
//! with the table* (not possible in practice; the paper uses it to isolate
//! the VisRec bottleneck).

use lcdd_chart::{render_record, ChartStyle};
use lcdd_table::{RepoEntry, Table};

use crate::deepeye::recommend_line_charts;
use crate::linenet::LineNet;
use crate::method::{DiscoveryMethod, QueryInput};

/// Number of charts DeepEye recommends per table (paper: "a list of 5").
const N_RECOMMENDATIONS: usize = 5;

/// The DE-LN baseline.
pub struct DeLn {
    pub linenet: LineNet,
    pub style: ChartStyle,
    /// Per-entry embeddings of the recommended charts (built by `prepare`).
    rec_cache: Vec<Vec<Vec<f32>>>,
}

impl DeLn {
    /// Wraps a trained LineNet model.
    pub fn new(linenet: LineNet, style: ChartStyle) -> Self {
        DeLn {
            linenet,
            style,
            rec_cache: Vec::new(),
        }
    }

    fn recommended_embeddings(&self, table: &Table) -> Vec<Vec<f32>> {
        recommend_line_charts(table, N_RECOMMENDATIONS)
            .into_iter()
            .map(|rec| {
                let chart = render_record(table, &rec.spec, &self.style);
                self.linenet.embed(&chart.image)
            })
            .collect()
    }

    fn best_recommended_similarity(&self, query: &QueryInput, table: &Table) -> f64 {
        recommend_line_charts(table, N_RECOMMENDATIONS)
            .into_iter()
            .map(|rec| {
                let chart = render_record(table, &rec.spec, &self.style);
                self.linenet.similarity(&query.image, &chart.image)
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl DiscoveryMethod for DeLn {
    fn name(&self) -> &str {
        "DE-LN"
    }

    fn prepare(&mut self, repo: &[RepoEntry]) {
        self.rec_cache = repo
            .iter()
            .map(|e| self.recommended_embeddings(&e.table))
            .collect();
    }

    fn score(&self, query: &QueryInput, entry: &RepoEntry) -> f64 {
        let s = self.best_recommended_similarity(query, &entry.table);
        if s.is_finite() {
            s
        } else {
            0.0
        }
    }

    fn rank(&self, query: &QueryInput, repo: &[RepoEntry], k: usize) -> Vec<(usize, f64)> {
        if self.rec_cache.len() != repo.len() {
            // No cache: fall back to per-pair scoring.
            let mut scored: Vec<(usize, f64)> = repo
                .iter()
                .enumerate()
                .map(|(i, e)| (i, self.score(query, e)))
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            scored.truncate(k);
            return scored;
        }
        let q = self.linenet.embed(&query.image);
        let mut scored: Vec<(usize, f64)> = self
            .rec_cache
            .iter()
            .enumerate()
            .map(|(i, embs)| {
                let best = embs
                    .iter()
                    .map(|e| crate::image_encoder::cosine(&q, e))
                    .fold(f64::NEG_INFINITY, f64::max);
                (i, if best.is_finite() { best } else { 0.0 })
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

/// The Opt-LN upper bound.
pub struct OptLn {
    pub linenet: LineNet,
    pub style: ChartStyle,
    /// Per-entry embedding of the true-spec chart (built by `prepare`).
    spec_cache: Vec<Vec<f32>>,
}

impl OptLn {
    /// Wraps a trained LineNet model.
    pub fn new(linenet: LineNet, style: ChartStyle) -> Self {
        OptLn {
            linenet,
            style,
            spec_cache: Vec::new(),
        }
    }
}

impl DiscoveryMethod for OptLn {
    fn name(&self) -> &str {
        "Opt-LN"
    }

    fn prepare(&mut self, repo: &[RepoEntry]) {
        self.spec_cache = repo
            .iter()
            .map(|e| {
                let chart = render_record(&e.table, &e.spec, &self.style);
                self.linenet.embed(&chart.image)
            })
            .collect();
    }

    fn score(&self, query: &QueryInput, entry: &RepoEntry) -> f64 {
        // Uses the ground-truth spec shipped with the repository entry.
        let chart = render_record(&entry.table, &entry.spec, &self.style);
        self.linenet.similarity(&query.image, &chart.image)
    }

    fn rank(&self, query: &QueryInput, repo: &[RepoEntry], k: usize) -> Vec<(usize, f64)> {
        if self.spec_cache.len() != repo.len() {
            let mut scored: Vec<(usize, f64)> = repo
                .iter()
                .enumerate()
                .map(|(i, e)| (i, self.score(query, e)))
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            scored.truncate(k);
            return scored;
        }
        let q = self.linenet.embed(&query.image);
        let mut scored: Vec<(usize, f64)> = self
            .spec_cache
            .iter()
            .enumerate()
            .map(|(i, e)| (i, crate::image_encoder::cosine(&q, e)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image_encoder::ImageEncoderConfig;
    use crate::linenet::LineNetConfig;
    use lcdd_table::{build_corpus, CorpusConfig, VisSpec};
    use lcdd_vision::ExtractedChart;

    fn tiny_linenet() -> LineNet {
        LineNet::new(LineNetConfig {
            image: ImageEncoderConfig {
                embed_dim: 16,
                n_heads: 2,
                n_layers: 1,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    fn world() -> (QueryInput, Vec<RepoEntry>) {
        let corpus = build_corpus(&CorpusConfig {
            n_records: 4,
            near_duplicate_rate: 0.0,
            ..Default::default()
        });
        let style = ChartStyle::default();
        let chart = render_record(&corpus[0].table, &corpus[0].spec, &style);
        let q = QueryInput {
            image: chart.image,
            extracted: ExtractedChart {
                lines: vec![],
                y_range: None,
                ticks: None,
            },
        };
        let repo: Vec<RepoEntry> = corpus
            .into_iter()
            .map(|r| RepoEntry {
                table: r.table,
                spec: r.spec,
            })
            .collect();
        (q, repo)
    }

    #[test]
    fn de_ln_scores_are_finite() {
        let (q, repo) = world();
        let m = DeLn::new(tiny_linenet(), ChartStyle::default());
        for e in &repo {
            let s = m.score(&q, e);
            assert!(s.is_finite());
            // Cosine in f32 can overshoot |1| by a rounding ulp.
            assert!((-1.001..=1.001).contains(&s), "score {s}");
        }
    }

    #[test]
    fn opt_ln_self_match_is_perfect() {
        // Opt-LN renders the true spec: the query's own table reproduces
        // the identical image, similarity exactly 1.
        let (q, repo) = world();
        let m = OptLn::new(tiny_linenet(), ChartStyle::default());
        let s = m.score(&q, &repo[0]);
        assert!((s - 1.0).abs() < 1e-5, "self-similarity {s}");
    }

    #[test]
    fn opt_ln_upper_bounds_de_ln_on_self() {
        let (q, repo) = world();
        let ln1 = tiny_linenet();
        let ln2 = tiny_linenet();
        let de = DeLn::new(ln1, ChartStyle::default());
        let opt = OptLn::new(ln2, ChartStyle::default());
        // On the query's own entry, Opt-LN (true spec) >= DE-LN (guessed).
        assert!(opt.score(&q, &repo[0]) >= de.score(&q, &repo[0]) - 1e-6);
    }

    #[test]
    fn handles_table_without_recommendations() {
        let m = DeLn::new(tiny_linenet(), ChartStyle::default());
        let (q, _) = world();
        let empty = RepoEntry {
            table: Table::new(0, "e", vec![]),
            spec: VisSpec::plain(vec![]),
        };
        assert_eq!(m.score(&q, &empty), 0.0);
    }
}
