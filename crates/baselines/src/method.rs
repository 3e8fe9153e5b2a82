//! Common interface all discovery methods implement (FCM and the four
//! baselines of paper Sec. VII-B), so the benchmark runner can evaluate
//! them uniformly.

use lcdd_chart::RgbImage;
use lcdd_table::RepoEntry;
use lcdd_vision::ExtractedChart;

/// A line chart query as every method receives it: the raw image plus the
/// visual-element extractor's output (methods choose what they consume).
pub struct QueryInput {
    pub image: RgbImage,
    pub extracted: ExtractedChart,
}

/// A dataset-discovery method: scores a query against a candidate.
pub trait DiscoveryMethod: Sync {
    /// Method label as it appears in result tables. Borrowed from the
    /// method (not `'static`) so configured variants — e.g.
    /// "FCM+Hybrid k=10" — can carry runtime-built labels.
    fn name(&self) -> &str;

    /// Called once before evaluation with the full repository; methods use
    /// it to build query-independent caches (table embeddings, rendered
    /// recommendation charts, FCM dataset encodings). Default: no-op.
    fn prepare(&mut self, _repo: &[RepoEntry]) {}

    /// Relevance estimate `Rel'(V, T)`; higher = more relevant.
    fn score(&self, query: &QueryInput, entry: &RepoEntry) -> f64;

    /// Ranks the repository (descending score, truncated to `k`).
    /// Implementations with cached repository state may override this.
    fn rank(&self, query: &QueryInput, repo: &[RepoEntry], k: usize) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> = repo
            .iter()
            .enumerate()
            .map(|(i, e)| (i, self.score(query, e)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_chart::Rgb;
    use lcdd_table::{Column, Table, VisSpec};

    struct ById;
    impl DiscoveryMethod for ById {
        fn name(&self) -> &str {
            "by-id"
        }
        fn score(&self, _q: &QueryInput, e: &RepoEntry) -> f64 {
            e.table.id as f64
        }
    }

    #[test]
    fn default_rank_sorts_descending_and_truncates() {
        let repo: Vec<RepoEntry> = (0..5)
            .map(|i| RepoEntry {
                table: Table::new(i, format!("t{i}"), vec![Column::new("a", vec![0.0])]),
                spec: VisSpec::plain(vec![0]),
            })
            .collect();
        let q = QueryInput {
            image: RgbImage::new(4, 4, Rgb::WHITE),
            extracted: ExtractedChart {
                lines: vec![],
                y_range: None,
                ticks: None,
            },
        };
        let ranked = ById.rank(&q, &repo, 3);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].0, 4);
        assert_eq!(ranked[2].0, 2);
    }
}
