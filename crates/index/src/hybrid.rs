//! The hybrid indexing strategy (paper Sec. VI-A): interval tree ∩ LSH.
//!
//! Query processing: (1) the decoded y-tick range stabs the interval tree →
//! candidate set `S1` (no false negatives); (2) each extracted line's
//! pooled embedding probes the LSH index → `S2`; (3) `S1 ∩ S2` goes to the
//! expensive FCM matcher. Either side can be disabled to reproduce the
//! "Interval Tree only" / "LSH only" rows of Table VIII.

use lcdd_table::Table;

use crate::interval_tree::{Interval, IntervalTree};
use crate::lsh::LshIndex;

/// Which pruning stages are active (the four rows of Table VIII).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexStrategy {
    NoIndex,
    IntervalOnly,
    LshOnly,
    Hybrid,
}

impl IndexStrategy {
    /// Every strategy, in the paper's Table VIII order.
    pub const ALL: [IndexStrategy; 4] = [
        IndexStrategy::NoIndex,
        IndexStrategy::IntervalOnly,
        IndexStrategy::LshOnly,
        IndexStrategy::Hybrid,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            IndexStrategy::NoIndex => "No Index",
            IndexStrategy::IntervalOnly => "Interval Tree",
            IndexStrategy::LshOnly => "LSH",
            IndexStrategy::Hybrid => "Hybrid",
        }
    }
}

/// Configuration of the hybrid index.
///
/// `Default` is the paper's Table VIII operating point (both pruning
/// structures built; the strategy itself is **per query** — pass a
/// different [`IndexStrategy`] to [`HybridIndex::candidates`] instead of
/// rebuilding the index).
#[derive(Clone, Debug, PartialEq)]
pub struct HybridConfig {
    /// LSH signature bits.
    pub lsh_bits: usize,
    /// Hamming probe radius at query time.
    pub lsh_radius: u32,
    /// Multiplicative slack widening the interval query range (aggregated
    /// charts can exceed raw column ranges).
    pub range_slack: f64,
    pub seed: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig::table_viii()
    }
}

impl HybridConfig {
    /// The settings behind the paper's Table VIII measurements at this
    /// reproduction's scale: 12-bit signatures, Hamming radius 2, and the
    /// same 0.5 range slack the FCM column filter uses.
    pub fn table_viii() -> Self {
        HybridConfig {
            lsh_bits: 12,
            lsh_radius: 2,
            range_slack: 0.5,
            seed: 0x15b,
        }
    }
}

/// Per-stage result of candidate generation: the surviving ids plus how
/// many datasets each active pruning stage let through (`None` = stage not
/// active under the chosen strategy). This is the provenance the engine
/// reports per query.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    /// Final candidate ids (deduplicated, ascending).
    pub ids: Vec<usize>,
    /// Dataset count after the interval-tree stage.
    pub after_interval: Option<usize>,
    /// Dataset count after the LSH stage.
    pub after_lsh: Option<usize>,
}

/// The hybrid index over a repository (or one shard of it).
///
/// Mutability model: [`HybridIndex::insert_dataset`] appends a new dataset
/// id incrementally (BST insert into the interval tree, bucket insert into
/// LSH); [`HybridIndex::remove_dataset`] evicts eagerly from the LSH
/// buckets and tombstones the id for the interval side, whose static tree
/// is filtered at query time. Compaction (rebuilding via
/// [`HybridIndex::from_parts`] over the live survivors) reclaims tombstone
/// slots and restores tree balance.
#[derive(Clone)]
pub struct HybridIndex {
    tree: IntervalTree,
    lsh: LshIndex,
    n_datasets: usize,
    /// Tombstoned dataset ids (`dead[id]`): still occupying an id slot but
    /// excluded from every candidate set.
    dead: Vec<bool>,
    n_dead: usize,
    cfg: HybridConfig,
}

/// Extracts the `[min(C), sum(C)]` intervals the interval tree indexes
/// from a repository (Sec. VI-A). Exposed so engine snapshots can persist
/// them and rebuild the tree without the raw tables.
pub fn column_intervals(tables: &[Table]) -> Vec<Interval> {
    let mut intervals = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        for c in &t.columns {
            if let Some((lo, hi)) = c.index_interval() {
                intervals.push(Interval {
                    lo,
                    hi,
                    dataset_id: ti,
                });
            }
        }
    }
    intervals
}

impl HybridIndex {
    /// Builds both structures. `column_embeddings[t][c]` is the pooled
    /// FCM embedding of column `c` of table `t` (Sec. VI-A).
    pub fn build(
        tables: &[Table],
        column_embeddings: &[Vec<Vec<f32>>],
        embed_dim: usize,
        cfg: HybridConfig,
    ) -> Self {
        assert_eq!(
            tables.len(),
            column_embeddings.len(),
            "HybridIndex: size mismatch"
        );
        Self::from_parts(
            column_intervals(tables),
            column_embeddings,
            embed_dim,
            tables.len(),
            cfg,
        )
    }

    /// Builds the index from pre-extracted parts. Both structures are
    /// deterministic functions of their inputs (the tree is a median-split
    /// over sorted intervals, the LSH hyperplanes are seeded), so an index
    /// rebuilt from persisted intervals + embeddings answers queries
    /// identically — this is the snapshot-restore path.
    pub fn from_parts(
        intervals: Vec<Interval>,
        column_embeddings: &[Vec<Vec<f32>>],
        embed_dim: usize,
        n_datasets: usize,
        cfg: HybridConfig,
    ) -> Self {
        let tree = IntervalTree::build(intervals);
        let mut lsh = LshIndex::new(embed_dim, cfg.lsh_bits, cfg.seed);
        for (ti, cols) in column_embeddings.iter().enumerate() {
            for emb in cols {
                lsh.insert(ti, emb);
            }
        }
        HybridIndex {
            tree,
            lsh,
            dead: vec![false; n_datasets],
            n_datasets,
            n_dead: 0,
            cfg,
        }
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &HybridConfig {
        &self.cfg
    }

    /// Number of indexed dataset id slots, including tombstoned ones.
    pub fn len(&self) -> usize {
        self.n_datasets
    }

    /// Number of live (non-tombstoned) datasets.
    pub fn live_len(&self) -> usize {
        self.n_datasets - self.n_dead
    }

    /// Number of tombstoned dataset slots awaiting compaction.
    pub fn n_dead(&self) -> usize {
        self.n_dead
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.n_datasets == 0
    }

    /// True when `id` is a tombstoned slot.
    pub fn is_dead(&self, id: usize) -> bool {
        self.dead.get(id).copied().unwrap_or(false)
    }

    /// Appends a new dataset incrementally: its index `intervals`
    /// (`[lo, hi]` pairs, one per indexed column) go into the interval tree
    /// and its pooled column `embeddings` into the LSH buckets. Returns the
    /// dataset id assigned to the new entry. Existing entries are untouched.
    pub fn insert_dataset(&mut self, intervals: &[(f64, f64)], embeddings: &[Vec<f32>]) -> usize {
        let id = self.n_datasets;
        self.n_datasets += 1;
        self.dead.push(false);
        for &(lo, hi) in intervals {
            self.tree.insert(Interval {
                lo,
                hi,
                dataset_id: id,
            });
        }
        for emb in embeddings {
            self.lsh.insert(id, emb);
        }
        id
    }

    /// Tombstones a dataset: it is evicted from the LSH buckets eagerly
    /// (via the same `embeddings` it was inserted with) and filtered out of
    /// interval-tree answers at query time. Returns false when `id` is out
    /// of range or already dead.
    pub fn remove_dataset(&mut self, id: usize, embeddings: &[Vec<f32>]) -> bool {
        if id >= self.n_datasets || self.dead[id] {
            return false;
        }
        self.dead[id] = true;
        self.n_dead += 1;
        for emb in embeddings {
            self.lsh.remove(id, emb);
        }
        true
    }

    /// Candidate datasets for a query under the given strategy.
    ///
    /// `y_range` is the decoded tick range (interval stage skipped when
    /// `None`); `line_embeddings` are the pooled per-line query embeddings
    /// (LSH stage skipped when empty).
    pub fn candidates(
        &self,
        strategy: IndexStrategy,
        y_range: Option<(f64, f64)>,
        line_embeddings: &[Vec<f32>],
    ) -> Vec<usize> {
        self.candidates_with_stats(strategy, y_range, line_embeddings)
            .ids
    }

    /// Like [`HybridIndex::candidates`], additionally reporting how many
    /// datasets survived each active pruning stage (the engine surfaces
    /// this as per-query provenance).
    pub fn candidates_with_stats(
        &self,
        strategy: IndexStrategy,
        y_range: Option<(f64, f64)>,
        line_embeddings: &[Vec<f32>],
    ) -> CandidateSet {
        let all = || {
            (0..self.n_datasets)
                .filter(|&id| !self.dead[id])
                .collect::<Vec<usize>>()
        };
        let interval_side = |range: Option<(f64, f64)>| -> Vec<usize> {
            match range {
                Some((lo, hi)) => {
                    let span = (hi - lo).abs().max(1e-12);
                    let mut s1 = self.tree.query(
                        lo - span * self.cfg.range_slack,
                        hi + span * self.cfg.range_slack,
                    );
                    // The static tree still holds tombstoned entries until
                    // compaction; they must never surface as candidates.
                    s1.retain(|&id| !self.dead[id]);
                    s1
                }
                None => all(),
            }
        };
        let lsh_side = |lines: &[Vec<f32>]| -> Vec<usize> {
            if lines.is_empty() {
                return all();
            }
            let mut s2: Vec<usize> = lines
                .iter()
                .flat_map(|e| self.lsh.query(e, self.cfg.lsh_radius))
                .collect();
            s2.sort_unstable();
            s2.dedup();
            // Eviction already removed dead ids from the buckets; keep the
            // filter anyway so a stale bucket entry can never leak.
            s2.retain(|&id| !self.dead[id]);
            s2
        };
        match strategy {
            IndexStrategy::NoIndex => CandidateSet {
                ids: all(),
                after_interval: None,
                after_lsh: None,
            },
            IndexStrategy::IntervalOnly => {
                let s1 = interval_side(y_range);
                CandidateSet {
                    after_interval: Some(s1.len()),
                    after_lsh: None,
                    ids: s1,
                }
            }
            IndexStrategy::LshOnly => {
                let s2 = lsh_side(line_embeddings);
                CandidateSet {
                    after_interval: None,
                    after_lsh: Some(s2.len()),
                    ids: s2,
                }
            }
            IndexStrategy::Hybrid => {
                let s1 = interval_side(y_range);
                let s2 = lsh_side(line_embeddings);
                // Sorted intersection.
                let mut out = Vec::with_capacity(s1.len().min(s2.len()));
                let (mut i, mut j) = (0, 0);
                while i < s1.len() && j < s2.len() {
                    match s1[i].cmp(&s2[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(s1[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                CandidateSet {
                    after_interval: Some(s1.len()),
                    after_lsh: Some(s2.len()),
                    ids: out,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_table::Column;

    fn world() -> (Vec<Table>, Vec<Vec<Vec<f32>>>) {
        let tables = vec![
            Table::new(0, "low", vec![Column::new("a", vec![0.0, 1.0, 2.0])]),
            Table::new(1, "mid", vec![Column::new("a", vec![10.0, 12.0, 14.0])]),
            Table::new(2, "high", vec![Column::new("a", vec![100.0, 110.0, 120.0])]),
        ];
        // Embeddings: tables 0/1 similar, table 2 orthogonal-ish.
        let emb = vec![
            vec![vec![1.0, 0.0, 0.0, 0.0]],
            vec![vec![0.98, 0.05, 0.0, 0.0]],
            vec![vec![0.0, 0.0, 1.0, 0.0]],
        ];
        (tables, emb)
    }

    #[test]
    fn all_lists_every_strategy_in_table_viii_order() {
        // Exhaustive on purpose: a new variant does not compile here until
        // it gets a position, and that position must be its slot in `ALL`.
        let position = |s: IndexStrategy| match s {
            IndexStrategy::NoIndex => 0,
            IndexStrategy::IntervalOnly => 1,
            IndexStrategy::LshOnly => 2,
            IndexStrategy::Hybrid => 3,
        };
        for (i, s) in IndexStrategy::ALL.into_iter().enumerate() {
            assert_eq!(position(s), i, "{s:?}");
        }
    }

    #[test]
    fn no_index_returns_all() {
        let (tables, emb) = world();
        let idx = HybridIndex::build(&tables, &emb, 4, HybridConfig::default());
        assert_eq!(
            idx.candidates(IndexStrategy::NoIndex, None, &[]),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn interval_prunes_by_range() {
        let (tables, emb) = world();
        let idx = HybridIndex::build(
            &tables,
            &emb,
            4,
            HybridConfig {
                range_slack: 0.0,
                ..Default::default()
            },
        );
        let c = idx.candidates(IndexStrategy::IntervalOnly, Some((9.0, 15.0)), &[]);
        assert_eq!(c, vec![1]);
        // Missing range -> no pruning (no false negatives).
        let c = idx.candidates(IndexStrategy::IntervalOnly, None, &[]);
        assert_eq!(c, vec![0, 1, 2]);
    }

    #[test]
    fn lsh_prunes_by_embedding() {
        let (tables, emb) = world();
        let idx = HybridIndex::build(&tables, &emb, 4, HybridConfig::default());
        let c = idx.candidates(IndexStrategy::LshOnly, None, &[vec![1.0, 0.0, 0.0, 0.0]]);
        assert!(c.contains(&0), "identical embedding must collide");
        assert!(!c.contains(&2), "orthogonal table should be pruned");
    }

    #[test]
    fn hybrid_is_intersection() {
        let (tables, emb) = world();
        let idx = HybridIndex::build(
            &tables,
            &emb,
            4,
            HybridConfig {
                range_slack: 0.0,
                ..Default::default()
            },
        );
        let q_emb = vec![vec![1.0, 0.0, 0.0, 0.0]];
        let s1 = idx.candidates(IndexStrategy::IntervalOnly, Some((0.0, 3.0)), &q_emb);
        let s2 = idx.candidates(IndexStrategy::LshOnly, Some((0.0, 3.0)), &q_emb);
        let h = idx.candidates(IndexStrategy::Hybrid, Some((0.0, 3.0)), &q_emb);
        for &d in &h {
            assert!(s1.contains(&d) && s2.contains(&d));
        }
        assert!(h.contains(&0));
    }

    #[test]
    fn stats_report_active_stages() {
        let (tables, emb) = world();
        let idx = HybridIndex::build(&tables, &emb, 4, HybridConfig::default());
        let q_emb = vec![vec![1.0, 0.0, 0.0, 0.0]];
        let s = idx.candidates_with_stats(IndexStrategy::NoIndex, Some((0.0, 3.0)), &q_emb);
        assert!(s.after_interval.is_none() && s.after_lsh.is_none());
        let s = idx.candidates_with_stats(IndexStrategy::Hybrid, Some((0.0, 3.0)), &q_emb);
        assert!(s.after_interval.is_some() && s.after_lsh.is_some());
        assert!(s.ids.len() <= s.after_interval.unwrap());
        assert!(s.ids.len() <= s.after_lsh.unwrap());
    }

    #[test]
    fn from_parts_matches_build() {
        let (tables, emb) = world();
        let built = HybridIndex::build(&tables, &emb, 4, HybridConfig::default());
        let rebuilt = HybridIndex::from_parts(
            column_intervals(&tables),
            &emb,
            4,
            tables.len(),
            HybridConfig::default(),
        );
        let q_emb = vec![vec![0.98, 0.05, 0.0, 0.0]];
        for strategy in IndexStrategy::ALL {
            assert_eq!(
                built.candidates(strategy, Some((0.0, 20.0)), &q_emb),
                rebuilt.candidates(strategy, Some((0.0, 20.0)), &q_emb),
                "strategy {strategy:?} must answer identically after rebuild"
            );
        }
    }

    #[test]
    fn insert_dataset_is_queryable_under_every_strategy() {
        let (tables, emb) = world();
        let mut idx = HybridIndex::build(&tables, &emb, 4, HybridConfig::default());
        let new_emb = vec![vec![0.99f32, 0.02, 0.0, 0.0]];
        let id = idx.insert_dataset(&[(5.0, 20.0)], &new_emb);
        assert_eq!(id, 3);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.live_len(), 4);
        for strategy in IndexStrategy::ALL {
            let c = idx.candidates(strategy, Some((6.0, 12.0)), &new_emb);
            assert!(
                c.contains(&id),
                "strategy {strategy:?} must see the inserted dataset"
            );
        }
    }

    #[test]
    fn remove_dataset_tombstones_everywhere() {
        let (tables, emb) = world();
        let mut idx = HybridIndex::build(&tables, &emb, 4, HybridConfig::default());
        assert!(idx.remove_dataset(1, &emb[1]));
        assert!(!idx.remove_dataset(1, &emb[1]), "double remove is a no-op");
        assert_eq!(idx.live_len(), 2);
        assert!(idx.is_dead(1));
        for strategy in IndexStrategy::ALL {
            let c = idx.candidates(strategy, Some((-1000.0, 1000.0)), &emb[1]);
            assert!(
                !c.contains(&1),
                "strategy {strategy:?} must not return a tombstoned dataset"
            );
        }
        // Stage counts report live survivors only.
        let s = idx.candidates_with_stats(IndexStrategy::Hybrid, Some((-1000.0, 1000.0)), &emb[1]);
        assert!(s.after_interval.unwrap() <= idx.live_len());
    }

    #[test]
    fn incremental_index_matches_batch_build() {
        let (tables, emb) = world();
        let batch = HybridIndex::build(&tables, &emb, 4, HybridConfig::default());
        let mut inc = HybridIndex::build(&tables[..1], &emb[..1], 4, HybridConfig::default());
        for (t, cols) in tables.iter().zip(&emb).skip(1) {
            let intervals: Vec<(f64, f64)> = t
                .columns
                .iter()
                .filter_map(|c| c.index_interval())
                .collect();
            inc.insert_dataset(&intervals, cols);
        }
        let q_emb = vec![vec![0.98f32, 0.05, 0.0, 0.0]];
        for strategy in IndexStrategy::ALL {
            assert_eq!(
                batch.candidates(strategy, Some((0.0, 130.0)), &q_emb),
                inc.candidates(strategy, Some((0.0, 130.0)), &q_emb),
                "strategy {strategy:?}"
            );
        }
    }

    #[test]
    fn interval_covers_sum_reach() {
        // Table 0's column sums to 3.0: a query near 3 must keep it.
        let (tables, emb) = world();
        let idx = HybridIndex::build(
            &tables,
            &emb,
            4,
            HybridConfig {
                range_slack: 0.0,
                ..Default::default()
            },
        );
        let c = idx.candidates(IndexStrategy::IntervalOnly, Some((2.5, 3.5)), &[]);
        assert!(c.contains(&0));
    }
}
