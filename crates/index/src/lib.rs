//! # lcdd-index
//!
//! The hybrid query-processing index of the paper (Sec. VI-A): an
//! augmented [`interval_tree`] over `[min(C), sum(C)]` column intervals
//! (zero false negatives), sign-random-projection [`lsh`] over learned
//! column embeddings, and their intersection ([`hybrid`]) which prunes the
//! candidate set before the expensive FCM matcher runs.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod hybrid;
pub mod interval_tree;
pub mod lsh;

pub use hybrid::{column_intervals, CandidateSet, HybridConfig, HybridIndex, IndexStrategy};
pub use interval_tree::{Interval, IntervalTree};
pub use lsh::LshIndex;
