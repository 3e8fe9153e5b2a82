//! # lcdd-table
//!
//! The tabular-data substrate for the FCM reproduction: columns and tables
//! (paper Sec. II), windowed aggregation operators (Sec. II/V), the
//! table-level augmentations used to train the chart segmenter (Sec. IV-A),
//! synthetic Plotly-like corpus generation (substituting the real 2.3M-record
//! Plotly corpus of Sec. VII-A), normalisation/resampling helpers and CSV
//! import/export.

pub mod aggregate;
pub mod augment;
pub mod column;
pub mod corpus;
pub mod csv;
pub mod generators;
pub mod normalize;
pub mod series;
pub mod table;
pub mod vis_spec;

pub use aggregate::{aggregate, aggregated_len, AggOp};
pub use column::Column;
pub use corpus::{build_corpus, corpus_stats, CorpusConfig, CorpusStats, Record};
pub use generators::{generate, SeriesFamily};
pub use series::{DataSeries, UnderlyingData};
pub use table::Table;
pub use vis_spec::{RepoEntry, VisSpec};
