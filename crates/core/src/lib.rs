//! # lcdd-fcm
//!
//! The paper's primary contribution: the **F**ine-grained **C**ross-modal
//! Relevance Learning **M**odel (FCM) from *Dataset Discovery via Line
//! Charts* (ICDE 2025), end to end:
//!
//! * [`config`] — hyper-parameters ([`FcmConfig::paper`] is the published
//!   configuration; experiments run [`FcmConfig::small`]),
//! * [`input`] — extractor output / tables → encoder matrices (including
//!   the y-tick column range filter of Sec. IV-C),
//! * [`chart_encoder`] — segment-level line chart encoder (Sec. IV-B),
//! * [`dataset_encoder`] — segment-level dataset encoder (Sec. IV-C),
//! * [`da`] — transformation layers + HMRL + MoE for aggregation-based
//!   queries (Sec. V),
//! * [`matcher`] — HCMAN, the hierarchical cross-modal attention matcher
//!   (Sec. IV-D),
//! * [`negatives`] / [`trainer`] — semi-hard negative sampling and the
//!   Eq. 2 training loop (Sec. V-E),
//! * [`scoring`] — cached repository encoding + top-k search.
//!
//! Trained weights are persisted by the engine (`lcdd_engine::persist`),
//! as the weight block of the checksummed meta section every snapshot and
//! store carries.
//!
//! Ablations from the paper are config switches: `hcman_enabled = false`
//! gives FCM-HCMAN (Table V), `da_enabled = false` gives FCM-DA (Table VI).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chart_encoder;
pub mod config;
pub mod da;
pub mod dataset_encoder;
pub mod error;
pub mod fastscore;
pub mod input;
pub mod matcher;
pub mod model;
pub mod negatives;
pub mod quant;
pub mod scoring;
pub mod trainer;

pub use config::FcmConfig;
pub use error::EngineError;
pub use fastscore::{QueryScorer, ScoreScratch};
pub use input::{
    column_to_segments, line_to_patches, process_query, process_table, ProcessedQuery,
    ProcessedTable,
};
pub use model::{table_encode_count, EncodeScratch, FcmModel};
pub use negatives::NegativeStrategy;
pub use quant::QuantizedVec;
pub use scoring::{
    column_embedding, encode_repository, encode_tables, pooled_mean_of, search_top_k,
    EncodedRepository,
};
pub use trainer::{
    train, train_step, train_with_callback, StepStats, TrainConfig, TrainExample, TrainReport,
};
