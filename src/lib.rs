//! # linechart-discovery
//!
//! Umbrella crate for the reproduction of *Dataset Discovery via Line
//! Charts* (Ji, Luo, Bao, Culpepper — ICDE 2025). Re-exports every
//! sub-crate so examples and downstream users need a single dependency.
//!
//! See `README.md` for a quickstart, the architecture of each layer, the
//! crate map and the tracked performance numbers.

pub use lcdd_baselines as baselines;
pub use lcdd_benchmark as benchmark;
pub use lcdd_chart as chart;
pub use lcdd_engine as engine;
pub use lcdd_fcm as fcm;
pub use lcdd_index as index;
pub use lcdd_nn as nn;
pub use lcdd_relevance as relevance;
pub use lcdd_repl as repl;
pub use lcdd_server as server;
pub use lcdd_store as store;
pub use lcdd_table as table;
pub use lcdd_tensor as tensor;
pub use lcdd_vision as vision;
