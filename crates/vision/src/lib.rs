//! # lcdd-vision
//!
//! The visual element extractor of FCM (paper Sec. IV-A): the LineChartSeg
//! auto-labelled segmentation dataset, the trainable LCSeg pixel classifier
//! (Mask R-CNN substitute — see [`lcseg`]), colour/connectivity line
//! instance separation, line tracing back to 1-D series, and y-tick label
//! decoding that recovers the chart's value range from raw pixels.
//!
//! This crate sits on the adversarial-input boundary (arbitrary images and
//! extractor output flow through it into `Engine::search`), so production
//! code is `unwrap`-free by construction — a degenerate chart must degrade
//! to "no lines / no ticks", never abort the process. Tests keep `unwrap`
//! (the backtrace is the point there).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod components;
pub mod extractor;
pub mod features;
pub mod lcseg;
pub mod linechartseg;
pub mod tick_decode;
pub mod trace;

pub use components::{connected_components, separate_line_instances, LineInstance};
pub use extractor::{ExtractedChart, ExtractedLine, VisualElementExtractor};
pub use features::{FeaturePlanes, NUM_FEATURES};
pub use lcseg::{Lcseg, LcsegConfig};
pub use linechartseg::{build_linechartseg, SegExample};
pub use tick_decode::{decode_ticks, TickInfo};
