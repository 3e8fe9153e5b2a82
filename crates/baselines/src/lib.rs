//! # lcdd-baselines
//!
//! The four baselines the paper evaluates FCM against (Sec. VII-B):
//!
//! * [`Cml`] — coarse single-vector image/table encoders + cosine,
//! * [`QetchStar`] — Qetch's scale-free local sketch matching lifted to
//!   multi-line charts via bipartite matching,
//! * [`DeLn`] — DeepEye-role VisRec recommendations ranked by a
//!   LineNet-role chart-image similarity model,
//! * [`OptLn`] — DE-LN's upper bound using the ground-truth vis spec.
//!
//! All implement [`DiscoveryMethod`], the interface the benchmark runner
//! evaluates uniformly (FCM is wrapped by `lcdd-benchmark`).

pub mod cml;
pub mod de_ln;
pub mod deepeye;
pub mod image_encoder;
pub mod linenet;
pub mod method;
pub mod qetch;

pub use cml::{Cml, CmlConfig};
pub use de_ln::{DeLn, OptLn};
pub use deepeye::{column_goodness, recommend_line_charts, Recommendation};
pub use image_encoder::{cosine, ImageEncoder, ImageEncoderConfig};
pub use linenet::{LineNet, LineNetConfig};
pub use method::{DiscoveryMethod, QueryInput};
pub use qetch::{QetchConfig, QetchStar};
