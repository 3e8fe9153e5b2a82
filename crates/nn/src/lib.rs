//! # lcdd-nn
//!
//! Neural-network layers over [`lcdd_tensor`], covering everything the FCM
//! architecture needs (*Dataset Discovery via Line Charts*, ICDE 2025):
//!
//! * [`Linear`] — affine projections (patch/segment embedders, heads),
//! * [`LayerNorm`] — the `LN` of Eq. (1),
//! * [`Mlp`] — feed-forward blocks, DA transformation layers, HMRL combiner,
//! * [`MultiHeadAttention`] — MSA blocks and HCMAN's cross-attention,
//! * [`TransformerEncoder`] — Eq. (1) stacks with positional embeddings,
//! * [`MoeGate`] — the Mixture-of-Experts gate of Sec. V-D,
//! * [`loss`] — the class-balanced BCE of Eq. (2) and a contrastive loss
//!   for the LineNet-role baseline.
//!
//! Every layer has a tape forward (`forward`, `combine`) for training and
//! a tape-free value forward for inference (`forward_rows`,
//! `forward_spans`, `mix_rows`, `forward_row`) that works on row-major
//! slices through caller-owned scratch and gives the tape's bits.

pub mod attention;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod module;
pub mod moe;
pub mod transformer;

pub use attention::{AttentionScratch, MultiHeadAttention};
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use loss::{balanced_bce, balanced_bce_logits, contrastive_nce, cosine_scores, mse};
pub use mlp::Mlp;
pub use module::Activation;
pub use moe::MoeGate;
pub use transformer::{TransformerBlock, TransformerEncoder, TransformerScratch};
