//! FCM hyper-parameters.

use crate::error::EngineError;

/// Configuration of the FCM model (paper Sec. IV/V/VII-B).
///
/// `paper()` reproduces the published configuration; `small()` is the
/// CPU-scale configuration the experiment harness trains (README.md,
/// "Layout notes" — same architecture, reduced widths/depths).
#[derive(Clone, Debug, PartialEq)]
pub struct FcmConfig {
    /// Embedding size `K`.
    pub embed_dim: usize,
    /// Attention heads in the transformer encoders.
    pub n_heads: usize,
    /// Transformer encoder layers `J`.
    pub n_layers: usize,
    /// Feed-forward expansion inside transformer blocks.
    pub ff_mult: usize,

    /// Chart raster width the encoders expect.
    pub chart_width: usize,
    /// Height line images are downsampled to before patching (keeps the
    /// flattened patch dimension manageable; the paper feeds full-height
    /// strips to a pretrained-size ViT).
    pub line_image_height: usize,
    /// Line-segment width `P1` in pixels (paper default 60).
    pub p1: usize,
    /// Number of traced-value samples appended to each line-segment patch
    /// (0 = pure pixel patches as in the paper; a small positive value
    /// gives the encoder the extractor's traced series per segment, which
    /// at CPU reproduction scale is needed for the cross-modal alignment
    /// to be learnable).
    pub trace_dim: usize,

    /// Column length the dataset encoder resamples every column to.
    pub column_len: usize,
    /// Data-segment size `P2` in rows (paper default 64).
    pub p2: usize,

    /// Whether the three DA layers are active (`false` = FCM-DA ablation).
    pub da_enabled: bool,
    /// HMRL depth β: each segment splits into `2^β` sub-segments (Sec. V-A).
    pub beta: usize,
    /// Hidden width of each MoE gating network.
    pub moe_hidden: usize,

    /// Whether HCMAN is active (`false` = FCM-HCMAN ablation: mean-pool +
    /// MLP matcher, Sec. VII-D1).
    pub hcman_enabled: bool,
    /// Hidden width of the final relevance MLP.
    pub matcher_hidden: usize,

    /// Multiplicative slack applied to the y-range column filter.
    pub range_slack: f64,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl FcmConfig {
    /// The published configuration (Sec. VII-B): 12 layers, width 768,
    /// 8 heads, P1 = 60, P2 = 64.
    pub fn paper() -> Self {
        FcmConfig {
            embed_dim: 768,
            n_heads: 8,
            n_layers: 12,
            ff_mult: 4,
            chart_width: 480,
            line_image_height: 64,
            p1: 60,
            trace_dim: 0,
            column_len: 512,
            p2: 64,
            da_enabled: true,
            beta: 3,
            moe_hidden: 128,
            hcman_enabled: true,
            matcher_hidden: 256,
            range_slack: 0.5,
            seed: 42,
        }
    }

    /// CPU-scale configuration used by the experiment harness.
    pub fn small() -> Self {
        FcmConfig {
            embed_dim: 32,
            n_heads: 4,
            n_layers: 2,
            ff_mult: 2,
            chart_width: 240,
            line_image_height: 24,
            p1: 30,
            trace_dim: 32,
            column_len: 256,
            p2: 32,
            da_enabled: true,
            beta: 2,
            moe_hidden: 16,
            hcman_enabled: true,
            matcher_hidden: 64,
            range_slack: 0.5,
            seed: 42,
        }
    }

    /// An even smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        FcmConfig {
            embed_dim: 16,
            n_heads: 2,
            n_layers: 1,
            ff_mult: 2,
            chart_width: 240,
            line_image_height: 12,
            p1: 60,
            trace_dim: 8,
            column_len: 64,
            p2: 16,
            da_enabled: true,
            beta: 2,
            moe_hidden: 8,
            hcman_enabled: true,
            matcher_hidden: 32,
            range_slack: 0.5,
            seed: 7,
        }
    }

    /// Number of line segments per line (`N1 = W / P1`).
    pub fn n_line_segments(&self) -> usize {
        self.chart_width.div_ceil(self.p1)
    }

    /// Number of data segments per column (`N2 = column_len / P2`).
    pub fn n_data_segments(&self) -> usize {
        self.column_len.div_ceil(self.p2)
    }

    /// Sub-segment length inside HMRL (`P2 / 2^β`).
    pub fn sub_segment_len(&self) -> usize {
        let subs = 1usize << self.beta;
        assert!(
            self.p2.is_multiple_of(subs),
            "FcmConfig: p2 ({}) must be divisible by 2^beta ({subs})",
            self.p2
        );
        self.p2 / subs
    }

    /// Flattened dimension of one line-segment patch (pixels + appended
    /// trace samples).
    pub fn patch_dim(&self) -> usize {
        self.line_image_height * self.p1 + self.trace_dim
    }

    /// Validates internal consistency, reporting the first violated
    /// constraint as an [`EngineError::InvalidConfig`]. The engine-facing
    /// APIs (`lcdd_engine`'s builder and snapshot loader) surface this
    /// instead of panicking.
    pub fn validated(&self) -> Result<(), EngineError> {
        let fail = |msg: String| Err(EngineError::InvalidConfig(msg));
        if !self.embed_dim.is_multiple_of(self.n_heads) {
            return fail(format!(
                "embed_dim must divide by heads ({} / {})",
                self.embed_dim, self.n_heads
            ));
        }
        if self.p1 == 0 || self.p2 == 0 || self.n_layers == 0 {
            return fail("p1, p2 and n_layers must be positive".into());
        }
        let subs = 1usize << self.beta;
        if !self.p2.is_multiple_of(subs) {
            return fail(format!(
                "p2 ({}) must be divisible by 2^beta ({subs})",
                self.p2
            ));
        }
        if !self.column_len.is_multiple_of(self.p2) {
            return fail(format!(
                "column_len ({}) must be a multiple of p2 ({})",
                self.column_len, self.p2
            ));
        }
        Ok(())
    }

    /// Panicking validation, kept for model construction paths that treat a
    /// bad config as a programming error.
    pub fn validate(&self) {
        if let Err(e) = self.validated() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_valid() {
        FcmConfig::paper().validate();
        FcmConfig::small().validate();
        FcmConfig::tiny().validate();
    }

    #[test]
    fn derived_sizes() {
        let c = FcmConfig::small();
        assert_eq!(c.n_line_segments(), 8); // 240 / 30
        assert_eq!(c.n_data_segments(), 8); // 256 / 32
        assert_eq!(c.sub_segment_len(), 8); // 32 / 2^2
        assert_eq!(c.patch_dim(), 24 * 30 + 32);
    }

    #[test]
    #[should_panic(expected = "divisible by 2^beta")]
    fn bad_beta_panics() {
        let mut c = FcmConfig::small();
        c.p2 = 30; // not divisible by 4
        c.validate();
    }

    #[test]
    fn validated_reports_errors_instead_of_panicking() {
        let mut c = FcmConfig::small();
        c.embed_dim = 33; // not divisible by 4 heads
        let err = c.validated().unwrap_err();
        assert!(err.to_string().contains("embed_dim"));
        let mut c = FcmConfig::small();
        c.column_len = 100; // not a multiple of p2 = 32
        assert!(c.validated().is_err());
        assert!(FcmConfig::small().validated().is_ok());
    }

    #[test]
    fn paper_matches_published_numbers() {
        let p = FcmConfig::paper();
        assert_eq!(p.embed_dim, 768);
        assert_eq!(p.n_layers, 12);
        assert_eq!(p.n_heads, 8);
        assert_eq!(p.p1, 60);
        assert_eq!(p.p2, 64);
    }
}
