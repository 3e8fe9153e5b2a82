//! Preprocessing: extractor output / tables → encoder-ready matrices.

use lcdd_chart::GreyImage;
use lcdd_table::normalize::{resample, z_normalized};
use lcdd_table::Table;
use lcdd_tensor::Matrix;
use lcdd_vision::{ExtractedChart, ExtractedLine};

use crate::config::FcmConfig;

/// A query preprocessed for the chart encoder: one patch matrix per line
/// (`N1 x patch_dim`) plus the decoded y range.
#[derive(Clone, Debug)]
pub struct ProcessedQuery {
    pub line_patches: Vec<Matrix>,
    pub y_range: Option<(f64, f64)>,
}

/// A table preprocessed for the dataset encoder: one segment matrix per
/// column (`N2 x P2`, z-normalised) plus raw column ranges for the y-tick
/// filter. Encoder input only: ingest and the trainer build one, encode
/// it, and keep the ranges; no engine structure holds one, since search
/// never reads the segments.
#[derive(Clone, Debug)]
pub struct ProcessedTable {
    pub table_id: u64,
    pub column_segments: Vec<Matrix>,
    pub column_ranges: Vec<(f64, f64)>,
}

/// Downsamples a line image to `target_h` rows by box-averaging, keeping
/// width, then splits it into `N1` patches of width `p1` (right-padded with
/// background) and flattens each patch into a row. When `cfg.trace_dim > 0`
/// the extractor's traced series for the segment (min-max normalised over
/// the whole line) is appended to each patch.
pub fn line_to_patches_with_trace(
    img: &GreyImage,
    trace: Option<&[f64]>,
    cfg: &FcmConfig,
) -> Matrix {
    let (w, h) = (img.width(), img.height());
    let th = cfg.line_image_height;
    // Box-average rows into th bands.
    let mut small = vec![0.0f32; th * w];
    for ty in 0..th {
        let y0 = ty * h / th;
        let y1 = (((ty + 1) * h).div_ceil(th)).min(h).max(y0 + 1);
        for x in 0..w {
            let mut s = 0.0;
            for y in y0..y1 {
                s += img.get(x, y);
            }
            small[ty * w + x] = s / (y1 - y0) as f32;
        }
    }
    let n1 = cfg.chart_width.div_ceil(cfg.p1);
    let pd = cfg.patch_dim();
    let pixel_dim = cfg.line_image_height * cfg.p1;
    // Z-normalised trace over the whole line (zero mean: cosine-based
    // alignment degenerates when all features share a positive offset).
    let normed_trace: Option<Vec<f64>> = match (cfg.trace_dim, trace) {
        (0, _) | (_, None) => None,
        (_, Some([])) => None,
        (_, Some(t)) => Some(z_normalized(t)),
    };
    let mut out = Matrix::zeros(n1, pd);
    for s in 0..n1 {
        let x0 = s * cfg.p1;
        for ty in 0..th {
            for dx in 0..cfg.p1 {
                let x = x0 + dx;
                let v = if x < w { small[ty * w + x] } else { 0.0 };
                out.set(s, ty * cfg.p1 + dx, v);
            }
        }
        if let Some(t) = &normed_trace {
            // The trace covers the plot columns; map this segment's x range
            // onto it proportionally and resample to trace_dim points.
            let frac0 = x0 as f64 / cfg.chart_width as f64;
            let frac1 = ((x0 + cfg.p1).min(cfg.chart_width)) as f64 / cfg.chart_width as f64;
            let i0 = ((frac0 * t.len() as f64) as usize).min(t.len().saturating_sub(1));
            let i1 = ((frac1 * t.len() as f64) as usize).clamp(i0 + 1, t.len());
            let samples = resample(&t[i0..i1], cfg.trace_dim);
            for (k, &sv) in samples.iter().enumerate() {
                out.set(s, pixel_dim + k, sv as f32);
            }
        }
    }
    out
}

/// Pixel-only variant (no trace appended even when configured).
pub fn line_to_patches(img: &GreyImage, cfg: &FcmConfig) -> Matrix {
    line_to_patches_with_trace(img, None, cfg)
}

/// Builds the patch matrix for one extracted line, honouring `trace_dim`.
pub fn extracted_line_to_patches(line: &ExtractedLine, cfg: &FcmConfig) -> Matrix {
    // The extractor reports values in chart units; the trace must be
    // oriented so larger = higher, which `values` already guarantees.
    line_to_patches_with_trace(&line.image, Some(&line.values), cfg)
}

/// Preprocesses an extracted chart into encoder input.
pub fn process_query(extracted: &ExtractedChart, cfg: &FcmConfig) -> ProcessedQuery {
    ProcessedQuery {
        line_patches: extracted
            .lines
            .iter()
            .map(|l| extracted_line_to_patches(l, cfg))
            .collect(),
        y_range: extracted.y_range,
    }
}

/// Preprocesses one column: resample to `column_len`, z-normalise (zero
/// mean — see the trace note above), split into `N2` rows of `P2` values.
pub fn column_to_segments(values: &[f64], cfg: &FcmConfig) -> Matrix {
    let resampled = resample(values, cfg.column_len);
    let normed = z_normalized(&resampled);
    let n2 = cfg.n_data_segments();
    let data: Vec<f32> = normed.iter().map(|&v| v as f32).collect();
    Matrix::from_vec(n2, cfg.p2, data)
}

/// Preprocesses a whole table.
pub fn process_table(table: &Table, cfg: &FcmConfig) -> ProcessedTable {
    ProcessedTable {
        table_id: table.id,
        column_segments: table
            .columns
            .iter()
            .map(|c| column_to_segments(&c.values, cfg))
            .collect(),
        column_ranges: table
            .columns
            .iter()
            .map(|c| (c.min().unwrap_or(0.0), c.max().unwrap_or(0.0)))
            .collect(),
    }
}

/// Indices of columns passing the y-tick range filter (Sec. IV-C); falls
/// back to all columns when the filter would empty the table or when the
/// query has no decoded range.
pub fn filter_columns(
    processed: &ProcessedTable,
    y_range: Option<(f64, f64)>,
    slack: f64,
) -> Vec<usize> {
    kept_columns(&processed.column_ranges, y_range, slack).collect()
}

/// [`filter_columns`] over a table's column ranges as an iterator, for the
/// scorer's allocation-free candidate loop. A table has one column per
/// range.
pub(crate) fn kept_columns(
    ranges: &[(f64, f64)],
    y_range: Option<(f64, f64)>,
    slack: f64,
) -> impl Iterator<Item = usize> + '_ {
    let window = y_range.map(|(lo, hi)| {
        let span = (hi - lo).abs().max(1e-12);
        (lo - span * slack, hi + span * slack)
    });
    let hit = move |i: usize| {
        window.is_some_and(|(qlo, qhi)| {
            let (cmin, cmax) = ranges[i];
            cmin <= qhi && cmax >= qlo
        })
    };
    let filtering = (0..ranges.len()).any(hit);
    (0..ranges.len()).filter(move |&i| !filtering || hit(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdd_table::Column;

    fn cfg() -> FcmConfig {
        FcmConfig::tiny()
    }

    #[test]
    fn patches_shape() {
        let cfg = cfg();
        let img = GreyImage::new(cfg.chart_width, 96, 0.0);
        let p = line_to_patches(&img, &cfg);
        assert_eq!(p.shape(), (cfg.n_line_segments(), cfg.patch_dim()));
    }

    #[test]
    fn patches_capture_ink_position() {
        let cfg = cfg();
        let mut img = GreyImage::new(cfg.chart_width, 96, 0.0);
        // Ink only in the first segment's x range.
        for y in 0..96 {
            img.set(5, y, 1.0);
        }
        let p = line_to_patches(&img, &cfg);
        let first: f32 = p.row(0).iter().sum();
        let rest: f32 = (1..p.rows()).map(|r| p.row(r).iter().sum::<f32>()).sum();
        assert!(first > 0.5);
        assert_eq!(rest, 0.0);
    }

    #[test]
    fn column_segments_shape_and_range() {
        let cfg = cfg();
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 3.0).collect();
        let m = column_to_segments(&vals, &cfg);
        assert_eq!(m.shape(), (cfg.n_data_segments(), cfg.p2));
        let all: Vec<f32> = m.as_slice().to_vec();
        // z-normalised: zero mean, unit variance.
        let mean: f32 = all.iter().sum::<f32>() / all.len() as f32;
        assert!(mean.abs() < 1e-4, "mean {mean}");
        assert!(all.iter().any(|&v| v > 0.9));
    }

    #[test]
    fn filter_columns_by_range() {
        let cfg = cfg();
        let table = Table::new(
            0,
            "t",
            vec![
                Column::new("small", vec![0.0, 1.0, 2.0]),
                Column::new("big", vec![1000.0, 1100.0, 1200.0]),
            ],
        );
        let pt = process_table(&table, &cfg);
        let hits = filter_columns(&pt, Some((900.0, 1300.0)), 0.1);
        assert_eq!(hits, vec![1]);
        // No range -> all columns.
        assert_eq!(filter_columns(&pt, None, 0.1).len(), 2);
        // Range matching nothing -> fall back to all columns.
        assert_eq!(filter_columns(&pt, Some((-9e9, -8e9)), 0.1).len(), 2);
    }
}
