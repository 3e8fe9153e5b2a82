//! Blocked/packed matmul kernels — the compute core under every encoder,
//! the HCMAN matcher and the linear-scan scoring path.
//!
//! The dense path packs the `B` operand into contiguous column panels of
//! width [`NR`] and runs an `MR`×`NR` register-tiled micro-kernel with
//! [`MR`]-wide accumulator unrolling; both panel reads and accumulator
//! updates are contiguous, so LLVM auto-vectorizes the inner loop to the
//! widest SIMD the target supports (the workspace builds with
//! `target-cpu=native`). Large products are additionally split across the
//! [`crate::pool`] workers — by output-row bands when there are enough
//! rows, otherwise by packed column panels (the small-`n` score-GEMM
//! shape) — with band boundaries chosen so results are bit-identical to
//! the serial sweep at every thread count.
//!
//! Three data layouts cover the autograd tape's needs without ever
//! materializing a transpose:
//!
//! * [`matmul_into`] — `C = A · B`
//! * [`matmul_nt_into`] — `C = A · Bᵀ` (backward w.r.t. the left operand)
//! * [`matmul_tn_into`] — `C = Aᵀ · B` (backward w.r.t. the right operand)
//!
//! A sparse fast path (the seed kernel's skip-zero loop) is kept behind a
//! cheap density probe: one-hot / masked inputs such as MoE gate outputs
//! still skip their zero rows, while dense inputs never pay the
//! per-element branch the seed imposed on everything.
//!
//! Inference runs on a fourth kernel, [`rows_matmul`]: `C = A · W (+ b)`
//! over raw row-major slices, in which each output row is a pure function
//! of its input row. The exact scorer and both encoders' value paths use
//! it for every product, so their results do not depend on how many rows
//! were stacked into one operand.

use crate::matrix::Matrix;
use crate::pool;

/// Micro-kernel row tile (accumulator unroll factor).
pub const MR: usize = 4;
/// Micro-kernel column tile (one packed panel width).
pub const NR: usize = 16;

/// Products smaller than this many multiply-adds run the plain loop; the
/// packing + tiling overhead only pays off once the operands stop fitting
/// in registers/L1 anyway.
const TINY_FLOP_LIMIT: usize = 16 * 1024;

/// Minimum multiply-adds per band before the parallel split pays for a
/// scoped spawn. The gate is derived from *per-band work* (`flops /
/// bands`), not from `n` alone: a wide-but-short score GEMM (small `n`,
/// large `k·m`) carries plenty of work per worker even though it has few
/// output rows, and splits by column panels instead (see
/// [`ColumnBandSplit`] in [`matmul_into`]).
const PAR_BAND_FLOP_LIMIT: usize = 256 * 1024;

/// Row granule of the parallel split. Band boundaries must align to the
/// *widest* micro-kernel tile: the tile sweep (12-row AVX-512 tiles, then
/// [`MR`]-row tiles, then single rows) restarts at each band start, and the
/// AVX-512 tile accumulates with fused multiply-adds (one rounding) while
/// the generic tiles round twice — so a band boundary that shifts rows
/// between tile kinds would change result bits with the thread count.
/// With bands aligned to the widest tile, every row lands in the same tile
/// kind as in the serial sweep and results are bit-identical at any
/// thread count.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
const BAND_ALIGN: usize = avx512::MR_WIDE;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
const BAND_ALIGN: usize = MR;

/// How [`matmul_into`]'s dense path distributes work across the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SplitPlan {
    /// One worker: not enough work (or workers) to amortize spawning.
    Serial,
    /// Disjoint bands of output rows, aligned to [`BAND_ALIGN`].
    Rows(usize),
    /// Disjoint bands of packed column panels ([`NR`]-aligned); chosen for
    /// row-poor shapes where a row split cannot use the workers.
    Cols(usize),
}

/// Decides the parallel split for an `(n, p)` output with `flops`
/// multiply-adds on a pool of `threads` workers. Bands are capped so each
/// carries at least [`PAR_BAND_FLOP_LIMIT`] work.
fn split_plan(flops: usize, n: usize, p: usize, threads: usize) -> SplitPlan {
    let work_bands = flops / PAR_BAND_FLOP_LIMIT;
    let row_bands = threads.min(work_bands).min(n.div_ceil(BAND_ALIGN));
    if row_bands > 1 {
        return SplitPlan::Rows(row_bands);
    }
    let col_bands = threads.min(work_bands).min(p.div_ceil(NR));
    if col_bands > 1 {
        return SplitPlan::Cols(col_bands);
    }
    SplitPlan::Serial
}

/// Fraction of probed elements that must be zero before the sparse
/// skip-zero path is chosen.
const SPARSE_THRESHOLD: f64 = 0.8;

/// Reference triple-loop matmul (i-j-k, no blocking, no zero-skip).
///
/// This is the correctness oracle for the property tests and the baseline
/// the kernel benchmarks compare against. Keep it boring.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_naive: inner dimensions differ ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (n, m, p) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(n, p);
    for i in 0..n {
        for j in 0..p {
            let mut acc = 0.0f32;
            for k in 0..m {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Estimated fraction of zero elements, probing at most 256 samples.
///
/// Probe positions come from Fibonacci hashing rather than a fixed
/// stride: a stride of `len / 256` aligns with the row length whenever
/// the width divides it (e.g. any 256-wide matrix), which would sample a
/// single column and misclassify dense matrices with one zero column as
/// sparse.
fn zero_fraction(data: &[f32]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let n = data.len() as u128;
    let samples = data.len().min(256) as u64;
    let mut zeros = 0usize;
    for i in 0..samples {
        let h = (i + 1).wrapping_mul(0x9E3779B97F4A7C15) >> 32;
        let idx = ((h as u128 * n) >> 32) as usize;
        zeros += usize::from(data[idx] == 0.0);
    }
    zeros as f64 / samples as f64
}

/// `out = a · b`, shapes `(n,m) x (m,p) -> (n,p)`. `out` is fully
/// overwritten; it must already have the right shape.
///
/// Writing into caller-provided `out` removes the per-op output
/// allocation of [`Matrix::matmul`]. The dense path still allocates one
/// internal scratch buffer per call to pack `B` into panels; tiny and
/// sparse paths allocate nothing. Caching packed weight panels would not
/// help the search hot path: the exact scorer in `lcdd-fcm` does not call
/// this kernel, because it needs each output row's bits to be independent
/// of the tile kind the row lands in; nor do the encoders' inference
/// paths. Only training does.
pub fn matmul_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (n, m) = a.shape();
    let (mb, p) = b.shape();
    assert_eq!(
        m, mb,
        "matmul: inner dimensions differ ({n}x{m} * {mb}x{p})"
    );
    assert_eq!(out.shape(), (n, p), "matmul: output shape mismatch");
    let flops = n * m * p;
    if flops == 0 {
        out.as_mut_slice().fill(0.0);
        return;
    }
    if flops <= TINY_FLOP_LIMIT {
        return matmul_ikj(out, a, b);
    }
    if zero_fraction(a.as_slice()) >= SPARSE_THRESHOLD {
        return matmul_sparse_a(out, a, b);
    }

    // Dense path: pack B into zero-padded NR-wide column panels so the
    // micro-kernel streams contiguous memory regardless of p.
    let packed = pack_b_panels(b);
    let a_data = a.as_slice();
    let out_data = out.as_mut_slice();

    match split_plan(flops, n, p, pool::num_threads()) {
        SplitPlan::Rows(bands) => {
            // Row bands: each worker owns a disjoint band of output rows,
            // aligned to the widest micro-kernel tile so every row keeps
            // its serial-sweep tile kind (see [`BAND_ALIGN`]).
            let rows_per = n.div_ceil(bands).next_multiple_of(BAND_ALIGN);
            pool::par_chunks_mut(out_data, rows_per * p, |offset, band| {
                let i0 = offset / p;
                let rows = band.len() / p;
                matmul_packed_rows(band, &a_data[i0 * m..(i0 + rows) * m], &packed, rows, m, p);
            });
        }
        SplitPlan::Cols(bands) => {
            // Column bands: each worker sweeps all rows against a disjoint
            // range of packed panels into a private buffer, scattered into
            // `out` afterwards. Each output element's accumulation happens
            // entirely within one panel with the full-row tile sweep, so
            // the bits match the serial sweep exactly; the scatter copies
            // O(n·p) floats against O(n·m·p) flops of saved wall-clock.
            let n_panels = p.div_ceil(NR);
            let panels_per = n_panels.div_ceil(bands);
            let starts: Vec<usize> = (0..n_panels).step_by(panels_per).collect();
            let parts: Vec<(usize, usize, Vec<f32>)> = pool::par_map(&starts, |&jp0| {
                let jp1 = (jp0 + panels_per).min(n_panels);
                let j0 = jp0 * NR;
                let width = (jp1 * NR).min(p) - j0;
                let mut part = vec![0.0f32; n * width];
                // The band is a self-contained (n x width) product over its
                // own panels: the right-edge panel width works out the same
                // because only the globally-last panel is narrow.
                matmul_packed_rows(
                    &mut part,
                    a_data,
                    &packed[jp0 * m * NR..jp1 * m * NR],
                    n,
                    m,
                    width,
                );
                (j0, width, part)
            });
            for (j0, width, part) in parts {
                for i in 0..n {
                    out_data[i * p + j0..i * p + j0 + width]
                        .copy_from_slice(&part[i * width..(i + 1) * width]);
                }
            }
        }
        SplitPlan::Serial => matmul_packed_rows(out_data, a_data, &packed, n, m, p),
    }
}

/// Packs `b` into panel-major layout: panel `jp` holds columns
/// `[jp*NR, (jp+1)*NR)` as `m` contiguous rows of `NR` floats, zero-padded
/// on the right edge.
fn pack_b_panels(b: &Matrix) -> Vec<f32> {
    let (m, p) = b.shape();
    let n_panels = p.div_ceil(NR);
    let mut packed = vec![0.0f32; n_panels * m * NR];
    let b_data = b.as_slice();
    for jp in 0..n_panels {
        let j0 = jp * NR;
        let w = NR.min(p - j0);
        let panel = &mut packed[jp * m * NR..(jp + 1) * m * NR];
        for k in 0..m {
            panel[k * NR..k * NR + w].copy_from_slice(&b_data[k * p + j0..k * p + j0 + w]);
        }
    }
    packed
}

/// Dense micro-kernel sweep over `rows` output rows. `out` and `a` are the
/// row-major buffers for those rows; `packed` is the full panel-packed B.
fn matmul_packed_rows(out: &mut [f32], a: &[f32], packed: &[f32], rows: usize, m: usize, p: usize) {
    debug_assert_eq!(out.len(), rows * p);
    debug_assert_eq!(a.len(), rows * m);
    let n_panels = p.div_ceil(NR);
    // Panel-outer loop order: one `m x NR` panel (≤16 KiB at the sizes this
    // workspace hits) stays L1-resident while every row block sweeps it;
    // the i-outer order would re-stream the whole packed B from L2 once
    // per row block.
    for jp in 0..n_panels {
        let panel = &packed[jp * m * NR..(jp + 1) * m * NR];
        let mut i = 0;
        // Widest tile first (12 rows with explicit AVX-512 FMA where
        // available), then the generic MR tile, then single rows.
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        while i + avx512::MR_WIDE <= rows {
            // SAFETY: avx512f is a compile-time target feature here, and
            // the tile bounds were just checked.
            unsafe { avx512::microkernel_12(out, a, panel, i, jp, m, p) };
            i += avx512::MR_WIDE;
        }
        while i + MR <= rows {
            microkernel::<MR>(out, a, panel, i, jp, m, p);
            i += MR;
        }
        // Tail rows (< MR): single-row kernel, still panel-contiguous.
        while i < rows {
            microkernel_1(out, a, panel, i, jp, m, p);
            i += 1;
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    //! Explicit AVX-512 micro-kernel. The autovectorized generic tile tops
    //! out well below FMA throughput because LLVM picks a conservative
    //! vector width; with 32 zmm registers a 12×16 tile (12 accumulators +
    //! panel row + broadcast) keeps both FMA ports busy.

    use super::NR;
    use core::arch::x86_64::*;

    /// Rows per AVX-512 tile.
    pub const MR_WIDE: usize = 12;

    /// 12×NR tile: accumulate `out[i0..i0+12][jp*NR..]` over the packed
    /// panel.
    ///
    /// # Safety
    /// Requires the `avx512f` target feature (enforced by the enclosing
    /// `cfg`) and `i0 + 12 <= rows`, `panel.len() >= m * NR`.
    #[inline]
    pub unsafe fn microkernel_12(
        out: &mut [f32],
        a: &[f32],
        panel: &[f32],
        i0: usize,
        jp: usize,
        m: usize,
        p: usize,
    ) {
        debug_assert_eq!(NR, 16, "tile assumes one zmm per panel row");
        let mut acc = [_mm512_setzero_ps(); MR_WIDE];
        let panel_ptr = panel.as_ptr();
        let a_ptr = a.as_ptr();
        for k in 0..m {
            let brow = _mm512_loadu_ps(panel_ptr.add(k * NR));
            // Unrolled broadcast-FMA sweep; LLVM folds the broadcasts into
            // the FMA memory operands.
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let v = _mm512_set1_ps(*a_ptr.add((i0 + r) * m + k));
                *acc_r = _mm512_fmadd_ps(v, brow, *acc_r);
            }
        }
        let j0 = jp * NR;
        let w = NR.min(p - j0);
        if w == NR {
            for (r, acc_r) in acc.iter().enumerate() {
                _mm512_storeu_ps(out.as_mut_ptr().add((i0 + r) * p + j0), *acc_r);
            }
        } else {
            // Right-edge panel: spill the tile and copy the valid prefix.
            let mut tmp = [0.0f32; NR];
            for (r, acc_r) in acc.iter().enumerate() {
                _mm512_storeu_ps(tmp.as_mut_ptr(), *acc_r);
                out[(i0 + r) * p + j0..(i0 + r) * p + j0 + w].copy_from_slice(&tmp[..w]);
            }
        }
    }
}

/// RxNR register tile: `R` output rows against one packed panel. The
/// accumulators live in `[[f32; NR]; R]`, which LLVM keeps in vector
/// registers; the k-loop does R broadcast-FMA sweeps over the panel row
/// (on AVX-512 the broadcasts fold into the FMA's memory operand).
#[inline]
fn microkernel<const R: usize>(
    out: &mut [f32],
    a: &[f32],
    panel: &[f32],
    i0: usize,
    jp: usize,
    m: usize,
    p: usize,
) {
    let mut acc = [[0.0f32; NR]; R];
    for k in 0..m {
        let brow: &[f32; NR] = panel[k * NR..(k + 1) * NR].try_into().unwrap();
        for r in 0..R {
            let v = a[(i0 + r) * m + k];
            for c in 0..NR {
                acc[r][c] += v * brow[c];
            }
        }
    }
    let j0 = jp * NR;
    let w = NR.min(p - j0);
    for (r, acc_row) in acc.iter().enumerate() {
        let dst = &mut out[(i0 + r) * p + j0..(i0 + r) * p + j0 + w];
        dst.copy_from_slice(&acc_row[..w]);
    }
}

/// Single-row edge kernel for the `rows % MR` tail.
#[inline]
fn microkernel_1(
    out: &mut [f32],
    a: &[f32],
    panel: &[f32],
    i: usize,
    jp: usize,
    m: usize,
    p: usize,
) {
    let mut acc = [0.0f32; NR];
    let a_row = &a[i * m..(i + 1) * m];
    for (k, &v) in a_row.iter().enumerate() {
        let brow: &[f32; NR] = panel[k * NR..(k + 1) * NR].try_into().unwrap();
        for c in 0..NR {
            acc[c] += v * brow[c];
        }
    }
    let j0 = jp * NR;
    let w = NR.min(p - j0);
    out[i * p + j0..i * p + j0 + w].copy_from_slice(&acc[..w]);
}

/// Plain i-k-j loop for tiny products (axpy inner loop, no zero branch).
fn matmul_ikj(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (n, m) = a.shape();
    let p = b.cols();
    let out_data = out.as_mut_slice();
    out_data.fill(0.0);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i in 0..n {
        let a_row = &a_data[i * m..(i + 1) * m];
        let o_row = &mut out_data[i * p..(i + 1) * p];
        for (k, &a_ik) in a_row.iter().enumerate() {
            let b_row = &b_data[k * p..(k + 1) * p];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += a_ik * bv;
            }
        }
    }
}

/// Skip-zero i-k-j loop for A operands the density probe found mostly
/// zero (one-hot selections, masked gates).
fn matmul_sparse_a(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (n, m) = a.shape();
    let p = b.cols();
    let out_data = out.as_mut_slice();
    out_data.fill(0.0);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i in 0..n {
        let a_row = &a_data[i * m..(i + 1) * m];
        let o_row = &mut out_data[i * p..(i + 1) * p];
        for (k, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b_data[k * p..(k + 1) * p];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += a_ik * bv;
            }
        }
    }
}

/// Above this many multiply-adds the transposed-layout kernels
/// materialize the transpose once and dispatch to the blocked/packed
/// kernel instead: the O(n·m·p) packed micro-kernel gain dwarfs the
/// O(m·p) transpose copy, while small gradients keep the copy-free path.
const NT_TN_BLOCKED_LIMIT: usize = 64 * 1024;

/// `out = a · bᵀ`, shapes `(n,m) x (p,m) -> (n,p)`.
///
/// Small products read both operands along contiguous rows (dot
/// products) with no transpose materialization; large ones transpose
/// once and use the blocked kernel. This is the gradient kernel for
/// `dL/dA = G · Bᵀ`.
pub fn matmul_nt_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (n, m) = a.shape();
    let (p, mb) = b.shape();
    assert_eq!(
        m, mb,
        "matmul_nt: inner dimensions differ ({n}x{m} * ({p}x{mb})ᵀ)"
    );
    assert_eq!(out.shape(), (n, p), "matmul_nt: output shape mismatch");
    if n * m * p > NT_TN_BLOCKED_LIMIT {
        return matmul_into(out, a, &b.transpose());
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let out_data = out.as_mut_slice();
    for i in 0..n {
        let a_row = &a_data[i * m..(i + 1) * m];
        let o_row = &mut out_data[i * p..(i + 1) * p];
        let mut j = 0;
        // 4-wide dot-product unroll: four B rows share one pass over a_row.
        while j + 4 <= p {
            let b0 = &b_data[j * m..(j + 1) * m];
            let b1 = &b_data[(j + 1) * m..(j + 2) * m];
            let b2 = &b_data[(j + 2) * m..(j + 3) * m];
            let b3 = &b_data[(j + 3) * m..(j + 4) * m];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (k, &av) in a_row.iter().enumerate() {
                s0 += av * b0[k];
                s1 += av * b1[k];
                s2 += av * b2[k];
                s3 += av * b3[k];
            }
            o_row[j] = s0;
            o_row[j + 1] = s1;
            o_row[j + 2] = s2;
            o_row[j + 3] = s3;
            j += 4;
        }
        while j < p {
            let b_row = &b_data[j * m..(j + 1) * m];
            o_row[j] = a_row.iter().zip(b_row).map(|(&x, &y)| x * y).sum();
            j += 1;
        }
    }
}

/// `out = aᵀ · b`, shapes `(m,n) x (m,p) -> (n,p)`.
///
/// Small products are register-tiled directly on the transposed
/// indexing (within row `k`, `a[k][i..i+MR]` and `b[k][j..j+NR]` are
/// both contiguous, so the tile needs no packing); large ones transpose
/// once and use the blocked kernel. This is the gradient kernel for
/// `dL/dB = Aᵀ · G`.
pub fn matmul_tn_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (m, n) = a.shape();
    let (mb, p) = b.shape();
    assert_eq!(
        m, mb,
        "matmul_tn: inner dimensions differ (({m}x{n})ᵀ * {mb}x{p})"
    );
    assert_eq!(out.shape(), (n, p), "matmul_tn: output shape mismatch");
    if n * m * p > NT_TN_BLOCKED_LIMIT {
        return matmul_into(out, &a.transpose(), b);
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let out_data = out.as_mut_slice();
    let mut i = 0;
    while i + MR <= n {
        let mut jp = 0;
        while jp < p {
            let w = NR.min(p - jp);
            let mut acc = [[0.0f32; NR]; MR];
            for k in 0..m {
                let a_part: &[f32] = &a_data[k * n + i..k * n + i + MR];
                let b_part: &[f32] = &b_data[k * p + jp..k * p + jp + w];
                for (r, &av) in a_part.iter().enumerate() {
                    for (c, &bv) in b_part.iter().enumerate() {
                        acc[r][c] += av * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out_data[(i + r) * p + jp..(i + r) * p + jp + w].copy_from_slice(&acc_row[..w]);
            }
            jp += NR;
        }
        i += MR;
    }
    while i < n {
        let mut jp = 0;
        while jp < p {
            let w = NR.min(p - jp);
            let mut acc = [0.0f32; NR];
            for k in 0..m {
                let av = a_data[k * n + i];
                let b_part = &b_data[k * p + jp..k * p + jp + w];
                for (c, &bv) in b_part.iter().enumerate() {
                    acc[c] += av * bv;
                }
            }
            out_data[i * p + jp..i * p + jp + w].copy_from_slice(&acc[..w]);
            jp += NR;
        }
        i += 1;
    }
}

/// Column strip of [`rows_matmul`]: one AVX-512 register, two AVX2 ones.
const STRIP: usize = 16;
/// Row tile of [`rows_matmul`]: rows sharing each loaded strip of `w`.
const TILE: usize = 4;

/// `out = a · w (+ bias)` with `a: rows x k`, `w: k x n`, all row-major.
///
/// Every output element is `((0 + a0·w0) + a1·w1) + …` over `k` in index
/// order, each multiply and add rounded on its own (Rust never contracts
/// them into fused multiply-adds), then the bias is added. Tiling only
/// decides which elements share register loads, never that sequence, so
/// each output row is a pure function of its input row and `w`.
///
/// That sequence is also the one [`matmul_into`] computes on every path
/// but the AVX-512 12-row tile (the plain loop, the [`MR`]-row and
/// single-row tiles, and the skip-zero loop, which only drops `+ 0·w`
/// terms with finite `w`), so for a product of fewer than 12 rows both
/// kernels give the same bits.
pub fn rows_matmul(
    out: &mut [f32],
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    k: usize,
    n: usize,
) {
    let rows = a.len().checked_div(k).unwrap_or(0);
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(w.len(), k * n);
    debug_assert_eq!(out.len(), rows * n);
    let mut r = 0;
    while r + TILE <= rows {
        row_tile::<TILE>(
            &mut out[r * n..(r + TILE) * n],
            &a[r * k..(r + TILE) * k],
            w,
            bias,
            k,
            n,
        );
        r += TILE;
    }
    while r < rows {
        row_tile::<1>(
            &mut out[r * n..(r + 1) * n],
            &a[r * k..(r + 1) * k],
            w,
            bias,
            k,
            n,
        );
        r += 1;
    }
}

/// `R` rows of [`rows_matmul`]: full [`STRIP`]-wide column strips with the
/// accumulators in registers, then the leftover columns one at a time.
#[inline(always)]
fn row_tile<const R: usize>(
    out: &mut [f32],
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    k: usize,
    n: usize,
) {
    let mut j0 = 0;
    while j0 + STRIP <= n {
        let mut acc = [[0.0f32; STRIP]; R];
        for (kk, w_row) in w.chunks_exact(n).enumerate() {
            let w_strip: &[f32; STRIP] = w_row[j0..j0 + STRIP].try_into().expect("strip");
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let x = a[r * k + kk];
                for (o, &wv) in acc_r.iter_mut().zip(w_strip) {
                    *o += x * wv;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let o = &mut out[r * n + j0..r * n + j0 + STRIP];
            match bias {
                Some(b) => {
                    for ((o, &v), &bv) in o.iter_mut().zip(acc_r).zip(&b[j0..j0 + STRIP]) {
                        *o = v + bv;
                    }
                }
                None => o.copy_from_slice(acc_r),
            }
        }
        j0 += STRIP;
    }
    for j in j0..n {
        for r in 0..R {
            let mut acc = 0.0f32;
            for (kk, w_row) in w.chunks_exact(n).enumerate() {
                acc += a[r * k + kk] * w_row[j];
            }
            out[r * n + j] = bias.map_or(acc, |b| acc + b[j]);
        }
    }
}

/// The first `len` floats of a reusable buffer, lengthening it if it is
/// shorter. Never shrinks, so a scratch buffer stops allocating once it
/// has seen its largest use.
pub fn grow(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Integer dot product of two `i8` vectors with `i32` accumulation — the
/// inner kernel of the quantized candidate scan. Products are widened to
/// `i32` before summing, so no intermediate can overflow for any input
/// shorter than `2^16` elements (`127 * 127 * 65536 < i32::MAX`); the
/// embedding dimensions this workspace uses are orders of magnitude below
/// that.
///
/// The loop runs four independent accumulators so LLVM vectorizes it to
/// the widest integer SIMD the target supports (`pmaddwd`-style widening
/// on x86-64); exact integer arithmetic means the result is identical for
/// any split, so there is no serial/parallel bit-parity concern here.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
    let mut acc = [0i32; 4];
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for i in 0..4 {
            acc[i] += ca[i] as i32 * cb[i] as i32;
        }
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        total += x as i32 * y as i32;
    }
    total
}

/// Sum of an `i8` vector widened to `i32` — the per-vector correction term
/// of the affine quantized dot decomposition (computed once per quantized
/// vector, never in the scan loop).
pub fn sum_i8(a: &[i8]) -> i32 {
    a.iter().map(|&x| x as i32).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Deterministic pseudo-random fill, varied by seed.
        let data = (0..rows * cols)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed * 97)) % 1000) as f32
                    / 250.0
                    - 2.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
        for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!((x - y).abs() <= tol, "{ctx}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        for &(n, m, p) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 16),
            (5, 17, 33),
            (16, 16, 16),
            (33, 65, 9),
            (64, 32, 48),
            (70, 70, 70),
        ] {
            let a = matrix(n, m, 1);
            let b = matrix(m, p, 2);
            let naive = matmul_naive(&a, &b);
            let mut fast = Matrix::zeros(n, p);
            matmul_into(&mut fast, &a, &b);
            assert_close(&fast, &naive, 1e-3, &format!("{n}x{m}x{p}"));
        }
    }

    #[test]
    fn sparse_path_matches_naive() {
        // A is ~95% zeros -> density probe must still produce exact results.
        let n = 40;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a.set(i, (i * 7) % n, 1.5);
            if i % 2 == 0 {
                a.set(i, (i * 3) % n, -0.5);
            }
        }
        let b = matrix(n, n, 3);
        let naive = matmul_naive(&a, &b);
        let mut fast = Matrix::zeros(n, n);
        matmul_into(&mut fast, &a, &b);
        assert_close(&fast, &naive, 1e-4, "sparse");
    }

    #[test]
    fn nt_matches_naive_on_transpose() {
        // (48, 64, 40) and (80, 80, 80) cross NT_TN_BLOCKED_LIMIT, covering
        // the transpose-then-blocked dispatch.
        for &(n, m, p) in &[
            (3, 4, 5),
            (8, 16, 8),
            (13, 7, 21),
            (1, 9, 1),
            (48, 64, 40),
            (80, 80, 80),
        ] {
            let a = matrix(n, m, 4);
            let bt = matrix(p, m, 5); // b = btᵀ
            let mut out = Matrix::zeros(n, p);
            matmul_nt_into(&mut out, &a, &bt);
            let reference = matmul_naive(&a, &bt.transpose());
            assert_close(&out, &reference, 1e-3, &format!("nt {n}x{m}x{p}"));
        }
    }

    #[test]
    fn tn_matches_naive_on_transpose() {
        for &(n, m, p) in &[
            (3, 4, 5),
            (8, 16, 8),
            (13, 7, 21),
            (21, 1, 17),
            (48, 64, 40),
            (80, 80, 80),
        ] {
            let at = matrix(m, n, 6); // a = atᵀ
            let b = matrix(m, p, 7);
            let mut out = Matrix::zeros(n, p);
            matmul_tn_into(&mut out, &at, &b);
            let reference = matmul_naive(&at.transpose(), &b);
            assert_close(&out, &reference, 1e-3, &format!("tn {n}x{m}x{p}"));
        }
    }

    #[test]
    fn into_overwrites_stale_contents() {
        let a = matrix(6, 6, 8);
        let b = matrix(6, 6, 9);
        let mut out = Matrix::full(6, 6, f32::NAN);
        matmul_into(&mut out, &a, &b);
        assert!(!out.has_non_finite(), "stale NaNs must be overwritten");
        assert_close(&out, &matmul_naive(&a, &b), 1e-3, "overwrite");
    }

    #[test]
    fn zero_fraction_probe() {
        assert_eq!(zero_fraction(&[]), 0.0);
        assert_eq!(zero_fraction(&[0.0; 64]), 1.0);
        assert_eq!(zero_fraction(&[1.0; 64]), 0.0);
        let half: Vec<f32> = (0..64).map(|i| (i % 2) as f32).collect();
        let f = zero_fraction(&half);
        assert!((f - 0.5).abs() < 0.2, "{f}");
    }

    #[test]
    fn zero_fraction_not_fooled_by_zero_column() {
        // 256-wide dense matrix whose column 0 is entirely zero: a fixed
        // stride of len/256 == row length would probe only that column and
        // report 1.0, sending dense work down the scalar sparse path.
        let mut data = vec![1.0f32; 256 * 256];
        for r in 0..256 {
            data[r * 256] = 0.0;
        }
        let f = zero_fraction(&data);
        assert!(f < 0.1, "dense matrix with one zero column probed as {f}");
    }

    #[test]
    fn dot_i8_matches_scalar_reference() {
        for len in [0usize, 1, 3, 4, 7, 16, 63, 256] {
            let a: Vec<i8> = (0..len)
                .map(|i| ((i as i64 * 37 + 11) % 255 - 127) as i8)
                .collect();
            let b: Vec<i8> = (0..len)
                .map(|i| ((i as i64 * 91 + 5) % 255 - 127) as i8)
                .collect();
            let expect: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            assert_eq!(dot_i8(&a, &b), expect, "len {len}");
            let sum_expect: i32 = a.iter().map(|&x| x as i32).sum();
            assert_eq!(sum_i8(&a), sum_expect, "sum len {len}");
        }
    }

    #[test]
    fn dot_i8_extremes_do_not_overflow() {
        // Worst case magnitude at the longest vector the scan will see.
        let a = vec![-128i8; 4096];
        let b = vec![-128i8; 4096];
        assert_eq!(dot_i8(&a, &b), 128 * 128 * 4096);
        let c = vec![127i8; 4096];
        assert_eq!(dot_i8(&a, &c), -128 * 127 * 4096);
    }

    #[test]
    fn rows_matmul_rows_do_not_depend_on_their_neighbours() {
        // 7 rows x 5 inner x 37 cols: full and partial row tiles, full
        // strips and a ragged tail.
        let (rows, k, n) = (7, 5, 37);
        let a: Vec<f32> = (0..rows * k).map(|i| (i as f32 * 0.71).sin()).collect();
        let w: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect();
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.01).collect();
        let mut all = vec![0.0; rows * n];
        rows_matmul(&mut all, &a, &w, Some(&bias), k, n);
        for r in 0..rows {
            let mut one = vec![0.0; n];
            rows_matmul(&mut one, &a[r * k..(r + 1) * k], &w, Some(&bias), k, n);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&one), bits(&all[r * n..(r + 1) * n]), "row {r}");
            for j in 0..n {
                let want: f32 =
                    (0..k).map(|kk| a[r * k + kk] * w[kk * n + j]).sum::<f32>() + bias[j];
                assert!(
                    (one[j] - want).abs() < 1e-5,
                    "({r}, {j}): {} vs {want}",
                    one[j]
                );
            }
        }
    }

    #[test]
    fn rows_matmul_matches_matmul_into_bits_below_the_wide_tile() {
        // Plain loop (tiny), dense MR / single-row tiles and the skip-zero
        // loop: up to 8 rows, each path must give rows_matmul's bits.
        for &(n, m, p, sparse) in &[
            (1, 8, 32, false),
            (8, 32, 32, false),
            (8, 752, 32, false),
            (5, 64, 40, false),
            (8, 752, 32, true),
        ] {
            let mut a = matrix(n, m, 41);
            if sparse {
                for (i, x) in a.as_mut_slice().iter_mut().enumerate() {
                    if i % 7 != 0 {
                        *x = 0.0;
                    }
                }
            }
            let b = matrix(m, p, 42);
            let mut want = Matrix::zeros(n, p);
            matmul_into(&mut want, &a, &b);
            let mut got = vec![0.0; n * p];
            rows_matmul(&mut got, a.as_slice(), b.as_slice(), None, m, p);
            for (i, (x, y)) in got.iter().zip(want.as_slice()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{n}x{m}x{p}: element {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut out = Matrix::zeros(2, 2);
        matmul_into(&mut out, &a, &b);
    }

    #[test]
    fn split_plan_derives_bands_from_per_band_work() {
        let flops = |n: usize, m: usize, p: usize| n * m * p;
        // Row-rich large product: splits by rows up to the thread count.
        assert_eq!(
            split_plan(flops(256, 256, 256), 256, 256, 8),
            SplitPlan::Rows(8)
        );
        // Regression (the old gate `flops >= 2M && n >= 2*MR` kept these
        // serial): small-n, large k·m score GEMMs must split by columns.
        assert_eq!(
            split_plan(flops(6, 512, 1024), 6, 1024, 8),
            SplitPlan::Cols(8)
        );
        assert_eq!(
            split_plan(flops(2, 768, 768), 2, 768, 4),
            SplitPlan::Cols(4)
        );
        // Not enough total work for even two bands: stays serial no matter
        // how many workers are idle.
        assert_eq!(split_plan(flops(16, 64, 64), 16, 64, 16), SplitPlan::Serial);
        // One thread: always serial.
        assert_eq!(
            split_plan(flops(256, 256, 256), 256, 256, 1),
            SplitPlan::Serial
        );
        // Bands are capped so each carries >= PAR_BAND_FLOP_LIMIT work.
        let f = flops(256, 64, 64); // 1M flops -> at most 4 bands of 256k
        assert_eq!(split_plan(f, 256, 64, 16), SplitPlan::Rows(4));
    }

    /// The tentpole invariant: the parallel splits (row bands aligned to
    /// the widest micro-kernel tile, column bands on panel boundaries)
    /// produce bit-identical outputs at every thread count, including
    /// shapes whose row counts straddle tile boundaries.
    #[test]
    fn parallel_matmul_is_bit_identical_across_thread_counts() {
        let _guard = pool::test_sync::lock();
        let shapes = [
            (256, 256, 256), // row split, tile-aligned
            (28, 300, 512),  // row split, 12/4/1 tile mix under AVX-512
            (100, 100, 256), // row split, ragged last band
            (6, 512, 1024),  // column split (small n)
            (3, 700, 600),   // column split, ragged last panel
            (17, 333, 129),  // odd everything
        ];
        for &(n, m, p) in &shapes {
            let a = matrix(n, m, 21);
            let b = matrix(m, p, 22);
            pool::force_threads(1);
            let mut serial = Matrix::zeros(n, p);
            matmul_into(&mut serial, &a, &b);
            for t in [2usize, 3, 4, 8, 16] {
                pool::force_threads(t);
                let mut par = Matrix::zeros(n, p);
                matmul_into(&mut par, &a, &b);
                for (i, (x, y)) in par.as_slice().iter().zip(serial.as_slice()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{n}x{m}x{p} threads={t}: element {i}: {x} vs {y}"
                    );
                }
            }
        }
        pool::force_threads(pool::detect_threads());
    }

    /// The transposed-layout kernels dispatch mid-size products through the
    /// blocked path — those must inherit the same thread-count invariance
    /// (they are the score-GEMM entry points).
    #[test]
    fn nt_tn_bit_identical_across_thread_counts() {
        let _guard = pool::test_sync::lock();
        let a = matrix(6, 512, 31);
        let bt = matrix(900, 512, 32); // nt: (6,512) x (900,512)^T
        let at = matrix(512, 9, 33); // tn: (512,9)^T x (512,700)
        let b = matrix(512, 700, 34);
        pool::force_threads(1);
        let mut nt_serial = Matrix::zeros(6, 900);
        matmul_nt_into(&mut nt_serial, &a, &bt);
        let mut tn_serial = Matrix::zeros(9, 700);
        matmul_tn_into(&mut tn_serial, &at, &b);
        for t in [2usize, 4, 16] {
            pool::force_threads(t);
            let mut nt = Matrix::zeros(6, 900);
            matmul_nt_into(&mut nt, &a, &bt);
            let mut tn = Matrix::zeros(9, 700);
            matmul_tn_into(&mut tn, &at, &b);
            assert!(
                nt.as_slice()
                    .iter()
                    .zip(nt_serial.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "nt differs at {t} threads"
            );
            assert!(
                tn.as_slice()
                    .iter()
                    .zip(tn_serial.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "tn differs at {t} threads"
            );
        }
        pool::force_threads(pool::detect_threads());
    }
}
