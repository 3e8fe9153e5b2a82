//! Streaming synthetic scale corpus: pre-encoded slots as a pure function
//! of `(seed, index)`, for fabricating 10⁴–10⁶-table stores through
//! [`lcdd_store::create_bulk`] without ever holding the corpus in memory.
//!
//! The seeded [`corpus`](crate::corpus) generator produces *raw* tables
//! and pays full FCM encoding per table — right for correctness suites,
//! hopeless at a million tables. This module skips the encoder: each slot
//! is fabricated directly in encoding space ([`lcdd_engine::EncodedSlot`])
//! with the structure the tiered search path cares about:
//!
//! * every table's pooled direction sits in a small **cone** around one
//!   corpus-wide base direction, with low within-table variance. The
//!   untrained matcher head sees (nearly) the common base through its
//!   LayerNorms, so its logit is almost constant across candidates,
//!   while corpus-mean centering — in the exact scorer and in the int8
//!   proxy alike — cancels the base and ranks on the per-table
//!   perturbation. That is the regime where the pooled-cosine proxy
//!   tracks the attention score and re-rank recall is a meaningful
//!   measurement rather than noise;
//! * column value ranges straddle the query ranges (with per-table
//!   jitter), so the range filter keeps most columns and candidate sets
//!   stay non-trivial for every `IndexStrategy`.
//!
//! Slot `i` is independent of every other slot (one splitmix64 stream per
//! index), so generation order, shard assignment and corpus size never
//! change a table's bytes — the same `(seed, i)` reproduces bit-identical
//! slots across runs, machines and shard layouts.

use lcdd_engine::{EncodedSlot, Query};
use lcdd_tensor::Matrix;

/// Shape of a synthetic scale corpus. Everything is derived from `seed`;
/// `n_tables` only bounds iteration, it never shifts the stream of any
/// individual slot.
#[derive(Clone, Debug)]
pub struct ScaleSpec {
    /// Master seed; slot `i` uses the stream `splitmix64(seed ⊕ h(i))`.
    pub seed: u64,
    /// Number of tables the corpus nominally holds.
    pub n_tables: u64,
    /// Embedding width — must equal the serving model's `embed_dim`.
    pub embed_dim: usize,
    /// Columns per table cycle through `1..=max_cols`.
    pub max_cols: usize,
    /// Encoding rows per column (the paper's N2 segment count).
    pub rows_per_col: usize,
}

impl ScaleSpec {
    /// A spec matched to `FcmConfig::tiny()` (`embed_dim = 16`) — the
    /// configuration every scale suite and the scale benchmark serve
    /// under.
    pub fn tiny(seed: u64, n_tables: u64) -> ScaleSpec {
        ScaleSpec {
            seed,
            n_tables,
            embed_dim: 16,
            max_cols: 3,
            rows_per_col: 4,
        }
    }
}

/// splitmix64 step — the one-instruction-per-state PRNG the generator
/// uses so fabricating a million slots costs RNG time measured in
/// milliseconds, not the `StdRng` (ChaCha) setup per table.
fn next_u64(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `f32` in `[0, 1)` from the top 24 bits (exactly representable,
/// so the stream is bit-stable across platforms).
fn unit_f32(s: &mut u64) -> f32 {
    (next_u64(s) >> 40) as f32 / (1u64 << 24) as f32
}

/// Uniform `f32` in `[-1, 1)`.
fn sym_f32(s: &mut u64) -> f32 {
    unit_f32(s) * 2.0 - 1.0
}

/// Half-angle of the direction cone: per-table perturbation magnitude
/// relative to the unit base direction. Large enough that the int8
/// quantizer resolves the perturbation (≫ 1/127), small enough that the
/// head logit's residual variation stays well under the centered-cosine
/// spread.
const CONE: f32 = 0.1;

/// The corpus-wide base direction every table's pooled mean orbits.
/// Derived from the seed alone — identical for all slots of a spec.
fn base_dir(spec: &ScaleSpec) -> Vec<f32> {
    let mut s = spec.seed ^ 0xC0FF_EE00_0BA5_ED17;
    let _ = next_u64(&mut s);
    let mut dir: Vec<f32> = (0..spec.embed_dim).map(|_| sym_f32(&mut s)).collect();
    normalize(&mut dir);
    dir
}

/// In-place L2 normalisation with a degenerate-input guard.
fn normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    } else {
        v[0] = 1.0;
    }
}

/// Fabricates slot `i` of the corpus: encodings clustered around a
/// per-table direction, generous column ranges, and matching index
/// intervals. Pure in `(spec.seed, spec.embed_dim, spec.max_cols,
/// spec.rows_per_col, i)`.
pub fn slot(spec: &ScaleSpec, i: u64) -> EncodedSlot {
    let mut s = spec.seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407);
    // Burn one step so adjacent indices decorrelate even with tiny seeds.
    let _ = next_u64(&mut s);
    let k = spec.embed_dim;
    let n_cols = 1 + (next_u64(&mut s) % spec.max_cols.max(1) as u64) as usize;

    // Per-table pooled direction: shared base + small-cone perturbation,
    // at constant amplitude. Unequal norms or fully random directions
    // would let the untrained head's logit spread swamp the centered
    // cosine term and decouple proxy rank from exact rank (see module
    // docs).
    let base = base_dir(spec);
    let mut dir: Vec<f32> = (0..k).map(|_| sym_f32(&mut s)).collect();
    for (d, &b) in dir.iter_mut().zip(&base) {
        *d = b + CONE * *d;
    }
    normalize(&mut dir);

    let mut ranges = Vec::with_capacity(n_cols);
    let mut encodings = Vec::with_capacity(n_cols);
    let mut intervals = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        // Encoding rows: the table direction plus small isotropic jitter
        // — low within-table variance, distinct across tables.
        let mut rows = Vec::with_capacity(spec.rows_per_col * k);
        for _ in 0..spec.rows_per_col {
            for &d in &dir {
                rows.push(d + 0.02 * sym_f32(&mut s));
            }
        }
        encodings.push(Matrix::from_vec(spec.rows_per_col, k, rows));
        // Value range straddling the query band [-1.5, 1.5] with jitter,
        // so the range filter keeps columns without being a no-op.
        let lo = -1.2 - f64::from(unit_f32(&mut s));
        let hi = 1.2 + f64::from(unit_f32(&mut s));
        ranges.push((lo, hi));
        intervals.push((lo, hi));
    }

    EncodedSlot {
        id: i,
        name: format!("scale-{i}"),
        ranges,
        encodings,
        intervals,
    }
}

/// A generator closure for [`lcdd_store::create_bulk`] over `spec`.
pub fn generator(spec: &ScaleSpec) -> impl FnMut(u64) -> EncodedSlot + '_ {
    move |i| slot(spec, i)
}

/// Deterministic probe query `q` for a scale corpus: a 64-point two-tone
/// series inside the corpus value band, fed through the ordinary query
/// encoder at search time. Queries are seeded off `spec.seed` with a
/// distinct stream tag, so query `q` never aliases slot `q`.
pub fn query(spec: &ScaleSpec, q: u64) -> Query {
    let mut s = spec.seed ^ 0x5CA1_AB1E ^ q.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let _ = next_u64(&mut s);
    let a = 0.4 + 0.8 * f64::from(unit_f32(&mut s));
    let b = 0.2 + 0.5 * f64::from(unit_f32(&mut s));
    let p1 = 4.0 + 9.0 * f64::from(unit_f32(&mut s));
    let p2 = 2.0 + 5.0 * f64::from(unit_f32(&mut s));
    let phase = std::f64::consts::TAU * f64::from(unit_f32(&mut s));
    let vals: Vec<f64> = (0..64)
        .map(|j| {
            let t = j as f64;
            a * (t / p1 + phase).sin() + b * (t / p2).cos()
        })
        .collect();
    Query::from_series(vec![vals])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_deterministic_and_independent_of_corpus_size() {
        let small = ScaleSpec::tiny(7, 10);
        let large = ScaleSpec::tiny(7, 10_000);
        for i in [0u64, 3, 9] {
            let a = slot(&small, i);
            let b = slot(&large, i);
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.intervals, b.intervals);
            assert_eq!(a.ranges, b.ranges);
            assert_eq!(a.encodings.len(), b.encodings.len());
            for (ma, mb) in a.encodings.iter().zip(&b.encodings) {
                assert_eq!(ma.as_slice(), mb.as_slice());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = slot(&ScaleSpec::tiny(1, 4), 0);
        let b = slot(&ScaleSpec::tiny(2, 4), 0);
        assert_ne!(a.encodings[0].as_slice(), b.encodings[0].as_slice());
    }

    #[test]
    fn slot_shapes_match_spec() {
        let spec = ScaleSpec::tiny(42, 100);
        for i in 0..20 {
            let sl = slot(&spec, i);
            let n_cols = sl.encodings.len();
            assert!((1..=spec.max_cols).contains(&n_cols));
            assert_eq!(sl.ranges.len(), n_cols);
            assert_eq!(sl.intervals.len(), n_cols);
            for m in &sl.encodings {
                assert_eq!(m.shape(), (spec.rows_per_col, spec.embed_dim));
            }
            for &(lo, hi) in &sl.ranges {
                assert!(lo < -1.0 && hi > 1.0, "ranges must straddle queries");
            }
        }
    }

    #[test]
    fn queries_are_deterministic_and_distinct() {
        let spec = ScaleSpec::tiny(9, 4);
        let (a, b, c) = (query(&spec, 0), query(&spec, 0), query(&spec, 1));
        let series = |q: &Query| match q {
            Query::Series(u) => u.series[0].ys.clone(),
            _ => panic!("scale queries are series"),
        };
        assert_eq!(series(&a), series(&b));
        assert_ne!(series(&a), series(&c));
    }
}
