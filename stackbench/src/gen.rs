//! The benchmark's own seeded input generator: corpus tables and query
//! series. The program under test sees only what is generated here.
//!
//! Table `i` draws from its own PRNG stream keyed by `(seed, i)`, so a
//! corpus of `n` tables is a prefix of every larger corpus of the same seed
//! and the workloads can share one generator at different sizes.

use lcdd_table::{Column, Table};

/// Points per generated column.
pub const SERIES_LEN: usize = 200;
/// Every table whose index is `NEAR_DUP_EVERY - 1 (mod NEAR_DUP_EVERY)` is a
/// noisy copy of an earlier table, so the scorer sees near-ties.
const NEAR_DUP_EVERY: usize = 8;
/// Columns per table, cycled by table index.
const COLUMN_CYCLE: [usize; 4] = [1, 1, 2, 4];
/// One query in this many has two lines, the rest one. Which ones is drawn,
/// not cycled: two closed-loop callers served in turn would otherwise meet
/// each other's two-line queries in a fixed rhythm, and a caller's median
/// would sit on the edge between "waited behind a light query" and "behind a
/// heavy one".
const TWO_LINES_ONE_IN: usize = 4;
/// Ids of tables inserted during a run start here, clear of the corpus.
pub const INSERT_ID_BASE: u64 = 1 << 32;

/// SplitMix64: small, seedable, and good enough to decorrelate streams.
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `(seed, stream)`; distinct keys give unrelated
    /// sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Two warm-up draws spread low-entropy keys over the state.
        r.next_u64();
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box-Muller, one draw kept).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// One unit-scale series of the given family.
fn family_series(family: usize, rng: &mut Rng) -> Vec<f64> {
    let n = SERIES_LEN;
    let t = |i: usize| i as f64 / n as f64;
    match family {
        // Harmonic mix: three sinusoids with random frequency and phase.
        0 => {
            let parts: Vec<(f64, f64, f64)> = (0..3)
                .map(|_| {
                    (
                        rng.range(0.2, 1.0),
                        rng.range(0.5, 9.0),
                        rng.range(0.0, std::f64::consts::TAU),
                    )
                })
                .collect();
            (0..n)
                .map(|i| {
                    parts
                        .iter()
                        .map(|&(a, f, p)| a * (std::f64::consts::TAU * f * t(i) + p).sin())
                        .sum()
                })
                .collect()
        }
        // Linear trend plus one season.
        1 => {
            let slope = rng.range(-2.0, 2.0);
            let amp = rng.range(0.1, 0.8);
            let freq = rng.range(2.0, 12.0).round();
            let phase = rng.range(0.0, std::f64::consts::TAU);
            (0..n)
                .map(|i| slope * t(i) + amp * (std::f64::consts::TAU * freq * t(i) + phase).sin())
                .collect()
        }
        // AR(1) random walk with mean reversion.
        2 => {
            let phi = rng.range(0.85, 0.99);
            let mut x = rng.normal();
            (0..n)
                .map(|_| {
                    x = phi * x + 0.3 * rng.normal();
                    x
                })
                .collect()
        }
        // ECG-like: a flat baseline with periodic sharp spikes.
        _ => {
            let period = rng.range(18.0, 45.0);
            let offset = rng.range(0.0, period);
            let width = rng.range(0.8, 2.0);
            let dip = rng.range(0.1, 0.4);
            (0..n)
                .map(|i| {
                    let pos = (i as f64 + offset) % period;
                    let d = pos.min(period - pos);
                    let spike = (-(d / width).powi(2)).exp();
                    let after = (-((pos - 3.0 * width) / width).powi(2)).exp();
                    spike - dip * after + 0.02 * rng.normal()
                })
                .collect()
        }
    }
}

/// Table `i` of the corpus keyed by `seed`.
pub fn table(seed: u64, i: usize) -> Table {
    table_with_id(seed, i, i as u64)
}

/// The table generated for index `i`, stored under `id` (run-time inserts
/// draw from indices beyond the corpus and ids beyond [`INSERT_ID_BASE`]).
pub fn table_with_id(seed: u64, i: usize, id: u64) -> Table {
    let mut rng = Rng::new(seed, i as u64);
    if i % NEAR_DUP_EVERY == NEAR_DUP_EVERY - 1 {
        // A 1%-noise copy of an earlier original (never of another copy).
        let mut j = rng.below(i);
        if j % NEAR_DUP_EVERY == NEAR_DUP_EVERY - 1 {
            j -= 1;
        }
        let base = table(seed, j);
        let columns = base
            .columns
            .iter()
            .map(|c| {
                let (lo, hi) = min_max(&c.values);
                let amp = 0.01 * (hi - lo);
                let values = c.values.iter().map(|v| v + amp * rng.normal()).collect();
                Column::new(c.name.clone(), values)
            })
            .collect();
        return Table::new(id, format!("t{i}-dup{j}"), columns);
    }
    // Scale spans three decades and the offset moves the band by up to
    // twenty scales, so most column ranges are disjoint and the interval
    // tree has something to discriminate on. The pair comes from a
    // low-discrepancy sequence whose phase, not its shape, depends on the
    // seed: how many bands overlap a query — and with it the work per
    // request — then varies little from seed to seed, and the metrics of two
    // seeds can be compared.
    let (u, v) = band_position(seed, i);
    let scale = 10f64.powf(3.0 * u);
    let offset = (40.0 * v - 20.0) * scale;
    let n_cols = COLUMN_CYCLE[(i / 4) % COLUMN_CYCLE.len()];
    let columns = (0..n_cols)
        .map(|c| {
            let col_scale = scale * rng.range(0.5, 2.0);
            let values = family_series(i % 4, &mut rng)
                .into_iter()
                .map(|v| offset + col_scale * v)
                .collect();
            Column::new(format!("c{c}"), values)
        })
        .collect();
    Table::new(id, format!("t{i}"), columns)
}

/// Point `i` of the two-dimensional R2 sequence (steps `1/p` and `1/p^2`,
/// `p` the plastic number), shifted by a seed-dependent phase.
fn band_position(seed: u64, i: usize) -> (f64, f64) {
    let mut phase = Rng::new(seed, u64::MAX);
    let (pu, pv) = (phase.unit(), phase.unit());
    (
        (pu + i as f64 * 0.754_877_666_246_692_7).fract(),
        (pv + i as f64 * 0.569_840_290_998_053_2).fract(),
    )
}

/// The first `n` tables of the corpus keyed by `seed`.
pub fn corpus(seed: u64, n: usize) -> Vec<Table> {
    (0..n).map(|i| table(seed, i)).collect()
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Query `q` against `tables`: one or two corpus columns, each multiplied by
/// a smooth ripple of at most ±0.5% drawn from the `(seed, q)` stream. Two
/// different `q` never produce the same bytes, so the program's query cache
/// cannot answer a repeat.
pub fn query(seed: u64, q: u64, tables: &[Table]) -> Vec<Vec<f64>> {
    // Stream keys above 2^40 keep query streams apart from table streams.
    let mut rng = Rng::new(seed, (1 << 40) + q);
    let n_lines = if rng.below(TWO_LINES_ONE_IN) == 0 {
        2
    } else {
        1
    };
    let t = &tables[rng.below(tables.len())];
    (0..n_lines)
        .map(|l| {
            let col = &t.columns[(rng.below(t.columns.len()) + l) % t.columns.len()];
            let freq = rng.range(0.5, 3.0);
            let phase = rng.range(0.0, std::f64::consts::TAU);
            let depth = rng.range(0.001, 0.005);
            col.values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let x = i as f64 / col.values.len() as f64;
                    v * (1.0 + depth * (std::f64::consts::TAU * freq * x + phase).sin())
                })
                .collect()
        })
        .collect()
}

/// FNV-1a over the bit patterns of every generated value: the identity of
/// one run's inputs, printed in the result header so that two result files
/// can be checked to have measured the same bytes.
pub fn fingerprint(tables: &[Table], queries: &[Vec<Vec<f64>>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in tables {
        eat(&t.id.to_le_bytes());
        for c in &t.columns {
            for v in &c.values {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    for q in queries {
        for line in q {
            for v in line {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seed: u64, n: usize) -> u64 {
        let tables = corpus(seed, n);
        let queries: Vec<_> = (0..16).map(|q| query(seed, q, &tables)).collect();
        fingerprint(&tables, &queries)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(fp(1, 64), fp(1, 64));
        assert_ne!(fp(1, 64), fp(2, 64));
    }

    #[test]
    fn smaller_corpus_is_a_prefix_of_the_larger() {
        let small = corpus(3, 40);
        let large = corpus(3, 100);
        assert_eq!(small[..], large[..40]);
    }

    #[test]
    fn shapes_follow_the_cycles() {
        let tables = corpus(5, 64);
        for (i, t) in tables.iter().enumerate() {
            assert_eq!(t.num_rows(), SERIES_LEN);
            if i % NEAR_DUP_EVERY != NEAR_DUP_EVERY - 1 {
                assert_eq!(t.num_cols(), COLUMN_CYCLE[(i / 4) % 4], "table {i}");
            }
            assert!(t
                .columns
                .iter()
                .all(|c| c.values.iter().all(|v| v.is_finite())));
        }
        let two_line = (0..4000)
            .filter(|&q| query(5, q, &tables).len() == 2)
            .count();
        assert!(
            (800..1200).contains(&two_line),
            "{two_line} of 4000 queries have two lines"
        );
    }

    #[test]
    fn queries_never_repeat() {
        let tables = corpus(7, 8);
        let a = query(7, 0, &tables);
        for q in 1..200 {
            assert_ne!(a, query(7, q, &tables));
        }
    }
}
