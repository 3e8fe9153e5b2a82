//! Names, units, directions and bounds of every metric; the result line the
//! contract asks for; the richer record kept in a results file; and
//! `compare`, which judges two results files against the bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lcdd_server::json::{self, Json};

use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The client-observed metrics, reported by every workload. `search_*` is
/// caller A (closed loop, keep-alive); `second_*` is the workload's second
/// caller: the other closed-loop searcher on `scan_exact` and
/// `pruned_unique`, the connection churner on `hot_cached`, the writer on
/// `cold_tier_rw` (the last two timed from each request's due time).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_ok_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "second_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "second_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// `(name, unit, better)` of every per-layer metric of the traced run, in
/// the order they are printed. A layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str, Better); 61] = [
    ("chart.render_us", "us", Better::Lower),
    ("vision.extract_us", "us", Better::Lower),
    ("vision.lines_per_query", "count", Better::Lower),
    ("core.encode_query_us", "us", Better::Lower),
    ("core.scorer_setup_us", "us", Better::Lower),
    ("core.score_us_per_table", "us", Better::Lower),
    ("core.encode_table_us", "us", Better::Lower),
    ("core.quant_dot_ns", "ns", Better::Lower),
    ("tensor.gemm_gflops", "gflop/s", Better::Higher),
    ("tensor.pool_threads", "count", Better::Higher),
    ("tensor.par_speedup", "ratio", Better::Higher),
    ("index.candidates_us", "us", Better::Lower),
    ("index.after_interval_per_query", "count", Better::Lower),
    ("index.after_lsh_per_query", "count", Better::Lower),
    ("index.prune_ratio", "ratio", Better::Lower),
    ("index.agree_at_10", "ratio", Better::Higher),
    ("engine.search_us", "us", Better::Lower),
    ("engine.search_p95_us", "us", Better::Lower),
    ("engine.search_serial_us", "us", Better::Lower),
    ("engine.cached_search_us", "us", Better::Lower),
    ("engine.cache_hit_ratio", "ratio", Better::Higher),
    ("engine.scored_per_query", "count", Better::Lower),
    ("engine.quant_scanned_per_query", "count", Better::Lower),
    ("engine.reranked_per_query", "count", Better::Lower),
    ("engine.stage_sum_ratio", "ratio", Better::Higher),
    ("engine.unaccounted_us", "us", Better::Lower),
    ("engine.insert_us", "us", Better::Lower),
    ("engine.pagein_slots_per_query", "count", Better::Lower),
    ("engine.pagein_bytes_per_query", "B", Better::Lower),
    ("engine.resident_mb", "MB", Better::Lower),
    ("engine.mapped_mb", "MB", Better::Lower),
    ("store.insert_us", "us", Better::Lower),
    ("store.remove_us", "us", Better::Lower),
    ("store.wal_bytes_per_op", "B", Better::Lower),
    ("store.checkpoint_ms", "ms", Better::Lower),
    ("store.checkpoint_bytes", "B", Better::Lower),
    ("store.checkpoints_total", "count", Better::Lower),
    ("store.create_s", "s", Better::Lower),
    ("store.open_cold_s", "s", Better::Lower),
    ("store.open_eager_s", "s", Better::Lower),
    ("store.first_answer_ms", "ms", Better::Lower),
    ("store.disk_bytes_per_table", "B", Better::Lower),
    ("server.json_parse_us", "us", Better::Lower),
    ("server.parse_search_us", "us", Better::Lower),
    ("server.render_body_us", "us", Better::Lower),
    ("server.request_bytes", "B", Better::Lower),
    ("server.response_bytes", "B", Better::Lower),
    ("server.overhead_us", "us", Better::Lower),
    ("server.overhead_share", "ratio", Better::Lower),
    ("server.connect_us", "us", Better::Lower),
    ("server.batch_mean", "count", Better::Higher),
    ("server.dedup_ratio", "ratio", Better::Higher),
    ("server.queue_wait_us", "us", Better::Lower),
    ("server.rejected_total", "count", Better::Lower),
    ("server.status_5xx_total", "count", Better::Lower),
    ("obs.scrape_us", "us", Better::Lower),
    ("bench.trace_overhead_pct", "%", Better::Lower),
    ("bench.gen_lag_ms", "ms", Better::Lower),
    ("bench.client_p50_ms", "ms", Better::Lower),
    ("bench.client_alone_p50_ms", "ms", Better::Lower),
    ("bench.rss_end_mb", "MB", Better::Lower),
];

/// How the driver starts one run, from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "stackbench/Cargo.toml",
    "--",
];
/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, generated from the tables above and the workload list
/// so that the file at the repository root cannot drift from the code.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = crate::workload::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.name()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"stackbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// One reported value with its within-run spread (0 where the value is not
/// a median over windows).
pub use crate::stats::Windowed as Value;

/// A run's metrics as `(name, unit, value)`, in table order.
pub type Metrics = Vec<(&'static str, &'static str, Value)>;

/// What one run measured: its metrics and how many operations it attempted
/// and how many of them failed a check.
pub struct Measured {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run reports.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub measured: Measured,
    /// The common header: what was measured, where.
    pub header: Vec<(&'static str, String)>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.measured.failed == 0
    }

    /// The run's metrics for people: `workload metric value unit spread`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, v) in &self.measured.metrics {
            let _ = writeln!(
                out,
                "{} {name} {} {unit} {:.3}",
                self.workload,
                json::num(v.value),
                v.spread
            );
        }
        out
    }

    fn metrics_json(&self, with_spread: bool) -> String {
        let fields: Vec<String> = self
            .measured
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let spread = if with_spread {
                    format!(",\"spread\":{}", json::num(v.spread))
                } else {
                    String::new()
                };
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"{spread}}}",
                    json::num(v.value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The last line of standard output: exactly the four keys the
    /// contract names.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.measured.attempted,
            self.measured.failed,
            self.metrics_json(false)
        )
    }

    /// One line of a results file: the result plus the header and each
    /// value's window spread. This change defines the benchmark and claims
    /// no gain, so the record says so.
    pub fn record_line(&self) -> String {
        let header: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json::quote(v)))
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"header\":{{{}}},\"metrics\":{},\"claim\":null}}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.correct(),
            self.measured.attempted,
            self.measured.failed,
            header.join(","),
            self.metrics_json(true)
        )
    }
}

// ---- compare -------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the runs' median and how far they spread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

/// `b` against `a` under `bound`: unresolved when either side spreads wider
/// than the bound, else better / same / worse by whether the medians differ
/// by more than the bound in the metric's direction.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if a.spread > bound || b.spread > bound || a.median == 0.0 {
        return Verdict::Unresolved;
    }
    let change = (b.median - a.median) / a.median.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The values of one end-to-end metric over the untraced runs of one
/// workload in a results file, with the widest window spread among them.
type Runs = BTreeMap<(String, String), (Vec<f64>, f64)>;

fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (no, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        if record.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", no + 1))?;
        for m in &END_TO_END {
            let Some(entry) = record.get("metrics").and_then(|ms| ms.get(m.name)) else {
                return Err(format!("line {}: no metric {}", no + 1, m.name));
            };
            let value = entry.get("value").and_then(Json::as_f64);
            let spread = entry.get("spread").and_then(Json::as_f64);
            let (Some(value), Some(spread)) = (value, spread) else {
                return Err(format!("line {}: malformed metric {}", no + 1, m.name));
            };
            let slot = runs
                .entry((workload.to_string(), m.name.to_string()))
                .or_insert((Vec::new(), 0.0));
            slot.0.push(value);
            slot.1 = slot.1.max(spread);
        }
    }
    Ok(runs)
}

/// With four or more runs a side's spread is the distance between their
/// quartiles over their median, as the contract computes it; with fewer it
/// is the widest window spread inside a run.
fn side(values: &[f64], window_spread: f64) -> Side {
    Side {
        median: stats::median(values),
        spread: if values.len() >= 4 {
            stats::quartile_spread(values)
        } else {
            window_spread
        },
    }
}

/// Compares two results files row by row. Returns the printed table and
/// whether any row is `worse`.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (read_runs(a_text)?, read_runs(b_text)?);
    let mut out =
        String::from("workload metric a b ratio_b_over_a spread_a spread_b bound verdict\n");
    let mut any_worse = false;
    for ((workload, metric), (a_values, a_spread)) in &a {
        let Some((b_values, b_spread)) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let def = END_TO_END
            .iter()
            .find(|m| m.name == metric)
            .expect("read_runs keeps only known metrics");
        let (sa, sb) = (side(a_values, *a_spread), side(b_values, *b_spread));
        let v = verdict(sa, sb, def.better, def.bound);
        any_worse |= v == Verdict::Worse;
        let _ = writeln!(
            out,
            "{workload} {metric} {:.4} {:.4} {:.4} {:.3} {:.3} {:.2} {}",
            sa.median,
            sb.median,
            if sa.median == 0.0 {
                0.0
            } else {
                sb.median / sa.median
            },
            sa.spread,
            sb.spread,
            def.bound,
            v.name()
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side_of(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = side_of(10.0, 0.01);
        assert_eq!(
            verdict(a, side_of(10.5, 0.01), Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(a, side_of(11.5, 0.01), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(a, side_of(8.5, 0.01), Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(a, side_of(8.5, 0.01), Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(a, side_of(11.5, 0.01), Better::Higher, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved() {
        let a = side_of(10.0, 0.01);
        assert_eq!(
            verdict(a, side_of(20.0, 0.30), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(side_of(10.0, 0.11), a, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    fn report(workload: &'static str, p50: f64) -> RunReport {
        RunReport {
            workload,
            seed: 1,
            traced: false,
            measured: Measured {
                metrics: END_TO_END
                    .iter()
                    .map(|m| {
                        let value = if m.name == "search_p50_ms" { p50 } else { 1.0 };
                        (
                            m.name,
                            m.unit,
                            Value {
                                value,
                                spread: 0.02,
                            },
                        )
                    })
                    .collect(),
                attempted: 10,
                failed: 0,
            },
            header: vec![("git", "abc".into())],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = report("scan_exact", 5.0).result_line();
        let parsed = json::parse(&line).unwrap();
        let Json::Obj(fields) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap().get("search_p50_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(5.0));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        assert!(m.get("spread").is_none());
    }

    #[test]
    fn compare_flags_only_the_row_that_got_worse() {
        let a = format!(
            "{}\n{}\n",
            report("scan_exact", 5.0).record_line(),
            report("hot_cached", 0.1).record_line()
        );
        let b = format!(
            "{}\n{}\n",
            report("scan_exact", 5.1).record_line(),
            report("hot_cached", 0.2).record_line()
        );
        let (table, any_worse) = compare(&a, &b).unwrap();
        assert!(any_worse);
        let verdict_of = |workload: &str, metric: &str| {
            table
                .lines()
                .find(|l| l.starts_with(&format!("{workload} {metric} ")))
                .and_then(|l| l.split(' ').next_back())
                .map(str::to_string)
        };
        assert_eq!(
            verdict_of("scan_exact", "search_p50_ms").as_deref(),
            Some("same")
        );
        assert_eq!(
            verdict_of("hot_cached", "search_p50_ms").as_deref(),
            Some("worse")
        );
        assert_eq!(verdict_of("hot_cached", "rss_mb").as_deref(), Some("same"));
        let (_, any_worse) = compare(&a, &a).unwrap();
        assert!(!any_worse);
        assert!(a.contains("\"claim\":null"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` at the repository root is `stackbench describe`,
    /// byte for byte, and within the contract's limits.
    #[test]
    fn benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate it with `stackbench describe`"
        );
        let doc = json::parse(&on_disk).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(on_disk.len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in &crate::workload::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=128).contains(&PER_LAYER.len()) && (1..=16).contains(&END_TO_END.len()));
    }
}
