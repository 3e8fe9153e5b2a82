//! One run of one workload: set-up, the gateway pass, the correctness
//! checks, and the end-to-end metrics. With `--trace 1` the pass is followed
//! by the layer replay of [`crate::layers`] instead.

use std::path::Path;
use std::time::{Duration, Instant};

use lcdd_table::Table;

use crate::client::{CallerLog, Conn};
use crate::gen;
use crate::layers;
use crate::report::{Measured, RunReport, Value, END_TO_END};
use crate::stats::{self, Sample};
use crate::workload::{self, Pass, PassPlan, Second, Stack, Workload, SAMPLE_QUERIES};

/// Load before the timed phase: fills the query cache on `hot_cached`,
/// pages the hot part of the tier in on `cold_tier_rw`, starts every thread.
pub const WARM_UP: Duration = Duration::from_millis(1500);
/// Windows the timed phase is cut into; medians and rates are taken per
/// window and the median window is reported.
pub const N_WINDOWS: usize = 6;

extern "C" {
    /// glibc: returns free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resident set of this process in MB (`VmRSS`), read after the allocator
/// has handed its free pages back. How much freed memory glibc keeps
/// resident depends on which arena a thread happened to get and on its
/// self-adjusting thresholds, and differs by 15 MB between two runs of the
/// same binary; what stays after the trim is what the process holds: the
/// engine, the gateway, the mapped pages it touched, the callers' samples.
pub fn settled_rss_mb() -> f64 {
    // SAFETY: `malloc_trim` takes no pointer and may be called at any time
    // from any thread; it only releases memory the allocator holds as free.
    unsafe { malloc_trim(0) };
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The header every results record starts with: what ran, where.
fn header(w: &Workload, seed: u64, seconds: u64, fingerprint: u64) -> Vec<(&'static str, String)> {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let sha = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match git(&["status", "--porcelain"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "unknown".into(),
    };
    let cpu_features = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("flags")).map(|l| {
                l.split_whitespace()
                    .filter(|f| {
                        [
                            "sse4_2",
                            "avx",
                            "avx2",
                            "fma",
                            "avx512f",
                            "avx512bw",
                            "avx512vnni",
                        ]
                        .contains(f)
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("git_sha", sha),
        ("git_dirty", dirty),
        ("nproc", nproc.to_string()),
        ("cpu_features", cpu_features),
        (
            "pool_threads",
            lcdd_tensor::pool::resolve_threads().to_string(),
        ),
        (
            "lcdd_threads_env",
            std::env::var("LCDD_THREADS").unwrap_or_default(),
        ),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("fingerprint", format!("{fingerprint:016x}")),
        ("tables", w.tables.to_string()),
        ("sample_queries", SAMPLE_QUERIES.to_string()),
    ]
}

/// What one run works on.
pub struct Job<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub seconds: u64,
    pub tables: &'a [Table],
    /// Where the durable workload's store is (built by now).
    pub store: &'a Path,
    /// How long the child took to build that store; 0 in memory.
    pub create_s: f64,
    pub trace_file: &'a Path,
}

impl Job<'_> {
    /// A sixth of the run: the unit the traced run's stages are sized in.
    pub fn share(&self) -> Duration {
        Duration::from_millis(self.seconds * 1000 / 6)
    }
}

/// Prints the first few failures of a run on standard error.
pub fn print_failures<'a>(w: &Workload, failures: impl IntoIterator<Item = &'a String>) {
    for e in failures.into_iter().take(5) {
        eprintln!("[stackbench] {}: failure: {e}", w.name);
    }
}

/// Pooled percentile of the timed ok latencies, in ms.
pub fn pooled_ms(samples: &[Sample], p: f64) -> f64 {
    let timed: Vec<Sample> = samples.iter().copied().filter(|s| s.at_ns >= 0).collect();
    stats::percentile(&stats::ok_latencies_ms(&timed), p)
}

/// The end-to-end metrics of one pass, in [`END_TO_END`] order.
fn end_to_end(w: &Workload, pass: &Pass, setup_s: &[f64], rss_mb: f64) -> Vec<Value> {
    let phase_ns = pass.phase.timed_ns();
    let a = stats::windows(&pass.a.samples, phase_ns, N_WINDOWS);
    let b = stats::windows(&pass.b.samples, phase_ns, N_WINDOWS);
    let window_s = phase_ns as f64 / 1e9 / N_WINDOWS as f64;
    // Every 200-answered /search of both callers; the writer's are not.
    let b_searches = !matches!(w.second, Second::Write { .. });
    let ok_per_s: Vec<f64> = a
        .iter()
        .zip(&b)
        .map(|(wa, wb)| {
            let ok = |w: &[Sample]| w.iter().filter(|s| s.ok).count();
            (ok(wa) + if b_searches { ok(wb) } else { 0 }) as f64 / window_s
        })
        .collect();
    vec![
        stats::median(setup_s).into(),
        stats::latency_over_windows(&a, 0.50),
        pooled_ms(&pass.a.samples, 0.95).into(),
        stats::over_windows(&ok_per_s),
        stats::latency_over_windows(&b, 0.50),
        pooled_ms(&pass.b.samples, 0.95).into(),
        rss_mb.into(),
    ]
}

/// Says on standard error what the sample sizes support and how late the
/// paced caller ran, so a reader can judge the numbers beside them.
fn explain(w: &Workload, pass: &Pass) {
    let timed = |log: &CallerLog| log.samples.iter().filter(|s| s.at_ns >= 0 && s.ok).count();
    let (na, nb) = (timed(&pass.a), timed(&pass.b));
    eprintln!(
        "[stackbench] {}: caller A {na} timed samples (supports p{:.0}), second caller {nb} \
         (supports p{:.0}); {} per window",
        w.name,
        stats::highest_supported(na) * 100.0,
        stats::highest_supported(nb) * 100.0,
        na / N_WINDOWS,
    );
    if !pass.b.lag_ns.is_empty() {
        let lag = stats::sorted(pass.b.lag_ns.iter().map(|&l| l as f64 / 1e6).collect());
        eprintln!(
            "[stackbench] {}: once due and free to leave, the paced caller left p50 {:.3} ms, \
             p99 {:.3} ms late (second_* include it)",
            w.name,
            stats::percentile(&lag, 0.50),
            stats::percentile(&lag, 0.99),
        );
    }
    print_failures(w, pass.a.errors.iter().chain(&pass.b.errors));
}

/// The fixed sample through the gateway against the in-process answers.
/// Returns the failures.
fn check_samples(w: &Workload, stack: &Stack, seed: u64, tables: &[Table]) -> Vec<String> {
    let mut conn = match Conn::connect(stack.addr()) {
        Ok(c) => c,
        Err(e) => return vec![format!("sample connection: {e}")],
    };
    (0..SAMPLE_QUERIES)
        .filter_map(|q| workload::check_sample(w, &stack.served, &mut conn, seed, q, tables).err())
        .collect()
}

/// Sets the stack up `reps` times; returns the last stack and every time.
fn set_up(job: &Job, reps: usize) -> Result<(Stack, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(stack) = last.take() {
            Stack::shutdown(stack)?;
        }
        let (stack, s) = workload::timed_setup(job.w, job.seed, job.tables, job.store)?;
        times.push(s);
        last = Some(stack);
    }
    Ok((last.expect("at least one set-up"), times))
}

pub fn run(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<RunReport, String> {
    let wall = Instant::now();
    let tables = gen::corpus(seed, w.tables);
    let sample: Vec<_> = (0..SAMPLE_QUERIES)
        .map(|q| gen::query(seed, q, &tables))
        .collect();
    let mut header = header(w, seed, seconds, gen::fingerprint(&tables, &sample));
    drop(sample);

    let scratch = workload::scratch_dir()?;
    let store = scratch.join(format!("store-{}-{}", w.name, std::process::id()));
    let create_s = if w.durable {
        workload::build_store_in_child(&store, seed, w.tables)?
    } else {
        0.0
    };
    let job = Job {
        w,
        seed,
        seconds,
        tables: &tables,
        store: &store,
        create_s,
        trace_file: &scratch.join(format!("trace-{}.jsonl", w.name)),
    };
    let outcome = if traced {
        set_up(&job, 1).and_then(|(stack, _)| layers::traced(&job, stack))
    } else {
        untraced(&job)
    };
    if w.durable {
        let _ = std::fs::remove_dir_all(&store);
    }
    let measured = outcome?;
    header.push(("wall_s", format!("{:.2}", wall.elapsed().as_secs_f64())));
    Ok(RunReport {
        workload: w.name,
        seed,
        traced,
        measured,
        header,
    })
}

/// The untraced run: set-ups, one pass of both callers, the checks.
fn untraced(job: &Job) -> Result<Measured, String> {
    let Job {
        w,
        seed,
        tables,
        store,
        ..
    } = *job;
    let (stack, setup_s) = set_up(job, w.setup_reps)?;
    // Before any load: what the built or opened engine and the idle gateway
    // hold. After the load the figure has two modes 25 MB apart on the cold
    // tier (whether the writer thread's arena still pins the last
    // checkpoint's buffers), which no bound could hold; the traced run
    // reports that figure as `bench.rss_end_mb`.
    let rss_mb = settled_rss_mb();
    let pass = workload::drive(
        w,
        stack.addr(),
        seed,
        tables,
        (WARM_UP, Duration::from_secs(job.seconds)),
        PassPlan::default(),
    );
    explain(w, &pass);

    let (mut attempted, mut failed) = (0u64, 0u64);
    for log in [&pass.a, &pass.b] {
        let (n, f) = log.tally();
        attempted += n;
        failed += f;
    }
    let sample_failures = check_samples(w, &stack, seed, tables);
    attempted += SAMPLE_QUERIES;
    failed += sample_failures.len() as u64;
    print_failures(w, &sample_failures);
    drop(stack.shutdown()?);
    if w.durable {
        let (checked, lost) = workload::check_durability(store, &pass)?;
        attempted += checked;
        failed += lost.len() as u64;
        print_failures(w, &lost);
    }
    let values = end_to_end(w, &pass, &setup_s, rss_mb);
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();
    Ok(Measured {
        metrics,
        attempted,
        failed,
    })
}
