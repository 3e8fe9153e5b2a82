//! `stackbench`: one end-to-end benchmark of the whole search stack.
//!
//! Starts the real gateway in-process, drives it over loopback TCP from a
//! seeded generator with two callers, and reports what the callers saw
//! (`--trace 0`) or, from a separate traced run, what each layer cost
//! (`--trace 1`). See `README.md` beside this package.
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! stackbench compare <a.jsonl> <b.jsonl>
//! stackbench describe        # prints BENCHMARK.json
//! ```

mod client;
mod gen;
mod layers;
mod report;
mod run;
mod span;
mod stats;
mod workload;

use std::io::Write;
use std::process::ExitCode;

const USAGE: &str =
    "usage: stackbench --workload <scan_exact|pruned_unique|hot_cached|cold_tier_rw> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>]\n       \
                     stackbench compare <a.jsonl> <b.jsonl>\n       \
                     stackbench describe";

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut out) = (1u64, report::RUN_SECONDS, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => traced = number()? != 0,
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        out,
    })
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_args(args)?;
    let report = run::run(args.workload, args.seed, args.seconds, args.traced)?;
    eprint!("{}", report.table());
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", report.record_line()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err(USAGE.into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, any_worse) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("describe") => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        // The child of the durable workload: builds the store and exits.
        Some("build-store") => match &args[1..] {
            [dir, seed, tables] => match (seed.parse(), tables.parse()) {
                (Ok(seed), Ok(tables)) => {
                    workload::build_store(dir.as_ref(), seed, tables).map(|()| true)
                }
                _ => Err(USAGE.into()),
            },
            _ => Err(USAGE.into()),
        },
        Some(_) => run(&args),
        None => Err(USAGE.into()),
    };
    match outcome {
        // Correct results, or a comparison with no row worse.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stackbench: {e}");
            ExitCode::from(2)
        }
    }
}
