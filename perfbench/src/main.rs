//! Operator-level benchmark of the microscope pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper16-offline --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- manifest
//! ```
//!
//! Run from the repository root. Every run builds (or verifies) the
//! release `microscope` binary first, generates its workload's inputs from
//! the seed, times ops in a closed loop for `--seconds`, checks every
//! output, and prints the report followed by one JSON line. See
//! `perfbench/README.md` for what each workload and metric means.
//!
//! `trace-op`, `aggregate` and `bug-setup` are the benchmark's own child
//! processes: a traced op, the `bug-patterns` op, and its set-up.

mod check;
mod layers;
mod reference;
mod spec;
mod stats;
mod sys;
mod workload;

use std::fmt::Write as _;
use std::path::Path;

struct Args {
    workload: &'static spec::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut tiny = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec::workload(val).ok_or_else(|| {
                    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {val:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(val.parse().map_err(|_| bad())?),
            "--seconds" => seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        tiny,
    })
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(out: &workload::Outcome) -> String {
    let mut m = String::new();
    for (i, (name, value, unit, _)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    )
}

fn run(argv: &[String]) -> Result<String, String> {
    match argv.first().map(String::as_str) {
        Some("manifest") => return Ok(spec::manifest().trim_end().to_string()),
        Some("trace-op") => {
            let [_, dir, steps, victims] = argv else {
                return Err("usage: trace-op DIR STEPS MAX_VICTIMS".to_string());
            };
            let steps = layers::Steps::parse(steps, victims)?;
            return Ok(layers::trace_op(Path::new(dir), steps)?
                .trim_end()
                .to_string());
        }
        Some("aggregate") => {
            let [_, dir] = argv else {
                return Err("usage: aggregate DIR".to_string());
            };
            return workload::aggregate_op(Path::new(dir));
        }
        Some("bug-setup") => {
            let [_, dir, millis, rate, victims] = argv else {
                return Err("usage: bug-setup DIR MILLIS RATE_MPPS MAX_VICTIMS".to_string());
            };
            let num = |v: &str| v.parse::<f64>().map_err(|_| format!("bad number {v:?}"));
            let size = spec::Size {
                millis: num(millis)? as u64,
                rate_mpps: num(rate)?,
                chunk_ms: 0,
                max_victims: num(victims)? as usize,
            };
            return workload::bug_setup(Path::new(dir), size);
        }
        _ => {}
    }
    let a = parse_args(argv)?;
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (no crates/cli here)".to_string());
    }
    println!("{}", sys::host_facts());
    let cli = sys::build_cli(&root)?;
    println!(
        "cli: {} (built or verified against this tree by cargo)",
        cli.display()
    );

    let work = workload::work_dir(&root, a.workload.name, a.seed);
    std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
    let outcome = workload::run(&workload::RunArgs {
        workload: a.workload,
        size: if a.tiny {
            a.workload.tiny
        } else {
            a.workload.size
        },
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        cli: &cli,
        work: &work,
    });
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;
    if let Some(tr) = &outcome.spans {
        let path = work.with_file_name(format!("spans-{}-{}.jsonl", a.workload.name, a.seed));
        std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("write spans: {e}"))?;
        println!("spans: {} ({} spans)", path.display(), tr.spans.len());
    }
    print_report(&a, &outcome);
    Ok(result_json(&outcome))
}

fn print_report(a: &Args, out: &workload::Outcome) {
    println!(
        "workload {} seed {} trace {} ({} s)",
        a.workload.name,
        a.seed,
        u8::from(a.trace),
        a.seconds
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, value, unit, n) in &out.metrics {
        println!("  {name:<40} {value:>16.4} {unit:<6} (median of {n})");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
