//! The simulator's layered benchmark.
//!
//! ```text
//! perfbench --workload <instance|sweep|sharded> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! perfbench describe
//! perfbench compare <base-record.json> <new-record.json>
//! ```
//!
//! A run sets up its workload, drives it in a closed loop for `--seconds`, checks
//! every output it can, and prints each metric by name and unit, then one JSON
//! object as its last line. With `--trace 0` those are the end-to-end metrics; with
//! `--trace 1` the per-layer ones, from spans recorded around calls into each layer.
//! The run's record (with its workload fingerprint) and spans go to `--out`. A
//! failed check exits with status 1.

mod catalog;
mod common;
mod instance;
mod json;
mod record;
mod sharded;
mod stats;
mod sweep;
mod trace;

use catalog::{DEFAULT_SEED, END_TO_END, PER_LAYER};
use common::Settings;
use record::{compare, fingerprint, Record};
use std::path::PathBuf;
use std::process::ExitCode;

/// Main pool width, and shard count of `sharded`.
const THREADS: usize = 2;

fn main() -> ExitCode {
    // A shard worker spawned by `sharded` runs its shard here and exits.
    clb::shard::maybe_run_worker();
    // Shard workers inherit this: one thread each. The main process's own parallel work
    // runs inside explicit `ThreadPool::install` scopes of `THREADS` threads.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", catalog::describe());
            ExitCode::SUCCESS
        }
        Some("compare") => compare_command(&args[1..]),
        _ => match parse_run(&args) {
            Ok((workload, settings, out)) => run(&workload, &settings, &out),
            Err(message) => {
                eprintln!("perfbench: {message}");
                ExitCode::from(2)
            }
        },
    }
}

fn parse_run(args: &[String]) -> Result<(String, Settings, PathBuf), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let settings = Settings {
        seed,
        seconds,
        trace,
        threads: THREADS.min(hardware_threads),
        hardware_threads,
    };
    Ok((workload, settings, out))
}

fn run(workload: &str, settings: &Settings, out: &std::path::Path) -> ExitCode {
    let measure = match workload {
        "instance" => instance::measure,
        "sweep" => sweep::measure,
        "sharded" => sharded::measure,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (instance, sweep or sharded)");
            return ExitCode::from(2);
        }
    };
    // The workload definitions name the main pool's width; check the pool grants it.
    let effective_threads = common::pool(settings.threads).install(rayon::current_num_threads);
    let measured = common::check(effective_threads == settings.threads, || {
        format!(
            "the main pool runs {effective_threads} threads, not {}",
            settings.threads
        )
    })
    .and_then(|()| measure(settings));
    let measured = match measured {
        Ok(measured) => measured,
        Err(message) => {
            eprintln!("perfbench: check failed: {message}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::FAILURE;
        }
    };

    let (values, wanted) = if settings.trace {
        let wanted: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        (&measured.per_layer, wanted)
    } else {
        let wanted: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        (&measured.end_to_end, wanted)
    };
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !wanted.iter().any(|w| w.0 == *n))
    {
        panic!("workload {workload} reported {name}, which the catalog does not list");
    }
    // A per-layer metric of a layer the workload does not exercise reads 0; every
    // end-to-end metric must be measured.
    let metrics: Vec<(String, f64, String)> = wanted
        .into_iter()
        .map(|(name, unit)| {
            let value = match values.iter().find(|(n, _)| *n == name) {
                Some(&(_, value)) => value,
                None if settings.trace => 0.0,
                None => panic!("workload {workload} did not report {name}"),
            };
            (name.to_string(), value, unit.to_string())
        })
        .collect();
    let correct = measured.tally.failed == 0;
    let record = Record {
        workload: workload.to_string(),
        seed: settings.seed,
        trace: settings.trace,
        fingerprint: fingerprint(&measured.definition),
        definition: measured.definition.clone(),
        hardware_threads: settings.hardware_threads as u64,
        correct,
        attempted: measured.tally.attempted,
        failed: measured.tally.failed,
        metrics,
    };

    println!(
        "perfbench {workload}: seed {}, {} s, trace {}, fingerprint {}",
        settings.seed,
        settings.seconds,
        u8::from(settings.trace),
        record.fingerprint
    );
    println!("  workload: {}", record.definition);
    println!(
        "  hardware threads {}, main pool threads {effective_threads} (shard workers, \
         sharded only: {} processes of 1 thread)",
        settings.hardware_threads, settings.threads
    );
    for note in &measured.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &record.metrics {
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    println!(
        "  failed_frac {} ({} of {} cells or operations)",
        measured.tally.failed_frac(),
        measured.tally.failed,
        measured.tally.attempted
    );
    if let Some(trace) = &measured.trace {
        println!("  self time per span name over the traced run:");
        for (name, self_time) in trace.self_totals() {
            println!("    {name:<24} {self_time:>12.6} s");
        }
    }
    if let Err(e) = save(&record, &measured, settings, out) {
        eprintln!(
            "perfbench: could not write results to {}: {e}",
            out.display()
        );
        return ExitCode::FAILURE;
    }

    let metrics: Vec<String> = record
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        record.attempted,
        record.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} cells or operations failed",
            measured.tally.failed
        );
        ExitCode::FAILURE
    }
}

/// Writes the record (appended to `history.jsonl` and as the latest record of its
/// workload and mode) and, for traced runs, the spans.
fn save(
    record: &Record,
    measured: &common::Measured,
    settings: &Settings,
    out: &std::path::Path,
) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(out)?;
    let line = record.to_json();
    let mode = if settings.trace { "traced" } else { "untraced" };
    std::fs::write(
        out.join(format!("{}-{mode}.json", record.workload)),
        format!("{line}\n"),
    )?;
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("history.jsonl"))?;
    writeln!(history, "{line}")?;
    if let Some(trace) = &measured.trace {
        std::fs::write(
            out.join(format!(
                "spans-{}-seed{}.jsonl",
                record.workload, record.seed
            )),
            trace.to_json_lines(),
        )?;
    }
    Ok(())
}

fn compare_command(args: &[String]) -> ExitCode {
    let [base, new] = args else {
        eprintln!("usage: perfbench compare <base-record.json> <new-record.json>");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Record, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        Record::from_json(line).map_err(|e| format!("{path}: {e}"))
    };
    let deltas = match load(base).and_then(|b| load(new).and_then(|n| compare(&b, &n))) {
        Ok(deltas) => deltas,
        Err(message) => {
            eprintln!("perfbench compare: {message}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    for d in &deltas {
        let verdict = match d.regressed {
            Some(true) => "REGRESSED beyond its bound",
            Some(false) => "within bound",
            None => "",
        };
        regressed |= d.regressed == Some(true);
        println!(
            "{:<26} {:>14.6} -> {:>14.6} {:<10} {verdict}",
            d.name, d.base, d.new, d.unit
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
