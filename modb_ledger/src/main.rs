//! `modb_ledger`: the repository's end-to-end cost ledger.
//!
//! ```text
//! modb_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! ```
//!
//! Prints every metric by name with its unit and sample count, then — as
//! the last line of standard output — one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Exits
//! non-zero when a check fails or the run cannot complete. `--out`
//! appends the result, with the facts of the machine it was taken on,
//! to a JSON-lines file (`compare.py` reads two of those), and a traced
//! run writes its spans to `<file>.trace.json`.

mod api;
mod checks;
mod deploy;
mod fleet;
mod peel;
mod recover;
mod run;
#[cfg(test)]
mod smoke;
mod stats;
mod traffic;

use std::io::Write;
use std::process::ExitCode;

use run::{Metric, Report, Workload, WORKLOADS};

/// Version of the `--out` record layout.
const SCHEMA: u32 = 2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut out) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 1.0)
                        .ok_or("--seconds takes a number of at least 1")?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(value),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out,
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    fields.join(", ")
}

fn result_json(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    )
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// File-system type of the mount the scratch root is on.
fn scratch_fs_type() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (mount, fs) = (fields.nth(1)?, fields.next()?);
            cwd.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs)| fs)
}

/// Appends the result and where it was taken to `path`.
fn append_record(path: &str, args: &Args, report: &Report) -> std::io::Result<()> {
    let all = || report.metrics.iter().chain(&report.timings);
    let samples: Vec<String> = all()
        .map(|m| format!("\"{}\": {}", m.name, m.samples))
        .collect();
    let percentiles: Vec<String> = all()
        .filter_map(|m| Some(format!("\"{}\": {}", m.name, m.percentile?)))
        .collect();
    let record = format!(
        "{{\"schema\": {SCHEMA}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"scratch_fs\": \"{}\", \
         \"samples\": {{{}}}, \"percentiles\": {{{}}}, \"timings\": {{{}}}, \"result\": {}}}\n",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::env::var("LEDGER_COMMIT").unwrap_or_else(|_| "unknown".into()),
        std::thread::available_parallelism().map_or(0, usize::from),
        command_output("rustc", &["--version"]),
        scratch_fs_type(),
        samples.join(", "),
        percentiles.join(", "),
        metrics_json(&report.timings),
        result_json(report),
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(record.as_bytes())?;
    if args.traced {
        std::fs::write(format!("{path}.trace.json"), report.spans.to_json())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("modb_ledger: {e}");
            eprintln!(
                "usage: modb_ledger --workload <{}> --seed <u64> --seconds <s> --trace <0|1> [--out <file>]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match run::run(args.workload, args.seed, args.seconds, args.traced) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("modb_ledger: {}: {e}", args.workload.name);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {}: {}",
        args.workload.name, args.seed, args.workload.why
    );
    for m in report.metrics.iter().chain(&report.timings) {
        let percentile = m.percentile.map_or(String::new(), |q| format!(" p={q:.4}"));
        println!(
            "{:<40} {:>16.4} {:<6} n={}{percentile}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for row in &report.ledger {
        println!("{row}");
    }
    for finding in &report.findings {
        println!("CHECK FAILED: {finding}");
    }
    if let Some(path) = &args.out {
        if let Err(e) = append_record(path, &args, &report) {
            eprintln!("modb_ledger: --out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
