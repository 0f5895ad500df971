//! W7: the block log format and group commit — bytes per update across
//! log encodings, fsync collapse under concurrent acked ingest, and
//! replication wire bytes with a live standby convergence check.
//!
//! Usage: `exp_wal_throughput [n_objects] [rounds] [workers] [producers]
//! [--json PATH]` (defaults: 2000 objects × 50 rounds, 4 workers — the
//! ingest service's lock stripes — and 8 acked producers; `--json` writes the report as a JSON document, the
//! CI artifact `BENCH_wal_throughput.json`).
//!
//! Exits non-zero if the v2-lz format fails to at least halve the log's
//! bytes per update, or if the standby fails to converge.

use modb_sim::experiments::wal_throughput::{
    run_wal_throughput, wal_throughput_json, wal_throughput_tables,
};

fn arg_or(args: &mut impl Iterator<Item = String>, name: &str, default: usize) -> usize {
    match args.next() {
        None => default,
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} must be a positive integer, got {a:?}");
            eprintln!(
                "usage: exp_wal_throughput [n_objects] [rounds] [workers] [producers] \
                 [--json PATH]"
            );
            std::process::exit(2);
        }),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        let flag_and_path: Vec<String> = args.drain(i..(i + 2).min(args.len())).collect();
        flag_and_path.get(1).cloned().unwrap_or_else(|| {
            eprintln!("error: --json requires a path");
            std::process::exit(2);
        })
    });
    let mut args = args.into_iter();
    let n_objects = arg_or(&mut args, "n_objects", 2_000).max(8);
    let rounds = arg_or(&mut args, "rounds", 50).max(1);
    let workers = arg_or(&mut args, "workers", 4).max(1);
    let producers = arg_or(&mut args, "producers", 8).max(1);

    eprintln!(
        "running wal-throughput experiment: {n_objects} objects x {rounds} rounds, \
         {workers} workers, {producers} acked producers"
    );
    let report = run_wal_throughput(n_objects, rounds, workers, producers);
    println!("{}", wal_throughput_tables(&report));

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, wal_throughput_json(&report)) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    let mut failed = false;
    if report.disk_ratio() < 2.0 {
        eprintln!(
            "FAIL: v2-lz bytes/update reduction {:.2}x is below the 2x bar",
            report.disk_ratio()
        );
        failed = true;
    }
    if report.wire.applied != report.wire.records {
        eprintln!(
            "FAIL: standby applied {} of {} records",
            report.wire.applied, report.wire.records
        );
        failed = true;
    }
    if report.group_commit.commits > report.group_commit.tickets {
        eprintln!("FAIL: more fsyncs than tickets — the committer is not collapsing");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
