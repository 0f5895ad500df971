//! W1: ingest throughput with the write-ahead log on and off, across
//! fsync policies — the measured price of durability.
//!
//! Usage: `exp_wal_overhead [n_objects] [rounds] [workers] [--json PATH]`
//! (defaults: 2000 objects × 50 rounds, 4 workers — the ingest service's
//! lock stripes; the `Always` policy
//! automatically runs a reduced round count; `--json` writes the rows as
//! a JSON document, the CI artifact `BENCH_wal_overhead.json`).

use modb_sim::experiments::wal_overhead::{
    run_wal_overhead, wal_overhead_json, wal_overhead_table,
};

fn arg_or(args: &mut impl Iterator<Item = String>, name: &str, default: usize) -> usize {
    match args.next() {
        None => default,
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} must be a positive integer, got {a:?}");
            eprintln!("usage: exp_wal_overhead [n_objects] [rounds] [workers] [--json PATH]");
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
    let n_objects = arg_or(&mut args, "n_objects", 2_000);
    let rounds = arg_or(&mut args, "rounds", 50);
    let workers = arg_or(&mut args, "workers", 4);
    eprintln!(
        "running wal-overhead experiment: {n_objects} objects x {rounds} rounds, {workers} workers"
    );
    let rows = run_wal_overhead(n_objects, rounds, workers);
    println!("{}", wal_overhead_table(&rows));
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, wal_overhead_json(&rows)) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
