//! W2: range-query throughput scaling — the global-lock read path vs the
//! query engine's clone per statement, under concurrent ingest.
//!
//! Usage: `exp_query_scaling [n_objects] [grid] [window_ms] [max_threads]`
//! (defaults: 10000 objects on a 20x20 grid, 500 ms windows, thread
//! counts 1, 2, …, up to 4; each power of two is measured in both modes).

use modb_sim::experiments::query_scaling::{query_scaling_table, run_query_scaling};

fn arg_or(args: &mut impl Iterator<Item = String>, name: &str, default: usize) -> usize {
    match args.next() {
        None => default,
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} must be a positive integer, got {a:?}");
            eprintln!("usage: exp_query_scaling [n_objects] [grid] [window_ms] [max_threads]");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_objects = arg_or(&mut args, "n_objects", 10_000);
    let grid = arg_or(&mut args, "grid", 20);
    let window_ms = arg_or(&mut args, "window_ms", 500);
    let max_threads = arg_or(&mut args, "max_threads", 4).max(1);
    let mut thread_counts = Vec::new();
    let mut t = 1;
    while t <= max_threads {
        thread_counts.push(t);
        t *= 2;
    }
    eprintln!(
        "running query-scaling experiment: {n_objects} objects on a {grid}x{grid} grid, \
         {window_ms} ms windows, threads {thread_counts:?}"
    );
    let rows = run_query_scaling(n_objects, grid, &thread_counts, window_ms as u64);
    println!("{}", query_scaling_table(&rows));
}
