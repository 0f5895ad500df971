//! F6: index-maintenance throughput — §4.2's position-update step
//! (delete the old o-plane's boxes, insert the new o-plane's) — and what
//! an aged fleet (5 000 vehicles, 256 updates each) costs.
//!
//! Usage: `exp_f6_index_update` (fixed fleet sizes).

use modb_sim::experiments::indexing::{
    aged_update_table, index_update_table, run_aged_update, run_index_update,
};

fn main() {
    // The aged leg first: its resident-memory columns read the growth of
    // a fresh heap, which a heap the larger fleets had already grown and
    // freed would absorb.
    eprintln!("running the aged leg: 5000 vehicles, 256 updates each");
    let aged = run_aged_update(5_000, 256);
    let sizes = [1_000, 5_000, 20_000];
    eprintln!("running index-update experiment: fleets {sizes:?}");
    let rows = run_index_update(&sizes);
    println!("{}", index_update_table(&rows));
    println!("{}", aged_update_table(&[aged]));
}
