//! Whole runs at a tiny scale, and proof that the checks can fail.

use crate::api::{DurableDatabase, ObjectId, QueryResult, WalOptions};
use crate::checks::{breaks_containment, differs_from_scan};
use crate::deploy::{Leader, Load, Scratch};
use crate::fleet::{Fleet, FleetSpec, StmtKind};
use crate::recover::acked_lost;
use crate::run::{run, Phase, Workload, WORKLOADS};
use crate::traffic::Observed;

/// Seconds of each tiny run.
const SECONDS: f64 = 2.0;

/// The workload with its sizes cut to what [`SECONDS`] of traffic need.
/// The trace holds some 58 000 updates. A traced run on the sandbox this
/// was written in consumes about 15 000 of them: the load, the peel's
/// 6 120, the un-acked tail, and some 4 000 a second while a writer's
/// window is open (no more than two of the seconds, warm-ups included). A
/// machine three times as fast still uses only half the trace.
fn tiny(w: &Workload) -> Workload {
    Workload {
        fleet: FleetSpec {
            objects: 16_000,
            curves: 64,
            minutes: 100.0,
            statements: 20_000,
        },
        load: Load {
            until: 22.0,
            snapshot_at: w.load.snapshot_at.map(|_| 12.0),
            ..w.load
        },
        unacked_tail: 200,
        ..*w
    }
}

/// The names BENCHMARK.json lists under `section`, in order.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let from = text.find(&format!("\"{section}\"")).expect("section");
    let list = &text[from..from + text[from..].find(']').expect("end of list")];
    list.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// One test, so that nothing else in the process holds a scratch root
/// when the last assertion looks for leftovers.
#[test]
fn whole_runs_and_failing_checks() {
    every_workload_reports_every_named_metric();
    the_checks_fire_on_corrupted_verdicts();
    assert!(
        !std::env::current_dir()
            .unwrap()
            .join(".bench_scratch")
            .exists(),
        "a run left its scratch root behind"
    );
}

/// The rates and latencies an untraced run takes in its own phase.
fn own_timings(own: Phase) -> &'static [&'static str] {
    match own {
        Phase::Ingest => &[
            "update_acks_per_s",
            "update_ack_p50_us",
            "update_ack_p99_us",
            "failed_share",
            "peak_rss_mb",
        ],
        Phase::Query => &[
            "query_stmts_per_s",
            "range_query_p50_us",
            "range_query_p99_us",
            "position_query_p50_us",
            "failed_share",
            "peak_rss_mb",
        ],
        Phase::Mixed => &[
            "update_acks_per_s",
            "query_stmts_per_s",
            "ryw_read_p50_us",
            "ryw_read_p99_us",
            "failed_share",
            "peak_rss_mb",
        ],
        Phase::Reopen => &["recover_s", "failed_share", "acked_lost", "peak_rss_mb"],
    }
}

fn every_workload_reports_every_named_metric() {
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(benchmark_names("workloads"), workloads);
    for w in &WORKLOADS {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&tiny(w), 7, SECONDS, traced)
                .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", w.name));
            assert!(report.correct, "{}: {:?}", w.name, report.findings);
            assert_eq!(report.failed, 0, "{}", w.name);
            assert!(report.attempted > 100, "{}", w.name);
            let reported: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            assert_eq!(reported, benchmark_names(section), "{} {section}", w.name);
            for m in &report.metrics {
                // A side phase of a third of a second may leave a window
                // without a sample; a bounded metric may never be 0 —
                // though memory freed by an earlier run of this process
                // is reused, so only a process's first run sees its
                // resident memory grow.
                assert!(m.value.is_finite(), "{} {}", w.name, m.name);
                assert!(
                    traced || m.value > 0.0 || m.name == "loaded_rss_mb",
                    "{} {} = {}",
                    w.name,
                    m.name,
                    m.value
                );
            }
            assert_eq!(report.spans.spans.is_empty(), !traced, "{}", w.name);
            assert_eq!(report.ledger.is_empty(), !traced, "{}", w.name);
            // An untraced run also takes the rates and latencies of its own
            // phase, over the whole of its seconds.
            let timed: Vec<&str> = report.timings.iter().map(|m| m.name).collect();
            assert_eq!(timed, if traced { &[][..] } else { own_timings(w.own) });
            for m in &report.timings {
                let zero = matches!(m.name, "failed_share" | "acked_lost");
                assert_eq!(m.value > 0.0, !zero, "{} {} = {}", w.name, m.name, m.value);
            }
        }
    }
}

fn the_checks_fire_on_corrupted_verdicts() {
    let spec = FleetSpec {
        objects: 3_000,
        curves: 64,
        minutes: 30.0,
        statements: 400,
    };
    let fleet = Fleet::generate(21, spec);
    let now = 25.0;
    let preload = Load {
        until: now,
        snapshot_at: None,
        batched: false,
    };
    let loaded = fleet.updates_until(now);
    let scratch = Scratch::new().unwrap();
    let leader = Leader::deploy(&scratch.fresh("leader"), &fleet, preload, true).unwrap();
    let engine = &leader.front().unwrap().engine;

    // Answers as served, on a state where every update up to `now` is in.
    let mut observed: Vec<Observed> = Vec::new();
    for (i, stmt) in fleet.script.iter().enumerate() {
        if stmt.kind != StmtKind::Range || stmt.during.is_some() {
            continue;
        }
        let verdicts = engine.run_batch(&stmt.render(now).0);
        let Some(Ok(QueryResult::Range(answer))) = verdicts.into_iter().next() else {
            panic!("statement {i} failed");
        };
        observed.push(Observed {
            stmt: i,
            now,
            sent_after: now,
            answer,
        });
    }
    assert!(observed.len() > 50);
    let scan = |observed: &[Observed]| {
        leader
            .durable
            .database()
            .with_read(|db| differs_from_scan(db, &fleet, observed))
    };
    assert_eq!(scan(&observed), 0);
    assert_eq!(breaks_containment(&fleet, &observed), 0);

    // A vehicle claimed certain where it is not: both checks object.
    let far = observed
        .iter()
        .position(|o| o.answer.must.is_empty() && o.answer.may.is_empty())
        .expect("some region is empty");
    observed[far].answer.must.push(ObjectId(0));
    assert_eq!(scan(&observed), 1);
    assert_eq!(breaks_containment(&fleet, &observed), 1);
    observed[far].answer.must.clear();
    // A vehicle truly inside dropped from the answer: both object again.
    let full = observed
        .iter()
        .position(|o| o.answer.must.len() > 2)
        .expect("some region certainly holds vehicles");
    observed[full].answer.must.clear();
    assert_eq!(scan(&observed), 1);
    assert_eq!(breaks_containment(&fleet, &observed), 1);

    // Reopened, the state holds every preloaded update — and not one the
    // leader was never sent.
    let (durable, ingested) = leader.shutdown();
    assert_eq!(ingested.rejected(), 0);
    let dir = durable.dir().to_path_buf();
    drop(durable);
    let (reopened, _) = DurableDatabase::open(&dir, WalOptions::default()).unwrap();
    let mut last_acked = vec![u32::MAX; fleet.rides.len()];
    for (idx, u) in fleet.updates[..loaded].iter().enumerate() {
        last_acked[u.id as usize] = idx as u32;
    }
    assert_eq!(acked_lost(&reopened, &fleet, &last_acked), 0);
    let unsent = &fleet.updates[loaded];
    last_acked[unsent.id as usize] = loaded as u32;
    assert_eq!(acked_lost(&reopened, &fleet, &last_acked), 1);
}
