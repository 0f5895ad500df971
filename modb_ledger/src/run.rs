//! One run of one workload: set-up, its phases, the checks, the metrics.
//!
//! There are four phases — a static query phase, an acked single-update
//! ingest phase, a mixed phase (batched writes to the leader beside
//! read-your-writes reads from a follower) and a crash-and-reopen phase —
//! and each workload owns one of them. An **untraced** run is the
//! workload's own shape and nothing else: set-up, then its one phase for
//! the whole of `--seconds`. That is where the end-to-end metrics come
//! from, so a workload's set-up time, memory and log never carry another
//! workload's traffic. A **traced** run is the ledger run: every phase in
//! turn on the workload's fleet (its own gets most of the seconds, the
//! side phases a short share each), spans on, then the peel — so every
//! per-layer metric is a measurement on every workload.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::api::{
    recover, DurableDatabase, ObjectId, ServerStatsSnapshot, UpdateEnvelope, WalOptions,
};
use crate::checks::{breaks_containment, differs_from_scan};
use crate::deploy::{Follower, Leader, Load, Scratch, WalCost};
use crate::fleet::{Fleet, FleetSpec};
use crate::peel::{self, Peel};
use crate::recover::{acked_lost, crash_image, AckedTail};
use crate::stats::{median_f64, p50_us, rate_per_s, Layer, Samples, Series, Spans};
use crate::traffic::{
    read_statements, write_batches, write_single, ReaderOutcome, Tally, Walk, Window, WriterClock,
    WriterOutcome, BATCH_FRAME,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The reopen phase opens at least this often where it is the workload's
/// own, and this often as a side phase.
const OWN_OPENS: usize = 7;
const SIDE_OPENS: usize = 3;
/// Share of a traced run's seconds the workload's own phase gets; the
/// three side phases share the rest equally.
const OWN_SHARE: f64 = 0.55;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Query = 0,
    Ingest = 1,
    Mixed = 2,
    Reopen = 3,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The trace is at least three times as long as the seed commit
    /// consumes of it, so a faster system does not run out.
    pub fleet: FleetSpec,
    pub load: Load,
    /// Updates sent without waiting for an ack just before the crash.
    pub unacked_tail: usize,
    /// The phase an untraced run consists of.
    pub own: Phase,
}

impl Workload {
    /// Seconds of each phase (query, ingest, mixed, reopen).
    fn phase_seconds(&self, seconds: f64, traced: bool) -> [f64; 4] {
        let mut shares = [if traced { (1.0 - OWN_SHARE) / 3.0 } else { 0.0 }; 4];
        shares[self.own as usize] = if traced { OWN_SHARE } else { 1.0 };
        shares.map(|share| share * seconds)
    }
}

/// Statements in every query script; each reader walks it from the start.
const STATEMENTS: usize = 60_000;
/// Distinct speed curves (policy-engine runs) per fleet.
const CURVES: usize = 4096;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_acked",
        why: "two connections send single Update frames, each acked after its group-commit fsync; no reader, no follower: the write path does all the work, so a read-side change must show no move here",
        fleet: FleetSpec {
            objects: 40_000,
            curves: CURVES,
            minutes: 105.0,
            statements: STATEMENTS,
        },
        load: Load {
            until: 22.0,
            snapshot_at: None,
            batched: false,
        },
        unacked_tail: 2_000,
        own: Phase::Ingest,
    },
    Workload {
        name: "query_static",
        why: "two connections send the query mix to a quiescent index of 100 000 vehicles, well past L2, with no writer: the read path does all the work, so a WAL or commit change must show no move here",
        fleet: FleetSpec {
            objects: 100_000,
            curves: CURVES,
            minutes: 45.0,
            statements: STATEMENTS,
        },
        load: Load {
            until: 22.0,
            snapshot_at: Some(22.0),
            batched: false,
        },
        unacked_tail: 2_000,
        own: Phase::Query,
    },
    Workload {
        name: "mixed_follower",
        why: "frames of 32 updates to the leader beside read-your-writes reads from a snapshot-bootstrapped follower: the only shape that crosses replication, where a read gain that costs writes shows",
        fleet: FleetSpec {
            objects: 50_000,
            curves: CURVES,
            minutes: 105.0,
            statements: STATEMENTS,
        },
        load: Load {
            until: 22.0,
            snapshot_at: Some(16.0),
            batched: false,
        },
        unacked_tail: 2_000,
        own: Phase::Mixed,
    },
    Workload {
        name: "recover_restart",
        why: "in-process reopen of a log of 32-record compressed blocks with a snapshot in its middle and a torn tail: decode, replay, index rebuild; an encoding that decodes slowly pays here",
        fleet: FleetSpec {
            objects: 50_000,
            curves: CURVES,
            minutes: 100.0,
            statements: STATEMENTS,
        },
        load: Load {
            until: 33.0,
            snapshot_at: Some(22.0),
            batched: true,
        },
        unacked_tail: 4_000,
        own: Phase::Reopen,
    },
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing (0 for counts and ratios).
    pub samples: usize,
    /// For a tail: the percentile the samples supported.
    pub percentile: Option<f64>,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The result line: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub metrics: Vec<Metric>,
    /// Untraced runs: the rates and latencies of the workload's own
    /// phase, printed and recorded but not part of the result line.
    pub timings: Vec<Metric>,
    /// What each failed check found.
    pub findings: Vec<String>,
    /// Traced runs: where a microsecond of an update ack and of a range
    /// query goes, as printable rows.
    pub ledger: Vec<String>,
    pub spans: Spans,
}

fn phase_window(seconds: f64, epoch: Instant, traced: bool) -> Window {
    let warm = (0.15 * seconds).clamp(0.1, 1.0);
    Window::starting_now(
        Duration::from_secs_f64(warm),
        Duration::from_secs_f64(seconds),
        epoch,
        traced,
    )
}

fn scrape(leader: &Leader) -> Result<ServerStatsSnapshot, String> {
    let mut client = leader.connect()?;
    let stats = client.stats().map_err(|e| format!("scrape: {e}"))?;
    client.close();
    Ok(stats)
}

/// A line of `/proc/self/status` given in kB (`VmRSS`, `VmHWM`), in MiB.
fn resident_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Two connections to the leader walk the script, one statement per
/// frame, against the state the load left.
fn query_phase(
    leader: &Leader,
    fleet: &Fleet,
    now: f64,
    window: Window,
) -> Result<ReaderOutcome, String> {
    let clock = WriterClock::starting_at(now, 0);
    let walk = |first| Walk {
        first,
        stride: 2,
        skip_nearest: false,
    };
    let mut clients = [leader.connect()?, leader.connect()?];
    let [a, b] = &mut clients;
    let (mut first, second) = std::thread::scope(|s| {
        let other = s.spawn(|| read_statements(b, &fleet.script, walk(1), window, &clock, false));
        let mine = read_statements(a, &fleet.script, walk(0), window, &clock, false);
        (mine, other.join().expect("reader thread"))
    });
    clients.into_iter().for_each(|c| c.close());
    first.range.extend(&second.range);
    first.position.extend(&second.position);
    first.nearest.extend(&second.nearest);
    first.tally.add(second.tally);
    first.stale += second.stale;
    first.spans.extend(second.spans);
    first.error = first.error.or(second.error);
    Ok(first)
}

/// Two connections to the leader, each owning half the vehicles, send
/// single `Update` frames and wait for each ack.
fn ingest_phase(
    leader: &Leader,
    fleet: &Fleet,
    halves: &[Vec<u32>; 2],
    pos: &mut [usize; 2],
    window: Window,
) -> Result<[WriterOutcome; 2], String> {
    let mut clients = [leader.connect()?, leader.connect()?];
    let [a, b] = &mut clients;
    let [pos_a, pos_b] = pos;
    let outcomes = std::thread::scope(|s| {
        let other = s.spawn(|| write_single(b, fleet, &halves[1], pos_b, window));
        let mine = write_single(a, fleet, &halves[0], pos_a, window);
        [mine, other.join().expect("writer thread")]
    });
    clients.into_iter().for_each(|c| c.close());
    Ok(outcomes)
}

/// One connection sends frames of 32 updates to the leader; one reads
/// from the follower, every read floored at the writer's latest token.
fn mixed_phase(
    leader: &Leader,
    follower: &Follower,
    fleet: &Fleet,
    order: &[u32],
    pos: &mut usize,
    window: Window,
    clock: &WriterClock,
) -> Result<(WriterOutcome, ReaderOutcome), String> {
    let mut writer = leader.connect()?;
    let mut reader = follower.connect()?;
    let watch = window.traced.then(|| follower.replica.watch());
    let outcomes = std::thread::scope(|s| {
        let reading = s.spawn(|| {
            read_statements(
                &mut reader,
                &fleet.script,
                Walk {
                    first: 0,
                    stride: 1,
                    skip_nearest: true,
                },
                window,
                clock,
                window.traced,
            )
        });
        let written = write_batches(
            &mut writer,
            fleet,
            order,
            pos,
            window,
            clock,
            watch.as_ref(),
        );
        (written, reading.join().expect("reader thread"))
    });
    writer.close();
    reader.close();
    Ok(outcomes)
}

/// Merges two ascending index lists from their cursors on.
fn merge_rest(halves: &[Vec<u32>; 2], pos: [usize; 2]) -> Vec<u32> {
    let mut rest: Vec<u32> = halves[0][pos[0]..]
        .iter()
        .chain(&halves[1][pos[1]..])
        .copied()
        .collect();
    rest.sort_unstable();
    rest
}

/// The paper's second axis, as it is served: the mean deviation bound of
/// `Database::position_of` over every vehicle at simulated time `now`.
/// State and instant are fixed by the seed, so the answer is too.
fn served_bound_mi(leader: &Leader, fleet: &Fleet, now: f64) -> Result<f64, String> {
    leader.durable.database().with_read(|db| {
        let mut sum = 0.0;
        for id in 0..fleet.rides.len() {
            sum += db
                .position_of(ObjectId(id as u64), now)
                .map_err(|e| format!("position of {id}: {e}"))?
                .bound;
        }
        Ok(sum / fleet.rides.len() as f64)
    })
}

struct Queried {
    answers: ReaderOutcome,
    window_s: f64,
}

struct Ingested {
    /// The two single-update writers of the counted window.
    writers: [WriterOutcome; 2],
    window_s: f64,
    cost: WalCost,
    /// Traced runs: the median ack of the span-less first half.
    untraced_ack_p50: Option<f64>,
}

struct Mixed {
    written: WriterOutcome,
    reads: ReaderOutcome,
    window_s: f64,
    cost: WalCost,
    catch_up: (f64, u64),
    records_shipped: u64,
}

/// What the traffic phases that ran left behind.
struct Traffic {
    queried: Option<Queried>,
    ingested: Option<Ingested>,
    mixed: Option<Mixed>,
    /// Traced runs: the peel, and the leader's scrape after the phases.
    peel: Option<Peel>,
    scraped: Option<ServerStatsSnapshot>,
    /// Newest acknowledged update of every vehicle (trace index).
    last_acked: Vec<u32>,
    /// Trace order from the mixed phase on, and how far it was sent.
    order: Vec<u32>,
    order_pos: usize,
}

fn drive_traffic(
    w: &Workload,
    fleet: &Fleet,
    leader: &Leader,
    scratch: &Scratch,
    [q_s, i_s, m_s, _]: [f64; 4],
    traced: bool,
    findings: &mut Vec<String>,
) -> Result<Traffic, String> {
    let epoch = Instant::now();
    let static_now = w.load.until;
    let mut cursor = fleet.updates_until(static_now);

    // Query phase, on the quiescent leader; its answers must equal an
    // exhaustive scan of the same state.
    let mut queried = None;
    if q_s > 0.0 {
        let window = phase_window(q_s, epoch, traced);
        let answers = query_phase(leader, fleet, static_now, window)?;
        let differing = leader
            .durable
            .database()
            .with_read(|db| differs_from_scan(db, fleet, &answers.observed));
        if differing > 0 || answers.observed.is_empty() {
            findings.push(format!(
                "query phase: {differing} of {} range answers differ from range_query_scan",
                answers.observed.len()
            ));
        }
        queried = Some(Queried {
            answers,
            window_s: window.counted_s(),
        });
    }

    // Traced runs: the peel replays a stretch of the trace at each depth
    // of the stack.
    let peel = if traced {
        let needed = peel::trace_needed(w.fleet.objects);
        let stretch = fleet
            .updates
            .get(cursor..cursor + needed)
            .ok_or("update trace exhausted by the peel")?;
        cursor += needed;
        Some(peel::run(leader, fleet, stretch, static_now, scratch)?)
    } else {
        None
    };

    // Ingest phase: each connection owns half the vehicles. A traced run
    // takes it in two halves, spans off then on, so the overhead of
    // recording them is itself measured; only the second half counts.
    let half = fleet.rides.len() as u32 / 2;
    let mut halves: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    for idx in cursor..fleet.updates.len() {
        halves[usize::from(fleet.updates[idx].id >= half)].push(idx as u32);
    }
    let mut pos = [0usize; 2];
    let mut acked: Vec<u32> = Vec::new();
    let mut ingested = None;
    if i_s > 0.0 {
        let mut untraced_ack_p50 = None;
        let i_s = if traced { i_s / 2.0 } else { i_s };
        if traced {
            let [a, b] = ingest_phase(
                leader,
                fleet,
                &halves,
                &mut pos,
                phase_window(i_s, epoch, false),
            )?;
            let mut latency = a.latency;
            latency.extend(&b.latency);
            untraced_ack_p50 = Some(p50_us(&latency, i_s));
            acked.extend(a.acked.iter().chain(&b.acked));
            findings.extend(a.error.into_iter().chain(b.error));
        }
        let before = leader.wal_counters();
        let window = phase_window(i_s, epoch, traced);
        let writers = ingest_phase(leader, fleet, &halves, &mut pos, window)?;
        let sent = writers[0].acked.len() + writers[1].acked.len();
        let cost = leader.wal_counters().since(before, sent as u64);
        acked.extend(writers[0].acked.iter().chain(&writers[1].acked));
        ingested = Some(Ingested {
            writers,
            window_s: window.counted_s(),
            cost,
            untraced_ack_p50,
        });
    }

    // Mixed phase, once a follower has caught up with the backlog.
    let order = merge_rest(&halves, pos);
    let mut order_pos = 0usize;
    let mut mixed = None;
    if m_s > 0.0 {
        let follower = Follower::deploy(&scratch.fresh("follower"), leader)?;
        let clock = WriterClock::starting_at(
            acked
                .iter()
                .max()
                .map_or(static_now, |&idx| fleet.updates[idx as usize].time),
            follower.catch_up.1,
        );
        let before = leader.wal_counters();
        let window = phase_window(m_s, epoch, traced);
        let (written, reads) = mixed_phase(
            leader,
            &follower,
            fleet,
            &order,
            &mut order_pos,
            window,
            &clock,
        )?;
        let cost = leader
            .wal_counters()
            .since(before, written.acked.len() as u64);
        let broken = breaks_containment(fleet, &reads.observed);
        if broken > 0 || reads.observed.is_empty() {
            findings.push(format!(
                "mixed phase: {broken} of {} follower answers break may ⊇ truth ⊇ must",
                reads.observed.len()
            ));
        }
        let catch_up = follower.catch_up;
        let records_shipped = follower.shutdown();
        acked.extend(&written.acked);
        mixed = Some(Mixed {
            written,
            reads,
            window_s: window.counted_s(),
            cost,
            catch_up,
            records_shipped,
        });
    }

    let scraped = traced.then(|| scrape(leader)).transpose()?;

    // Everything up to the cursor was applied and synced outside the
    // windows; the writers report what they had acknowledged.
    let mut last_acked = vec![u32::MAX; fleet.rides.len()];
    for (idx, u) in fleet.updates[..cursor].iter().enumerate() {
        last_acked[u.id as usize] = idx as u32;
    }
    for idx in acked {
        let slot = &mut last_acked[fleet.updates[idx as usize].id as usize];
        *slot = if *slot == u32::MAX {
            idx
        } else {
            idx.max(*slot)
        };
    }
    Ok(Traffic {
        queried,
        ingested,
        mixed,
        peel,
        scraped,
        last_acked,
        order,
        order_pos,
    })
}

/// Stops the leader; a truthful trace must have left its shards without
/// a rejection or a log error.
fn stop(leader: Leader, findings: &mut Vec<String>) -> DurableDatabase {
    let (durable, ingested) = leader.shutdown();
    if ingested.rejected() + ingested.wal_errors > 0 {
        findings.push(format!(
            "the trace is truthful, yet ingest reports: {ingested}"
        ));
    }
    durable
}

/// The crash: a tail of un-acked sends behind the last ack, then the
/// leader stopped. Returns its directory and where the acked log ended.
fn crash(
    w: &Workload,
    fleet: &Fleet,
    leader: Leader,
    traffic: &Traffic,
    findings: &mut Vec<String>,
) -> Result<(PathBuf, AckedTail), String> {
    let tail = AckedTail::mark(leader.durable.dir())?;
    let unacked = traffic
        .order
        .get(traffic.order_pos..traffic.order_pos + w.unacked_tail)
        .ok_or("update trace exhausted by the un-acked tail")?;
    let handle = leader.ingest.handle();
    for &idx in unacked {
        let u = &fleet.updates[idx as usize];
        handle
            .send(UpdateEnvelope {
                id: u.object(),
                msg: u.message(),
            })
            .map_err(|_| "ingest stopped before the crash")?;
    }
    drop(handle);
    let durable = stop(leader, findings);
    Ok((durable.dir().to_path_buf(), tail))
}

/// What the reopen phase found.
struct Reopened {
    /// `DurableDatabase::open` times, sorted.
    opens: Samples,
    /// Acked updates not readable, over all opens, of this many looked up.
    lost: u64,
    looked_up: u64,
    /// The last reopened database.
    last: DurableDatabase,
}

/// The reopen phase: `DurableDatabase::open` on a fresh crash image, at
/// least `min_opens` times and until `budget_s` has passed; every image
/// has a torn tail of its own, and every reopened state is checked for
/// lost acks.
fn reopen_phase(
    (dir, tail): &(PathBuf, AckedTail),
    fleet: &Fleet,
    last_acked: &[u32],
    scratch: &Scratch,
    seed: u64,
    min_opens: usize,
    budget_s: f64,
) -> Result<Reopened, String> {
    let mut opens = Samples::default();
    let mut lost = 0;
    let mut reopened = None;
    let started = Instant::now();
    while opens.len() < min_opens || started.elapsed().as_secs_f64() < budget_s {
        drop(reopened.take());
        let image = scratch.fresh("image");
        // Fibonacci hashing of (seed, open number) onto [0, 1).
        let torn = (seed ^ opens.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        crash_image(dir, &image, tail, torn as f64 / (1u64 << 53) as f64)?;
        let opening = Instant::now();
        let (db, _) = DurableDatabase::open(&image, WalOptions::default())
            .map_err(|e| format!("reopen: {e}"))?;
        opens.push(opening.elapsed().as_nanos() as u64);
        lost += acked_lost(&db, fleet, last_acked);
        reopened = Some(db);
    }
    let last = reopened.expect("opened at least once");
    let looked_up = (opens.len() * last_acked.len()) as u64;
    opens.sort();
    Ok(Reopened {
        opens,
        lost,
        looked_up,
        last,
    })
}

/// Collects metrics in declaration order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
            percentile: None,
        });
    }

    fn add_tail(&mut self, name: &'static str, samples: &Samples) {
        let (value, q) = samples.tail_us();
        self.0.push(Metric {
            name,
            value,
            unit: "us",
            samples: samples.len(),
            percentile: Some(q),
        });
    }
}

fn merged(a: &Series, b: &Series) -> Series {
    let mut all = a.clone();
    all.extend(b);
    all
}

/// Statements of every kind a reader was answered.
fn statements(r: &ReaderOutcome) -> Series {
    merged(&merged(&r.range, &r.position), &r.nearest)
}

/// What a vehicle, a dispatcher and a gateway wait for, and how much a
/// leader and a follower get through — of the phases that ran. Every rate
/// and median latency is the median over the slices of its window (see
/// [`Series`]); a tail is over its whole window and names its percentile.
///
/// `update_acks_per_s` and `query_stmts_per_s` are the workload's own
/// rates: on the mixed workload the batching writer's and the follower
/// reader's, elsewhere the ingest phase's and the query phase's.
///
/// On the sandbox this was built in these numbers differ by 10 to 40 %
/// between runs of the same code (see README.md), which no bound the
/// benchmark may set would survive: they are reported by every run that
/// takes them, but listed as per-layer metrics, unbounded.
fn timings(
    w: &Workload,
    t: &Traffic,
    reopened: Option<&Reopened>,
    tally: Tally,
    peak_mib: f64,
) -> Vec<Metric> {
    let mut m = Metrics::default();
    let own_mixed = t.mixed.as_ref().filter(|_| w.own == Phase::Mixed);
    if let Some(mixed) = own_mixed {
        let frames = &mixed.written.latency;
        m.add(
            "update_acks_per_s",
            rate_per_s(frames, mixed.window_s, BATCH_FRAME),
            "1/s",
            frames.len() * BATCH_FRAME,
        );
    }
    if let Some(i) = &t.ingested {
        let acks = merged(&i.writers[0].latency, &i.writers[1].latency);
        if own_mixed.is_none() {
            m.add(
                "update_acks_per_s",
                rate_per_s(&acks, i.window_s, 1),
                "1/s",
                acks.len(),
            );
        }
        m.add(
            "update_ack_p50_us",
            p50_us(&acks, i.window_s),
            "us",
            acks.len(),
        );
        m.add_tail("update_ack_p99_us", &acks.samples());
    }
    if let Some(mixed) = own_mixed {
        let all = statements(&mixed.reads);
        m.add(
            "query_stmts_per_s",
            rate_per_s(&all, mixed.window_s, 1),
            "1/s",
            all.len(),
        );
    }
    if let Some(q) = &t.queried {
        let all = statements(&q.answers);
        let (range, position) = (&q.answers.range, &q.answers.position);
        if own_mixed.is_none() {
            m.add(
                "query_stmts_per_s",
                rate_per_s(&all, q.window_s, 1),
                "1/s",
                all.len(),
            );
        }
        m.add(
            "range_query_p50_us",
            p50_us(range, q.window_s),
            "us",
            range.len(),
        );
        m.add_tail("range_query_p99_us", &range.samples());
        m.add(
            "position_query_p50_us",
            p50_us(position, q.window_s),
            "us",
            position.len(),
        );
    }
    if let Some(mixed) = &t.mixed {
        let range = &mixed.reads.range;
        m.add(
            "ryw_read_p50_us",
            p50_us(range, mixed.window_s),
            "us",
            range.len(),
        );
        m.add_tail("ryw_read_p99_us", &range.samples());
    }
    if let Some(r) = reopened {
        m.add("recover_s", r.opens.median_us() / 1e6, "s", r.opens.len());
    }
    m.add(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.attempted as usize,
    );
    if let Some(r) = reopened {
        m.add("acked_lost", r.lost as f64, "count", r.looked_up as usize);
    }
    m.add("peak_rss_mb", peak_mib, "MiB", 0);
    m.0
}

/// What the log cost per update of the workload's own write stretch: the
/// ingest window, the mixed window, or — where the workload's own phase
/// writes nothing — the load that built its log.
fn own_wal_cost(w: &Workload, t: &Traffic, load: WalCost) -> WalCost {
    match w.own {
        Phase::Ingest => t.ingested.as_ref().map(|i| i.cost),
        Phase::Mixed => t.mixed.as_ref().map(|m| m.cost),
        Phase::Query | Phase::Reopen => None,
    }
    .unwrap_or(load)
}

/// The bounded metrics: set-up time, what an update costs the operator's
/// disk, the memory, and the imprecision served. All but the first are
/// fixed by the seed (the memory nearly), so a bound on them holds.
fn end_to_end(
    cost: WalCost,
    bound_mi: f64,
    setup_times: &mut [f64],
    loaded_mib: f64,
    vehicles: usize,
) -> Vec<Metric> {
    let mut m = Metrics::default();
    m.add("setup_s", median_f64(setup_times), "s", setup_times.len());
    m.add(
        "wal_bytes_per_update",
        cost.bytes_per_update(),
        "B",
        cost.updates as usize,
    );
    m.add("loaded_rss_mb", loaded_mib, "MiB", 0);
    m.add("position_bound_mi", bound_mi, "mi", vehicles);
    m.0
}

/// The per-layer metrics of a traced run, after the rates and latencies
/// in `m`. `image` holds one more crash image.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    mut m: Metrics,
    w: &Workload,
    fleet: &Fleet,
    t: &Traffic,
    peel: &Peel,
    reopened: &Reopened,
    load: WalCost,
    image: &Path,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    const UPDATES: usize = peel::PEEL_UPDATES;
    const STMTS: usize = peel::PEEL_STATEMENTS;
    let missing = "a traced run takes every phase";
    let (queried, ingested, mixed, scraped) = (
        t.queried.as_ref().ok_or(missing)?,
        t.ingested.as_ref().ok_or(missing)?,
        t.mixed.as_ref().ok_or(missing)?,
        t.scraped.as_ref().ok_or(missing)?,
    );
    // The acked write path the workload is about: its group commit.
    let acked_cost = if w.own == Phase::Mixed {
        mixed.cost
    } else {
        ingested.cost
    };
    let mut visibility = mixed.written.visibility.clone();
    visibility.sort();
    let lag = &mixed.reads.lag_ms;
    let (update, read) = (&peel.update, &peel.read.range);
    let self_of = |tree: &Layer, name: &str| tree.find(name).map_or(0.0, Layer::self_us);
    let median_of = |tree: &Layer, name: &str| tree.find(name).map_or(0.0, |l| l.median_us);
    let depth = ingested.writers.iter().map(|o| o.queue_depth_max).max();
    let opens = &reopened.opens;

    // Layers only a reopened directory shows. The first recovery cuts
    // the image's torn tail off; all replay the same records.
    let mut recoveries = [0.0; SIDE_OPENS];
    let mut replayed = 1;
    for recover_s in &mut recoveries {
        let recovering = Instant::now();
        let recovered = recover(image).map_err(|e| format!("wal recover: {e}"))?;
        *recover_s = recovering.elapsed().as_secs_f64();
        replayed = recovered.report.replayed.max(1);
    }
    let recover_s = median_f64(&mut recoveries);
    let snapshotting = Instant::now();
    let snapshot = reopened
        .last
        .snapshot_with_retention(2)
        .map_err(|e| format!("snapshot: {e}"))?;
    let snapshot_s = snapshotting.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snapshot)
        .map_err(|e| e.to_string())?
        .len();

    m.add(
        "policy.msgs_per_object_hour",
        fleet.msgs_per_object_hour(w.fleet.minutes),
        "1/h",
        fleet.updates.len(),
    );
    m.add(
        "policy.decide_ns",
        fleet.policy_ns as f64 / fleet.policy_ticks as f64,
        "ns",
        fleet.policy_ticks as usize,
    );
    m.add(
        "net.update_self_us",
        self_of(update, "net.update"),
        "us",
        UPDATES,
    );
    m.add("net.query_self_us", self_of(read, "net.batch"), "us", STMTS);
    m.add(
        "ingest.self_us",
        self_of(update, "ingest.send_acked"),
        "us",
        UPDATES,
    );
    m.add(
        "ingest.queue_depth_max",
        depth.unwrap_or(0) as f64,
        "count",
        0,
    );
    m.add(
        "ingest.rejected",
        scraped.ingest.rejected() as f64,
        "count",
        0,
    );
    m.add(
        "wal.append_us_per_update",
        peel.wal_append_us_per_update,
        "us",
        UPDATES,
    );
    m.add(
        "wal.fsync_us",
        median_of(update, "wal.fsync"),
        "us",
        UPDATES,
    );
    m.add(
        "wal.fsyncs_per_update",
        acked_cost.fsyncs_per_update(),
        "ratio",
        acked_cost.updates as usize,
    );
    m.add(
        "wal.group_batch_mean",
        acked_cost.group_batch_mean(),
        "ratio",
        acked_cost.tickets as usize,
    );
    let own_cost = own_wal_cost(w, t, load);
    m.add(
        "wal.bytes_per_update",
        own_cost.bytes_per_update(),
        "B",
        own_cost.updates as usize,
    );
    m.add(
        "wal.decode_us_per_update",
        recover_s * 1e6 / replayed as f64,
        "us",
        replayed as usize,
    );
    m.add(
        "core.apply_self_us",
        self_of(update, "core.apply_update"),
        "us",
        UPDATES,
    );
    m.add(
        "core.refine_us_per_candidate",
        peel.read.refine_us_per_candidate,
        "us",
        STMTS,
    );
    m.add("core.may_share", peel.read.may_share, "ratio", STMTS);
    m.add(
        "index.upsert_us",
        median_of(update, "index.upsert"),
        "us",
        UPDATES,
    );
    m.add(
        "index.band_migrations",
        scraped.index_band_migrations as f64,
        "count",
        0,
    );
    m.add(
        "index.filter_us_per_query",
        median_of(read, "index.range_candidates"),
        "us",
        STMTS,
    );
    m.add(
        "index.nodes_per_query",
        peel.read.nodes_per_query,
        "count",
        STMTS,
    );
    let engine = &scraped.query;
    m.add(
        "index.candidates_per_match",
        engine.candidates as f64 / engine.matches.max(1) as f64,
        "ratio",
        engine.matches as usize,
    );
    m.add(
        "query.parse_us_per_stmt",
        peel.read.parse_us_per_stmt,
        "us",
        STMTS,
    );
    m.add(
        "query.exec_self_us",
        self_of(read, "query.execute"),
        "us",
        STMTS,
    );
    m.add(
        "query_engine.run_self_us",
        self_of(read, "query_engine.run_batch"),
        "us",
        STMTS,
    );
    let publishes = (engine.delta_publishes + engine.full_publishes).max(1);
    m.add(
        "query_engine.snapshot_age_ms",
        engine.snapshot_age.as_secs_f64() * 1e3,
        "ms",
        0,
    );
    m.add(
        "query_engine.publish_us",
        engine.publish_ns as f64 / 1e3 / publishes as f64,
        "us",
        publishes as usize,
    );
    m.add(
        "query_engine.full_publishes",
        engine.full_publishes as f64,
        "count",
        0,
    );
    m.add(
        "shadow.sync_us_per_change",
        peel.shadow_sync_us_per_change,
        "us",
        w.fleet.objects / 100,
    );
    m.add(
        "replication.visibility_lag_ms_p50",
        visibility.median_us() / 1e3,
        "ms",
        visibility.len(),
    );
    let (vis_tail, vis_q) = visibility.tail_us();
    m.0.push(Metric {
        name: "replication.visibility_lag_ms_p99",
        value: vis_tail / 1e3,
        unit: "ms",
        samples: visibility.len(),
        percentile: Some(vis_q),
    });
    m.add(
        "replication.catchup_updates_per_s",
        mixed.catch_up.1 as f64 / mixed.catch_up.0,
        "1/s",
        mixed.catch_up.1 as usize,
    );
    m.add(
        "replication.stale_refusals",
        mixed.reads.stale as f64,
        "count",
        0,
    );
    m.add(
        "replication.lag_clock_ms_mean",
        lag.iter().sum::<f64>() / lag.len().max(1) as f64,
        "ms",
        lag.len(),
    );
    m.add(
        "replication.records_shipped",
        mixed.records_shipped as f64,
        "count",
        0,
    );
    m.add("durable.snapshot_s", snapshot_s, "s", 1);
    m.add(
        "durable.snapshot_bytes_per_object",
        snapshot_bytes as f64 / w.fleet.objects as f64,
        "B",
        0,
    );
    m.add(
        "durable.open_self_s",
        opens.median_us() / 1e6 - recover_s,
        "s",
        opens.len(),
    );
    // The ledger's remainders: what the windows' medians hold beyond the
    // root of each peeled tree, and what recording spans cost.
    let acks = merged(&ingested.writers[0].latency, &ingested.writers[1].latency);
    let ack_p50 = p50_us(&acks, ingested.window_s);
    let range_p50 = p50_us(&queried.answers.range, queried.window_s);
    m.add(
        "update_unattributed_us",
        ack_p50 - update.median_us,
        "us",
        acks.len(),
    );
    m.add(
        "range_unattributed_us",
        range_p50 - read.median_us,
        "us",
        queried.answers.range.len(),
    );
    m.add(
        "trace_overhead_share",
        ack_p50 / ingested.untraced_ack_p50.unwrap_or(ack_p50) - 1.0,
        "ratio",
        acks.len(),
    );
    let mut ledger = ledger_rows("update_ack_p50_us", update, ack_p50);
    ledger.extend(ledger_rows("range_query_p50_us", read, range_p50));
    Ok((m.0, ledger))
}

/// The self time of every layer of a peeled tree, and what the window's
/// median holds beyond them.
fn ledger_rows(metric: &str, tree: &Layer, window_median_us: f64) -> Vec<String> {
    let mut rows = vec![format!("{metric} = {window_median_us:.1} us, of which")];
    for (name, self_us) in tree.self_times() {
        rows.push(format!("  {name:<26} {self_us:>9.1} us"));
    }
    let unattributed = window_median_us - tree.median_us;
    rows.push(format!(
        "  {:<26} {unattributed:>9.1} us",
        "unattributed_us"
    ));
    rows
}

/// One set-up: the fleet generated, the log built, the servers started.
struct SetUp {
    seconds: f64,
    /// Resident memory once the inputs existed and nothing was deployed:
    /// the driver shares the process with the system it drives, and this
    /// much is the driver's.
    inputs_mib: f64,
    /// What the loaded system, ready for traffic, added to that.
    loaded_mib: f64,
}

fn set_up(
    w: &Workload,
    seed: u64,
    scratch: &Scratch,
    serve: bool,
) -> Result<(Fleet, Leader, SetUp), String> {
    let started = Instant::now();
    let fleet = Fleet::generate(seed, w.fleet);
    let inputs_mib = resident_mib("VmRSS:");
    let leader = Leader::deploy(&scratch.fresh("leader"), &fleet, w.load, serve)?;
    let seconds = started.elapsed().as_secs_f64();
    Ok((
        fleet,
        leader,
        SetUp {
            seconds,
            inputs_mib,
            loaded_mib: resident_mib("VmRSS:") - inputs_mib,
        },
    ))
}

pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let scratch = Scratch::new().map_err(|e| format!("scratch root: {e}"))?;
    let mut findings = Vec::new();
    let phase_s = w.phase_seconds(seconds, traced);
    // Only the reopen workload's own run never opens a socket.
    let serve = traced || w.own != Phase::Reopen;

    let (fleet, leader, setup) = set_up(w, seed, &scratch, serve)?;
    let load_cost = leader.load_cost;
    let bound_mi = served_bound_mi(&leader, &fleet, w.load.until)?;

    let mut traffic = drive_traffic(w, &fleet, &leader, &scratch, phase_s, traced, &mut findings)?;
    let reopened = if phase_s[Phase::Reopen as usize] > 0.0 {
        let crashed = crash(w, &fleet, leader, &traffic, &mut findings)?;
        let reopened = reopen_phase(
            &crashed,
            &fleet,
            &traffic.last_acked,
            &scratch,
            seed,
            if w.own == Phase::Reopen {
                OWN_OPENS
            } else {
                SIDE_OPENS
            },
            phase_s[Phase::Reopen as usize],
        )?;
        if reopened.lost > 0 {
            findings.push(format!(
                "reopen phase: {} acked updates lost",
                reopened.lost
            ));
        }
        Some((reopened, crashed))
    } else {
        drop(stop(leader, &mut findings));
        None
    };
    let peak_mib = resident_mib("VmHWM:") - setup.inputs_mib;

    // Operations attempted and failed: every request of a counted window,
    // and every acked update looked up after a reopen.
    let mut tally = Tally::default();
    let outcomes = traffic
        .queried
        .iter()
        .map(|q| q.answers.tally)
        .chain(
            traffic
                .ingested
                .iter()
                .flat_map(|i| i.writers.iter().map(|o| o.tally)),
        )
        .chain(
            traffic
                .mixed
                .iter()
                .flat_map(|m| [m.written.tally, m.reads.tally]),
        );
    outcomes.for_each(|counted| tally.add(counted));
    if let Some((r, _)) = &reopened {
        tally.add(Tally {
            attempted: r.looked_up,
            failed: r.lost,
        });
    }

    let timed = timings(
        w,
        &traffic,
        reopened.as_ref().map(|(r, _)| r),
        tally,
        peak_mib,
    );
    let (metrics, timings, ledger) = match (traffic.peel.take(), &reopened) {
        (Some(peel), Some((reopened, crashed))) => {
            let image = scratch.fresh("image");
            crash_image(&crashed.0, &image, &crashed.1, 0.5)?;
            let (metrics, ledger) = per_layer(
                Metrics(timed),
                w,
                &fleet,
                &traffic,
                &peel,
                reopened,
                load_cost,
                &image,
            )?;
            (metrics, Vec::new(), ledger)
        }
        _ => {
            // Set-up again, only to time it: `setup_s` is the median.
            let mut setup_times = vec![setup.seconds];
            for _ in 1..SETUPS {
                let (_, leader, again) = set_up(w, seed, &scratch, serve)?;
                setup_times.push(again.seconds);
                let (durable, _) = leader.shutdown();
                let _ = std::fs::remove_dir_all(durable.dir());
            }
            let metrics = end_to_end(
                own_wal_cost(w, &traffic, load_cost),
                bound_mi,
                &mut setup_times,
                setup.loaded_mib,
                fleet.rides.len(),
            );
            (metrics, timed, Vec::new())
        }
    };
    drop(reopened);
    if let Some(m) = metrics
        .iter()
        .chain(&timings)
        .find(|m| !m.value.is_finite())
    {
        return Err(format!("metric {} is not a finite number", m.name));
    }

    let mut spans = Spans::default();
    let Traffic {
        queried,
        ingested,
        mixed,
        ..
    } = traffic;
    let mut readers: Vec<ReaderOutcome> = queried.map(|q| q.answers).into_iter().collect();
    let mut writers: Vec<WriterOutcome> = ingested.map_or(Vec::new(), |i| i.writers.into());
    if let Some(m) = mixed {
        writers.push(m.written);
        readers.push(m.reads);
    }
    for (recorded, error) in writers
        .into_iter()
        .map(|o| (o.spans, o.error))
        .chain(readers.into_iter().map(|o| (o.spans, o.error)))
    {
        spans.extend(recorded);
        findings.extend(error);
    }
    Ok(Report {
        correct: findings.is_empty(),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        timings,
        findings,
        ledger,
        spans,
    })
}
