//! The closed-loop clients. Each client thread owns one connection and
//! sends its next request only when the previous one has completed; a
//! request's latency is taken on the client thread around the call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::api::{
    BatchOutcome, ObjectId, QueryClient, QueryResult, RangeAnswer, ReplicaWatch, UpdateMessage,
};
use crate::deploy::INGEST_CAPACITY;
use crate::fleet::{Fleet, Stmt, StmtKind};
use crate::stats::{Samples, Series, Spans};

/// Updates per `UpdateBatch` frame of the batching writer.
pub const BATCH_FRAME: usize = 32;
/// A reader keeps every fourth `AT TIME` range answer for the checks, up
/// to this many.
pub const CHECK_SAMPLES: usize = 200;
const KEEP_EVERY: usize = 4;
/// Traced runs: the writer scrapes the queue depth every this many
/// requests, and times visibility on the follower every
/// `VISIBILITY_EVERY`-th ack.
const SCRAPE_EVERY: u64 = 256;
const VISIBILITY_EVERY: u64 = 16;
/// Traced runs: the reader scrapes the follower's lag clock this often.
const LAG_SCRAPE_EVERY: u64 = 64;

/// One phase on the wall clock: requests that start before `warm_end`
/// warm the system up and are not counted.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warm_end: Instant,
    pub end: Instant,
    /// Zero point of span timestamps.
    pub epoch: Instant,
    pub traced: bool,
}

impl Window {
    pub fn starting_now(warm: Duration, measure: Duration, epoch: Instant, traced: bool) -> Window {
        let now = Instant::now();
        Window {
            warm_end: now + warm,
            end: now + warm + measure,
            epoch,
            traced,
        }
    }

    /// Length of the counted part in seconds.
    pub fn counted_s(&self) -> f64 {
        (self.end - self.warm_end).as_secs_f64()
    }

    /// Nanoseconds from the end of the warm-up to `done`.
    fn offset_ns(&self, done: Instant) -> u64 {
        done.saturating_duration_since(self.warm_end).as_nanos() as u64
    }
}

/// Operations attempted and failed in the counted part of a phase. A
/// rejected or refused update, a `Stale` read, an error verdict and a
/// transport error are all failures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub struct WriterOutcome {
    /// Ack latency per request (one update, or one frame of 32).
    pub latency: Series,
    pub tally: Tally,
    /// Trace indices of every update acked, warm-up included.
    pub acked: Vec<u32>,
    pub queue_depth_max: u64,
    /// Traced mixed phase: how long after an ack the follower had
    /// applied it.
    pub visibility: Samples,
    pub spans: Spans,
    pub error: Option<String>,
}

impl WriterOutcome {
    fn new() -> Self {
        WriterOutcome {
            latency: Series::with_capacity(1 << 16),
            tally: Tally::default(),
            acked: Vec::with_capacity(1 << 16),
            queue_depth_max: 0,
            visibility: Samples::default(),
            spans: Spans::default(),
            error: None,
        }
    }
}

/// What the batching writer tells the reader: the simulated time of the
/// last acked update, the read-your-writes token its ack carried, and the
/// simulated time of the newest update it has put on the wire.
#[derive(Debug, Default)]
pub struct WriterClock {
    token: AtomicU64,
    time_bits: AtomicU64,
    sent_bits: AtomicU64,
}

impl WriterClock {
    pub fn starting_at(time: f64, token: u64) -> Self {
        WriterClock {
            token: AtomicU64::new(token),
            time_bits: AtomicU64::new(time.to_bits()),
            sent_bits: AtomicU64::new(time.to_bits()),
        }
    }

    /// Called before a frame goes out: the servers may apply it any time
    /// from now, well before its ack advances the clock.
    fn sending(&self, newest: f64) {
        self.sent_bits.store(newest.to_bits(), Ordering::SeqCst);
    }

    /// No update newer than this can have reached a server yet.
    pub fn sent(&self) -> f64 {
        f64::from_bits(self.sent_bits.load(Ordering::SeqCst))
    }

    // The token is stored before and loaded after the time it belongs
    // to, so a reader's token always covers the time it read.
    fn advance(&self, time: f64, token: u64) {
        self.token.store(token, Ordering::SeqCst);
        self.time_bits.store(time.to_bits(), Ordering::SeqCst);
    }

    pub fn time(&self) -> f64 {
        f64::from_bits(self.time_bits.load(Ordering::SeqCst))
    }

    pub fn token(&self) -> u64 {
        self.token.load(Ordering::SeqCst)
    }
}

/// Sends `order[*pos..]` one `Update` frame at a time until the window
/// ends. Running out of trace is an error.
pub fn write_single(
    client: &mut QueryClient,
    fleet: &Fleet,
    order: &[u32],
    pos: &mut usize,
    window: Window,
) -> WriterOutcome {
    let mut out = WriterOutcome::new();
    let mut requests = 0u64;
    loop {
        let started = Instant::now();
        if started >= window.end {
            break;
        }
        let Some(&idx) = order.get(*pos) else {
            out.error = Some("update trace exhausted in the ingest phase".into());
            break;
        };
        *pos += 1;
        let update = &fleet.updates[idx as usize];
        let verdict = client.update(update.object(), &update.message());
        let counted = started >= window.warm_end;
        let accepted = matches!(&verdict, Ok(v) if v.is_accepted());
        if counted {
            let done = Instant::now();
            out.latency
                .push(window.offset_ns(done), (done - started).as_nanos() as u64);
            out.tally.attempted += 1;
            out.tally.failed += u64::from(!accepted);
            if window.traced {
                out.spans
                    .record("net.update", window.epoch, started, idx.into(), None);
            }
        }
        match verdict {
            Ok(_) if accepted => out.acked.push(idx),
            Ok(v) => out.error = Some(format!("truthful update not accepted: {v:?}")),
            Err(e) => {
                out.error = Some(format!("update transport: {e}"));
                break;
            }
        }
        requests += 1;
        if window.traced && requests.is_multiple_of(SCRAPE_EVERY) {
            // The gauge is a difference of racing counters and can read
            // just below zero, that is near 2^64; a depth the queues
            // cannot hold is not a depth.
            match client.stats() {
                Ok(stats) if stats.ingest_queue_depth <= INGEST_CAPACITY => {
                    out.queue_depth_max = out.queue_depth_max.max(stats.ingest_queue_depth);
                }
                _ => {}
            }
        }
    }
    out
}

/// Sends `order[*pos..]` in `UpdateBatch` frames of [`BATCH_FRAME`] and
/// publishes its clock after every ack. When `watch` is given (traced
/// runs) it times how long the follower takes to apply every 16th ack.
pub fn write_batches(
    client: &mut QueryClient,
    fleet: &Fleet,
    order: &[u32],
    pos: &mut usize,
    window: Window,
    clock: &WriterClock,
    watch: Option<&ReplicaWatch>,
) -> WriterOutcome {
    let mut out = WriterOutcome::new();
    let mut frame: Vec<(ObjectId, UpdateMessage)> = Vec::with_capacity(BATCH_FRAME);
    let mut requests = 0u64;
    loop {
        let started = Instant::now();
        if started >= window.end {
            break;
        }
        let Some(indices) = order.get(*pos..*pos + BATCH_FRAME) else {
            out.error = Some("update trace exhausted in the mixed phase".into());
            break;
        };
        *pos += BATCH_FRAME;
        frame.clear();
        frame.extend(indices.iter().map(|&i| {
            let u = &fleet.updates[i as usize];
            (u.object(), u.message())
        }));
        let last = &fleet.updates[indices[BATCH_FRAME - 1] as usize];
        clock.sending(last.time);
        let verdicts = client.update_batch(&frame);
        let counted = started >= window.warm_end;
        let accepted = match &verdicts {
            Ok(vs) => vs.iter().filter(|v| v.is_accepted()).count(),
            Err(_) => 0,
        };
        if counted {
            let done = Instant::now();
            out.latency
                .push(window.offset_ns(done), (done - started).as_nanos() as u64);
            out.tally.attempted += BATCH_FRAME as u64;
            out.tally.failed += (BATCH_FRAME - accepted) as u64;
        }
        let span = (counted && window.traced).then(|| {
            out.spans
                .record("net.update_batch", window.epoch, started, requests, None)
        });
        match verdicts {
            Ok(_) if accepted == BATCH_FRAME => out.acked.extend_from_slice(indices),
            Ok(vs) => out.error = Some(format!("truthful updates not accepted: {vs:?}")),
            Err(e) => {
                out.error = Some(format!("update_batch transport: {e}"));
                break;
            }
        }
        clock.advance(last.time, client.token());
        requests += 1;
        if let Some(watch) = watch {
            if requests.is_multiple_of(VISIBILITY_EVERY) {
                let waiting = Instant::now();
                watch.wait_for_lsn(client.token(), Duration::from_secs(2));
                out.visibility.push(waiting.elapsed().as_nanos() as u64);
                if let Some(parent) = span {
                    out.spans.record(
                        "replication.wait_for_lsn",
                        window.epoch,
                        waiting,
                        requests,
                        Some(parent),
                    );
                }
            }
        }
    }
    out
}

/// One answer kept for the checks.
pub struct Observed {
    pub stmt: usize,
    /// The client's clock when the statement was rendered.
    pub now: f64,
    /// The newest update the writer had sent when the answer had arrived:
    /// the server cannot have answered from anything newer.
    pub sent_after: f64,
    pub answer: RangeAnswer,
}

pub struct ReaderOutcome {
    pub range: Series,
    pub position: Series,
    pub nearest: Series,
    pub tally: Tally,
    pub stale: u64,
    pub observed: Vec<Observed>,
    /// Follower lag clock, sampled in traced runs (milliseconds).
    pub lag_ms: Vec<f64>,
    pub spans: Spans,
    pub error: Option<String>,
}

/// Which statements of the script a reader sends.
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    pub first: usize,
    pub stride: usize,
    /// Leave the k-nearest statements out (the follower's reader does:
    /// each costs as much as dozens of range statements, and the read
    /// metric of the mixed phase is taken on range statements).
    pub skip_nearest: bool,
}

/// Sends the statements the walk selects, one per `Batch` frame, each
/// floored at the clock's token, until the window ends.
pub fn read_statements(
    client: &mut QueryClient,
    script: &[Stmt],
    walk: Walk,
    window: Window,
    clock: &WriterClock,
    scrape_lag: bool,
) -> ReaderOutcome {
    let mut out = ReaderOutcome {
        range: Series::with_capacity(1 << 16),
        position: Series::with_capacity(1 << 14),
        nearest: Series::with_capacity(1 << 14),
        tally: Tally::default(),
        stale: 0,
        observed: Vec::new(),
        lag_ms: Vec::new(),
        spans: Spans::default(),
        error: None,
    };
    let mut next = walk.first;
    let mut ranges_seen = 0usize;
    let mut requests = 0u64;
    loop {
        let Some(stmt) = script.get(next) else {
            out.error = Some("query script exhausted".into());
            break;
        };
        if walk.skip_nearest && stmt.kind == StmtKind::Nearest {
            next += walk.stride;
            continue;
        }
        let now = clock.time();
        let token = clock.token();
        let (text, _) = stmt.render(now);
        let started = Instant::now();
        if started >= window.end {
            break;
        }
        let outcome = client.batch_attempt(&text, token);
        let done = Instant::now();
        let elapsed = (done - started).as_nanos() as u64;
        let counted = started >= window.warm_end;
        let answer = match outcome {
            Ok(BatchOutcome::Done(mut verdicts)) if verdicts.len() == 1 => verdicts.pop(),
            Ok(BatchOutcome::Done(_)) => Some(Err("one statement, several verdicts".to_string())),
            Ok(BatchOutcome::Stale { .. }) => {
                out.stale += u64::from(counted);
                None
            }
            Err(e) => {
                out.error = Some(format!("batch transport: {e}"));
                break;
            }
        };
        if counted {
            out.tally.attempted += 1;
            out.tally.failed += u64::from(!matches!(answer, Some(Ok(_))));
            let (samples, name) = match stmt.kind {
                StmtKind::Range => (&mut out.range, "net.batch.range"),
                StmtKind::Position => (&mut out.position, "net.batch.position"),
                StmtKind::Nearest => (&mut out.nearest, "net.batch.nearest"),
            };
            samples.push(window.offset_ns(done), elapsed);
            if window.traced {
                out.spans
                    .record(name, window.epoch, started, next as u64, None);
            }
            if let Some(Err(e)) = &answer {
                out.error = Some(format!("statement failed: {text}: {e}"));
            }
            if let Some(Ok(QueryResult::Range(range))) = answer {
                if stmt.during.is_none() {
                    if ranges_seen.is_multiple_of(KEEP_EVERY) && out.observed.len() < CHECK_SAMPLES
                    {
                        out.observed.push(Observed {
                            stmt: next,
                            now,
                            sent_after: clock.sent(),
                            answer: range,
                        });
                    }
                    ranges_seen += 1;
                }
            }
        }
        next += walk.stride;
        requests += 1;
        if scrape_lag && requests.is_multiple_of(LAG_SCRAPE_EVERY) {
            if let Ok(stats) = client.stats() {
                let lag = stats.replica_lag.unwrap_or_default();
                out.lag_ms.push(lag.as_secs_f64() * 1e3);
            }
        }
    }
    out
}
