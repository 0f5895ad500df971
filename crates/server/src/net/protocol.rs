//! The query front-end wire protocol.
//!
//! Messages travel in the CRC frames of [`crate::framed`] — the same
//! framing discipline as the WAL and the replication stream; the payload
//! is a tag byte followed by the message body.
//!
//! Messages:
//!
//! | tag | message        | direction       | body                               |
//! |-----|----------------|-----------------|------------------------------------|
//! | 1   | `Hello`        | client → server | `version u32`                      |
//! | 2   | `Batch`        | client → server | `script string, min_lsn u64`       |
//! | 3   | `StatsRequest` | client → server | —                                  |
//! | 4   | `HelloAck`     | server → client | `version u32`                      |
//! | 5   | `Statement`    | server → client | `index u32, verdict`               |
//! | 6   | `BatchDone`    | server → client | `count u32`                        |
//! | 7   | `StatsReply`   | server → client | [`ServerStatsSnapshot`]            |
//! | 8   | `Refused`      | server → client | `reason string`                    |
//! | 9   | `Update`       | client → server | `id u64, msg UpdateMessage`        |
//! | 10  | `UpdateBatch`  | client → server | `count u32, (id, msg)*`            |
//! | 11  | `UpdateAck`    | server → client | `lsn u64, count u32, verdict*`     |
//! | 12  | `Stale`        | server → client | `applied u64, required u64`        |
//!
//! A `Batch` is answered by one `Statement` per `;`-separated statement
//! (in script order) followed by a `BatchDone` carrying the count, so a
//! client can stream results without knowing the statement count up
//! front. Query results are encoded structurally (the full
//! [`QueryResult`] tree — positions, bounds, uncertainty intervals,
//! may/must sets, neighbour rankings); query *errors* travel as their
//! display strings, which keeps every `modb-query` error representable
//! without the server and client sharing an error-enum encoding.
//!
//! **Remote ingest (v2).** `Update` / `UpdateBatch` push position
//! updates through the server's ingest shards (per-object FIFO, WAL
//! logging, the works — the same path local producers use). The
//! `UpdateAck` carries one [`RemoteUpdateVerdict`] per envelope plus the
//! WAL frontier observed after the batch flushed: a **read-your-writes
//! token**. A later `Batch` carrying that token as `min_lsn` is
//! guaranteed to run against a snapshot covering every acknowledged
//! update (`min_lsn = 0` asks for no such floor). Envelopes with
//! non-finite time/coordinates/speed are refused at this boundary with
//! [`RemoteUpdateVerdict::Invalid`] — never applied, never logged — so a
//! malicious or broken client cannot poison a shard's WAL with values
//! the local path would reject only after logging.

use std::fmt::Write as _;
use std::time::Duration;

use modb_core::{
    NearestAnswer, Neighbour, ObjectId, PositionAnswer, RangeAnswer, UpdateMessage, MAX_BANDS,
};
use modb_geom::Point;
use modb_index::SearchStats;
use modb_query::QueryResult;
use modb_wal::codec::{put_f64, put_string, put_u32, put_u64};
use modb_wal::{ByteReader, WalCodec, WalError};

use crate::framed::WireMessage;
use crate::ingest::IngestStatsSnapshot;
use crate::query_engine::QueryStatsSnapshot;

/// Protocol version spoken by this build; a mismatched `Hello` is
/// refused. v2 added remote ingest (`Update`/`UpdateBatch`/`UpdateAck`),
/// the `min_lsn` read-your-writes floor on `Batch`, and the shard label
/// in the stats frame. v3 widened the stats frame with the group-commit
/// counters (tickets, commits, last batch size). v4 added the speed-band
/// index gauges (per-band entry counts plus the migration counter). v5
/// added follower-served reads: the typed `Stale` answer to a `Batch`
/// whose `min_lsn` token outruns a follower's applied watermark, plus
/// the replica watermark/lag gauges in the stats frame.
pub(crate) const NET_PROTOCOL_VERSION: u32 = 5;

/// Default ceiling on one message's payload. Query scripts and result
/// sets are small next to replication snapshots, so the front-end default
/// is far below the replication stream's 64 MiB.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 4 * 1024 * 1024;

/// The outcome of one remote statement: the structural result, or the
/// server-side error rendered to its display string.
pub type RemoteVerdict = Result<QueryResult, String>;

/// The outcome of one remote update envelope, per the ingest contract:
/// DBMS rejections are *applied-and-logged* outcomes (stale timestamps
/// and off-route fixes are radio-network business as usual), while a
/// protocol-boundary refusal never touched the database or the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteUpdateVerdict {
    /// Applied and logged.
    Accepted,
    /// Rejected by the DBMS (stale, off-route, unknown object, …) —
    /// still logged, like the local ingest path. Carries the display
    /// string of the [`modb_core::CoreError`].
    Rejected(String),
    /// Refused at the protocol boundary (non-finite time, coordinates,
    /// or speed; or no ingest service attached): not applied, not
    /// logged.
    Invalid(String),
}

impl RemoteUpdateVerdict {
    /// `true` for [`RemoteUpdateVerdict::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, RemoteUpdateVerdict::Accepted)
    }
}

/// Everything a monitoring scrape wants from a serving node, gathered in
/// one frame so the numbers are from (nearly) the same instant: query
/// engine counters and latency percentiles, ingest accept/reject
/// counters, WAL I/O totals, the ingest queue depth, and the replication
/// ship horizon. [`ServerStatsSnapshot::prometheus_text`] renders the
/// standard text exposition for scrapers that speak it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Query engine counters (epoch, totals, p50/p99 latency).
    pub query: QueryStatsSnapshot,
    /// Ingest accept/reject counters (zeroed when no ingest service is
    /// attached to the server).
    pub ingest: IngestStatsSnapshot,
    /// Bytes written to the log since open (encoded frames, after delta
    /// coding and compression; segment headers excluded).
    pub wal_bytes_written: u64,
    /// `fsync` calls issued by the WAL writer since open.
    pub wal_fsyncs: u64,
    /// Group-commit tickets enqueued (acked updates that waited for a
    /// shared fsync); 0 when no group committer is running.
    pub wal_group_tickets: u64,
    /// Fsyncs the group committer issued; `tickets / commits` is the
    /// mean collapse factor.
    pub wal_group_commits: u64,
    /// Tickets satisfied by the most recent group fsync (> 1 means
    /// collapsing is happening right now).
    pub wal_group_last_batch: u64,
    /// The log frontier (next LSN to be written).
    pub wal_next_lsn: u64,
    /// Update envelopes enqueued but not yet applied across all ingest
    /// shards (0 when no ingest service is attached).
    pub ingest_queue_depth: u64,
    /// Replication followers currently registered on the ship horizon.
    pub followers: u64,
    /// Lowest acknowledged LSN across followers (the compaction barrier),
    /// when any are connected.
    pub min_acked_lsn: Option<u64>,
    /// This node's shard number in a cluster, when it has one
    /// ([`crate::QueryServerConfig::shard`]); rendered as a
    /// `shard="N"` label on every Prometheus sample so a scraped
    /// cluster's series stay distinguishable.
    pub shard: Option<u64>,
    /// Speed bands configured on the time-space index (≥ 1; 1 = the
    /// un-partitioned single-tree layout). Only the first `index_bands`
    /// slots of `index_band_entries` are meaningful.
    pub index_bands: u64,
    /// Objects indexed per speed band, slowest band first — rendered as
    /// `modb_index_band_entries{band="N"}`.
    pub index_band_entries: [u64; MAX_BANDS],
    /// Upserts/syncs that moved an object between bands since the
    /// database was created (city↔highway regime changes).
    pub index_band_migrations: u64,
    /// Applied-LSN watermark when the serving node is a standby replica
    /// (`None` on a leader) — rendered as `modb_replica_applied_lsn`.
    pub replica_applied_lsn: Option<u64>,
    /// How long the serving replica has continuously trailed its
    /// upstream's frontier (`None` on a leader, zero when caught up) —
    /// the `Δ` of the `2·v_max·Δ` staleness widening, rendered as
    /// `modb_replica_lag_seconds`.
    pub replica_lag: Option<Duration>,
}

impl ServerStatsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` lines plus one sample per metric). Gauges and counters
    /// are labelled as such; `modb_replication_min_acked_lsn` is omitted
    /// when no follower is connected rather than inventing a sentinel.
    /// A cluster node (`shard` set) gets a `shard="N"` label on every
    /// sample.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let labels = match self.shard {
            Some(n) => format!("{{shard=\"{n}\"}}"),
            None => String::new(),
        };
        let mut metric = |name: &str, kind: &str, value: u64| {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name}{labels} {value}");
        };
        metric("modb_query_epoch", "gauge", self.query.epoch);
        metric("modb_queries_total", "counter", self.query.queries);
        metric(
            "modb_query_epoch_queries",
            "gauge",
            self.query.epoch_queries,
        );
        metric("modb_query_errors_total", "counter", self.query.errors);
        metric(
            "modb_query_candidates_total",
            "counter",
            self.query.candidates,
        );
        metric("modb_query_matches_total", "counter", self.query.matches);
        metric(
            "modb_query_parallel_refines_total",
            "counter",
            self.query.parallel_refines,
        );
        metric("modb_query_batches_total", "counter", self.query.batches);
        metric(
            "modb_query_delta_publishes_total",
            "counter",
            self.query.delta_publishes,
        );
        metric(
            "modb_query_full_publishes_total",
            "counter",
            self.query.full_publishes,
        );
        metric(
            "modb_query_publish_nanoseconds_total",
            "counter",
            self.query.publish_ns,
        );
        metric("modb_query_p50_microseconds", "gauge", self.query.p50_us);
        metric("modb_query_p99_microseconds", "gauge", self.query.p99_us);
        metric(
            "modb_query_snapshot_age_microseconds",
            "gauge",
            self.query.snapshot_age.as_micros() as u64,
        );
        metric(
            "modb_ingest_accepted_total",
            "counter",
            self.ingest.accepted as u64,
        );
        metric(
            "modb_ingest_stale_total",
            "counter",
            self.ingest.stale as u64,
        );
        metric(
            "modb_ingest_off_route_total",
            "counter",
            self.ingest.off_route as u64,
        );
        metric(
            "modb_ingest_unknown_object_total",
            "counter",
            self.ingest.unknown_object as u64,
        );
        metric(
            "modb_ingest_other_rejected_total",
            "counter",
            self.ingest.other_rejected as u64,
        );
        metric(
            "modb_ingest_wal_errors_total",
            "counter",
            self.ingest.wal_errors as u64,
        );
        metric("modb_ingest_queue_depth", "gauge", self.ingest_queue_depth);
        metric(
            "modb_wal_bytes_written_total",
            "counter",
            self.wal_bytes_written,
        );
        metric("modb_wal_fsyncs_total", "counter", self.wal_fsyncs);
        metric(
            "modb_wal_group_commit_tickets_total",
            "counter",
            self.wal_group_tickets,
        );
        metric(
            "modb_wal_group_commits_total",
            "counter",
            self.wal_group_commits,
        );
        metric(
            "modb_wal_group_commit_batch_size",
            "gauge",
            self.wal_group_last_batch,
        );
        metric("modb_wal_next_lsn", "gauge", self.wal_next_lsn);
        metric("modb_replication_followers", "gauge", self.followers);
        if let Some(lsn) = self.min_acked_lsn {
            metric("modb_replication_min_acked_lsn", "gauge", lsn);
        }
        metric(
            "modb_index_band_migrations_total",
            "counter",
            self.index_band_migrations,
        );
        if let Some(lsn) = self.replica_applied_lsn {
            metric("modb_replica_applied_lsn", "gauge", lsn);
        }
        // The lag gauge is fractional seconds, so it bypasses the u64
        // `metric` closure; like the other replica gauges it is omitted
        // entirely on a leader.
        if let Some(lag) = self.replica_lag {
            let _ = writeln!(out, "# TYPE modb_replica_lag_seconds gauge");
            let _ = writeln!(
                out,
                "modb_replica_lag_seconds{labels} {:.6}",
                lag.as_secs_f64()
            );
        }
        // Per-band entry gauges carry their own `band` label, merged
        // with the shard label when the node has one.
        let _ = writeln!(out, "# TYPE modb_index_band_entries gauge");
        for band in 0..(self.index_bands as usize).min(MAX_BANDS) {
            let sample = match self.shard {
                Some(n) => format!(
                    "modb_index_band_entries{{shard=\"{n}\",band=\"{band}\"}} {}",
                    self.index_band_entries[band]
                ),
                None => format!(
                    "modb_index_band_entries{{band=\"{band}\"}} {}",
                    self.index_band_entries[band]
                ),
            };
            let _ = writeln!(out, "{sample}");
        }
        out
    }
}

/// One protocol message (see the module table).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Message {
    /// Client's opening line.
    Hello { version: u32 },
    /// A `;`-separated query script to run as one batch. `min_lsn` is
    /// the read-your-writes floor: the batch must run against a
    /// snapshot covering at least this WAL frontier (0 = no floor).
    Batch { script: String, min_lsn: u64 },
    /// Ask for a [`ServerStatsSnapshot`].
    StatsRequest,
    /// Handshake accepted.
    HelloAck { version: u32 },
    /// One statement's verdict, in script order.
    Statement { index: u32, verdict: RemoteVerdict },
    /// End of a batch's statement stream.
    BatchDone { count: u32 },
    /// The stats scrape.
    StatsReply(Box<ServerStatsSnapshot>),
    /// The server declined (version mismatch, at connection capacity);
    /// the connection closes after this.
    Refused { reason: String },
    /// One position update for the ingest path.
    Update { id: ObjectId, msg: UpdateMessage },
    /// Several position updates in one frame (amortized framing, one
    /// ack).
    UpdateBatch {
        updates: Vec<(ObjectId, UpdateMessage)>,
    },
    /// Reply to `Update`/`UpdateBatch`: one verdict per envelope in
    /// frame order, plus the WAL frontier after the flush — the
    /// read-your-writes token (0 when the serving node has no WAL).
    UpdateAck {
        lsn: u64,
        verdicts: Vec<RemoteUpdateVerdict>,
    },
    /// A follower's typed refusal of a `Batch` whose read-your-writes
    /// floor outran its applied watermark past the wait deadline:
    /// `applied` is the watermark at refusal time, `required` echoes the
    /// floor. The session stays open — the client may retry here or
    /// route the batch to a fresher follower.
    Stale { applied: u64, required: u64 },
}

fn put_point(out: &mut Vec<u8>, p: &Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

fn read_point(r: &mut ByteReader<'_>) -> Result<Point, WalError> {
    Ok(Point::new(r.f64()?, r.f64()?))
}

fn put_ids(out: &mut Vec<u8>, ids: &[ObjectId]) {
    put_u32(out, ids.len() as u32);
    for id in ids {
        put_u64(out, id.0);
    }
}

fn read_ids(r: &mut ByteReader<'_>) -> Result<Vec<ObjectId>, WalError> {
    let n = r.u32()? as usize;
    let mut ids = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ids.push(ObjectId(r.u64()?));
    }
    Ok(ids)
}

fn put_neighbours(out: &mut Vec<u8>, ns: &[Neighbour]) {
    put_u32(out, ns.len() as u32);
    for n in ns {
        put_u64(out, n.id.0);
        put_f64(out, n.distance);
        put_f64(out, n.bound);
        out.push(u8::from(n.certain));
    }
}

fn read_neighbours(r: &mut ByteReader<'_>) -> Result<Vec<Neighbour>, WalError> {
    let n = r.u32()? as usize;
    let mut ns = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ns.push(Neighbour {
            id: ObjectId(r.u64()?),
            distance: r.f64()?,
            bound: r.f64()?,
            certain: r.u8()? != 0,
        });
    }
    Ok(ns)
}

fn put_query_result(out: &mut Vec<u8>, result: &QueryResult) {
    match result {
        QueryResult::Position(p) => {
            out.push(1);
            put_point(out, &p.position);
            put_f64(out, p.arc);
            put_f64(out, p.bound);
            put_f64(out, p.interval.0);
            put_f64(out, p.interval.1);
            put_u32(out, p.interval_path.len() as u32);
            for pt in &p.interval_path {
                put_point(out, pt);
            }
        }
        QueryResult::Range(a) => {
            out.push(2);
            put_ids(out, &a.must);
            put_ids(out, &a.may);
            put_u64(out, a.candidates as u64);
            put_u64(out, a.stats.nodes_visited as u64);
            put_u64(out, a.stats.entries_tested as u64);
            put_u64(out, a.stats.matches as u64);
        }
        QueryResult::Nearest(a) => {
            out.push(3);
            put_neighbours(out, &a.ranked);
            put_neighbours(out, &a.contenders);
        }
    }
}

fn read_query_result(r: &mut ByteReader<'_>) -> Result<QueryResult, WalError> {
    Ok(match r.u8()? {
        1 => {
            let position = read_point(r)?;
            let arc = r.f64()?;
            let bound = r.f64()?;
            let interval = (r.f64()?, r.f64()?);
            let n = r.u32()? as usize;
            let mut interval_path = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                interval_path.push(read_point(r)?);
            }
            QueryResult::Position(PositionAnswer {
                position,
                arc,
                bound,
                interval,
                interval_path,
            })
        }
        2 => {
            let must = read_ids(r)?;
            let may = read_ids(r)?;
            let candidates = r.u64()? as usize;
            let stats = SearchStats {
                nodes_visited: r.u64()? as usize,
                entries_tested: r.u64()? as usize,
                matches: r.u64()? as usize,
            };
            QueryResult::Range(RangeAnswer {
                must,
                may,
                candidates,
                stats,
            })
        }
        3 => {
            let ranked = read_neighbours(r)?;
            let contenders = read_neighbours(r)?;
            QueryResult::Nearest(NearestAnswer { ranked, contenders })
        }
        _ => return Err(WalError::Decode("unknown query result kind")),
    })
}

fn put_update_verdict(out: &mut Vec<u8>, v: &RemoteUpdateVerdict) {
    match v {
        RemoteUpdateVerdict::Accepted => out.push(0),
        RemoteUpdateVerdict::Rejected(msg) => {
            out.push(1);
            put_string(out, msg);
        }
        RemoteUpdateVerdict::Invalid(msg) => {
            out.push(2);
            put_string(out, msg);
        }
    }
}

fn read_update_verdict(r: &mut ByteReader<'_>) -> Result<RemoteUpdateVerdict, WalError> {
    Ok(match r.u8()? {
        0 => RemoteUpdateVerdict::Accepted,
        1 => RemoteUpdateVerdict::Rejected(r.string()?),
        2 => RemoteUpdateVerdict::Invalid(r.string()?),
        _ => return Err(WalError::Decode("unknown update verdict tag")),
    })
}

fn put_stats(out: &mut Vec<u8>, s: &ServerStatsSnapshot) {
    put_u64(out, s.query.epoch);
    put_u64(out, s.query.queries);
    put_u64(out, s.query.epoch_queries);
    put_u64(out, s.query.errors);
    put_u64(out, s.query.candidates);
    put_u64(out, s.query.matches);
    put_u64(out, s.query.parallel_refines);
    put_u64(out, s.query.batches);
    put_u64(out, s.query.delta_publishes);
    put_u64(out, s.query.full_publishes);
    put_u64(out, s.query.publish_ns);
    put_u64(out, s.query.p50_us);
    put_u64(out, s.query.p99_us);
    put_u64(out, s.query.snapshot_age.as_nanos() as u64);
    put_u64(out, s.ingest.accepted as u64);
    put_u64(out, s.ingest.stale as u64);
    put_u64(out, s.ingest.off_route as u64);
    put_u64(out, s.ingest.unknown_object as u64);
    put_u64(out, s.ingest.other_rejected as u64);
    put_u64(out, s.ingest.wal_errors as u64);
    put_u64(out, s.wal_bytes_written);
    put_u64(out, s.wal_fsyncs);
    put_u64(out, s.wal_group_tickets);
    put_u64(out, s.wal_group_commits);
    put_u64(out, s.wal_group_last_batch);
    put_u64(out, s.wal_next_lsn);
    put_u64(out, s.ingest_queue_depth);
    put_u64(out, s.followers);
    match s.min_acked_lsn {
        Some(lsn) => {
            out.push(1);
            put_u64(out, lsn);
        }
        None => out.push(0),
    }
    match s.shard {
        Some(n) => {
            out.push(1);
            put_u64(out, n);
        }
        None => out.push(0),
    }
    let bands = (s.index_bands as usize).min(MAX_BANDS);
    put_u64(out, bands as u64);
    for entries in &s.index_band_entries[..bands] {
        put_u64(out, *entries);
    }
    put_u64(out, s.index_band_migrations);
    match s.replica_applied_lsn {
        Some(lsn) => {
            out.push(1);
            put_u64(out, lsn);
        }
        None => out.push(0),
    }
    match s.replica_lag {
        Some(lag) => {
            out.push(1);
            put_u64(out, lag.as_nanos() as u64);
        }
        None => out.push(0),
    }
}

fn read_stats(r: &mut ByteReader<'_>) -> Result<ServerStatsSnapshot, WalError> {
    let query = QueryStatsSnapshot {
        epoch: r.u64()?,
        queries: r.u64()?,
        epoch_queries: r.u64()?,
        errors: r.u64()?,
        candidates: r.u64()?,
        matches: r.u64()?,
        parallel_refines: r.u64()?,
        batches: r.u64()?,
        delta_publishes: r.u64()?,
        full_publishes: r.u64()?,
        publish_ns: r.u64()?,
        p50_us: r.u64()?,
        p99_us: r.u64()?,
        snapshot_age: Duration::from_nanos(r.u64()?),
    };
    let ingest = IngestStatsSnapshot {
        accepted: r.u64()? as usize,
        stale: r.u64()? as usize,
        off_route: r.u64()? as usize,
        unknown_object: r.u64()? as usize,
        other_rejected: r.u64()? as usize,
        wal_errors: r.u64()? as usize,
    };
    let wal_bytes_written = r.u64()?;
    let wal_fsyncs = r.u64()?;
    let wal_group_tickets = r.u64()?;
    let wal_group_commits = r.u64()?;
    let wal_group_last_batch = r.u64()?;
    let wal_next_lsn = r.u64()?;
    let ingest_queue_depth = r.u64()?;
    let followers = r.u64()?;
    let min_acked_lsn = if r.u8()? != 0 { Some(r.u64()?) } else { None };
    let shard = if r.u8()? != 0 { Some(r.u64()?) } else { None };
    let index_bands = r.u64()?;
    if index_bands as usize > MAX_BANDS {
        return Err(WalError::Decode("band count out of range in stats frame"));
    }
    let mut index_band_entries = [0u64; MAX_BANDS];
    for slot in index_band_entries.iter_mut().take(index_bands as usize) {
        *slot = r.u64()?;
    }
    let index_band_migrations = r.u64()?;
    let replica_applied_lsn = if r.u8()? != 0 { Some(r.u64()?) } else { None };
    let replica_lag = if r.u8()? != 0 {
        Some(Duration::from_nanos(r.u64()?))
    } else {
        None
    };
    Ok(ServerStatsSnapshot {
        query,
        ingest,
        wal_bytes_written,
        wal_fsyncs,
        wal_group_tickets,
        wal_group_commits,
        wal_group_last_batch,
        wal_next_lsn,
        ingest_queue_depth,
        followers,
        min_acked_lsn,
        shard,
        index_bands,
        index_band_entries,
        index_band_migrations,
        replica_applied_lsn,
        replica_lag,
    })
}

impl WireMessage for Message {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { version } => {
                out.push(1);
                put_u32(out, *version);
            }
            Message::Batch { script, min_lsn } => {
                out.push(2);
                put_string(out, script);
                put_u64(out, *min_lsn);
            }
            Message::StatsRequest => out.push(3),
            Message::HelloAck { version } => {
                out.push(4);
                put_u32(out, *version);
            }
            Message::Statement { index, verdict } => {
                out.push(5);
                put_u32(out, *index);
                match verdict {
                    Ok(result) => {
                        out.push(1);
                        put_query_result(out, result);
                    }
                    Err(msg) => {
                        out.push(0);
                        put_string(out, msg);
                    }
                }
            }
            Message::BatchDone { count } => {
                out.push(6);
                put_u32(out, *count);
            }
            Message::StatsReply(stats) => {
                out.push(7);
                put_stats(out, stats);
            }
            Message::Refused { reason } => {
                out.push(8);
                put_string(out, reason);
            }
            Message::Update { id, msg } => {
                out.push(9);
                put_u64(out, id.0);
                msg.encode(out);
            }
            Message::UpdateBatch { updates } => {
                out.push(10);
                put_u32(out, updates.len() as u32);
                for (id, msg) in updates {
                    put_u64(out, id.0);
                    msg.encode(out);
                }
            }
            Message::UpdateAck { lsn, verdicts } => {
                out.push(11);
                put_u64(out, *lsn);
                put_u32(out, verdicts.len() as u32);
                for v in verdicts {
                    put_update_verdict(out, v);
                }
            }
            Message::Stale { applied, required } => {
                out.push(12);
                put_u64(out, *applied);
                put_u64(out, *required);
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, WalError> {
        let mut r = ByteReader::new(payload);
        let msg = match r.u8()? {
            1 => Message::Hello { version: r.u32()? },
            2 => Message::Batch {
                script: r.string()?,
                min_lsn: r.u64()?,
            },
            3 => Message::StatsRequest,
            4 => Message::HelloAck { version: r.u32()? },
            5 => {
                let index = r.u32()?;
                let verdict = match r.u8()? {
                    1 => Ok(read_query_result(&mut r)?),
                    0 => Err(r.string()?),
                    _ => return Err(WalError::Decode("bad statement verdict flag")),
                };
                Message::Statement { index, verdict }
            }
            6 => Message::BatchDone { count: r.u32()? },
            7 => Message::StatsReply(Box::new(read_stats(&mut r)?)),
            8 => Message::Refused {
                reason: r.string()?,
            },
            9 => Message::Update {
                id: ObjectId(r.u64()?),
                msg: UpdateMessage::decode(&mut r)?,
            },
            10 => {
                let n = r.u32()? as usize;
                let mut updates = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let id = ObjectId(r.u64()?);
                    let msg = UpdateMessage::decode(&mut r)?;
                    updates.push((id, msg));
                }
                Message::UpdateBatch { updates }
            }
            11 => {
                let lsn = r.u64()?;
                let n = r.u32()? as usize;
                let mut verdicts = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    verdicts.push(read_update_verdict(&mut r)?);
                }
                Message::UpdateAck { lsn, verdicts }
            }
            12 => Message::Stale {
                applied: r.u64()?,
                required: r.u64()?,
            },
            _ => return Err(WalError::Decode("unknown front-end message tag")),
        };
        if !r.is_empty() {
            return Err(WalError::Decode("trailing bytes in front-end message"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::{decode_frame, encode_frame};

    fn sample_stats() -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            query: QueryStatsSnapshot {
                epoch: 3,
                queries: 100,
                epoch_queries: 40,
                errors: 2,
                candidates: 500,
                matches: 123,
                parallel_refines: 7,
                batches: 9,
                delta_publishes: 2,
                full_publishes: 1,
                publish_ns: 12_345,
                p50_us: 64,
                p99_us: 1024,
                snapshot_age: Duration::from_micros(873),
            },
            ingest: IngestStatsSnapshot {
                accepted: 10,
                stale: 1,
                off_route: 2,
                unknown_object: 3,
                other_rejected: 4,
                wal_errors: 0,
            },
            wal_bytes_written: 4_096,
            wal_fsyncs: 17,
            wal_group_tickets: 96,
            wal_group_commits: 12,
            wal_group_last_batch: 8,
            wal_next_lsn: 88,
            ingest_queue_depth: 5,
            followers: 2,
            min_acked_lsn: Some(80),
            shard: Some(3),
            index_bands: 2,
            index_band_entries: {
                let mut entries = [0u64; MAX_BANDS];
                entries[0] = 70;
                entries[1] = 30;
                entries
            },
            index_band_migrations: 6,
            replica_applied_lsn: Some(84),
            replica_lag: Some(Duration::from_millis(250)),
        }
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                version: NET_PROTOCOL_VERSION,
            },
            Message::Batch {
                script: "RETRIEVE POSITION OF OBJECT 1 AT TIME 5; RETRIEVE \
                         OBJECTS INSIDE RECT (0, 0, 5, 5) AT TIME 5"
                    .into(),
                min_lsn: 42,
            },
            Message::StatsRequest,
            Message::HelloAck {
                version: NET_PROTOCOL_VERSION,
            },
            Message::Statement {
                index: 0,
                verdict: Ok(QueryResult::Position(PositionAnswer {
                    position: Point::new(1.5, -2.25),
                    arc: 7.0,
                    bound: 0.5,
                    interval: (6.5, 7.5),
                    interval_path: vec![Point::new(6.5, 0.0), Point::new(7.5, 0.0)],
                })),
            },
            Message::Statement {
                index: 1,
                verdict: Ok(QueryResult::Range(RangeAnswer {
                    must: vec![ObjectId(1), ObjectId(4)],
                    may: vec![ObjectId(9)],
                    candidates: 6,
                    stats: SearchStats {
                        nodes_visited: 3,
                        entries_tested: 12,
                        matches: 3,
                    },
                })),
            },
            Message::Statement {
                index: 2,
                verdict: Ok(QueryResult::Nearest(NearestAnswer {
                    ranked: vec![Neighbour {
                        id: ObjectId(2),
                        distance: 1.25,
                        bound: 0.1,
                        certain: true,
                    }],
                    contenders: vec![Neighbour {
                        id: ObjectId(5),
                        distance: 1.5,
                        bound: 0.5,
                        certain: false,
                    }],
                })),
            },
            Message::Statement {
                index: 3,
                verdict: Err("lex error at byte 0: unterminated string literal".into()),
            },
            Message::BatchDone { count: 4 },
            Message::StatsReply(Box::new(sample_stats())),
            Message::Refused {
                reason: "server at connection capacity".into(),
            },
            Message::Update {
                id: ObjectId(17),
                msg: UpdateMessage::basic(5.0, modb_core::UpdatePosition::Arc(12.5), 0.9),
            },
            Message::UpdateBatch {
                updates: vec![
                    (
                        ObjectId(1),
                        UpdateMessage::basic(
                            1.0,
                            modb_core::UpdatePosition::Coordinates(Point::new(3.0, 4.0)),
                            1.1,
                        ),
                    ),
                    (
                        ObjectId(2),
                        UpdateMessage::route_change(
                            2.0,
                            modb_routes::RouteId(7),
                            modb_core::UpdatePosition::Arc(0.5),
                            modb_routes::Direction::Backward,
                            0.8,
                        ),
                    ),
                ],
            },
            Message::UpdateAck {
                lsn: 91,
                verdicts: vec![
                    RemoteUpdateVerdict::Accepted,
                    RemoteUpdateVerdict::Rejected("stale update: 1 is not newer than 2".into()),
                    RemoteUpdateVerdict::Invalid("non-finite speed NaN".into()),
                ],
            },
            Message::Stale {
                applied: 84,
                required: 91,
            },
        ]
    }

    /// The wire compatibility contract: `tests/golden/net.frames` holds
    /// one framed instance of every message, written by the encoder of
    /// commit dfa280f (see `tests/golden/README.md`). Each frame must
    /// decode to its sample value and every sample must re-encode to the
    /// identical bytes.
    #[test]
    fn golden_frames_decode_and_re_encode_bit_identically() {
        let golden = include_bytes!("../../tests/golden/net.frames");
        let mut rest: &[u8] = golden;
        let mut re_encoded = Vec::new();
        for expected in sample_messages() {
            let (msg, consumed) = decode_frame::<Message>(rest, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .expect("a whole frame per message");
            assert_eq!(msg, expected);
            re_encoded.extend(encode_frame(&expected, DEFAULT_MAX_FRAME_BYTES).unwrap());
            rest = &rest[consumed..];
        }
        assert!(rest.is_empty(), "a golden frame no sample accounts for");
        assert_eq!(re_encoded, golden);
    }

    #[test]
    fn prometheus_text_carries_every_counter() {
        let stats = ServerStatsSnapshot {
            shard: None,
            ..sample_stats()
        };
        let text = stats.prometheus_text();
        for (metric, value) in [
            ("modb_query_epoch", 3),
            ("modb_queries_total", 100),
            ("modb_query_errors_total", 2),
            ("modb_query_p50_microseconds", 64),
            ("modb_query_p99_microseconds", 1024),
            ("modb_ingest_accepted_total", 10),
            ("modb_ingest_queue_depth", 5),
            ("modb_wal_bytes_written_total", 4096),
            ("modb_wal_fsyncs_total", 17),
            ("modb_wal_group_commit_tickets_total", 96),
            ("modb_wal_group_commits_total", 12),
            ("modb_wal_group_commit_batch_size", 8),
            ("modb_wal_next_lsn", 88),
            ("modb_replication_followers", 2),
            ("modb_replication_min_acked_lsn", 80),
            ("modb_index_band_migrations_total", 6),
            ("modb_replica_applied_lsn", 84),
        ] {
            assert!(
                text.lines().any(|l| l == format!("{metric} {value}")),
                "missing `{metric} {value}` in:\n{text}"
            );
            assert!(
                text.lines()
                    .any(|l| l.starts_with(&format!("# TYPE {metric} "))),
                "missing TYPE line for {metric}"
            );
        }
        // Per-band gauges: one sample per configured band, band-labelled.
        assert!(
            text.lines()
                .any(|l| l == "modb_index_band_entries{band=\"0\"} 70"),
            "{text}"
        );
        assert!(
            text.lines()
                .any(|l| l == "modb_index_band_entries{band=\"1\"} 30"),
            "{text}"
        );
        assert!(!text.contains("band=\"2\""), "unconfigured band emitted");
        // The fractional lag gauge: 250 ms renders as 0.250000 seconds.
        assert!(
            text.lines()
                .any(|l| l == "modb_replica_lag_seconds 0.250000"),
            "{text}"
        );
        // No follower connected: the barrier gauge disappears entirely.
        let empty = ServerStatsSnapshot {
            min_acked_lsn: None,
            ..stats
        };
        assert!(!empty.prometheus_text().contains("min_acked_lsn"));
        // A leader (no replica fields) emits no replica gauges at all.
        let leader = ServerStatsSnapshot {
            replica_applied_lsn: None,
            replica_lag: None,
            ..stats
        };
        assert!(!leader.prometheus_text().contains("modb_replica_"));
    }

    #[test]
    fn prometheus_text_labels_every_sample_with_the_shard() {
        let stats = sample_stats(); // shard = Some(3)
        let text = stats.prometheus_text();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.contains("shard=\"3\""),
                "unlabelled sample on a cluster node: {line}"
            );
        }
        assert!(
            text.lines()
                .any(|l| l == "modb_queries_total{shard=\"3\"} 100"),
            "{text}"
        );
        // Band samples merge the shard label with their band label.
        assert!(
            text.lines()
                .any(|l| l == "modb_index_band_entries{shard=\"3\",band=\"0\"} 70"),
            "{text}"
        );
        // TYPE lines stay label-free (labels belong on samples).
        for line in text.lines().filter(|l| l.starts_with("# TYPE")) {
            assert!(!line.contains("shard="), "{line}");
        }
    }
}
