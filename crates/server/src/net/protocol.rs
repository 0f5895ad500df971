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
//! | 7   | `StatsReply`   | server → client | `shard option, count u32, sample*` |
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
//! **The stats frame.** A `StatsReply` carries a [`ServerStatsSnapshot`]
//! as self-describing samples: the node's shard number once (`flag u8`,
//! then `u64` when set), a `u32` sample count, and per sample
//! `name string, label count u8, (key string, value string)*, value u64`.
//! One table in this module (`METRICS`: name, counter|gauge, snapshot
//! field, how Prometheus shows the value) drives the encoder, the
//! decoder and [`ServerStatsSnapshot::prometheus_text`]; its row order is
//! the sample order. The decoder skips a series it has no row for and
//! leaves a row it got no sample for at `Default`, so adding or dropping
//! a gauge is one row and no protocol version. What it does not forgive
//! is a frame that is wrong in itself — a duplicate series, a count or a
//! label count over its ceiling, a short or over-long body: those are
//! [`WalError::Decode`]. No row carries a label, so a labelled sample is
//! some other build's series and is skipped like an unknown name.
//!
//! **Remote ingest (v2).** `Update` / `UpdateBatch` push position
//! updates through the server's ingest path (per-object order, WAL
//! logging, the works — the same path local producers use, run on the
//! session's own thread). The `UpdateAck` carries one
//! [`RemoteUpdateVerdict`] per envelope plus the highest WAL frontier
//! that became durable for the frame: a **read-your-writes token**. A later `Batch` carrying that token as `min_lsn` is
//! guaranteed to run against a snapshot covering every acknowledged
//! update (`min_lsn = 0` asks for no such floor). Envelopes with
//! non-finite time/coordinates/speed, or a policy whose parameters make
//! the deviation bound unsound, are refused at this boundary with
//! [`RemoteUpdateVerdict::Invalid`] — never applied, never logged — so a
//! malicious or broken client cannot poison the WAL with values the
//! local path would reject only after logging.

use std::fmt::Write as _;
use std::time::Duration;

use modb_core::{NearestAnswer, Neighbour, ObjectId, PositionAnswer, RangeAnswer, UpdateMessage};
use modb_geom::Point;
use modb_index::SearchStats;
use modb_query::QueryResult;
use modb_wal::codec::{put_f64, put_string, put_u32, put_u64};
use modb_wal::{ByteReader, WalCodec, WalError};

use crate::framed::WireMessage;
use crate::ingest::IngestStatsSnapshot;
use crate::query_engine::QueryStatsSnapshot;

/// Protocol version spoken by this build, and the only one: a `Hello`
/// at any other version is `Refused`. v6 made the stats frame
/// self-describing (see the module docs) — v3, v4 and v5 had each been
/// cut only to add gauges to a positional one, which cannot happen
/// again. Every other message is byte-for-byte what v5 sent.
pub(crate) const NET_PROTOCOL_VERSION: u32 = 6;

/// Ceiling on one message's payload, both ways, for a server and a
/// client alike. Query scripts and result sets are small next to
/// replication snapshots, so it is far below the replication stream's
/// 64 MiB.
pub const MAX_FRAME_BYTES: u32 = 4 * 1024 * 1024;

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
    /// Refused by the server, not judged by the DBMS. At the protocol
    /// boundary (non-finite time, coordinates, or speed; no ingest
    /// service attached, or one shut down) the update was neither
    /// applied nor logged. `not durable: …` is the log failing under an
    /// applied update: it is in memory but not in the durable log, so it
    /// is not acknowledged and carries no token.
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
/// counters, WAL I/O totals, and the replication ship horizon. [`ServerStatsSnapshot::prometheus_text`] renders the
/// standard text exposition for scrapers that speak it.
///
/// On the wire the snapshot is a list of self-describing samples, one
/// per row of the metric table in this module (see the module docs):
/// `Default` is what a field reads when the peer sent no sample for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsSnapshot {
    /// Query engine counters (totals, p50/p99 latency).
    pub query: QueryStatsSnapshot,
    /// Ingest accept/reject counters (zeroed when no ingest service is
    /// attached to the server).
    pub ingest: IngestStatsSnapshot,
    /// Bytes written to the log since open (encoded frames, after delta
    /// coding and compression; segment headers excluded).
    pub wal_bytes_written: u64,
    /// `fsync` calls issued by the WAL writer since open.
    pub wal_fsyncs: u64,
    /// Group-commit tickets taken on the log (acked updates that waited
    /// for a shared fsync); 0 on a follower-served node.
    pub wal_group_tickets: u64,
    /// Fsyncs the log's group commit issued; `tickets / commits` is the
    /// mean collapse factor.
    pub wal_group_commits: u64,
    /// Tickets satisfied by the most recent group fsync (> 1 means
    /// collapsing is happening right now).
    pub wal_group_last_batch: u64,
    /// The log frontier (next LSN to be written).
    pub wal_next_lsn: u64,
    /// Always 0, and not on the wire: ingest applies each update on the
    /// thread that received it, so nothing queues. The field is there
    /// because `modb_ledger/` reads it.
    pub ingest_queue_depth: u64,
    /// Replication followers currently registered on the ship horizon.
    pub followers: u64,
    /// Lowest acknowledged LSN across followers (the compaction barrier),
    /// when any are connected.
    pub min_acked_lsn: Option<u64>,
    /// A shard number, rendered as a `shard="N"` label on every
    /// Prometheus sample. No current server sets it; the field stays
    /// because the v6 stats frame carries its flag byte.
    pub shard: Option<u64>,
    /// Always 0, and not on the wire: the index is one tree, so nothing
    /// migrates between speed bands. The field is there because
    /// `modb_ledger/` reads it.
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

/// One row of the metric table.
struct Metric {
    name: &'static str,
    kind: Kind,
    /// Renders the wire value for the exposition.
    show: fn(u64) -> String,
    /// The snapshot field as one unlabelled sample; a field reading
    /// `None` sends no sample and is omitted from the exposition.
    get: fn(&ServerStatsSnapshot) -> Option<u64>,
    set: fn(&mut ServerStatsSnapshot, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
}

fn raw(v: u64) -> String {
    v.to_string()
}

/// Nanoseconds on the wire, seconds with six decimals in the text.
fn seconds(ns: u64) -> String {
    format!("{:.6}", Duration::from_nanos(ns).as_secs_f64())
}

/// A snapshot field as the frame carries it: every field type maps onto
/// one `u64`.
trait Slot {
    fn load(&self) -> Option<u64>;
    fn store(&mut self, v: u64);
}

impl Slot for u64 {
    fn load(&self) -> Option<u64> {
        Some(*self)
    }
    fn store(&mut self, v: u64) {
        *self = v;
    }
}

impl Slot for usize {
    fn load(&self) -> Option<u64> {
        Some(*self as u64)
    }
    fn store(&mut self, v: u64) {
        *self = usize::try_from(v).unwrap_or(usize::MAX);
    }
}

/// Durations travel as nanoseconds.
impl Slot for Duration {
    fn load(&self) -> Option<u64> {
        Some(u64::try_from(self.as_nanos()).unwrap_or(u64::MAX))
    }
    fn store(&mut self, v: u64) {
        *self = Duration::from_nanos(v);
    }
}

impl<T: Slot + Default> Slot for Option<T> {
    fn load(&self) -> Option<u64> {
        self.as_ref().and_then(Slot::load)
    }
    fn store(&mut self, v: u64) {
        self.get_or_insert_with(T::default).store(v);
    }
}

/// Builds `METRICS` from rows of `"name" Kind show (field);` where the
/// field is a [`ServerStatsSnapshot`] field path.
macro_rules! metrics {
    ($($name:literal $kind:ident $show:ident ($($field:tt)+);)+) => {
        const METRICS: &[Metric] = &[$(Metric {
            name: $name,
            kind: Kind::$kind,
            show: $show,
            get: |s| s.$($field)+.load(),
            set: |s, v| s.$($field)+.store(v),
        }),+];
    };
}

// The metric table: the one place a scrape metric is spelled. Row order
// is sample order on the wire and in the exposition.
metrics! {
    "modb_queries_total"                    Counter raw     (query.queries);
    "modb_query_errors_total"               Counter raw     (query.errors);
    "modb_query_candidates_total"           Counter raw     (query.candidates);
    "modb_query_matches_total"              Counter raw     (query.matches);
    "modb_query_batches_total"              Counter raw     (query.batches);
    "modb_query_p50_microseconds"           Gauge   raw     (query.p50_us);
    "modb_query_p99_microseconds"           Gauge   raw     (query.p99_us);
    "modb_ingest_accepted_total"            Counter raw     (ingest.accepted);
    "modb_ingest_stale_total"               Counter raw     (ingest.stale);
    "modb_ingest_off_route_total"           Counter raw     (ingest.off_route);
    "modb_ingest_unknown_object_total"      Counter raw     (ingest.unknown_object);
    "modb_ingest_other_rejected_total"      Counter raw     (ingest.other_rejected);
    "modb_ingest_wal_errors_total"          Counter raw     (ingest.wal_errors);
    "modb_wal_bytes_written_total"          Counter raw     (wal_bytes_written);
    "modb_wal_fsyncs_total"                 Counter raw     (wal_fsyncs);
    "modb_wal_group_commit_tickets_total"   Counter raw     (wal_group_tickets);
    "modb_wal_group_commits_total"          Counter raw     (wal_group_commits);
    "modb_wal_group_commit_batch_size"      Gauge   raw     (wal_group_last_batch);
    "modb_wal_next_lsn"                     Gauge   raw     (wal_next_lsn);
    "modb_replication_followers"            Gauge   raw     (followers);
    "modb_replication_min_acked_lsn"        Gauge   raw     (min_acked_lsn);
    "modb_replica_applied_lsn"              Gauge   raw     (replica_applied_lsn);
    "modb_replica_lag_seconds"              Gauge   seconds (replica_lag);
}

/// Ceilings on what one `StatsReply` may claim: a frame over either is
/// refused before anything is allocated for it. The table fits many
/// times over.
const MAX_STATS_SAMPLES: usize = 1024;
const MAX_SAMPLE_LABELS: usize = 4;

impl ServerStatsSnapshot {
    /// Every sample this snapshot carries, in table order: the row and
    /// the wire value.
    fn samples(&self) -> impl Iterator<Item = (&'static Metric, u64)> + '_ {
        METRICS
            .iter()
            .filter_map(|row| Some((row, (row.get)(self)?)))
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (a `# TYPE` line per metric, then its sample). Gauges and
    /// counters are labelled as such; an `Option` gauge that is `None`
    /// (`modb_replication_min_acked_lsn` with no follower connected, the
    /// replica gauges on a leader) is omitted rather than given a
    /// sentinel. A snapshot with `shard` set gets a `shard="N"` label on
    /// every sample.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let shard = self
            .shard
            .map_or_else(String::new, |n| format!("{{shard=\"{n}\"}}"));
        for (row, value) in self.samples() {
            let kind = match row.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
            };
            let _ = writeln!(out, "# TYPE {} {kind}", row.name);
            let _ = writeln!(out, "{}{shard} {}", row.name, (row.show)(value));
        }
        out
    }

    /// The `StatsReply` body: the shard number once, then every sample
    /// as `name, labels, value` (no row carries a label).
    fn encode_samples(&self, out: &mut Vec<u8>) {
        match self.shard {
            Some(n) => {
                out.push(1);
                put_u64(out, n);
            }
            None => out.push(0),
        }
        put_u32(out, self.samples().count() as u32);
        for (row, value) in self.samples() {
            put_string(out, row.name);
            out.push(0);
            put_u64(out, value);
        }
    }

    /// Decodes a `StatsReply` body. A series this build has no row for —
    /// an unknown name, or any name under labels — is skipped; a row the
    /// peer sent no sample for stays at its `Default`. Everything else
    /// that is off is a typed error.
    fn decode_samples(r: &mut ByteReader<'_>) -> Result<Self, WalError> {
        let mut stats = ServerStatsSnapshot {
            shard: match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(WalError::Decode("bad shard flag in stats frame")),
            },
            ..ServerStatsSnapshot::default()
        };
        let count = r.u32()? as usize;
        if count > MAX_STATS_SAMPLES {
            return Err(WalError::Decode("too many samples in stats frame"));
        }
        let mut seen = [false; METRICS.len()];
        for _ in 0..count {
            let name = r.string()?;
            let label_count = r.u8()? as usize;
            if label_count > MAX_SAMPLE_LABELS {
                return Err(WalError::Decode("too many labels on a stats sample"));
            }
            // A key and a value each; no row of this build reads them.
            for _ in 0..2 * label_count {
                r.string()?;
            }
            let value = r.u64()?;
            if label_count > 0 {
                continue;
            }
            let Some(index) = METRICS.iter().position(|row| row.name == name) else {
                continue;
            };
            if std::mem::replace(&mut seen[index], true) {
                return Err(WalError::Decode("duplicate sample in stats frame"));
            }
            (METRICS[index].set)(&mut stats, value);
        }
        Ok(stats)
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
    /// read-your-writes token (0 when no envelope of the frame was
    /// logged).
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

impl WireMessage for Message {
    const MAX_FRAME_BYTES: u32 = MAX_FRAME_BYTES;

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
                stats.encode_samples(out);
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
            7 => Message::StatsReply(Box::new(ServerStatsSnapshot::decode_samples(&mut r)?)),
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
                queries: 100,
                errors: 2,
                candidates: 500,
                matches: 123,
                batches: 9,
                p50_us: 64,
                p99_us: 1024,
                ..QueryStatsSnapshot::default()
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
            ingest_queue_depth: 0,
            followers: 2,
            min_acked_lsn: Some(80),
            shard: Some(3),
            index_band_migrations: 0,
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

    /// Cuts a concatenation of CRC frames at the length prefixes, without
    /// decoding anything (the v5 stats frame no longer decodes).
    fn split_frames(mut bytes: &[u8]) -> Vec<&[u8]> {
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            let (frame, rest) = bytes.split_at(8 + len);
            frames.push(frame);
            bytes = rest;
        }
        frames
    }

    /// The wire compatibility contract (see `tests/golden/README.md`):
    /// `net-v6.frames` holds one framed instance of every message. Each
    /// frame must decode to its sample value; every frame but
    /// `StatsReply` must re-encode to the identical bytes; and every
    /// frame but `Hello`, `HelloAck` (they carry the version number) and
    /// `StatsReply` must equal the frame v5 sent, kept in `net.frames`.
    /// `StatsReply` is a decode-only contract: a later build may send
    /// more samples for the same snapshot, never read these differently.
    #[test]
    fn golden_frames_decode_and_match_v5_outside_the_stats_frame() {
        let v6 = split_frames(include_bytes!("../../tests/golden/net-v6.frames"));
        let v5 = split_frames(include_bytes!("../../tests/golden/net.frames"));
        let samples = sample_messages();
        assert_eq!(v6.len(), samples.len());
        assert_eq!(v5.len(), samples.len());
        for ((expected, v6), v5) in samples.iter().zip(v6).zip(v5) {
            let (msg, consumed) = decode_frame::<Message>(v6)
                .unwrap()
                .expect("a whole frame per message");
            assert_eq!(&msg, expected);
            assert_eq!(consumed, v6.len());
            if matches!(expected, Message::StatsReply(_)) {
                continue;
            }
            let re_encoded = encode_frame(expected).unwrap();
            assert_eq!(re_encoded, v6, "{expected:?}");
            if !matches!(expected, Message::Hello { .. } | Message::HelloAck { .. }) {
                assert_eq!(v6, v5, "{expected:?} changed since v5");
            }
        }
    }

    /// `tests/golden/stats.prom` is what the last commit with a
    /// hand-written exposition printed for `sample_stats()`: on a shard,
    /// off one, and off one with every `Option` gauge `None`.
    #[test]
    fn prometheus_text_matches_the_parent_commit_line_for_line() {
        let on_shard = sample_stats();
        let off_shard = ServerStatsSnapshot {
            shard: None,
            ..on_shard
        };
        let bare = ServerStatsSnapshot {
            min_acked_lsn: None,
            replica_applied_lsn: None,
            replica_lag: None,
            ..off_shard
        };
        let text = [on_shard, off_shard, bare]
            .map(|s| s.prometheus_text())
            .concat();
        let golden = include_str!("../../tests/golden/stats.prom");
        for (n, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "line {}", n + 1);
        }
        assert_eq!(text.lines().count(), golden.lines().count());
    }

    #[test]
    fn metric_table_is_well_formed() {
        for (i, row) in METRICS.iter().enumerate() {
            let body = row.name.strip_prefix("modb_").expect(row.name);
            assert!(
                !body.is_empty()
                    && body
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{} is not ^modb_[a-z0-9_]+$",
                row.name
            );
            assert_eq!(
                row.kind == Kind::Counter,
                row.name.ends_with("_total"),
                "{}: counters, and only counters, end in _total",
                row.name
            );
            assert!(
                METRICS[..i].iter().all(|earlier| earlier.name != row.name),
                "{} is listed twice",
                row.name
            );
        }
        // The fullest frame this build can send is one it would accept.
        assert!(METRICS.len() <= MAX_STATS_SAMPLES);
    }

    type RawSample<'a> = (&'a str, &'a [(&'a str, &'a str)], u64);

    /// A `StatsReply` payload spelled by hand, claiming `count` samples.
    fn stats_payload(count: u32, samples: &[RawSample<'_>]) -> Vec<u8> {
        let mut out = vec![7, 0];
        put_u32(&mut out, count);
        for (name, labels, value) in samples {
            put_string(&mut out, name);
            out.push(labels.len() as u8);
            for (key, label) in *labels {
                put_string(&mut out, key);
                put_string(&mut out, label);
            }
            put_u64(&mut out, *value);
        }
        out
    }

    fn decode_stats(samples: &[RawSample<'_>]) -> Result<ServerStatsSnapshot, WalError> {
        match Message::decode_payload(&stats_payload(samples.len() as u32, samples))? {
            Message::StatsReply(stats) => Ok(*stats),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_series_are_skipped_and_absent_ones_default() {
        let stats = decode_stats(&[
            ("modb_from_a_later_build_total", &[], 7),
            ("modb_wal_next_lsn", &[], 88),
            // Known names under labels are series of another build too:
            // no row of this one carries a label...
            ("modb_queries_total", &[("kind", "range")], 5),
            // ... and twice over is still a skip, not a duplicate (the
            // golden v6 frame holds the per-band gauges of the builds
            // that had speed bands, two samples under one name).
            ("modb_queries_total", &[("kind", "range")], 6),
            ("modb_replica_lag_seconds", &[], 250_000_000),
        ])
        .unwrap();
        assert_eq!(
            stats,
            ServerStatsSnapshot {
                wal_next_lsn: 88,
                replica_lag: Some(Duration::from_millis(250)),
                ..ServerStatsSnapshot::default()
            }
        );
        assert_eq!(decode_stats(&[]).unwrap(), ServerStatsSnapshot::default());
    }

    #[test]
    fn malformed_stats_frames_are_typed_errors() {
        let decode_err = |payload: &[u8]| match Message::decode_payload(payload) {
            Err(WalError::Decode(reason)) => reason,
            other => panic!("expected a decode error, got {other:?}"),
        };
        let lsn: RawSample<'_> = ("modb_wal_next_lsn", &[], 1);
        for (samples, why) in [
            (vec![lsn, lsn], "duplicate"),
            (
                vec![("modb_wal_next_lsn", &[("a", "b"); 5][..], 1)],
                "labels",
            ),
        ] {
            let reason = decode_err(&stats_payload(samples.len() as u32, &samples));
            assert!(reason.contains(why), "{reason}");
        }
        // A count over the ceiling is refused before any sample is read.
        let reason = decode_err(&stats_payload(MAX_STATS_SAMPLES as u32 + 1, &[]));
        assert!(reason.contains("too many samples"), "{reason}");
        assert!(decode_err(&stats_payload(u32::MAX, &[])).contains("too many samples"));
        // Fewer samples than claimed, a sample cut anywhere, bytes left
        // over: all typed, none a panic.
        let whole = stats_payload(1, &[lsn]);
        decode_err(&stats_payload(2, &[lsn]));
        for cut in 1..whole.len() {
            decode_err(&whole[..cut]);
        }
        let mut trailing = whole.clone();
        trailing.push(0);
        assert!(decode_err(&trailing).contains("trailing"));
        // The shard flag is 0 or 1, as the verdict flags are.
        let mut flagged = whole.clone();
        flagged[1] = 2;
        assert!(decode_err(&flagged).contains("shard flag"));
        assert!(Message::decode_payload(&whole).is_ok());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any snapshot survives encode → decode. Snapshots are drawn
            /// through the table (each row's field set or left at its
            /// default), so a new row joins the property by existing.
            #[test]
            fn stats_frame_round_trips(
                fields in proptest::collection::vec(proptest::option::of(any::<u64>()), METRICS.len()),
                shard in proptest::option::of(any::<u64>()),
            ) {
                let mut stats = ServerStatsSnapshot {
                    shard,
                    ..ServerStatsSnapshot::default()
                };
                for (row, value) in METRICS.iter().zip(fields) {
                    if let Some(value) = value {
                        (row.set)(&mut stats, value);
                    }
                }
                let msg = Message::StatsReply(Box::new(stats));
                let frame = encode_frame(&msg).unwrap();
                let (decoded, _) = decode_frame::<Message>(&frame)
                    .unwrap()
                    .expect("a whole frame");
                prop_assert_eq!(decoded, msg);
            }
        }
    }
}
