//! The warm standby: a [`StandbyReplica`] connects to a leader, replays
//! its WAL stream into a local [`SharedDatabase`] (through the one apply
//! seam, [`modb_wal::apply_record`], that recovery and the leader use),
//! and persists what it applies to its own durability directory so a
//! restart resumes from the local snapshot + cursor instead of
//! re-bootstrapping.
//!
//! One worker thread runs the replica's sessions, one after another:
//! `Connecting → Bootstrapping | CatchingUp ⇄ Steady`, back to
//! `Connecting` on a disconnect. It dials with a bound
//! ([`TcpLink::dial`]), so a dead upstream host cannot hold up
//! [`StandbyReplica::promote`], and waits [`RECONNECT_BACKOFF`] between
//! sessions. The [`Worker`] is a step function over a [`Link`] and a
//! [`Clock`] ([`Worker::connect`], [`Worker::step`], [`Worker::end`]) that
//! makes every decision of the session itself: it writes the `Hello`,
//! checks that every log run continues the applied watermark (duplicates
//! below it skipped), keeps the lag clock, decides the phase, the acks
//! and the local snapshot cadence, and ends a session whose upstream has
//! sent nothing for [`SESSION_DEADLINE`]. Every hazard
//! resolves to "reject and re-sync, never apply a torn record". The
//! replica, its worker and the worker's local log share one node
//! (`crate::node`): its database, directory, horizon and epochs, and the
//! watermark the worker publishes its applied LSN, lag clock and stats
//! to, under one lock. The local log is a [`DurableDatabase`] over that
//! node, the write path of every log the server keeps, with its rules:
//! each record is applied through the seam (`SharedDatabase::apply`, its
//! verdict re-derived locally) before it gets its LSN, blocks hold up to
//! [`crate::WAL_BATCH_RECORDS`] records, and a failed write or sync is
//! sticky: the worker stops ([`ReplicaPhase::Failed`]) until the replica
//! is reopened. Local snapshots and a promotion's seal (the leader's
//! write call) go through it too; once sealed, the node leads that log,
//! and everything reading its watermark reads the log. The worker passes
//! bytes and LSNs and never reads the file layout:
//! a log run is checked and decoded by [`RawChunk::decode`], and a
//! bootstrap snapshot fed run by run to a [`SnapshotReceiver`], which
//! owns the runs' continuity, the temp file and a crash-safe install. The
//! previous state and files serve on untouched until the last record has
//! validated; a session that ends first drops the receiver. The
//! snapshot's head carries every epoch begun below its LSN, adopted in
//! the same swap as the database, and each `LeaderEpoch` seal shipped
//! afterwards is folded in as it is applied.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modb_core::{Database, DatabaseConfig};
use modb_routes::{Route, RouteNetwork};
use modb_wal::{
    list_snapshots, EpochHistory, RawChunk, SnapshotReceiver, SnapshotRun, WalError, WalOptions,
    WalRecord,
};

use crate::durable::DurableDatabase;
use crate::framed::{Clock, Link, ReadEvent, TcpLink, WallClock};
use crate::net::{QueryServer, QueryServerConfig};
use crate::node::{Node, Watermark};
use crate::query_engine::QueryEngine;
use crate::replication::lag::LagClock;
use crate::replication::leader::ReplicationServer;
use crate::replication::protocol::{
    Message, MAX_MESSAGE_BYTES, PROTOCOL_VERSION, SESSION_DEADLINE,
};
use crate::replication::ReplicationConfig;
use crate::shared::SharedDatabase;

/// Pause between a replica's reconnect attempts.
pub(crate) const RECONNECT_BACKOFF: Duration = Duration::from_millis(25);

/// Tuning for a [`StandbyReplica`].
#[derive(Debug, Clone, Default)]
pub struct ReplicaConfig {
    /// Options for the replica's own log (what it applies, it persists).
    pub wal: WalOptions,
    /// Take a local snapshot every this many applied records (0 = only
    /// the bootstrap snapshot). Local snapshots bound restart replay and
    /// feed the local compaction pass, which keeps
    /// [`modb_wal::DEFAULT_SNAPSHOT_RETENTION`] snapshots, as a leader's
    /// [`DurableDatabase::snapshot`] does.
    pub snapshot_every: u64,
}

/// Where a replica is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaPhase {
    /// Not connected; dialing the leader.
    #[default]
    Connecting,
    /// Connected without local state; waiting for a bootstrap snapshot.
    Bootstrapping,
    /// Applying a backlog; the watermark is behind the leader frontier.
    CatchingUp,
    /// At (or within one heartbeat of) the leader frontier.
    Steady,
    /// Terminal: the upstream refused this replica's log tail as forked
    /// history (a typed `Diverged` answer to the handshake). The worker
    /// has stopped; see [`StandbyReplica::divergence`] for the boundary.
    /// The local state is intact but must be rebuilt (fresh directory)
    /// before it can follow again — never silently overwritten.
    Diverged,
    /// Terminal: a write or sync of the replica's own log failed. The
    /// worker has stopped at the last record the log holds; reopen the
    /// replica, once its disk is sound, to follow again.
    Failed,
    /// Terminal: this replica was promoted to a leader
    /// ([`StandbyReplica::promote`]); the watermark is now the local log's
    /// frontier.
    Promoted,
}

impl fmt::Display for ReplicaPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplicaPhase::Connecting => "connecting",
            ReplicaPhase::Bootstrapping => "bootstrapping",
            ReplicaPhase::CatchingUp => "catching-up",
            ReplicaPhase::Steady => "steady",
            ReplicaPhase::Diverged => "diverged",
            ReplicaPhase::Failed => "failed",
            ReplicaPhase::Promoted => "promoted",
        };
        f.write_str(s)
    }
}

/// Why an upstream refused this replica: the typed payload of the
/// `Diverged` handshake answer, kept for the operator to inspect (and
/// named by the refusal [`StandbyReplica::promote`] gives such a
/// replica).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergenceInfo {
    /// The refusing upstream's leadership epoch.
    pub leader_epoch: u64,
    /// First LSN of the timeline this replica never saw — everything it
    /// holds at or past this LSN is forked history.
    pub boundary_lsn: u64,
    /// This replica's log frontier at refusal time (how deep the fork
    /// runs: `local_next_lsn − boundary_lsn` records).
    pub local_next_lsn: u64,
}

/// Point-in-time view of a replica's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaStatsSnapshot {
    /// The applied watermark: every record with `lsn <` this is in the
    /// local database (and local log).
    pub applied_lsn: u64,
    /// The leader frontier from the last heartbeat (0 before the first).
    pub leader_lsn: u64,
    /// `leader_lsn − applied_lsn` (saturating): staleness in records.
    pub lag_records: u64,
    /// Current lifecycle phase.
    pub phase: ReplicaPhase,
    /// Successful connections.
    pub connects: u64,
    /// Full snapshot bootstraps (0 after a warm restart that resumed).
    pub bootstraps: u64,
    /// Sessions ended early to renegotiate (fault or protocol reject).
    pub resyncs: u64,
    /// Messages rejected without being applied (torn runs, bad CRCs
    /// surface as resyncs; this counts semantic rejects).
    pub rejected_messages: u64,
    /// Records applied to the local state.
    pub records_applied: u64,
    /// Duplicate records below the watermark skipped idempotently.
    pub records_skipped: u64,
    /// Local snapshots taken past bootstrap.
    pub snapshots_taken: u64,
}

impl fmt::Display for ReplicaStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replica: {} @ lsn {} (leader {}, lag {}), {} connect(s), \
             {} bootstrap(s), {} resync(s), {} applied / {} skipped / {} rejected",
            self.phase,
            self.applied_lsn,
            self.leader_lsn,
            self.lag_records,
            self.connects,
            self.bootstraps,
            self.resyncs,
            self.records_applied,
            self.records_skipped,
            self.rejected_messages,
        )
    }
}

/// Everything a replica publishes, settled together: its stats (the
/// applied watermark, the upstream frontier, the phase, the counters),
/// its lag clock and, once refused, the divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Published {
    pub(crate) stats: ReplicaStatsSnapshot,
    pub(crate) clock: LagClock,
    pub(crate) diverged: Option<DivergenceInfo>,
}

impl Published {
    /// A replica whose log ends at `applied`, opened at `now`.
    pub(crate) fn new(applied: u64, now: Instant) -> Self {
        let stats = ReplicaStatsSnapshot {
            applied_lsn: applied,
            ..ReplicaStatsSnapshot::default()
        };
        Published {
            stats,
            clock: LagClock::new(now),
            diverged: None,
        }
    }
}

/// Why a follower session ended. Every end but divergence and a failed
/// log leads back to connecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEnd {
    /// The replica is stopping.
    Shutdown,
    /// The connection closed, went silent past [`SESSION_DEADLINE`] or
    /// was dropped on purpose.
    Disconnected,
    /// Framing was lost: renegotiate from the watermark (counted as a
    /// resync).
    Resync,
    /// A message was refused unapplied — a torn, foreign, out-of-order or
    /// unexpected one (counted as a rejected message and a resync).
    Reject,
    /// The upstream refused this replica's log tail as forked history.
    /// Reconnecting would get the same answer: terminal.
    Diverged(DivergenceInfo),
    /// The local log failed a write or a sync, and its failure is sticky:
    /// terminal until the replica is reopened.
    LogFailed,
}

/// The controls the replica's handle and its worker share.
#[derive(Debug, Default)]
struct Shared {
    stop: AtomicBool,
    /// Raised by [`StandbyReplica::repoint`]: the live session ends and
    /// the worker re-dials.
    reconnects: AtomicUsize,
    /// Which upstream the worker dials; [`StandbyReplica::repoint`]
    /// swaps it so a surviving follower can chase a promoted standby
    /// without re-bootstrapping.
    addr: Mutex<String>,
}

/// A cheap, cloneable view of a replica's watermark, detached from the
/// [`StandbyReplica`] handle: it reads the same node, before and after a
/// promotion.
#[derive(Debug, Clone)]
pub struct ReplicaWatch {
    node: Arc<Node>,
}

impl ReplicaWatch {
    /// The applied watermark (see [`StandbyReplica::applied_lsn`]).
    pub fn applied_lsn(&self) -> u64 {
        self.node.watermark().applied()
    }

    /// The age of the replica's last contact with a caught-up upstream
    /// — zero within [`crate::LagClock::CONTACT_WINDOW`] of it, unless a
    /// later contact found the replica behind — the `Δ` that widens
    /// served answers by `2·v_max·Δ`; zero once promoted.
    pub fn lag(&self) -> Duration {
        self.node.watermark().lag()
    }

    /// Blocks until the applied watermark reaches `lsn` or the timeout
    /// elapses; `true` when reached.
    pub fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        self.node.watermark().wait_for_lsn(lsn, timeout)
    }
}

/// A warm standby follower of one leader. See the module docs for the
/// state machine; see [`crate::DurableDatabase::serve_replication`] for
/// the other end.
#[derive(Debug)]
pub struct StandbyReplica {
    /// The database, directory, horizon, epochs and watermark, shared
    /// with the worker's log and, once promoted, the leader's handle.
    pub(super) node: Arc<Node>,
    shared: Arc<Shared>,
    /// The worker thread; it hands the local log back when it stops.
    worker: Option<JoinHandle<Option<DurableDatabase>>>,
}

impl StandbyReplica {
    /// Opens (or resumes) a replica in `dir` following the leader at
    /// `addr`. A directory holding a usable snapshot is recovered
    /// locally first — the session then resumes from the recovered
    /// watermark instead of re-bootstrapping. A fresh directory starts
    /// empty and waits for the leader's bootstrap snapshot. The temp file
    /// of a bootstrap the process died in is removed.
    ///
    /// # Errors
    ///
    /// Local recovery failures (see [`modb_wal::recover`]); directory
    /// creation failures.
    pub fn open(
        dir: impl Into<PathBuf>,
        addr: impl Into<String>,
        config: ReplicaConfig,
    ) -> Result<Self, WalError> {
        let (mut replica, worker) = Self::open_with(dir, addr, config, Arc::new(WallClock))?;
        let dial = |addr: &str| TcpLink::dial(addr, MAX_MESSAGE_BYTES);
        replica.worker = Some(std::thread::spawn(move || worker.run(dial)));
        Ok(replica)
    }

    /// [`StandbyReplica::open`] on `clock`, with the worker handed back
    /// instead of started on a thread of its own.
    pub(crate) fn open_with(
        dir: impl Into<PathBuf>,
        addr: impl Into<String>,
        config: ReplicaConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<(Self, Worker), WalError> {
        let dir = dir.into();
        let addr = addr.into();
        SnapshotReceiver::prepare(&dir)?;
        let have_state = !list_snapshots(&dir)?.is_empty();
        let (db, epochs, applied) = if have_state {
            let recovered = modb_wal::recover(&dir)?;
            let applied = recovered.report.next_lsn;
            (recovered.database, recovered.epochs, applied)
        } else {
            (placeholder_database(), EpochHistory::new(), 0)
        };
        let now = clock.now();
        let out = Published::new(applied, now);
        let watermark = Watermark::new(out, clock);
        let node = Node::new(SharedDatabase::new(db), dir, epochs, watermark);
        let shared = Arc::new(Shared {
            addr: Mutex::new(addr),
            ..Shared::default()
        });
        let mut worker = Worker {
            node: Arc::clone(&node),
            config,
            shared: Arc::clone(&shared),
            log: None,
            incoming: None,
            out,
            last_snapshot: applied,
            reconnects: 0,
            heard: now,
        };
        if have_state {
            worker.resume_log(applied)?;
        }
        let replica = StandbyReplica {
            node,
            shared,
            worker: None,
        };
        Ok((replica, worker))
    }

    /// The replica's queryable database handle. Reads here see the
    /// applied watermark — a position answer is as stale as the
    /// replication lag, which widens the paper's deviation bound by at
    /// most `D·dt` (DESIGN.md §10).
    pub fn database(&self) -> &SharedDatabase {
        self.node.database()
    }

    /// The applied watermark: every record with `lsn <` this is in the
    /// local state.
    pub fn applied_lsn(&self) -> u64 {
        self.node.watermark().applied()
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> ReplicaPhase {
        self.node.watermark().published().stats.phase
    }

    /// Blocks until the applied watermark reaches `lsn` or the timeout
    /// elapses; `true` when reached.
    pub fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        self.node.watermark().wait_for_lsn(lsn, timeout)
    }

    /// A detached, cloneable view of this replica's watermark, for the
    /// threads that wait on it.
    pub fn watch(&self) -> ReplicaWatch {
        ReplicaWatch {
            node: Arc::clone(&self.node),
        }
    }

    /// Starts a query front-end on this follower: remote clients get the
    /// protocol a leader serves, read from the node's watermark
    /// (DESIGN.md §15). Updates are refused, as on a leader served with
    /// no ingest. A `Batch` whose read-your-writes token outruns the
    /// applied watermark waits up to
    /// [`QueryServerConfig::stale_deadline`] and then gets a typed
    /// `Stale { applied, required }` instead of a hang (a statement's
    /// clone, taken after the wait, holds every record below the floor);
    /// and every served answer is widened by the lag-derived
    /// `2·v_max·Δ` term, so a stale follower's imprecision is priced
    /// honestly (§3.3 of the paper). After a promotion the same
    /// front-end serves as a leader's: no widening, and a scrape with the
    /// promotee's WAL counters. `engine` must be built on this replica's
    /// database ([`StandbyReplica::database`]).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn serve_queries(
        &self,
        engine: Arc<QueryEngine>,
        addr: impl std::net::ToSocketAddrs,
        config: QueryServerConfig,
    ) -> Result<QueryServer, WalError> {
        self.node.serve_queries(engine, None, addr, config)
    }

    /// Re-ships this replica's received WAL to downstream followers —
    /// the chaining seam. The local log holds the leader's records at the
    /// leader's LSNs (apply-before-log), so the same
    /// [`modb_wal::SegmentTailer`] machinery the leader uses tails it
    /// here; the shipped frontier is the node's watermark (the applied
    /// one, the log's once promoted), and downstream acknowledgements pin
    /// the local compaction pass. A bootstrap (timeline replacement)
    /// wipes local segments regardless — downstream sessions then error
    /// out and re-bootstrap from the new snapshot, exactly like a
    /// follower whose cursor fell behind compaction.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn serve_replication(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: ReplicationConfig,
    ) -> Result<ReplicationServer, WalError> {
        self.node.serve_replication(addr, config)
    }

    /// Swaps the upstream this replica follows and drops the current
    /// session; the worker re-dials `new_addr` and resumes from the
    /// applied watermark (the promotee's log holds the records this
    /// replica already applied at the same LSNs — every log of a cluster
    /// does, each sealed into blocks of its own — so the handshake
    /// resumes instead of re-bootstrapping). The repoint half of a
    /// failover: survivors chase the promoted standby. Repointing at the
    /// same address just renegotiates.
    pub fn repoint(&self, new_addr: impl Into<String>) {
        *self.shared.addr.lock().unwrap_or_else(|e| e.into_inner()) = new_addr.into();
        self.shared.reconnects.fetch_add(1, Ordering::SeqCst);
    }

    /// The typed refusal that ended replication, when the upstream
    /// declared this replica's log tail forked history (phase
    /// [`ReplicaPhase::Diverged`]).
    pub fn divergence(&self) -> Option<DivergenceInfo> {
        self.node.watermark().published().diverged
    }

    /// The leadership epoch of the local log (1 until a promotion
    /// somewhere upstream has been observed).
    pub fn epoch(&self) -> u64 {
        self.node.epoch()
    }

    /// Promotes this standby to a full leader. The operator picks the
    /// standby with the highest [`StandbyReplica::applied_lsn`] and
    /// [`StandbyReplica::repoint`]s the others at its re-ship address:
    /// a fresher peer repointed at a staler promotee is refused
    /// `Diverged`, never silently rewound.
    ///
    /// The apply loop is stopped at the applied watermark (applies are
    /// atomic per shipped run, so the watermark lands on a run
    /// boundary), a new leadership epoch starting at the log's frontier
    /// is sealed as a [`modb_wal::WalRecord::LeaderEpoch`] record through
    /// the [`DurableDatabase`] the worker logged with — its sync is the
    /// commit point of the promotion — and that handle is returned to
    /// accept acked ingest.
    ///
    /// The replica's node then leads the sealed log, so everything
    /// opened on this replica keeps working across the switch and serves
    /// as a leader's: a running [`StandbyReplica::serve_replication`]
    /// keeps shipping (its frontier is now the log's, its epoch state
    /// shows the new epoch, and downstream followers repointed here
    /// resume from their applied LSN); a running
    /// [`StandbyReplica::serve_queries`] front-end keeps answering, with
    /// no lag widening, the log's frontier as its session-token source
    /// and the log's counters in its scrape; a [`ReplicaWatch`], even one
    /// already waiting, reads the log; and the shared ship horizon keeps
    /// pinning compaction for downstream acks. A revived old
    /// leader that tails past the promotion point is refused with a
    /// typed `Diverged` answer, never silently overwritten.
    ///
    /// # Errors
    ///
    /// An I/O error naming the refusing epoch and boundary LSN when the
    /// replica is [`ReplicaPhase::Diverged`]: its tail past the boundary
    /// is a second timeline, and sealing `current() + 1` on it would
    /// reuse the refusing leader's epoch number, which the epoch check
    /// then takes for the same history. Nothing is written.
    /// [`WalError::NoSnapshot`] when the replica never completed a
    /// bootstrap (there is no state to lead from); an I/O error when the
    /// worker panicked; the log's sticky failure, with nothing written;
    /// I/O failures sealing the log.
    pub fn promote(mut self) -> Result<DurableDatabase, WalError> {
        // Stop the apply loop first: the watermark is final after this.
        let log = self.stop_and_join()?;
        self.promote_with(log)
    }

    /// [`StandbyReplica::promote`] once the worker has stopped and handed
    /// back its `log`.
    pub(crate) fn promote_with(
        &self,
        log: Option<DurableDatabase>,
    ) -> Result<DurableDatabase, WalError> {
        if let Some(d) = self.divergence() {
            return Err(WalError::Io(std::io::Error::other(format!(
                "replica diverged: epoch {} refused its log past lsn {} (local frontier {}); \
                 promote a standby on the refusing timeline instead",
                d.leader_epoch, d.boundary_lsn, d.local_next_lsn
            ))));
        }
        let Some(log) = log else {
            return Err(WalError::NoSnapshot(self.node.dir().to_path_buf()));
        };
        // The seal record's sync is the commit point: a crash before it
        // reopens on the old epoch at the same frontier, and nothing can
        // have been acked under the new one. Memory follows the disk. A
        // failed log refuses the seal unwritten.
        let mut sealed = self.node.epochs().clone();
        let epoch = sealed.begin(log.wal().next_lsn())?;
        log.write(WalRecord::LeaderEpoch { epoch })?;
        log.wal().sync()?;
        *self.node.epochs() = sealed;
        // The node leads the log from here on: every reader of its
        // watermark — the front-end, the re-ship context, the watches —
        // reads the log's frontier and no lag.
        let watermark = self.node.watermark();
        watermark.lead(log.wal().clone());
        let mut published = *watermark.published();
        published.stats.phase = ReplicaPhase::Promoted;
        watermark.publish(published);
        Ok(log)
    }

    /// Current progress counters.
    pub fn stats(&self) -> ReplicaStatsSnapshot {
        let watermark = self.node.watermark();
        let mut stats = watermark.published().stats;
        stats.applied_lsn = watermark.applied();
        stats.lag_records = stats.leader_lsn.saturating_sub(stats.applied_lsn);
        stats
    }

    /// Stops the worker, closes the session, and returns the final
    /// stats. The local directory keeps the applied state — a later
    /// [`StandbyReplica::open`] resumes from it.
    pub fn shutdown(mut self) -> ReplicaStatsSnapshot {
        let _ = self.stop_and_join();
        self.stats()
    }

    /// Stops the worker and takes back its log, if it has one; an error
    /// when the worker panicked.
    fn stop_and_join(&mut self) -> Result<Option<DurableDatabase>, WalError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        let panicked = |_| WalError::Io(std::io::Error::other("the replica's worker panicked"));
        (self.worker.take()).map_or(Ok(None), |h| h.join().map_err(panicked))
    }
}

impl Drop for StandbyReplica {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// A replica with no state yet: an empty network, default config. The
/// bootstrap snapshot replaces all of it (network, config, objects).
fn placeholder_database() -> Database {
    let network = RouteNetwork::from_routes(Vec::<Route>::new()).expect("empty network is valid");
    Database::new(network, DatabaseConfig::default())
}

/// The replica's side of its sessions, one after another: the database,
/// the local log and the bootstrap under way, stepped over one link at a
/// time.
pub(crate) struct Worker {
    node: Arc<Node>,
    config: ReplicaConfig,
    shared: Arc<Shared>,
    /// The local log; `None` while the replica has no state to resume.
    log: Option<DurableDatabase>,
    /// The bootstrap snapshot arriving in this session, if any.
    incoming: Option<SnapshotReceiver>,
    /// What the worker last published; its `stats.applied_lsn` is the
    /// watermark.
    out: Published,
    /// The LSN of the last local snapshot (or of the state opened).
    last_snapshot: u64,
    /// The repoint count the live session opened under.
    reconnects: usize,
    /// When the live session last heard from its upstream.
    heard: Instant,
}

impl Worker {
    /// The worker thread: `dial` the current upstream, step a session on
    /// it to its end, back off, and again — until the replica stops or a
    /// session ends for good. Hands back the local log.
    pub(crate) fn run<L: Link<Message>>(
        mut self,
        mut dial: impl FnMut(&str) -> Result<L, WalError>,
    ) -> Option<DurableDatabase> {
        let clock = Arc::clone(self.node.watermark().clock());
        while !self.shared.stop.load(Ordering::SeqCst) {
            // Re-read the dial target every attempt: a repoint swaps it
            // while the worker runs, and the next connect chases the new
            // upstream (the promoted standby) from the applied watermark.
            if let Ok(mut link) = dial(&self.upstream()) {
                let mut live = self.connect(&mut link);
                while live.is_ok() {
                    let wait = clock.now() + SESSION_DEADLINE;
                    live = self.step(&mut link, wait).map(drop);
                }
                if let Err(end) = live {
                    if self.end(&mut link, end) {
                        break;
                    }
                }
            }
            clock.sleep_until(clock.now() + RECONNECT_BACKOFF);
        }
        self.into_log()
    }

    /// The local log, handed back by a stopped worker.
    pub(crate) fn into_log(self) -> Option<DurableDatabase> {
        self.log
    }

    /// Opens the local log for appending at `next_lsn`, over the replica's
    /// node.
    fn resume_log(&mut self, next_lsn: u64) -> Result<(), WalError> {
        let (node, opts) = (Arc::clone(&self.node), self.config.wal);
        self.log = Some(DurableDatabase::from_parts(node, opts, next_lsn)?);
        Ok(())
    }

    /// The time on the replica's clock.
    fn now(&self) -> Instant {
        self.node.watermark().clock().now()
    }

    /// The upstream this worker dials next.
    pub(crate) fn upstream(&self) -> String {
        let addr = self.shared.addr.lock();
        addr.unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Opens a session on a fresh `link` with a `Hello` naming the
    /// watermark, whether there is state to resume and the current epoch.
    pub(crate) fn connect(&mut self, link: &mut impl Link<Message>) -> Result<(), SessionEnd> {
        self.reconnects = self.shared.reconnects.load(Ordering::SeqCst);
        self.heard = self.now();
        let have_state = self.log.is_some();
        let stats = &mut self.out.stats;
        stats.connects += 1;
        stats.phase = if have_state {
            ReplicaPhase::CatchingUp
        } else {
            ReplicaPhase::Bootstrapping
        };
        let hello = Message::Hello {
            version: PROTOCOL_VERSION,
            next_lsn: stats.applied_lsn,
            have_state,
            epoch: self.node.epoch(),
        };
        send(link, &hello)?;
        self.publish();
        Ok(())
    }

    /// One step of a live session: the replica's handle first (a stop or
    /// a repoint ends the session), then at most one message, waited for
    /// until `deadline`. `Ok(false)` when nothing arrived; `Err` once the
    /// session is over — also when nothing has arrived for
    /// [`SESSION_DEADLINE`], counted from the last message taken, so a
    /// long local apply or snapshot does not trip it: what the upstream
    /// sent meanwhile is waiting on the link.
    pub(crate) fn step(
        &mut self,
        link: &mut impl Link<Message>,
        deadline: Instant,
    ) -> Result<bool, SessionEnd> {
        if self.shared.stop.load(Ordering::SeqCst) {
            return Err(SessionEnd::Shutdown);
        }
        if self.shared.reconnects.load(Ordering::SeqCst) != self.reconnects {
            return Err(SessionEnd::Disconnected);
        }
        match link.poll(deadline) {
            Ok(ReadEvent::Message(msg)) => {
                self.heard = self.now();
                self.take(link, msg).map(|()| true)
            }
            Ok(ReadEvent::Idle) => {
                let now = self.now();
                if now.saturating_duration_since(self.heard) > SESSION_DEADLINE {
                    Err(SessionEnd::Disconnected)
                } else {
                    Ok(false)
                }
            }
            Ok(ReadEvent::Closed) => Err(SessionEnd::Disconnected),
            // Framing lost (bad length / CRC / undecodable message): drop
            // the connection and renegotiate.
            Err(_) => Err(SessionEnd::Resync),
        }
    }

    /// Closes a session that ended with `end`: the phase and counters
    /// take note, a bootstrap the session did not finish is dropped
    /// whole, and the link is shut. `true` when the replica must not
    /// reconnect.
    pub(crate) fn end(&mut self, link: &mut impl Link<Message>, end: SessionEnd) -> bool {
        if end != SessionEnd::Shutdown {
            let stats = &mut self.out.stats;
            stats.phase = ReplicaPhase::Connecting;
            match end {
                SessionEnd::Shutdown | SessionEnd::Disconnected => {}
                SessionEnd::Resync => stats.resyncs += 1,
                SessionEnd::Reject => {
                    stats.rejected_messages += 1;
                    stats.resyncs += 1;
                }
                SessionEnd::Diverged(info) => {
                    stats.phase = ReplicaPhase::Diverged;
                    self.out.diverged = Some(info);
                }
                SessionEnd::LogFailed => stats.phase = ReplicaPhase::Failed,
            }
            self.publish();
        }
        self.incoming = None;
        link.shutdown();
        !matches!(
            end,
            SessionEnd::Disconnected | SessionEnd::Resync | SessionEnd::Reject
        )
    }

    /// Takes one message from the upstream.
    fn take(&mut self, link: &mut impl Link<Message>, msg: Message) -> Result<(), SessionEnd> {
        match msg {
            Message::SnapshotBlocks(run) => self.snapshot_run(link, &run),
            Message::Blocks(chunk) => self.blocks(link, &chunk),
            Message::Heartbeat { leader_next_lsn } => {
                let stats = &mut self.out.stats;
                stats.leader_lsn = leader_next_lsn;
                let applied_lsn = stats.applied_lsn;
                if self.log.is_some() {
                    stats.phase = if applied_lsn >= leader_next_lsn {
                        ReplicaPhase::Steady
                    } else {
                        ReplicaPhase::CatchingUp
                    };
                }
                self.contact();
                send(link, &Message::Ack { applied_lsn })
            }
            // The upstream proved this replica's tail belongs to a dead
            // timeline: stop, keeping the local state for inspection.
            Message::Diverged {
                leader_epoch,
                boundary_lsn,
            } => Err(SessionEnd::Diverged(DivergenceInfo {
                leader_epoch,
                boundary_lsn,
                local_next_lsn: self.out.stats.applied_lsn,
            })),
            // Leaders never send Hello or Ack.
            Message::Hello { .. } | Message::Ack { .. } => Err(SessionEnd::Reject),
        }
    }

    /// Takes one run of a bootstrap snapshot (the first opens the
    /// receiver). After the last, the local log is closed, the snapshot
    /// installed in its place and adopted with its head's leadership
    /// history, the log resumed at its LSN, and the snapshot acked.
    fn snapshot_run(
        &mut self,
        link: &mut impl Link<Message>,
        run: &SnapshotRun,
    ) -> Result<(), SessionEnd> {
        if self.incoming.is_none() {
            self.incoming = SnapshotReceiver::open(self.node.dir(), run).ok();
        }
        let incoming = self.incoming.as_mut().ok_or(SessionEnd::Reject)?;
        if !incoming.receive(run).map_err(|_| SessionEnd::Reject)? {
            return Ok(());
        }
        let (incoming, lsn) = (self.incoming.take().expect("received above"), run.lsn);
        // Local log and snapshots describe a dead timeline now.
        self.log = None;
        let (db, epochs) = incoming.install().map_err(|_| SessionEnd::Reject)?;
        self.resume_log(lsn).map_err(|_| SessionEnd::Reject)?;
        self.node.database().replace(db);
        *self.node.epochs() = epochs;
        self.last_snapshot = lsn;
        let stats = &mut self.out.stats;
        (stats.applied_lsn, stats.phase) = (lsn, ReplicaPhase::CatchingUp);
        stats.bootstraps += 1;
        self.contact();
        send(link, &Message::Ack { applied_lsn: lsn })
    }

    /// A `Blocks` run applies whole or not at all. It must decode
    /// ([`RawChunk::decode`]), arrive with no bootstrap under way, and
    /// continue the watermark — a gap would desynchronize the watermark
    /// from the stream. Once applied and logged it is acked, and a local
    /// snapshot taken when one is due. The run is one write of the log.
    /// A failed append publishes what was logged before it and ends the
    /// session for good; a log that failed earlier refuses the run
    /// unapplied.
    fn blocks(
        &mut self,
        link: &mut impl Link<Message>,
        chunk: &RawChunk,
    ) -> Result<(), SessionEnd> {
        let (lsn, start) = (self.out.stats.applied_lsn, chunk.start_lsn);
        let run = chunk.decode().ok();
        let run = run.filter(|_| self.incoming.is_none() && start <= lsn);
        let (Some(log), Some(records)) = (self.log.clone(), run) else {
            return Err(SessionEnd::Reject);
        };
        // Overlap below the watermark is a duplicate delivery, already
        // applied and logged: skipping it is the idempotent path.
        let skipped = (lsn - start).min(records.len() as u64);
        self.out.stats.records_skipped += skipped;
        let mut records: Vec<WalRecord> = records.into_iter().skip(skipped as usize).collect();
        // An in-stream leadership change joins the history as it is
        // shipped; a conflicting claim in an admitted stream is a protocol
        // violation, so the run applies up to it and the session ends.
        let cut = {
            let mut epochs = self.node.epochs();
            records.iter().enumerate().position(|(i, rec)| {
                matches!(rec, WalRecord::LeaderEpoch { epoch }
                    if epochs.observe(*epoch, lsn + i as u64).is_err())
            })
        };
        if let Some(cut) = cut {
            records.truncate(cut);
        }
        // Verdicts are re-derived locally. The run is one write, which
        // applies each record as it frames it: its blocks are cut as the
        // leader's were, and a failed append applies no more of it.
        let db = log.database();
        let applied = records.into_iter().inspect(|rec| {
            let _ = db.apply(rec.clone());
        });
        let logged = log.wal().write(true, || ((), applied));
        let logged = logged.and_then(|(_, appended)| appended).is_ok();
        // This worker is the log's one writer: its frontier is what the
        // run logged.
        let applied_lsn = log.wal().next_lsn().max(lsn);
        let stats = &mut self.out.stats;
        stats.records_applied += applied_lsn - lsn;
        stats.applied_lsn = applied_lsn;
        self.contact();
        if !logged {
            return Err(SessionEnd::LogFailed);
        }
        if cut.is_some() {
            return Err(SessionEnd::Reject);
        }
        // A failed local snapshot is tried again after the next run.
        let every = self.config.snapshot_every;
        if every > 0
            && applied_lsn.saturating_sub(self.last_snapshot) >= every
            && log.snapshot().is_ok()
        {
            self.last_snapshot = applied_lsn;
            self.out.stats.snapshots_taken += 1;
            self.publish();
        }
        send(link, &Message::Ack { applied_lsn })
    }

    /// A contact with the upstream, leaving the watermark where it
    /// stands: the lag clock is settled and everything published.
    fn contact(&mut self) {
        let stats = &self.out.stats;
        let now = self.now();
        (self.out.clock).contact(stats.applied_lsn, stats.leader_lsn, now);
        self.publish();
    }

    /// Publishes what the worker holds, in one swap under one lock.
    fn publish(&mut self) {
        let stats = &mut self.out.stats;
        stats.lag_records = stats.leader_lsn.saturating_sub(stats.applied_lsn);
        self.node.watermark().publish(self.out);
    }
}

/// Sends `msg`; a link that refuses it has disconnected.
fn send(link: &mut impl Link<Message>, msg: &Message) -> Result<(), SessionEnd> {
    link.send(msg).map_err(|_| SessionEnd::Disconnected)
}

#[cfg(test)]
mod tests {
    //! The worker driven from the other end of an in-memory link on a
    //! virtual clock: the test plays the upstream, sends crafted messages
    //! and reads the replies, one step at a time, against a real local
    //! log and database. No socket, no sleep, no thread (but in the last
    //! two tests, which race a reader against a promotion and against
    //! the publication).

    use super::*;
    use crate::framed::mem::{pair, Fault, MemLink, VirtualClock};
    use crate::framed::DIAL_TIMEOUT;
    use crate::replication::sim::{files, fresh_db, replica_config, vehicle, wal_options, Cluster};
    use modb_core::ObjectId;
    use modb_wal::segment::segment_file_name;
    use modb_wal::snapshot::snapshot_file_name;
    use modb_wal::{encode_block, frame_block, Shipment, SEGMENT_VERSION};
    use std::cell::Cell;
    use std::path::Path;
    use std::sync::atomic::AtomicU64;
    use ReplicaPhase::{Bootstrapping, CatchingUp, Steady};

    const REJECT: Result<bool, SessionEnd> = Err(SessionEnd::Reject);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A scratch directory, empty.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("modb-worker-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A durability directory at `dir` whose log holds `records`
    /// registrations.
    fn logged(dir: &Path, records: u64) {
        let durable = DurableDatabase::create(dir, fresh_db(), wal_options()).unwrap();
        for id in 1..=records {
            durable.register_moving(vehicle(id, id as f64)).unwrap();
        }
    }

    /// Appends the seal of `epoch` to the log in `dir`, which ends at
    /// `next_lsn`.
    fn seal(dir: &Path, next_lsn: u64, epoch: u64) {
        let mut writer = modb_wal::WalWriter::resume(dir, wal_options(), next_lsn).unwrap();
        writer.append(&WalRecord::LeaderEpoch { epoch }).unwrap();
        writer.sync().unwrap();
    }

    /// A replica on a virtual clock whose worker holds a live session
    /// over an in-memory link; the test is the upstream.
    struct Upstream {
        dir: PathBuf,
        replica: StandbyReplica,
        worker: Worker,
        clock: Arc<VirtualClock>,
        /// The worker's end of the link.
        link: MemLink<Message>,
        /// The test's end.
        up: MemLink<Message>,
    }

    impl Upstream {
        /// A replica in a fresh directory holding `records` logged
        /// registrations (`None`: no state at all), taking a local
        /// snapshot every `snapshot_every` records, connected.
        fn new(name: &str, records: Option<u64>, snapshot_every: u64) -> Self {
            let dir = scratch(name);
            if let Some(records) = records {
                logged(&dir, records);
            }
            Upstream::open(dir, snapshot_every)
        }

        /// The replica of `dir`, connected.
        fn open(dir: PathBuf, snapshot_every: u64) -> Self {
            let clock = Arc::new(VirtualClock::new());
            let config = ReplicaConfig {
                snapshot_every,
                ..replica_config()
            };
            let (replica, mut worker) =
                StandbyReplica::open_with(&dir, "upstream", config, clock.clone()).unwrap();
            let (mut link, up) = pair(Fault::None, MAX_MESSAGE_BYTES);
            worker.connect(&mut link).unwrap();
            Upstream {
                dir,
                replica,
                worker,
                clock,
                link,
                up,
            }
        }

        /// The upstream sends `msg`; the worker steps once.
        fn send(&mut self, msg: Message) -> Result<bool, SessionEnd> {
            self.up.send(&msg).unwrap();
            self.step()
        }

        fn step(&mut self) -> Result<bool, SessionEnd> {
            self.worker.step(&mut self.link, self.clock.now())
        }

        /// What the worker sent since last asked.
        fn received(&mut self) -> Vec<Message> {
            let mut got = Vec::new();
            while let Ok(ReadEvent::Message(msg)) = self.up.poll(self.clock.now()) {
                got.push(msg);
            }
            got
        }

        /// Ends the live session with `end` and opens the next on a fresh
        /// link, its `Hello` read off.
        fn reconnect(&mut self, end: SessionEnd) {
            self.worker.end(&mut self.link, end);
            self.redial();
        }

        /// Opens the next session on a fresh link, its `Hello` read off,
        /// whether or not the worker's own loop would dial again.
        fn redial(&mut self) {
            (self.link, self.up) = pair(Fault::None, MAX_MESSAGE_BYTES);
            self.worker.connect(&mut self.link).unwrap();
            self.received();
        }

        fn stats(&self) -> ReplicaStatsSnapshot {
            self.replica.stats()
        }
    }

    impl Drop for Upstream {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn remove(id: u64) -> WalRecord {
        WalRecord::RemoveMoving(ObjectId(id))
    }

    fn removals(n: u64) -> Vec<WalRecord> {
        (0..n).map(remove).collect()
    }

    /// Segment frames of one one-record block per record.
    fn frames_of(records: &[WalRecord]) -> Vec<u8> {
        let mut frames = Vec::new();
        for record in records {
            let mut payload = Vec::new();
            encode_block(std::slice::from_ref(record), true, &mut payload);
            frame_block(&payload, &mut frames);
        }
        frames
    }

    /// A `Blocks` message carrying `records` from `start_lsn` on.
    fn run(start_lsn: u64, records: &[WalRecord]) -> Message {
        Message::Blocks(RawChunk {
            start_lsn,
            records: records.len() as u64,
            version: SEGMENT_VERSION,
            frames: frames_of(records),
        })
    }

    fn heartbeat(leader_next_lsn: u64) -> Message {
        Message::Heartbeat { leader_next_lsn }
    }

    fn ack(applied_lsn: u64) -> Message {
        Message::Ack { applied_lsn }
    }

    fn hello(next_lsn: u64, have_state: bool, epoch: u64) -> Message {
        let version = PROTOCOL_VERSION;
        Message::Hello {
            version,
            next_lsn,
            have_state,
            epoch,
        }
    }

    /// A replica with state resumes at its watermark, and a run delivered
    /// again, whole or overlapping the watermark, is skipped record by
    /// record instead of applied twice; each run is acked.
    #[test]
    fn a_follower_with_state_resumes_at_its_watermark_and_skips_redelivery() {
        let mut u = Upstream::new("resume", Some(6), 0);
        assert_eq!(u.received(), [hello(6, true, 1)]);
        for (start, records, applied) in [(6, 6, 12), (6, 6, 12), (10, 4, 14)] {
            assert_eq!(u.send(run(start, &removals(records))), Ok(true));
            assert_eq!(u.received(), [ack(applied)], "{start}");
        }
        let stats = u.stats();
        assert_eq!(
            (
                stats.applied_lsn,
                stats.records_applied,
                stats.records_skipped
            ),
            (14, 8, 8)
        );
    }

    /// The `Hello` names the watermark, whether there is state and the
    /// current epoch. A heartbeat sets the phase of a replica with state
    /// and is acked; leaders send no `Hello` or `Ack`.
    #[test]
    fn hello_and_heartbeats_report_the_watermark() {
        let dir = scratch("hello");
        logged(&dir, 3);
        seal(&dir, 3, 2);
        let mut u = Upstream::open(dir, 0);
        assert_eq!(u.received(), [hello(4, true, 2)]);
        assert_eq!(u.stats().phase, CatchingUp);
        for (frontier, phase) in [(9, CatchingUp), (4, Steady)] {
            assert_eq!(u.send(heartbeat(frontier)), Ok(true));
            assert_eq!(u.received(), [ack(4)]);
            assert_eq!(u.stats().phase, phase, "{frontier}");
        }

        let mut fresh = Upstream::new("hello-fresh", None, 0);
        assert_eq!(fresh.received(), [hello(0, false, 1)]);
        assert_eq!(fresh.stats().phase, Bootstrapping);
        assert_eq!(fresh.send(heartbeat(5)), Ok(true));
        assert_eq!(fresh.received(), [ack(0)]);
        assert_eq!(fresh.stats().phase, Bootstrapping);
        for wrong in [ack(0), hello(0, false, 1)] {
            assert_eq!(fresh.send(wrong), REJECT);
            fresh.reconnect(SessionEnd::Reject);
        }
    }

    /// The lag clock after a caught-up heartbeat, by the clock alone:
    /// zero for the contact window, then the whole silence; a heartbeat
    /// that finds the replica behind leaves it counting from the last
    /// caught-up contact.
    #[test]
    fn a_caught_up_heartbeat_holds_the_lag_at_zero_for_the_contact_window() {
        let mut u = Upstream::new("lag", Some(8), 0);
        let (clock, watch) = (Arc::clone(&u.clock), u.replica.watch());
        let lag_at = |when| {
            clock.sleep_until(when);
            watch.lag()
        };
        let at = clock.now() + ms(40);
        clock.sleep_until(at);
        assert_eq!(u.send(heartbeat(8)), Ok(true));
        assert_eq!(u.received(), [hello(8, true, 1), ack(8)]);
        assert_eq!(u.stats().phase, Steady);
        let window = LagClock::CONTACT_WINDOW;
        assert_eq!(lag_at(at + window), Duration::ZERO);
        assert_eq!(lag_at(at + window + ms(1)), window + ms(1));

        clock.sleep_until(at + ms(1_000));
        assert_eq!(u.send(heartbeat(10)), Ok(true));
        let behind = u.stats();
        assert_eq!((behind.leader_lsn, behind.lag_records), (10, 2));
        assert_eq!(behind.phase, CatchingUp);
        assert_eq!(lag_at(at + ms(1_100)), ms(1_100));
        assert_eq!(lag_at(at + ms(60_000)), ms(60_000));
    }

    /// A session whose upstream has sent nothing for [`SESSION_DEADLINE`]
    /// ends as a disconnect — to the nanosecond, counted from the last
    /// message taken. A message that arrived while the worker was busy
    /// elsewhere is taken before the deadline is judged, so a long local
    /// apply does not trip it.
    #[test]
    fn a_silent_upstream_ends_the_session_at_the_deadline() {
        let mut u = Upstream::new("silent", Some(2), 0);
        let t0 = u.clock.now();
        u.clock.sleep_until(t0 + SESSION_DEADLINE);
        assert_eq!(u.step(), Ok(false));
        assert_eq!(u.send(heartbeat(2)), Ok(true));
        let heard = t0 + SESSION_DEADLINE;

        u.up.send(&heartbeat(2)).unwrap();
        let busy = heard + SESSION_DEADLINE + ms(1);
        u.clock.sleep_until(busy);
        assert_eq!(u.step(), Ok(true), "the waiting heartbeat counts");
        u.clock.sleep_until(busy + SESSION_DEADLINE);
        assert_eq!(u.step(), Ok(false));
        u.clock
            .sleep_until(busy + SESSION_DEADLINE + Duration::from_nanos(1));
        assert_eq!(u.step(), Err(SessionEnd::Disconnected));
        assert!(!u.worker.end(&mut u.link, SessionEnd::Disconnected));
        let stats = u.stats();
        assert_eq!((stats.phase, stats.resyncs), (ReplicaPhase::Connecting, 0));
    }

    /// A leader's newest snapshot of `vehicles` registrations sealed
    /// under epoch 2, cut into one-block `SnapshotBlocks` runs: its LSN
    /// and the runs.
    fn snapshot_runs(name: &str, vehicles: u64) -> (u64, Vec<Message>) {
        let dir = scratch(name);
        logged(&dir, vehicles);
        seal(&dir, vehicles, 2);
        let (leader, _) = DurableDatabase::open(&dir, wal_options()).unwrap();
        leader.snapshot_with_retention(1).unwrap();
        let shipment = Shipment::newest(&dir).unwrap();
        let runs = shipment.runs(1).map(Message::SnapshotBlocks).collect();
        std::fs::remove_dir_all(&dir).unwrap();
        (shipment.lsn(), runs)
    }

    /// Bootstrap runs must continue each other. A run that is not first
    /// with no snapshot open is refused; with one open, its first run
    /// again, a run past a missing one, a run of another snapshot, a log
    /// run and a run that does not load are each refused. The last run
    /// installs the snapshot with its head's history and is acked; a run
    /// of it after that is refused too.
    #[test]
    fn snapshot_runs_continue_each_other_or_are_refused() {
        let (lsn, runs) = snapshot_runs("runs-leader", 300);
        assert!(runs.len() >= 3, "{} runs", runs.len());
        let Message::SnapshotBlocks(ref second) = runs[1] else {
            unreachable!()
        };
        let foreign = Message::SnapshotBlocks(SnapshotRun {
            lsn: lsn + 1,
            ..second.clone()
        });
        let mut flipped = second.frames.clone();
        flipped[second.frames.len() / 2] ^= 0x40;
        let torn = Message::SnapshotBlocks(SnapshotRun {
            frames: flipped,
            ..second.clone()
        });

        let mut u = Upstream::new("runs", Some(9), 0);
        assert_eq!(u.send(runs[1].clone()), REJECT);
        for stray in [
            runs[0].clone(),
            runs[2].clone(),
            foreign,
            run(9, &removals(1)),
            torn,
        ] {
            u.reconnect(SessionEnd::Reject);
            assert_eq!(u.send(runs[0].clone()), Ok(true));
            assert_eq!(u.send(stray.clone()), REJECT, "{stray:?}");
        }
        u.reconnect(SessionEnd::Reject);
        for run in &runs {
            assert_eq!(u.send(run.clone()), Ok(true));
        }
        assert_eq!(u.received(), [ack(lsn)]);
        let stats = u.stats();
        assert_eq!(
            (stats.applied_lsn, stats.bootstraps, stats.phase),
            (lsn, 1, CatchingUp)
        );
        assert_eq!(u.replica.epoch(), 2, "the head's history is adopted");
        assert_eq!(u.send(runs[1].clone()), REJECT, "the snapshot is spent");
    }

    /// A bootstrap whose session ends mid-snapshot leaves the replica's
    /// snapshot and segments as they were, byte for byte, and no temp
    /// file; a temp file a crash left is removed when the replica opens.
    #[test]
    fn a_bootstrap_cut_mid_snapshot_leaves_the_old_files_and_no_temp_file() {
        const TEMP: &str = "incoming.snap.tmp";
        let (_, runs) = snapshot_runs("cut-leader", 300);
        let mut u = Upstream::new("cut", Some(9), 0);
        let before = files(&u.dir);
        let names: Vec<&String> = before.keys().collect();
        assert!(names.iter().any(|n| n.ends_with(".snap")), "{names:?}");
        assert!(names.iter().any(|n| n.ends_with(".log")), "{names:?}");
        for run in &runs[..2] {
            assert_eq!(u.send(run.clone()), Ok(true));
        }
        assert!(
            files(&u.dir).contains_key(TEMP),
            "the bootstrap is under way"
        );
        u.reconnect(SessionEnd::Disconnected);
        assert_eq!(files(&u.dir), before);
        assert_eq!(u.stats().applied_lsn, 9);

        std::fs::write(u.dir.join(TEMP), b"left by a crash").unwrap();
        let again = Upstream::open(u.dir.clone(), 0);
        assert_eq!(files(&again.dir), before);
        assert_eq!(again.stats().applied_lsn, 9);
    }

    /// A log run applies whole or not at all: one cut from another
    /// segment format, a short or torn one, one past a gap in the
    /// watermark and one before any state are refused, and none of their
    /// records is applied. Each refusal counts as a rejected message and
    /// a resync.
    #[test]
    fn a_log_run_is_refused_whole_unless_clean_complete_and_contiguous() {
        let records = removals(2);
        let mut good = Upstream::new("run-good", Some(4), 0);
        assert_eq!(good.send(run(4, &records)), Ok(true));
        assert_eq!(good.received(), [hello(4, true, 1), ack(6)]);
        let frames = frames_of(&records);
        let torn = frames[..frames.len() - 1].to_vec();
        let v = SEGMENT_VERSION;
        for (i, (count, version, frames, applied)) in [
            (2, 1, frames.clone(), 4),
            (2, v - 1, frames.clone(), 4),
            (2, v + 1, frames.clone(), 4),
            (3, v, frames.clone(), 4),
            (2, v, torn, 4),
            (2, v, frames.clone(), 3),
        ]
        .into_iter()
        .enumerate()
        {
            let mut u = Upstream::new(&format!("run-bad-{i}"), Some(applied), 0);
            let start_lsn = 4;
            let blocks = Message::Blocks(RawChunk {
                start_lsn,
                records: count,
                version,
                frames,
            });
            let case = format!("count {count}, version {version}, applied {applied}");
            assert_eq!(u.send(blocks), REJECT, "{case}");
            u.worker.end(&mut u.link, SessionEnd::Reject);
            let out = u.stats();
            assert_eq!((out.rejected_messages, out.resyncs), (1, 1), "{case}");
            assert_eq!(
                (out.records_applied, out.applied_lsn),
                (0, applied),
                "{case}"
            );
        }
        let mut fresh = Upstream::new("run-fresh", None, 0);
        assert_eq!(fresh.send(run(0, &records)), REJECT);
    }

    /// A `LeaderEpoch` record joins the history as it applies. One that
    /// contradicts the history ends the session once the records before
    /// it are applied, with no ack.
    #[test]
    fn a_conflicting_epoch_claim_applies_the_run_up_to_it_then_resyncs() {
        let mut u = Upstream::new("conflict", Some(4), 0);
        let seal = WalRecord::LeaderEpoch { epoch: 2 };
        assert_eq!(u.send(run(4, &[remove(1), seal.clone()])), Ok(true));
        assert_eq!(u.received(), [hello(4, true, 1), ack(6)]);
        let mut sealed = EpochHistory::new();
        sealed.observe(2, 5).unwrap();
        assert_eq!(*u.replica.node.epochs(), sealed);

        assert_eq!(u.send(run(6, &[remove(2), seal, remove(3)])), REJECT);
        assert_eq!(u.received(), [], "no ack");
        assert_eq!(u.stats().applied_lsn, 7);
        assert_eq!(*u.replica.node.epochs(), sealed);
    }

    /// A local snapshot is due every `snapshot_every` records past the
    /// last one taken, and a failed one is tried again after the next
    /// run; every run is acked either way. A run whose log write fails
    /// partway publishes what was logged before the failure and ends the
    /// session for good, with no ack and no snapshot; the failure is
    /// sticky, so the run sent again once the disk is fine is refused,
    /// and nothing moves.
    #[test]
    fn local_snapshots_follow_the_cadence_and_retry_a_failure() {
        let mut u = Upstream::new("cadence", Some(0), 4);
        let dir = u.dir.clone();
        // A directory where the snapshot at 4 would be staged fails it.
        let blocked = dir.join(format!("{}.tmp", snapshot_file_name(4)));
        std::fs::create_dir(&blocked).unwrap();
        let mut taken = |start, records, lsn| {
            assert_eq!(u.send(run(start, &removals(records))), Ok(true));
            assert_eq!(u.received().last(), Some(&ack(lsn)));
            u.stats().snapshots_taken
        };
        assert_eq!(taken(0, 3, 3), 0);
        assert_eq!(taken(3, 1, 4), 0, "the snapshot at 4 failed");
        std::fs::remove_dir(&blocked).unwrap();
        assert_eq!(taken(4, 1, 5), 1, "it is taken at 5");
        assert_eq!(taken(5, 3, 8), 1);
        assert_eq!(taken(8, 1, 9), 2);
        let lsns: Vec<u64> = list_snapshots(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(lsns, [0, 5, 9], "retention 3");

        // Directories under every name the next segment could take: the
        // log's rotation fails partway through the run.
        let squatters: Vec<PathBuf> = (9..2_000)
            .map(|lsn| dir.join(segment_file_name(lsn)))
            .collect();
        for squatter in &squatters {
            std::fs::create_dir(squatter).unwrap();
        }
        let long_run = run(9, &removals(1_500));
        assert_eq!(u.send(long_run.clone()), Err(SessionEnd::LogFailed));
        assert_eq!(u.received(), [], "no ack");
        assert!(u.worker.end(&mut u.link, SessionEnd::LogFailed), "for good");
        let failed = u.stats();
        assert_eq!(failed.phase, ReplicaPhase::Failed);
        // The run starts at 9: the blocks logged before the failing
        // rotation are published, not dropped with the rest.
        assert!(
            (10..1_509).contains(&failed.applied_lsn),
            "published what was logged: {failed}"
        );
        assert_eq!(failed.records_applied, failed.applied_lsn);
        assert_eq!(failed.snapshots_taken, 2);
        for squatter in &squatters {
            std::fs::remove_dir(squatter).unwrap();
        }
        u.redial();
        assert_eq!(u.send(long_run), Err(SessionEnd::LogFailed));
        assert_eq!(u.received(), [], "no ack");
        let refused = u.stats();
        assert_eq!(
            (
                refused.applied_lsn,
                refused.records_applied,
                refused.resyncs
            ),
            (failed.applied_lsn, failed.records_applied, failed.resyncs),
            "nothing moved: {refused}"
        );
    }

    /// A landmark whose name no LZ pass shrinks, too large to share a
    /// 512-byte segment with any other block: logging it rotates the log.
    fn bulky_landmark(id: u64) -> WalRecord {
        let mut x = id;
        let name = (0..600)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                char::from(b'a' + (x >> 59) as u8 % 26)
            })
            .collect::<String>();
        let at = modb_geom::Point::new(5.0, 0.0);
        WalRecord::InsertStationary(modb_core::StationaryObject::new(ObjectId(id), name, at))
    }

    /// A failed log stays failed until the replica is reopened: the run
    /// whose rotation failed is not acked and ends the session for good
    /// (phase `Failed`, no resync or reject counted), the same run sent
    /// again once the disk is fine is refused with no ack and no
    /// watermark move, and a promotion returns the log's error and writes
    /// no seal. Reopened,
    /// the replica recovers exactly the acked prefix, and the next record
    /// it is shipped lands at the leader's LSN.
    #[test]
    fn a_failed_log_stays_failed_until_the_replica_is_reopened() {
        let mut u = Upstream::new("sticky", Some(4), 0);
        assert_eq!(u.send(run(4, &removals(2))), Ok(true));
        assert_eq!(u.received(), [hello(4, true, 1), ack(6)]);
        let acked = u.replica.database().with_read(Database::clone);

        let squatters: Vec<PathBuf> = (6..9)
            .map(|lsn| u.dir.join(segment_file_name(lsn)))
            .collect();
        for squatter in &squatters {
            std::fs::create_dir(squatter).unwrap();
        }
        let bulky = run(6, &[bulky_landmark(50)]);
        assert_eq!(u.send(bulky.clone()), Err(SessionEnd::LogFailed));
        assert_eq!(u.received(), [], "no ack");
        assert!(u.worker.end(&mut u.link, SessionEnd::LogFailed), "for good");
        let failed = u.stats();
        assert_eq!(
            (failed.applied_lsn, failed.phase),
            (6, ReplicaPhase::Failed)
        );
        assert_eq!((failed.resyncs, failed.rejected_messages), (0, 0));
        for squatter in &squatters {
            std::fs::remove_dir(squatter).unwrap();
        }
        u.redial();
        assert_eq!(u.send(bulky), Err(SessionEnd::LogFailed));
        assert_eq!(u.received(), [], "no ack");
        assert_eq!(u.send(run(6, &removals(1))), Err(SessionEnd::LogFailed));
        assert_eq!(u.received(), [], "no ack");
        assert_eq!(u.stats().applied_lsn, 6, "no watermark move");

        let err = u.replica.promote_with(u.worker.log.clone()).unwrap_err();
        assert!(err.to_string().contains("failed earlier"), "{err}");
        assert_eq!(u.replica.epoch(), 1);

        let mut again = Upstream::open(u.dir.clone(), 0);
        assert_eq!(again.received(), [hello(6, true, 1)], "no seal was written");
        again.replica.database().with_read(|db| {
            assert_eq!(db.stationary_count(), acked.stationary_count());
            assert_eq!(db.moving_count(), acked.moving_count());
            for id in (0..6).map(ObjectId) {
                assert_eq!(db.moving(id).ok(), acked.moving(id).ok(), "{id:?}");
            }
        });
        assert_eq!(again.send(run(6, &[bulky_landmark(50)])), Ok(true));
        assert_eq!(again.received(), [ack(7)]);
        let recovered = modb_wal::recover(&again.dir).unwrap();
        assert_eq!(recovered.report.next_lsn, 7);
        assert_eq!(recovered.database.stationary_count(), 1);
    }

    /// A promotion names a worker that panicked, instead of taking the
    /// replica for one that never bootstrapped.
    #[test]
    fn promote_reports_a_panicked_worker() {
        let dir = scratch("panicked");
        logged(&dir, 2);
        let clock = Arc::new(VirtualClock::new());
        let (mut replica, worker) =
            StandbyReplica::open_with(&dir, "upstream", replica_config(), clock).unwrap();
        replica.worker = Some(std::thread::spawn(move || -> Option<DurableDatabase> {
            let _log = worker.into_log();
            panic!("the worker's own bug")
        }));
        let err = replica.promote().unwrap_err();
        assert!(err.to_string().contains("worker panicked"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A dial that never answers holds `promote` up for one bounded dial
    /// and one backoff at most. The upstream's host dies without a reset;
    /// the operator asks for the promotion while the worker's next dial
    /// waits on it, and the worker stops once that dial gives up — it
    /// does not dial again.
    #[test]
    fn promote_waits_out_at_most_one_bounded_dial() {
        let mut c = Cluster::new("dial", 1);
        let leader = c.leader(2);
        c.serve("leader", &leader);
        let f = c.follow("f", "leader");
        let frontier = leader.wal().next_lsn();
        c.run_until("the bootstrap", |c| c.replica(f).applied_lsn() >= frontier);
        c.kill("leader");
        let (replica, worker) = c.take(f);
        let clock = c.clock();
        let asked = Cell::new(None);
        let log = worker.run(|_upstream: &str| -> Result<MemLink<Message>, WalError> {
            asked.set(Some(clock.now()));
            replica.shared.stop.store(true, Ordering::SeqCst);
            clock.sleep_until(clock.now() + DIAL_TIMEOUT);
            Err(WalError::Io(std::io::ErrorKind::TimedOut.into()))
        });
        let promoted = replica.promote_with(log).unwrap();
        let waited = clock.now() - asked.get().expect("the worker dialed");
        assert!(
            waited <= DIAL_TIMEOUT + RECONNECT_BACKOFF,
            "promote waited {waited:?}"
        );
        assert_eq!(
            (promoted.epoch(), promoted.wal().next_lsn()),
            (2, frontier + 1)
        );
    }

    /// A virtual clock that counts the times it is read.
    #[derive(Debug)]
    struct Counted {
        clock: VirtualClock,
        reads: AtomicUsize,
    }

    impl Clock for Counted {
        fn now(&self) -> Instant {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.clock.now()
        }

        fn sleep_until(&self, deadline: Instant) {
            self.clock.sleep_until(deadline);
        }
    }

    /// A wait begun on a standby ends on the log it leads once promoted.
    /// A reader waits for two records past the watermark; the standby is
    /// promoted (its seal is the first) and the promotee registers two
    /// vehicles; the wait ends as soon as the log holds the second
    /// record, long before its timeout.
    #[test]
    fn a_wait_begun_before_promote_ends_on_the_promoted_log() {
        const TIMEOUT: Duration = Duration::from_secs(10);
        let dir = scratch("waiter");
        logged(&dir, 2);
        let clock = Arc::new(Counted {
            clock: VirtualClock::new(),
            reads: AtomicUsize::new(0),
        });
        let (replica, worker) =
            StandbyReplica::open_with(&dir, "upstream", replica_config(), clock.clone()).unwrap();
        let (watch, watermark) = (replica.watch(), replica.applied_lsn());
        let read_before = clock.reads.load(Ordering::SeqCst);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let started = Instant::now();
                let reached = watch.wait_for_lsn(watermark + 2, TIMEOUT);
                (reached, started.elapsed())
            });
            // The waiter reads the clock for its deadline, then again
            // under the lock it parks with, which the promotion's wake-up
            // takes: the promotion finds it parked.
            while clock.reads.load(Ordering::SeqCst) < read_before + 2 {
                std::thread::yield_now();
            }
            let promoted = replica.promote_with(worker.into_log()).unwrap();
            assert_eq!(promoted.wal().next_lsn(), watermark + 1, "the seal");
            for id in [10, 11] {
                promoted.register_moving(vehicle(id, id as f64)).unwrap();
            }
            let (reached, waited) = waiter.join().unwrap();
            assert!(reached, "the wait missed the promoted log's records");
            assert!(waited < TIMEOUT / 4, "the wait took {waited:?}");
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The worker falls behind (a heartbeat raises the frontier), then
    /// catches up (a run applied); a reader spinning on the watermark —
    /// what a floored read does — must find the lag clock already
    /// cleared the instant it sees the new watermark. With the clock
    /// settled after the watermark was published, the reader could win
    /// the race and price a lag the follower no longer had.
    #[test]
    fn lag_clock_is_settled_before_the_watermark_is_visible() {
        const ROUNDS: u64 = 200_000;
        /// Spins, giving the core away now and then so a single-core
        /// machine still makes progress.
        fn wait_until(cond: impl Fn() -> bool) {
            let mut spins = 0u32;
            while !cond() {
                spins += 1;
                if spins.is_multiple_of(128) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        let t0 = Instant::now();
        let published = Published::new(0, t0);
        let shared = Watermark::new(published, Arc::new(WallClock));
        let seen = AtomicU64::new(0);
        let stale_clocks = std::thread::scope(|s| {
            s.spawn(|| {
                let mut p = published;
                for lsn in 1..=ROUNDS {
                    let now = Instant::now();
                    (p.stats.applied_lsn, p.stats.leader_lsn) = (lsn - 1, lsn);
                    p.clock.contact(lsn - 1, lsn, now); // behind: the clock starts
                    shared.publish(p);
                    p.stats.applied_lsn = lsn;
                    p.clock.contact(lsn, lsn, now); // caught up
                    shared.publish(p);
                    wait_until(|| seen.load(Ordering::SeqCst) == lsn);
                }
            });
            let mut stale_clocks = 0u64;
            for lsn in 1..=ROUNDS {
                wait_until(|| shared.applied() == lsn);
                stale_clocks += u64::from(shared.lag() != Duration::ZERO);
                seen.store(lsn, Ordering::SeqCst);
            }
            stale_clocks
        });
        assert_eq!(
            stale_clocks, 0,
            "caught-up watermarks seen with the lag clock still running"
        );
    }
}
