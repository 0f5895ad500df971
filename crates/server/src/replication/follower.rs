//! The warm standby: a [`StandbyReplica`] connects to a leader, replays
//! its WAL stream into a local [`SharedDatabase`] (through the same
//! [`modb_wal::apply_record`] seam recovery uses), and persists what it
//! applies to its own durability directory so a restart resumes from the
//! local snapshot + cursor instead of re-bootstrapping.
//!
//! One worker thread runs the replica's sessions, one after another:
//! `Connecting → Bootstrapping | CatchingUp ⇄ Steady`, back to
//! `Connecting` on a disconnect. It dials with a bound
//! ([`TcpLink::dial`]), so a dead upstream host cannot hold up
//! [`StandbyReplica::promote`], and waits [`RECONNECT_BACKOFF`] between
//! sessions. The worker is a shell around a
//! [`FollowerSession`], the I/O-free machine that writes the `Hello`,
//! checks every run (one segment format, clean, complete, contiguous with
//! the applied watermark, duplicates below it skipped, each snapshot run
//! continuing the one before), keeps the lag clock and decides the phase,
//! the acks and the local snapshot cadence. Every hazard resolves to
//! "reject and re-sync, never apply a torn record". The shell does the
//! I/O, in step functions over a [`Link`] and a [`Clock`]
//! ([`Worker::connect`], [`Worker::step`], [`Worker::end`]): it reads
//! the link, applies each record through
//! [`modb_wal::apply_record`] before logging it, and builds a bootstrap
//! snapshot through a [`SnapshotLoad`] and a temp file. The replica's
//! previous state and files serve on untouched until the snapshot's last
//! record has validated; a session that ends first drops the half-built
//! snapshot. The leadership history comes with it: the snapshot's head
//! carries every epoch begun below its LSN, adopted in the same swap as
//! the database, and each `LeaderEpoch` seal shipped afterwards is folded
//! in as it is applied. Nothing but the log records it.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modb_core::{Database, DatabaseConfig};
use modb_routes::{Route, RouteNetwork};
use modb_wal::segment::encode_header;
use modb_wal::snapshot::snapshot_file_name;
use modb_wal::{
    apply_record, list_segments, list_snapshots, EpochHistory, SharedWal, SnapshotLoad, WalError,
    WalOptions, WalRecord, WalWriter, DEFAULT_SNAPSHOT_RETENTION,
};

use crate::durable::DurableDatabase;
use crate::framed::{ReadEvent, READ_TIMEOUT};
use crate::net::{QueryServer, QueryServerConfig};
use crate::query_engine::QueryEngine;
use crate::replication::horizon::ShipHorizon;
use crate::replication::leader::{serve_replication_from, ReplicationServer, ShipContext};
use crate::replication::link::{Clock, Link, TcpLink, WallClock};
use crate::replication::session::{
    FollowerAction, FollowerEvent, FollowerSession, Published, SessionEnd,
};
use crate::replication::ReplicationConfig;
use crate::shared::SharedDatabase;

/// Pause between a replica's reconnect attempts.
pub(crate) const RECONNECT_BACKOFF: Duration = Duration::from_millis(25);

/// Tuning for a [`StandbyReplica`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Options for the replica's own log (what it applies, it persists).
    pub wal: WalOptions,
    /// Take a local snapshot every this many applied records (0 = only
    /// the bootstrap snapshot). Local snapshots bound restart replay and
    /// feed the local compaction pass.
    pub snapshot_every: u64,
    /// Snapshot retention for the local compaction pass.
    pub snapshot_retention: usize,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            wal: WalOptions::default(),
            snapshot_every: 0,
            snapshot_retention: DEFAULT_SNAPSHOT_RETENTION,
        }
    }
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
    /// Terminal: this replica was promoted to a leader
    /// ([`StandbyReplica::promote`]); the watermark now tracks the local
    /// WAL frontier.
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

#[derive(Debug)]
struct Shared {
    /// What the worker's session machine last published. The watermark
    /// in it is what reads floor against, and the lag clock and stats
    /// that go with it change under the same lock: a reader that sees
    /// `applied ≥ floor` also sees the clock of that contact, or a
    /// caught-up follower would widen one answer by a lag it no longer
    /// has.
    published: Mutex<Published>,
    published_cv: Condvar,
    stop: AtomicBool,
    /// Raised by [`StandbyReplica::repoint`]: the live session ends and
    /// the worker re-dials.
    reconnects: AtomicUsize,
    /// Which upstream the worker dials; [`StandbyReplica::repoint`]
    /// swaps it so a surviving follower can chase a promoted standby
    /// without re-bootstrapping.
    addr: Mutex<String>,
    /// The leadership-epoch history of the local log (as recovered, then
    /// as bootstrapped and applied), shared with the re-shipping server
    /// so a post-promotion handshake sees the new epoch.
    epochs: Arc<Mutex<EpochHistory>>,
    /// Set by [`StandbyReplica::promote`]: the local WAL this node now
    /// leads. Once set, the watermark, lag, and frontier views all
    /// delegate here — every live consumer of this `Shared` (the
    /// follower query front-end, the re-shipping `Frontier`, watches)
    /// tracks the new leader's log without restarting.
    promoted: Mutex<Option<SharedWal>>,
    /// What the lag, the watermark waits and the worker read the time
    /// from.
    clock: Arc<dyn Clock>,
}

impl Shared {
    fn new(
        published: Published,
        addr: String,
        epochs: EpochHistory,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Shared {
            published: Mutex::new(published),
            published_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            reconnects: AtomicUsize::new(0),
            addr: Mutex::new(addr),
            epochs: Arc::new(Mutex::new(epochs)),
            promoted: Mutex::new(None),
            clock,
        }
    }

    /// The local leadership history, locked.
    fn epochs(&self) -> MutexGuard<'_, EpochHistory> {
        self.epochs.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn published(&self) -> MutexGuard<'_, Published> {
        self.published.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Swaps in what the session machine published and wakes the
    /// watermark's waiters.
    fn publish(&self, published: Published) {
        *self.published() = published;
        self.published_cv.notify_all();
    }

    fn promoted_wal(&self) -> Option<SharedWal> {
        self.promoted
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn applied(&self) -> u64 {
        if let Some(wal) = self.promoted_wal() {
            return wal.next_lsn();
        }
        self.published().stats.applied_lsn
    }

    fn lag(&self) -> Duration {
        // A promoted node is the frontier — there is nothing upstream to
        // trail, so its served answers carry no staleness widening.
        if self.promoted_wal().is_some() {
            return Duration::ZERO;
        }
        self.published().clock.lag_at(self.clock.now())
    }

    fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = self.clock.now() + timeout;
        // Post-promotion the watermark is the WAL frontier, which no
        // condvar tracks — poll it in short slices instead.
        if let Some(wal) = self.promoted_wal() {
            loop {
                if wal.next_lsn() >= lsn {
                    return true;
                }
                let now = self.clock.now();
                if now >= deadline {
                    return false;
                }
                self.clock.sleep_until(now + Duration::from_millis(1));
            }
        }
        let mut g = self.published();
        while g.stats.applied_lsn < lsn {
            let now = self.clock.now();
            if now >= deadline {
                return false;
            }
            let (ng, waited) = self
                .published_cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = ng;
            if waited.timed_out() {
                // The wall clock is past the deadline already; a virtual
                // one is moved there.
                self.clock.sleep_until(deadline);
            }
        }
        true
    }
}

/// A cheap, cloneable view of a replica's replication progress, detached
/// from the [`StandbyReplica`] handle so the follower's query front-end
/// ([`StandbyReplica::serve_queries`]) can consult the watermark from its
/// session threads.
#[derive(Debug, Clone)]
pub struct ReplicaWatch {
    shared: Arc<Shared>,
}

impl ReplicaWatch {
    /// The applied watermark (see [`StandbyReplica::applied_lsn`]).
    pub fn applied_lsn(&self) -> u64 {
        self.shared.applied()
    }

    /// The upstream frontier from the last heartbeat (0 before the
    /// first).
    pub fn leader_lsn(&self) -> u64 {
        self.shared.published().stats.leader_lsn
    }

    /// The age of the replica's last contact with a caught-up upstream
    /// — zero within [`crate::LagClock::CONTACT_WINDOW`] of it, unless a
    /// later contact found the replica behind — the `Δ` that widens
    /// served answers by `2·v_max·Δ`.
    pub fn lag(&self) -> Duration {
        self.shared.lag()
    }

    /// Blocks until the applied watermark reaches `lsn` or the timeout
    /// elapses; `true` when reached.
    pub fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        self.shared.wait_for_lsn(lsn, timeout)
    }
}

/// A warm standby follower of one leader. See the module docs for the
/// state machine; see [`crate::DurableDatabase::serve_replication`] for
/// the other end.
#[derive(Debug)]
pub struct StandbyReplica {
    db: SharedDatabase,
    dir: PathBuf,
    config: ReplicaConfig,
    shared: Arc<Shared>,
    horizon: Arc<ShipHorizon>,
    worker: Option<JoinHandle<()>>,
}

impl StandbyReplica {
    /// Opens (or resumes) a replica in `dir` following the leader at
    /// `addr`. A directory holding a usable snapshot is recovered
    /// locally first — the session then resumes from the recovered
    /// watermark instead of re-bootstrapping. A fresh directory starts
    /// empty and waits for the leader's bootstrap snapshot.
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
        replica.worker = Some(std::thread::spawn(move || worker.run(TcpLink::dial)));
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
        std::fs::create_dir_all(&dir)?;
        let have_state = !list_snapshots(&dir)?.is_empty();
        let (db, epochs, wal, applied) = if have_state {
            let recovered = modb_wal::recover(&dir)?;
            let applied = recovered.report.next_lsn;
            let writer = WalWriter::resume(&dir, config.wal, applied)?;
            (recovered.database, recovered.epochs, Some(writer), applied)
        } else {
            (placeholder_database(), EpochHistory::new(), None, 0)
        };
        let db = SharedDatabase::new(db);
        let session =
            FollowerSession::new(applied, epochs.clone(), config.snapshot_every, clock.now());
        let shared = Arc::new(Shared::new(session.published(), addr, epochs, clock));
        let horizon = Arc::new(ShipHorizon::new());
        let worker = Worker {
            dir: dir.clone(),
            config: config.clone(),
            db: db.clone(),
            shared: Arc::clone(&shared),
            horizon: Arc::clone(&horizon),
            wal,
            incoming: None,
            session,
            reconnects: 0,
        };
        let replica = StandbyReplica {
            db,
            dir,
            config,
            shared,
            horizon,
            worker: None,
        };
        Ok((replica, worker))
    }

    /// The replica's queryable database handle. Reads here see the
    /// applied watermark — a position answer is as stale as the
    /// replication lag, which widens the paper's deviation bound by at
    /// most `D·dt` (DESIGN.md §10).
    pub fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// The applied watermark: every record with `lsn <` this is in the
    /// local state.
    pub fn applied_lsn(&self) -> u64 {
        self.shared.applied()
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> ReplicaPhase {
        self.shared.published().stats.phase
    }

    /// Blocks until the applied watermark reaches `lsn` or the timeout
    /// elapses; `true` when reached.
    pub fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        self.shared.wait_for_lsn(lsn, timeout)
    }

    /// A detached, cloneable view of this replica's progress (watermark,
    /// upstream frontier, lag clock) for the query front-end's session
    /// threads.
    pub fn watch(&self) -> ReplicaWatch {
        ReplicaWatch {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The horizon of this replica's own downstream followers (empty
    /// unless [`StandbyReplica::serve_replication`] is running) — the
    /// barrier its local compaction pass honors.
    pub fn ship_horizon(&self) -> &Arc<ShipHorizon> {
        &self.horizon
    }

    /// The replica's durability directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Starts a query front-end on this follower: remote clients get the
    /// same CRC-framed protocol a leader serves, with three follower
    /// twists (DESIGN.md §15). A `Batch` whose read-your-writes token
    /// outruns the applied watermark waits up to
    /// [`QueryServerConfig::stale_deadline`] and then gets a typed
    /// `Stale { applied, required }` instead of a hang (a statement's
    /// clone, taken after the wait, holds every record below the floor);
    /// and every served answer is widened by the lag-derived
    /// `2·v_max·Δ` term, so a stale follower's imprecision is priced
    /// honestly (§3.3 of the paper). `engine` must be built on this
    /// replica's database ([`StandbyReplica::database`]).
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
        crate::net::serve_follower_queries(
            engine,
            self.watch(),
            Arc::clone(&self.horizon),
            addr,
            config,
        )
    }

    /// Re-ships this replica's received WAL to downstream followers —
    /// the chaining seam. The local log holds verbatim copies of the
    /// leader's records (apply-before-log), so the same
    /// [`modb_wal::SegmentTailer`] machinery the leader uses tails it
    /// here; the shipped frontier is this replica's *applied* watermark,
    /// and downstream acknowledgements pin the local compaction pass
    /// through [`StandbyReplica::ship_horizon`]. A bootstrap (timeline
    /// replacement) wipes local segments regardless — downstream
    /// sessions then error out and re-bootstrap from the new snapshot,
    /// exactly like a follower whose cursor fell behind compaction.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn serve_replication(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: ReplicationConfig,
    ) -> Result<ReplicationServer, WalError> {
        serve_replication_from(self.ship_context(config), addr)
    }

    /// What a session re-shipping this replica's log works from.
    pub(crate) fn ship_context(&self, config: ReplicationConfig) -> ShipContext {
        let shared = Arc::clone(&self.shared);
        ShipContext::new(
            self.dir.clone(),
            Box::new(move || shared.applied()),
            Arc::clone(&self.horizon),
            Arc::clone(&self.shared.epochs),
            config,
            Arc::clone(&self.shared.clock),
        )
    }

    /// Swaps the upstream this replica follows and drops the current
    /// session; the worker re-dials `new_addr` and resumes from the
    /// applied watermark (the promotee's log is a byte-identical copy of
    /// the stretch this replica already applied, so the handshake
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
        self.shared.published().diverged
    }

    /// The leadership epoch of the local log (1 until a promotion
    /// somewhere upstream has been observed).
    pub fn epoch(&self) -> u64 {
        self.shared.epochs().current()
    }

    /// Promotes this standby to a full leader. The operator picks the
    /// standby with the highest [`StandbyReplica::applied_lsn`] and
    /// [`StandbyReplica::repoint`]s the others at its re-ship address:
    /// a fresher peer repointed at a staler promotee is refused
    /// `Diverged`, never silently rewound.
    ///
    /// The apply loop is stopped at the applied watermark (applies are
    /// atomic per shipped run, so the watermark lands on a run
    /// boundary), a new leadership epoch starting at that watermark is
    /// sealed into the local WAL as a
    /// [`modb_wal::WalRecord::LeaderEpoch`] record — its sync is the
    /// commit point of the promotion — and the replica's database, log,
    /// and ship horizon are rewrapped as a [`DurableDatabase`] that
    /// accepts acked ingest.
    ///
    /// Everything chained off this replica keeps working across the
    /// switch: a running [`StandbyReplica::serve_replication`] keeps
    /// shipping (its frontier now tracks the WAL, its epoch state shows
    /// the new epoch, and downstream followers repointed here resume
    /// from their applied LSN); a running
    /// [`StandbyReplica::serve_queries`] front-end keeps answering (its
    /// watch now reports the WAL frontier with zero lag — the promotee
    /// is the new session-token source); and the shared ship horizon
    /// keeps pinning compaction for downstream acks. A revived old
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
    /// bootstrap (there is no state to lead from); I/O failures sealing
    /// the log.
    pub fn promote(mut self) -> Result<DurableDatabase, WalError> {
        // Stop the apply loop first: the watermark is final after this.
        self.stop_and_join();
        if let Some(d) = self.divergence() {
            return Err(WalError::Io(std::io::Error::other(format!(
                "replica diverged: epoch {} refused its log past lsn {} (local frontier {}); \
                 promote a standby on the refusing timeline instead",
                d.leader_epoch, d.boundary_lsn, d.local_next_lsn
            ))));
        }
        if list_snapshots(&self.dir)?.is_empty() {
            return Err(WalError::NoSnapshot(self.dir.clone()));
        }
        let applied = self.shared.applied();
        // The worker owned the writer and dropped it on exit; reclaim
        // the log at the watermark (recovery already ran at open, and
        // the worker never logs past what it applies).
        let mut writer = WalWriter::resume(&self.dir, self.config.wal, applied)?;
        // The seal record's sync is the commit point: a crash before it
        // reopens on the old epoch at the same frontier, and nothing can
        // have been acked under the new one. Memory follows the disk.
        let mut sealed = self.shared.epochs().clone();
        let epoch = sealed.begin(applied)?;
        writer.append(&WalRecord::LeaderEpoch { epoch })?;
        writer.sync()?;
        *self.shared.epochs() = sealed;
        let wal = SharedWal::new(writer);
        // Flip every live view of this replica over to the new log: the
        // watermark, lag clock, and re-ship frontier all delegate to the
        // WAL from here on.
        *self
            .shared
            .promoted
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(wal.clone());
        let mut published = *self.shared.published();
        published.stats.applied_lsn = wal.next_lsn();
        published.stats.phase = ReplicaPhase::Promoted;
        self.shared.publish(published); // wakes the watermark's waiters
        Ok(DurableDatabase::from_parts(
            self.db.clone(),
            wal,
            self.dir.clone(),
            Arc::clone(&self.horizon),
            Arc::clone(&self.shared.epochs),
        ))
    }

    /// Current progress counters.
    pub fn stats(&self) -> ReplicaStatsSnapshot {
        let mut stats = self.shared.published().stats;
        stats.applied_lsn = self.shared.applied();
        stats.lag_records = stats.leader_lsn.saturating_sub(stats.applied_lsn);
        stats
    }

    /// Stops the worker, closes the session, and returns the final
    /// stats. The local directory keeps the applied state — a later
    /// [`StandbyReplica::open`] resumes from it.
    pub fn shutdown(mut self) -> ReplicaStatsSnapshot {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StandbyReplica {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A replica with no state yet: an empty network, default config. The
/// bootstrap snapshot replaces all of it (network, config, objects).
fn placeholder_database() -> Database {
    let network = RouteNetwork::from_routes(Vec::<Route>::new()).expect("empty network is valid");
    Database::new(network, DatabaseConfig::default())
}

/// The replica's shell: the session machine, the database, the local
/// log and the bootstrap under way, stepped over one link at a time.
pub(crate) struct Worker {
    dir: PathBuf,
    config: ReplicaConfig,
    db: SharedDatabase,
    shared: Arc<Shared>,
    /// Downstream followers chained off this replica; their lowest ack
    /// is the barrier the local compaction pass must not cross.
    horizon: Arc<ShipHorizon>,
    wal: Option<WalWriter>,
    /// The bootstrap snapshot arriving in this session, if any: the load
    /// its frames are applied to, and the temp file they are written to.
    incoming: Option<(SnapshotLoad, File)>,
    session: FollowerSession,
    /// The repoint count the live session opened under.
    reconnects: usize,
}

impl Worker {
    /// The worker thread: `dial` the current upstream, step a session on
    /// it to its end, back off, and again — until the replica stops or a
    /// session ends for good.
    pub(crate) fn run<L: Link>(mut self, mut dial: impl FnMut(&str) -> Result<L, WalError>) {
        let clock = Arc::clone(&self.shared.clock);
        while !self.shared.stop.load(Ordering::SeqCst) {
            // Re-read the dial target every attempt: a repoint swaps it
            // while the worker runs, and the next connect chases the new
            // upstream (the promoted standby) from the applied watermark.
            if let Ok(mut link) = dial(&self.upstream()) {
                let mut live = self.connect(&mut link);
                while live.is_ok() {
                    live = self.step(&mut link, clock.now() + READ_TIMEOUT).map(drop);
                }
                if let Err(end) = live {
                    if self.end(&mut link, end) {
                        break;
                    }
                }
            }
            clock.sleep_until(clock.now() + RECONNECT_BACKOFF);
        }
    }

    /// The upstream this worker dials next.
    pub(crate) fn upstream(&self) -> String {
        let addr = self.shared.addr.lock();
        addr.unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Opens a session on a fresh `link`: the machine writes its `Hello`.
    pub(crate) fn connect(&mut self, link: &mut impl Link) -> Result<(), SessionEnd> {
        self.reconnects = self.shared.reconnects.load(Ordering::SeqCst);
        let have_state = self.wal.is_some();
        self.feed(link, FollowerEvent::Connected { have_state })
    }

    /// One step of a live session: the replica's handle first (a stop or
    /// a repoint ends the session), then at most one message, waited for
    /// until `deadline`, for the machine. `Ok(false)` when nothing
    /// arrived; `Err` once the session is over.
    pub(crate) fn step(
        &mut self,
        link: &mut impl Link,
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
                self.feed(link, FollowerEvent::Message(msg)).map(|()| true)
            }
            Ok(ReadEvent::Idle) => Ok(false),
            Ok(ReadEvent::Closed) => Err(SessionEnd::Disconnected),
            // Framing lost (bad length / CRC / undecodable message): drop
            // the connection and renegotiate.
            Err(_) => Err(SessionEnd::Resync),
        }
    }

    /// Closes a session that ended with `end`: the machine takes note, a
    /// bootstrap the session did not finish is dropped whole, and the
    /// link is shut. `true` when the replica must not reconnect.
    pub(crate) fn end(&mut self, link: &mut impl Link, end: SessionEnd) -> bool {
        let _ = self.feed(link, FollowerEvent::Ended(end));
        self.incoming = None;
        let _ = std::fs::remove_file(self.incoming_path());
        link.shutdown();
        matches!(end, SessionEnd::Shutdown | SessionEnd::Diverged(_))
    }

    /// Hands one event to the session machine and carries out its
    /// actions, feeding what they did back as events.
    fn feed(&mut self, link: &mut impl Link, event: FollowerEvent) -> Result<(), SessionEnd> {
        let clock = Arc::clone(&self.shared.clock);
        let mut actions = VecDeque::from(self.session.on(event, clock.now()));
        while let Some(action) = actions.pop_front() {
            let done = match action {
                FollowerAction::Send(msg) => {
                    link.send(&msg).map_err(|_| SessionEnd::Disconnected)?;
                    continue;
                }
                FollowerAction::SnapshotRun { lsn, first, frames } => {
                    let run = self.snapshot_run(lsn, first, &frames);
                    FollowerEvent::SnapshotRun(run.map_err(|_| ()))
                }
                FollowerAction::Append { lsn, records } => self.append(lsn, records),
                FollowerAction::Sync(lsn) => {
                    let ok = self.local_snapshot(lsn).is_ok();
                    FollowerEvent::Synced { lsn, ok }
                }
                FollowerAction::Epochs(history) => {
                    *self.shared.epochs() = history;
                    continue;
                }
                FollowerAction::Publish(published) => {
                    self.shared.publish(published);
                    continue;
                }
                FollowerAction::End(end) => return Err(end),
            };
            actions.extend(self.session.on(done, clock.now()));
        }
        Ok(())
    }

    /// Where an incoming bootstrap snapshot is written.
    fn incoming_path(&self) -> PathBuf {
        self.dir.join("incoming.snap.tmp")
    }

    /// Takes one run of a bootstrap snapshot (the first opens the load
    /// and the temp file): applies it and appends it; after the last,
    /// installs the snapshot and returns the leadership history its head
    /// carries.
    fn snapshot_run(
        &mut self,
        lsn: u64,
        first: bool,
        frames: &[u8],
    ) -> Result<Option<EpochHistory>, WalError> {
        let tmp = self.incoming_path();
        if first {
            let mut file = File::create(&tmp)?;
            file.write_all(&encode_header(lsn))?;
            self.incoming = Some((SnapshotLoad::new(&tmp), file));
        }
        let (load, file) = self
            .incoming
            .as_mut()
            .ok_or(WalError::Decode("snapshot run with no snapshot open"))?;
        let fed = load.feed(frames)?;
        file.write_all(frames)?;
        let Some((db, epochs)) = fed else {
            return Ok(None);
        };
        let (_, file) = self.incoming.take().expect("opened above");
        file.sync_data()?;
        // Local log and snapshots describe a dead timeline now.
        self.wal = None;
        for (_, path) in list_segments(&self.dir)?
            .into_iter()
            .chain(list_snapshots(&self.dir)?)
        {
            std::fs::remove_file(path)?;
        }
        std::fs::rename(&tmp, self.dir.join(snapshot_file_name(lsn)))?;
        self.wal = Some(WalWriter::resume(&self.dir, self.config.wal, lsn)?);
        self.db.replace(db);
        Ok(Some(epochs))
    }

    /// Applies and logs `records` from `lsn` on, each applied before it
    /// is logged — the leader's watermark invariant; acceptance verdicts
    /// are re-derived locally.
    fn append(&mut self, lsn: u64, records: Vec<WalRecord>) -> FollowerEvent {
        let mut next_lsn = lsn;
        let Some(wal) = self.wal.as_mut() else {
            return FollowerEvent::Applied {
                next_lsn,
                complete: false,
            };
        };
        for rec in records {
            self.db.with_write(|db| {
                let _accepted = apply_record(db, rec.clone());
            });
            // A record applied but not logged puts the in-memory state
            // ahead of the local log, which a restart would silently
            // lose: the session resyncs from the last logged record.
            if wal.append(&rec).is_err() {
                return FollowerEvent::Applied {
                    next_lsn,
                    complete: false,
                };
            }
            next_lsn += 1;
        }
        FollowerEvent::Applied {
            next_lsn,
            complete: true,
        }
    }

    /// A local snapshot at the applied watermark: the worker is the only
    /// writer, so the state is exactly the log prefix below `applied`.
    fn local_snapshot(&mut self, applied: u64) -> Result<(), WalError> {
        let wal = self.wal.as_mut().expect("snapshot only after bootstrap");
        wal.sync()?;
        let epochs = self.shared.epochs().clone();
        self.db.write_snapshot(&self.dir, &epochs, applied)?;
        // Chained followers tail this replica's local log: their lowest
        // acknowledged LSN is a barrier here exactly as it is on the
        // leader, so local compaction never deletes a segment a
        // downstream session still has to read.
        modb_wal::compact_with_barrier(
            &self.dir,
            self.config.snapshot_retention,
            self.horizon.min(),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::link::mem::MemLink;
    use crate::replication::link::DIAL_TIMEOUT;
    use crate::replication::sim::Cluster;
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64;

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
        worker.run(|_upstream: &str| -> Result<MemLink, WalError> {
            asked.set(Some(clock.now()));
            replica.shared.stop.store(true, Ordering::SeqCst);
            clock.sleep_until(clock.now() + DIAL_TIMEOUT);
            Err(WalError::Io(std::io::ErrorKind::TimedOut.into()))
        });
        let promoted = replica.promote().unwrap();
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
        let published = FollowerSession::new(0, EpochHistory::new(), 0, t0).published();
        let shared = Shared::new(
            published,
            String::new(),
            EpochHistory::new(),
            Arc::new(WallClock),
        );
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
