//! The warm standby: a [`StandbyReplica`] connects to a leader, replays
//! its WAL stream into a local [`SharedDatabase`] (through the same
//! [`modb_wal::apply_record`] seam recovery uses), and persists what it
//! applies to its own durability directory so a restart resumes from the
//! local snapshot + cursor instead of re-bootstrapping.
//!
//! State machine (one worker thread):
//!
//! ```text
//! Connecting ──connect──▶ Bootstrapping ──SnapshotBlocks──▶ CatchingUp
//!     ▲                        │ (skipped when local state resumes)
//!     │                        ▼
//!     └──── disconnect ──── CatchingUp ◀──lag──▶ Steady
//! ```
//!
//! Every hazard resolves to "reject and re-sync, never apply a torn
//! record": a `Blocks` run (verbatim segment frames, decompressed here
//! on apply) is decoded with the [`modb_wal::walk_blocks`] path
//! recovery uses and applied only if it names the one segment format,
//! is clean, complete, and contiguous with the applied watermark;
//! duplicates below the watermark are skipped
//! (idempotent re-delivery); anything else ends the session and the next
//! `Hello` renegotiates from the watermark.
//!
//! A bootstrap snapshot arrives as `SnapshotBlocks` runs, each of which
//! must continue the one before it; each is applied to a fresh database
//! through a [`SnapshotLoad`] and appended to a temp file. The replica's
//! previous state and files serve on untouched until the last record has
//! validated; a session that ends first drops the half-built snapshot.
//! The leadership history comes with it: the snapshot's head carries
//! every epoch begun below its LSN, adopted in the same swap as the
//! database, and each `LeaderEpoch` seal shipped afterwards is folded in
//! as it is applied. Nothing but the log records it.

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modb_core::{Database, DatabaseConfig};
use modb_routes::{Route, RouteNetwork};
use modb_wal::segment::{encode_header, SEGMENT_HEADER_BYTES};
use modb_wal::snapshot::snapshot_file_name;
use modb_wal::{
    apply_record, decode_block_frames, list_segments, list_snapshots, EpochHistory, FrameEnd,
    SharedWal, SnapshotLoad, WalError, WalOptions, WalRecord, WalWriter,
    DEFAULT_SNAPSHOT_RETENTION, SEGMENT_VERSION,
};

use crate::durable::DurableDatabase;
use crate::framed::{send, FrameReader, ReadEvent};
use crate::net::{QueryServer, QueryServerConfig};
use crate::query_engine::QueryEngine;
use crate::replication::horizon::ShipHorizon;
use crate::replication::lag::LagClock;
use crate::replication::leader::{serve_replication_from, Frontier, ReplicationServer};
use crate::replication::protocol::{Message, MAX_MESSAGE_BYTES, PROTOCOL_VERSION};
use crate::replication::ReplicationConfig;
use crate::shared::SharedDatabase;

/// Tuning for a [`StandbyReplica`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Options for the replica's own log (what it applies, it persists).
    pub wal: WalOptions,
    /// Pause between reconnect attempts.
    pub reconnect_backoff: Duration,
    /// Socket read timeout (the granularity at which shutdown and
    /// forced reconnects are noticed).
    pub read_timeout: Duration,
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
            reconnect_backoff: Duration::from_millis(25),
            read_timeout: Duration::from_millis(10),
            snapshot_every: 0,
            snapshot_retention: DEFAULT_SNAPSHOT_RETENTION,
        }
    }
}

/// Where a replica is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPhase {
    /// Not connected; dialing the leader.
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

impl ReplicaPhase {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => ReplicaPhase::Connecting,
            1 => ReplicaPhase::Bootstrapping,
            2 => ReplicaPhase::CatchingUp,
            4 => ReplicaPhase::Diverged,
            5 => ReplicaPhase::Promoted,
            _ => ReplicaPhase::Steady,
        }
    }
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

#[derive(Debug, Default)]
struct ReplicaStats {
    connects: AtomicU64,
    bootstraps: AtomicU64,
    resyncs: AtomicU64,
    rejected_messages: AtomicU64,
    records_applied: AtomicU64,
    records_skipped: AtomicU64,
    snapshots_taken: AtomicU64,
}

/// Point-in-time view of a replica's progress.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    applied: Mutex<u64>,
    applied_cv: Condvar,
    leader_lsn: AtomicU64,
    phase: AtomicU8,
    stop: AtomicBool,
    force_reconnect: AtomicUsize,
    stats: ReplicaStats,
    /// The `Δ` of the `2·v_max·Δ` widening on follower-served answers:
    /// the age of the last contact that found the watermark at the
    /// upstream frontier.
    clock: Mutex<LagClock>,
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
    /// The typed refusal that ended the worker, when the upstream
    /// declared this replica's tail forked.
    diverged: Mutex<Option<DivergenceInfo>>,
}

impl Shared {
    fn new(applied: u64, addr: String, epochs: EpochHistory) -> Self {
        Shared {
            applied: Mutex::new(applied),
            applied_cv: Condvar::new(),
            leader_lsn: AtomicU64::new(0),
            phase: AtomicU8::new(ReplicaPhase::Connecting as u8),
            stop: AtomicBool::new(false),
            force_reconnect: AtomicUsize::new(0),
            stats: ReplicaStats::default(),
            clock: Mutex::new(LagClock::new(Instant::now())),
            addr: Mutex::new(addr),
            epochs: Arc::new(Mutex::new(epochs)),
            promoted: Mutex::new(None),
            diverged: Mutex::new(None),
        }
    }

    /// The local leadership history, locked.
    fn epochs(&self) -> MutexGuard<'_, EpochHistory> {
        self.epochs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes a new watermark. The lag clock is settled first, inside
    /// the watermark's critical section: a reader that sees
    /// `applied ≥ floor` (under this lock, in `applied` or
    /// `wait_for_lsn`) must also see the clock that goes with it, or a
    /// caught-up follower widens one answer by a lag it no longer has.
    /// Lock order is `applied` → `clock`; nothing takes them the other
    /// way round.
    fn set_applied(&self, lsn: u64) {
        let mut g = self.applied.lock().unwrap_or_else(|e| e.into_inner());
        self.note_progress(lsn);
        *g = lsn;
        self.applied_cv.notify_all();
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
        *self.applied.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_phase(&self, phase: ReplicaPhase) {
        self.phase.store(phase as u8, Ordering::SeqCst);
    }

    /// Records a contact with the upstream (an applied run or a
    /// heartbeat) that leaves the watermark at `applied`, against the
    /// last known upstream frontier.
    fn note_progress(&self, applied: u64) {
        let frontier = self.leader_lsn.load(Ordering::SeqCst);
        self.clock
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contact(applied, frontier, Instant::now());
    }

    fn lag(&self) -> Duration {
        // A promoted node is the frontier — there is nothing upstream to
        // trail, so its served answers carry no staleness widening.
        if self.promoted_wal().is_some() {
            return Duration::ZERO;
        }
        self.clock
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lag_at(Instant::now())
    }

    fn wait_for_lsn(&self, lsn: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // Post-promotion the watermark is the WAL frontier, which no
        // condvar tracks — poll it in short slices instead.
        if let Some(wal) = self.promoted_wal() {
            loop {
                if wal.next_lsn() >= lsn {
                    return true;
                }
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut g = self.applied.lock().unwrap_or_else(|e| e.into_inner());
        while *g < lsn {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (ng, _timeout) = self
                .applied_cv
                .wait_timeout(g, left)
                .unwrap_or_else(|e| e.into_inner());
            g = ng;
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
        self.shared.leader_lsn.load(Ordering::SeqCst)
    }

    /// The age of the replica's last contact with a caught-up upstream
    /// — zero within [`LagClock::CONTACT_WINDOW`] of it, unless a later
    /// contact found the replica behind — the `Δ` that widens served
    /// answers by `2·v_max·Δ`.
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
        let shared = Arc::new(Shared::new(applied, addr, epochs));
        let horizon = Arc::new(ShipHorizon::new());
        let worker = {
            let db = db.clone();
            let shared = Arc::clone(&shared);
            let dir = dir.clone();
            let horizon = Arc::clone(&horizon);
            let config = config.clone();
            std::thread::spawn(move || {
                Worker {
                    dir,
                    config,
                    db,
                    shared,
                    horizon,
                    wal,
                    incoming: None,
                }
                .run()
            })
        };
        Ok(StandbyReplica {
            db,
            dir,
            config,
            shared,
            horizon,
            worker: Some(worker),
        })
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
        ReplicaPhase::from_u8(self.shared.phase.load(Ordering::SeqCst))
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
        let shared = Arc::clone(&self.shared);
        let frontier = Frontier::new(move || shared.applied());
        serve_replication_from(
            self.dir.clone(),
            frontier,
            Arc::clone(&self.horizon),
            Arc::clone(&self.shared.epochs),
            addr,
            config,
        )
    }

    /// Drops the current session (if any); the worker reconnects and
    /// renegotiates from the applied watermark. Test hook for
    /// disconnect-fault injection, harmless in production.
    pub fn force_reconnect(&self) {
        self.shared.force_reconnect.fetch_add(1, Ordering::SeqCst);
    }

    /// Swaps the upstream this replica follows and drops the current
    /// session; the worker re-dials `new_addr` and resumes from the
    /// applied watermark (the promotee's log is a byte-identical copy of
    /// the stretch this replica already applied, so the handshake
    /// resumes instead of re-bootstrapping). The repoint half of a
    /// failover: survivors chase the promoted standby.
    pub fn repoint(&self, new_addr: impl Into<String>) {
        *self.shared.addr.lock().unwrap_or_else(|e| e.into_inner()) = new_addr.into();
        self.force_reconnect();
    }

    /// The typed refusal that ended replication, when the upstream
    /// declared this replica's log tail forked history (phase
    /// [`ReplicaPhase::Diverged`]).
    pub fn divergence(&self) -> Option<DivergenceInfo> {
        *self
            .shared
            .diverged
            .lock()
            .unwrap_or_else(|e| e.into_inner())
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
        self.shared.set_applied(wal.next_lsn()); // wake condvar waiters
        self.shared.set_phase(ReplicaPhase::Promoted);
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
        let applied_lsn = self.shared.applied();
        let leader_lsn = self.shared.leader_lsn.load(Ordering::SeqCst);
        let s = &self.shared.stats;
        ReplicaStatsSnapshot {
            applied_lsn,
            leader_lsn,
            lag_records: leader_lsn.saturating_sub(applied_lsn),
            phase: self.phase(),
            connects: s.connects.load(Ordering::Relaxed),
            bootstraps: s.bootstraps.load(Ordering::Relaxed),
            resyncs: s.resyncs.load(Ordering::Relaxed),
            rejected_messages: s.rejected_messages.load(Ordering::Relaxed),
            records_applied: s.records_applied.load(Ordering::Relaxed),
            records_skipped: s.records_skipped.load(Ordering::Relaxed),
            snapshots_taken: s.snapshots_taken.load(Ordering::Relaxed),
        }
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

/// Why a session ended (all roads lead back to Connecting — except
/// divergence, which is terminal).
enum SessionEnd {
    /// Stop flag observed — unwind the worker.
    Shutdown,
    /// Connection closed or forced; reconnect and resume.
    Disconnected,
    /// Protocol violation, torn run, or local apply/log failure —
    /// reconnect and renegotiate (counted as a resync).
    Resync,
    /// The upstream refused this replica's log tail as forked history.
    /// Reconnecting would get the same answer, so the worker exits.
    Diverged,
}

struct Worker {
    dir: PathBuf,
    config: ReplicaConfig,
    db: SharedDatabase,
    shared: Arc<Shared>,
    /// Downstream followers chained off this replica; their lowest ack
    /// is the barrier the local compaction pass must not cross.
    horizon: Arc<ShipHorizon>,
    wal: Option<WalWriter>,
    /// The bootstrap snapshot arriving in this session, if any.
    incoming: Option<Incoming>,
}

/// A bootstrap snapshot part-way through its runs: the load its frames
/// are applied to, and the temp file they are written to.
struct Incoming {
    lsn: u64,
    load: SnapshotLoad,
    file: File,
}

impl Worker {
    fn run(mut self) {
        let mut last_snapshot_lsn = self.shared.applied();
        while !self.shared.stop.load(Ordering::SeqCst) {
            self.shared.set_phase(ReplicaPhase::Connecting);
            // Re-read the dial target every attempt: a repoint swaps it
            // while the worker runs, and the next connect chases the new
            // upstream (the promoted standby) from the applied watermark.
            let addr = self
                .shared
                .addr
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            let stream = match std::net::TcpStream::connect(&addr) {
                Ok(s) => s,
                Err(_) => {
                    self.backoff();
                    continue;
                }
            };
            self.shared.stats.connects.fetch_add(1, Ordering::Relaxed);
            let end = self.session(stream, &mut last_snapshot_lsn);
            // A bootstrap the session did not finish is dropped whole.
            if self.incoming.take().is_some() {
                let _ = std::fs::remove_file(self.incoming_path());
            }
            match end {
                SessionEnd::Shutdown => break,
                SessionEnd::Disconnected => self.backoff(),
                SessionEnd::Resync => {
                    self.shared.stats.resyncs.fetch_add(1, Ordering::Relaxed);
                    self.backoff();
                }
                SessionEnd::Diverged => break,
            }
        }
    }

    fn backoff(&self) {
        // Sliced sleep so shutdown is prompt even with long backoffs.
        let deadline = Instant::now() + self.config.reconnect_backoff;
        while Instant::now() < deadline && !self.shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn session(&mut self, stream: std::net::TcpStream, last_snapshot_lsn: &mut u64) -> SessionEnd {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let mut tx = match stream.try_clone() {
            Ok(tx) => tx,
            Err(_) => return SessionEnd::Disconnected,
        };
        let reconnect_epoch = self.shared.force_reconnect.load(Ordering::SeqCst);
        let hello = Message::Hello {
            version: PROTOCOL_VERSION,
            next_lsn: self.shared.applied(),
            have_state: self.wal.is_some(),
            epoch: self.shared.epochs().current(),
        };
        if send(&mut tx, &hello, MAX_MESSAGE_BYTES).is_err() {
            return SessionEnd::Disconnected;
        }
        self.shared.set_phase(if self.wal.is_some() {
            ReplicaPhase::CatchingUp
        } else {
            ReplicaPhase::Bootstrapping
        });
        let mut reader = FrameReader::<Message>::new(stream, MAX_MESSAGE_BYTES);
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                return SessionEnd::Shutdown;
            }
            if self.shared.force_reconnect.load(Ordering::SeqCst) != reconnect_epoch {
                return SessionEnd::Disconnected;
            }
            match reader.poll() {
                Ok(ReadEvent::Message(msg)) => match self.handle(msg, &mut tx, last_snapshot_lsn) {
                    Ok(()) => {}
                    Err(end) => return end,
                },
                Ok(ReadEvent::Idle) => continue,
                Ok(ReadEvent::Closed) => return SessionEnd::Disconnected,
                // Framing lost (bad length / CRC / undecodable message):
                // drop the connection and renegotiate.
                Err(_) => return SessionEnd::Resync,
            }
        }
    }

    fn handle(
        &mut self,
        msg: Message,
        tx: &mut std::net::TcpStream,
        last_snapshot_lsn: &mut u64,
    ) -> Result<(), SessionEnd> {
        match msg {
            Message::SnapshotBlocks {
                lsn,
                offset,
                frames,
            } => self.bootstrap(lsn, offset, &frames, tx, last_snapshot_lsn),
            Message::Blocks {
                start_lsn,
                count,
                version,
                frames,
            } => self.apply_blocks(start_lsn, count, version, &frames, tx, last_snapshot_lsn),
            Message::Heartbeat { leader_next_lsn } => {
                self.shared
                    .leader_lsn
                    .store(leader_next_lsn, Ordering::SeqCst);
                let applied = self.shared.applied();
                self.shared.note_progress(applied);
                if self.wal.is_some() {
                    self.shared.set_phase(if applied >= leader_next_lsn {
                        ReplicaPhase::Steady
                    } else {
                        ReplicaPhase::CatchingUp
                    });
                }
                self.ack(tx, applied)
            }
            Message::Diverged {
                leader_epoch,
                boundary_lsn,
            } => {
                // The upstream proved this replica's tail belongs to a
                // dead timeline. Record the typed refusal and stop: the
                // local state is preserved for inspection, never
                // silently overwritten.
                *self
                    .shared
                    .diverged
                    .lock()
                    .unwrap_or_else(|e| e.into_inner()) = Some(DivergenceInfo {
                    leader_epoch,
                    boundary_lsn,
                    local_next_lsn: self.shared.applied(),
                });
                self.shared.set_phase(ReplicaPhase::Diverged);
                Err(SessionEnd::Diverged)
            }
            // Leaders never send Hello or Ack.
            Message::Hello { .. } | Message::Ack { .. } => {
                self.reject();
                Err(SessionEnd::Resync)
            }
        }
    }

    fn ack(&self, tx: &mut std::net::TcpStream, applied_lsn: u64) -> Result<(), SessionEnd> {
        send(tx, &Message::Ack { applied_lsn }, MAX_MESSAGE_BYTES)
            .map_err(|_| SessionEnd::Disconnected)
    }

    fn reject(&self) {
        self.shared
            .stats
            .rejected_messages
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Where an incoming bootstrap snapshot is written.
    fn incoming_path(&self) -> PathBuf {
        self.dir.join("incoming.snap.tmp")
    }

    /// Takes one run of a bootstrap snapshot: checks that it continues
    /// the runs before it (the first one opens the load and temp file),
    /// applies it and appends it; after the last, installs the snapshot
    /// and adopts the leadership history its head carries.
    fn bootstrap(
        &mut self,
        lsn: u64,
        offset: u64,
        frames: &[u8],
        tx: &mut std::net::TcpStream,
        last_snapshot_lsn: &mut u64,
    ) -> Result<(), SessionEnd> {
        let tmp = self.incoming_path();
        let fed = (|| -> Result<Option<(Database, EpochHistory)>, WalError> {
            if self.incoming.is_none() && offset == SEGMENT_HEADER_BYTES {
                let mut file = File::create(&tmp)?;
                file.write_all(&encode_header(lsn))?;
                let load = SnapshotLoad::new(&tmp);
                self.incoming = Some(Incoming { lsn, load, file });
            }
            // A duplicated, reordered or foreign run, or one with no
            // first run before it, continues nothing.
            let Some(incoming) = self
                .incoming
                .as_mut()
                .filter(|incoming| incoming.lsn == lsn && incoming.load.offset() == offset)
            else {
                return Err(WalError::Decode("snapshot run out of order"));
            };
            let db = incoming.load.feed(frames)?;
            incoming.file.write_all(frames)?;
            Ok(db)
        })();
        let (db, epochs) = match fed {
            Ok(None) => return Ok(()),
            Ok(Some(state)) => state,
            Err(_) => {
                self.reject();
                return Err(SessionEnd::Resync);
            }
        };
        let Incoming { file, .. } = self.incoming.take().expect("fed above");
        let install = (|| -> Result<(), WalError> {
            file.sync_data()?;
            // Local log and snapshots describe a dead timeline now.
            self.wal = None;
            for (_, path) in list_segments(&self.dir)? {
                std::fs::remove_file(path)?;
            }
            for (_, path) in list_snapshots(&self.dir)? {
                std::fs::remove_file(path)?;
            }
            std::fs::rename(&tmp, self.dir.join(snapshot_file_name(lsn)))?;
            self.wal = Some(WalWriter::resume(&self.dir, self.config.wal, lsn)?);
            Ok(())
        })();
        if install.is_err() {
            let _ = std::fs::remove_file(&tmp);
            self.reject();
            return Err(SessionEnd::Resync);
        }
        self.db.replace(db);
        *self.shared.epochs() = epochs;
        // Counted before the watermark moves: a reader woken by
        // `set_applied` must find the bootstrap in the stats already.
        self.shared.stats.bootstraps.fetch_add(1, Ordering::Relaxed);
        self.shared.set_applied(lsn);
        *last_snapshot_lsn = lsn;
        self.shared.set_phase(ReplicaPhase::CatchingUp);
        self.ack(tx, lsn)
    }

    /// Applies one `Blocks` run, all-or-nothing: the frames are verbatim
    /// segment bytes, so they decode through the same path recovery uses
    /// (blocks decompress here, on apply). Wire chunks are whole frames —
    /// a torn tail is not a crash artifact but corruption in flight that
    /// slipped past the CRC, so it rejects the run, as does a run cut
    /// from a segment format this build does not read.
    fn apply_blocks(
        &mut self,
        start_lsn: u64,
        count: u32,
        version: u32,
        frames: &[u8],
        tx: &mut std::net::TcpStream,
        last_snapshot_lsn: &mut u64,
    ) -> Result<(), SessionEnd> {
        let run = (version == SEGMENT_VERSION)
            .then(|| decode_block_frames(frames))
            .filter(|(records, _clean, end)| {
                matches!(end, FrameEnd::Clean) && records.len() == count as usize
            });
        let Some((records, ..)) = run else {
            // A torn or short run is never applied, not even partially.
            self.reject();
            return Err(SessionEnd::Resync);
        };
        self.apply_records(start_lsn, records, tx, last_snapshot_lsn)
    }

    /// Contiguity check against the watermark, then record-by-record
    /// apply-before-log with idempotent overlap skipping.
    fn apply_records(
        &mut self,
        start_lsn: u64,
        records: Vec<WalRecord>,
        tx: &mut std::net::TcpStream,
        last_snapshot_lsn: &mut u64,
    ) -> Result<(), SessionEnd> {
        let Some(wal) = self.wal.as_mut().filter(|_| self.incoming.is_none()) else {
            // Records before (or in the middle of) a bootstrap snapshot:
            // protocol desync.
            self.reject();
            return Err(SessionEnd::Resync);
        };
        let mut applied = self.shared.applied();
        if start_lsn > applied {
            // A gap would desynchronize the watermark from the stream.
            self.reject();
            return Err(SessionEnd::Resync);
        }
        for (i, rec) in records.into_iter().enumerate() {
            let lsn = start_lsn + i as u64;
            if lsn < applied {
                // Watermark overlap (duplicate delivery): already
                // applied and logged; skipping is the idempotent path.
                self.shared
                    .stats
                    .records_skipped
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // An in-stream leadership change joins the local history;
            // the record logged below is what a restart reads it from.
            if let WalRecord::LeaderEpoch { epoch } = &rec {
                if self.shared.epochs().observe(*epoch, lsn).is_err() {
                    // A conflicting epoch claim in an admitted stream is
                    // a protocol violation.
                    self.shared.set_applied(applied);
                    self.reject();
                    return Err(SessionEnd::Resync);
                }
            }
            // Apply-before-log, the same watermark invariant the leader
            // maintains: acceptance verdicts are re-derived locally.
            self.db.with_write(|db| {
                let _accepted = apply_record(db, rec.clone());
            });
            if wal.append(&rec).is_err() {
                // The record is applied but not logged: the in-memory
                // state is ahead of the local log, which a restart would
                // silently lose. Fall back to a re-sync (the leader
                // re-ships from the last durable watermark).
                self.shared.set_applied(applied);
                return Err(SessionEnd::Resync);
            }
            applied = lsn + 1;
            self.shared
                .stats
                .records_applied
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared.set_applied(applied);
        if self.config.snapshot_every > 0
            && applied.saturating_sub(*last_snapshot_lsn) >= self.config.snapshot_every
            && self.local_snapshot(applied).is_ok()
        {
            *last_snapshot_lsn = applied;
            self.shared
                .stats
                .snapshots_taken
                .fetch_add(1, Ordering::Relaxed);
        }
        self.ack(tx, applied)
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
    use crate::framed::Listener;
    use modb_wal::{encode_block, frame_block, write_snapshot};

    /// An upstream that speaks the protocol by hand: admits the follower,
    /// bootstraps it with an empty snapshot at LSN 0, then ships one
    /// valid one-record block in a `Blocks` run that claims to come from
    /// a segment of format `version`.
    fn upstream_shipping(version: u32, name: &str) -> (Listener, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "modb-follower-unit-{}-{name}-v{version}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let snapshot = std::fs::read(
            write_snapshot(
                &dir.join("up"),
                &placeholder_database(),
                &EpochHistory::new(),
                0,
            )
            .unwrap(),
        )
        .unwrap();
        let mut frames = Vec::new();
        let mut payload = Vec::new();
        encode_block(
            &[WalRecord::RemoveMoving(modb_core::ObjectId(9))],
            true,
            &mut payload,
        );
        frame_block(&payload, &mut frames);
        let listener = Listener::spawn(
            "127.0.0.1:0",
            |_stream, _active| true,
            move |mut stream, stop| {
                let script = [
                    Message::SnapshotBlocks {
                        lsn: 0,
                        offset: SEGMENT_HEADER_BYTES,
                        frames: snapshot[SEGMENT_HEADER_BYTES as usize..].to_vec(),
                    },
                    Message::Blocks {
                        start_lsn: 0,
                        count: 1,
                        version,
                        frames: frames.clone(),
                    },
                ];
                for msg in &script {
                    if send(&mut stream, msg, MAX_MESSAGE_BYTES).is_err() {
                        return;
                    }
                }
                // Hold the socket until the follower hangs up.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
                let mut reader = FrameReader::<Message>::new(stream, MAX_MESSAGE_BYTES);
                while !stop.load(Ordering::SeqCst) {
                    if !matches!(reader.poll(), Ok(ReadEvent::Idle | ReadEvent::Message(_))) {
                        return;
                    }
                }
            },
        )
        .unwrap();
        (listener, dir)
    }

    fn follow(upstream: &Listener, dir: &std::path::Path) -> StandbyReplica {
        StandbyReplica::open(
            dir.join("replica"),
            upstream.local_addr().to_string(),
            ReplicaConfig::default(),
        )
        .unwrap()
    }

    /// The worker falls behind (a heartbeat raises the frontier), then
    /// catches up (`set_applied`); a reader spinning on the watermark —
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
        let shared = Shared::new(0, String::new(), EpochHistory::new());
        let seen = AtomicU64::new(0);
        let stale_clocks = std::thread::scope(|s| {
            s.spawn(|| {
                for lsn in 1..=ROUNDS {
                    shared.leader_lsn.store(lsn, Ordering::SeqCst);
                    shared.note_progress(lsn - 1); // behind: the clock starts
                    shared.set_applied(lsn); // caught up
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

    #[test]
    fn blocks_from_a_foreign_segment_version_are_rejected_unapplied() {
        // Control: the same run under the current version applies.
        let (upstream, dir) = upstream_shipping(SEGMENT_VERSION, "blocks");
        let replica = follow(&upstream, &dir);
        assert!(replica.wait_for_lsn(1, Duration::from_secs(30)));
        assert_eq!(replica.shutdown().rejected_messages, 0);
        drop(upstream);
        std::fs::remove_dir_all(&dir).unwrap();

        // The retired versions (the v2 frames a pre-v3 leader ships
        // among them) and a future one.
        for foreign in [1, SEGMENT_VERSION - 1, SEGMENT_VERSION + 1] {
            let (upstream, dir) = upstream_shipping(foreign, "blocks");
            let replica = follow(&upstream, &dir);
            let deadline = Instant::now() + Duration::from_secs(30);
            while replica.stats().rejected_messages == 0 {
                assert!(Instant::now() < deadline, "run was never rejected");
                std::thread::sleep(Duration::from_millis(2));
            }
            let stats = replica.shutdown();
            assert_eq!(
                (stats.applied_lsn, stats.records_applied),
                (0, 0),
                "version {foreign}: {stats}"
            );
            assert!(stats.resyncs >= 1, "{stats}");
            drop(upstream);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
