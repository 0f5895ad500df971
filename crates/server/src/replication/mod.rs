//! WAL-shipping replication: a leader streams its write-ahead log to
//! warm standby followers over TCP.
//!
//! The log is already a complete, ordered, CRC-framed change stream
//! (every mutation is appended before the paper's imprecision machinery
//! ever answers a query from it), so replication is log shipping plus
//! careful failure handling:
//!
//! - the **leader** ([`crate::DurableDatabase::serve_replication`])
//!   bootstraps each follower from its newest snapshot and then tails
//!   its own segments with [`modb_wal::SegmentTailer`], shipping records
//!   in bounded runs; follower acknowledgements feed the
//!   [`ShipHorizon`], the barrier every compaction of the log stops at,
//!   which keeps unshipped log alive;
//! - the **follower** ([`StandbyReplica`]) replays the stream through
//!   [`modb_wal::apply_record`] — the seam recovery and the leader use — into
//!   its own database, persists what it applies to a local log, and
//!   tracks an applied watermark so a reconnect (or restart) resumes
//!   incrementally instead of re-bootstrapping;
//! - both are one node (`crate::node`): the database, directory, horizon
//!   and epochs of one log, and one watermark from which the query
//!   front-end and the ship context read the frontier and the lag. A
//!   standby's watermark is what its worker publishes; a leader's, and a
//!   standby's once promoted, is the log it leads. So a front-end, a
//!   re-ship listener or a watch opened on a standby keeps serving
//!   across its promotion, as a leader's;
//! - each side of a session is a step function over a `Link` and a
//!   `Clock` (`link.rs`: a TCP stream and the wall clock in production)
//!   that makes the session's decisions itself — `LeaderShell` in
//!   `leader.rs`, the follower's `Worker` in `follower.rs` — so the tests
//!   drive one side from the other end of an in-memory link, or step a
//!   whole cluster in one thread, on a virtual clock (the `sim` module
//!   below).
//!
//! A lagging follower is not wrong, just stale in a *bounded* way: if it
//! lags the leader by `dt` seconds of database time, a position answered
//! from it deviates from the leader's answer by at most `D·dt` where `D`
//! bounds the relative drift rate (§3.3 of the paper; see DESIGN.md §10,
//! and `tests/follower_truth.rs` for the served answers checked against
//! ground truth). The lag is a follower's only staleness: each
//! statement reads a clone of the follower's database taken when it
//! starts.

mod follower;
mod horizon;
mod lag;
mod leader;
mod link;
mod protocol;

pub(crate) use follower::Published;
pub use follower::{
    DivergenceInfo, ReplicaConfig, ReplicaPhase, ReplicaStatsSnapshot, ReplicaWatch, StandbyReplica,
};
pub use horizon::ShipHorizon;
pub use lag::LagClock;
pub use leader::{ReplicationConfig, ReplicationServer, ReplicationStatsSnapshot};
pub(crate) use link::{Clock, WallClock};

#[cfg(test)]
mod sim {
    //! A deterministic cluster driver. A leader, chained followers and
    //! the operator's `promote` / `repoint` run in one thread: each
    //! follower is its [`Worker`] stepped over an in-memory link, each
    //! served connection a [`LeaderShell`] stepped beside it, all on one
    //! virtual clock. A round steps every actor once, in an order drawn
    //! from the seed; a round in which nothing moved advances the clock
    //! by one leader poll interval. The same seed gives the same run,
    //! event for event. No socket, no sleep, no spawned thread (but in
    //! the test that serves a standby's query front-end on a loopback
    //! socket).

    use std::cell::Cell;
    use std::collections::{BTreeMap, VecDeque};
    use std::ops::RangeInclusive;
    use std::path::{Path, PathBuf};
    use std::rc::Rc;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use modb_core::{
        Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
        UpdateMessage, UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};
    use modb_wal::{Shipment, WalOptions};

    use super::follower::{SessionEnd, Worker, RECONNECT_BACKOFF};
    use super::leader::{LeaderShell, ShipContext, Step, HEARTBEAT_INTERVAL, POLL_INTERVAL};
    use super::link::mem::{pair, Fault, MemLink, VirtualClock};
    use super::link::Clock;
    use super::protocol::{Message, MAX_MESSAGE_BYTES, SESSION_DEADLINE};
    use super::{
        DivergenceInfo, ReplicaConfig, ReplicaPhase, ReplicaStatsSnapshot, ReplicationConfig,
        ReplicationStatsSnapshot, StandbyReplica,
    };
    use crate::durable::DurableDatabase;
    use crate::framed::encode_frame;
    use crate::net::{QueryClient, QueryServerConfig};
    use crate::query_engine::QueryEngine;

    /// How much virtual time a wait may take before the run is declared
    /// stuck.
    const PATIENCE: Duration = Duration::from_secs(120);

    /// A replication server on the simulated network.
    struct Server {
        ctx: ShipContext,
        sessions: Vec<LeaderShell<MemLink>>,
        /// The faults the next connections draw, one each, then none.
        faults: VecDeque<Fault>,
    }

    /// A standby, its worker, and the link of its live session.
    struct Standby {
        name: String,
        replica: StandbyReplica,
        worker: Worker,
        link: Option<MemLink>,
        redial_at: Instant,
        /// A session ended for good (divergence or a failed log).
        stopped: bool,
        /// What the trace last noted of it.
        noted: (u64, ReplicaPhase),
    }

    /// One actor of a round.
    enum Actor {
        Standby(usize),
        Server(String),
    }

    pub(crate) struct Cluster {
        clock: Arc<VirtualClock>,
        rng: u64,
        root: PathBuf,
        servers: BTreeMap<String, Server>,
        standbys: Vec<Option<Standby>>,
        /// What happened, in order, with the virtual time it happened at.
        pub(crate) trace: Vec<String>,
    }

    impl Cluster {
        pub(crate) fn new(name: &str, seed: u64) -> Self {
            let root =
                std::env::temp_dir().join(format!("modb-sim-{}-{name}-{seed}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            Cluster {
                clock: Arc::new(VirtualClock::new()),
                rng: seed,
                root,
                servers: BTreeMap::new(),
                standbys: Vec::new(),
                trace: Vec::new(),
            }
        }

        /// The cluster's virtual clock.
        pub(crate) fn clock(&self) -> Arc<dyn Clock> {
            self.clock.clone()
        }

        /// A node's data directory.
        pub(crate) fn dir(&self, node: &str) -> PathBuf {
            self.root.join(node)
        }

        /// A leader in `dir("leader")` with `vehicles` registered objects
        /// (ids `1..=vehicles` at arcs `10·i`).
        pub(crate) fn leader(&self, vehicles: u64) -> DurableDatabase {
            let leader = DurableDatabase::create(self.dir("leader"), fresh_db(), wal_options())
                .expect("leader dir");
            for i in 1..=vehicles {
                leader.register_moving(vehicle(i, 10.0 * i as f64)).unwrap();
            }
            leader
        }

        /// Serves a leader's log at `addr`.
        pub(crate) fn serve(&mut self, addr: &str, leader: &DurableDatabase) {
            let ctx = leader.node().ship_context(ship_config(), self.clock());
            self.listen(addr, ctx);
        }

        /// Re-ships standby `i`'s log at `addr`.
        pub(crate) fn serve_standby(&mut self, addr: &str, i: usize) {
            let ctx = self
                .replica(i)
                .node
                .ship_context(ship_config(), self.clock());
            self.listen(addr, ctx);
        }

        fn listen(&mut self, addr: &str, ctx: ShipContext) {
            let server = Server {
                ctx,
                sessions: Vec::new(),
                faults: VecDeque::new(),
            };
            assert!(self.servers.insert(addr.to_string(), server).is_none());
        }

        /// The host at `addr` dies: every session it served is cut and
        /// new dials are refused.
        pub(crate) fn kill(&mut self, addr: &str) {
            let server = self.servers.remove(addr).expect("no such server");
            for shell in server.sessions {
                shell.close(&server.ctx, false);
            }
            self.note(addr, "killed");
        }

        pub(crate) fn server_stats(&self, addr: &str) -> ReplicationStatsSnapshot {
            self.servers[addr].ctx.stats()
        }

        /// The next connection to `addr` draws `fault`.
        pub(crate) fn push_fault(&mut self, addr: &str, fault: Fault) {
            self.servers.get_mut(addr).unwrap().faults.push_back(fault);
        }

        /// Opens standby `name` in `dir(name)`, following `upstream`.
        pub(crate) fn follow(&mut self, name: &str, upstream: &str) -> usize {
            self.follow_with(name, upstream, replica_config())
        }

        /// [`Cluster::follow`] with `config`.
        pub(crate) fn follow_with(
            &mut self,
            name: &str,
            upstream: &str,
            config: ReplicaConfig,
        ) -> usize {
            let (replica, worker) =
                StandbyReplica::open_with(self.dir(name), upstream, config, self.clock()).unwrap();
            self.standbys.push(Some(Standby {
                name: name.to_string(),
                noted: (replica.applied_lsn(), replica.phase()),
                replica,
                worker,
                link: None,
                redial_at: self.clock.now(),
                stopped: false,
            }));
            self.standbys.len() - 1
        }

        pub(crate) fn replica(&self, i: usize) -> &StandbyReplica {
            &self.standbys[i]
                .as_ref()
                .expect("standby left the cluster")
                .replica
        }

        /// Takes standby `i` out of the cluster, its session closed.
        pub(crate) fn take(&mut self, i: usize) -> (StandbyReplica, Worker) {
            let mut s = self.standbys[i].take().expect("standby left the cluster");
            if let Some(mut link) = s.link.take() {
                s.worker.end(&mut link, SessionEnd::Shutdown);
            }
            (s.replica, s.worker)
        }

        /// The operator promotes standby `i`: its worker stops, then the
        /// seal is written.
        pub(crate) fn promote(&mut self, i: usize) -> DurableDatabase {
            let (replica, worker) = self.take(i);
            let promoted = replica.promote_with(worker.into_log()).unwrap();
            self.note(
                "operator",
                &format!("promoted to epoch {}", promoted.epoch()),
            );
            promoted
        }

        /// Stops standby `i` and returns its final stats.
        pub(crate) fn shutdown(&mut self, i: usize) -> ReplicaStatsSnapshot {
            let (replica, worker) = self.take(i);
            drop(worker);
            replica.shutdown()
        }

        fn note(&mut self, who: &str, what: &str) {
            let at = self.clock.elapsed();
            self.trace.push(format!("{at:?} {who}: {what}"));
        }

        /// A splitmix64 draw.
        fn draw(&mut self) -> u64 {
            self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Steps every actor once, in a seeded order; `true` when one of
        /// them moved.
        fn round(&mut self) -> bool {
            let mut actors: Vec<Actor> = (0..self.standbys.len()).map(Actor::Standby).collect();
            actors.extend(self.servers.keys().cloned().map(Actor::Server));
            for i in (1..actors.len()).rev() {
                let j = (self.draw() % (i as u64 + 1)) as usize;
                actors.swap(i, j);
            }
            let mut moved = false;
            for actor in actors {
                moved |= match actor {
                    Actor::Standby(i) => self.step_standby(i),
                    Actor::Server(addr) => self.step_server(&addr),
                };
            }
            moved
        }

        fn step_standby(&mut self, i: usize) -> bool {
            let now = self.clock.now();
            let Some(s) = self.standbys[i].as_mut().filter(|s| !s.stopped) else {
                return false;
            };
            let mut events = Vec::new();
            let moved = match s.link.as_mut() {
                None if now < s.redial_at => false,
                None => {
                    let addr = s.worker.upstream();
                    match self.servers.get_mut(&addr) {
                        None => {
                            events.push(format!("dial {addr} refused"));
                            s.redial_at = now + RECONNECT_BACKOFF;
                        }
                        Some(server) => {
                            let (mut link, acceptor) =
                                pair(server.faults.pop_front().unwrap_or_default());
                            server
                                .sessions
                                .push(LeaderShell::open(acceptor, &server.ctx));
                            events.push(format!("dial {addr}"));
                            match s.worker.connect(&mut link) {
                                Ok(()) => s.link = Some(link),
                                Err(end) => {
                                    events.push(format!("session ended: {end:?}"));
                                    s.stopped = s.worker.end(&mut link, end);
                                    s.redial_at = now + RECONNECT_BACKOFF;
                                }
                            }
                        }
                    }
                    true
                }
                Some(link) => match s.worker.step(link, now) {
                    Ok(moved) => moved,
                    Err(end) => {
                        let mut link = s.link.take().expect("live");
                        events.push(format!("session ended: {end:?}"));
                        s.stopped = s.worker.end(&mut link, end);
                        s.redial_at = now + RECONNECT_BACKOFF;
                        true
                    }
                },
            };
            let seen = (s.replica.applied_lsn(), s.replica.phase());
            if seen != s.noted {
                s.noted = seen;
                events.push(format!("applied {} {}", seen.0, seen.1));
            }
            let name = s.name.clone();
            for event in events {
                self.note(&name, &event);
            }
            moved
        }

        fn step_server(&mut self, addr: &str) -> bool {
            let server = self.servers.get_mut(addr).expect("listed");
            let (mut moved, mut ended, mut i) = (false, Vec::new(), 0);
            while i < server.sessions.len() {
                match server.sessions[i].step(&server.ctx) {
                    Ok(Step::Busy) => moved = true,
                    Ok(Step::Idle) => {}
                    result => {
                        let shell = server.sessions.remove(i);
                        shell.close(&server.ctx, result.is_err());
                        ended.push(format!("session ended: {result:?}"));
                        moved = true;
                        continue;
                    }
                }
                i += 1;
            }
            for event in ended {
                self.note(addr, &event);
            }
            moved
        }

        /// Runs rounds for `span` of virtual time.
        pub(crate) fn run_for(&mut self, span: Duration) {
            let until = self.clock.now() + span;
            self.run_until("time to pass", |c| c.clock.now() >= until);
        }

        /// Runs rounds until `done` holds, panicking after [`PATIENCE`]
        /// of virtual time.
        pub(crate) fn run_until(&mut self, what: &str, done: impl Fn(&Cluster) -> bool) {
            let deadline = self.clock.now() + PATIENCE;
            while !done(self) {
                assert!(self.clock.now() < deadline, "stuck waiting for {what}");
                if !self.round() {
                    self.clock.sleep_until(self.clock.now() + POLL_INTERVAL);
                }
            }
        }
    }

    impl Drop for Cluster {
        fn drop(&mut self) {
            self.servers.clear();
            self.standbys.clear();
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    /// One long straight route, so arcs are easy to reason about.
    pub(crate) fn fresh_db() -> Database {
        let route = Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(1000.0, 0.0)],
        )
        .unwrap();
        Database::new(
            RouteNetwork::from_routes([route]).unwrap(),
            DatabaseConfig::default(),
        )
    }

    pub(crate) fn vehicle(id: u64, arc: f64) -> MovingObject {
        MovingObject {
            id: ObjectId(id),
            name: format!("veh-{id}"),
            attr: PositionAttribute {
                start_time: 0.0,
                route: RouteId(1),
                start_position: Point::new(arc, 0.0),
                start_arc: arc,
                direction: Direction::Forward,
                speed: 1.0,
                policy: PolicyDescriptor::CostBased {
                    kind: BoundKind::Immediate,
                    update_cost: 5.0,
                },
            },
            max_speed: 1.5,
            trip_end: None,
        }
    }

    /// Small segments: logs rotate often.
    pub(crate) fn wal_options() -> WalOptions {
        WalOptions {
            max_segment_bytes: 512,
        }
    }

    /// Small runs, so a catch-up crosses several messages.
    fn ship_config() -> ReplicationConfig {
        ReplicationConfig { chunk_records: 64 }
    }

    pub(crate) fn replica_config() -> ReplicaConfig {
        ReplicaConfig {
            wal: wal_options(),
            snapshot_every: 0,
        }
    }

    /// One update per vehicle per round (time = round, arc drifting by
    /// 0.1 a round).
    fn churn(leader: &DurableDatabase, rounds: RangeInclusive<u64>, vehicles: u64) {
        for round in rounds {
            for i in 1..=vehicles {
                let arc = 10.0 * i as f64 + round as f64 * 0.1;
                let msg = UpdateMessage::basic(round as f64, UpdatePosition::Arc(arc), 1.0);
                leader.apply_update(ObjectId(i), &msg).unwrap();
            }
        }
    }

    /// Same objects, same attributes, same landmarks.
    fn assert_converged(leader: &Database, follower: &Database) {
        assert_eq!(leader.moving_count(), follower.moving_count());
        assert_eq!(leader.stationary_count(), follower.stationary_count());
        for id in leader.moving_ids() {
            assert_eq!(
                leader.moving(id).unwrap(),
                follower.moving(id).unwrap(),
                "{id:?}"
            );
        }
    }

    fn converged_on(leader: &DurableDatabase, replica: &StandbyReplica) {
        leader
            .database()
            .with_read(|l| replica.database().with_read(|f| assert_converged(l, f)));
    }

    /// Every file of a directory, by name.
    pub(crate) fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().into_string().unwrap();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect()
    }

    /// Kill → promote → repoint on a chain: the leader's session to f1
    /// is severed mid-byte and resumed, the leader dies, the fresher f1
    /// is promoted, and f2 — frozen behind a dead upstream, so staler —
    /// is repointed at it. Returns the trace.
    fn failover(seed: u64) -> Vec<String> {
        let mut c = Cluster::new("failover", seed);
        let leader = c.leader(4);
        c.serve("leader", &leader);
        let f1 = c.follow("f1", "leader");
        c.serve_standby("f1", f1);
        let f2 = c.follow("f2", "f1");

        churn(&leader, 1..=4, 4);
        let acked = leader.wal().next_lsn();
        c.run_until("the chain to converge", |c| {
            c.replica(f1).applied_lsn() >= acked && c.replica(f2).applied_lsn() >= acked
        });

        // f2 loses its upstream, so the standbys have a strict freshness
        // order; f1's next session to the leader is cut after 200 bytes,
        // inside the first run of the new writes.
        c.replica(f2).repoint("nowhere");
        c.run_until("f2 to drop its session", |c| {
            c.replica(f2).phase() == ReplicaPhase::Connecting
        });
        c.push_fault("leader", Fault::CutAfterBytes(200));
        c.replica(f1).repoint("leader");
        churn(&leader, 5..=6, 4);
        let frontier = leader.wal().next_lsn();
        c.run_until("f1 to recover from the cut", |c| {
            c.replica(f1).applied_lsn() >= frontier
        });
        assert!(
            c.replica(f1).stats().connects >= 3,
            "the cut forced a reconnect: {}",
            c.replica(f1).stats()
        );
        let expected = leader.database().with_read(|db| db.clone());
        c.kill("leader");
        drop(leader);

        // The operator's rule: promote the highest applied LSN, repoint
        // the rest at its re-ship address.
        let (a1, a2) = (c.replica(f1).applied_lsn(), c.replica(f2).applied_lsn());
        assert!(a1 > a2, "f1 ({a1}) must be fresher than f2 ({a2})");
        let promoted = c.promote(f1);
        assert_eq!(promoted.epoch(), 2);
        assert_eq!(
            promoted.wal().next_lsn(),
            frontier + 1,
            "every acked write plus the seal"
        );
        promoted
            .database()
            .with_read(|db| assert_converged(&expected, db));
        c.replica(f2).repoint("f1");

        // New-epoch writes flow to the survivor from its watermark.
        let bootstraps = c.replica(f2).stats().bootstraps;
        churn(&promoted, 7..=9, 4);
        let frontier = promoted.wal().next_lsn();
        c.run_until("the survivor to converge on the promotee", |c| {
            c.replica(f2).applied_lsn() >= frontier
        });
        let stats = c.replica(f2).stats();
        assert_eq!(c.replica(f2).epoch(), 2, "the survivor saw the seal");
        assert_eq!(stats.bootstraps, bootstraps, "repoint resumed: {stats}");
        converged_on(&promoted, c.replica(f2));
        std::mem::take(&mut c.trace)
    }

    #[test]
    fn failover_promotes_freshest_and_repoints_survivor_with_zero_acked_loss() {
        failover(1);
    }

    /// A seed fixes the run: the same seed twice gives the same trace,
    /// and the seeds explore different interleavings.
    #[test]
    fn one_seed_gives_one_trace() {
        let trace = failover(7);
        assert!(trace.len() > 20, "{trace:#?}");
        assert_eq!(failover(7), trace);
        assert!(
            (8..12).any(|seed| failover(seed) != trace),
            "every seed ran the same interleaving"
        );
    }

    /// A script touching every query kind plus an error statement.
    const SCRIPT: &str = "RETRIEVE POSITION OF OBJECT 1 AT TIME 20; \
         RETRIEVE OBJECTS INSIDE RECT (0, -1, 1000, 1) AT TIME 20; \
         RETRIEVE 3 NEAREST OBJECTS TO POINT (30, 0) AT TIME 20; \
         RETRIEVE POSITION OF OBJECT 99 AT TIME 20";

    /// Leader → f1 → f2, the leader killed while f1 is mid-catch-up and
    /// restarted from its directory: both followers resume from their
    /// watermarks, converge, and the chain's tail answers with the
    /// leader's verdicts, bit for bit.
    #[test]
    fn chained_follower_serves_after_midstream_leader_restart() {
        let mut c = Cluster::new("chain", 3);
        let leader = c.leader(4);
        c.serve("leader", &leader);
        let f1 = c.follow("f1", "leader");
        c.serve_standby("f1", f1);
        let f2 = c.follow("f2", "f1");
        churn(&leader, 1..=20, 4);
        let frontier = leader.wal().next_lsn();
        c.run_until("f1 to be mid-stream", |c| {
            (1..frontier).contains(&c.replica(f1).applied_lsn())
        });
        c.kill("leader");
        drop(leader);

        let (leader, _) = DurableDatabase::open(c.dir("leader"), wal_options()).unwrap();
        c.serve("leader", &leader);
        churn(&leader, 21..=40, 4);
        let frontier = leader.wal().next_lsn();
        c.run_until("the chain to converge", |c| {
            c.replica(f1).applied_lsn() >= frontier && c.replica(f2).applied_lsn() >= frontier
        });
        for f in [f1, f2] {
            assert_eq!(
                c.replica(f).stats().bootstraps,
                1,
                "{}",
                c.replica(f).stats()
            );
        }
        converged_on(&leader, c.replica(f2));
        let tail = c.replica(f2);
        let lag = tail.watch().lag().as_secs_f64();
        assert_eq!(lag, 0.0, "a caught-up tail is current");
        let served = QueryEngine::new(tail.database().clone()).run_batch_lagging(SCRIPT, lag);
        let local = QueryEngine::new(leader.database().clone()).run_batch(SCRIPT);
        let strings = |v: Vec<Result<_, modb_query::QueryError>>| -> Vec<Result<_, String>> {
            v.into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect()
        };
        assert_eq!(strings(served), strings(local));
    }

    /// A query front-end opened on a standby serves across its
    /// promotion, and from then on as a leader's. Before, a minute
    /// without an upstream widens its answers and its scrape reports the
    /// watermark and the lag; after, the same minute widens nothing, the
    /// frontier follows the promotee's log and the scrape carries the
    /// log's counters and no replica fields.
    #[test]
    fn a_standby_front_end_serves_as_a_leader_once_promoted() {
        let mut c = Cluster::new("front", 17);
        let leader = c.leader(4);
        c.serve("leader", &leader);
        let f = c.follow("f", "leader");
        churn(&leader, 1..=4, 4);
        let frontier = leader.wal().next_lsn();
        c.run_until("the standby to catch up", |c| {
            c.replica(f).applied_lsn() >= frontier
        });
        c.kill("leader");
        drop(leader);
        let engine = Arc::new(QueryEngine::new(c.replica(f).database().clone()));
        let config = QueryServerConfig::default();
        let server = (c
            .replica(f)
            .serve_queries(Arc::clone(&engine), "127.0.0.1:0", config))
        .unwrap();
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        let local = || -> Vec<Result<_, String>> {
            let verdicts = engine.run_batch(SCRIPT).into_iter();
            verdicts.map(|r| r.map_err(|e| e.to_string())).collect()
        };
        let minute_later =
            |c: &Cluster| c.clock.sleep_until(c.clock.now() + Duration::from_secs(60));

        minute_later(&c);
        assert_ne!(client.batch(SCRIPT).unwrap(), local(), "a follower widens");
        let follower = client.stats().unwrap();
        assert_eq!(
            (follower.wal_next_lsn, follower.replica_applied_lsn),
            (frontier, Some(frontier))
        );
        assert!(follower.replica_lag >= Some(Duration::from_secs(60)));
        assert_eq!((follower.wal_bytes_written, follower.wal_fsyncs), (0, 0));

        let promoted = c.promote(f);
        churn(&promoted, 5..=6, 4);
        minute_later(&c);
        assert_eq!(client.batch(SCRIPT).unwrap(), local(), "a leader does not");
        let led = client.stats().unwrap();
        assert_eq!(led.wal_next_lsn, promoted.wal().next_lsn());
        assert_eq!((led.replica_applied_lsn, led.replica_lag), (None, None));
        let (bytes, fsyncs) = promoted.wal().io_counters();
        assert!(bytes > 0 && fsyncs > 0, "{bytes} B, {fsyncs} fsyncs");
        assert_eq!((led.wal_bytes_written, led.wal_fsyncs), (bytes, fsyncs));
        server.shutdown();
    }

    /// A leader with `vehicles` objects serving at "leader", and one
    /// follower of it whose first connections draw `faults`.
    fn faulty(name: &str, vehicles: u64, faults: Vec<Fault>) -> (Cluster, DurableDatabase, usize) {
        let mut c = Cluster::new(name, 5);
        let leader = c.leader(vehicles);
        c.serve("leader", &leader);
        for fault in faults {
            c.push_fault("leader", fault);
        }
        let f = c.follow("f", "leader");
        (c, leader, f)
    }

    fn converge(c: &mut Cluster, leader: &DurableDatabase, f: usize) {
        let frontier = leader.wal().next_lsn();
        c.run_until("the follower to converge", |c| {
            c.replica(f).applied_lsn() >= frontier
        });
        converged_on(leader, c.replica(f));
    }

    /// Cuts inside the first frame header (1, 7), on its boundary (8),
    /// inside the bootstrap snapshot (9, 64, 300) and inside later runs
    /// (1000, 3000): each drops the session with a partial frame on the
    /// link; the follower discards it, reconnects and converges without
    /// applying a torn record.
    #[test]
    fn truncated_frames_at_every_offset_never_apply_torn_records() {
        let cuts = [1, 7, 8, 9, 64, 300, 1000, 3000].map(Fault::CutAfterBytes);
        let (mut c, leader, f) = faulty("cut", 5, cuts.to_vec());
        churn(&leader, 1..=60, 5);
        converge(&mut c, &leader, f);
        let stats = c.replica(f).stats();
        assert!(stats.connects >= 9, "every cut forced a reconnect: {stats}");
    }

    /// A flipped bit in the outer CRC (4) or at several depths of the
    /// bootstrap snapshot: the session ends in a resync and the retry
    /// converges — rejected cleanly, never applied. (A corrupted length
    /// does not fail fast: the reader waits for phantom bytes, a hazard
    /// the cut tests cover once the stream dies.)
    #[test]
    fn corrupted_bytes_are_rejected_and_resynced() {
        let flips = [4, 9, 64, 200].map(Fault::CorruptByteAt);
        let (mut c, leader, f) = faulty("corrupt", 5, flips.to_vec());
        churn(&leader, 1..=60, 5);
        converge(&mut c, &leader, f);
        let stats = c.replica(f).stats();
        assert!(
            stats.resyncs + stats.rejected_messages >= 4,
            "each flip surfaced as a clean reject: {stats}"
        );
    }

    /// Every message delivered twice: duplicate runs land below the
    /// watermark and are skipped; the follower converges with no update
    /// applied twice.
    #[test]
    fn duplicated_messages_are_absorbed_by_the_watermark() {
        let (mut c, leader, f) = faulty("dup", 5, vec![Fault::DuplicateMessages]);
        churn(&leader, 1..=60, 5);
        converge(&mut c, &leader, f);
        let stats = c.replica(f).stats();
        assert!(stats.records_skipped > 0, "{stats}");
    }

    /// A live but stalled follower pins compaction: while its stream is
    /// held the leader churns and compacts with retention 1, and the ship
    /// barrier keeps every segment past the follower's acknowledged
    /// watermark, so when the stall lifts the same session drains the
    /// backlog — no orphaning, no re-bootstrap.
    #[test]
    fn stalled_follower_is_not_orphaned_by_compaction() {
        let hold = Rc::new(Cell::new(false));
        let (mut c, leader, f) = faulty("stall", 5, vec![Fault::Stall(Rc::clone(&hold))]);
        churn(&leader, 1..=10, 5);
        converge(&mut c, &leader, f);
        hold.set(true);
        let w = c.replica(f).applied_lsn();
        for batch in 0..4u64 {
            churn(&leader, 11 + batch * 20..=30 + batch * 20, 5);
            c.run_for(Duration::from_millis(50));
            assert_eq!(
                c.server_stats("leader").followers,
                1,
                "the session stays registered"
            );
            leader.snapshot_with_retention(1).unwrap();
        }
        let oldest = modb_wal::list_segments(leader.dir()).unwrap()[0].0;
        assert!(
            oldest <= w,
            "compaction deleted log the stalled follower still needs \
             (oldest surviving segment starts at {oldest}, follower acked {w})"
        );
        assert_eq!(c.replica(f).applied_lsn(), w, "the stall held");
        hold.set(false);
        converge(&mut c, &leader, f);
        let stats = c.replica(f).stats();
        assert_eq!((stats.connects, stats.bootstraps), (1, 1), "{stats}");
    }

    /// A leader host that dies without a reset: after the bootstrap the
    /// stream stalls for good, the session still open at both ends. The
    /// follower ends the session once nothing has arrived for
    /// [`SESSION_DEADLINE`] (50 missed heartbeats), dials again, resumes
    /// from its watermark and converges; the leader releases the silent
    /// session's horizon entry as the link closes.
    #[test]
    fn a_silent_upstream_ends_the_session_and_the_follower_redials() {
        let hold = Rc::new(Cell::new(false));
        let (mut c, leader, f) = faulty("silent", 5, vec![Fault::Stall(Rc::clone(&hold))]);
        churn(&leader, 1..=10, 5);
        converge(&mut c, &leader, f);
        hold.set(true);
        let stalled = c.clock.now();
        churn(&leader, 11..=20, 5);
        c.run_for(SESSION_DEADLINE - HEARTBEAT_INTERVAL);
        let stats = c.replica(f).stats();
        assert_eq!(stats.connects, 1, "{stats}");
        assert_ne!(stats.phase, ReplicaPhase::Connecting, "{stats}");
        c.run_until("the follower to dial again", |c| {
            c.replica(f).stats().connects == 2
        });
        let waited = c.clock.now() - stalled;
        assert!(
            waited <= SESSION_DEADLINE + HEARTBEAT_INTERVAL + RECONNECT_BACKOFF,
            "{waited:?}"
        );
        converge(&mut c, &leader, f);
        let stats = c.replica(f).stats();
        assert_eq!((stats.connects, stats.bootstraps), (2, 1), "{stats}");
        let served = c.server_stats("leader");
        assert_eq!((served.connections, served.followers), (2, 1));
    }

    /// The operator's mistake, promoting the staler standby: f2 and f3
    /// stop following at one watermark, the leader moves on with f1 and
    /// dies, and f2 is promoted, its seal at that watermark. The fresher
    /// f1, repointed at f2, is refused `Diverged` at exactly the seal,
    /// applies nothing and stops for good; f3, no further than the seal,
    /// resumes.
    #[test]
    fn a_fresher_follower_of_a_staler_promotee_is_refused_at_the_seal() {
        let mut c = Cluster::new("staler", 11);
        let leader = c.leader(4);
        c.serve("leader", &leader);
        let [f1, f2, f3] = ["f1", "f2", "f3"].map(|name| c.follow(name, "leader"));
        churn(&leader, 1..=4, 4);
        let sealed_at = leader.wal().next_lsn();
        c.run_until("the standbys to converge", |c| {
            [f1, f2, f3].map(|f| c.replica(f).applied_lsn()) == [sealed_at; 3]
        });
        for f in [f2, f3] {
            c.replica(f).repoint("nowhere");
        }
        c.run_until("f2 and f3 to drop their sessions", |c| {
            [f2, f3].map(|f| c.replica(f).phase()) == [ReplicaPhase::Connecting; 2]
        });
        churn(&leader, 5..=6, 4);
        let fresher = leader.wal().next_lsn();
        c.run_until("f1 to move on", |c| c.replica(f1).applied_lsn() >= fresher);
        c.kill("leader");
        drop(leader);

        let promoted = c.promote(f2);
        assert_eq!(promoted.wal().next_lsn(), sealed_at + 1);
        c.serve("f2", &promoted);
        let applied = c.replica(f1).stats().records_applied;
        for f in [f1, f3] {
            c.replica(f).repoint("f2");
        }
        c.run_until("f1 to be refused", |c| {
            c.replica(f1).phase() == ReplicaPhase::Diverged
        });
        let info = DivergenceInfo {
            leader_epoch: 2,
            boundary_lsn: sealed_at,
            local_next_lsn: fresher,
        };
        assert_eq!(c.replica(f1).divergence(), Some(info));
        let stats = c.replica(f1).stats();
        assert_eq!(
            (stats.applied_lsn, stats.records_applied),
            (fresher, applied)
        );
        assert!(c.server_stats("f2").session_errors >= 1);

        c.run_until("f3 to resume on the promotee", |c| {
            c.replica(f3).applied_lsn() > sealed_at
        });
        assert_eq!(c.replica(f3).stats().bootstraps, 1, "resumed");
        assert_eq!(c.replica(f3).epoch(), 2, "the seal is applied");
    }

    /// Follower crash-restart: a standby taking local snapshots goes
    /// down, the leader moves on, and the standby reopened on the same
    /// directory resumes from its local snapshot and log — no
    /// re-bootstrap — goes steady and converges.
    #[test]
    fn restart_resumes_from_local_snapshot_without_rebootstrap() {
        let mut c = Cluster::new("restart", 13);
        let leader = c.leader(10);
        c.serve("leader", &leader);
        let config = ReplicaConfig {
            snapshot_every: 16,
            ..replica_config()
        };
        let f = c.follow_with("f", "leader", config.clone());
        churn(&leader, 1..=60, 10);
        converge(&mut c, &leader, f);
        let stats = c.shutdown(f);
        assert_eq!(stats.bootstraps, 1, "first contact bootstraps: {stats}");
        assert!(stats.snapshots_taken >= 1, "local snapshots: {stats}");
        assert_eq!(stats.applied_lsn, leader.wal().next_lsn());

        churn(&leader, 61..=90, 10);
        let f = c.follow_with("f", "leader", config);
        assert_eq!(
            c.replica(f).applied_lsn(),
            stats.applied_lsn,
            "local recovery restored the watermark"
        );
        converge(&mut c, &leader, f);
        c.run_until("the follower to go steady", |c| {
            c.replica(f).phase() == ReplicaPhase::Steady
        });
        let stats = c.replica(f).stats();
        assert_eq!(
            stats.bootstraps, 0,
            "restart must not re-bootstrap: {stats}"
        );
    }

    /// A bootstrap snapshot of several messages, re-shipped to a follower
    /// that has state of its own, under cuts between and inside the
    /// messages, a flipped byte, a duplicated run and two swapped ones.
    /// Until the last frame validates the follower keeps its previous
    /// database, watermark and files; a duplicated or reordered run is
    /// refused, never appended; and it converges on the leader's
    /// snapshot, byte for byte.
    #[test]
    fn a_multi_message_bootstrap_leaves_the_previous_state_until_its_last_frame() {
        let (mut c, leader, f) = faulty("multi", 5, vec![]);
        for id in 6..=2_000 {
            let arc = (id % 900) as f64;
            leader.register_moving(vehicle(id, arc)).unwrap();
        }
        leader.snapshot_with_retention(1).unwrap();
        converge(&mut c, &leader, f);
        let watermark = c.replica(f).applied_lsn();
        c.shutdown(f);
        c.run_until("the leader to release the session", |c| {
            c.server_stats("leader").followers == 0
        });

        // While the follower is away the leader moves on and compacts
        // the log it would resume from: its next session re-bootstraps.
        churn(&leader, 1..=40, 5);
        let snapshot = std::fs::read(leader.snapshot_with_retention(1).unwrap()).unwrap();
        let oldest = modb_wal::list_segments(leader.dir()).unwrap()[0].0;
        assert!(
            oldest > watermark,
            "log from {oldest}, follower at {watermark}"
        );

        // Where each snapshot message of that session ends on the link.
        let shipment = Shipment::newest(leader.dir()).unwrap();
        let ends: Vec<usize> = (shipment.runs(ship_config().chunk_records))
            .map(|run| {
                encode_frame(&Message::SnapshotBlocks(run), MAX_MESSAGE_BYTES)
                    .unwrap()
                    .len()
            })
            .scan(0, |at, len| {
                *at += len;
                Some(*at)
            })
            .collect();
        assert!(ends.len() >= 3, "{} snapshot runs", ends.len());

        let hold = Rc::new(Cell::new(true));
        for fault in [
            Fault::CutAfterBytes(ends[0]),                 // between runs 1 and 2
            Fault::CutAfterBytes((ends[0] + ends[1]) / 2), // inside run 2
            Fault::CorruptByteAt(ends[1] + 64),            // inside run 3
            Fault::DuplicateMessages,                      // run 1 twice
            Fault::SwapMessages(1),                        // run 3 before run 2
            Fault::Stall(Rc::clone(&hold)),
        ] {
            c.push_fault("leader", fault);
        }
        let fdir = c.dir("f");
        let before = files(&fdir);
        let f = c.follow("f", "leader");
        let expected_before = c.replica(f).database().with_read(|db| db.clone());
        c.run_until("the five faulty sessions", |c| {
            c.replica(f).stats().connects >= 6
        });
        let stats = c.replica(f).stats();
        assert_eq!(
            (stats.applied_lsn, stats.bootstraps),
            (watermark, 0),
            "{stats}"
        );
        assert!(
            stats.resyncs >= 3 && stats.rejected_messages >= 2,
            "the flipped byte, the duplicated run and the reordered one: {stats}"
        );
        assert_eq!(files(&fdir), before, "the previous files are untouched");
        c.replica(f)
            .database()
            .with_read(|db| assert_converged(&expected_before, db));

        // Let the last session through: the snapshot installs whole.
        hold.set(false);
        converge(&mut c, &leader, f);
        assert_eq!(c.replica(f).stats().bootstraps, 1);
        let installed: Vec<Vec<u8>> = files(&fdir)
            .into_iter()
            .filter(|(name, _)| name.ends_with(".snap"))
            .map(|(_, bytes)| bytes)
            .collect();
        assert_eq!(installed, [snapshot], "the leader's snapshot, once");
    }
}
