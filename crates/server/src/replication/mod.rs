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
//!   `Clock` (the transport, `crate::framed`: a TCP stream and the wall
//!   clock in production) that makes the session's decisions itself —
//!   `LeaderShell` in `leader.rs`, the follower's `Worker` in
//!   `follower.rs` — so the tests drive one side from the other end of an
//!   in-memory link, or step a whole cluster and its query clients in one
//!   thread, on a virtual clock (the `sim` module below).
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
mod protocol;

pub(crate) use follower::Published;
pub use follower::{
    DivergenceInfo, ReplicaConfig, ReplicaPhase, ReplicaStatsSnapshot, ReplicaWatch, StandbyReplica,
};
pub use horizon::ShipHorizon;
pub use lag::LagClock;
pub use leader::{ReplicationConfig, ReplicationServer, ReplicationStatsSnapshot};
#[cfg(test)]
pub(crate) use protocol::Message;

#[cfg(test)]
pub(crate) mod sim {
    //! A deterministic cluster driver. A leader, chained followers, query
    //! front-ends on any node, their clients, and the operator's
    //! `promote` / `repoint` run in one thread: each follower is its
    //! [`Worker`] stepped over an in-memory link, each served replication
    //! connection a [`LeaderShell`] and each client connection a
    //! [`FrontSession`] stepped beside it, all on one virtual clock. A
    //! round steps every actor once, in an order drawn from the seed; a
    //! round in which nothing moved advances the clock by one leader poll
    //! interval. A client's request runs rounds until its answer is
    //! whole. The same seed gives the same run, event for event. No
    //! socket, no sleep, no spawned thread.

    use std::collections::{BTreeMap, BTreeSet, VecDeque};
    use std::ops::RangeInclusive;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use modb_core::{
        Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
        UpdateMessage, UpdatePosition,
    };
    use modb_geom::Point;
    use modb_policy::BoundKind;
    use modb_query::QueryResult;
    use modb_routes::{Direction, Route, RouteId, RouteNetwork};
    use modb_wal::{Shipment, WalError, WalOptions};

    use super::follower::{SessionEnd, Worker, RECONNECT_BACKOFF};
    use super::leader::{LeaderShell, ShipContext, HEARTBEAT_INTERVAL, POLL_INTERVAL};
    use super::protocol::{Message, SESSION_DEADLINE};
    use super::{
        DivergenceInfo, ReplicaConfig, ReplicaPhase, ReplicaStatsSnapshot, ReplicationConfig,
        ReplicationStatsSnapshot, StandbyReplica,
    };
    use crate::durable::DurableDatabase;
    use crate::framed::mem::{pair, Fault, MemLink, VirtualClock};
    use crate::framed::{encode_frame, Clock, Link, ReadEvent, Step};
    use crate::ingest::IngestHandle;
    use crate::net::{
        self, BatchOutcome, FrontSession, QueryClient, RemoteUpdateVerdict, Reply, ServeContext,
        ServerStatsSnapshot, REQUEST_DEADLINE, STALE_DEADLINE,
    };
    use crate::node::Node;
    use crate::query_engine::QueryEngine;

    /// How much virtual time a wait may take before the run is declared
    /// stuck.
    const PATIENCE: Duration = Duration::from_secs(120);

    /// A replication server on the simulated network.
    struct Server {
        ctx: ShipContext,
        sessions: Vec<LeaderShell<MemLink<Message>>>,
        /// The faults the next connections draw, one each, then none.
        faults: VecDeque<Fault>,
    }

    /// A query front-end on the simulated network.
    struct Front {
        ctx: ServeContext,
        sessions: Vec<FrontSession<MemLink<net::Message>>>,
        /// The server is shutting down.
        stopping: bool,
    }

    /// A standby, its worker, and the link of its live session.
    struct Standby {
        name: String,
        replica: StandbyReplica,
        worker: Worker,
        link: Option<MemLink<Message>>,
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
        Front(String),
    }

    pub(crate) struct Cluster {
        clock: Arc<VirtualClock>,
        rng: u64,
        root: PathBuf,
        servers: BTreeMap<String, Server>,
        standbys: Vec<Option<Standby>>,
        fronts: BTreeMap<String, Front>,
        clients: Vec<QueryClient>,
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
                fronts: BTreeMap::new(),
                clients: Vec::new(),
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
            if let Some(server) = self.servers.remove(addr) {
                for shell in server.sessions {
                    shell.close(&server.ctx, false);
                }
            } else {
                let front = self.fronts.remove(addr).expect("no such server");
                front.sessions.into_iter().for_each(FrontSession::close);
            }
            self.note(addr, "killed");
        }

        /// Serves queries on `node` at `addr`, with `ingest` taking update
        /// frames; the sessions keep the cluster's clock.
        pub(crate) fn serve_queries(
            &mut self,
            addr: &str,
            node: &Arc<Node>,
            ingest: Option<IngestHandle>,
        ) {
            let ctx = ServeContext {
                engine: Arc::new(QueryEngine::new(node.database().clone())),
                node: Arc::clone(node),
                ingest,
                clock: self.clock(),
            };
            let front = Front {
                ctx,
                sessions: Vec::new(),
                stopping: false,
            };
            assert!(self.fronts.insert(addr.to_string(), front).is_none());
        }

        /// The front-end at `addr` shuts down: each session answers the
        /// request in hand, then ends.
        pub(crate) fn stop_queries(&mut self, addr: &str) {
            self.fronts
                .get_mut(addr)
                .expect("no such front-end")
                .stopping = true;
        }

        /// Sessions the front-end at `addr` is serving: its taken slots.
        pub(crate) fn front_sessions(&self, addr: &str) -> usize {
            self.fronts[addr].sessions.len()
        }

        /// A raw connection to the front-end at `addr`: its far end is a
        /// new session, and `fault` acts on what the session sends.
        pub(crate) fn dial_queries(&mut self, addr: &str, fault: Fault) -> MemLink<net::Message> {
            let front = self.fronts.get_mut(addr).expect("no such front-end");
            let (link, acceptor) = pair(fault);
            front
                .sessions
                .push(FrontSession::open(acceptor, &front.ctx));
            link
        }

        /// A client of the front-end at `addr`, once its handshake is
        /// answered.
        pub(crate) fn connect(&mut self, addr: &str) -> usize {
            self.connect_with(addr, Fault::None).expect("handshake")
        }

        /// [`Cluster::connect`] over a link whose replies pass `fault`.
        pub(crate) fn connect_with(&mut self, addr: &str, fault: Fault) -> Result<usize, WalError> {
            let link = Box::new(self.dial_queries(addr, fault));
            let unaddressed = std::net::SocketAddr::from(([0, 0, 0, 0], 0));
            self.clients.push(QueryClient::open(link, unaddressed)?);
            let client = self.clients.len() - 1;
            if let Err(e) = self.reply(client) {
                self.disconnect(client);
                return Err(e);
            }
            Ok(client)
        }

        /// `client` hangs up.
        pub(crate) fn disconnect(&mut self, client: usize) {
            self.clients[client].hang_up();
        }

        /// `client` sends `request`; rounds run until its answer is whole.
        pub(crate) fn call(
            &mut self,
            client: usize,
            request: net::Message,
        ) -> Result<Reply, WalError> {
            self.request(client, request)?;
            self.reply(client)
        }

        /// `client` sends `request`, and nothing runs.
        pub(crate) fn request(
            &mut self,
            client: usize,
            request: net::Message,
        ) -> Result<(), WalError> {
            self.clients[client].request(request)
        }

        /// Runs rounds until the answer to `client`'s request is whole.
        pub(crate) fn reply(&mut self, client: usize) -> Result<Reply, WalError> {
            let deadline = self.clock.now() + PATIENCE;
            loop {
                let now = self.clock.now();
                if let Some(reply) = self.clients[client].poll(now)? {
                    return Ok(reply);
                }
                assert!(now < deadline, "stuck waiting for a reply");
                if !self.round() {
                    self.clock.sleep_until(now + POLL_INTERVAL);
                }
            }
        }

        /// `client` runs `script` with the read-your-writes floor
        /// `min_lsn`.
        pub(crate) fn batch(&mut self, client: usize, script: &str, min_lsn: u64) -> BatchOutcome {
            let script = script.to_string();
            match self.call(client, net::Message::Batch { script, min_lsn }) {
                Ok(Reply::Batch(outcome)) => outcome,
                other => panic!("a batch was answered {other:?}"),
            }
        }

        /// `client` sends one update frame; its verdicts.
        pub(crate) fn update(
            &mut self,
            client: usize,
            updates: Vec<(ObjectId, UpdateMessage)>,
        ) -> Vec<RemoteUpdateVerdict> {
            match self.call(client, net::Message::UpdateBatch { updates }) {
                Ok(Reply::Update(verdicts)) => verdicts,
                other => panic!("an update frame was answered {other:?}"),
            }
        }

        /// `client` scrapes its front-end.
        pub(crate) fn scrape(&mut self, client: usize) -> ServerStatsSnapshot {
            match self.call(client, net::Message::StatsRequest) {
                Ok(Reply::Stats(stats)) => *stats,
                other => panic!("a scrape was answered {other:?}"),
            }
        }

        /// The highest update-ack frontier `client` has seen.
        pub(crate) fn token(&self, client: usize) -> u64 {
            self.clients[client].token()
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
            actors.extend(self.fronts.keys().cloned().map(Actor::Front));
            for i in (1..actors.len()).rev() {
                let j = (self.draw() % (i as u64 + 1)) as usize;
                actors.swap(i, j);
            }
            let mut moved = false;
            for actor in actors {
                moved |= match actor {
                    Actor::Standby(i) => self.step_standby(i),
                    Actor::Server(addr) => self.step_server(&addr),
                    Actor::Front(addr) => self.step_front(&addr),
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
                            let fault = server.faults.pop_front().unwrap_or_default();
                            let (mut link, acceptor) = pair(fault);
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
            let (ctx, sessions) = (&server.ctx, &mut server.sessions);
            let (moved, ended) =
                step_all(sessions, |s| s.step(ctx), |s, r| s.close(ctx, r.is_err()));
            for event in ended {
                self.note(addr, &event);
            }
            moved
        }

        fn step_front(&mut self, addr: &str) -> bool {
            let front = self.fronts.get_mut(addr).expect("listed");
            let (ctx, stopping) = (&front.ctx, front.stopping);
            let step = |s: &mut FrontSession<_>| s.step(ctx, stopping);
            let (moved, ended) = step_all(&mut front.sessions, step, |s, _| s.close());
            for event in ended {
                self.note(addr, &format!("client {event}"));
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

    /// Steps every session once, closing the ones that end: whether one
    /// moved, and how each ended one did.
    fn step_all<S>(
        sessions: &mut Vec<S>,
        mut step: impl FnMut(&mut S) -> Result<Step, WalError>,
        mut close: impl FnMut(S, &Result<Step, WalError>),
    ) -> (bool, Vec<String>) {
        let (mut moved, mut ended, mut i) = (false, Vec::new(), 0);
        while i < sessions.len() {
            match step(&mut sessions[i]) {
                Ok(Step::Busy) => moved = true,
                Ok(Step::Idle) => {}
                result => {
                    close(sessions.remove(i), &result);
                    ended.push(format!("session ended: {result:?}"));
                    moved = true;
                    continue;
                }
            }
            i += 1;
        }
        (moved, ended)
    }

    impl Drop for Cluster {
        fn drop(&mut self) {
            self.clients.clear();
            self.fronts.clear();
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
        let lag = c.replica(f2).watch().lag().as_secs_f64();
        assert_eq!(lag, 0.0, "a caught-up tail is current");
        let node = Arc::clone(&c.replica(f2).node);
        c.serve_queries("f2-queries", &node, None);
        let client = c.connect("f2-queries");
        let BatchOutcome::Done(served) = c.batch(client, SCRIPT, frontier) else {
            panic!("a converged chain refused its frontier");
        };
        assert_eq!(served, local(&leader, SCRIPT));
    }

    /// `script` run on `durable`'s database, errors as display strings:
    /// what a front-end serving it answers.
    fn local(durable: &DurableDatabase, script: &str) -> Vec<Result<QueryResult, String>> {
        let verdicts = QueryEngine::new(durable.database().clone()).run_batch(script);
        verdicts
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect()
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
        let node = Arc::clone(&c.replica(f).node);
        c.serve_queries("queries", &node, None);
        let client = c.connect("queries");
        let engine = QueryEngine::new(node.database().clone());
        let local = || -> Vec<Result<_, String>> {
            let verdicts = engine.run_batch(SCRIPT).into_iter();
            verdicts.map(|r| r.map_err(|e| e.to_string())).collect()
        };
        let minute_later =
            |c: &Cluster| c.clock.sleep_until(c.clock.now() + Duration::from_secs(60));
        let served = |c: &mut Cluster| match c.batch(client, SCRIPT, 0) {
            BatchOutcome::Done(verdicts) => verdicts,
            stale => panic!("{stale:?}"),
        };

        minute_later(&c);
        assert_ne!(served(&mut c), local(), "a follower widens");
        let follower = c.scrape(client);
        assert_eq!(
            (follower.wal_next_lsn, follower.replica_applied_lsn),
            (frontier, Some(frontier))
        );
        assert!(follower.replica_lag >= Some(Duration::from_secs(60)));
        assert_eq!((follower.wal_bytes_written, follower.wal_fsyncs), (0, 0));

        let promoted = c.promote(f);
        churn(&promoted, 5..=6, 4);
        minute_later(&c);
        assert_eq!(served(&mut c), local(), "a leader does not");
        let led = c.scrape(client);
        assert_eq!(led.wal_next_lsn, promoted.wal().next_lsn());
        assert_eq!((led.replica_applied_lsn, led.replica_lag), (None, None));
        let (bytes, fsyncs) = promoted.wal().io_counters();
        assert!(bytes > 0 && fsyncs > 0, "{bytes} B, {fsyncs} fsyncs");
        assert_eq!((led.wal_bytes_written, led.wal_fsyncs), (bytes, fsyncs));
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
        let hold = Arc::new(AtomicBool::new(false));
        let (mut c, leader, f) = faulty("stall", 5, vec![Fault::Stall(Arc::clone(&hold))]);
        churn(&leader, 1..=10, 5);
        converge(&mut c, &leader, f);
        hold.store(true, Ordering::SeqCst);
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
        hold.store(false, Ordering::SeqCst);
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
        let hold = Arc::new(AtomicBool::new(false));
        let (mut c, leader, f) = faulty("silent", 5, vec![Fault::Stall(Arc::clone(&hold))]);
        churn(&leader, 1..=10, 5);
        converge(&mut c, &leader, f);
        hold.store(true, Ordering::SeqCst);
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
            .map(|run| encode_frame(&Message::SnapshotBlocks(run)).unwrap().len())
            .scan(0, |at, len| {
                *at += len;
                Some(*at)
            })
            .collect();
        assert!(ends.len() >= 3, "{} snapshot runs", ends.len());

        let hold = Arc::new(AtomicBool::new(true));
        for fault in [
            Fault::CutAfterBytes(ends[0]),                 // between runs 1 and 2
            Fault::CutAfterBytes((ends[0] + ends[1]) / 2), // inside run 2
            Fault::CorruptByteAt(ends[1] + 64),            // inside run 3
            Fault::DuplicateMessages,                      // run 1 twice
            Fault::SwapMessages(1),                        // run 3 before run 2
            Fault::Stall(Arc::clone(&hold)),
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
        hold.store(false, Ordering::SeqCst);
        converge(&mut c, &leader, f);
        assert_eq!(c.replica(f).stats().bootstraps, 1);
        let installed: Vec<Vec<u8>> = files(&fdir)
            .into_iter()
            .filter(|(name, _)| name.ends_with(".snap"))
            .map(|(_, bytes)| bytes)
            .collect();
        assert_eq!(installed, [snapshot], "the leader's snapshot, once");
    }

    /// Serves queries on standby `f` at `addr`, and connects a client to
    /// it.
    fn client_of(c: &mut Cluster, f: usize, addr: &str) -> usize {
        let node = Arc::clone(&c.replica(f).node);
        c.serve_queries(addr, &node, None);
        c.connect(addr)
    }

    /// One update per object of a fleet of `vehicles`, at time `t`, as a
    /// client sends them.
    fn burst(vehicles: u64, t: f64) -> Vec<(ObjectId, UpdateMessage)> {
        (1..=vehicles)
            .map(|i| {
                let arc = UpdatePosition::Arc(10.0 * i as f64 + t * 0.5);
                (ObjectId(i), UpdateMessage::basic(t, arc, 1.0))
            })
            .collect()
    }

    /// At equal applied LSN, caught up and quiescent, a follower's
    /// served verdicts are the leader's, bit for bit — the error string
    /// included.
    #[test]
    fn follower_verdicts_are_bit_identical_at_equal_applied_lsn() {
        let (mut c, leader, f) = faulty("parity", 4, vec![]);
        churn(&leader, 1..=30, 4);
        converge(&mut c, &leader, f);
        let frontier = leader.wal().next_lsn();
        let client = client_of(&mut c, f, "f-queries");
        let BatchOutcome::Done(served) = c.batch(client, SCRIPT, frontier) else {
            panic!("a reachable floor was refused");
        };
        assert_eq!(served, local(&leader, SCRIPT));
    }

    /// A name several vehicles share resolves to the same vehicle — the
    /// one with the smallest id — on the leader and on a follower
    /// bootstrapped from the leader's snapshot. The follower's object
    /// table hashes with a seed of its own, so a rule that followed
    /// iteration order would answer the same statement about different
    /// vehicles at the same LSN.
    #[test]
    fn a_shared_name_resolves_to_the_same_vehicle_on_leader_and_follower() {
        let (mut c, leader, f) = faulty("names", 0, vec![]);
        for id in (5..=20).rev() {
            let mut dup = vehicle(id, 10.0 * id as f64);
            dup.name = "dup".into();
            leader.register_moving(dup).unwrap();
        }
        leader.snapshot().unwrap();
        converge(&mut c, &leader, f);
        assert_eq!(c.replica(f).stats().bootstraps, 1, "from the snapshot");
        let script = "RETRIEVE POSITION OF OBJECT 'dup' AT TIME 20; \
             RETRIEVE POSITION OF OBJECT 5 AT TIME 20; \
             RETRIEVE OBJECTS WITHIN 25 OF OBJECT 'dup' AT TIME 20";
        let client = client_of(&mut c, f, "f-queries");
        let frontier = leader.wal().next_lsn();
        let BatchOutcome::Done(served) = c.batch(client, script, frontier) else {
            panic!("a reachable floor was refused");
        };
        let local = local(&leader, script);
        assert_eq!(served, local);
        assert_eq!(local[0], local[1], "'dup' is object 5, the smallest id");
        let near = local[2].as_ref().unwrap().as_range().unwrap().all();
        assert!(near.contains(&ObjectId(6)) && !near.contains(&ObjectId(5)));
    }

    /// The start position a lookup reports is the point its arc names,
    /// `route.point_at(start_arc)`, bit for bit — whatever point the
    /// registration sent within the map-matching tolerance, after an
    /// `Arc` update and after a map-matched `Coordinates` update — on the
    /// leader, on a follower bootstrapped from the leader's snapshot, and
    /// on a copy recovered from that snapshot. The arcs are ones whose
    /// point is not `(arc, 0)` on this route, and the registered point is
    /// 0.1 mi off it.
    #[test]
    fn the_reported_start_position_is_the_point_its_arc_names() {
        let (mut c, leader, f) = faulty("start-point", 0, vec![]);
        let network = fresh_db().network_arc();
        let route = network.get(RouteId(1)).unwrap();
        assert_ne!(route.point_at(63.7).x, 63.7);
        let mut off = vehicle(1, 63.7);
        off.attr.start_position = Point::new(63.7, 0.1);
        leader.register_moving(off.clone()).unwrap();
        leader.register_moving(vehicle(2, 10.0)).unwrap();
        leader.register_moving(vehicle(3, 20.0)).unwrap();
        let arc = UpdateMessage::basic(1.0, UpdatePosition::Arc(127.4), 1.0);
        leader.apply_update(ObjectId(2), &arc).unwrap();
        let fix = UpdatePosition::Coordinates(Point::new(254.3, 0.2));
        let fix = UpdateMessage::basic(1.0, fix, 1.0);
        leader.apply_update(ObjectId(3), &fix).unwrap();
        let check = |db: &Database, who: &str| {
            for (id, arc) in [(1, Some(63.7)), (2, Some(127.4)), (3, None)] {
                let attr = db.moving(ObjectId(id)).unwrap().attr;
                if let Some(arc) = arc {
                    assert_eq!(attr.start_arc, arc, "{who}: vehicle {id}");
                }
                let named = route.point_at(attr.start_arc);
                assert_eq!(attr.start_position, named, "{who}: vehicle {id}");
            }
            let echoed = db.moving(ObjectId(1)).unwrap() == off;
            assert!(!echoed, "{who}: echoed the sent point");
        };
        leader.database().with_read(|db| check(db, "leader"));

        leader.snapshot().unwrap();
        converge(&mut c, &leader, f);
        assert_eq!(c.replica(f).stats().bootstraps, 1, "from the snapshot");
        c.replica(f)
            .database()
            .with_read(|db| check(db, "follower"));
        c.kill("leader");
        drop(leader);
        let recovered = modb_wal::recover(&c.dir("leader")).unwrap();
        assert_eq!(recovered.report.replayed, 0, "all of it from the snapshot");
        check(&recovered.database, "recovered");
    }

    /// A floor the follower cannot reach is parked for the stale
    /// deadline and then refused with the typed `Stale` — its watermark,
    /// the floor echoed — never a hang and never a stale answer; the
    /// session survives. A reachable floor is answered at once, and once
    /// the leader crosses the refused floor, that floor is answered as
    /// soon as the follower applies it.
    #[test]
    fn unreachable_floor_is_a_typed_stale_refusal_not_a_hang() {
        let (mut c, leader, f) = faulty("stale", 4, vec![]);
        churn(&leader, 1..=10, 4);
        converge(&mut c, &leader, f);
        let frontier = leader.wal().next_lsn();
        let limit = STALE_DEADLINE;
        let client = client_of(&mut c, f, "f-queries");

        let floor = frontier + 50;
        let asked = c.clock.now();
        match c.batch(client, SCRIPT, floor) {
            BatchOutcome::Stale { applied, required } => {
                assert_eq!(required, floor, "the refusal echoes the floor");
                assert!((frontier..floor).contains(&applied), "{applied}");
            }
            BatchOutcome::Done(_) => panic!("an unreachable floor was answered"),
        }
        let waited = c.clock.now() - asked;
        assert!(
            limit <= waited && waited < limit + 5 * POLL_INTERVAL,
            "{waited:?}"
        );

        let asked = c.clock.now();
        assert!(matches!(c.batch(client, SCRIPT, frontier), BatchOutcome::Done(v) if v.len() == 4));
        assert_eq!(c.clock.now(), asked, "a reachable floor waits for nothing");
        churn(&leader, 11..=30, 4);
        assert!(matches!(c.batch(client, SCRIPT, floor), BatchOutcome::Done(v) if v.len() == 4));
        assert!(c.replica(f).applied_lsn() >= floor);
    }

    /// Byte-level faults on a follower's front-end end the offending
    /// session, release its slot and never wedge it: a garbage header,
    /// half a request then silence (reaped at the request deadline), and
    /// replies corrupted in flight — on the handshake and inside a
    /// batch's statements.
    #[test]
    fn byte_faults_on_the_serving_link_do_not_wedge_the_follower() {
        let (mut c, leader, f) = faulty("serving-faults", 4, vec![]);
        churn(&leader, 1..=10, 4);
        converge(&mut c, &leader, f);
        let frontier = leader.wal().next_lsn();
        let client = client_of(&mut c, f, "q");
        c.disconnect(client);
        let released = |c: &mut Cluster, what: &str| {
            c.run_until(what, |c| c.front_sessions("q") == 0);
            let client = c.connect("q");
            let BatchOutcome::Done(verdicts) = c.batch(client, SCRIPT, frontier) else {
                panic!("{what}: a healthy floor was refused");
            };
            assert!(verdicts[0].is_ok(), "{what}: {:?}", verdicts[0]);
            c.disconnect(client);
        };
        released(&mut c, "a healthy client to leave");

        let mut vandal = c.dial_queries("q", Fault::None);
        vandal.send_bytes(&[0xff; 16]).unwrap();
        released(&mut c, "the garbage header's session to end");
        assert!(matches!(vandal.poll(c.clock.now()), Ok(ReadEvent::Closed)));

        let mut staller = c.dial_queries("q", Fault::None);
        let version = net::NET_PROTOCOL_VERSION;
        staller.send(&net::Message::Hello { version }).unwrap();
        let script = SCRIPT.to_string();
        let batch = net::Message::Batch { script, min_lsn: 0 };
        let frame = encode_frame(&batch).unwrap();
        staller.send_bytes(&frame[..frame.len() / 2]).unwrap();
        let stalled = c.clock.now();
        released(&mut c, "the staller to be reaped");
        assert!(c.clock.now() - stalled > REQUEST_DEADLINE);

        // The `HelloAck` is bytes 0..13: byte 12 fails the handshake, byte
        // 40 the first statement of a batch.
        assert!(c.connect_with("q", Fault::CorruptByteAt(12)).is_err());
        released(&mut c, "the corrupted handshake's session to end");
        let client = c.connect_with("q", Fault::CorruptByteAt(40)).unwrap();
        let batch = net::Message::Batch {
            script: SCRIPT.into(),
            min_lsn: frontier,
        };
        assert!(matches!(c.call(client, batch), Err(WalError::Decode(_))));
        c.disconnect(client);
        released(&mut c, "the corrupted batch's session to end");
    }

    /// Served uncertainty must contain the leader's: equal when
    /// quiescent, and a nonzero lag only ever widens — bounds and
    /// intervals grow, `must` only drains into `may`, a `certain`
    /// neighbour is certain on the leader too.
    fn contains_widened(served: &QueryResult, leader: &QueryResult) -> Result<(), String> {
        const EPS: f64 = 1e-9;
        match (served, leader) {
            (QueryResult::Position(r), QueryResult::Position(l)) => {
                if r.position != l.position || r.arc != l.arc {
                    return Err(format!("position moved: {r:?} vs {l:?}"));
                }
                if r.bound + EPS < l.bound
                    || r.interval.0 > l.interval.0 + EPS
                    || r.interval.1 + EPS < l.interval.1
                {
                    return Err(format!("uncertainty shrank: {r:?} vs {l:?}"));
                }
            }
            (QueryResult::Range(r), QueryResult::Range(l)) => {
                let must = |a: &modb_core::RangeAnswer| -> BTreeSet<ObjectId> {
                    a.must.iter().copied().collect()
                };
                let all = |a: &modb_core::RangeAnswer| -> BTreeSet<ObjectId> {
                    a.all().into_iter().collect()
                };
                if !must(r).is_subset(&must(l)) || all(r) != all(l) {
                    return Err(format!("range answer changed: {r:?} vs {l:?}"));
                }
            }
            (QueryResult::Nearest(r), QueryResult::Nearest(l)) => {
                if r.ranked.len() != l.ranked.len() {
                    return Err(format!("ranking length changed: {r:?} vs {l:?}"));
                }
                for (rn, ln) in r.ranked.iter().zip(&l.ranked) {
                    if rn.id != ln.id
                        || (rn.distance - ln.distance).abs() > EPS
                        || rn.bound + EPS < ln.bound
                        || (rn.certain && !ln.certain)
                    {
                        return Err(format!("neighbour changed: {rn:?} vs {ln:?}"));
                    }
                }
            }
            _ => return Err("verdict kind changed".to_string()),
        }
        Ok(())
    }

    /// Read-your-writes through a leader → f1 → f2 chain, over seeded
    /// runs of write bursts, floored reads and checkpoints. A writer
    /// session on the leader's front-end sends each burst; a reader on a
    /// follower, floored at the writer's token, observes the burst — its
    /// answer contains the leader's, widened by the lag at most — and a
    /// typed `Stale` while the chain catches up is retried, never a
    /// pre-write answer. At checkpoints and at the end the whole chain
    /// has converged.
    #[test]
    fn session_token_reads_observe_own_writes_through_the_chain() {
        for seed in 0..8 {
            let mut c = Cluster::new("ryw", seed);
            let fleet = 2 + c.draw() % 4;
            let leader = c.leader(fleet);
            c.serve("leader", &leader);
            let f1 = c.follow("f1", "leader");
            c.serve_standby("f1", f1);
            let f2 = c.follow("f2", "f1");
            let service = leader.ingest_service(0, 0);
            c.serve_queries("leader-q", leader.node(), Some(service.handle()));
            let writer = c.connect("leader-q");
            let readers = [f1, f2].map(|f| client_of(&mut c, f, &format!("q{f}")));
            let (mut t, mut token) = (0.0, leader.wal().next_lsn());
            for _ in 0..10 + c.draw() % 40 {
                match c.draw() % 6 {
                    0 | 1 => {
                        t += 1.0;
                        let verdicts = c.update(writer, burst(fleet, t));
                        assert!(verdicts.iter().all(|v| v.is_accepted()), "{verdicts:?}");
                        token = c.token(writer);
                        assert_eq!(token, leader.wal().next_lsn(), "the ack is the frontier");
                    }
                    2..=4 => {
                        let reader = readers[(c.draw() % 2) as usize];
                        let id = 1 + c.draw() % fleet;
                        let script = format!(
                            "RETRIEVE POSITION OF OBJECT {id} AT TIME {t}; \
                             RETRIEVE OBJECTS INSIDE RECT (0, -1, 1000, 1) AT TIME {t}; \
                             RETRIEVE 2 NEAREST OBJECTS TO POINT (20, 0) AT TIME {t}"
                        );
                        let served = loop {
                            match c.batch(reader, &script, token) {
                                BatchOutcome::Done(verdicts) => break verdicts,
                                BatchOutcome::Stale { required, .. } => assert_eq!(required, token),
                            }
                        };
                        for (i, (r, l)) in served.iter().zip(local(&leader, &script)).enumerate() {
                            match (r, &l) {
                                (Ok(r), Ok(l)) => contains_widened(r, l).unwrap_or_else(|why| {
                                    panic!("seed {seed}, statement {i}: {why}")
                                }),
                                _ => assert_eq!(r, &l, "seed {seed}, statement {i}"),
                            }
                        }
                    }
                    _ => {
                        converge(&mut c, &leader, f1);
                        converge(&mut c, &leader, f2);
                    }
                }
            }
            converge(&mut c, &leader, f1);
            converge(&mut c, &leader, f2);
        }
    }

    /// Read-your-writes across a swap. A writer session on the leader's
    /// front-end acks a burst; a reader on the standby's front-end,
    /// floored at the writer's token, waits at the gate until the
    /// standby has applied it. The leader dies, every acked write on the
    /// standby, which is promoted: the same reader session reads the old
    /// token at once, and a writer on the promotee mints a token past the
    /// seal that the reader reads at once too.
    #[test]
    fn a_writers_token_reads_its_writes_across_a_promotion() {
        let mut c = Cluster::new("swap", 23);
        let leader = c.leader(4);
        c.serve("leader", &leader);
        let f = c.follow("f", "leader");
        let service = leader.ingest_service(0, 0);
        c.serve_queries("leader-q", leader.node(), Some(service.handle()));
        let writer = c.connect("leader-q");
        let reader = client_of(&mut c, f, "f-q");
        let position = |c: &mut Cluster, t: f64, token: u64| {
            let script = format!("RETRIEVE POSITION OF OBJECT 2 AT TIME {t}");
            let BatchOutcome::Done(verdicts) = c.batch(reader, &script, token) else {
                panic!("a token of an acked write was refused");
            };
            verdicts[0].as_ref().unwrap().as_position().unwrap().arc
        };

        for t in 1..=3 {
            c.update(writer, burst(4, t as f64));
        }
        let token = c.token(writer);
        assert_eq!(
            position(&mut c, 3.0, token),
            21.5,
            "the reader saw the writes"
        );
        assert!(c.replica(f).applied_lsn() >= token);
        c.kill("leader");
        c.kill("leader-q");
        drop(service);
        drop(leader);
        assert!(
            c.call(writer, net::Message::StatsRequest).is_err(),
            "its host is gone"
        );

        let promoted = c.promote(f);
        let asked = c.clock.now();
        assert_eq!(
            position(&mut c, 3.0, token),
            21.5,
            "no acked write was lost"
        );
        assert_eq!(c.clock.now(), asked, "the promotee's frontier covers it");
        let service = promoted.ingest_service(0, 0);
        c.serve_queries("f-ingest", promoted.node(), Some(service.handle()));
        let writer = c.connect("f-ingest");
        c.update(writer, burst(4, 4.0));
        let token_after = c.token(writer);
        assert!(token_after > token + 1, "past the seal");
        assert_eq!(position(&mut c, 4.0, token_after), 22.0);
        assert_eq!(c.clock.now(), asked, "a leader's own acks never wait");
    }

    /// Convergence under seeded interleavings of registers, updates and
    /// removes — rejected ones included — with forced reconnects and
    /// leader snapshot + compaction passes, one cluster round after each:
    /// at every checkpoint the follower at watermark W is the leader's
    /// database at W, and at the end the follower's own log, recovered
    /// on its own, ends at W in that state.
    #[test]
    fn follower_at_watermark_equals_leader_clone() {
        for seed in 0..8 {
            let mut c = Cluster::new("converge", seed);
            let leader = c.leader(0);
            c.serve("leader", &leader);
            let config = ReplicaConfig {
                snapshot_every: 16,
                ..replica_config()
            };
            let f = c.follow_with("f", "leader", config);
            for _ in 0..10 + c.draw() % 70 {
                let (id, arc) = (1 + c.draw() % 9, (c.draw() % 900) as f64);
                match c.draw() % 8 {
                    0 => drop(leader.register_moving(vehicle(id, arc))),
                    1..=3 => {
                        let t = (c.draw() % 60) as f64;
                        let msg = UpdateMessage::basic(t, UpdatePosition::Arc(arc), 1.0);
                        drop(leader.apply_update(ObjectId(id), &msg));
                    }
                    4 => drop(leader.remove_moving(ObjectId(id))),
                    5 => c.replica(f).repoint("leader"),
                    6 => drop(leader.snapshot_with_retention(2).unwrap()),
                    _ => converge(&mut c, &leader, f),
                }
                c.round();
            }
            converge(&mut c, &leader, f);
            let w = leader.wal().next_lsn();
            assert_eq!(c.replica(f).applied_lsn(), w, "seed {seed}");
            let at_w = leader.database().with_read(|db| db.clone());
            c.shutdown(f);
            let recovered = modb_wal::recover(&c.dir("f")).unwrap();
            assert_eq!(recovered.report.next_lsn, w, "seed {seed}");
            assert_converged(&at_w, &recovered.database);
        }
    }
}
