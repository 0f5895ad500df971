//! Lag-aware read routing across a fleet of follower-served query
//! front-ends.
//!
//! A [`ReadRouter`] holds one [`QueryClient`] per follower endpoint,
//! periodically polls each one's stats frame for its applied watermark
//! (`modb_replica_applied_lsn`, or the WAL frontier when the endpoint is
//! a leader) and lag clock, and sends each batch to the freshest
//! follower that can satisfy the batch's read-your-writes token:
//!
//! - candidates whose last-known watermark covers the token are tried
//!   first, least-lagged first — they answer without waiting;
//! - a typed `Stale` refusal **overwrites** the endpoint's watermark
//!   with the refusal's (it is authoritative — the poll view that put
//!   the refuser first was stale) and adds
//!   [`ReadRouterConfig::stale_penalty`] to its lag, so the next routing
//!   decision rotates to a fresher follower instead of hammering the
//!   same refuser;
//! - a transport error drops the connection and fails over likewise; the
//!   endpoint is re-dialed on a later refresh, but never sooner than
//!   [`ReadRouterConfig::redial_backoff`] after the loss, and each dial
//!   is bounded by the client config's `connect_timeout` — a dead
//!   endpoint costs the batch path a bounded, rate-limited amount, not a
//!   synchronous full-length TCP timeout per batch.
//!
//! Only when *every* endpoint refuses or fails does the batch error out,
//! and the error is typed ([`RouterError`]): `AllStale` carries the
//! freshest watermark seen against the floor that beat it, `NoEndpoint`
//! means nothing was even reachable. This is the client half of the
//! read-fan-out story (DESIGN.md §15): one write leader, N chained
//! followers, readers spread by staleness.

use std::fmt;
use std::time::{Duration, Instant};

use modb_wal::WalError;

use crate::net::client::{BatchOutcome, QueryClient, QueryClientConfig};
use crate::net::protocol::RemoteVerdict;

/// Tuning for [`ReadRouter`].
#[derive(Debug, Clone)]
pub struct ReadRouterConfig {
    /// How stale the router's view of follower watermarks may grow
    /// before the next batch triggers a re-poll (and re-dials dead
    /// endpoints whose backoff has elapsed).
    pub refresh_interval: Duration,
    /// Minimum pause between dial attempts at one dead endpoint. Keeps
    /// an unreachable follower from taxing every refresh (and therefore
    /// the batch path) with a fresh connection attempt.
    pub redial_backoff: Duration,
    /// Added to an endpoint's lag view when it answers a batch with a
    /// `Stale` refusal, demoting it behind equally-satisfying peers in
    /// the next routing decision so retries rotate instead of pinning.
    pub stale_penalty: Duration,
    /// Per-connection tuning for the underlying [`QueryClient`]s. The
    /// default sets `connect_timeout` so a black-holed endpoint cannot
    /// stall a refresh for the OS connect timeout; keep it set if you
    /// build this by hand.
    pub client: QueryClientConfig,
}

impl Default for ReadRouterConfig {
    fn default() -> Self {
        ReadRouterConfig {
            refresh_interval: Duration::from_millis(250),
            redial_backoff: Duration::from_secs(1),
            stale_penalty: Duration::from_millis(250),
            client: QueryClientConfig {
                connect_timeout: Some(Duration::from_millis(250)),
                ..QueryClientConfig::default()
            },
        }
    }
}

/// Why the router could not serve a batch (or come up at all). Converts
/// into [`WalError`] for call sites that funnel everything through the
/// storage error type.
#[derive(Debug)]
pub enum RouterError {
    /// Every reachable endpoint refused the batch's read-your-writes
    /// floor: the freshest applied watermark any refusal reported, and
    /// the floor none of them reached.
    AllStale {
        /// Highest applied watermark among the refusals.
        applied: u64,
        /// The read-your-writes floor the batch demanded.
        required: u64,
    },
    /// No endpoint is connected: none were given, none were reachable,
    /// or every dial is sitting out its backoff after a connection loss.
    NoEndpoint,
    /// Every connected endpoint failed at the transport level; the last
    /// error observed.
    Transport(WalError),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::AllStale { applied, required } => write!(
                f,
                "every follower stale: freshest applied {applied} < required {required}"
            ),
            RouterError::NoEndpoint => write!(f, "no read endpoint reachable"),
            RouterError::Transport(e) => write!(f, "every read endpoint failed; last error: {e}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RouterError> for WalError {
    fn from(e: RouterError) -> Self {
        match e {
            RouterError::AllStale { .. } => WalError::Io(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                e.to_string(),
            )),
            RouterError::NoEndpoint => WalError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                e.to_string(),
            )),
            RouterError::Transport(inner) => inner,
        }
    }
}

/// The router's last-known view of one follower endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowerStatus {
    /// The endpoint address as given to [`ReadRouter::connect`].
    pub addr: String,
    /// Whether a live connection is currently held.
    pub connected: bool,
    /// Applied watermark from the last stats poll (0 before the first).
    pub applied_lsn: u64,
    /// Lag clock from the last stats poll (zero for a leader endpoint),
    /// plus any accumulated stale penalties since.
    pub lag: Duration,
}

struct Endpoint {
    addr: String,
    client: Option<QueryClient>,
    applied_lsn: u64,
    lag: Duration,
    /// Earliest instant the next dial may be attempted; `None` = now.
    next_dial: Option<Instant>,
}

/// Routes read batches to the least-lagged follower satisfying each
/// batch's session token, failing over on staleness and connection loss.
/// See the module docs for the policy.
pub struct ReadRouter {
    endpoints: Vec<Endpoint>,
    config: ReadRouterConfig,
    last_refresh: Option<Instant>,
}

impl ReadRouter {
    /// Connects to a fleet of follower (or leader) query front-ends and
    /// takes an initial watermark poll. Endpoints that cannot be reached
    /// yet are kept and re-dialed on later refreshes — the router comes
    /// up as long as *one* endpoint answers.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoEndpoint`]: an empty endpoint list, or every
    /// endpoint unreachable.
    pub fn connect<S: Into<String>>(
        addrs: impl IntoIterator<Item = S>,
        config: ReadRouterConfig,
    ) -> Result<Self, RouterError> {
        let endpoints: Vec<Endpoint> = addrs
            .into_iter()
            .map(|a| Endpoint {
                addr: a.into(),
                client: None,
                applied_lsn: 0,
                lag: Duration::ZERO,
                next_dial: None,
            })
            .collect();
        if endpoints.is_empty() {
            return Err(RouterError::NoEndpoint);
        }
        let mut router = ReadRouter {
            endpoints,
            config,
            last_refresh: None,
        };
        router.refresh();
        if router.endpoints.iter().all(|e| e.client.is_none()) {
            return Err(RouterError::NoEndpoint);
        }
        Ok(router)
    }

    /// Re-dials dead endpoints whose backoff has elapsed and re-polls
    /// every live one's watermark and lag. Called automatically when the
    /// last poll is older than [`ReadRouterConfig::refresh_interval`];
    /// call it directly to force a fresh view.
    pub fn refresh(&mut self) {
        let now = Instant::now();
        for ep in &mut self.endpoints {
            if ep.client.is_none() {
                if ep.next_dial.is_some_and(|t| now < t) {
                    continue; // still in backoff from the last failure
                }
                match QueryClient::connect_with(&ep.addr, self.config.client.clone()) {
                    Ok(client) => {
                        ep.client = Some(client);
                        ep.next_dial = None;
                    }
                    Err(_) => {
                        ep.next_dial = Some(now + self.config.redial_backoff);
                        continue;
                    }
                }
            }
            let Some(client) = ep.client.as_mut() else {
                continue;
            };
            match client.stats() {
                Ok(stats) => {
                    // A leader endpoint has no replica watermark; its WAL
                    // frontier plays the same role (it is never stale).
                    ep.applied_lsn = stats.replica_applied_lsn.unwrap_or(stats.wal_next_lsn);
                    ep.lag = stats.replica_lag.unwrap_or(Duration::ZERO);
                }
                Err(_) => {
                    ep.client = None;
                    ep.next_dial = Some(Instant::now() + self.config.redial_backoff);
                }
            }
        }
        self.last_refresh = Some(Instant::now());
    }

    fn maybe_refresh(&mut self) {
        let due = self
            .last_refresh
            .is_none_or(|t| t.elapsed() >= self.config.refresh_interval);
        if due {
            self.refresh();
        }
    }

    /// The router's current view of its fleet, in endpoint order.
    pub fn statuses(&self) -> Vec<FollowerStatus> {
        self.endpoints
            .iter()
            .map(|ep| FollowerStatus {
                addr: ep.addr.clone(),
                connected: ep.client.is_some(),
                applied_lsn: ep.applied_lsn,
                lag: ep.lag,
            })
            .collect()
    }

    /// Runs a `;`-script with no read-your-writes floor on the freshest
    /// follower.
    ///
    /// # Errors
    ///
    /// As [`ReadRouter::batch_with_token`].
    pub fn batch(&mut self, script: &str) -> Result<Vec<RemoteVerdict>, RouterError> {
        self.batch_with_token(script, 0)
    }

    /// Runs a `;`-script with read-your-writes floor `token`, routing to
    /// the least-lagged follower whose last-known watermark satisfies it
    /// and failing over — through `Stale` refusals and connection
    /// losses — until some follower answers.
    ///
    /// # Errors
    ///
    /// [`RouterError::AllStale`] when every endpoint refused the floor,
    /// [`RouterError::NoEndpoint`] when none was even connected,
    /// [`RouterError::Transport`] when connected endpoints all failed.
    pub fn batch_with_token(
        &mut self,
        script: &str,
        token: u64,
    ) -> Result<Vec<RemoteVerdict>, RouterError> {
        self.maybe_refresh();
        // Candidate order: watermark-satisfying endpoints first (least
        // lag first — they answer without waiting), then the rest by
        // freshest watermark (they may catch up within the server-side
        // wait); dead endpoints are skipped.
        let mut order: Vec<usize> = (0..self.endpoints.len())
            .filter(|&i| self.endpoints[i].client.is_some())
            .collect();
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&self.endpoints[a], &self.endpoints[b]);
            let (sa, sb) = (ea.applied_lsn >= token, eb.applied_lsn >= token);
            sb.cmp(&sa)
                .then_with(|| ea.lag.cmp(&eb.lag))
                .then_with(|| eb.applied_lsn.cmp(&ea.applied_lsn))
        });
        if order.is_empty() {
            return Err(RouterError::NoEndpoint);
        }
        let mut last_err: Option<WalError> = None;
        let mut best_stale: Option<(u64, u64)> = None;
        for i in order {
            let ep = &mut self.endpoints[i];
            let client = ep.client.as_mut().expect("dead endpoints filtered");
            match client.batch_attempt(script, token) {
                Ok(BatchOutcome::Done(verdicts)) => return Ok(verdicts),
                Ok(BatchOutcome::Stale { applied, required }) => {
                    // The refusal is authoritative: the poll view that
                    // ranked this endpoint satisfying was stale, so
                    // overwrite it (a `max` would keep the overestimate
                    // and re-elect the refuser forever) and demote its
                    // lag so retries rotate to fresher peers.
                    ep.applied_lsn = applied;
                    ep.lag = ep.lag.saturating_add(self.config.stale_penalty);
                    best_stale = Some(match best_stale {
                        Some((a, r)) => (a.max(applied), r.max(required)),
                        None => (applied, required),
                    });
                }
                Err(e) => {
                    ep.client = None;
                    ep.next_dial = Some(Instant::now() + self.config.redial_backoff);
                    last_err = Some(e);
                }
            }
        }
        if let Some((applied, required)) = best_stale {
            return Err(RouterError::AllStale { applied, required });
        }
        match last_err {
            Some(e) => Err(RouterError::Transport(e)),
            None => Err(RouterError::NoEndpoint),
        }
    }

    /// Closes every connection.
    pub fn close(mut self) {
        for ep in &mut self.endpoints {
            if let Some(client) = ep.client.take() {
                client.close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use crate::framed::{send, FrameReader, Listener, ReadEvent};
    use crate::net::protocol::{
        Message, ServerStatsSnapshot, DEFAULT_MAX_FRAME_BYTES, NET_PROTOCOL_VERSION,
    };

    fn zero_stats(applied: u64) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            wal_next_lsn: applied,
            replica_applied_lsn: Some(applied),
            replica_lag: Some(Duration::ZERO),
            ..ServerStatsSnapshot::default()
        }
    }

    /// A scriptable follower front-end: handshakes, answers stats with a
    /// controllable applied watermark, and answers each batch with one
    /// error verdict — or a `Stale` refusal when the batch's floor
    /// outruns the watermark. Counts the batches it was asked to run.
    struct FakeFollower {
        addr: String,
        applied: Arc<AtomicU64>,
        batches: Arc<AtomicU64>,
        /// Dropping it ends the follower for good: the listener closes
        /// and every session thread is joined — a connection a router
        /// still holds is dead, with no session left that could answer
        /// one more frame.
        _listener: Listener,
    }

    impl FakeFollower {
        fn spawn(applied_lsn: u64) -> Self {
            let applied = Arc::new(AtomicU64::new(applied_lsn));
            let batches = Arc::new(AtomicU64::new(0));
            let (a, b) = (Arc::clone(&applied), Arc::clone(&batches));
            let listener = Listener::spawn(
                "127.0.0.1:0",
                |_stream, _active| true,
                move |stream, stop| Self::serve(stream, &a, &b, stop),
            )
            .unwrap();
            FakeFollower {
                addr: listener.local_addr().to_string(),
                applied,
                batches,
                _listener: listener,
            }
        }

        fn serve(
            mut stream: TcpStream,
            applied: &AtomicU64,
            batches: &AtomicU64,
            stop: &AtomicBool,
        ) {
            stream
                .set_read_timeout(Some(Duration::from_millis(10)))
                .unwrap();
            let mut reader =
                FrameReader::<Message>::new(stream.try_clone().unwrap(), DEFAULT_MAX_FRAME_BYTES);
            while !stop.load(Ordering::Relaxed) {
                let msg = match reader.poll() {
                    Ok(ReadEvent::Message(m)) => m,
                    Ok(ReadEvent::Idle) => continue,
                    Ok(ReadEvent::Closed) | Err(_) => return,
                };
                let reply = match msg {
                    Message::Hello { .. } => vec![Message::HelloAck {
                        version: NET_PROTOCOL_VERSION,
                    }],
                    Message::StatsRequest => vec![Message::StatsReply(Box::new(zero_stats(
                        applied.load(Ordering::Relaxed),
                    )))],
                    Message::Batch { min_lsn, .. } => {
                        let now = applied.load(Ordering::Relaxed);
                        if min_lsn > now {
                            vec![Message::Stale {
                                applied: now,
                                required: min_lsn,
                            }]
                        } else {
                            batches.fetch_add(1, Ordering::Relaxed);
                            vec![
                                Message::Statement {
                                    index: 0,
                                    verdict: Err("fake".into()),
                                },
                                Message::BatchDone { count: 1 },
                            ]
                        }
                    }
                    _ => return,
                };
                for m in &reply {
                    if send(&mut stream, m, DEFAULT_MAX_FRAME_BYTES).is_err() {
                        return;
                    }
                }
            }
        }
    }

    fn quiet_config() -> ReadRouterConfig {
        // No mid-test re-poll: the tests drive the view by hand.
        ReadRouterConfig {
            refresh_interval: Duration::from_secs(600),
            client: QueryClientConfig {
                response_timeout: Duration::from_secs(5),
                connect_timeout: Some(Duration::from_millis(250)),
                ..QueryClientConfig::default()
            },
            ..ReadRouterConfig::default()
        }
    }

    /// Regression: a `Stale` refusal must dethrone the refuser. The old
    /// code `max`-ed the refusal's watermark into the (higher, stale)
    /// poll view and left lag untouched, so the refuser stayed the
    /// least-lagged satisfying candidate and every retry hit it first.
    #[test]
    fn stale_refusal_rotates_to_fresher_follower() {
        let fast = FakeFollower::spawn(100); // polls as fresh, lag 0
        let slow = FakeFollower::spawn(100);
        let mut router = ReadRouter::connect([&fast.addr, &slow.addr], quiet_config()).unwrap();
        // After the initial poll both advertise 100; `fast` regresses
        // (as a just-failed-over promotee's follower might) so a floor
        // of 50 now draws a refusal from it.
        fast.applied.store(10, Ordering::Relaxed);
        let verdicts = router.batch_with_token("q", 50).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(
            slow.batches.load(Ordering::Relaxed),
            1,
            "failover target must have answered"
        );
        // The refusal overwrote the stale view…
        let statuses = router.statuses();
        assert_eq!(statuses[0].applied_lsn, 10);
        assert!(statuses[0].lag > statuses[1].lag, "refuser must be demoted");
        // …so the next batch routes straight past the refuser.
        router.batch_with_token("q", 50).unwrap();
        assert_eq!(
            fast.batches.load(Ordering::Relaxed),
            0,
            "refuser must not be retried first while a satisfying peer exists"
        );
        assert_eq!(slow.batches.load(Ordering::Relaxed), 2);
    }

    /// Regression: a dead endpoint must not tax every batch with a
    /// synchronous re-dial. The victim here accepts TCP but never
    /// handshakes, so an unbounded re-dial policy would pay the full
    /// response timeout on every refresh.
    #[test]
    fn dead_endpoint_redial_is_backed_off() {
        let live = FakeFollower::spawn(100);
        // Accepts connections, never speaks: each dial costs the whole
        // handshake timeout.
        let black_hole = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = black_hole.local_addr().unwrap().to_string();
        let timeout = Duration::from_millis(200);
        let mut router = ReadRouter::connect(
            [live.addr.clone(), dead_addr],
            ReadRouterConfig {
                refresh_interval: Duration::ZERO, // every batch re-polls
                redial_backoff: Duration::from_secs(600),
                client: QueryClientConfig {
                    response_timeout: timeout,
                    connect_timeout: Some(timeout),
                    ..QueryClientConfig::default()
                },
                ..ReadRouterConfig::default()
            },
        )
        .unwrap();
        // connect() paid one handshake timeout for the dead endpoint;
        // from here its backoff shields the batch path.
        let start = Instant::now();
        for _ in 0..5 {
            router.batch_with_token("q", 0).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < timeout * 3,
            "5 batches took {elapsed:?}; dead endpoint is being re-dialed per batch"
        );
        assert_eq!(live.batches.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn all_stale_is_a_typed_error() {
        let f = FakeFollower::spawn(10);
        let mut router = ReadRouter::connect([&f.addr], quiet_config()).unwrap();
        match router.batch_with_token("q", 99) {
            Err(RouterError::AllStale { applied, required }) => {
                assert_eq!(applied, 10);
                assert_eq!(required, 99);
            }
            other => panic!("expected AllStale, got {other:?}"),
        }
        // The conversion call sites rely on: WouldBlock, message intact.
        let wal: WalError = RouterError::AllStale {
            applied: 10,
            required: 99,
        }
        .into();
        match wal {
            WalError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock);
                assert!(e.to_string().contains("10") && e.to_string().contains("99"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn losing_every_endpoint_is_typed_not_a_panic() {
        let f = FakeFollower::spawn(10);
        let addr = f.addr.clone();
        let mut router = ReadRouter::connect([&addr], quiet_config()).unwrap();
        drop(f); // server gone; the held connection dies
        let first = router.batch_with_token("q", 0);
        assert!(matches!(first, Err(RouterError::Transport(_))), "{first:?}");
        // The endpoint is now dead and in dial backoff: no candidates.
        let second = router.batch_with_token("q", 0);
        assert!(matches!(second, Err(RouterError::NoEndpoint)), "{second:?}");
        let wal: WalError = RouterError::NoEndpoint.into();
        assert!(matches!(wal, WalError::Io(ref e) if e.kind() == std::io::ErrorKind::NotConnected));
    }

    #[test]
    fn connect_with_no_endpoints_is_refused() {
        let err = ReadRouter::connect(Vec::<String>::new(), ReadRouterConfig::default())
            .err()
            .expect("empty endpoint list must be refused");
        assert!(matches!(err, RouterError::NoEndpoint));
    }
}
