//! W9: read fan-out — aggregate query throughput vs follower count on a
//! leader + chained-follower topology, with parity and typed-staleness
//! checks.
//!
//! The paper's deployment separates the write stream (vehicles reporting
//! positions) from the read stream (users posing queries); once standbys
//! can answer the query protocol themselves (DESIGN.md §15), reads scale
//! by adding followers while the leader keeps ingesting. Followers are
//! *chained* — follower *i* ships its WAL from follower *i−1*, so the
//! leader pays for one downstream regardless of fan-out.
//!
//! Each phase builds the chain at one fan-out, drives truthful updates
//! through the leader, waits for the chain to drain, and then checks:
//!
//! - **parity**: a read-your-writes batch floored at the leader's WAL
//!   frontier, answered by each follower, must match the leader's local
//!   verdicts statement for statement (the chain is quiescent, so the
//!   lag clock is zero and no widening applies — answers are
//!   bit-identical: positions, bounds, intervals, `must`, `may` and
//!   `candidates`; a range answer's `SearchStats` are traversal
//!   diagnostics of whichever tree served it and are left out, see
//!   `QueryResult::same_answer` and DESIGN.md §15);
//! - **staleness is typed**: a floor the chain has never reached must
//!   come back as the protocol's `Stale { applied, required }` refusal
//!   within the server's wait deadline — never a hang, never a silently
//!   stale answer;
//! - **throughput**: one client thread per follower runs query batches
//!   concurrently; the row reports aggregate statements per second.
//!
//! QPS scaling with fan-out is the headline on multi-core hardware; the
//! parity and staleness columns are the correctness contract and must
//! hold everywhere (CI asserts only those — a 1-core runner serializes
//! the QPS phase).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
    UpdateMessage, UpdatePosition,
};
use modb_geom::Point;
use modb_policy::BoundKind;
use modb_query::QueryError;
use modb_routes::{Direction, Route, RouteId, RouteNetwork};
use modb_server::{
    BatchOutcome, DurableDatabase, QueryClient, QueryEngine, QueryServerConfig, RemoteVerdict,
    ReplicaConfig, ReplicationConfig, StandbyReplica,
};
use modb_wal::{FsyncPolicy, WalOptions};

use crate::report::{fmt, render_table};

/// One straight route long enough that no trajectory ever clamps.
const ROUTE_LEN: f64 = 1_000_000.0;
/// Simulated seconds between update batches.
const BATCH_DT: f64 = 0.5;

/// One fan-out phase of the W9 experiment.
#[derive(Debug, Clone)]
pub struct ReadFanoutRow {
    /// Followers in the chain (leader + this many standbys).
    pub fanout: usize,
    /// Leader WAL frontier after churn (records written).
    pub records: u64,
    /// `true` iff every follower's floored batch matched the leader's
    /// local verdicts statement for statement.
    pub parity: bool,
    /// `true` iff an unreachable floor came back as a typed `Stale`
    /// refusal from every follower (bounded wait, session intact).
    pub stale_typed: bool,
    /// Query batches run per client thread in the QPS phase.
    pub rounds: usize,
    /// Total statements answered across all followers.
    pub statements: u64,
    /// Wall-clock seconds for the QPS phase.
    pub elapsed_s: f64,
    /// Aggregate statements per second across the fleet.
    pub qps: f64,
}

fn fresh_db() -> Database {
    let route = Route::from_vertices(
        RouteId(1),
        "main",
        vec![Point::new(0.0, 0.0), Point::new(ROUTE_LEN, 0.0)],
    )
    .expect("straight route");
    Database::new(
        RouteNetwork::from_routes([route]).expect("singleton network"),
        DatabaseConfig::default(),
    )
}

fn vehicle(id: u64, arc: f64, v_max: f64) -> MovingObject {
    MovingObject {
        id: ObjectId(id),
        name: format!("veh-{id}"),
        attr: PositionAttribute {
            start_time: 0.0,
            route: RouteId(1),
            start_position: Point::new(arc, 0.0),
            start_arc: arc,
            direction: Direction::Forward,
            speed: v_max * 0.5,
            policy: PolicyDescriptor::CostBased {
                kind: BoundKind::Immediate,
                update_cost: 5.0,
            },
        },
        max_speed: v_max,
        trip_end: None,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("modb-exp-w9-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A three-statement script touching all query kinds at time `t`.
fn script(t: f64, n_objects: usize, salt: usize) -> String {
    let id = salt % n_objects;
    let x0 = (salt % 7) as f64 * 10.0;
    format!(
        "RETRIEVE POSITION OF OBJECT {id} AT TIME {t}; \
         RETRIEVE OBJECTS INSIDE RECT ({x0}, -1, {ROUTE_LEN}, 1) AT TIME {t}; \
         RETRIEVE 5 NEAREST OBJECTS TO POINT ({}, 0) AT TIME {t}",
        (salt % 11) as f64 * 20.0
    )
}

/// One follower in the chain: the standby, its re-shipping server (the
/// upstream for the next link), and its query front-end.
struct Link {
    replica: StandbyReplica,
    repl_server: modb_server::ReplicationServer,
    query_server: modb_server::QueryServer,
    dir: PathBuf,
}

/// Runs one fan-out phase. See the module docs for what each column
/// asserts.
fn run_phase(n_objects: usize, fanout: usize, batches: u64, rounds: usize) -> ReadFanoutRow {
    let v_max = 2.0;
    let wal = WalOptions {
        fsync: FsyncPolicy::Never,
        max_segment_bytes: 64 * 1024,
    };
    let ldir = scratch_dir(&format!("f{fanout}-leader"));
    let leader = DurableDatabase::create(&ldir, fresh_db(), wal).expect("leader");
    for i in 0..n_objects as u64 {
        leader
            .register_moving(vehicle(i, 10.0 + i as f64 * 3.0, v_max))
            .expect("register");
    }
    let repl_config = ReplicationConfig {
        poll_interval: Duration::from_millis(1),
        heartbeat_interval: Duration::from_millis(10),
        ..ReplicationConfig::default()
    };
    let leader_server = leader
        .serve_replication("127.0.0.1:0", repl_config.clone())
        .expect("serve replication");

    // Build the chain: link 0 follows the leader, link i follows link
    // i−1's re-shipping server.
    let mut chain: Vec<Link> = Vec::with_capacity(fanout);
    for i in 0..fanout {
        let upstream = match chain.last() {
            None => leader_server.local_addr().to_string(),
            Some(link) => link.repl_server.local_addr().to_string(),
        };
        let dir = scratch_dir(&format!("f{fanout}-follower-{i}"));
        let replica = StandbyReplica::open(
            &dir,
            upstream,
            ReplicaConfig {
                wal,
                read_timeout: Duration::from_millis(2),
                ..ReplicaConfig::default()
            },
        )
        .expect("replica");
        let repl_server = replica
            .serve_replication("127.0.0.1:0", repl_config.clone())
            .expect("follower serve replication");
        let engine = Arc::new(QueryEngine::new(replica.database().clone()));
        let query_server = replica
            .serve_queries(
                engine,
                "127.0.0.1:0",
                QueryServerConfig {
                    stale_deadline: Duration::from_millis(100),
                    ..QueryServerConfig::default()
                },
            )
            .expect("follower serve queries");
        chain.push(Link {
            replica,
            repl_server,
            query_server,
            dir,
        });
    }

    // Churn: truthful variable-speed updates through the leader.
    let mut arcs: Vec<f64> = (0..n_objects).map(|i| 10.0 + i as f64 * 3.0).collect();
    let mut speeds = vec![v_max * 0.5; n_objects];
    let mut last_t = vec![0.0f64; n_objects];
    for batch in 1..=batches {
        for u in 0..n_objects {
            let t = (batch - 1) as f64 * BATCH_DT + (u as f64 + 1.0) / n_objects as f64 * BATCH_DT;
            let dt = (t - last_t[u]).max(0.0);
            arcs[u] += speeds[u] * dt;
            last_t[u] = t;
            speeds[u] = if ((batch as usize) + u).is_multiple_of(3) {
                v_max
            } else {
                v_max * 0.25
            };
            leader
                .apply_update(
                    ObjectId(u as u64),
                    &UpdateMessage::basic(t, UpdatePosition::Arc(arcs[u]), speeds[u]),
                )
                .expect("update");
        }
        std::thread::yield_now();
    }

    // Drain the whole chain to the leader's frontier.
    let frontier = leader.wal().next_lsn();
    for (i, link) in chain.iter().enumerate() {
        assert!(
            link.replica
                .wait_for_lsn(frontier, Duration::from_secs(120)),
            "fanout {fanout}: follower {i} never drained ({})",
            link.replica.stats()
        );
    }

    // Leader reference verdicts for the parity batch.
    let query_t = batches as f64 * BATCH_DT;
    let parity_script = script(query_t, n_objects, 1);
    let leader_verdicts = QueryEngine::new(leader.database().clone()).run_batch(&parity_script);

    let mut parity = true;
    let mut stale_typed = true;
    for (i, link) in chain.iter().enumerate() {
        let mut client =
            QueryClient::connect(link.query_server.local_addr()).expect("connect follower");
        // Floored at the frontier the follower has applied: it must
        // answer at once, and — quiescent, lag clock zero — answer
        // bit-identically to the leader.
        match client
            .batch_attempt(&parity_script, frontier)
            .expect("parity batch")
        {
            BatchOutcome::Done(remote) => {
                let differs = |(r, l): &(&RemoteVerdict, &_)| match (r, l) {
                    (Ok(r), Ok(l)) => !r.same_answer(l),
                    (Err(r), Err::<_, QueryError>(l)) => r != &l.to_string(),
                    _ => true,
                };
                let first_diff = remote.iter().zip(&leader_verdicts).find(differs);
                if remote.len() != leader_verdicts.len() || first_diff.is_some() {
                    eprintln!(
                        "fanout {fanout}: follower {i} diverged from the leader \
                         ({} vs {} verdicts; first difference {first_diff:?})",
                        remote.len(),
                        leader_verdicts.len()
                    );
                    parity = false;
                }
            }
            BatchOutcome::Stale { applied, required } => {
                eprintln!(
                    "fanout {fanout}: follower {i} refused a reachable floor \
                     (applied {applied}, required {required})"
                );
                parity = false;
            }
        }
        // A floor nobody has reached must refuse, typed and bounded.
        let unreachable = frontier + 1_000_000;
        let t0 = Instant::now();
        match client.batch_attempt(&parity_script, unreachable) {
            Ok(BatchOutcome::Stale { required, .. }) if required == unreachable => {}
            other => {
                eprintln!("fanout {fanout}: follower {i} unreachable floor gave {other:?}");
                stale_typed = false;
            }
        }
        if t0.elapsed() > Duration::from_secs(10) {
            eprintln!("fanout {fanout}: follower {i} staleness refusal was not bounded");
            stale_typed = false;
        }
        client.close();
    }

    // QPS phase: one client thread per follower, `rounds` batches each.
    let t0 = Instant::now();
    let handles: Vec<std::thread::JoinHandle<u64>> = chain
        .iter()
        .map(|link| {
            let addr = link.query_server.local_addr();
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("qps connect");
                let mut answered = 0u64;
                for r in 0..rounds {
                    let src = script(query_t, n_objects, r);
                    let verdicts = client.batch(&src).expect("qps batch");
                    answered += verdicts.len() as u64;
                }
                client.close();
                answered
            })
        })
        .collect();
    let statements: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("qps thread"))
        .sum();
    let elapsed_s = t0.elapsed().as_secs_f64();

    for link in chain.into_iter().rev() {
        link.query_server.shutdown();
        link.repl_server.shutdown();
        link.replica.shutdown();
        let _ = std::fs::remove_dir_all(&link.dir);
    }
    leader_server.shutdown();
    let _ = std::fs::remove_dir_all(&ldir);

    ReadFanoutRow {
        fanout,
        records: frontier,
        parity,
        stale_typed,
        rounds,
        statements,
        elapsed_s,
        qps: statements as f64 / elapsed_s.max(1e-9),
    }
}

/// Runs the experiment: one leader + chained-follower phase per fan-out.
pub fn run_read_fanout(
    n_objects: usize,
    fanouts: &[usize],
    batches: u64,
    rounds: usize,
) -> Vec<ReadFanoutRow> {
    fanouts
        .iter()
        .map(|&f| run_phase(n_objects.max(4), f.max(1), batches.max(2), rounds.max(1)))
        .collect()
}

/// The default fan-out ladder up to `max_followers`: 1, 2, 4, … capped.
pub fn fanout_ladder(max_followers: usize) -> Vec<usize> {
    let max = max_followers.max(1);
    let mut ladder = vec![];
    let mut f = 1;
    while f < max {
        ladder.push(f);
        f *= 2;
    }
    ladder.push(max);
    ladder
}

/// Renders the W9 report table.
pub fn read_fanout_table(n_objects: usize, rows: &[ReadFanoutRow]) -> String {
    render_table(
        &format!(
            "W9: follower read fan-out at {n_objects} objects \
             (chained standbys; parity + typed staleness are the contract)"
        ),
        &[
            "followers",
            "records",
            "rounds",
            "statements",
            "elapsed s",
            "agg qps",
            "parity",
            "stale typed",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.fanout.to_string(),
                    r.records.to_string(),
                    r.rounds.to_string(),
                    r.statements.to_string(),
                    fmt(r.elapsed_s),
                    fmt(r.qps),
                    if r.parity { "yes" } else { "NO" }.to_string(),
                    if r.stale_typed { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Statements per batch built by [`script`] (the three query kinds).
    const SCRIPT_STATEMENTS: usize = 3;

    #[test]
    fn ladder_doubles_and_caps() {
        assert_eq!(fanout_ladder(1), vec![1]);
        assert_eq!(fanout_ladder(3), vec![1, 2, 3]);
        assert_eq!(fanout_ladder(4), vec![1, 2, 4]);
        assert_eq!(fanout_ladder(6), vec![1, 2, 4, 6]);
    }

    #[test]
    fn small_chain_holds_the_contract() {
        // Correctness only — QPS scaling is not asserted (1-core CI).
        let rows = run_read_fanout(12, &[2], 6, 3);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.records > 0);
        assert!(r.parity, "follower verdicts diverged from the leader");
        assert!(r.stale_typed, "staleness was not a typed refusal");
        assert!(r.statements == (r.rounds * SCRIPT_STATEMENTS * 2) as u64);
        assert!(r.qps > 0.0);
        let table = read_fanout_table(12, &rows);
        assert!(table.contains("W9"));
        assert!(table.contains("stale typed"));
    }
}
