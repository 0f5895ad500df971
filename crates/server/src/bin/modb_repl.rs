//! An interactive query console over a demo fleet.
//!
//! Reads `RETRIEVE …` queries from stdin (one per line) and prints
//! answers; `\h` lists the grammar, `\q` quits. A seeded 50-vehicle fleet
//! on a 10×10 grid is loaded at startup so there is something to query.
//! `\save <dir>` snapshots the full database state to a durability
//! directory; `\load <dir>` replaces the session database with the state
//! recovered from one (snapshot + any write-ahead-log segments).
//!
//! Every line runs as a batch on a [`modb_server::QueryEngine`]
//! ([`modb_server::QueryEngine::run_batch`], the path the front-end
//! serves) — lock-free against a clone of the database taken when it
//! starts, so every query sees every write applied before it. Several
//! statements separated by `;` on one line run in order against one
//! clone, and their answers are numbered; local and remote answers go
//! through one printer.
//! `\connect <addr>` points the console at a remote query front-end
//! ([`modb_server::DurableDatabase::serve_queries`]): queries and batches
//! then travel the wire, and `\stats` scrapes the server's combined
//! metrics frame (query counters, ingest, WAL I/O, replication horizon);
//! unconnected, it prints the local engine's counters (query counts,
//! p50/p99 latency, candidate/refine ratio).
//!
//! Run with: `cargo run --release -p modb-server --bin modb_repl`
//! (pipe queries in for scripted use: `echo "..." | modb_repl`).

use std::io::{BufRead, Write};

use modb_core::{
    Database, DatabaseConfig, MovingObject, ObjectId, PolicyDescriptor, PositionAttribute,
};
use modb_policy::BoundKind;
use modb_query::QueryResult;
use modb_routes::{generators, Direction};
use modb_server::{
    BatchOutcome, QueryClient, QueryEngine, QueryServer, QueryServerConfig, ReplicaConfig,
    ServerStatsSnapshot, SharedDatabase, StandbyReplica,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HELP: &str = "\
queries:
  RETRIEVE POSITION OF OBJECT <id|'name'> AT TIME t
  RETRIEVE OBJECTS INSIDE RECT (x0, y0, x1, y1) AT TIME t
  RETRIEVE OBJECTS INSIDE POLYGON ((x,y), (x,y), ...) DURING t0 TO t1
  RETRIEVE OBJECTS WITHIN r OF POINT (x, y) AT TIME t
  RETRIEVE OBJECTS WITHIN r OF OBJECT <id|'name'> AT TIME t
  RETRIEVE k NEAREST OBJECTS TO POINT (x, y) AT TIME t
  (separate several statements with `;` to run them as one batch)
commands:  \\h help   \\q quit
           \\save <dir> snapshot state   \\load <dir> recover state
           \\replica <addr> <dir> follow a leader (queries move to the replica)
           \\replica show lag/watermark stats   \\replica stop detach
           \\replica serve <addr> answer remote queries from this replica
           (lag-widened, read-your-writes floors honoured or refused Stale)
           \\replica promote seal a new leadership epoch and lead from here
           (chained followers keep streaming; a diverged old leader is refused)
           \\session show this connection's read-your-writes token
           \\session <lsn> raise it (use a writer's token to read its writes)
           \\connect <addr> send queries to a remote front-end
           \\connect show connection   \\connect stop go local again
           \\stats scrape the remote server (local stats otherwise)";

/// Derived WAL efficiency for `\stats`: how many log bytes each fsync
/// paid for, and the mean group-commit collapse factor. Group commit
/// drives both up under concurrent acked ingest.
fn print_wal_efficiency(stats: &ServerStatsSnapshot) {
    if let Some(per_fsync) = stats.wal_bytes_written.checked_div(stats.wal_fsyncs) {
        println!("  wal bytes/fsync: {per_fsync}");
    }
    if stats.wal_group_commits > 0 {
        println!(
            "  wal group-commit mean batch: {:.1} (last {})",
            stats.wal_group_tickets as f64 / stats.wal_group_commits as f64,
            stats.wal_group_last_batch
        );
    }
}

/// `\stats` for one scraped node: every sample of the exposition (the
/// metric table's rows, in its order — the `# TYPE` lines are for
/// scrapers), then the derived lines.
fn print_scrape(stats: &ServerStatsSnapshot) {
    for sample in stats
        .prometheus_text()
        .lines()
        .filter(|l| !l.starts_with('#'))
    {
        println!("  {sample}");
    }
    print_wal_efficiency(stats);
}

fn demo_fleet() -> SharedDatabase {
    let network = generators::grid_network(10, 10, 1.0, 0).expect("valid grid");
    let route_ids = network.route_ids();
    let mut db = Database::new(network, DatabaseConfig::default());
    let mut rng = StdRng::seed_from_u64(1);
    for i in 0..50u64 {
        let rid = route_ids[rng.gen_range(0..route_ids.len())];
        let route = db.network().get(rid).expect("route");
        let arc = rng.gen_range(0.0..route.length());
        let point = route.point_at(arc);
        db.register_moving(MovingObject {
            id: ObjectId(i),
            name: format!("veh-{i:02}"),
            attr: PositionAttribute {
                start_time: 0.0,
                route: rid,
                start_position: point,
                start_arc: arc,
                direction: if rng.gen_bool(0.5) {
                    Direction::Forward
                } else {
                    Direction::Backward
                },
                speed: rng.gen_range(0.2..1.0),
                policy: PolicyDescriptor::CostBased {
                    kind: BoundKind::Immediate,
                    update_cost: 5.0,
                },
            },
            max_speed: 1.5,
            trip_end: Some(240.0),
        })
        .expect("registered");
    }
    SharedDatabase::new(db)
}

/// Prints a script's verdicts, numbering the statements when there are
/// several, with `label` naming each object an answer lists.
fn print_verdicts<E: std::fmt::Display>(
    verdicts: &[Result<QueryResult, E>],
    label: impl Fn(ObjectId) -> String,
) {
    let labels = |ids: &[ObjectId]| ids.iter().map(|&id| label(id)).collect::<Vec<_>>();
    for (i, verdict) in verdicts.iter().enumerate() {
        if verdicts.len() > 1 {
            println!("  -- statement {}", i + 1);
        }
        match verdict {
            Ok(QueryResult::Position(p)) => println!(
                "  ({:.3}, {:.3}) ± {:.3} mi  [interval miles {:.3}..{:.3}]",
                p.position.x, p.position.y, p.bound, p.interval.0, p.interval.1
            ),
            Ok(QueryResult::Range(r)) => {
                println!("  must: [{}]", labels(&r.must).join(", "));
                println!("  may:  [{}]", labels(&r.may).join(", "));
                println!("  ({} candidates filtered)", r.candidates);
            }
            Ok(QueryResult::Nearest(n)) => {
                for nb in &n.ranked {
                    let certainty = if nb.certain {
                        "[certain]"
                    } else {
                        "[possible]"
                    };
                    let name = label(nb.id);
                    let (distance, bound) = (nb.distance, nb.bound);
                    println!("  {name}: {distance:.3} mi (±{bound:.3}) {certainty}");
                }
                println!("  ({} contenders outside the ranking)", n.contenders.len());
            }
            Err(e) => println!("  error: {e}"),
        }
    }
}

/// Snapshots the whole session state into `dir`. The REPL has no live
/// log, so the snapshot's LSN high-water mark is whatever the directory's
/// log already reached (0 for a fresh directory) — recovery will replay
/// nothing on top of it — and its leadership history is genesis.
fn save(db: &SharedDatabase, dir: &str) {
    let path = std::path::Path::new(dir);
    let lsn = modb_wal::list_segments(path)
        .ok()
        .and_then(|segments| {
            let (_, last) = segments.into_iter().next_back()?;
            let scan = modb_wal::scan_segment(&last).ok()?;
            Some(scan.start_lsn + scan.records.len() as u64)
        })
        .unwrap_or(0);
    match db.write_snapshot(path, &modb_wal::EpochHistory::new(), lsn) {
        Ok(file) => println!(
            "  saved {} objects to {}",
            db.moving_count(),
            file.display()
        ),
        Err(e) => println!("  error: {e}"),
    }
}

fn load(db: &mut SharedDatabase, dir: &str) {
    match SharedDatabase::recover(std::path::Path::new(dir)) {
        Ok((recovered, report)) => {
            println!("  {report}");
            println!("  loaded {} objects", recovered.moving_count());
            *db = recovered;
        }
        Err(e) => println!("  error: {e}"),
    }
}

/// Runs a script on the remote front-end, printing per-statement
/// verdicts. Returns `false` when the connection died (the caller then
/// drops it and the console goes local again). A typed `Stale` refusal
/// is not a dead connection: the session (and its token) stay up.
fn run_remote(client: &mut QueryClient, script: &str) -> bool {
    match client.batch_attempt(script, client.token()) {
        Ok(BatchOutcome::Stale { applied, required }) => {
            println!(
                "  stale: applied {applied} < session token {required} \
                 (retry once it catches up, or \\connect a fresher node \
                 — tokens never lower on a live session)"
            );
            true
        }
        Ok(BatchOutcome::Done(verdicts)) => {
            // The remote database's names are not resolvable against the
            // local demo fleet: ids stay raw.
            print_verdicts(&verdicts, |id| format!("#{}", id.0));
            true
        }
        Err(e) => {
            println!("  connection lost: {e}");
            false
        }
    }
}

fn main() {
    let mut db = demo_fleet();
    let mut engine = QueryEngine::new(db.clone());
    let mut replica: Option<StandbyReplica> = None;
    // Holds a `\replica promote`d leader: keeps its WAL writer (and any
    // still-running replication/query servers) alive for the session.
    let mut promoted: Option<modb_server::DurableDatabase> = None;
    let mut replica_server: Option<QueryServer> = None;
    let mut remote: Option<QueryClient> = None;
    println!(
        "modb console — {} vehicles on a 10x10-mile grid. \\h for help.",
        db.moving_count()
    );
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("modb> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        match line {
            "" => continue,
            "\\q" | "quit" | "exit" => break,
            "\\h" | "help" => {
                println!("{HELP}");
                continue;
            }
            cmd if cmd.starts_with("\\replica") => {
                let args: Vec<&str> = cmd
                    .strip_prefix("\\replica")
                    .unwrap_or("")
                    .split_whitespace()
                    .collect();
                match args.as_slice() {
                    [] => match (&replica, &promoted) {
                        (Some(r), _) => println!("  {}", r.stats()),
                        (None, Some(leader)) => println!(
                            "  promoted leader: epoch {} frontier lsn {}",
                            leader.epoch(),
                            leader.wal().next_lsn()
                        ),
                        (None, None) => println!("  no replica attached — \\replica <addr> <dir>"),
                    },
                    ["stop"] => match replica.take() {
                        Some(r) => {
                            if let Some(server) = replica_server.take() {
                                server.shutdown();
                                println!("  stopped serving follower reads");
                            }
                            println!("  detached: {}", r.shutdown());
                        }
                        None => println!("  no replica attached"),
                    },
                    ["promote"] => match replica.take() {
                        Some(r) => match r.promote() {
                            Ok(leader) => {
                                println!(
                                    "  promoted: leadership epoch {} sealed at lsn {} — this \
                                     node now leads. Chained followers keep streaming from it; \
                                     a revived old leader whose tail passed the promotion point \
                                     is refused (diverged).",
                                    leader.epoch(),
                                    leader.wal().next_lsn()
                                );
                                db = leader.database().clone();
                                engine = QueryEngine::new(db.clone());
                                promoted = Some(leader);
                            }
                            // promote() consumed the replica; its state is
                            // unusable to lead from, so nothing to restore.
                            Err(e) => println!("  error: promotion failed: {e}"),
                        },
                        None => println!("  no replica attached — \\replica <addr> <dir> first"),
                    },
                    ["serve", addr] => match &replica {
                        Some(r) => {
                            if let Some(server) = replica_server.take() {
                                server.shutdown();
                            }
                            let follower_engine =
                                std::sync::Arc::new(QueryEngine::new(r.database().clone()));
                            match r.serve_queries(
                                follower_engine,
                                *addr,
                                QueryServerConfig::default(),
                            ) {
                                Ok(server) => {
                                    println!(
                                        "  serving follower reads on {} (lag-widened; \
                                         session floors honoured or refused Stale)",
                                        server.local_addr()
                                    );
                                    replica_server = Some(server);
                                }
                                Err(e) => println!("  error: {e}"),
                            }
                        }
                        None => println!("  no replica attached — \\replica <addr> <dir> first"),
                    },
                    [addr, dir] => {
                        if let Some(server) = replica_server.take() {
                            server.shutdown();
                            println!("  stopped serving follower reads");
                        }
                        if let Some(r) = replica.take() {
                            println!("  detached: {}", r.shutdown());
                        }
                        match StandbyReplica::open(
                            std::path::Path::new(dir),
                            addr.to_string(),
                            ReplicaConfig::default(),
                        ) {
                            Ok(r) => {
                                db = r.database().clone();
                                engine = QueryEngine::new(db.clone());
                                println!(
                                    "  following {addr} into {dir}; queries now run on the \
                                     replica's latest applied state"
                                );
                                replica = Some(r);
                            }
                            Err(e) => println!("  error: {e}"),
                        }
                    }
                    _ => println!(
                        "  usage: \\replica [<addr> <dir> | serve <addr> | promote | stop]"
                    ),
                }
                continue;
            }
            cmd if cmd.starts_with("\\session") => {
                let args: Vec<&str> = cmd
                    .strip_prefix("\\session")
                    .unwrap_or("")
                    .split_whitespace()
                    .collect();
                match (&mut remote, args.as_slice()) {
                    (None, _) => println!("  no remote connection — \\connect <addr> first"),
                    (Some(client), []) => println!(
                        "  read-your-writes token: {} (stamped on every batch)",
                        client.token()
                    ),
                    (Some(client), [lsn]) => match lsn.parse::<u64>() {
                        Ok(lsn) => {
                            client.set_token(lsn);
                            println!("  read-your-writes token now {}", client.token());
                        }
                        Err(_) => println!("  usage: \\session [<lsn>]"),
                    },
                    _ => println!("  usage: \\session [<lsn>]"),
                }
                continue;
            }
            "\\stats" => {
                match &mut remote {
                    Some(client) => match client.stats() {
                        Ok(stats) => print_scrape(&stats),
                        Err(e) => {
                            println!("  connection lost: {e}");
                            remote = None;
                        }
                    },
                    None => println!("  {}", engine.stats()),
                }
                continue;
            }
            cmd if cmd.starts_with("\\connect") => {
                let args: Vec<&str> = cmd
                    .strip_prefix("\\connect")
                    .unwrap_or("")
                    .split_whitespace()
                    .collect();
                match args.as_slice() {
                    [] => match &remote {
                        Some(client) => println!("  connected to {}", client.server_addr()),
                        None => println!("  not connected — \\connect <addr>"),
                    },
                    ["stop"] => match remote.take() {
                        Some(client) => {
                            println!("  disconnected from {}", client.server_addr());
                            client.close();
                        }
                        None => println!("  not connected"),
                    },
                    [addr] => match QueryClient::connect(addr) {
                        Ok(client) => {
                            println!(
                                "  connected to {}; queries now run remotely \
                                 (\\connect stop to go local)",
                                client.server_addr()
                            );
                            remote = Some(client);
                        }
                        Err(e) => println!("  error: {e}"),
                    },
                    _ => println!("  usage: \\connect [<addr> | stop]"),
                }
                continue;
            }
            cmd if cmd.starts_with("\\save") => {
                match cmd.strip_prefix("\\save").map(str::trim) {
                    Some(dir) if !dir.is_empty() => save(&db, dir),
                    _ => println!("  usage: \\save <dir>"),
                }
                continue;
            }
            cmd if cmd.starts_with("\\load") => {
                match cmd.strip_prefix("\\load").map(str::trim) {
                    Some(dir) if !dir.is_empty() => {
                        load(&mut db, dir);
                        engine = QueryEngine::new(db.clone());
                    }
                    _ => println!("  usage: \\load <dir>"),
                }
                continue;
            }
            script if remote.is_some() => {
                let client = remote.as_mut().expect("checked above");
                if !run_remote(client, script) {
                    remote = None;
                }
            }
            script => {
                let name = |id: ObjectId| {
                    db.with_read(|inner| inner.moving(id).map(|o| o.name.clone()))
                        .unwrap_or_else(|_| format!("{id:?}"))
                };
                print_verdicts(&engine.run_batch(script), name);
            }
        }
    }
}
