//! The scatter-gather query router: one logical database over N shards.
//!
//! A [`ClusterRouter`] owns one [`QueryClient`] per shard and a
//! [`ShardMap`] deciding object placement. Writes (updates) go to the
//! owning shard only; queries are routed per statement:
//!
//! - **Position by id** goes to the owning shard alone when the map can
//!   name it (hash maps always; spatial maps via the router's
//!   directory), otherwise it is broadcast and the one shard that knows
//!   the object answers.
//! - **Range / within-point** queries are broadcast and the per-shard
//!   may/must sets merged. Placement is only a locality *hint* (objects
//!   move after assignment), so the router never prunes the fan-out —
//!   pruning is what experiment W6 prices, not what the router risks
//!   correctness on.
//! - **k-nearest** is broadcast with the ranking widened to every
//!   object, the per-shard neighbour pools concatenated, and the final
//!   ranking recomputed router-side — bit-identical to a single node
//!   ranking the union fleet, because a neighbour's distance and
//!   deviation bound depend only on its own motion plan.
//! - **Within-object** (the trucking query) is decomposed exactly the
//!   way a single node evaluates it: resolve the anchor, fetch its
//!   position and bound, then run the inflated (may) and deflated
//!   (must) disc queries across the cluster and assemble, excluding the
//!   anchor.
//!
//! The merged verdicts match a single node holding the union fleet
//! **except** for the diagnostic traversal counters
//! ([`modb_index::SearchStats`] and `candidates`), which are summed
//! across shards — per-shard trees are shaped differently than one big
//! tree, so the counters are additive diagnostics, not part of the
//! answer.
//!
//! **Failures are typed, never silent.** A shard that dies mid-query
//! surfaces as [`ClusterError::ShardFailed`] naming the shard; the
//! router never returns a partial result as if it were total.
//!
//! **Read your writes.** Each underlying [`QueryClient`] tracks the WAL
//! frontier its own shard acknowledged and stamps it on that shard's
//! batches, so the guarantee holds per shard — which is exactly the
//! granularity at which an update lands.

use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;

use modb_core::{CoreError, NearestAnswer, ObjectId, RangeAnswer, UpdateMessage};
use modb_geom::Point;
use modb_query::{
    split_statements, ExecError, ObjectRef, ParseError, Query, QueryError, QueryResult,
};
use modb_wal::WalError;

use crate::cluster::ShardMap;
use crate::net::{QueryClient, RemoteUpdateVerdict, RemoteVerdict, ServerStatsSnapshot};

/// `k` used when widening a nearest query to every object on a shard:
/// 2⁵³, the largest integer the query language's f64 literals carry
/// exactly, and more objects than any fleet holds.
const ALL_OBJECTS_K: u64 = 1 << 53;

/// A cluster-level failure — distinct from a per-statement query error
/// (which travels inside the verdict like on a single node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A shard's connection failed mid-request (died, hung past the
    /// client deadline, or spoke garbage). The batch has no total
    /// answer; the error names the shard so an operator can look at it.
    ShardFailed {
        /// Index of the failing shard.
        shard: usize,
        /// The transport/protocol error, rendered.
        error: String,
    },
    /// An update for an object the router cannot place: the map needs a
    /// position-derived directory entry (spatial key) and none was
    /// recorded via [`ClusterRouter::route_registration`].
    UnroutableUpdate(ObjectId),
    /// The shard map and the client list disagree on the shard count.
    ShardCountMismatch {
        /// Shards in the map.
        map: usize,
        /// Connected clients.
        clients: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ShardFailed { shard, error } => {
                write!(f, "shard {shard} failed: {error}")
            }
            ClusterError::UnroutableUpdate(id) => write!(
                f,
                "no shard recorded for object {}: spatial maps route updates via the \
                 registration directory",
                id.0
            ),
            ClusterError::ShardCountMismatch { map, clients } => write!(
                f,
                "shard map covers {map} shards but {clients} clients are connected"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One logical moving-objects database over a fleet of shard servers.
/// See the module docs for the routing and merge rules.
#[derive(Debug)]
pub struct ClusterRouter {
    clients: Vec<QueryClient>,
    map: ShardMap,
    /// Home shard of each object routed through this router — required
    /// for spatial maps (placement depended on the start position),
    /// redundant-but-recorded for hash maps.
    homes: HashMap<ObjectId, usize>,
    /// Name → id, so the trucking query can resolve a named anchor and
    /// exclude it from its own answer.
    names: HashMap<String, ObjectId>,
}

impl ClusterRouter {
    /// Wraps already-connected shard clients (index = shard number).
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardCountMismatch`] when the map and client
    /// list disagree.
    pub fn new(clients: Vec<QueryClient>, map: ShardMap) -> Result<Self, ClusterError> {
        if clients.len() != map.shards() {
            return Err(ClusterError::ShardCountMismatch {
                map: map.shards(),
                clients: clients.len(),
            });
        }
        Ok(ClusterRouter {
            clients,
            map,
            homes: HashMap::new(),
            names: HashMap::new(),
        })
    }

    /// Connects to one server per shard (address index = shard number).
    ///
    /// # Errors
    ///
    /// Connection failures as [`ClusterError::ShardFailed`];
    /// [`ClusterError::ShardCountMismatch`] as [`ClusterRouter::new`].
    pub fn connect(addrs: &[SocketAddr], map: ShardMap) -> Result<Self, ClusterError> {
        let mut clients = Vec::with_capacity(addrs.len());
        for (shard, addr) in addrs.iter().enumerate() {
            clients.push(QueryClient::connect(addr).map_err(|e| shard_failed(shard, &e))?);
        }
        ClusterRouter::new(clients, map)
    }

    /// The shard map in force.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.clients.len()
    }

    /// Decides (and records) the home shard for a new object starting at
    /// `start`. The caller registers the object on the returned shard —
    /// fleet provisioning is an administrative operation on the shard
    /// itself; the router handles the data plane (updates and queries).
    pub fn route_registration(&mut self, id: ObjectId, name: &str, start: Point) -> usize {
        let shard = self.map.assign(id, start);
        self.homes.insert(id, shard);
        if !name.is_empty() {
            self.names.insert(name.to_string(), id);
        }
        shard
    }

    /// The home shard of `id`, from the map (hash) or the directory
    /// (spatial).
    pub fn home_shard(&self, id: ObjectId) -> Option<usize> {
        self.map
            .owner_by_id(id)
            .or_else(|| self.homes.get(&id).copied())
    }

    /// Sends one position update to the owning shard and returns its
    /// verdict. The shard's read-your-writes token advances on ack, so a
    /// following [`ClusterRouter::run_batch`] sees the write.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnroutableUpdate`] when no shard can be named,
    /// [`ClusterError::ShardFailed`] on transport failure.
    pub fn update(
        &mut self,
        id: ObjectId,
        msg: &UpdateMessage,
    ) -> Result<RemoteUpdateVerdict, ClusterError> {
        let shard = self
            .home_shard(id)
            .ok_or(ClusterError::UnroutableUpdate(id))?;
        self.clients[shard]
            .update(id, msg)
            .map_err(|e| shard_failed(shard, &e))
    }

    /// Routes a batch of updates: grouped by owning shard, one frame per
    /// shard (sent in parallel), verdicts returned in input order.
    ///
    /// # Errors
    ///
    /// As [`ClusterRouter::update`].
    pub fn update_batch(
        &mut self,
        updates: &[(ObjectId, UpdateMessage)],
    ) -> Result<Vec<RemoteUpdateVerdict>, ClusterError> {
        // Group input positions by shard, preserving input order within
        // each group (a shard's ingest keeps per-object order; the router
        // must not reorder one object's updates).
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.clients.len()];
        for (i, (id, _)) in updates.iter().enumerate() {
            let shard = self
                .home_shard(*id)
                .ok_or(ClusterError::UnroutableUpdate(*id))?;
            groups[shard].push(i);
        }
        let mut verdicts: Vec<Option<RemoteUpdateVerdict>> = vec![None; updates.len()];
        let results: Vec<Option<Result<Vec<RemoteUpdateVerdict>, WalError>>> =
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .clients
                    .iter_mut()
                    .zip(&groups)
                    .map(|(client, group)| {
                        if group.is_empty() {
                            None
                        } else {
                            let shard_updates: Vec<(ObjectId, UpdateMessage)> =
                                group.iter().map(|&i| updates[i]).collect();
                            Some(s.spawn(move || client.update_batch(&shard_updates)))
                        }
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.map(|h| h.join().expect("shard update thread panicked")))
                    .collect()
            });
        for (shard, result) in results.into_iter().enumerate() {
            let Some(result) = result else { continue };
            let shard_verdicts = result.map_err(|e| shard_failed(shard, &e))?;
            if shard_verdicts.len() != groups[shard].len() {
                return Err(ClusterError::ShardFailed {
                    shard,
                    error: "update verdict count mismatch".into(),
                });
            }
            for (&i, v) in groups[shard].iter().zip(shard_verdicts) {
                verdicts[i] = Some(v);
            }
        }
        Ok(verdicts
            .into_iter()
            .map(|v| v.expect("every update routed"))
            .collect())
    }

    /// Runs a `;`-script against the cluster, returning one verdict per
    /// statement — the vector a single node holding the union fleet
    /// would produce (modulo summed traversal counters; module docs).
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardFailed`] when any contacted shard fails
    /// mid-statement. Per-statement *query* errors (parse errors,
    /// unknown objects, bad radii) are verdicts, not `Err`s, exactly as
    /// on a single node.
    pub fn run_batch(&mut self, script: &str) -> Result<Vec<RemoteVerdict>, ClusterError> {
        let statements = match split_statements(script) {
            Ok(s) => s,
            // An unterminated literal poisons the whole script — same
            // single-verdict shape as `modb_query::run_batch`.
            Err(e) => return Ok(vec![Err(QueryError::Parse(ParseError::Lex(e)).to_string())]),
        };
        let mut verdicts = Vec::with_capacity(statements.len());
        for statement in statements {
            verdicts.push(self.run_statement(statement)?);
        }
        Ok(verdicts)
    }

    /// Scrapes every shard's stats frame (index = shard number).
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardFailed`] on the first failing scrape.
    pub fn stats(&mut self) -> Result<Vec<ServerStatsSnapshot>, ClusterError> {
        self.clients
            .iter_mut()
            .enumerate()
            .map(|(shard, c)| c.stats().map_err(|e| shard_failed(shard, &e)))
            .collect()
    }

    /// Repoints one shard at a new server — the write-path half of
    /// leader failover (DESIGN.md §16). After
    /// [`crate::FailoverCoordinator::fail_over`] promotes a shard's
    /// standby, point the router here at the promotee's query front-end
    /// and writes to that shard flow again.
    ///
    /// The old connection's read-your-writes token carries over to the
    /// new one: the promotee's log is a byte-identical prefix of the
    /// dead leader's plus its `LeaderEpoch` seal, so the LSN space is
    /// the same and an acked write's floor stays meaningful. (A token
    /// above the promotee's frontier names acked-but-unshipped writes
    /// the promotee never received; those are exactly the writes failover
    /// cannot save, and the floor makes the gap visible as a typed
    /// `Stale` instead of silently reading around it.)
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardFailed`] naming `shard` when it is out of
    /// range or the new address cannot be dialed; the old (dead)
    /// connection is kept in place on failure so a retry is possible.
    pub fn fail_over_shard(
        &mut self,
        shard: usize,
        addr: impl std::net::ToSocketAddrs,
    ) -> Result<(), ClusterError> {
        if shard >= self.clients.len() {
            return Err(ClusterError::ShardFailed {
                shard,
                error: format!("no such shard (cluster has {})", self.clients.len()),
            });
        }
        let mut client = QueryClient::connect(addr).map_err(|e| shard_failed(shard, &e))?;
        client.set_token(self.clients[shard].token());
        let old = std::mem::replace(&mut self.clients[shard], client);
        old.close();
        Ok(())
    }

    /// Closes every shard connection.
    pub fn close(self) {
        for client in self.clients {
            client.close();
        }
    }

    fn run_statement(&mut self, statement: &str) -> Result<RemoteVerdict, ClusterError> {
        let query = match modb_query::parse(statement) {
            Ok(q) => q,
            Err(e) => return Ok(Err(QueryError::Parse(e).to_string())),
        };
        match query {
            Query::Position {
                object: ObjectRef::Id(id),
                ..
            } => match self.home_shard(id) {
                Some(shard) => self.single(shard, statement),
                None => Ok(first_answer(self.broadcast(statement)?)),
            },
            // A named object lives on exactly one shard; the others
            // return the same unknown-name error a single node would.
            Query::Position { .. } => Ok(first_answer(self.broadcast(statement)?)),
            Query::Range { .. } | Query::WithinPoint { .. } => {
                Ok(merge_range(self.broadcast(statement)?))
            }
            Query::Nearest { k, center, at } => {
                // Widen each shard's ranking to its whole population,
                // then rank the pooled neighbours at the original k.
                let widened = format!(
                    "RETRIEVE {ALL_OBJECTS_K} NEAREST OBJECTS TO POINT ({}, {}) AT TIME {}",
                    center.x, center.y, at
                );
                Ok(merge_nearest(self.broadcast(&widened)?, k))
            }
            Query::WithinObject { object, radius, at } => self.within_object(object, radius, at),
        }
    }

    /// The trucking query, decomposed the way
    /// `Database::within_distance_of_object` evaluates it on one node —
    /// same steps, same error order, same exclusion of the anchor.
    fn within_object(
        &mut self,
        object: ObjectRef,
        radius: f64,
        at: f64,
    ) -> Result<RemoteVerdict, ClusterError> {
        // Resolve the anchor first (a single node's executor does too,
        // so an unknown name outranks a bad radius).
        let target = match object {
            ObjectRef::Id(id) => id,
            ObjectRef::Name(name) => match self.names.get(&name) {
                Some(&id) => id,
                None => {
                    return Ok(Err(
                        QueryError::Exec(ExecError::UnknownName(name)).to_string()
                    ))
                }
            },
        };
        if !radius.is_finite() || radius <= 0.0 {
            return Ok(Err(QueryError::Exec(ExecError::Core(
                CoreError::InvalidField("radius", radius),
            ))
            .to_string()));
        }
        // Phase 1: the anchor's reported position and deviation bound.
        let position_stmt = format!("RETRIEVE POSITION OF OBJECT {} AT TIME {}", target.0, at);
        let position = match self.home_shard(target) {
            Some(shard) => self.single(shard, &position_stmt)?,
            None => first_answer(self.broadcast(&position_stmt)?),
        };
        let anchor = match position {
            Ok(QueryResult::Position(p)) => p,
            // position_of failures render identically through the
            // position query, so the error string passes through.
            Err(e) => return Ok(Err(e)),
            Ok(_) => {
                return Err(ClusterError::ShardFailed {
                    shard: 0,
                    error: "position query answered with a non-position result".into(),
                })
            }
        };
        let (center, bound) = (anchor.position, anchor.bound);
        // Phase 2: inflated disc for the may side, deflated for must.
        let may_stmt = format!(
            "RETRIEVE OBJECTS WITHIN {} OF POINT ({}, {}) AT TIME {}",
            radius + bound,
            center.x,
            center.y,
            at
        );
        let mut may_side = match merge_range(self.broadcast(&may_stmt)?) {
            Ok(QueryResult::Range(a)) => a,
            Err(e) => return Ok(Err(e)),
            Ok(_) => unreachable!("merge_range yields range results"),
        };
        let must_radius = radius - bound;
        let must_ids = if must_radius > 0.0 {
            let must_stmt = format!(
                "RETRIEVE OBJECTS WITHIN {} OF POINT ({}, {}) AT TIME {}",
                must_radius, center.x, center.y, at
            );
            match merge_range(self.broadcast(&must_stmt)?) {
                Ok(QueryResult::Range(a)) => a.must,
                Err(e) => return Ok(Err(e)),
                Ok(_) => unreachable!("merge_range yields range results"),
            }
        } else {
            Vec::new()
        };
        // Assemble exactly like the single-node path: must from the
        // deflated disc, the rest of the inflated disc to may, anchor
        // excluded from both.
        let mut answer = RangeAnswer {
            candidates: may_side.candidates,
            stats: may_side.stats,
            ..RangeAnswer::default()
        };
        answer.must = must_ids.into_iter().filter(|&i| i != target).collect();
        may_side.normalize();
        for id in may_side.all() {
            if id != target && !answer.must.contains(&id) {
                answer.may.push(id);
            }
        }
        answer.normalize();
        Ok(Ok(QueryResult::Range(answer)))
    }

    /// One statement to one shard, expecting one verdict back.
    fn single(&mut self, shard: usize, statement: &str) -> Result<RemoteVerdict, ClusterError> {
        let mut verdicts = self.clients[shard]
            .batch(statement)
            .map_err(|e| shard_failed(shard, &e))?;
        if verdicts.len() != 1 {
            return Err(ClusterError::ShardFailed {
                shard,
                error: format!("expected 1 verdict, got {}", verdicts.len()),
            });
        }
        Ok(verdicts.remove(0))
    }

    /// One statement to every shard in parallel; element i is shard i's
    /// verdict.
    fn broadcast(&mut self, statement: &str) -> Result<Vec<RemoteVerdict>, ClusterError> {
        let results: Vec<Result<Vec<RemoteVerdict>, WalError>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| s.spawn(move || client.batch(statement)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard query thread panicked"))
                .collect()
        });
        results
            .into_iter()
            .enumerate()
            .map(|(shard, result)| {
                let mut verdicts = result.map_err(|e| shard_failed(shard, &e))?;
                if verdicts.len() != 1 {
                    return Err(ClusterError::ShardFailed {
                        shard,
                        error: format!("expected 1 verdict, got {}", verdicts.len()),
                    });
                }
                Ok(verdicts.remove(0))
            })
            .collect()
    }
}

fn shard_failed(shard: usize, error: &dyn fmt::Display) -> ClusterError {
    ClusterError::ShardFailed {
        shard,
        error: error.to_string(),
    }
}

/// Merge for point lookups: the one shard that knows the object
/// answers; otherwise every shard failed identically (same error a
/// single node raises), so the first error stands.
fn first_answer(verdicts: Vec<RemoteVerdict>) -> RemoteVerdict {
    let mut first_err = None;
    for v in verdicts {
        match v {
            Ok(r) => return Ok(r),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    Err(first_err.expect("broadcast reaches at least one shard"))
}

/// Merge for range queries: union the may/must sets, sum the traversal
/// diagnostics, renormalize. Any shard-side query error is the
/// statement's verdict (every shard evaluates the same region, so
/// region errors are identical across shards).
fn merge_range(verdicts: Vec<RemoteVerdict>) -> RemoteVerdict {
    let mut merged = RangeAnswer::default();
    for v in verdicts {
        match v {
            Ok(QueryResult::Range(a)) => {
                merged.must.extend(a.must);
                merged.may.extend(a.may);
                merged.candidates += a.candidates;
                merged.stats.nodes_visited += a.stats.nodes_visited;
                merged.stats.entries_tested += a.stats.entries_tested;
                merged.stats.matches += a.stats.matches;
            }
            Ok(_) => return Err("shard answered a range query with a non-range result".into()),
            Err(e) => return Err(e),
        }
    }
    merged.normalize();
    Ok(QueryResult::Range(merged))
}

/// Merge for k-nearest: pool every shard's (widened) ranking and rank
/// the union at the original k. Distances and bounds are per-object
/// facts, so the pooled ranking equals the single-node ranking.
fn merge_nearest(verdicts: Vec<RemoteVerdict>, k: usize) -> RemoteVerdict {
    let mut pool = Vec::new();
    for v in verdicts {
        match v {
            Ok(QueryResult::Nearest(a)) => {
                pool.extend(a.ranked);
                pool.extend(a.contenders);
            }
            Ok(_) => return Err("shard answered a nearest query with a non-nearest result".into()),
            Err(e) => return Err(e),
        }
    }
    Ok(QueryResult::Nearest(NearestAnswer::from_neighbours(
        pool, k,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_error_displays_name_the_shard() {
        let e = ClusterError::ShardFailed {
            shard: 2,
            error: "connection reset".into(),
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(ClusterError::UnroutableUpdate(ObjectId(7))
            .to_string()
            .contains('7'));
        let e = ClusterError::ShardCountMismatch { map: 3, clients: 2 };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
    }

    #[test]
    fn first_answer_prefers_the_knowing_shard() {
        let err: RemoteVerdict = Err("execution error: database error: x".into());
        let ok: RemoteVerdict = Ok(QueryResult::Range(RangeAnswer::default()));
        match first_answer(vec![err.clone(), ok, err.clone()]) {
            Ok(QueryResult::Range(_)) => {}
            other => panic!("{other:?}"),
        }
        assert!(first_answer(vec![err.clone(), err]).is_err());
    }

    #[test]
    fn merge_range_unions_and_renormalizes() {
        let a = RangeAnswer {
            must: vec![ObjectId(3)],
            may: vec![ObjectId(5)],
            candidates: 2,
            stats: Default::default(),
        };
        let b = RangeAnswer {
            must: vec![ObjectId(1)],
            may: vec![ObjectId(4)],
            candidates: 3,
            stats: Default::default(),
        };
        let merged =
            merge_range(vec![Ok(QueryResult::Range(a)), Ok(QueryResult::Range(b))]).unwrap();
        let r = merged.as_range().unwrap();
        assert_eq!(r.must, vec![ObjectId(1), ObjectId(3)]);
        assert_eq!(r.may, vec![ObjectId(4), ObjectId(5)]);
        assert_eq!(r.candidates, 5);
    }

    #[test]
    fn merge_nearest_ranks_the_pool() {
        let mk = |id: u64, d: f64| modb_core::Neighbour {
            id: ObjectId(id),
            distance: d,
            bound: 0.1,
            certain: false,
        };
        let a = NearestAnswer {
            ranked: vec![mk(1, 5.0), mk(2, 9.0)],
            contenders: vec![],
        };
        let b = NearestAnswer {
            ranked: vec![mk(3, 1.0)],
            contenders: vec![],
        };
        let merged = merge_nearest(
            vec![Ok(QueryResult::Nearest(a)), Ok(QueryResult::Nearest(b))],
            2,
        )
        .unwrap();
        let n = merged.as_nearest().unwrap();
        assert_eq!(n.ranked.len(), 2);
        assert_eq!(n.ranked[0].id, ObjectId(3));
        assert_eq!(n.ranked[1].id, ObjectId(1));
    }
}
