//! Queuing orders: the output of a distributed queuing protocol.
//!
//! A queuing protocol must arrange all requests into a total order starting at the
//! virtual root request `r0`, and inform the issuer of each request of the identity of
//! its *successor* (Section 2). [`OrderRecord`] captures one such notification (who
//! got queued behind whom, and when the predecessor's node learnt it);
//! [`QueuingOrder`] assembles the records into the total order and validates it.

use crate::request::{ObjectId, RequestId, RequestSchedule};
use desim::{SimDuration, SimTime};
use netgraph::NodeId;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// One successor notification: request `successor` was queued immediately behind
/// `predecessor` in the queue of object `obj`, and the node holding `predecessor`
/// learnt this at `informed_at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrderRecord {
    /// The earlier request in the queue (possibly [`RequestId::ROOT`]).
    pub predecessor: RequestId,
    /// The request queued immediately behind `predecessor`.
    pub successor: RequestId,
    /// The object whose queue this notification belongs to (each object has its own
    /// independent total order; [`ObjectId::DEFAULT`] for single-object runs).
    pub obj: ObjectId,
    /// Node at which the notification happened (where `predecessor` lives).
    pub at_node: NodeId,
    /// Time the notification happened — the end point of the latency of `successor`
    /// per Definition 3.2.
    pub informed_at: SimTime,
    /// Recovery epoch the notification happened in (0 in fault-free runs). Under
    /// churn each epoch builds its own chain; see [`validate_churn_records`].
    pub epoch: u64,
}

/// Errors that make a set of order records an invalid queuing order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OrderError {
    /// A request appears as a successor in more than one record.
    DuplicateSuccessor(RequestId),
    /// A request appears as a predecessor in more than one record.
    DuplicatePredecessor(RequestId),
    /// A request from the schedule never appears as a successor (it was never queued).
    MissingRequest(RequestId),
    /// A record references a request id that is not in the schedule.
    UnknownRequest(RequestId),
    /// Following successor links from the root does not visit every request
    /// (the records contain a cycle or a disconnected chain).
    BrokenChain {
        /// How many requests were reachable from the root.
        reached: usize,
        /// How many requests the schedule contains.
        expected: usize,
    },
    /// The records span more than one object: each object has its own independent
    /// queue, so a single [`QueuingOrder`] must be assembled per object (from the
    /// object's records against its [`RequestSchedule::for_object`] sub-schedule).
    MixedObjects(ObjectId, ObjectId),
}

/// One validated chain: the queue's notifications, and the lookups built from
/// them on first use.
#[derive(Debug, Default)]
struct Chain {
    /// The records the chain was validated from, shared by the chains of every
    /// object of one journal.
    journal: Arc<Vec<OrderRecord>>,
    /// `journal[places[k]]` is the notification that queued the `k`-th request.
    places: Vec<u32>,
    /// Request ids in queue order, starting with the request queued directly
    /// behind the root (the root itself is not included).
    order: OnceLock<Vec<RequestId>>,
    /// Queue places `k`, sorted by the id of the `k`-th request.
    by_id: OnceLock<Vec<u32>>,
}

impl Chain {
    /// The notifications in queue order.
    fn records(&self) -> impl Iterator<Item = &OrderRecord> + '_ {
        self.places
            .iter()
            .map(|&place| &self.journal[place as usize])
    }

    fn order(&self) -> &[RequestId] {
        self.order
            .get_or_init(|| self.records().map(|rec| rec.successor).collect())
    }
}

/// A validated total queuing order together with its notification records.
/// Cloning shares the chain.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueuingOrder {
    chain: Arc<Chain>,
}

impl QueuingOrder {
    /// Assemble and validate a queuing order from notification records.
    ///
    /// Every request in `schedule` must appear exactly once as a successor, each
    /// predecessor (including the root) at most once, and the successor chain starting
    /// from [`RequestId::ROOT`] must visit every request.
    pub fn from_records(
        records: &[OrderRecord],
        schedule: &RequestSchedule,
    ) -> Result<Self, OrderError> {
        if let Some(first) = records.first() {
            if let Some(other) = records.iter().find(|r| r.obj != first.obj) {
                return Err(OrderError::MixedObjects(first.obj, other.obj));
            }
        }
        let mut chains = assemble(Arc::new(records.to_vec()), schedule, Chains::One);
        chains.pop().expect("one chain").map_err(|(_, e)| e)
    }

    /// The total order (excluding the virtual root request).
    pub fn order(&self) -> &[RequestId] {
        self.chain.order()
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.chain.places.len()
    }

    /// True if no requests were queued.
    pub fn is_empty(&self) -> bool {
        self.chain.places.is_empty()
    }

    /// The notification record for a given successor request.
    pub fn record_for(&self, successor: RequestId) -> Option<&OrderRecord> {
        let chain = &*self.chain;
        let order = chain.order();
        let by_id = chain.by_id.get_or_init(|| {
            let mut by_id: Vec<u32> = (0..order.len() as u32).collect();
            by_id.sort_unstable_by_key(|&place| order[place as usize]);
            by_id
        });
        let at = by_id
            .binary_search_by_key(&successor, |&place| order[place as usize])
            .ok()?;
        Some(&chain.journal[chain.places[by_id[at] as usize] as usize])
    }

    /// The predecessor of a request in the queue.
    pub fn predecessor_of(&self, successor: RequestId) -> Option<RequestId> {
        self.record_for(successor).map(|r| r.predecessor)
    }

    /// Latency of each request per Definition 3.2: the time from its issue to the
    /// moment its predecessor's node is informed of the succession. Returns pairs
    /// `(request, latency)` in queue order.
    pub fn latencies(&self, schedule: &RequestSchedule) -> Vec<(RequestId, SimDuration)> {
        self.chain
            .records()
            .map(|rec| (rec.successor, latency(rec, schedule)))
            .collect()
    }

    /// Total latency (Definition 3.3): the sum of individual latencies.
    pub fn total_latency(&self, schedule: &RequestSchedule) -> SimDuration {
        self.chain.records().map(|rec| latency(rec, schedule)).sum()
    }
}

/// The latency of the request `rec` queued (Definition 3.2): from its issue to the
/// notification `rec`.
fn latency(rec: &OrderRecord, schedule: &RequestSchedule) -> SimDuration {
    let issue = schedule
        .get(rec.successor)
        .expect("validated order only contains scheduled requests")
        .time;
    rec.informed_at - issue
}

/// Which chains [`assemble`] validates.
#[derive(Clone, Copy)]
enum Chains<'a> {
    /// One chain of every request and record, whatever object they name.
    One,
    /// One chain per object listed, ascending; the records of an object not
    /// listed belong to no chain.
    PerObject(&'a [ObjectId]),
}

impl Chains<'_> {
    fn len(self) -> usize {
        match self {
            Chains::One => 1,
            Chains::PerObject(objects) => objects.len(),
        }
    }

    /// The chain of the requests and records of `obj`.
    fn of(self, obj: ObjectId) -> Option<usize> {
        match self {
            Chains::One => Some(0),
            Chains::PerObject(objects) => objects.binary_search(&obj).ok(),
        }
    }

    /// Whether a record of `record` may name a request of `request`.
    fn joins(self, record: ObjectId, request: ObjectId) -> bool {
        match self {
            Chains::One => true,
            Chains::PerObject(_) => record == request,
        }
    }
}

/// Validate every chain of `journal` against `schedule` in one pass over the
/// records and one over the requests. A chain's outcome is `Ok`, or the first of
/// its errors in this order: its first bad record in journal order, its
/// earliest-issued request never queued, a walk from the root that does not
/// reach all its requests.
fn assemble(
    journal: Arc<Vec<OrderRecord>>,
    schedule: &RequestSchedule,
    chains: Chains<'_>,
) -> Vec<Result<QueuingOrder, (usize, OrderError)>> {
    const NONE: u32 = u32::MAX;
    let requests = schedule.requests();
    assert!(
        journal.len() < NONE as usize && requests.len() < NONE as usize,
        "journals index in 32 bits"
    );
    // Per position in the schedule: the index of the record queuing the request,
    // and the position of the request queued directly behind it.
    let mut queued_by = vec![NONE; requests.len()];
    let mut followed_by = vec![NONE; requests.len()];
    // Per chain: the position queued behind the virtual root request, the first
    // error, and how many of its records were linked.
    let mut head = vec![NONE; chains.len()];
    let mut failed: Vec<Option<OrderError>> = vec![None; chains.len()];
    let mut linked = vec![0; chains.len()];
    for (i, rec) in journal.iter().enumerate() {
        let Some(c) = chains.of(rec.obj).filter(|&c| failed[c].is_none()) else {
            continue;
        };
        let position = |id: RequestId| {
            schedule
                .position_of(id)
                .filter(|&pos| chains.joins(rec.obj, requests[pos].obj))
                .ok_or(OrderError::UnknownRequest(id))
        };
        let ends = || {
            let succ = position(rec.successor)?;
            let pred = (!rec.predecessor.is_root())
                .then(|| position(rec.predecessor))
                .transpose()?;
            Ok((succ, pred))
        };
        let link = ends().and_then(|(succ, pred)| {
            if std::mem::replace(&mut queued_by[succ], i as u32) != NONE {
                return Err(OrderError::DuplicateSuccessor(rec.successor));
            }
            let follower = match pred {
                None => &mut head[c],
                Some(pred) => &mut followed_by[pred],
            };
            if std::mem::replace(follower, succ as u32) != NONE {
                return Err(OrderError::DuplicatePredecessor(rec.predecessor));
            }
            Ok(())
        });
        match link {
            Ok(()) => linked[c] += 1,
            Err(e) => failed[c] = Some(e),
        }
    }

    // Walk every sound chain from the root. No request is queued twice, so the
    // walk visits each at most once and ends.
    let built: Vec<Chain> = (0..chains.len())
        .map(|c| {
            let mut chain = Chain {
                journal: Arc::clone(&journal),
                ..Chain::default()
            };
            if failed[c].is_none() {
                chain.places.reserve_exact(linked[c]);
                let mut at = head[c];
                while at != NONE {
                    chain.places.push(queued_by[at as usize]);
                    at = followed_by[at as usize];
                }
            }
            chain
        })
        .collect();

    // Every request, in issue order: counted, and checked for having been queued.
    let mut expected = vec![0; chains.len()];
    let mut never_queued: Vec<Option<RequestId>> = vec![None; chains.len()];
    for (request, &queued) in requests.iter().zip(&queued_by) {
        let Some(c) = chains.of(request.obj) else {
            continue;
        };
        expected[c] += 1;
        if queued == NONE {
            never_queued[c].get_or_insert(request.id);
        }
    }

    built
        .into_iter()
        .enumerate()
        .map(|(c, chain)| {
            let error = if let Some(e) = failed[c].take() {
                e
            } else if let Some(id) = never_queued[c] {
                OrderError::MissingRequest(id)
            } else if chain.places.len() != expected[c] {
                OrderError::BrokenChain {
                    reached: chain.places.len(),
                    expected: expected[c],
                }
            } else {
                return Ok(QueuingOrder {
                    chain: Arc::new(chain),
                });
            };
            Err((c, error))
        })
        .collect()
}

/// Assemble and validate the queuing order of every object touched by `schedule`,
/// each against the object's own requests — the one per-object validation contract
/// shared by the simulator harness ([`crate::run::outcome_from_records`]) and the
/// reactor runtime's `NetReport` (in-process and per `arrowd` daemon), so the tiers
/// cannot drift on what "a valid run" means. Objects are validated in ascending
/// order and the first failure is returned, carrying the offending object alongside
/// the [`OrderError`]. All objects' chains are validated together, in one pass
/// over the records and one over the requests. The records come in shared
/// storage, which the orders keep instead of a copy.
pub fn per_object_orders(
    records: Arc<Vec<OrderRecord>>,
    schedule: &RequestSchedule,
) -> Result<Vec<(ObjectId, QueuingOrder)>, (ObjectId, OrderError)> {
    let objects = schedule.objects();
    let chains = assemble(records, schedule, Chains::PerObject(&objects));
    objects
        .iter()
        .zip(chains)
        .map(|(&obj, chain)| chain.map(|order| (obj, order)).map_err(|(_, e)| (obj, e)))
        .collect()
}

/// An order-validity violation in a run with faults (see [`validate_churn_records`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChurnOrderError {
    /// A request was queued more than once within a single epoch of one object.
    DuplicateSuccessor {
        /// Object whose queue is inconsistent.
        obj: ObjectId,
        /// Epoch the duplicate appeared in.
        epoch: u64,
        /// The request queued twice.
        req: RequestId,
    },
    /// A request gained two direct successors within a single epoch of one object.
    DuplicatePredecessor {
        /// Object whose queue is inconsistent.
        obj: ObjectId,
        /// Epoch the fork appeared in.
        epoch: u64,
        /// The forked predecessor.
        req: RequestId,
    },
    /// The final epoch's records do not form one chain from the root.
    BrokenFinalChain {
        /// Object whose final chain is broken.
        obj: ObjectId,
        /// The final epoch.
        epoch: u64,
        /// Requests reachable from the root.
        reached: usize,
        /// Records the final epoch contains.
        expected: usize,
    },
}

impl std::fmt::Display for ChurnOrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnOrderError::DuplicateSuccessor { obj, epoch, req } => {
                write!(
                    f,
                    "object {obj}: request {req} queued twice in epoch {epoch}"
                )
            }
            ChurnOrderError::DuplicatePredecessor { obj, epoch, req } => {
                write!(f, "object {obj}: request {req} forked in epoch {epoch}")
            }
            ChurnOrderError::BrokenFinalChain {
                obj,
                epoch,
                reached,
                expected,
            } => write!(
                f,
                "object {obj}: final epoch {epoch} chain reaches {reached} of {expected} records"
            ),
        }
    }
}

/// Validate per-object order records from a run with faults.
///
/// Each recovery epoch of each object builds its own successor chain from the
/// (regenerated) virtual root request, so the fault-free contract — one complete
/// chain per object — splits in two:
///
/// * **Every epoch** must be fork-free: within one `(object, epoch)` group a
///   request is queued at most once and gains at most one direct successor.
///   Abandoned epochs may leave *disconnected* chain segments behind (the fault cut
///   them short); that is legal.
/// * **The final epoch** (`final_epoch`, the one the system converged to after the
///   last fault's detection bump) must additionally form a single connected chain
///   from [`RequestId::ROOT`] covering all of its records — after recovery the
///   directory behaves like a fresh fault-free instance.
pub fn validate_churn_records(
    records: &[OrderRecord],
    final_epoch: u64,
) -> Result<(), ChurnOrderError> {
    // Group by (object, epoch), each group in journal order; the lowest
    // violating group is reported.
    let mut sorted: Vec<&OrderRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.obj, r.epoch));
    for group in sorted.chunk_by(|a, b| (a.obj, a.epoch) == (b.obj, b.epoch)) {
        let (obj, epoch) = (group[0].obj, group[0].epoch);
        // The first record, in journal order, that repeats a successor or a
        // predecessor seen before it in the group; a repeated successor first.
        let first_repeat = |end: fn(&OrderRecord) -> RequestId| {
            let mut by_end: Vec<(RequestId, usize)> =
                group.iter().enumerate().map(|(i, r)| (end(r), i)).collect();
            by_end.sort_unstable();
            by_end
                .windows(2)
                .filter(|pair| pair[0].0 == pair[1].0)
                .map(|pair| pair[1].1)
                .min()
        };
        let pred = first_repeat(|r| r.predecessor);
        let succ = first_repeat(|r| r.successor).filter(|&i| pred.is_none_or(|p| i <= p));
        if let Some(succ) = succ {
            return Err(ChurnOrderError::DuplicateSuccessor {
                obj,
                epoch,
                req: group[succ].successor,
            });
        }
        if let Some(pred) = pred {
            return Err(ChurnOrderError::DuplicatePredecessor {
                obj,
                epoch,
                req: group[pred].predecessor,
            });
        }
        if epoch == final_epoch {
            // Fork-free: each request has at most one successor, found by
            // bisection. A record queuing the root closes no chain.
            let mut by_pred: Vec<(RequestId, RequestId)> =
                group.iter().map(|r| (r.predecessor, r.successor)).collect();
            by_pred.sort_unstable();
            let next = |cur: RequestId| {
                let at = by_pred.binary_search_by_key(&cur, |&(pred, _)| pred).ok()?;
                Some(by_pred[at].1).filter(|succ| !succ.is_root())
            };
            let mut reached = 0;
            let mut cur = RequestId::ROOT;
            while let Some(succ) = next(cur) {
                reached += 1;
                cur = succ;
            }
            if reached != group.len() {
                return Err(ChurnOrderError::BrokenFinalChain {
                    obj,
                    epoch,
                    reached,
                    expected: group.len(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use desim::SimTime;
    use std::collections::HashMap;

    fn schedule3() -> RequestSchedule {
        RequestSchedule::from_pairs(&[
            (0, SimTime::from_units(0)),
            (1, SimTime::from_units(1)),
            (2, SimTime::from_units(2)),
        ])
    }

    fn rec(pred: u64, succ: u64, at: u64) -> OrderRecord {
        OrderRecord {
            predecessor: RequestId(pred),
            successor: RequestId(succ),
            obj: ObjectId::DEFAULT,
            at_node: 0,
            informed_at: SimTime::from_units(at),
            epoch: 0,
        }
    }

    #[test]
    fn valid_chain_builds_order() {
        let records = vec![rec(0, 1, 1), rec(1, 2, 3), rec(2, 3, 5)];
        let order = QueuingOrder::from_records(&records, &schedule3()).unwrap();
        assert_eq!(order.order(), &[RequestId(1), RequestId(2), RequestId(3)]);
        assert_eq!(order.predecessor_of(RequestId(2)), Some(RequestId(1)));
        assert_eq!(order.len(), 3);
        assert!(!order.is_empty());
    }

    #[test]
    fn latencies_and_total_latency() {
        // issue times 0,1,2; informed at 1,3,5 => latencies 1,2,3 => total 6
        let records = vec![rec(0, 1, 1), rec(1, 2, 3), rec(2, 3, 5)];
        let s = schedule3();
        let order = QueuingOrder::from_records(&records, &s).unwrap();
        let lats = order.latencies(&s);
        let units: Vec<f64> = lats.iter().map(|(_, l)| l.as_units_f64()).collect();
        assert_eq!(units, vec![1.0, 2.0, 3.0]);
        assert_eq!(order.total_latency(&s), SimDuration::from_units(6));
    }

    #[test]
    fn missing_request_detected() {
        let records = vec![rec(0, 1, 1), rec(1, 2, 3)];
        let err = QueuingOrder::from_records(&records, &schedule3()).unwrap_err();
        assert_eq!(err, OrderError::MissingRequest(RequestId(3)));
    }

    #[test]
    fn duplicate_successor_detected() {
        let records = vec![rec(0, 1, 1), rec(1, 1, 2), rec(1, 2, 3), rec(2, 3, 4)];
        let err = QueuingOrder::from_records(&records, &schedule3()).unwrap_err();
        assert_eq!(err, OrderError::DuplicateSuccessor(RequestId(1)));
    }

    #[test]
    fn forked_predecessor_detected() {
        let records = vec![rec(0, 1, 1), rec(1, 2, 3), rec(1, 3, 4)];
        let err = QueuingOrder::from_records(&records, &schedule3()).unwrap_err();
        assert_eq!(err, OrderError::DuplicatePredecessor(RequestId(1)));
    }

    #[test]
    fn cycle_is_a_broken_chain() {
        // 1 <- 2, 2 <- 3, 3 <- 1 : no link from the root at all.
        let records = vec![rec(1, 2, 1), rec(2, 3, 2), rec(3, 1, 3)];
        let err = QueuingOrder::from_records(&records, &schedule3()).unwrap_err();
        assert_eq!(
            err,
            OrderError::BrokenChain {
                reached: 0,
                expected: 3
            }
        );
    }

    #[test]
    fn unknown_request_detected() {
        let records = vec![rec(0, 9, 1)];
        let err = QueuingOrder::from_records(&records, &schedule3()).unwrap_err();
        assert_eq!(err, OrderError::UnknownRequest(RequestId(9)));
    }

    fn erec(epoch: u64, pred: u64, succ: u64) -> OrderRecord {
        OrderRecord {
            epoch,
            ..rec(pred, succ, 1)
        }
    }

    #[test]
    fn churn_records_allow_disconnected_segments_in_abandoned_epochs() {
        // Epoch 0: segment 5 <- 6 not anchored at the root (the fault cut the run
        // short). Epoch 1 (final): complete chain 0 <- 1 <- 2.
        let records = vec![erec(0, 5, 6), erec(1, 0, 1), erec(1, 1, 2)];
        validate_churn_records(&records, 1).expect("legal churn history");
    }

    #[test]
    fn churn_records_reject_forks_in_any_epoch() {
        let dup_succ = vec![erec(0, 1, 2), erec(0, 3, 2)];
        assert!(matches!(
            validate_churn_records(&dup_succ, 1),
            Err(ChurnOrderError::DuplicateSuccessor { .. })
        ));
        let dup_pred = vec![erec(0, 1, 2), erec(0, 1, 3)];
        assert!(matches!(
            validate_churn_records(&dup_pred, 1),
            Err(ChurnOrderError::DuplicatePredecessor { .. })
        ));
    }

    #[test]
    fn churn_records_require_a_complete_final_chain() {
        // Final epoch has a segment not anchored at the root.
        let records = vec![erec(2, 0, 1), erec(2, 7, 8)];
        let err = validate_churn_records(&records, 2).unwrap_err();
        assert!(matches!(
            err,
            ChurnOrderError::BrokenFinalChain {
                reached: 1,
                expected: 2,
                ..
            }
        ));
        assert!(err.to_string().contains("final epoch"));
        // The same records are legal when epoch 2 is not final.
        validate_churn_records(&records, 3).expect("non-final epochs may fragment");
    }

    #[test]
    fn churn_verdict_names_the_lowest_violating_group_every_time() {
        // Two groups violate: (o2, epoch 0) forks, (o1, epoch 3) queues a request
        // twice. Grouping must not depend on a hasher's seed.
        let at = |obj: u32, epoch: u64, pred: u64, succ: u64| OrderRecord {
            obj: ObjectId(obj),
            ..erec(epoch, pred, succ)
        };
        let records = vec![
            at(2, 0, 0, 1),
            at(1, 3, 0, 4),
            at(2, 0, 0, 2),
            at(1, 3, 4, 5),
            at(1, 3, 6, 5),
            at(0, 0, 0, 7),
        ];
        let want = ChurnOrderError::DuplicateSuccessor {
            obj: ObjectId(1),
            epoch: 3,
            req: RequestId(5),
        };
        for _ in 0..50 {
            assert_eq!(validate_churn_records(&records, 9), Err(want.clone()));
        }
        // Within a group, the first record in journal order that repeats an end.
        let fork_first = vec![at(1, 3, 4, 5), at(1, 3, 4, 6), at(1, 3, 7, 5)];
        assert_eq!(
            validate_churn_records(&fork_first, 9),
            Err(ChurnOrderError::DuplicatePredecessor {
                obj: ObjectId(1),
                epoch: 3,
                req: RequestId(4),
            })
        );
    }

    #[test]
    fn mixed_objects_detected() {
        let mut records = vec![rec(0, 1, 1), rec(1, 2, 3), rec(2, 3, 5)];
        records[1].obj = ObjectId(4);
        let err = QueuingOrder::from_records(&records, &schedule3()).unwrap_err();
        assert_eq!(
            err,
            OrderError::MixedObjects(ObjectId::DEFAULT, ObjectId(4))
        );
    }
    /// The map-based assembly this module used before it validated on index
    /// arrays, kept as the reference the new one is held to: `Ok(order)` or the
    /// first `OrderError`, for one object's records against its sub-schedule.
    fn reference_order(
        records: &[OrderRecord],
        schedule: &RequestSchedule,
    ) -> Result<Vec<RequestId>, OrderError> {
        use std::collections::HashSet;
        let known: HashSet<RequestId> = schedule.requests().iter().map(|r| r.id).collect();
        if let Some(first) = records.first() {
            if let Some(other) = records.iter().find(|r| r.obj != first.obj) {
                return Err(OrderError::MixedObjects(first.obj, other.obj));
            }
        }
        let mut by_successor: HashMap<RequestId, OrderRecord> = HashMap::new();
        let mut by_predecessor: HashMap<RequestId, OrderRecord> = HashMap::new();
        for rec in records {
            if !known.contains(&rec.successor) {
                return Err(OrderError::UnknownRequest(rec.successor));
            }
            if !rec.predecessor.is_root() && !known.contains(&rec.predecessor) {
                return Err(OrderError::UnknownRequest(rec.predecessor));
            }
            if by_successor.insert(rec.successor, *rec).is_some() {
                return Err(OrderError::DuplicateSuccessor(rec.successor));
            }
            if by_predecessor.insert(rec.predecessor, *rec).is_some() {
                return Err(OrderError::DuplicatePredecessor(rec.predecessor));
            }
        }
        for r in schedule.requests() {
            if !by_successor.contains_key(&r.id) {
                return Err(OrderError::MissingRequest(r.id));
            }
        }
        let mut order = Vec::with_capacity(schedule.len());
        let mut cur = RequestId::ROOT;
        while let Some(rec) = by_predecessor.get(&cur) {
            order.push(rec.successor);
            cur = rec.successor;
        }
        if order.len() != schedule.len() {
            return Err(OrderError::BrokenChain {
                reached: order.len(),
                expected: schedule.len(),
            });
        }
        Ok(order)
    }

    type ObjectOrders = Vec<(ObjectId, Vec<RequestId>)>;

    /// The reference for a whole journal: every touched object in ascending order,
    /// its records filtered out and held to its sub-schedule.
    fn reference_orders(
        records: &[OrderRecord],
        schedule: &RequestSchedule,
    ) -> Result<ObjectOrders, (ObjectId, OrderError)> {
        schedule
            .objects()
            .into_iter()
            .map(|obj| {
                let recs: Vec<OrderRecord> =
                    records.iter().filter(|r| r.obj == obj).copied().collect();
                reference_order(&recs, &schedule.for_object(obj))
                    .map(|order| (obj, order))
                    .map_err(|e| (obj, e))
            })
            .collect()
    }

    /// One generated journal: `k` objects, dense or sparse ids out of time order,
    /// a valid chain per object, then one seeded defect (or none).
    fn generated_case(rng: &mut desim::SimRng) -> (RequestSchedule, Vec<OrderRecord>) {
        let pick = |rng: &mut desim::SimRng, n: usize| rng.uniform_u64(0, n as u64 - 1) as usize;
        let k = 1 + pick(rng, 8);
        let n = pick(rng, 33);
        let stride = [1, 1, 2, 7][pick(rng, 4)];
        let mut ids: Vec<u64> = (0..n as u64).map(|i| 1 + i * stride).collect();
        for i in (1..n).rev() {
            ids.swap(i, pick(rng, i + 1));
        }
        let requests: Vec<Request> = ids
            .iter()
            .enumerate()
            .map(|(t, &id)| Request {
                id: RequestId(id),
                node: t % 5,
                time: SimTime::from_units(t as u64 / 3),
                obj: ObjectId(pick(rng, k) as u32 * [1, 3][pick(rng, 2)]),
            })
            .collect();
        let schedule = RequestSchedule::from_requests(requests.clone());

        let mut records = Vec::new();
        for obj in schedule.objects() {
            let mut chain: Vec<RequestId> = requests
                .iter()
                .filter(|r| r.obj == obj)
                .map(|r| r.id)
                .collect();
            for i in (1..chain.len()).rev() {
                chain.swap(i, pick(rng, i + 1));
            }
            let mut pred = RequestId::ROOT;
            for succ in chain {
                records.push(OrderRecord {
                    obj,
                    ..rec(pred.0, succ.0, 1 + pick(rng, 50) as u64)
                });
                pred = succ;
            }
        }
        for i in (1..records.len()).rev() {
            records.swap(i, pick(rng, i + 1));
        }
        if records.is_empty() {
            return (schedule, records);
        }
        let victim = pick(rng, records.len());
        let other = records[pick(rng, records.len())];
        match pick(rng, 10) {
            // Duplicate successor: a second record queues an already queued request.
            0 => records.push(OrderRecord {
                predecessor: other.successor,
                ..records[victim]
            }),
            // Forked predecessor: two requests behind the same one.
            1 => records[victim].predecessor = other.predecessor,
            // Missing: a request never queued.
            2 => {
                records.swap_remove(victim);
            }
            // Unknown successor / predecessor: an id outside the schedule.
            3 => records[victim].successor = RequestId(10_000 + victim as u64),
            4 => records[victim].predecessor = RequestId(10_000),
            // A cycle cut off from the root: the head now follows the tail.
            5 => {
                if let Some(head) = records.iter_mut().find(|r| r.predecessor.is_root()) {
                    head.predecessor = other.successor;
                }
            }
            // Mixed objects: the record moves to another object's journal (or to
            // an object nobody requested).
            6 => records[victim].obj = ObjectId(pick(rng, 2 * k) as u32),
            // The virtual root request as a successor.
            7 => records[victim].successor = RequestId::ROOT,
            _ => {}
        }
        (schedule, records)
    }

    #[test]
    fn index_assembly_agrees_with_the_map_based_reference() {
        let mut rng = desim::SimRng::new(0x0a77_0bde);
        let (mut valid, mut invalid) = (0, 0);
        let mut kinds = std::collections::BTreeSet::new();
        for case in 0..3_000 {
            let (schedule, records) = generated_case(&mut rng);
            // The whole journal, as the harness validates it.
            let got = per_object_orders(Arc::new(records.clone()), &schedule).map(|orders| {
                orders
                    .into_iter()
                    .map(|(obj, order)| (obj, order.order().to_vec()))
                    .collect::<Vec<_>>()
            });
            assert_eq!(got, reference_orders(&records, &schedule), "case {case}");
            // Each object's journal on its own, and the unsplit one (mixed objects).
            let mut journals = vec![records.clone()];
            for obj in schedule.objects() {
                journals.push(records.iter().filter(|r| r.obj == obj).copied().collect());
            }
            for journal in journals {
                let sub = match journal.first() {
                    Some(first) => schedule.for_object(first.obj),
                    None => RequestSchedule::default(),
                };
                let got = QueuingOrder::from_records(&journal, &sub);
                let want = reference_order(&journal, &sub);
                match (&got, &want) {
                    (Ok(order), Ok(want)) => {
                        assert_eq!(order.order(), want, "case {case}");
                        for (place, &id) in want.iter().enumerate() {
                            let rec = order.record_for(id).expect("queued requests have records");
                            assert_eq!(rec.successor, id);
                            let pred = if place == 0 {
                                RequestId::ROOT
                            } else {
                                want[place - 1]
                            };
                            assert_eq!(order.predecessor_of(id), Some(pred));
                        }
                        assert!(order.record_for(RequestId(9_999)).is_none());
                        valid += 1;
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got, want, "case {case}");
                        kinds.insert(
                            format!("{want:?}")
                                .split(['(', ' '])
                                .next()
                                .map(String::from),
                        );
                        invalid += 1;
                    }
                    _ => panic!("case {case}: {got:?} vs reference {want:?}"),
                }
            }
        }
        assert!(
            valid > 2_000 && invalid > 2_000,
            "{valid} valid, {invalid} invalid"
        );
        assert_eq!(
            kinds.len(),
            6,
            "every OrderError variant was raised: {kinds:?}"
        );
    }

    /// A valid journal of 12 requests on 4 nodes for `k` objects: request `id` is
    /// for object `id % k`, the ids are shuffled against issue order, every
    /// object's chain is in a seeded order and the records are shuffled.
    fn corpus_journal(k: u64, seed: u64) -> (RequestSchedule, Vec<OrderRecord>) {
        let mut rng = desim::SimRng::new(seed);
        let mut shuffle = |items: &mut Vec<u64>| {
            for i in (1..items.len()).rev() {
                items.swap(i, rng.uniform_u64(0, i as u64) as usize);
            }
        };
        let mut ids: Vec<u64> = (1..=12).collect();
        shuffle(&mut ids);
        let requests = ids
            .iter()
            .enumerate()
            .map(|(place, &id)| Request {
                id: RequestId(id),
                node: place % 4,
                time: SimTime::from_units(place as u64 / 2),
                obj: ObjectId((id % k) as u32),
            })
            .collect();
        let schedule = RequestSchedule::from_requests(requests);
        let mut records = Vec::new();
        for obj in 0..k {
            let mut chain: Vec<u64> = (1..=12).filter(|id| id % k == obj).collect();
            shuffle(&mut chain);
            let mut pred = 0;
            for succ in chain {
                records.push(OrderRecord {
                    obj: ObjectId(obj as u32),
                    at_node: pred as usize % 4,
                    ..rec(pred, succ, 10 + succ)
                });
                pred = succ;
            }
        }
        let mut order: Vec<u64> = (0..records.len() as u64).collect();
        shuffle(&mut order);
        let records = order.iter().map(|&i| records[i as usize]).collect();
        (schedule, records)
    }

    /// One defect applied to a corpus journal; records are named by the request
    /// they queue.
    #[derive(Debug, Clone, Copy)]
    enum Defect {
        /// The record queuing the request is lost.
        Drop(u64),
        /// A copy of the record queuing the request is appended.
        Duplicate(u64),
        /// The record queuing the first request takes the predecessor of the
        /// record queuing the second.
        Fork(u64, u64),
        /// The record queuing the first request names the second as its successor.
        Retarget(u64, u64),
        /// The record queuing the first request names the second as its predecessor.
        Repoint(u64, u64),
        /// The record queuing the request moves to the given object's queue.
        Move(u64, u32),
        /// The record queuing the request is re-pointed behind the last request
        /// of its object's queue, which cuts a cycle off the chain.
        Loop(u64),
        /// The journal is read back to front.
        Reverse,
    }

    fn corrupt(records: &mut Vec<OrderRecord>, defect: Defect) {
        let at = |records: &[OrderRecord], id: u64| {
            records
                .iter()
                .position(|r| r.successor == RequestId(id))
                .expect("the corpus queues every request once")
        };
        match defect {
            Defect::Drop(id) => {
                records.remove(at(records, id));
            }
            Defect::Duplicate(id) => records.push(records[at(records, id)]),
            Defect::Fork(id, onto) => {
                let pred = records[at(records, onto)].predecessor;
                let i = at(records, id);
                records[i].predecessor = pred;
            }
            Defect::Retarget(id, to) => {
                let i = at(records, id);
                records[i].successor = RequestId(to);
            }
            Defect::Repoint(id, to) => {
                let i = at(records, id);
                records[i].predecessor = RequestId(to);
            }
            Defect::Move(id, obj) => {
                let i = at(records, id);
                records[i].obj = ObjectId(obj);
            }
            Defect::Loop(id) => {
                let i = at(records, id);
                let obj = records[i].obj;
                let of_obj = || records.iter().filter(|r| r.obj == obj);
                let tail = of_obj()
                    .map(|r| r.successor)
                    .find(|&succ| of_obj().all(|r| r.predecessor != succ))
                    .expect("a chain ends");
                records[i].predecessor = tail;
            }
            Defect::Reverse => records.reverse(),
        }
    }

    /// A seeded corpus of corrupted journals, each pinned to the exact
    /// `(object, error)` that `per_object_orders` reports for it: which defect
    /// wins inside an object (journal order), which object wins when several fail
    /// (the lowest), and which missing request is named (the earliest issued).
    #[test]
    fn seeded_corruption_corpus_reports_the_pinned_error() {
        use Defect::*;
        use OrderError::*;
        type Expected = Result<usize, (u32, OrderError)>;
        let id = RequestId;
        let broken = |reached, expected| BrokenChain { reached, expected };
        #[rustfmt::skip]
        let cases: Vec<(u64, u64, Vec<Defect>, Expected)> = vec![
            // Valid journals: the number of objects validated.
            (1, 1, vec![], Ok(1)),
            (3, 2, vec![], Ok(3)),
            (3, 3, vec![Reverse], Ok(3)),
            // A record moved to an object nobody requested belongs to no chain, and
            // leaves its own request unqueued.
            (3, 1, vec![Move(5, 7)], Err((2, MissingRequest(id(5))))),
            (1, 1, vec![Move(5, 7)], Err((0, MissingRequest(id(5))))),
            // Dropped.
            (1, 1, vec![Drop(7)], Err((0, MissingRequest(id(7))))),
            (3, 2, vec![Drop(8)], Err((2, MissingRequest(id(8))))),
            // Two dropped: the earlier issued is named, whatever the ids say.
            (1, 4, vec![Drop(3), Drop(9)], Err((0, MissingRequest(id(3))))),
            (3, 4, vec![Drop(3), Drop(9)], Err((0, MissingRequest(id(3))))),
            (1, 4, vec![Drop(3), Drop(12)], Err((0, MissingRequest(id(12))))),
            (3, 4, vec![Drop(3), Drop(12)], Err((0, MissingRequest(id(12))))),
            (1, 1, vec![Drop(3), Drop(8)], Err((0, MissingRequest(id(8))))),
            // Duplicated.
            (1, 2, vec![Duplicate(4)], Err((0, DuplicateSuccessor(id(4))))),
            (3, 1, vec![Duplicate(6)], Err((0, DuplicateSuccessor(id(6))))),
            // Forked.
            (1, 3, vec![Fork(5, 11)], Err((0, DuplicatePredecessor(id(7))))),
            (3, 3, vec![Fork(4, 10)], Err((1, DuplicatePredecessor(id(4))))),
            // Re-targeted: outside the schedule, to the root, to another object's
            // request, to another request of the same object.
            (1, 5, vec![Retarget(2, 99)], Err((0, UnknownRequest(id(99))))),
            (3, 5, vec![Retarget(2, 0)], Err((2, UnknownRequest(id(0))))),
            (3, 5, vec![Retarget(2, 3)], Err((2, UnknownRequest(id(3))))),
            (3, 6, vec![Retarget(1, 7)], Err((1, DuplicateSuccessor(id(7))))),
            (1, 6, vec![Retarget(1, 7)], Err((0, DuplicateSuccessor(id(7))))),
            // Re-pointed: behind itself, behind an unknown request, behind another
            // object's request, behind its queue's last request (a cycle).
            (1, 7, vec![Repoint(6, 6)], Err((0, DuplicatePredecessor(id(6))))),
            (1, 7, vec![Repoint(6, 77)], Err((0, UnknownRequest(id(77))))),
            (3, 7, vec![Repoint(6, 1)], Err((0, UnknownRequest(id(1))))),
            (1, 7, vec![Loop(6)], Err((0, broken(0, 12)))),
            (1, 11, vec![Loop(1)], Err((0, broken(9, 12)))),
            (3, 7, vec![Loop(12)], Err((0, broken(2, 4)))),
            (3, 11, vec![Loop(2)], Err((2, broken(3, 4)))),
            // Reordered: with two defects in one object, journal order decides.
            (1, 8, vec![Duplicate(2), Fork(9, 4)], Err((0, DuplicatePredecessor(id(2))))),
            (1, 8, vec![Fork(9, 4), Duplicate(2), Reverse], Err((0, DuplicatePredecessor(id(2))))),
            (3, 8, vec![Fork(9, 3), Duplicate(6)], Err((0, DuplicatePredecessor(id(6))))),
            (3, 8, vec![Fork(9, 3), Duplicate(6), Reverse], Err((0, DuplicateSuccessor(id(6))))),
            // Two objects fail: the lower one is reported, in either journal order.
            (3, 9, vec![Drop(5), Duplicate(4)], Err((1, DuplicateSuccessor(id(4))))),
            (3, 9, vec![Drop(5), Duplicate(4), Reverse], Err((1, DuplicateSuccessor(id(4))))),
            (3, 9, vec![Fork(11, 8), Drop(3)], Err((0, MissingRequest(id(3))))),
            (3, 10, vec![Retarget(2, 99), Loop(12)], Err((0, broken(2, 4)))),
            (3, 10, vec![Loop(4), Loop(12), Reverse], Err((0, broken(2, 4)))),
        ];
        for (case, (k, seed, defects, expected)) in cases.into_iter().enumerate() {
            let (schedule, mut records) = corpus_journal(k, seed);
            for &defect in &defects {
                corrupt(&mut records, defect);
            }
            let got = per_object_orders(Arc::new(records), &schedule)
                .map(|orders| orders.len())
                .map_err(|(obj, e)| (obj.0, e));
            assert_eq!(
                got, expected,
                "case {case}: K = {k}, seed {seed}, {defects:?}"
            );
        }
    }
}
