//! Queuing orders: the output of a distributed queuing protocol.
//!
//! A queuing protocol must arrange all requests into a total order starting at the
//! virtual root request `r0`, and inform the issuer of each request of the identity of
//! its *successor* (Section 2). [`OrderRecord`] captures one such notification (who
//! got queued behind whom, and when the predecessor's node learnt it);
//! [`QueuingOrder`] assembles the records into the total order and validates it.

use crate::request::{ObjectId, Request, RequestId, RequestSchedule};
use desim::{SimDuration, SimTime};
use netgraph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

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

/// One validated chain: the queue, its notifications, and a by-id lookup index.
#[derive(Debug, Default)]
struct Chain {
    /// Request ids in queue order, starting with the request queued directly behind
    /// the root (the root itself is not included).
    order: Vec<RequestId>,
    /// `records[k]` is the notification that queued `order[k]`.
    records: Vec<OrderRecord>,
    /// Queue places `k`, sorted by the request id `order[k]`.
    by_id: Vec<usize>,
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
        let reqs: Vec<usize> = schedule.positions_by_id().collect();
        Assembly::new(records, schedule).chain(&reqs, 0..records.len(), |_| true)
    }

    /// The total order (excluding the virtual root request).
    pub fn order(&self) -> &[RequestId] {
        &self.chain.order
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.chain.order.len()
    }

    /// True if no requests were queued.
    pub fn is_empty(&self) -> bool {
        self.chain.order.is_empty()
    }

    /// The notification record for a given successor request.
    pub fn record_for(&self, successor: RequestId) -> Option<&OrderRecord> {
        let chain = &*self.chain;
        let at = chain
            .by_id
            .binary_search_by_key(&successor, |&place| chain.order[place])
            .ok()?;
        Some(&chain.records[chain.by_id[at]])
    }

    /// The predecessor of a request in the queue.
    pub fn predecessor_of(&self, successor: RequestId) -> Option<RequestId> {
        self.record_for(successor).map(|r| r.predecessor)
    }

    /// Latency of each request per Definition 3.2: the time from its issue to the
    /// moment its predecessor's node is informed of the succession. Returns pairs
    /// `(request, latency)` in queue order.
    pub fn latencies(&self, schedule: &RequestSchedule) -> Vec<(RequestId, SimDuration)> {
        let latency = |rec: &OrderRecord| {
            let issue = schedule
                .get(rec.successor)
                .expect("validated order only contains scheduled requests")
                .time;
            (rec.successor, rec.informed_at - issue)
        };
        self.chain.records.iter().map(latency).collect()
    }

    /// Total latency (Definition 3.3): the sum of individual latencies.
    pub fn total_latency(&self, schedule: &RequestSchedule) -> SimDuration {
        self.latencies(schedule).into_iter().map(|(_, l)| l).sum()
    }
}

/// The index arrays of one validation pass over `records` against `schedule`,
/// addressed by position in the schedule. Chains of disjoint request sets (one per
/// object) share them.
struct Assembly<'a> {
    records: &'a [OrderRecord],
    schedule: &'a RequestSchedule,
    /// Index of the record naming the request as successor; once the request is
    /// placed, its place in the queue instead.
    queued_by: Vec<usize>,
    /// Position of the request queued directly behind this one.
    followed_by: Vec<usize>,
}

impl<'a> Assembly<'a> {
    const NONE: usize = usize::MAX;

    fn new(records: &'a [OrderRecord], schedule: &'a RequestSchedule) -> Self {
        Assembly {
            records,
            schedule,
            queued_by: vec![Self::NONE; schedule.len()],
            followed_by: vec![Self::NONE; schedule.len()],
        }
    }

    /// Validate one chain: `reqs` are the schedule positions of its requests in
    /// ascending id order, `recs` the indices of its records in journal order, and
    /// `member` says whether a scheduled request is one of `reqs`.
    fn chain(
        &mut self,
        reqs: &[usize],
        recs: impl Iterator<Item = usize>,
        member: impl Fn(&Request) -> bool,
    ) -> Result<QueuingOrder, OrderError> {
        let (records, schedule) = (self.records, self.schedule);
        let requests = schedule.requests();
        let position = |id: RequestId| {
            schedule
                .position_of(id)
                .filter(|&pos| member(&requests[pos]))
                .ok_or(OrderError::UnknownRequest(id))
        };
        // Position of the request queued directly behind the virtual root request.
        let mut head = Self::NONE;
        for i in recs {
            let rec = &records[i];
            let succ = position(rec.successor)?;
            let follower = if rec.predecessor.is_root() {
                &mut head
            } else {
                &mut self.followed_by[position(rec.predecessor)?]
            };
            if std::mem::replace(&mut self.queued_by[succ], i) != Self::NONE {
                return Err(OrderError::DuplicateSuccessor(rec.successor));
            }
            if std::mem::replace(follower, succ) != Self::NONE {
                return Err(OrderError::DuplicatePredecessor(rec.predecessor));
            }
        }
        // The earliest-issued request that was never queued, as the schedule lists it.
        let never_queued = |&&pos: &&usize| self.queued_by[pos] == Self::NONE;
        if let Some(&pos) = reqs.iter().filter(never_queued).min() {
            return Err(OrderError::MissingRequest(requests[pos].id));
        }

        // Walk the chain from the root. No request is queued twice, so the walk
        // visits each at most once and ends.
        let mut chain = Chain {
            order: Vec::with_capacity(reqs.len()),
            records: Vec::with_capacity(reqs.len()),
            by_id: Vec::new(),
        };
        let mut at = head;
        while at != Self::NONE {
            let rec = records[std::mem::replace(&mut self.queued_by[at], chain.order.len())];
            chain.order.push(rec.successor);
            chain.records.push(rec);
            at = self.followed_by[at];
        }
        if chain.order.len() != reqs.len() {
            return Err(OrderError::BrokenChain {
                reached: chain.order.len(),
                expected: reqs.len(),
            });
        }
        chain.by_id = reqs.iter().map(|&pos| self.queued_by[pos]).collect();
        Ok(QueuingOrder {
            chain: Arc::new(chain),
        })
    }
}

/// Assemble and validate the queuing order of every object touched by `schedule`,
/// each against the object's own requests — the one per-object validation contract
/// shared by the simulator harness ([`crate::run::outcome_from_records`]), the
/// thread runtime's `LiveReport` and the socket runtime's `NetReport`, so the tiers
/// cannot drift on what "a valid run" means. Objects are validated in ascending
/// order and the first failure is returned, carrying the offending object alongside
/// the [`OrderError`]. One pass partitions requests and records by object; the
/// chains are then validated on shared index arrays.
pub fn per_object_orders(
    records: &[OrderRecord],
    schedule: &RequestSchedule,
) -> Result<Vec<(ObjectId, QueuingOrder)>, (ObjectId, OrderError)> {
    let objects = schedule.objects();
    let group = |obj: ObjectId| objects.binary_search(&obj).ok();
    let requests = schedule.requests();
    let mut reqs_of = vec![Vec::new(); objects.len()];
    for pos in schedule.positions_by_id() {
        let g = group(requests[pos].obj).expect("objects() lists every request's object");
        reqs_of[g].push(pos);
    }
    // Records of an object nobody requested belong to no chain.
    let mut recs_of = vec![Vec::new(); objects.len()];
    for (i, rec) in records.iter().enumerate() {
        if let Some(g) = group(rec.obj) {
            recs_of[g].push(i);
        }
    }
    let mut assembly = Assembly::new(records, schedule);
    let mut orders = Vec::with_capacity(objects.len());
    for ((&obj, reqs), recs) in objects.iter().zip(&reqs_of).zip(&recs_of) {
        let order = assembly
            .chain(reqs, recs.iter().copied(), |r| r.obj == obj)
            .map_err(|e| (obj, e))?;
        orders.push((obj, order));
    }
    Ok(orders)
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
    let mut groups: HashMap<(ObjectId, u64), Vec<&OrderRecord>> = HashMap::new();
    for rec in records {
        groups.entry((rec.obj, rec.epoch)).or_default().push(rec);
    }
    for (&(obj, epoch), group) in &groups {
        let mut succ_of: HashMap<RequestId, RequestId> = HashMap::new();
        let mut seen_succ: std::collections::HashSet<RequestId> = Default::default();
        for rec in group {
            if !seen_succ.insert(rec.successor) {
                return Err(ChurnOrderError::DuplicateSuccessor {
                    obj,
                    epoch,
                    req: rec.successor,
                });
            }
            if succ_of.insert(rec.predecessor, rec.successor).is_some() {
                return Err(ChurnOrderError::DuplicatePredecessor {
                    obj,
                    epoch,
                    req: rec.predecessor,
                });
            }
        }
        if epoch == final_epoch {
            let mut reached = 0;
            let mut cur = RequestId::ROOT;
            while let Some(&next) = succ_of.get(&cur) {
                reached += 1;
                cur = next;
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
    use desim::SimTime;

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
            let got = per_object_orders(&records, &schedule).map(|orders| {
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
}
