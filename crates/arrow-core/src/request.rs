//! Queuing requests and request schedules.
//!
//! In the paper's model (Section 3.1) a queuing request is an ordered pair `(v, t)`:
//! the node `v` where it was issued and the time `t` at which it was issued. A problem
//! instance is a finite set `R` of such requests, indexed in order of non-decreasing
//! issue time. The special "virtual" request `r0 = (root, 0)` represents the initial
//! tail of the queue held by the root.
//!
//! A *directory* deployment (the Demmer–Herlihy setting the paper builds on) serves
//! many mobile objects over one spanning tree, each object with its own independent
//! arrow state and hence its own queue. [`ObjectId`] names the object a request is
//! for; single-object workloads use [`ObjectId::DEFAULT`] throughout and never need
//! to mention it.

use desim::SimTime;
use netgraph::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of a mobile object served by the directory tree.
///
/// Every object has fully independent arrow state (per-object `link`/`id` at every
/// node) and its own total queuing order; objects share only the spanning tree and
/// the physical links. Object `0` is the [`ObjectId::DEFAULT`] used by all
/// single-object APIs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The object implied by all single-object APIs.
    pub const DEFAULT: ObjectId = ObjectId(0);
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Globally unique identifier of a queuing request.
///
/// Id `0` is reserved for the virtual root request `r0`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u64);

impl RequestId {
    /// The virtual root request `r0 = (root, 0)` that heads every queue.
    pub const ROOT: RequestId = RequestId(0);

    /// True if this is the virtual root request.
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_root() {
            write!(f, "r0")
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

/// A queuing request `(v, t)` with a unique id, for one object of the directory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Unique id (never [`RequestId::ROOT`] for real requests). Ids are unique across
    /// the whole schedule, not merely per object.
    pub id: RequestId,
    /// Node at which the request is issued.
    pub node: NodeId,
    /// Time at which the request is issued.
    pub time: SimTime,
    /// The object being requested ([`ObjectId::DEFAULT`] for single-object runs).
    pub obj: ObjectId,
}

/// Request id → position in a schedule's `requests`, without hashing.
#[derive(Debug, Clone)]
enum IdIndex {
    /// The ids are exactly `1..=len` (every generator and the closed loop assign
    /// them so): slot `id - 1` holds the position.
    Dense(Vec<usize>),
    /// Any other id set: `(id, position)` sorted by id, searched by bisection.
    Sparse(Vec<(RequestId, usize)>),
}

impl Default for IdIndex {
    fn default() -> Self {
        IdIndex::Dense(Vec::new())
    }
}

impl IdIndex {
    const UNSET: usize = usize::MAX;

    /// Index `requests` by id; `Err` names an id that occurs twice.
    fn build(requests: &[Request]) -> Result<Self, RequestId> {
        let mut slots = vec![Self::UNSET; requests.len()];
        let dense = requests.iter().enumerate().all(|(pos, r)| {
            let slot = (r.id.0 as usize)
                .checked_sub(1)
                .and_then(|i| slots.get_mut(i))
                .filter(|slot| **slot == Self::UNSET);
            slot.map(|slot| *slot = pos).is_some()
        });
        if dense {
            return Ok(IdIndex::Dense(slots));
        }
        let mut sorted: Vec<(RequestId, usize)> = requests
            .iter()
            .enumerate()
            .map(|(pos, r)| (r.id, pos))
            .collect();
        sorted.sort_unstable();
        match sorted.windows(2).find(|w| w[0].0 == w[1].0) {
            Some(twice) => Err(twice[0].0),
            None => Ok(IdIndex::Sparse(sorted)),
        }
    }
}

/// A finite set of queuing requests, stored in non-decreasing time order
/// (the indexing convention of Section 3.1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RequestSchedule {
    requests: Vec<Request>,
    /// Request id → position in `requests`, built once with the schedule.
    #[serde(skip)]
    index: IdIndex,
}

impl RequestSchedule {
    /// A schedule of requests whose ids are known to be unique.
    fn build(requests: Vec<Request>) -> Self {
        let index = IdIndex::build(&requests).expect("ids are unique by construction");
        RequestSchedule { requests, index }
    }

    /// Build a single-object schedule from `(node, time)` pairs; ids are assigned
    /// `1..=len` in non-decreasing time order and every request is for
    /// [`ObjectId::DEFAULT`].
    pub fn from_pairs(pairs: &[(NodeId, SimTime)]) -> Self {
        let triples: Vec<(NodeId, SimTime, ObjectId)> = pairs
            .iter()
            .map(|&(node, time)| (node, time, ObjectId::DEFAULT))
            .collect();
        RequestSchedule::from_object_pairs(&triples)
    }

    /// Build a multi-object schedule from `(node, time, object)` triples; ids are
    /// assigned `1..=len` in non-decreasing time order, globally across objects.
    pub fn from_object_pairs(triples: &[(NodeId, SimTime, ObjectId)]) -> Self {
        let mut indexed: Vec<(NodeId, SimTime, ObjectId)> = triples.to_vec();
        indexed.sort_by_key(|&(node, time, obj)| (time, node, obj));
        let requests = indexed
            .into_iter()
            .enumerate()
            .map(|(i, (node, time, obj))| Request {
                id: RequestId(i as u64 + 1),
                node,
                time,
                obj,
            })
            .collect();
        RequestSchedule::build(requests)
    }

    /// Build a schedule from explicit requests.
    ///
    /// # Panics
    /// If ids are not unique, any id is the reserved root id, or the requests are not
    /// sorted by non-decreasing time.
    pub fn from_requests(requests: Vec<Request>) -> Self {
        for r in &requests {
            assert!(!r.id.is_root(), "request id 0 is reserved for the root");
        }
        for w in requests.windows(2) {
            assert!(
                w[0].time <= w[1].time,
                "requests must be sorted by non-decreasing time"
            );
        }
        let index = IdIndex::build(&requests)
            .unwrap_or_else(|twice| panic!("duplicate request id {twice:?}"));
        RequestSchedule { requests, index }
    }

    /// The requests in non-decreasing time order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if there are no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Look up a request by id: one array read when the ids are `1..=len`, a
    /// bisection otherwise — for an absent id too.
    pub fn get(&self, id: RequestId) -> Option<&Request> {
        self.position_of(id).map(|pos| &self.requests[pos])
    }

    /// Position of request `id` in [`RequestSchedule::requests`].
    pub(crate) fn position_of(&self, id: RequestId) -> Option<usize> {
        match &self.index {
            IdIndex::Dense(slots) => slots.get((id.0 as usize).checked_sub(1)?).copied(),
            IdIndex::Sparse(sorted) => {
                let at = sorted.binary_search_by_key(&id, |&(id, _)| id).ok()?;
                Some(sorted[at].1)
            }
        }
    }

    /// The positions of all requests in ascending id order.
    pub(crate) fn positions_by_id(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.requests.len()).map(move |rank| match &self.index {
            IdIndex::Dense(slots) => slots[rank],
            IdIndex::Sparse(sorted) => sorted[rank].1,
        })
    }

    /// Largest issue time in the schedule (`SimTime::ZERO` if empty) — the `t_|R|`
    /// appearing in Lemmas 3.10 and 3.16.
    pub fn last_issue_time(&self) -> SimTime {
        self.requests
            .iter()
            .map(|r| r.time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The distinct nodes that issue at least one request.
    pub fn requesting_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.requests.iter().map(|r| r.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The distinct objects requested at least once, in ascending id order.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut objs: Vec<ObjectId> = self.requests.iter().map(|r| r.obj).collect();
        objs.sort_unstable();
        objs.dedup();
        objs
    }

    /// Size of the directory this schedule needs: `max object id + 1` (at least 1,
    /// so an empty schedule still describes a single-object system). This bounds the
    /// per-node state to allocate and can exceed [`RequestSchedule::objects`]`.len()`
    /// when object ids are sparse; the number of objects *touched* is
    /// `objects().len()` (which is also what [`QueuingOutcome::object_count`]
    /// reports after a run).
    ///
    /// [`QueuingOutcome::object_count`]: crate::run::QueuingOutcome::object_count
    pub fn object_id_bound(&self) -> usize {
        self.requests
            .iter()
            .map(|r| r.obj.0 as usize + 1)
            .max()
            .unwrap_or(1)
    }

    /// The sub-schedule of requests for one object (ids and times preserved).
    /// Per-object queuing orders are validated against these sub-schedules.
    pub fn for_object(&self, obj: ObjectId) -> RequestSchedule {
        RequestSchedule::build(
            self.requests
                .iter()
                .filter(|r| r.obj == obj)
                .copied()
                .collect(),
        )
    }

    /// True if no two requests are ever concurrently active given that a request
    /// issued at time `t` completes within `diameter` time units — the *sequential*
    /// setting analysed by Demmer and Herlihy (Section 1.1).
    pub fn is_sequential(&self, diameter: f64) -> bool {
        self.requests.windows(2).all(|w| {
            let gap = (w[1].time - w[0].time).as_units_f64();
            gap >= diameter
        })
    }

    /// Shift every request issued at or after `threshold` earlier by `delta` units —
    /// the time-compression transformation of Lemma 3.11 (used by the analysis tests).
    pub fn shifted_back(&self, threshold: SimTime, delta: f64) -> RequestSchedule {
        let shifted =
            self.requests
                .iter()
                .map(|r| {
                    if r.time >= threshold {
                        Request {
                            time: SimTime::from_subticks(r.time.subticks().saturating_sub(
                                desim::SimDuration::from_units_f64(delta).subticks(),
                            )),
                            ..*r
                        }
                    } else {
                        *r
                    }
                })
                .collect::<Vec<_>>();
        let mut sorted = shifted;
        sorted.sort_by_key(|r| (r.time, r.id));
        RequestSchedule::build(sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_assigned_in_time_order() {
        let s = RequestSchedule::from_pairs(&[
            (3, SimTime::from_units(5)),
            (1, SimTime::from_units(0)),
            (2, SimTime::from_units(2)),
        ]);
        let nodes: Vec<NodeId> = s.requests().iter().map(|r| r.node).collect();
        assert_eq!(nodes, vec![1, 2, 3]);
        let ids: Vec<u64> = s.requests().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(s.last_issue_time(), SimTime::from_units(5));
        assert_eq!(s.requesting_nodes(), vec![1, 2, 3]);
    }

    #[test]
    fn multi_object_schedule_splits_per_object() {
        let s = RequestSchedule::from_object_pairs(&[
            (0, SimTime::from_units(0), ObjectId(1)),
            (1, SimTime::from_units(1), ObjectId(0)),
            (2, SimTime::from_units(2), ObjectId(1)),
            (3, SimTime::from_units(3), ObjectId(3)),
        ]);
        assert_eq!(s.objects(), vec![ObjectId(0), ObjectId(1), ObjectId(3)]);
        assert_eq!(s.object_id_bound(), 4);
        let o1 = s.for_object(ObjectId(1));
        assert_eq!(o1.len(), 2);
        assert!(o1.requests().iter().all(|r| r.obj == ObjectId(1)));
        // Ids are preserved from the parent schedule, so lookups still work.
        for r in o1.requests() {
            assert_eq!(s.get(r.id).unwrap().node, r.node);
        }
        assert!(s.for_object(ObjectId(2)).is_empty());
    }

    #[test]
    fn single_object_pairs_use_the_default_object() {
        let s = RequestSchedule::from_pairs(&[(0, SimTime::ZERO), (1, SimTime::ZERO)]);
        assert!(s.requests().iter().all(|r| r.obj == ObjectId::DEFAULT));
        assert_eq!(s.objects(), vec![ObjectId::DEFAULT]);
        assert_eq!(s.object_id_bound(), 1);
        assert_eq!(ObjectId(5).to_string(), "o5");
    }

    #[test]
    fn root_id_display_and_flags() {
        assert!(RequestId::ROOT.is_root());
        assert!(!RequestId(3).is_root());
        assert_eq!(RequestId::ROOT.to_string(), "r0");
        assert_eq!(RequestId(7).to_string(), "r7");
    }

    #[test]
    fn sequential_detection() {
        let far = RequestSchedule::from_pairs(&[
            (0, SimTime::from_units(0)),
            (1, SimTime::from_units(100)),
            (2, SimTime::from_units(200)),
        ]);
        assert!(far.is_sequential(10.0));
        assert!(!far.is_sequential(150.0));

        let burst = RequestSchedule::from_pairs(&[(0, SimTime::ZERO), (1, SimTime::ZERO)]);
        assert!(!burst.is_sequential(1.0));
    }

    #[test]
    fn shifted_back_compresses_gap() {
        let s = RequestSchedule::from_pairs(&[
            (0, SimTime::from_units(0)),
            (1, SimTime::from_units(100)),
        ]);
        let shifted = s.shifted_back(SimTime::from_units(50), 90.0);
        assert_eq!(shifted.requests()[1].time, SimTime::from_units(10));
        assert_eq!(shifted.requests()[0].time, SimTime::ZERO);
    }

    #[test]
    fn get_by_id() {
        let s = RequestSchedule::from_pairs(&[(4, SimTime::ZERO)]);
        assert_eq!(s.get(RequestId(1)).unwrap().node, 4);
        assert!(s.get(RequestId(9)).is_none());
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn get_of_an_absent_id_is_none_without_a_scan() {
        // 100k misses on a 100k-request schedule: with a scan per miss this is
        // 10^10 comparisons and does not finish in test time.
        const N: u64 = 100_000;
        let requests = |stride: u64| -> Vec<Request> {
            (0..N)
                .map(|i| Request {
                    id: RequestId(1 + i * stride),
                    node: 0,
                    time: SimTime::from_units(i),
                    obj: ObjectId::DEFAULT,
                })
                .collect()
        };
        // Ids 1..=N are indexed directly, ids 1, 4, 7, ... by bisection.
        for stride in [1, 3] {
            let s = RequestSchedule::from_requests(requests(stride));
            for i in 0..N {
                assert!(s.get(RequestId(N * stride + 1 + i)).is_none());
                assert_eq!(
                    s.get(RequestId(1 + i * stride)).unwrap().time.subticks(),
                    SimTime::from_units(i).subticks()
                );
            }
            assert!(s.get(RequestId::ROOT).is_none());
            assert!(s.get(RequestId(u64::MAX)).is_none());
            if stride == 3 {
                assert!(s.get(RequestId(2)).is_none(), "a gap between sparse ids");
            }
        }
    }

    #[test]
    fn ids_out_of_position_order_are_still_found() {
        // The closed loop's ids are 1..=len but interleaved by node, not by time.
        let at = |id: u64, t: u64| Request {
            id: RequestId(id),
            node: id as usize,
            time: SimTime::from_units(t),
            obj: ObjectId::DEFAULT,
        };
        let s = RequestSchedule::from_requests(vec![at(3, 0), at(1, 1), at(2, 2)]);
        for id in 1..=3 {
            assert_eq!(s.get(RequestId(id)).unwrap().node, id as usize);
        }
        assert_eq!(s.positions_by_id().collect::<Vec<_>>(), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn root_id_in_schedule_panics() {
        RequestSchedule::from_requests(vec![Request {
            id: RequestId::ROOT,
            node: 0,
            time: SimTime::ZERO,
            obj: ObjectId::DEFAULT,
        }]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_panic() {
        RequestSchedule::from_requests(vec![
            Request {
                id: RequestId(1),
                node: 0,
                time: SimTime::ZERO,
                obj: ObjectId::DEFAULT,
            },
            Request {
                id: RequestId(1),
                node: 1,
                time: SimTime::ZERO,
                obj: ObjectId::DEFAULT,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_times_panic() {
        RequestSchedule::from_requests(vec![
            Request {
                id: RequestId(1),
                node: 0,
                time: SimTime::from_units(5),
                obj: ObjectId::DEFAULT,
            },
            Request {
                id: RequestId(2),
                node: 1,
                time: SimTime::ZERO,
                obj: ObjectId::DEFAULT,
            },
        ]);
    }
}
