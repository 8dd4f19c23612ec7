//! Fault schedules shared by the execution tiers.
//!
//! A [`FaultSchedule`] is a seeded, tick-indexed list of [`FaultAction`]s — node
//! crashes/restarts and link drops/restores — that the simulator and the reactor
//! runtime both consume, each mapping the abstract tick to its own
//! clock ([`FaultSchedule::events_for_sim`] for the simulator; the live tiers pace
//! ticks on the wall clock). Keeping the schedule tier-agnostic is what lets the
//! conformance harness replay the *same* churn scenario on all tiers and compare
//! outcomes.
//!
//! # Recovery model
//!
//! The directory recovers from every fault through **epoch bumps** anchored at the
//! tree root (which a valid schedule never crashes): each fault event is eventually
//! followed by a detection signal that advances the global epoch by one, resetting
//! every node's link pointers to the initial tree orientation, regenerating the
//! object tokens at the root, and re-issuing all still-pending requests under their
//! original request ids. Messages carry their sender's epoch; stale-epoch traffic
//! (including tokens held by restarted nodes) is rejected on receipt. The final
//! epoch therefore starts from a clean directory with only surviving requests in
//! flight, which is what the churn liveness invariant checks.
//!
//! A valid schedule is **terminally clean**: every crash is later restarted, every
//! dropped link is later restored, and the root is never crashed or partitioned
//! away. [`FaultSchedule::validate`] enforces this; [`FaultSchedule::generate`]
//! only produces such schedules.

use desim::{SimFault, SimRng, SimTime};
use netgraph::{NodeId, RootedTree};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// One fault primitive, applied to the running system at a schedule tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Kill a node: its event loop stops, its inbox/outbox are silenced, its
    /// volatile protocol state is lost. Never the tree root.
    CrashNode(NodeId),
    /// Bring a previously crashed node back with freshly reset protocol state; it
    /// re-attaches to the tree at the next epoch bump.
    RestartNode(NodeId),
    /// Sever the (undirected) link between two nodes: in-flight and future traffic
    /// on it is dropped in both directions.
    DropLink(NodeId, NodeId),
    /// Restore a previously dropped link.
    RestoreLink(NodeId, NodeId),
    /// Partition the spanning tree by cutting the edge between a node and its tree
    /// parent (lowered to [`FaultAction::DropLink`] once a tree is known). Never
    /// the root.
    PartitionTree(NodeId),
}

impl FaultAction {
    /// The undirected link this action targets, normalized `(min, max)`, if any.
    fn link(&self) -> Option<(NodeId, NodeId)> {
        match *self {
            FaultAction::DropLink(u, v) | FaultAction::RestoreLink(u, v) => {
                Some((u.min(v), u.max(v)))
            }
            _ => None,
        }
    }
}

/// A [`FaultAction`] scheduled at an abstract tick.
///
/// Ticks are dimensionless: the simulator reads tick `t` as `t` time units, the
/// live tiers pace ticks in wall-clock milliseconds. Only the relative order and
/// spacing matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Schedule tick at which the action fires.
    pub at: u64,
    /// What happens.
    pub action: FaultAction,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.action {
            FaultAction::CrashNode(v) => write!(f, "{} crash {v}", self.at),
            FaultAction::RestartNode(v) => write!(f, "{} restart {v}", self.at),
            FaultAction::DropLink(u, v) => write!(f, "{} drop {u} {v}", self.at),
            FaultAction::RestoreLink(u, v) => write!(f, "{} restore {u} {v}", self.at),
            FaultAction::PartitionTree(v) => write!(f, "{} partition {v}", self.at),
        }
    }
}

impl FromStr for FaultEvent {
    type Err = String;

    /// Parses the textual form produced by [`fmt::Display`]:
    /// `<at> crash|restart|partition <node>` or `<at> drop|restore <u> <v>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split_whitespace();
        let at: u64 = parts
            .next()
            .ok_or("empty fault event")?
            .parse()
            .map_err(|e| format!("bad fault tick: {e}"))?;
        let verb = parts.next().ok_or("fault event missing verb")?;
        let mut node = |what: &str| -> Result<NodeId, String> {
            parts
                .next()
                .ok_or_else(|| format!("fault event missing {what}"))?
                .parse()
                .map_err(|e| format!("bad fault {what}: {e}"))
        };
        let action = match verb {
            "crash" => FaultAction::CrashNode(node("node")?),
            "restart" => FaultAction::RestartNode(node("node")?),
            "partition" => FaultAction::PartitionTree(node("node")?),
            "drop" => FaultAction::DropLink(node("node u")?, node("node v")?),
            "restore" => FaultAction::RestoreLink(node("node u")?, node("node v")?),
            other => return Err(format!("unknown fault verb {other:?}")),
        };
        Ok(FaultEvent { at, action })
    }
}

/// A tick-ordered list of fault events injected into a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The events, sorted by tick (construction sorts them).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (a fault-free run).
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Build a schedule from events, sorting them by tick (stable, so same-tick
    /// events keep their given order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// Number of fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the schedule injects no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The epoch the system converges to: every fault event is followed by one
    /// detection-driven epoch bump, so a run ends at epoch `len()` (0 = fault-free).
    pub fn final_epoch(&self) -> u64 {
        self.events.len() as u64
    }

    /// The schedule with every [`FaultAction::PartitionTree`] lowered to the
    /// concrete tree edge it cuts (`DropLink(v, parent(v))`).
    ///
    /// # Panics
    /// If a partitioned node is the tree root (it has no parent edge).
    pub fn lowered(&self, tree: &RootedTree) -> FaultSchedule {
        let events = self
            .events
            .iter()
            .map(|&e| match e.action {
                FaultAction::PartitionTree(v) => FaultEvent {
                    at: e.at,
                    action: FaultAction::DropLink(
                        v,
                        tree.parent(v).expect("cannot partition the tree root away"),
                    ),
                },
                _ => e,
            })
            .collect();
        FaultSchedule { events }
    }

    /// Check the schedule against a tree: nodes in range, root never crashed or
    /// partitioned, per-node crash/restart strictly alternating and ending
    /// restarted, per-link drop/restore strictly alternating and ending restored
    /// (so the terminal state is clean and the final epoch can drain).
    pub fn validate(&self, tree: &RootedTree) -> Result<(), String> {
        let n = tree.node_count();
        let root = tree.root();
        let in_range = |v: NodeId| -> Result<(), String> {
            if v < n {
                Ok(())
            } else {
                Err(format!("fault targets node {v} but the tree has {n} nodes"))
            }
        };
        if self.events.windows(2).any(|w| w[0].at > w[1].at) {
            return Err("fault events are not sorted by tick".into());
        }
        let mut down: HashMap<NodeId, bool> = HashMap::new();
        let mut dropped: HashMap<(NodeId, NodeId), bool> = HashMap::new();
        for ev in &self.events {
            match ev.action {
                FaultAction::CrashNode(v) => {
                    in_range(v)?;
                    if v == root {
                        return Err(format!("schedule crashes the tree root {root}"));
                    }
                    if std::mem::replace(down.entry(v).or_insert(false), true) {
                        return Err(format!("node {v} crashed twice without a restart"));
                    }
                }
                FaultAction::RestartNode(v) => {
                    in_range(v)?;
                    if !std::mem::replace(down.entry(v).or_insert(false), false) {
                        return Err(format!("node {v} restarted without a prior crash"));
                    }
                }
                FaultAction::PartitionTree(v) => {
                    in_range(v)?;
                    if v == root {
                        return Err(format!("schedule partitions the tree root {root}"));
                    }
                    // A partition is a drop of the parent edge: feed it into the
                    // same alternation history its paired restore will check.
                    let p = tree.parent(v).expect("non-root node has a parent");
                    let link = (v.min(p), v.max(p));
                    if std::mem::replace(dropped.entry(link).or_insert(false), true) {
                        return Err(format!("link {link:?} dropped twice without a restore"));
                    }
                }
                _ => {}
            }
            if let Some(link) = ev.action.link() {
                in_range(link.0)?;
                in_range(link.1)?;
                let state = dropped.entry(link).or_insert(false);
                match ev.action {
                    FaultAction::DropLink(..) => {
                        if std::mem::replace(state, true) {
                            return Err(format!("link {link:?} dropped twice without a restore"));
                        }
                    }
                    FaultAction::RestoreLink(..) => {
                        if !std::mem::replace(state, false) {
                            return Err(format!("link {link:?} restored without a prior drop"));
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
        if let Some((&v, _)) = down.iter().find(|(_, &d)| d) {
            return Err(format!(
                "node {v} is still crashed at the end of the schedule"
            ));
        }
        if let Some((&l, _)) = dropped.iter().find(|(_, &d)| d) {
            return Err(format!(
                "link {l:?} is still dropped at the end of the schedule"
            ));
        }
        Ok(())
    }

    /// Generate a seeded, always-valid schedule for the given tree: one to
    /// `max_episodes` fault episodes, each either a crash/restart of a random
    /// non-root node or a drop/restore of a random tree edge (sometimes expressed
    /// as a [`FaultAction::PartitionTree`]); episodes get disjoint tick windows per
    /// target so alternation always holds.
    ///
    /// Returns an empty schedule for a single-node tree (nothing to fault).
    pub fn generate(seed: u64, tree: &RootedTree, max_episodes: usize) -> FaultSchedule {
        let n = tree.node_count();
        if n < 2 || max_episodes == 0 {
            return FaultSchedule::none();
        }
        let mut rng = SimRng::new(seed ^ 0xFA17_5EED);
        let episodes = 1 + rng.index(max_episodes);
        // Non-root nodes, shuffled: distinct targets per episode keep per-node and
        // per-link histories trivially alternating.
        let mut targets: Vec<NodeId> = (0..n).filter(|&v| v != tree.root()).collect();
        rng.shuffle(&mut targets);
        let mut events = Vec::new();
        let mut tick = 2 + rng.uniform_u64(0, 2);
        for &v in targets.iter().take(episodes) {
            let hold = 2 + rng.uniform_u64(0, 3);
            let (start, end) = match rng.index(3) {
                0 => (FaultAction::CrashNode(v), FaultAction::RestartNode(v)),
                1 => {
                    let p = tree.parent(v).expect("non-root node has a parent");
                    (FaultAction::DropLink(v, p), FaultAction::RestoreLink(v, p))
                }
                _ => {
                    let p = tree.parent(v).expect("non-root node has a parent");
                    (
                        FaultAction::PartitionTree(v),
                        FaultAction::RestoreLink(v, p),
                    )
                }
            };
            events.push(FaultEvent {
                at: tick,
                action: start,
            });
            events.push(FaultEvent {
                at: tick + hold,
                action: end,
            });
            // The next episode may overlap this one's hold window (different target).
            tick += 1 + rng.uniform_u64(0, hold);
        }
        let schedule = FaultSchedule::new(events);
        debug_assert!(schedule.validate(tree).is_ok());
        schedule
    }

    /// Lower the schedule to simulator faults: tick `t` becomes `t` time units,
    /// crashes/restarts map to inbox/outbox silencing, link drops block the edge.
    pub fn events_for_sim(&self, tree: &RootedTree) -> Vec<(SimTime, SimFault)> {
        self.lowered(tree)
            .events
            .iter()
            .map(|&e| {
                let fault = match e.action {
                    FaultAction::CrashNode(v) => SimFault::Crash(v),
                    FaultAction::RestartNode(v) => SimFault::Restart(v),
                    FaultAction::DropLink(u, v) => SimFault::BlockLink(u, v),
                    FaultAction::RestoreLink(u, v) => SimFault::UnblockLink(u, v),
                    FaultAction::PartitionTree(_) => unreachable!("lowered above"),
                };
                (SimTime::from_units(e.at), fault)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    fn tree(n: usize) -> RootedTree {
        RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
    }

    fn ev(at: u64, action: FaultAction) -> FaultEvent {
        FaultEvent { at, action }
    }

    #[test]
    fn generated_schedules_are_valid_and_seed_deterministic() {
        let t = tree(9);
        for seed in 0..64 {
            let s = FaultSchedule::generate(seed, &t, 3);
            s.validate(&t)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(s, FaultSchedule::generate(seed, &t, 3));
            assert!(!s.is_empty());
        }
        assert_ne!(
            FaultSchedule::generate(1, &t, 3),
            FaultSchedule::generate(2, &t, 3)
        );
    }

    #[test]
    fn single_node_tree_generates_no_faults() {
        assert!(FaultSchedule::generate(7, &tree(1), 3).is_empty());
    }

    #[test]
    fn validation_rejects_root_crash_and_unbalanced_histories() {
        let t = tree(5);
        let root_crash = FaultSchedule::new(vec![
            ev(1, FaultAction::CrashNode(0)),
            ev(2, FaultAction::RestartNode(0)),
        ]);
        assert!(root_crash.validate(&t).unwrap_err().contains("root"));

        let unrestarted = FaultSchedule::new(vec![ev(1, FaultAction::CrashNode(3))]);
        assert!(unrestarted
            .validate(&t)
            .unwrap_err()
            .contains("still crashed"));

        let double_drop = FaultSchedule::new(vec![
            ev(1, FaultAction::DropLink(1, 0)),
            ev(2, FaultAction::DropLink(0, 1)),
        ]);
        assert!(double_drop.validate(&t).unwrap_err().contains("twice"));

        let stray_restart = FaultSchedule::new(vec![ev(1, FaultAction::RestartNode(2))]);
        assert!(stray_restart
            .validate(&t)
            .unwrap_err()
            .contains("without a prior crash"));
    }

    #[test]
    fn partition_lowers_to_the_parent_edge() {
        let t = tree(7);
        let s = FaultSchedule::new(vec![
            ev(1, FaultAction::PartitionTree(5)),
            ev(4, FaultAction::RestoreLink(5, t.parent(5).unwrap())),
        ]);
        s.validate(&t).expect("partition pairs with restore");
        let lowered = s.lowered(&t);
        assert_eq!(
            lowered.events[0].action,
            FaultAction::DropLink(5, t.parent(5).unwrap())
        );
        let sim = s.events_for_sim(&t);
        assert_eq!(sim.len(), 2);
        assert_eq!(sim[0].0, SimTime::from_units(1));
        assert!(matches!(sim[0].1, SimFault::BlockLink(..)));
    }

    #[test]
    fn fault_events_round_trip_through_text() {
        let t = tree(6);
        let s = FaultSchedule::generate(11, &t, 3);
        for e in &s.events {
            let text = e.to_string();
            let parsed: FaultEvent = text.parse().expect("round trip");
            assert_eq!(parsed, *e, "through {text:?}");
        }
        assert!("5 explode 3".parse::<FaultEvent>().is_err());
        assert!("notanumber crash 3".parse::<FaultEvent>().is_err());
        assert!("5 drop 1".parse::<FaultEvent>().is_err());
    }

    #[test]
    fn final_epoch_counts_events() {
        assert_eq!(FaultSchedule::none().final_epoch(), 0);
        let s = FaultSchedule::new(vec![
            ev(1, FaultAction::CrashNode(2)),
            ev(3, FaultAction::RestartNode(2)),
        ]);
        assert_eq!(s.final_epoch(), 2);
    }
}
