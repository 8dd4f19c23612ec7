//! The one live replay client — acquire a token, hold it, release it, as
//! every live driver does: the conformance drivers and churn tier, `arrowd`'s
//! workers and the fault tests.
//!
//! [`Client::acquire`] acquires within a deadline; on a miss it calls the
//! recovery nudge, backs off `BACKOFF` and retries within an attempt budget,
//! then gives up with the last miss: [`RunError::GrantTimeout`] for a starved
//! acquire, [`RunError::Transport`] for a failed node. [`Client::spawn`] runs
//! `(node, object, count)` sequences on worker threads. [`inject`] is the one
//! home of the timeout-as-detection rule: a grant lost after injection has
//! finished is re-issued by no later bump, so once injection is over a miss
//! re-broadcasts the final epoch.

use crate::mesh::NetConfig;
use crate::runtime::{NetFailure, NetFaultHandle, NetHandle, NetRuntime};
use crate::socket::{Listener, PeerAddr};
use arrow_core::prelude::{ObjectId, RequestId, RunError};
use netgraph::{NodeId, RootedTree};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The pause between a missed attempt and the next one.
const BACKOFF: Duration = Duration::from_millis(10);

/// How an acquire is tried, and how a miss is answered.
#[derive(Clone)]
pub struct Client {
    timeout: Duration,
    attempts: u32,
    nudge: Arc<dyn Fn() + Send + Sync>,
    stop: Arc<AtomicBool>,
}

impl Client {
    /// Wait `timeout` per attempt; try an acquire `attempts` times (≥ 1).
    pub fn new(timeout: Duration, attempts: u32) -> Client {
        Client {
            timeout,
            attempts: attempts.max(1),
            nudge: Arc::new(|| {}),
            stop: Arc::default(),
        }
    }

    /// Call `nudge` after each miss that will be retried (see [`inject`]).
    pub fn with_nudge(self, nudge: impl Fn() + Send + Sync + 'static) -> Client {
        let nudge = Arc::new(nudge);
        Client { nudge, ..self }
    }

    /// Once `stop` is set, retry nothing and start no acquire; one in flight
    /// resolves within its deadline.
    pub fn with_stop(self, stop: Arc<AtomicBool>) -> Client {
        Client { stop, ..self }
    }

    /// Acquire `obj` at `h`'s node; the last miss comes back once the attempt
    /// budget is spent.
    pub fn acquire(&self, h: &NetHandle, obj: ObjectId) -> Result<RequestId, RunError> {
        let mut attempt = 1;
        loop {
            match h.try_acquire_object_timeout(obj, self.timeout) {
                Err(_) if attempt < self.attempts && !self.stop.load(Ordering::SeqCst) => {
                    (self.nudge)();
                    std::thread::sleep(BACKOFF);
                    attempt += 1;
                }
                granted_or_given_up => return granted_or_given_up,
            }
        }
    }

    /// Run each `(node, object, count)` sequence on a worker thread of its
    /// own through `handle(node)`: `count` acquires in order, each released
    /// once granted. A worker stops at its first acquire that exhausts its
    /// budget, and at the stop flag.
    pub fn spawn(
        &self,
        work: impl IntoIterator<Item = (NodeId, ObjectId, usize)>,
        handle: impl Fn(NodeId) -> NetHandle,
    ) -> Workers {
        let spawn = |(node, obj, count)| {
            let (h, client) = (handle(node), self.clone());
            let worker = std::thread::spawn(move || {
                let mut tally = Tally::default();
                for _ in 0..count {
                    if client.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match client.acquire(&h, obj) {
                        Ok(req) => h.release_object(obj, req),
                        Err(e) => {
                            tally.failures.push((obj, e));
                            break;
                        }
                    }
                    tally.completed += 1;
                }
                tally
            });
            (node, obj, worker)
        };
        Workers(work.into_iter().map(spawn).collect())
    }
}

/// The worker threads of one [`Client::spawn`].
pub struct Workers(Vec<(NodeId, ObjectId, JoinHandle<Tally>)>);

impl Workers {
    /// Wait for every worker and sum their tallies; a panicked worker counts
    /// as one failed acquire.
    pub fn join(self) -> Tally {
        let mut total = Tally::default();
        for (node, obj, worker) in self.0 {
            let mut tally = worker.join().unwrap_or_else(|_| {
                let description = "a replay worker panicked".to_string();
                let failures = vec![(obj, RunError::Transport { node, description })];
                Tally {
                    completed: 0,
                    failures,
                }
            });
            total.completed += tally.completed;
            total.failures.append(&mut tally.failures);
        }
        total
    }
}

/// What a pool of workers did.
#[derive(Debug, Default, PartialEq)]
pub struct Tally {
    /// Acquires granted and released.
    pub completed: u64,
    /// The acquires that exhausted their budget, in work order: each one's
    /// object and last miss.
    pub failures: Vec<(ObjectId, RunError)>,
}

/// Run `inject` against `faults` on a thread of its own; return the thread
/// and the recovery nudge for a [`Client`], which re-broadcasts
/// `final_epoch` on a miss once `inject` has returned (before, the bump that
/// follows each fault heals).
pub fn inject(
    faults: NetFaultHandle,
    final_epoch: u64,
    inject: impl FnOnce(&NetFaultHandle) + Send + 'static,
) -> (JoinHandle<()>, impl Fn() + Send + Sync + 'static) {
    let done = Arc::new(AtomicBool::new(false));
    let (fh, flag) = (faults.clone(), Arc::clone(&done));
    let injector = std::thread::spawn(move || {
        inject(&fh);
        flag.store(true, Ordering::SeqCst);
    });
    let nudge = move || {
        if done.load(Ordering::SeqCst) {
            faults.broadcast_epoch(final_epoch);
        }
    };
    (injector, nudge)
}

/// One daemon-mode runtime per node of `tree`, each on a listener from
/// `bind` ([`Listener::loopback`] for TCP, [`Listener::autobind`] for an
/// abstract Unix-domain socket) and given every listener's address: an
/// `arrowd` cluster in one process. `edit(v, table)` may change node `v`'s
/// table (to name a refused peer).
pub fn daemon_mesh(
    tree: &RootedTree,
    objects: usize,
    cfg: NetConfig,
    bind: fn() -> std::io::Result<Listener>,
    edit: impl Fn(NodeId, &mut Vec<PeerAddr>),
) -> Result<Vec<NetRuntime>, NetFailure> {
    let (mut listeners, mut addrs) = (Vec::new(), Vec::new());
    for node in 0..tree.node_count() {
        let failed = |e: std::io::Error| NetFailure {
            node,
            description: format!("binding a listener: {e}"),
        };
        let listener = bind().map_err(failed)?;
        addrs.push(listener.local_addr().map_err(failed)?);
        listeners.push(listener);
    }
    let spawn = |(v, listener)| {
        let mut table = addrs.clone();
        edit(v, &mut table);
        NetRuntime::spawn_daemon(tree, objects, cfg, v, listener, table, 0)
    };
    Ok(listeners.into_iter().enumerate().map(spawn).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrow_trace::Metric;
    use netgraph::generators;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;

    fn tree(n: usize) -> RootedTree {
        RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0)
    }

    #[test]
    fn the_kernel_tells_a_starved_acquire_from_a_transport_failure() {
        let rt = NetRuntime::spawn_multi(&tree(3), 2, NetConfig::instant());
        let fh = rt.fault_handle();
        let root = rt.handle(0);
        let held = root.acquire_object(ObjectId(1));
        let nudges = Arc::new(AtomicUsize::new(0));
        let client = {
            let nudges = Arc::clone(&nudges);
            Client::new(Duration::from_millis(20), 3).with_nudge(move || {
                nudges.fetch_add(1, Ordering::SeqCst);
            })
        };

        let starved = client.acquire(&rt.handle(1), ObjectId(1)).unwrap_err();
        let expected = RunError::GrantTimeout {
            node: 1,
            obj: ObjectId(1),
            waited_ms: 20,
        };
        assert_eq!(starved, expected);
        assert_eq!(nudges.load(Ordering::SeqCst), 2, "a nudge between attempts");

        fh.crash(2);
        let refused = client.acquire(&rt.handle(2), ObjectId(0)).unwrap_err();
        assert!(
            matches!(&refused, RunError::Transport { node: 2, description }
                if description.contains("crashed")),
            "{refused:?}"
        );

        fh.restart(2);
        root.release_object(ObjectId(1), held);
        rt.shutdown();
    }

    #[test]
    fn the_pool_tallies_and_a_worker_stops_at_its_first_exhausted_acquire() {
        let rt = NetRuntime::spawn_multi(&tree(3), 2, NetConfig::instant());
        let root = rt.handle(0);
        let held = root.acquire_object(ObjectId(0));
        let client = Client::new(Duration::from_millis(20), 1);
        let work = [
            (1, ObjectId(0), 3),
            (2, ObjectId(1), 2),
            (1, ObjectId(1), 1),
        ];
        let tally = client.spawn(work, |v| rt.handle(v)).join();
        assert_eq!(tally.completed, 3, "{tally:?}");
        let [(obj, starved)] = &tally.failures[..] else {
            panic!("one acquire starved: {tally:?}");
        };
        assert_eq!(*obj, ObjectId(0));
        assert!(matches!(starved, RunError::GrantTimeout { node: 1, .. }));
        root.release_object(ObjectId(0), held);

        let stop = Arc::new(AtomicBool::new(true));
        let stopped = client.with_stop(stop).spawn(work, |v| rt.handle(v)).join();
        assert_eq!(stopped, Tally::default(), "a stopped pool starts nothing");
        assert_eq!(rt.shutdown().stats().acquisitions, 4);
    }

    #[test]
    fn the_injector_nudges_recovery_only_once_injection_is_over() {
        let rt = NetRuntime::spawn_multi(&tree(3), 1, NetConfig::instant());
        let (go, wait) = channel::<()>();
        let (injector, nudge) = inject(rt.fault_handle(), 2, move |fh| {
            let _ = wait.recv();
            fh.broadcast_epoch(1);
        });
        nudge();
        go.send(()).unwrap();
        injector.join().unwrap();
        nudge();
        // Every node adopts epoch 1, then epoch 2. Had the first nudge
        // broadcast epoch 2, epoch 1 would have come stale.
        let adopted = rt.shutdown().metrics().get(Metric::EpochsAdopted);
        assert_eq!(adopted, 6);
    }
}
