//! Distributed mutual exclusion on top of the reactor runtime.
//!
//! This is the application the arrow protocol was invented for (Raymond '89): the
//! distributed queue orders the lock requests, and the exclusion token travels from
//! each request to its successor. [`DistributedLock`] gives a scoped-guard API;
//! [`CriticalSectionLog`] records entry/exit timestamps so tests and examples can
//! verify that no two critical sections ever overlap.

use crate::runtime::NetHandle;
use arrow_core::prelude::RequestId;
use netgraph::NodeId;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

/// One completed critical section.
#[derive(Debug, Clone, Copy)]
pub struct SectionRecord {
    /// Node that held the lock.
    pub node: NodeId,
    /// The queuing request that granted it.
    pub request: RequestId,
    /// Entry time.
    pub entered: Instant,
    /// Exit time.
    pub exited: Instant,
}

/// A shared, thread-safe log of critical sections.
#[derive(Debug, Clone, Default)]
pub struct CriticalSectionLog {
    records: Arc<Mutex<Vec<SectionRecord>>>,
}

impl CriticalSectionLog {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the record list, recovering from poisoning: each record is pushed
    /// atomically, so a panic in some other holder cannot leave the Vec
    /// half-updated, and the log must stay readable from panicking tests.
    fn guard(&self) -> std::sync::MutexGuard<'_, Vec<SectionRecord>> {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Record one completed critical section.
    pub fn record(&self, record: SectionRecord) {
        self.guard().push(record);
    }

    /// All records so far.
    pub fn records(&self) -> Vec<SectionRecord> {
        self.guard().clone()
    }

    /// Number of completed critical sections.
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.guard().is_empty()
    }

    /// Check the mutual-exclusion invariant: no two recorded critical sections
    /// overlap in time. Returns the first offending pair if any.
    pub fn find_overlap(&self) -> Option<(SectionRecord, SectionRecord)> {
        let mut records = self.guard().clone();
        records.sort_by_key(|r| r.entered);
        for w in records.windows(2) {
            if w[1].entered < w[0].exited {
                return Some((w[0], w[1]));
            }
        }
        None
    }
}

/// A distributed lock held by the application at one node.
#[derive(Debug, Clone)]
pub struct DistributedLock {
    handle: NetHandle,
    log: CriticalSectionLog,
}

impl DistributedLock {
    /// Create a lock front-end for the given node handle, recording critical sections
    /// into `log`.
    pub fn new(handle: NetHandle, log: CriticalSectionLog) -> Self {
        DistributedLock { handle, log }
    }

    /// The node this lock front-end belongs to.
    pub fn node(&self) -> NodeId {
        self.handle.node()
    }

    /// Acquire the lock, blocking until this node holds the token. The returned guard
    /// releases the lock when dropped.
    ///
    /// # Panics
    /// If the node cannot be granted (see [`NetHandle::acquire_object`]).
    pub fn lock(&self) -> LockGuard<'_> {
        let request = self.handle.acquire();
        LockGuard {
            lock: self,
            request,
            entered: Instant::now(),
        }
    }

    /// Run a closure inside the critical section.
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.lock();
        f()
    }
}

/// Guard proving the holder is inside the critical section; releases on drop.
#[derive(Debug)]
pub struct LockGuard<'a> {
    lock: &'a DistributedLock,
    request: RequestId,
    entered: Instant,
}

impl LockGuard<'_> {
    /// The queuing request backing this acquisition.
    pub fn request(&self) -> RequestId {
        self.request
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        let exited = Instant::now();
        self.lock.log.record(SectionRecord {
            node: self.lock.node(),
            request: self.request,
            entered: self.entered,
            exited,
        });
        self.lock.handle.release(self.request);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, NetRuntime};
    use netgraph::{generators, RootedTree};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn runtime(n: usize) -> NetRuntime {
        let tree = RootedTree::from_tree_graph(&generators::balanced_binary_tree(n), 0);
        NetRuntime::spawn(&tree, NetConfig::instant())
    }

    #[test]
    fn lock_guard_records_a_section() {
        let rt = runtime(3);
        let log = CriticalSectionLog::new();
        let lock = DistributedLock::new(rt.handle(2), log.clone());
        {
            let guard = lock.lock();
            assert!(!guard.request().is_root());
        }
        assert_eq!(log.len(), 1);
        assert!(log.find_overlap().is_none());
        rt.shutdown();
    }

    #[test]
    fn mutual_exclusion_holds_under_contention() {
        let n = 8;
        let rt = Arc::new(runtime(n));
        let log = CriticalSectionLog::new();
        let counter = Arc::new(AtomicU64::new(0));
        let mut unsafe_counter = Arc::new(Mutex::new(0u64));

        let mut joins = Vec::new();
        for v in 0..n {
            let lock = DistributedLock::new(rt.handle(v), log.clone());
            let counter = Arc::clone(&counter);
            let unsafe_counter = Arc::clone(&unsafe_counter);
            joins.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    lock.with(|| {
                        // A read-modify-write that is only correct under mutual exclusion.
                        let mut guard = unsafe_counter.lock().unwrap();
                        let v = *guard;
                        std::thread::yield_now();
                        *guard = v + 1;
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), (n as u64) * 20);
        assert_eq!(
            *Arc::get_mut(&mut unsafe_counter)
                .unwrap()
                .get_mut()
                .unwrap(),
            (n as u64) * 20
        );
        assert_eq!(log.len(), n * 20);
        assert!(
            log.find_overlap().is_none(),
            "two critical sections overlapped"
        );
        let report = Arc::try_unwrap(rt).ok().unwrap().shutdown();
        let orders = report.validated_orders().expect("one valid queue");
        assert_eq!(orders[0].1.len(), n * 20);
    }

    #[test]
    fn with_returns_the_closure_result() {
        let rt = runtime(3);
        let log = CriticalSectionLog::new();
        let lock = DistributedLock::new(rt.handle(1), log.clone());
        let result = lock.with(|| 21 * 2);
        assert_eq!(result, 42);
        assert_eq!(log.len(), 1);
        rt.shutdown();
    }
}
