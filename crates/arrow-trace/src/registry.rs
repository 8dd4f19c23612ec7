//! The lock-free per-node metrics registry.
//!
//! One shared schema for every execution tier: a fixed enum of counters
//! ([`Metric`]) backed by an array of relaxed atomics, plus log-bucketed
//! atomic histograms ([`HistMetric`]) for latency-shaped quantities (timer
//! dwell, acquire latency, write batch sizes). The reactor runtime's
//! `NetStats` holds one registry per reactor shard instead of ad-hoc
//! `AtomicU64` fields, and sums them on read, so snapshots from different
//! runtimes — one in-process mesh, or one per `arrowd` process — diff and merge
//! against each other.
//!
//! A registry is written one of two ways:
//!
//! * **Shared:** [`MetricsRegistry::inc`] and friends, one `fetch_add` per
//!   observation, from any number of threads.
//! * **Single writer:** [`MetricsWriter`] is the one handle that may write its
//!   registry, and it writes with a relaxed load and store — no locked
//!   instruction. Readers get a [`MetricsReader`], which can only read, so no
//!   `fetch_add` can race the writer's store and lose a count. A reactor shard
//!   owns one and writes it under its shard lock.
//!
//! Reads are consistent enough: a [`MetricsSnapshot`] taken while writers run
//! may tear *across* metrics but never within one, which is the usual contract
//! for monitoring counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every counter the tiers share. The discriminant indexes the registry's
/// atomic array; names are the wire/JSON schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Arrow `queue()` frames/messages sent between distinct nodes.
    QueueFrames,
    /// Token grant frames/messages sent between distinct nodes.
    TokenFrames,
    /// Every frame written to a socket, handshakes and goodbyes included.
    FramesSent,
    /// Total bytes written to sockets (wire encoding, length prefixes included).
    BytesSent,
    /// Total bytes read off sockets (batched readers + handshake reads).
    BytesReceived,
    /// `write` syscalls issued by the node writers.
    SocketWrites,
    /// `read` syscalls that returned data.
    SocketReads,
    /// Connections dialed.
    ConnectionsDialed,
    /// Connections accepted.
    ConnectionsAccepted,
    /// Acquisitions granted to local applications.
    Acquisitions,
    /// Frames that arrived outside the protocol; should stay zero.
    UnexpectedFrames,
    /// Dials that exhausted their retry budget; should stay zero when healthy.
    DialFailures,
    /// Frames/messages dropped by fault injection or crashed endpoints.
    FramesDropped,
    /// Protocol inputs rejected for carrying a stale recovery epoch.
    StaleEpochDrops,
    /// Queuing requests issued by local applications.
    RequestsIssued,
    /// Recovery epochs adopted (per node-adoption, not per broadcast).
    EpochsAdopted,
    /// Grants self-released on behalf of vanished local waiters.
    OrphanReleases,
    /// Reactor shard `epoll_wait` returns.
    ReactorWakeups,
    /// Socket reads/writes that returned `WouldBlock` and re-armed interest.
    WouldBlockRetries,
    /// Protocol frames a reactor shard delivered in memory because it owns
    /// both endpoints (socket tier; such frames never touch a socket, so they
    /// appear in `QueueFrames`/`TokenFrames` but not in `FramesSent`).
    LocalFrames,
    /// `epoll_wait` calls that failed with an error other than `EINTR`;
    /// should stay zero.
    PollErrors,
    /// Reactor cycles a client thread ran itself because it found the shard
    /// idle, instead of queueing its command and waking the shard thread
    /// (socket tier; such a cycle is not a `ReactorWakeups`).
    InlineCycles,
}

impl Metric {
    /// Every counter, in discriminant order (the snapshot/JSON order).
    pub const ALL: [Metric; 22] = [
        Metric::QueueFrames,
        Metric::TokenFrames,
        Metric::FramesSent,
        Metric::BytesSent,
        Metric::BytesReceived,
        Metric::SocketWrites,
        Metric::SocketReads,
        Metric::ConnectionsDialed,
        Metric::ConnectionsAccepted,
        Metric::Acquisitions,
        Metric::UnexpectedFrames,
        Metric::DialFailures,
        Metric::FramesDropped,
        Metric::StaleEpochDrops,
        Metric::RequestsIssued,
        Metric::EpochsAdopted,
        Metric::OrphanReleases,
        Metric::ReactorWakeups,
        Metric::WouldBlockRetries,
        Metric::LocalFrames,
        Metric::PollErrors,
        Metric::InlineCycles,
    ];

    /// Number of counters.
    pub const COUNT: usize = Metric::ALL.len();

    /// The stable snake_case schema name (JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            Metric::QueueFrames => "queue_frames",
            Metric::TokenFrames => "token_frames",
            Metric::FramesSent => "frames_sent",
            Metric::BytesSent => "bytes_sent",
            Metric::BytesReceived => "bytes_received",
            Metric::SocketWrites => "socket_writes",
            Metric::SocketReads => "socket_reads",
            Metric::ConnectionsDialed => "connections_dialed",
            Metric::ConnectionsAccepted => "connections_accepted",
            Metric::Acquisitions => "acquisitions",
            Metric::UnexpectedFrames => "unexpected_frames",
            Metric::DialFailures => "dial_failures",
            Metric::FramesDropped => "frames_dropped",
            Metric::StaleEpochDrops => "stale_epoch_drops",
            Metric::RequestsIssued => "requests_issued",
            Metric::EpochsAdopted => "epochs_adopted",
            Metric::OrphanReleases => "orphan_releases",
            Metric::ReactorWakeups => "reactor_wakeups",
            Metric::WouldBlockRetries => "would_block_retries",
            Metric::LocalFrames => "local_frames",
            Metric::PollErrors => "poll_errors",
            Metric::InlineCycles => "inline_cycles",
        }
    }
}

/// Histogram-shaped metrics: log₂-bucketed distributions of non-negative
/// integer samples (nanoseconds, frame counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistMetric {
    /// Nanoseconds a frame sat in a node writer's timer heap before its flush
    /// deadline fired (socket tier; 0 on instant-latency meshes that bypass
    /// the heap).
    TimerDwellNanos,
    /// Nanoseconds from issuing an acquire to its grant landing (tier-defined
    /// measurement point).
    AcquireNanos,
    /// Frames carried by one coalesced socket `write` call.
    WriteBatchFrames,
    /// Readiness events delivered per reactor shard wakeup (batching factor
    /// of the event loop; socket tier only).
    EventsPerWakeup,
    /// Shard command-inbox depth observed at each drain (backlog between the
    /// handle threads and the owning shard).
    ShardQueueDepth,
}

impl HistMetric {
    /// Every histogram, in discriminant order.
    pub const ALL: [HistMetric; 5] = [
        HistMetric::TimerDwellNanos,
        HistMetric::AcquireNanos,
        HistMetric::WriteBatchFrames,
        HistMetric::EventsPerWakeup,
        HistMetric::ShardQueueDepth,
    ];

    /// Number of histograms.
    pub const COUNT: usize = HistMetric::ALL.len();

    /// The stable snake_case schema name (JSON key).
    pub const fn name(self) -> &'static str {
        match self {
            HistMetric::TimerDwellNanos => "timer_dwell_nanos",
            HistMetric::AcquireNanos => "acquire_nanos",
            HistMetric::WriteBatchFrames => "write_batch_frames",
            HistMetric::EventsPerWakeup => "events_per_wakeup",
            HistMetric::ShardQueueDepth => "shard_queue_depth",
        }
    }
}

/// Buckets per log histogram: bucket `b` holds samples whose value `v`
/// satisfies `bit_length(v) == b` (bucket 0 holds `v == 0`), so bucket `b ≥ 1`
/// spans `[2^(b-1), 2^b)` and 65 buckets cover all of `u64`.
pub const LOG_BUCKETS: usize = 65;

/// The bucket a sample lands in: `bit_length(v)`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// A lock-free log₂ histogram.
#[derive(Debug)]
struct LogHistogram {
    buckets: [AtomicU64; LOG_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl LogHistogram {
    fn new() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// [`observe`](LogHistogram::observe) for the histogram's sole writer.
    #[inline]
    fn observe_single(&self, v: u64) {
        bump(&self.buckets[bucket_of(v)], 1);
        bump(&self.count, 1);
        bump(&self.sum, v);
    }
}

/// Add `n` to a cell nobody else writes: a relaxed load and store, which
/// never takes the cache line's lock the way `fetch_add` does.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// The per-node (or per-runtime) metrics registry: every [`Metric`] counter and
/// every [`HistMetric`] histogram, lock-free.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Metric::COUNT],
    hists: [LogHistogram; HistMetric::COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| LogHistogram::new()),
        }
    }

    /// Add 1 to `m`.
    #[inline]
    pub fn inc(&self, m: Metric) {
        self.add(m, 1);
    }

    /// Add `n` to `m`.
    #[inline]
    pub fn add(&self, m: Metric, n: u64) {
        self.counters[m as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `m`.
    #[inline]
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize].load(Ordering::Relaxed)
    }

    /// Record one sample into histogram `h`.
    #[inline]
    pub fn observe(&self, h: HistMetric, v: u64) {
        self.hists[h as usize].observe(v);
    }

    /// A plain-number snapshot of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            hists: std::array::from_fn(|i| {
                let h = &self.hists[i];
                HistSnapshot {
                    buckets: std::array::from_fn(|b| h.buckets[b].load(Ordering::Relaxed)),
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                }
            }),
        }
    }
}

/// The one handle that may write a registry shared with readers (see the
/// module docs). It is not `Clone` and every write takes `&mut self`, so at
/// most one thread writes at a time and a plain load and store is an exact
/// increment.
#[derive(Debug)]
pub struct MetricsWriter {
    registry: Arc<MetricsRegistry>,
}

/// A read-only view of a registry whose writer is a [`MetricsWriter`].
#[derive(Debug, Clone)]
pub struct MetricsReader {
    registry: Arc<MetricsRegistry>,
}

impl MetricsWriter {
    /// A zeroed registry: its sole writer and a first reader.
    pub fn new() -> (MetricsWriter, MetricsReader) {
        let registry = Arc::new(MetricsRegistry::new());
        let reader = MetricsReader {
            registry: Arc::clone(&registry),
        };
        (MetricsWriter { registry }, reader)
    }

    /// Add 1 to `m`.
    #[inline]
    pub fn inc(&mut self, m: Metric) {
        self.add(m, 1);
    }

    /// Add `n` to `m`.
    #[inline]
    pub fn add(&mut self, m: Metric, n: u64) {
        bump(&self.registry.counters[m as usize], n);
    }

    /// Record one sample into histogram `h`.
    #[inline]
    pub fn observe(&mut self, h: HistMetric, v: u64) {
        self.registry.hists[h as usize].observe_single(v);
    }
}

impl MetricsReader {
    /// A plain-number snapshot of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Frozen histogram numbers (one [`HistMetric`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (`bucket b` spans `[2^(b-1), 2^b)`, bucket 0
    /// holds zeros).
    pub buckets: [u64; LOG_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
}

impl HistSnapshot {
    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the bucket the
    /// q-th sample falls in (an over-estimate by at most 2×, the log-bucket
    /// resolution). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if b == 0 {
                    0
                } else {
                    (1u64 << b).saturating_sub(1)
                });
            }
        }
        None
    }

    /// Mean sample value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A frozen view of a [`MetricsRegistry`]: plain numbers, supporting
/// [`diff`](MetricsSnapshot::diff) (interval deltas) and
/// [`merge`](MetricsSnapshot::merge) (cross-node aggregation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; Metric::COUNT],
    hists: [HistSnapshot; HistMetric::COUNT],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: [0; Metric::COUNT],
            hists: [HistSnapshot {
                buckets: [0; LOG_BUCKETS],
                count: 0,
                sum: 0,
            }; HistMetric::COUNT],
        }
    }
}

impl MetricsSnapshot {
    /// Value of counter `m`.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize]
    }

    /// The frozen histogram `h`.
    pub fn hist(&self, h: HistMetric) -> &HistSnapshot {
        &self.hists[h as usize]
    }

    /// The delta `self - earlier`, saturating at zero (counters are
    /// monotone, so a negative delta means the snapshots were swapped).
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for i in 0..Metric::COUNT {
            out.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        for i in 0..HistMetric::COUNT {
            for b in 0..LOG_BUCKETS {
                out.hists[i].buckets[b] =
                    self.hists[i].buckets[b].saturating_sub(earlier.hists[i].buckets[b]);
            }
            out.hists[i].count = self.hists[i].count.saturating_sub(earlier.hists[i].count);
            out.hists[i].sum = self.hists[i].sum.saturating_sub(earlier.hists[i].sum);
        }
        out
    }

    /// Accumulate `other` into `self` (cross-node aggregation: the run-level
    /// view is the merge of every node's snapshot).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for i in 0..Metric::COUNT {
            self.counters[i] += other.counters[i];
        }
        for i in 0..HistMetric::COUNT {
            for b in 0..LOG_BUCKETS {
                self.hists[i].buckets[b] += other.hists[i].buckets[b];
            }
            self.hists[i].count += other.hists[i].count;
            self.hists[i].sum += other.hists[i].sum;
        }
    }

    /// Render as a small stable JSON object: every counter by schema name,
    /// then every histogram as `{count, sum, p50, p99}` (hand-written — the
    /// offline build has no serde backend).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in Metric::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", m.name(), self.get(*m)));
        }
        for h in HistMetric::ALL {
            let s = self.hist(h);
            out.push_str(&format!(
                ", \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}}}",
                h.name(),
                s.count,
                s.sum,
                s.quantile(0.50).unwrap_or(0),
                s.quantile(0.99).unwrap_or(0)
            ));
        }
        out.push('}');
        out
    }

    /// Render as a compact line-oriented wire text for cross-process transport
    /// (daemon control channels, journal files): one `ctr <name> <value>` line
    /// per non-zero counter, one `hist <name> <count> <sum> <b=c>...` line per
    /// non-empty histogram with sparse `bucket=count` pairs. Zero counters and
    /// empty histograms are omitted — [`from_wire`](MetricsSnapshot::from_wire)
    /// restores them as zero — so the text stays small for quiet nodes.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for m in Metric::ALL {
            let v = self.get(m);
            if v != 0 {
                out.push_str(&format!("ctr {} {v}\n", m.name()));
            }
        }
        for h in HistMetric::ALL {
            let s = self.hist(h);
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!("hist {} {} {}", h.name(), s.count, s.sum));
            for (b, &c) in s.buckets.iter().enumerate() {
                if c != 0 {
                    out.push_str(&format!(" {b}={c}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parse the text produced by [`to_wire`](MetricsSnapshot::to_wire).
    /// Unknown metric names are an error (schema drift between the two ends
    /// must be loud, not silently dropped); blank lines are ignored.
    pub fn from_wire(text: &str) -> Result<MetricsSnapshot, String> {
        let mut snap = MetricsSnapshot::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_ascii_whitespace();
            let kind = parts.next().unwrap_or_default();
            let num = |s: Option<&str>, what: &str| -> Result<u64, String> {
                s.ok_or_else(|| format!("missing {what} in metrics line {line:?}"))?
                    .parse::<u64>()
                    .map_err(|e| format!("bad {what} in metrics line {line:?}: {e}"))
            };
            match kind {
                "ctr" => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("missing counter name in {line:?}"))?;
                    let m = Metric::ALL
                        .iter()
                        .find(|m| m.name() == name)
                        .ok_or_else(|| format!("unknown counter {name:?}"))?;
                    snap.counters[*m as usize] = num(parts.next(), "value")?;
                }
                "hist" => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("missing histogram name in {line:?}"))?;
                    let h = HistMetric::ALL
                        .iter()
                        .find(|h| h.name() == name)
                        .ok_or_else(|| format!("unknown histogram {name:?}"))?;
                    let hs = &mut snap.hists[*h as usize];
                    hs.count = num(parts.next(), "count")?;
                    hs.sum = num(parts.next(), "sum")?;
                    for pair in parts {
                        let (b, c) = pair
                            .split_once('=')
                            .ok_or_else(|| format!("bad bucket pair {pair:?} in {line:?}"))?;
                        let b: usize = b
                            .parse()
                            .map_err(|e| format!("bad bucket index {b:?}: {e}"))?;
                        if b >= LOG_BUCKETS {
                            return Err(format!("bucket index {b} out of range"));
                        }
                        hs.buckets[b] = c
                            .parse()
                            .map_err(|e| format!("bad bucket count {c:?}: {e}"))?;
                    }
                }
                other => return Err(format!("unknown metrics line kind {other:?}")),
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_inc_and_snapshot() {
        let r = MetricsRegistry::new();
        r.inc(Metric::QueueFrames);
        r.add(Metric::BytesSent, 120);
        r.inc(Metric::QueueFrames);
        assert_eq!(r.get(Metric::QueueFrames), 2);
        let snap = r.snapshot();
        assert_eq!(snap.get(Metric::QueueFrames), 2);
        assert_eq!(snap.get(Metric::BytesSent), 120);
        assert_eq!(snap.get(Metric::TokenFrames), 0);
    }

    #[test]
    fn histograms_quantile_and_mean() {
        let r = MetricsRegistry::new();
        for v in [1u64, 2, 3, 100, 1000] {
            r.observe(HistMetric::AcquireNanos, v);
        }
        let snap = r.snapshot();
        let h = snap.hist(HistMetric::AcquireNanos);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1106);
        // p50 is the 3rd sample (value 3, bucket [2,4) → upper bound 3).
        assert_eq!(h.quantile(0.5), Some(3));
        // p99 lands in the 1000 sample's bucket [512, 1024).
        assert_eq!(h.quantile(0.99), Some(1023));
        assert!((h.mean() - 221.2).abs() < 1e-9);
        assert_eq!(snap.hist(HistMetric::TimerDwellNanos).quantile(0.5), None);
    }

    #[test]
    fn diff_is_the_interval_delta() {
        let r = MetricsRegistry::new();
        r.add(Metric::Acquisitions, 5);
        let t0 = r.snapshot();
        r.add(Metric::Acquisitions, 7);
        r.observe(HistMetric::WriteBatchFrames, 4);
        let t1 = r.snapshot();
        let d = t1.diff(&t0);
        assert_eq!(d.get(Metric::Acquisitions), 7);
        assert_eq!(d.hist(HistMetric::WriteBatchFrames).count, 1);
    }

    #[test]
    fn merge_aggregates_nodes() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.inc(Metric::TokenFrames);
        b.add(Metric::TokenFrames, 2);
        a.observe(HistMetric::AcquireNanos, 10);
        b.observe(HistMetric::AcquireNanos, 20);
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.get(Metric::TokenFrames), 3);
        assert_eq!(total.hist(HistMetric::AcquireNanos).count, 2);
        assert_eq!(total.hist(HistMetric::AcquireNanos).sum, 30);
    }

    #[test]
    fn json_has_every_schema_name() {
        let snap = MetricsRegistry::new().snapshot();
        let json = snap.to_json();
        for m in Metric::ALL {
            assert!(json.contains(m.name()), "missing {}", m.name());
        }
        for h in HistMetric::ALL {
            assert!(json.contains(h.name()), "missing {}", h.name());
        }
    }

    #[test]
    fn wire_round_trips_counters_and_histograms() {
        let r = MetricsRegistry::new();
        r.add(Metric::QueueFrames, 42);
        r.add(Metric::BytesSent, u64::MAX);
        for v in [0u64, 1, 7, 100, 1_000_000] {
            r.observe(HistMetric::AcquireNanos, v);
        }
        r.observe(HistMetric::WriteBatchFrames, 3);
        let snap = r.snapshot();
        let wire = snap.to_wire();
        let back = MetricsSnapshot::from_wire(&wire).unwrap();
        assert_eq!(back, snap);
        // The empty snapshot is the empty text.
        let empty = MetricsSnapshot::default();
        assert_eq!(empty.to_wire(), "");
        assert_eq!(MetricsSnapshot::from_wire("").unwrap(), empty);
    }

    #[test]
    fn wire_rejects_schema_drift() {
        assert!(MetricsSnapshot::from_wire("ctr no_such_counter 1").is_err());
        assert!(MetricsSnapshot::from_wire("hist no_such_hist 1 2").is_err());
        assert!(MetricsSnapshot::from_wire("bogus line").is_err());
        assert!(MetricsSnapshot::from_wire("ctr queue_frames").is_err());
        assert!(MetricsSnapshot::from_wire("hist acquire_nanos 1 2 99=1").is_err());
        assert!(MetricsSnapshot::from_wire("hist acquire_nanos 1 2 65=1").is_err());
        assert!(MetricsSnapshot::from_wire("ctr queue_frames -3").is_err());
    }

    #[test]
    fn single_writer_counts_what_its_readers_see() {
        let (mut w, r) = MetricsWriter::new();
        let handle = std::thread::spawn(move || {
            for i in 0..1000 {
                w.inc(Metric::LocalFrames);
                w.observe(HistMetric::AcquireNanos, i);
            }
            w
        });
        let mut w = handle.join().unwrap();
        w.inc(Metric::LocalFrames);
        let snap = r.snapshot();
        assert_eq!(snap.get(Metric::LocalFrames), 1001);
        let h = snap.hist(HistMetric::AcquireNanos);
        assert_eq!((h.count, h.sum), (1000, 999 * 1000 / 2));
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = std::sync::Arc::new(MetricsRegistry::new());
        let joins: Vec<_> = (0..4)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.inc(Metric::FramesSent);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(r.get(Metric::FramesSent), 4000);
    }
}
