//! The benchmark's own in-memory spans.
//!
//! A traced run wraps every call it makes into a layer in a span — name,
//! start, end, the span that caused it, and the request it belongs to — keeps
//! them all in memory, and writes them out when the workload ends. A span's
//! *self time* is its duration minus the part of it that its children cover,
//! which is what the summary ranks layers by.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = u32;

/// "No parent" / "no request".
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: SpanId,
    /// The request the span belongs to (0 = none); spans of one request share
    /// it.
    pub req: u64,
}

/// Append-only span store with one time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the log's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        let now = self.now();
        self.open_at(name, now, parent, req)
    }

    /// Open a span that started at `start_ns`.
    pub fn open_at(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        self.close_at(id, now);
    }

    /// Close span `id` at `end_ns`.
    pub fn close_at(&mut self, id: SpanId, end_ns: u64) {
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Attach the request id once it is known (an acquire learns its id with
    /// its grant).
    pub fn set_req(&mut self, id: SpanId, req: u64) {
        self.spans[id as usize].req = req;
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        let id = self.open_at(name, start_ns, parent, req);
        self.close_at(id, end_ns);
        id
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(&mut SpanLog, SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent, 0);
        let out = f(self, id);
        self.close(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                let p = &self.spans[s.parent as usize];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if a < b {
                    children[s.parent as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per-name totals, ordered by name.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let self_times = self.self_times();
        let mut by_name: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&self_times) {
            let row = by_name.entry(s.name).or_insert(SpanSummary {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += s.end_ns - s.start_ns;
            row.self_ns += self_ns;
        }
        by_name.into_values().collect()
    }

    /// The summary as an aligned text table, largest self time first.
    pub fn summary_table(&self) -> String {
        let mut rows = self.summary();
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
        let mut out = format!(
            "{:<24} {:>9} {:>14} {:>14} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "self_us_mean"
        );
        for r in rows {
            out.push_str(&format!(
                "{:<24} {:>9} {:>14.3} {:>14.3} {:>12.3}\n",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                r.self_ns as f64 / 1e3 / r.count as f64
            ));
        }
        out
    }

    /// Chrome trace-event objects (`ph: "X"`, process 1, one track per span
    /// depth) for the first `cap` spans and every later span without a
    /// request id, so set-up and teardown always make it into the file.
    pub fn chrome_events(&self, cap: usize) -> Vec<String> {
        let mut depth = vec![0u32; self.spans.len()];
        let mut max_depth = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NONE {
                depth[i] = depth[s.parent as usize] + 1;
                max_depth = max_depth.max(depth[i]);
            }
        }
        let mut out: Vec<String> = (0..=max_depth)
            .map(|d| {
                format!(
                    "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {d}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": \"bench spans, depth {d}\"}}}}"
                )
            })
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            if i >= cap && s.req != 0 {
                continue;
            }
            out.push(format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"name\": \"{}\", \"cat\": \"bench\", \"args\": {{\"req\": {}, \"parent\": {}}}}}",
                depth[i],
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.name,
                s.req,
                if s.parent == NONE {
                    -1
                } else {
                    s.parent as i64
                }
            ));
        }
        out
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSummary {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Splice extra trace-event objects into a document produced by
/// [`arrow_trace::chrome::export`], so the bench spans and the reconstructed
/// request phases load as one file.
pub fn splice_chrome(export: &str, extra: &[String]) -> String {
    const TAIL: &str = "\n  ]\n}\n";
    let Some(body) = export.strip_suffix(TAIL) else {
        return export.to_string();
    };
    let mut out = body.to_string();
    let mut first = body.trim_end().ends_with('[');
    for e in extra {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("    ");
        out.push_str(e);
    }
    out.push_str(TAIL);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        let root = log.record("root", 0, 100, NONE, 0);
        // Overlapping children cover [10, 40); a third covers [50, 60); a
        // fourth sticks out past the parent and is clipped to [90, 100).
        log.record("a", 10, 30, root, 0);
        log.record("b", 20, 40, root, 0);
        let c = log.record("c", 50, 60, root, 0);
        log.record("d", 90, 130, root, 0);
        log.record("grandchild", 52, 55, c, 0);
        assert_eq!(log.self_times(), vec![50, 20, 20, 7, 40, 3]);
    }

    #[test]
    fn summary_groups_by_name() {
        let mut log = SpanLog::new();
        for i in 0..3u64 {
            let acq = log.record("client.acquire", i * 100, i * 100 + 50, NONE, i + 1);
            log.record("runtime.issue", i * 100, i * 100 + 5, acq, i + 1);
            log.record("runtime.release", i * 100 + 48, i * 100 + 50, acq, i + 1);
        }
        let summary = log.summary();
        let row = |n: &str| *summary.iter().find(|r| r.name == n).unwrap();
        assert_eq!(row("client.acquire").count, 3);
        assert_eq!(row("client.acquire").total_ns, 150);
        assert_eq!(row("client.acquire").self_ns, 150 - 3 * 7);
        assert_eq!(row("runtime.issue").self_ns, 15);
        assert!(log
            .summary_table()
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("client.acquire"));
    }

    #[test]
    fn open_close_and_scope_nest() {
        let mut log = SpanLog::new();
        let inner = log.scope("setup", NONE, |log, setup| {
            let id = log.open("runtime.spawn", setup, 0);
            log.close(id);
            id
        });
        let spans = log.spans();
        assert_eq!(spans[inner as usize].parent, 0);
        assert!(spans[0].end_ns >= spans[inner as usize].end_ns);
        assert!(spans[inner as usize].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn chrome_events_splice_into_an_export_and_stay_well_formed() {
        let mut log = SpanLog::new();
        let setup = log.record("setup", 0, 5_000, NONE, 0);
        log.record("runtime.spawn", 100, 4_000, setup, 0);
        for r in 1..=5u64 {
            log.record("client.acquire", r * 10_000, r * 10_000 + 900, NONE, r);
        }
        log.record("teardown", 90_000, 95_000, NONE, 0);
        let events = log.chrome_events(4);
        // 2 depth tracks + setup, spawn, 2 capped requests, teardown.
        assert_eq!(events.len(), 2 + 5);
        let empty = arrow_trace::chrome::export(&[], 1e6);
        let doc = splice_chrome(&empty, &events);
        assert_eq!(arrow_trace::chrome::parse_check(&doc), Ok(events.len()));
        assert_eq!(splice_chrome(&empty, &[]), empty);
    }
}
