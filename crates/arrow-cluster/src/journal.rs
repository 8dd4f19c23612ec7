//! The on-disk journal an `arrowd` daemon leaves behind at shutdown: its
//! runtime's [`NetReport`] — issued requests, observed successor-notification
//! records, transport failures and metrics snapshot — in a line-oriented text
//! format matching the control channel's. [`read_journal`] decodes it back
//! into the report [`write_journal`] was given, which the harness merges with
//! the other daemons' ([`NetReport::merge`]) to validate the per-object
//! queuing orders.
//!
//! Journals are written atomically (temp file + rename in the same directory),
//! so the harness either sees a complete journal ending in its `end` marker or
//! no journal at all (the SIGKILL case — a killed incarnation's history dies
//! with it, exactly like a real crashed node's volatile state).

use arrow_core::host::RunJournal;
use arrow_core::prelude::{ObjectId, OrderRecord, Request, RequestId};
use arrow_net::{NetFailure, NetReport};
use arrow_trace::MetricsSnapshot;
use desim::SimTime;
use netgraph::NodeId;
use std::fmt::Display;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::str::{FromStr, SplitAsciiWhitespace};

/// Format tag on the journal's first line; bump on incompatible changes.
const MAGIC: &str = "arrowd-journal v2";

/// Atomically write `report` as node `node`'s journal at `path`.
pub fn write_journal(path: &Path, node: NodeId, report: &NetReport) -> io::Result<()> {
    let mut text = format!("{MAGIC} {node}\n");
    for r in report.schedule().requests() {
        text.push_str(&format!(
            "req {} {} {} {}\n",
            r.id.0,
            r.node,
            r.time.subticks(),
            r.obj.0
        ));
    }
    for r in report.records() {
        text.push_str(&format!(
            "rec {} {} {} {} {} {}\n",
            r.predecessor.0,
            r.successor.0,
            r.obj.0,
            r.at_node,
            r.informed_at.subticks(),
            r.epoch
        ));
    }
    for f in report.failures() {
        text.push_str(&format!("fail {} {}\n", f.node, escape(&f.description)));
    }
    text.push_str(&report.metrics().to_wire());
    text.push_str("end\n");

    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Read and decode the journal [`write_journal`] left at `path` for node
/// `node`: a journal naming another node is an error.
pub fn read_journal(path: &Path, node: NodeId) -> io::Result<NetReport> {
    let text = fs::read_to_string(path)?;
    parse_journal(&text, node).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

fn parse_journal(text: &str, node: NodeId) -> Result<NetReport, String> {
    let mut lines = (1..).zip(text.lines());
    let (_, header) = lines.next().ok_or("empty journal")?;
    let named: NodeId = header
        .strip_prefix(MAGIC)
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| format!("bad journal header {header:?}"))?;
    if named != node {
        return Err(format!("journal of node {named}, expected node {node}"));
    }
    let mut journal = RunJournal::default();
    let (mut failures, mut metrics) = (Vec::new(), String::new());
    for (at, line) in lines {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        let mut f = Fields {
            at,
            line,
            rest: rest.split_ascii_whitespace(),
        };
        match kind {
            "req" => {
                let r = Request {
                    id: RequestId(f.next()?),
                    node: f.next()?,
                    time: SimTime::from_subticks(f.next()?),
                    obj: ObjectId(f.next()?),
                };
                if r.node != node {
                    return Err(f.bad(format!("a request of node {}", r.node)));
                }
                let last = journal.issued().last();
                if last.is_some_and(|last| (last.time, last.id) >= (r.time, r.id)) {
                    return Err(f.bad("a request out of (time, id) order"));
                }
                f.end()?;
                journal.note_issue(r);
            }
            "rec" => {
                journal.note_queued(OrderRecord {
                    predecessor: RequestId(f.next()?),
                    successor: RequestId(f.next()?),
                    obj: ObjectId(f.next()?),
                    at_node: f.next()?,
                    informed_at: SimTime::from_subticks(f.next()?),
                    epoch: f.next()?,
                });
                f.end()?;
            }
            // The description runs to the end of the line, escaped.
            "fail" => {
                let failed = f.next()?;
                let (_, description) = rest
                    .split_once(' ')
                    .ok_or_else(|| f.bad("no failure description"))?;
                failures.push(NetFailure {
                    node: failed,
                    description: unescape(description).map_err(|e| f.bad(e))?,
                });
            }
            "ctr" | "hist" => {
                metrics.push_str(line);
                metrics.push('\n');
            }
            "end" => {
                f.end()?;
                let metrics = MetricsSnapshot::from_wire(&metrics)?;
                return Ok(NetReport::new(journal, failures, metrics));
            }
            other => return Err(f.bad(format!("unknown line kind {other:?}"))),
        }
    }
    Err("journal is truncated (no end marker)".to_string())
}

/// A failure description as one journal line's tail: `\`, newline and
/// carriage return escaped, so a free-form I/O error text cannot split it.
fn escape(description: &str) -> String {
    description
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Undo [`escape`]; any other escape is an error.
fn unescape(field: &str) -> Result<String, String> {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(format!("bad escape {other:?} in a failure description")),
        }
    }
    Ok(out)
}

/// The fields of journal line `at` after its kind, read in order.
struct Fields<'a> {
    at: usize,
    line: &'a str,
    rest: SplitAsciiWhitespace<'a>,
}

impl Fields<'_> {
    /// What is wrong with this line, naming it.
    fn bad(&self, what: impl Display) -> String {
        format!("journal line {} {:?}: {what}", self.at, self.line)
    }

    fn next<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let field = self
            .rest
            .next()
            .ok_or_else(|| self.bad("a missing field"))?;
        field
            .parse()
            .map_err(|e| self.bad(format!("bad field {field:?}: {e}")))
    }

    /// Every field was read: nothing trails.
    fn end(mut self) -> Result<(), String> {
        match self.rest.next() {
            None => Ok(()),
            Some(extra) => Err(self.bad(format!("trailing field {extra:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrow_net::replay::daemon_mesh;
    use arrow_net::{Listener, NetConfig, NetRuntime};
    use netgraph::{generators, RootedTree};

    #[test]
    fn parse_rejects_truncated_and_malformed_journals() {
        let journal_of_3 = |body: &str| format!("{MAGIC} 3\n{body}end\n");
        for (text, why) in [
            (String::new(), "empty"),
            ("not a journal\nend\n".to_string(), "bad header"),
            (format!("{MAGIC} 3\nreq 1 3 0 0\n"), "missing end marker"),
            (journal_of_3("what 1\n"), "unknown line kind"),
            (journal_of_3("req 1 3\n"), "short req line"),
            (journal_of_3("req 1 3 0 4294967296\n"), "object id past u32"),
            (
                journal_of_3("rec 0 1 4294967296 3 0 0\n"),
                "object id past u32",
            ),
            (journal_of_3("req 1 3 0 0 7\n"), "trailing field on req"),
            (journal_of_3("rec 0 1 0 3 0 0 7\n"), "trailing field on rec"),
            (journal_of_3("fail 3\n"), "fail line without a description"),
            (
                journal_of_3("fail 3 a\\q\n"),
                "unknown escape in a description",
            ),
            (
                journal_of_3("fail 3 a\\\n"),
                "lone backslash ending a description",
            ),
            (journal_of_3("req 1 4 0 0\n"), "a request of another node"),
            (
                journal_of_3("req 5 3 9 0\nreq 1 3 8 0\n"),
                "requests out of time order",
            ),
            (
                journal_of_3("req 5 3 9 0\nreq 1 3 9 0\n"),
                "requests out of id order",
            ),
            (format!("{MAGIC} 3\nend 7\n"), "trailing field on end"),
        ] {
            assert!(parse_journal(&text, 3).is_err(), "{why}: {text:?}");
        }
        let err = parse_journal(&journal_of_3("req 1 3 0 0\nreq 2 3 0 0 junk\n"), 3)
            .expect_err("a trailing field");
        assert!(
            err.starts_with("journal line 3 \"req 2 3 0 0 junk\""),
            "{err}"
        );
        let err = parse_journal(&journal_of_3(""), 4).expect_err("another daemon's journal");
        assert!(err.contains("journal of node 3, expected node 4"), "{err}");
    }

    #[test]
    fn parse_round_trips_a_hand_written_journal() {
        let text = format!(
            "{MAGIC} 2\n\
             req 5 2 1000 0\n\
             req 9 2 2000 1\n\
             rec 0 5 0 0 1500 0\n\
             fail 2 dial to peer 1 refused\n\
             ctr acquisitions 2\n\
             end\n"
        );
        let report = parse_journal(&text, 2).unwrap();
        let issued = report.schedule().requests();
        assert_eq!(issued.len(), 2);
        assert_eq!(issued[0].id, RequestId(5));
        assert_eq!(issued[1].obj, ObjectId(1));
        assert_eq!(report.records().len(), 1);
        assert_eq!(report.records()[0].successor, RequestId(5));
        assert_eq!(
            report.failures(),
            [NetFailure {
                node: 2,
                description: "dial to peer 1 refused".to_string(),
            }]
        );
        assert_eq!(
            report.metrics().get(arrow_trace::Metric::Acquisitions),
            2,
            "metrics lines decode through the shared wire format"
        );
    }

    /// Write `report` as node `node`'s journal and read it back.
    fn round_trip(report: &NetReport, node: NodeId) -> NetReport {
        let path = std::env::temp_dir().join(format!(
            "arrowd-journal-round-trip-{}-{node}.journal",
            std::process::id()
        ));
        write_journal(&path, node, report).unwrap();
        let back = read_journal(&path, node);
        let _ = fs::remove_file(&path);
        back.unwrap()
    }

    fn assert_same(back: &NetReport, report: &NetReport) {
        assert_eq!(back.schedule().requests(), report.schedule().requests());
        assert_eq!(back.records(), report.records());
        assert_eq!(back.failures(), report.failures());
        assert_eq!(back.metrics(), report.metrics());
    }

    /// What a daemon-mode runtime reports comes back whole through its
    /// journal: two daemons of a two-node tree acquire and release, a third
    /// node, whose parent's address is refused, fails its acquire, and a
    /// failure description holding a newline and a backslash stays one line.
    #[test]
    fn a_daemon_report_round_trips_through_its_journal() {
        let tree = RootedTree::from_tree_graph(&generators::path(2), 0);
        let cfg = NetConfig::instant();
        let daemons = daemon_mesh(&tree, 2, cfg, Listener::loopback, |_, _| {}).unwrap();
        for (v, daemon) in daemons.iter().enumerate() {
            let h = daemon.handle(v);
            for obj in [ObjectId(0), ObjectId(1), ObjectId(0)] {
                let req = h.acquire_object(obj);
                h.release_object(obj, req);
            }
        }
        for (v, daemon) in daemons.into_iter().enumerate().rev() {
            let report = daemon.shutdown();
            assert_eq!(report.schedule().len(), 3, "node {v}");
            assert_same(&round_trip(&report, v), &report);
        }

        let refused = Listener::loopback().unwrap();
        let gone = refused.local_addr().unwrap();
        drop(refused);
        let l1 = Listener::loopback().unwrap();
        let addrs = vec![gone, l1.local_addr().unwrap()];
        let cfg = cfg.with_dial_retries(1);
        let daemon = NetRuntime::spawn_daemon(&tree, 1, cfg, 1, l1, addrs, 0);
        assert!(daemon.handle(1).try_acquire().is_err());
        let report = daemon.shutdown();
        assert_eq!(report.failures().len(), 1);
        assert_same(&round_trip(&report, 1), &report);

        let failures = vec![NetFailure {
            node: 1,
            description: "dial failed:\nC:\\peer\\n \\\r".to_string(),
        }];
        let report = NetReport::new(RunJournal::default(), failures, MetricsSnapshot::default());
        assert_same(&round_trip(&report, 1), &report);
    }
}
