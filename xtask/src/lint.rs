//! Registry-free source lints for the workspace's concurrency-critical code.
//!
//! Eight passes, all line-based (no syn/proc-macro dependencies — the
//! container has no registry access, and these lints only need to be as smart
//! as the code they police):
//!
//! 1. **panic hygiene** — `unwrap()` / `expect(` / `panic!(` are forbidden in
//!    non-test code under `crates/arrow-net/src`, `crates/arrow-core/src/live`
//!    and `crates/arrow-cluster/src` with its `bin/` (the trees that run on
//!    live threads or in a live `arrowd` node — the daemon, its control
//!    channel and its journal codec — where a panic kills a node rather than
//!    failing a test). Findings are suppressed by `xtask/lint-allow.txt`
//!    entries — documented panic contracts, and code of the cluster tree that
//!    runs in the test process rather than in a node, belong there; silent
//!    ones get fixed.
//! 2. **guard across send** — a `let` binding holding a `Mutex` guard that is
//!    still alive on a line that calls `.send(` risks blocking every other
//!    user of the lock behind channel backpressure (and deadlock if the
//!    receiver needs the same lock).
//! 3. **protocol/wire cross-check** — every `ProtoMsg` variant must appear in
//!    `arrow-net/src/wire.rs` non-test code (a frame encoding exists) *and* in
//!    its test module (a codec test exercises it).
//! 4. **metrics bypass** — counters in the live tiers route through the
//!    `arrow_trace` metrics schema (one for every tier's reporting): each
//!    reactor shard writes its own registry through an
//!    `arrow_trace::MetricsWriter`, and readers sum the shards' snapshots. A
//!    direct `fetch_add` on an ad-hoc atomic in the policed trees is a counter
//!    the observability plane cannot see. Registry and writer internals live
//!    in `arrow-trace`, outside the policed directories.
//! 5. **unsafe fencing** — every first-party crate root under `crates/` must
//!    carry `#![forbid(unsafe_code)]`: the whole protocol stack, reactor
//!    included, is safe Rust by construction, and `forbid` (unlike `deny`)
//!    cannot be overridden by an inner `allow`. Only the vendored stand-ins
//!    under `crates/compat/` are exempt — they take whatever license their
//!    upstream APIs force on them.
//! 6. **daemon exit paths** — `arrowd` (the cluster tier's per-node daemon)
//!    must exit through its typed `DaemonError` → `ExitCode` mapping, which
//!    the harness and operators can enumerate. A bare `process::exit(`
//!    outside `fn main` is an undocumented exit code that also skips the
//!    destructors the journal flush rides on.
//! 7. **hot-path hashing** — the files every simulated event and every hosted
//!    message runs through ([`PER_EVENT_FILES`]: the simulator's, the socket
//!    tier's reactor, and the per-node automaton), and the tier-1 result path that runs once per
//!    request after each simulator run, address their state by index. A
//!    `HashMap` / `HashSet` there is a SipHash probe per event, per hop or per
//!    request; tier 1 is swept thousands of times per figure, and a tier-3 hop
//!    costs a few hundred nanoseconds, so one such probe is a measurable share
//!    of either. A cold-path use goes on the allowlist with its reason.
//! 8. **stale allowlist entries** — every `xtask/lint-allow.txt` entry must
//!    still match a non-test line of a file the passes police. An entry
//!    whose file or substring is gone suppresses nothing today, but would
//!    silently allow whatever line next happens to contain it.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
pub struct Finding {
    /// File the finding is in, workspace-relative.
    pub file: PathBuf,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Which pass produced it.
    pub lint: &'static str,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// An allowlist entry: `path-suffix: substring` (see `xtask/lint-allow.txt`).
struct Allow {
    path_suffix: String,
    substring: String,
    /// 1-based line of the entry in the allowlist file.
    line: usize,
}

/// Where the allowlist lives, workspace-relative.
const ALLOWLIST: &str = "xtask/lint-allow.txt";

fn load_allowlist(root: &Path) -> Vec<Allow> {
    let Ok(text) = std::fs::read_to_string(root.join(ALLOWLIST)) else {
        return Vec::new();
    };
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|(line, l)| {
            let (path_suffix, substring) = l.split_once(": ")?;
            Some(Allow {
                path_suffix: path_suffix.trim().to_string(),
                substring: substring.trim().to_string(),
                line,
            })
        })
        .collect()
}

fn allowed(allows: &[Allow], file: &Path, line_text: &str) -> bool {
    let file = file.to_string_lossy();
    allows
        .iter()
        .any(|a| file.ends_with(&a.path_suffix) && line_text.contains(&a.substring))
}

/// Strip line comments (everything from the first `//` onward). Good enough
/// for this workspace: `//` inside string literals does not occur in the
/// policed trees, and over-stripping only makes the lint more conservative.
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn net_delta(code: &str) -> i32 {
    code.chars().fold(0, |acc, c| match c {
        '{' => acc + 1,
        '}' => acc - 1,
        _ => acc,
    })
}

/// Iterate the non-test lines of a source file: `(line_number, raw_line)`.
/// A `#[cfg(test)]` item (module or fn) and everything inside its braces is
/// skipped, tracked by brace counting.
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut skip_depth: Option<i32> = None; // brace depth at which the skip ends
    let mut depth = 0i32;
    let mut pending_cfg_test = false;
    for (i, line) in text.lines().enumerate() {
        let code = code_of(line);
        if skip_depth.is_none() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
                depth += net_delta(code);
                continue;
            }
            if pending_cfg_test {
                // The attribute's item starts here; skip until its braces close.
                if code.contains('{') {
                    skip_depth = Some(depth);
                    pending_cfg_test = false;
                } else if code.contains(';') {
                    pending_cfg_test = false; // e.g. `#[cfg(test)] use ...;`
                }
                depth += net_delta(code);
                continue;
            }
            out.push((i + 1, line));
            depth += net_delta(code);
        } else {
            depth += net_delta(code);
            if Some(depth) <= skip_depth {
                skip_depth = None;
            }
        }
    }
    out
}

/// The directories policed by the guard and metrics lints.
const LIVE_DIRS: [&str; 2] = ["crates/arrow-net/src", "crates/arrow-core/src/live"];

/// The directories the panic-hygiene lint adds: the cluster tier's library
/// and the `arrowd` binary, which run in every live node.
const DAEMON_DIRS: [&str; 2] = ["crates/arrow-cluster/src", "crates/arrow-cluster/src/bin"];

/// The files of the guard and metrics lints' directories.
fn policed_files(root: &Path) -> Vec<PathBuf> {
    rust_files(root, &LIVE_DIRS)
}

/// The files of the panic-hygiene lint's directories.
fn panic_policed_files(root: &Path) -> Vec<PathBuf> {
    rust_files(root, &[LIVE_DIRS, DAEMON_DIRS].concat())
}

/// The `.rs` files directly inside `dirs`, sorted.
fn rust_files(root: &Path, dirs: &[&str]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn rel<'p>(root: &Path, path: &'p Path) -> &'p Path {
    path.strip_prefix(root).unwrap_or(path)
}

/// Pass 1: forbid `unwrap()` / `expect(` / `panic!(` in non-test code.
fn lint_panic_hygiene(root: &Path, allows: &[Allow], findings: &mut Vec<Finding>) {
    for path in panic_policed_files(root) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let file = rel(root, &path).to_path_buf();
        for (line_no, line) in non_test_lines(&text) {
            let code = code_of(line);
            for (needle, what) in [
                (".unwrap()", "unwrap() in non-test live-path code"),
                (".expect(", "expect() in non-test live-path code"),
                ("panic!(", "panic!() in non-test live-path code"),
            ] {
                if code.contains(needle) && !allowed(allows, &file, line) {
                    findings.push(Finding {
                        file: file.clone(),
                        line: line_no,
                        lint: "panic-hygiene",
                        message: format!("{what}: {}", line.trim()),
                    });
                }
            }
        }
    }
}

/// Pass 2: flag `Mutex` guards held across `.send(` calls.
///
/// A `let` binding whose initializer contains `.lock()` keeps its guard alive
/// until the end of the enclosing block; any `.send(` before that point runs
/// under the lock. (Single-statement `.lock().x()` temporaries are fine: the
/// guard drops at the end of the statement, and the same line holding `.send(`
/// is flagged too.)
fn lint_guard_across_send(root: &Path, allows: &[Allow], findings: &mut Vec<Finding>) {
    for path in policed_files(root) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let file = rel(root, &path).to_path_buf();
        let mut depth = 0i32;
        // Open guard scopes: brace depth the binding lives at.
        let mut guards: Vec<i32> = Vec::new();
        for (line_no, line) in non_test_lines(&text) {
            let code = code_of(line);
            let trimmed = code.trim_start();
            let binds_guard = trimmed.starts_with("let ")
                && code.contains(".lock()")
                // `let _ = ...` / shed bindings drop immediately.
                && !trimmed.starts_with("let _ =")
                // A binding that extracts owned data out of the guard within
                // the same statement (take/clone at the end) does not hold it.
                && !code.contains("std::mem::take")
                && !code.trim_end().ends_with(".clone();");
            let sends = code.contains(".send(");
            if sends
                && (binds_guard || code.contains(".lock()") || !guards.is_empty())
                && !allowed(allows, &file, line)
            {
                findings.push(Finding {
                    file: file.clone(),
                    line: line_no,
                    lint: "guard-across-send",
                    message: format!(
                        "send() while a Mutex guard is (or may be) held: {}",
                        line.trim()
                    ),
                });
            }
            if binds_guard {
                guards.push(depth);
            }
            depth += net_delta(code);
            guards.retain(|&d| depth > d);
        }
    }
}

/// Extract the variant names of `pub enum ProtoMsg` from protocol.rs.
fn proto_msg_variants(text: &str) -> Vec<String> {
    let mut variants = Vec::new();
    let mut in_enum = false;
    let mut depth = 0i32;
    for line in text.lines() {
        let code = code_of(line);
        if code.contains("pub enum ProtoMsg") {
            in_enum = true;
            depth = 0;
        }
        if in_enum {
            // Variants sit at depth 1, as `Name {`, `Name(`, or `Name,`.
            if depth == 1 {
                let t = code.trim();
                if let Some(name) = t.split([' ', '{', '(', ',']).next() {
                    if !name.is_empty()
                        && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                        && name.chars().all(|c| c.is_ascii_alphanumeric())
                    {
                        variants.push(name.to_string());
                    }
                }
            }
            depth += net_delta(code);
            if depth <= 0 && code.contains('}') {
                break;
            }
        }
    }
    variants
}

/// Pass 3: every `ProtoMsg` variant has a wire encoding and a codec test.
fn lint_proto_wire(root: &Path, findings: &mut Vec<Finding>) {
    let proto_path = root.join("crates/arrow-core/src/protocol.rs");
    let wire_path = root.join("crates/arrow-net/src/wire.rs");
    let (Ok(proto), Ok(wire)) = (
        std::fs::read_to_string(&proto_path),
        std::fs::read_to_string(&wire_path),
    ) else {
        findings.push(Finding {
            file: PathBuf::from("crates/arrow-core/src/protocol.rs"),
            line: 0,
            lint: "proto-wire",
            message: "cannot read protocol.rs / wire.rs for the cross-check".to_string(),
        });
        return;
    };
    let variants = proto_msg_variants(&proto);
    if variants.is_empty() {
        findings.push(Finding {
            file: rel(root, &proto_path).to_path_buf(),
            line: 0,
            lint: "proto-wire",
            message: "found no ProtoMsg variants (parser out of sync?)".to_string(),
        });
        return;
    }
    // Split wire.rs at its test module: encodings live before, tests after.
    let split = wire.find("#[cfg(test)]").unwrap_or(wire.len());
    let (wire_code, wire_tests) = wire.split_at(split);
    let wire_file = rel(root, &wire_path).to_path_buf();
    for v in &variants {
        let pattern = format!("ProtoMsg::{v}");
        if !wire_code.contains(&pattern) {
            findings.push(Finding {
                file: wire_file.clone(),
                line: 0,
                lint: "proto-wire",
                message: format!("ProtoMsg::{v} has no frame encoding in wire.rs non-test code"),
            });
        }
        if !wire_tests.contains(&pattern) {
            findings.push(Finding {
                file: wire_file.clone(),
                line: 0,
                lint: "proto-wire",
                message: format!("ProtoMsg::{v} is not exercised by any wire.rs codec test"),
            });
        }
    }
}

/// Pass 4: no ad-hoc counter increments beside the metrics registry.
///
/// The live tiers count through shard-owned `arrow_trace::MetricsWriter`s and
/// report registry snapshots; a raw `.fetch_add(` in the policed trees is a
/// counter that bypasses the one schema (it will not show up in snapshots,
/// diffs or the JSON reports). Legitimate non-counter atomics (e.g. id allocation) belong on
/// the allowlist with a documented reason.
fn lint_metrics_bypass(root: &Path, allows: &[Allow], findings: &mut Vec<Finding>) {
    for path in policed_files(root) {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let file = rel(root, &path).to_path_buf();
        for (line_no, line) in non_test_lines(&text) {
            let code = code_of(line);
            if code.contains(".fetch_add(") && !allowed(allows, &file, line) {
                findings.push(Finding {
                    file: file.clone(),
                    line: line_no,
                    lint: "metrics-bypass",
                    message: format!(
                        "direct counter increment bypasses the MetricsRegistry: {}",
                        line.trim()
                    ),
                });
            }
        }
    }
}

/// Pass 5: every non-compat crate root carries `#![forbid(unsafe_code)]`.
///
/// Walks the `crates/` directory (the workspace's first-party crates; `xtask`
/// itself is a build tool, not shipped code) and requires the attribute in
/// each `src/lib.rs`. `crates/compat/` — the vendored offline stand-ins — is
/// the only exemption: shims like `netpoll` may need `unsafe` for raw fd
/// plumbing, and their roots decide for themselves.
fn lint_unsafe_fencing(root: &Path, findings: &mut Vec<Finding>) {
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        findings.push(Finding {
            file: PathBuf::from("crates"),
            line: 0,
            lint: "unsafe-fencing",
            message: "cannot read the crates/ directory".to_string(),
        });
        return;
    };
    let mut roots: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "compat"))
        .map(|p| p.join("src/lib.rs"))
        .collect();
    roots.sort();
    for lib in roots {
        let file = rel(root, &lib).to_path_buf();
        let Ok(text) = std::fs::read_to_string(&lib) else {
            findings.push(Finding {
                file,
                line: 0,
                lint: "unsafe-fencing",
                message: "crate has no readable src/lib.rs to carry the attribute".to_string(),
            });
            continue;
        };
        if !text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]") {
            findings.push(Finding {
                file,
                line: 0,
                lint: "unsafe-fencing",
                message: "first-party crate root is missing #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
}

/// Pass 6: `arrowd` exits only through its typed error → exit-code mapping.
///
/// The daemon's contract with the harness is a closed set of exit codes
/// (`DaemonError::code`), and its teardown path must run (the journal flush
/// is what makes a `SIGTERM`ed daemon's records recoverable). `fn main` is
/// the one place allowed to turn that typed error into a process exit; a
/// `process::exit(` anywhere else in the binary is an escape hatch that
/// bypasses both.
fn lint_daemon_exit_paths(root: &Path, findings: &mut Vec<Finding>) {
    let path = root.join("crates/arrow-cluster/src/bin/arrowd.rs");
    let file = rel(root, &path).to_path_buf();
    let Ok(text) = std::fs::read_to_string(&path) else {
        findings.push(Finding {
            file,
            line: 0,
            lint: "daemon-exit",
            message: "cannot read the arrowd binary source for the exit-path check".to_string(),
        });
        return;
    };
    let mut depth = 0i32;
    // Depth at which `fn main`'s body opened; None = outside main.
    let mut main_depth: Option<i32> = None;
    for (line_no, line) in non_test_lines(&text) {
        let code = code_of(line);
        if code.trim_start().starts_with("fn main(") {
            main_depth = Some(depth);
        }
        if code.contains("process::exit(") && main_depth.is_none() {
            findings.push(Finding {
                file: file.clone(),
                line: line_no,
                lint: "daemon-exit",
                message: format!(
                    "bare process::exit outside fn main — route through the typed \
                     DaemonError exit codes: {}",
                    line.trim()
                ),
            });
        }
        depth += net_delta(code);
        if let Some(d) = main_depth {
            if depth <= d && code.contains('}') {
                main_depth = None;
            }
        }
    }
}

/// The per-event files: the simulator tier's engine loop, link rows, event
/// queue, and the arrow glue, the centralized baseline's glue and the node host
/// every delivered message crosses; the harness and the order validator, which
/// run once per request to turn a simulator run's journal into its outcome; the
/// socket tier's reactor, which every hop between hosted nodes crosses; and the
/// per-node automaton — the queuing layer every tier runs and the `ArrowCore`
/// facade with its token ledger — which every tier-3 hop and every model-checker
/// transition runs through.
const PER_EVENT_FILES: [&str; 11] = [
    "crates/desim/src/sim.rs",
    "crates/desim/src/link.rs",
    "crates/desim/src/event.rs",
    "crates/arrow-core/src/arrow.rs",
    "crates/arrow-core/src/centralized.rs",
    "crates/arrow-core/src/host.rs",
    "crates/arrow-core/src/run.rs",
    "crates/arrow-core/src/order.rs",
    "crates/arrow-net/src/reactor.rs",
    "crates/arrow-core/src/live/core.rs",
    "crates/arrow-core/src/live/queue.rs",
];

/// Pass 7: no hashed collection in the per-event files outside test code.
fn lint_hot_path_hashing(root: &Path, allows: &[Allow], findings: &mut Vec<Finding>) {
    for rel_path in PER_EVENT_FILES {
        let file = PathBuf::from(rel_path);
        let Ok(text) = std::fs::read_to_string(root.join(rel_path)) else {
            findings.push(Finding {
                file,
                line: 0,
                lint: "hot-path-hashing",
                message: "cannot read a per-event file (moved? update PER_EVENT_FILES)".to_string(),
            });
            continue;
        };
        for (line_no, line) in non_test_lines(&text) {
            let code = code_of(line);
            if (code.contains("HashMap") || code.contains("HashSet"))
                && !allowed(allows, &file, line)
            {
                findings.push(Finding {
                    file: file.clone(),
                    line: line_no,
                    lint: "hot-path-hashing",
                    message: format!(
                        "hashed collection on a per-event path — index a Vec by node / \
                         rank / slot instead, or allowlist a cold path: {}",
                        line.trim()
                    ),
                });
            }
        }
    }
}

/// Pass 8: every allowlist entry matches a live line of a policed file.
fn lint_stale_allows(root: &Path, allows: &[Allow], findings: &mut Vec<Finding>) {
    let mut files = panic_policed_files(root);
    files.extend(PER_EVENT_FILES.iter().map(|f| root.join(f)));
    let texts: Vec<(String, String)> = files
        .iter()
        .filter_map(|path| {
            let text = std::fs::read_to_string(path).ok()?;
            Some((rel(root, path).to_string_lossy().into_owned(), text))
        })
        .collect();
    for a in allows {
        let live = texts
            .iter()
            .filter(|(file, _)| file.ends_with(&a.path_suffix))
            .any(|(_, text)| {
                non_test_lines(text)
                    .iter()
                    .any(|(_, line)| line.contains(&a.substring))
            });
        if !live {
            findings.push(Finding {
                file: PathBuf::from(ALLOWLIST),
                line: a.line,
                lint: "stale-allow",
                message: format!(
                    "`{}: {}` matches no live line of a policed file — delete the entry",
                    a.path_suffix, a.substring
                ),
            });
        }
    }
}

/// Run every pass; returns all findings (empty = clean tree).
pub fn run(root: &Path) -> Vec<Finding> {
    let allows = load_allowlist(root);
    let mut findings = Vec::new();
    lint_panic_hygiene(root, &allows, &mut findings);
    lint_guard_across_send(root, &allows, &mut findings);
    lint_proto_wire(root, &mut findings);
    lint_metrics_bypass(root, &allows, &mut findings);
    lint_unsafe_fencing(root, &mut findings);
    lint_daemon_exit_paths(root, &mut findings);
    lint_hot_path_hashing(root, &allows, &mut findings);
    lint_stale_allows(root, &allows, &mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_test_lines_skip_test_modules() {
        let src = "fn a() {\n    x.unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() {}\n";
        let lines: Vec<usize> = non_test_lines(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(lines, vec![1, 2, 3, 8]);
    }

    #[test]
    fn cfg_test_on_single_item_is_skipped() {
        let src = "#[cfg(test)]\nfn helper() {\n    panic!(\"x\");\n}\nfn live() {}\n";
        let lines: Vec<usize> = non_test_lines(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(lines, vec![5]);
    }

    #[test]
    fn comments_are_not_code() {
        assert_eq!(code_of("x(); // y.unwrap()"), "x(); ");
        assert_eq!(code_of("// all comment"), "");
    }

    #[test]
    fn proto_variants_are_extracted() {
        let src = "pub enum ProtoMsg {\n    Issue {\n        req: RequestId,\n    },\n    Queue { x: u8 },\n    Found,\n}\n";
        assert_eq!(proto_msg_variants(src), vec!["Issue", "Queue", "Found"]);
    }

    #[test]
    fn unsafe_fencing_exempts_compat_and_flags_bare_roots() {
        let dir = std::env::temp_dir().join("xtask-unsafe-fencing-test");
        let _ = std::fs::remove_dir_all(&dir);
        for sub in [
            "crates/good/src",
            "crates/bad/src",
            "crates/compat/shim/src",
        ] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
        }
        std::fs::write(
            dir.join("crates/good/src/lib.rs"),
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        )
        .unwrap();
        std::fs::write(dir.join("crates/bad/src/lib.rs"), "pub fn f() {}\n").unwrap();
        std::fs::write(dir.join("crates/compat/shim/src/lib.rs"), "pub fn g() {}\n").unwrap();
        let mut findings = Vec::new();
        lint_unsafe_fencing(&dir, &mut findings);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            findings.len(),
            1,
            "only the bare non-compat root is flagged"
        );
        assert!(findings[0].file.ends_with("crates/bad/src/lib.rs"));
        assert_eq!(findings[0].lint, "unsafe-fencing");
    }

    #[test]
    fn daemon_exit_lint_flags_exits_outside_main_only() {
        let dir = std::env::temp_dir().join("xtask-daemon-exit-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/arrow-cluster/src/bin")).unwrap();
        let src = "fn helper() {\n    std::process::exit(7);\n}\n\
                   fn main() -> std::process::ExitCode {\n    std::process::exit(0);\n}\n";
        std::fs::write(dir.join("crates/arrow-cluster/src/bin/arrowd.rs"), src).unwrap();
        let mut findings = Vec::new();
        lint_daemon_exit_paths(&dir, &mut findings);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(findings.len(), 1, "only the helper's exit is flagged");
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[0].lint, "daemon-exit");
    }

    #[test]
    fn hot_path_hashing_flags_live_code_and_honours_tests_and_allows() {
        let dir = std::env::temp_dir().join("xtask-hot-path-hashing-test");
        let _ = std::fs::remove_dir_all(&dir);
        for file in PER_EVENT_FILES {
            let path = dir.join(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, "pub fn f() {}\n").unwrap();
        }
        let src = "use std::collections::HashMap;\n\
                   struct S {\n    cold: std::collections::HashSet<u8>,\n}\n\
                   // a HashMap in a comment is not code\n\
                   #[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        std::fs::write(dir.join("crates/desim/src/link.rs"), src).unwrap();
        std::fs::remove_file(dir.join("crates/desim/src/event.rs")).unwrap();
        // The reactor: a per-hop node table keyed by hash is flagged, a
        // per-peer socket map on the allowlist is not.
        let reactor = "struct Shard {\n    nodes: HashMap<NodeId, NodeState>,\n}\n\
                       struct NodeState {\n    links: HashMap<NodeId, Link>,\n}\n";
        std::fs::write(dir.join("crates/arrow-net/src/reactor.rs"), reactor).unwrap();
        let allows = vec![
            Allow {
                path_suffix: "crates/desim/src/link.rs".to_string(),
                substring: "cold: std::collections::HashSet".to_string(),
                line: 1,
            },
            Allow {
                path_suffix: "crates/arrow-net/src/reactor.rs".to_string(),
                substring: "links: HashMap".to_string(),
                line: 2,
            },
        ];
        let mut findings = Vec::new();
        lint_hot_path_hashing(&dir, &allows, &mut findings);
        let _ = std::fs::remove_dir_all(&dir);
        let at: Vec<(String, usize)> = findings
            .iter()
            .map(|f| (f.file.to_string_lossy().into_owned(), f.line))
            .collect();
        assert_eq!(
            at,
            vec![
                ("crates/desim/src/link.rs".to_string(), 1),
                ("crates/desim/src/event.rs".to_string(), 0),
                ("crates/arrow-net/src/reactor.rs".to_string(), 2),
            ],
            "the live import, the missing file and the hashed node table, not the allowed \
             fields, the comment or the test"
        );
    }

    #[test]
    fn panic_hygiene_polices_the_daemon_and_honours_tests_and_allows() {
        let dir = std::env::temp_dir().join("xtask-panic-hygiene-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/arrow-cluster/src/bin")).unwrap();
        let arrowd = "fn f() {\n    writer.lock().unwrap();\n}\n\
                      #[cfg(test)]\nmod tests {\n    fn t() { g().unwrap(); }\n}\n";
        std::fs::write(dir.join("crates/arrow-cluster/src/bin/arrowd.rs"), arrowd).unwrap();
        let harness = "fn launch() {\n    slot.expect(\"all slots filled\");\n    \
                       line.parse().expect(\"a number\");\n}\n";
        std::fs::write(dir.join("crates/arrow-cluster/src/harness.rs"), harness).unwrap();
        let allows = vec![Allow {
            path_suffix: "crates/arrow-cluster/src/harness.rs".to_string(),
            substring: ".expect(\"all slots filled\")".to_string(),
            line: 1,
        }];
        let mut findings = Vec::new();
        lint_panic_hygiene(&dir, &allows, &mut findings);
        let _ = std::fs::remove_dir_all(&dir);
        let at: Vec<(String, usize)> = findings
            .iter()
            .map(|f| (f.file.to_string_lossy().into_owned(), f.line))
            .collect();
        assert_eq!(
            at,
            vec![
                ("crates/arrow-cluster/src/bin/arrowd.rs".to_string(), 2),
                ("crates/arrow-cluster/src/harness.rs".to_string(), 3),
            ],
            "the daemon's poison unwrap and the unlisted expect, not the allowed one or the test"
        );
        assert!(findings.iter().all(|f| f.lint == "panic-hygiene"));
    }

    #[test]
    fn stale_allowlist_entries_are_flagged() {
        let dir = std::env::temp_dir().join("xtask-stale-allow-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/arrow-net/src")).unwrap();
        std::fs::create_dir_all(dir.join("xtask")).unwrap();
        let reactor = "fn f() {\n    g().expect(\"live contract\");\n}\n\
                       #[cfg(test)]\nmod tests {\n    fn t() { h().expect(\"test only\"); }\n}\n";
        std::fs::write(dir.join("crates/arrow-net/src/reactor.rs"), reactor).unwrap();
        let allowlist = "# reasons\n\
                         crates/arrow-net/src/reactor.rs: .expect(\"live contract\")\n\
                         crates/arrow-net/src/reactor.rs: .expect(\"moved away\")\n\
                         crates/arrow-net/src/reactor.rs: .expect(\"test only\")\n\
                         crates/arrow-net/src/gone.rs: .expect(\"live contract\")\n";
        std::fs::write(dir.join(ALLOWLIST), allowlist).unwrap();
        let allows = load_allowlist(&dir);
        let mut findings = Vec::new();
        lint_stale_allows(&dir, &allows, &mut findings);
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(
            lines,
            vec![3, 4, 5],
            "the vanished substring, the test-only one and the missing file; not the live entry"
        );
        assert!(findings.iter().all(|f| f.lint == "stale-allow"));
        assert!(findings[0].file.ends_with(ALLOWLIST));
    }

    #[test]
    fn workspace_is_lint_clean() {
        // The real check CI runs; keeping it as a test means `cargo test`
        // alone catches regressions too.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let findings = run(root);
        assert!(
            findings.is_empty(),
            "lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
