//! Workspace automation tasks (no registry dependencies).
//!
//! ```text
//! cargo run -p xtask -- lint
//! cargo run -p xtask -- lines
//! ```
//!
//! `lint` runs the source lints described in [`lint`] and exits non-zero on
//! any finding. Suppressions live in `xtask/lint-allow.txt`, one
//! `path-suffix: substring` entry per line — every entry is expected to carry
//! a comment explaining the documented panic contract it covers.
//!
//! `lines` prints the non-test lines of every crate under `crates/` and their
//! total (see [`lines`]): the size a change is measured by.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod lines;
mod lint;

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // xtask/ sits directly under the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives inside the workspace")
        .to_path_buf()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let root = workspace_root();
            let findings = lint::run(&root);
            if findings.is_empty() {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!("xtask lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Some("lines") => {
            let counts = lines::per_crate(&workspace_root());
            println!("non-test lines under crates/ (#[cfg(test)] items excluded)");
            for (krate, count) in &counts {
                println!("    {krate:<24} {count:>6}");
            }
            let total: usize = counts.iter().map(|(_, c)| c).sum();
            println!("    {:<24} {total:>6}", "total");
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            println!(
                "xtask — workspace automation\n\nTASKS:\n    lint    panic-hygiene, \
                 guard-across-send and ProtoMsg/wire cross-checks\n            \
                 (suppressions: xtask/lint-allow.txt)\n    \
                 lines   non-test lines per crate under crates/, and their total"
            );
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown task {other:?} (try: lint, lines)");
            ExitCode::FAILURE
        }
    }
}
