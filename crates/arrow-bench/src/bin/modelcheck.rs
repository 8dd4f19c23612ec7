//! Exhaustive bounded model checking of the arrow protocol core.
//!
//! ```text
//! cargo run --release -p arrow-bench --bin modelcheck -- --smoke
//! cargo run --release -p arrow-bench --bin modelcheck -- --bound 5 --objects 2 --requests 4
//! cargo run --release -p arrow-bench --bin modelcheck -- --bound 3 --no-reduce --no-dedup
//! ```
//!
//! For every spanning tree up to `--bound` nodes this explores *all* request
//! placements, message interleavings and crash/recovery schedules within the
//! budgets, checking the safety invariants at every state and the quiescence
//! invariants at every drained state. A violation prints the transition trace
//! and is exported as a conformance replay file (`conformance --replay` runs
//! the same scenario through the live tiers). Exits non-zero on violation.

use arrow_model::{
    enumerate_trees, export_replay, representative_trees, sweep, BugSwitch, ExploreConfig,
    ExploreStats,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: modelcheck [--smoke] [--bound N] [--objects K] [--requests R] [--crashes C] \
         [--abandons A] [--all-trees] [--no-reduce] [--no-dedup] [--max-transitions N] \
         [--bug orphaned-grant|stale-frame] [--out DIR]"
    );
    std::process::exit(2);
}

fn help() -> ! {
    println!(
        "modelcheck — exhaustive bounded model checker for the arrow protocol core

USAGE:
    modelcheck [OPTIONS]

PROFILES:
    Crash episodes dominate the state-space size (every recovery interleaving
    multiplies the space), so the built-in profiles pair one deep fault-free
    sweep with shallower churn sweeps instead of one giant product:

    --smoke              the CI profile (seconds):
                           fault-free  n<=4, 2 objects, 3 requests
                           waiter-loss n<=3, 1 object,  3 requests, 1 abandon
                           churn       n<=4, 1 object,  2 requests, 1 episode
    (default)            the full profile (about two minutes):
                           fault-free  n<=5, 2 objects, 4 requests
                           waiter-loss n<=3, 1 object,  3 requests, 1 abandon
                           churn       n<=4, 1 object,  2 requests, 1 episode
                           churn       n<=3, 2 objects, 3 requests, 1 episode

    Passing any of --bound/--objects/--requests/--crashes/--abandons instead
    runs a single custom sweep with that budget (unset values default to
    4/1/2/1/0).

OPTIONS:
    --bound N            largest tree size to verify (>= 2)
    --objects K          directory objects per scenario
    --requests R         total request budget per scenario (budgets subsume
                         smaller ones: quiescence is checked at every drained
                         state whatever budget remains)
    --crashes C          crash/restart episode budget per scenario
    --abandons A         waiter-abandonment budget (timed-out acquires whose
                         reply channel vanishes; the orphaned-grant trigger)
    --all-trees          verify every labelled tree (n^(n-2) per size) instead
                         of one representative per rooted-isomorphism class
    --no-reduce          disable sleep-set partial-order reduction
    --no-dedup           disable canonical-hash state deduplication
    --max-transitions N  per-scenario transition cap (guard for --no-dedup)
    --bug WHICH          re-introduce a fixed historical bug and show the
                         checker catching it (orphaned-grant | stale-frame)
    --out DIR            where counterexample replay files go
                         (default: modelcheck-failures/)
    --help               this text"
    );
    std::process::exit(0);
}

/// One sweep the run will perform: a label plus its budgets.
struct Run {
    label: &'static str,
    bound: usize,
    objects: usize,
    requests: usize,
    crashes: usize,
    abandons: usize,
}

struct Options {
    bound: Option<usize>,
    objects: Option<usize>,
    requests: Option<usize>,
    crashes: Option<usize>,
    abandons: Option<usize>,
    smoke: bool,
    all_trees: bool,
    config: ExploreConfig,
    out: PathBuf,
}

impl Options {
    /// Resolve the CLI flags into the list of sweeps to run.
    fn runs(&self) -> Vec<Run> {
        let custom = self.bound.is_some()
            || self.objects.is_some()
            || self.requests.is_some()
            || self.crashes.is_some()
            || self.abandons.is_some();
        if custom {
            return vec![Run {
                label: "custom",
                bound: self.bound.unwrap_or(4),
                objects: self.objects.unwrap_or(1),
                requests: self.requests.unwrap_or(2),
                crashes: self.crashes.unwrap_or(1),
                abandons: self.abandons.unwrap_or(0),
            }];
        }
        let mut runs = vec![
            Run {
                label: "fault-free",
                bound: if self.smoke { 4 } else { 5 },
                objects: 2,
                requests: if self.smoke { 3 } else { 4 },
                crashes: 0,
                abandons: 0,
            },
            Run {
                label: "waiter-loss",
                bound: 3,
                objects: 1,
                requests: 3,
                crashes: 0,
                abandons: 1,
            },
            Run {
                label: "churn",
                bound: 4,
                objects: 1,
                requests: 2,
                crashes: 1,
                abandons: 0,
            },
        ];
        if !self.smoke {
            runs.push(Run {
                label: "churn-multiobj",
                bound: 3,
                objects: 2,
                requests: 3,
                crashes: 1,
                abandons: 0,
            });
        }
        runs
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        bound: None,
        objects: None,
        requests: None,
        crashes: None,
        abandons: None,
        smoke: false,
        all_trees: false,
        config: ExploreConfig::default(),
        out: PathBuf::from("modelcheck-failures"),
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => help(),
            "--smoke" => opts.smoke = true,
            "--bound" => opts.bound = Some(parse(&value(&mut args, "--bound"), "--bound")),
            "--objects" => opts.objects = Some(parse(&value(&mut args, "--objects"), "--objects")),
            "--requests" => {
                opts.requests = Some(parse(&value(&mut args, "--requests"), "--requests"))
            }
            "--crashes" => opts.crashes = Some(parse(&value(&mut args, "--crashes"), "--crashes")),
            "--abandons" => {
                opts.abandons = Some(parse(&value(&mut args, "--abandons"), "--abandons"))
            }
            "--all-trees" => opts.all_trees = true,
            "--no-reduce" => opts.config.reduce = false,
            "--no-dedup" => opts.config.dedup = false,
            "--max-transitions" => {
                opts.config.max_transitions =
                    parse(&value(&mut args, "--max-transitions"), "--max-transitions")
            }
            "--bug" => {
                opts.config.bug = match value(&mut args, "--bug").as_str() {
                    "orphaned-grant" => BugSwitch::OrphanedGrantWedge,
                    "stale-frame" => BugSwitch::StaleFrameAccept,
                    other => {
                        eprintln!("unknown --bug {other:?} (orphaned-grant | stale-frame)");
                        usage();
                    }
                }
            }
            "--out" => opts.out = PathBuf::from(value(&mut args, "--out")),
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage();
            }
        }
    }
    if opts.bound.is_some_and(|b| b < 2) || opts.objects == Some(0) {
        eprintln!("--bound must be >= 2 and --objects >= 1");
        usage();
    }
    opts
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: {s:?}");
        usage()
    })
}

/// States explored per second of wall time, for the progress lines.
fn rate(states: u64, took: Duration) -> String {
    format!(
        "{:.0} states/s",
        states as f64 / took.as_secs_f64().max(1e-9)
    )
}

fn main() -> ExitCode {
    let opts = parse_args();
    println!(
        "modelcheck: dedup={} reduce={} bug={:?} trees={}",
        opts.config.dedup,
        opts.config.reduce,
        opts.config.bug,
        if opts.all_trees {
            "all labellings"
        } else {
            "isomorphism representatives"
        },
    );

    let start = Instant::now();
    let mut total = ExploreStats::default();
    let mut scenarios = 0u64;
    for run in opts.runs() {
        println!(
            "sweep {}: trees up to {} nodes, {} object(s), {} request(s), {} crash episode(s), \
             {} abandon(s)",
            run.label, run.bound, run.objects, run.requests, run.crashes, run.abandons
        );
        for n in 2..=run.bound {
            let trees = if opts.all_trees {
                enumerate_trees(n)
            } else {
                representative_trees(n)
            };
            let count = trees.len();
            let t0 = Instant::now();
            let outcome = sweep(
                trees,
                run.objects,
                run.requests,
                run.crashes,
                run.abandons,
                &opts.config,
                |_, _| {},
            );
            scenarios += outcome.scenarios;
            total.states += outcome.stats.states;
            total.transitions += outcome.stats.transitions;
            total.deduped += outcome.stats.deduped;
            total.sleep_pruned += outcome.stats.sleep_pruned;
            total.quiescent += outcome.stats.quiescent;
            total.max_depth = total.max_depth.max(outcome.stats.max_depth);
            total.capped |= outcome.stats.capped;
            let took = t0.elapsed();
            println!(
                "  n={n}: {count} tree(s), {} in {took:.2?} ({})",
                outcome.stats,
                rate(outcome.stats.states, took)
            );

            if let Some((scenario, cx)) = outcome.failure {
                println!("\nVIOLATION in a {n}-node {} scenario:", run.label);
                print!("{cx}");
                match export_replay(&scenario, &cx) {
                    Some(text) => {
                        if let Err(e) = std::fs::create_dir_all(&opts.out) {
                            eprintln!("cannot create {}: {e}", opts.out.display());
                            return ExitCode::FAILURE;
                        }
                        let path = opts.out.join(format!("model-n{n}-counterexample.replay"));
                        match std::fs::write(&path, text) {
                            Ok(()) => {
                                println!("counterexample replay written to {}", path.display())
                            }
                            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                        }
                    }
                    None => {
                        eprintln!("no random-tree seed reproduces this tree (replay not written)")
                    }
                }
                return ExitCode::FAILURE;
            }
        }
    }

    let took = start.elapsed();
    println!("\nPASS: {scenarios} scenario(s) exhaustively verified in {took:.2?}");
    println!("  {total} ({})", rate(total.states, took));
    if total.states > 0 {
        // How much smaller the search was than what the exploration actually
        // attempted: every dedup/sleep skip cuts an entire subtree, so this
        // ratio understates the true pruning, but it is measured, not modeled.
        let attempted = total.transitions + total.deduped + total.sleep_pruned;
        println!(
            "  prune ratio (attempted/expanded, lower bound): {:.2}x",
            attempted as f64 / total.states as f64
        );
    }
    if total.capped {
        eprintln!("WARNING: at least one scenario hit the transition cap; coverage is partial");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
