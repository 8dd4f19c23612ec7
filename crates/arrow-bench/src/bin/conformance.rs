//! The cross-tier conformance sweep: seeded cases × (sim | sim-centralized |
//! thread | net) × the shared invariant suite, with automatic shrinking and
//! replay files for every failure.
//!
//! ```text
//! cargo run --release -p arrow-bench --bin conformance -- --smoke
//! cargo run --release -p arrow-bench --bin conformance -- --cases 128 --max-nodes 32
//! cargo run --release -p arrow-bench --bin conformance -- --replay conformance-failures/case-42.replay
//! ```
//!
//! Exits non-zero if any case violates any invariant (CI runs `--smoke`).

use arrow_cluster::{locate_arrowd, ClusterDriver};
use arrow_conformance::{
    invariants, run_replay, run_sweep, CaseSpec, GraphKind, SweepOptions, WorkloadKind,
};
use arrow_core::prelude::{Driver, ProtocolKind, SyncMode};
use desim::SimConfig;
use netgraph::spanning::SpanningTreeKind;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: conformance [--smoke | --full] [--cases N] [--seed N] [--max-nodes N] \
         [--max-requests N] [--faults] [--fault-episodes N] [--no-thread] [--no-net] \
         [--no-cluster] [--no-shrink] [--out DIR] [--trace [DIR]] [--replay FILE]\n(try --help \
         for the replay file format)"
    );
    std::process::exit(2);
}

fn help() -> ! {
    println!(
        "conformance — cross-tier differential sweep for the arrow protocol

USAGE:
    conformance [--smoke | --full] [OPTIONS]
    conformance --replay FILE

PROFILES:
    --smoke              32 small fixed-seed cases, every tier (the CI profile; default)
    --full               256 larger cases, every tier

OPTIONS:
    --cases N            number of generated cases
    --seed N             master seed (case i derives from seed + i)
    --max-nodes N        per-case node budget
    --max-requests N     per-case request budget
    --faults             inject a seeded fault schedule (crashes, restarts, link
                         drops) into every case and check the churn contract
                         instead of the fault-free suite (2 episodes per case)
    --fault-episodes N   like --faults with an explicit per-case episode budget
    --no-thread          skip the thread tier
    --no-net             skip the socket tier (it runs three times: `net` and
                         `net-1shard`, one runtime at the default and at one
                         reactor shard, every hop in memory; `net-wire`, one
                         daemon-mode runtime per node, every hop on loopback
                         TCP — fault sweeps skip `net-wire`)
    --no-cluster         skip the process-cluster tier (the small fixed-seed
                         subset replayed across real arrowd processes after
                         the sweep; needs the arrowd binary —
                         `cargo build --release -p arrow-cluster`)
    --no-shrink          report failures without shrinking them first
    --out DIR            where failing cases' replay files go
                         (default: conformance-failures/)
    --trace [DIR]        re-run every fault-free case's sim tier with recording
                         probes, validate that the causal trace covers every
                         issued request (complete hop chains whose path cost
                         matches the validated order's c_A adjacency), and write
                         Chrome trace-event JSON (case-<seed>.trace.json,
                         Perfetto-loadable) into DIR
                         (default: conformance-traces/)
    --replay FILE        re-run one previously written replay file
    --help               this text

REPLAY FILES:
    Every failing case is shrunk (requests, then nodes, while the failure still
    reproduces) and written as a line-based text file that pins the exact
    topology and request list:

        arrow-conformance-replay v1
        seed 42                      derivation seed (labels the case)
        nodes 12                     node budget handed to the graph builder
        graph complete               complete|path|cycle|grid|random-tree|erdos-renyi
        tree balanced-binary         shortest-path|minimum-weight|star|
                                     balanced-binary|minimum-communication
        objects 3                    directory objects (req lines name obj < K)
        requests 24                  number of req lines that follow (exact)
        workload zipf                burst|poisson|uniform|zipf|sequential
        sync async                   sync|async timing model
        async-lo 0.05                async delay floor in [0, 1]
        faults 2                     number of fault lines that follow (omitted
                                     entirely for fault-free cases)
        fault 3 crash 5              one per fault event: tick, then
                                     crash|restart|partition NODE or
                                     drop|restore U V
        req 7 1500000 2              one per request: node, time in subticks, object

    Reproduce any failure with:
        conformance --replay conformance-failures/case-<seed>.replay

    Full grammar and field semantics: the arrow-conformance crate docs
    (module `case`)."
    );
    std::process::exit(0);
}

/// The process-cluster tier's fixed-seed conformance subset: a few small
/// cases (≤ 8 nodes, ≤ 12 requests — every case spawns that many real OS
/// processes) replayed through [`ClusterDriver`] and held to the same
/// invariant suite as the in-process tiers. The generated sweep stays on the
/// cheap tiers; this pins the cross-tier agreement contract down to process
/// isolation without multiplying the sweep's cost by a process launch.
fn cluster_subset_specs() -> Vec<CaseSpec> {
    let base = CaseSpec {
        seed: 0,
        nodes: 8,
        graph: GraphKind::Complete,
        tree: SpanningTreeKind::BalancedBinary,
        objects: 2,
        requests: 12,
        workload: WorkloadKind::Zipf,
        sync: SyncMode::Synchronous,
        async_lo: SimConfig::DEFAULT_ASYNC_LO,
    };
    vec![
        CaseSpec { seed: 11, ..base },
        CaseSpec {
            seed: 23,
            nodes: 6,
            graph: GraphKind::RandomTree,
            tree: SpanningTreeKind::ShortestPath,
            objects: 1,
            requests: 10,
            workload: WorkloadKind::Sequential,
            ..base
        },
    ]
}

/// Run the cluster subset; returns `(cases_run, requests_run, violations)`.
fn run_cluster_subset(driver: &ClusterDriver) -> (usize, usize, Vec<invariants::Violation>) {
    let mut violations = Vec::new();
    let mut requests = 0usize;
    let specs = cluster_subset_specs();
    let cases = specs.len();
    for spec in specs {
        let instance = spec.build_instance();
        let schedule = spec.build_schedule(instance.node_count());
        let expected = invariants::request_multiset(&schedule);
        let cfg = spec.run_config(ProtocolKind::Arrow);
        requests += schedule.len();
        match driver.run(&instance, &schedule, &cfg) {
            Err(e) => violations.push(invariants::Violation {
                invariant: arrow_conformance::InvariantKind::RunFailed,
                tier: "cluster".to_string(),
                detail: format!("seed {}: {e}", spec.seed),
            }),
            Ok(outcome) => {
                let n = instance.node_count();
                violations.extend(invariants::check_exactly_once("cluster", &outcome));
                violations.extend(invariants::check_token_conservation("cluster", &outcome));
                violations.extend(invariants::check_message_sanity("cluster", &outcome, n));
                violations.extend(invariants::check_cross_tier("cluster", &expected, &outcome));
            }
        }
    }
    (cases, requests, violations)
}

fn main() -> ExitCode {
    let mut opts = SweepOptions::smoke();
    opts.replay_dir = Some(PathBuf::from("conformance-failures"));
    let mut replay_file: Option<PathBuf> = None;
    let mut include_cluster = true;

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--help" | "-h" => help(),
            // Profile switches preserve already-chosen --out/--trace directories
            // (flag order must not silently change where artifacts land).
            "--smoke" => {
                let (dir, traces) = (opts.replay_dir.clone(), opts.trace_dir.clone());
                opts = SweepOptions::smoke();
                opts.replay_dir = dir;
                opts.trace_dir = traces;
            }
            "--full" => {
                let (dir, traces) = (opts.replay_dir.clone(), opts.trace_dir.clone());
                opts = SweepOptions::full();
                opts.replay_dir = dir;
                opts.trace_dir = traces;
            }
            "--cases" => opts.cases = num(&mut args),
            "--seed" => {
                opts.master_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--max-nodes" => opts.max_nodes = num(&mut args),
            "--max-requests" => opts.max_requests = num(&mut args),
            "--faults" => opts.fault_episodes = 2,
            "--fault-episodes" => opts.fault_episodes = num(&mut args),
            "--no-thread" => opts.include_thread = false,
            "--no-net" => opts.include_net = false,
            "--no-cluster" => include_cluster = false,
            "--no-shrink" => opts.shrink_failures = false,
            "--out" => {
                opts.replay_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
            }
            // Optional value: `--trace` alone uses the default directory, so the
            // CI invocation stays `conformance --smoke --trace`.
            "--trace" => {
                let dir = match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next().unwrap(),
                    _ => "conformance-traces".to_string(),
                };
                opts.trace_dir = Some(PathBuf::from(dir));
            }
            "--replay" => replay_file = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }

    if let Some(path) = replay_file {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        match run_replay(&text, &opts) {
            Err(e) => {
                eprintln!("bad replay file: {e}");
                return ExitCode::from(2);
            }
            Ok((tiers, violations)) => {
                println!("replay {} (tiers: {})", path.display(), tiers.join(", "));
                if violations.is_empty() {
                    println!("PASS: no invariant violations");
                    return ExitCode::SUCCESS;
                }
                for v in &violations {
                    println!("VIOLATION {v}");
                }
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "conformance sweep: {} cases, master seed {:#x}, max {} nodes / {} requests, tiers: sim{}{}{}",
        opts.cases,
        opts.master_seed,
        opts.max_nodes,
        opts.max_requests,
        if opts.fault_episodes == 0 {
            ", sim-centralized".to_string()
        } else {
            format!(" (churn contract, ≤{} fault episodes/case)", opts.fault_episodes)
        },
        if opts.include_thread { ", thread" } else { "" },
        match (opts.include_net, opts.fault_episodes) {
            (false, _) => "",
            (true, 0) => ", net, net-1shard, net-wire",
            (true, _) => ", net, net-1shard",
        },
    );
    let report = run_sweep(&opts);

    // The process-cluster tier: a fixed-seed subset replayed across real
    // arrowd processes (skipped for fault sweeps — the cluster has its own
    // process-granularity churn coverage in tests and the bench).
    let mut cluster_violations = Vec::new();
    if include_cluster && opts.fault_episodes == 0 {
        let arrowd = match locate_arrowd() {
            Ok(path) => path,
            Err(e) => {
                eprintln!("error: {e}\n(or skip the process tier with --no-cluster)");
                return ExitCode::from(2);
            }
        };
        let (cases, requests, violations) = run_cluster_subset(&ClusterDriver::new(arrowd));
        println!(
            "cluster subset: {cases} fixed-seed cases / {requests} requests across real arrowd \
             processes; {} violations",
            violations.len()
        );
        cluster_violations = violations;
    }

    if let Some(dir) = &opts.trace_dir {
        println!(
            "causal traces: {}/case-<seed>.trace.json (probed sim tier, Chrome trace-event JSON)",
            dir.display()
        );
    }
    println!(
        "ran {} cases / {} requests; per-tier: {}",
        report.cases,
        report.total_requests,
        report
            .tier_counts
            .iter()
            .map(|(t, c)| format!("{t}={c}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    if report.fault_events > 0 {
        println!(
            "injected {} fault events; observed {} token regenerations across tiers",
            report.fault_events, report.token_regenerations,
        );
    }
    if report.all_passed() && cluster_violations.is_empty() {
        println!("PASS: zero invariant violations across all tiers");
        return ExitCode::SUCCESS;
    }
    for v in &cluster_violations {
        println!("FAIL cluster subset: {v}");
    }
    for failure in &report.failures {
        println!(
            "FAIL case {} (seed {}, {} requests after shrinking):",
            failure.index,
            failure.case.spec.seed,
            failure.case.requests.len()
        );
        for v in &failure.violations {
            println!("  {v}");
        }
        if let Some(path) = &failure.replay_path {
            println!(
                "  replay: cargo run --release -p arrow-bench --bin conformance -- --replay {path}"
            );
        }
    }
    ExitCode::FAILURE
}
