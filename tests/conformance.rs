//! Acceptance tests for the cross-tier conformance harness: the CI smoke sweep —
//! 32 seeded cases through the simulator and the reactor runtime's three hostings
//! (four shards, one shard, one daemon per node) plus the centralized baseline, every invariant asserted — and
//! the replay/shrink machinery around it.

use arrow_conformance::{derive_spec, run_case, run_replay, ReplayCase, SweepOptions};

/// The CI smoke sweep: ≥ 32 shrunk-size seeded cases across the simulator and
/// the reactor runtime's three hostings, every invariant asserted, zero
/// violations.
#[test]
fn smoke_sweep_32_cases_across_all_three_tiers_is_violation_free() {
    let opts = SweepOptions::smoke();
    assert!(opts.cases >= 32);
    let report = arrow_conformance::run_sweep(&opts);
    assert!(
        report.all_passed(),
        "conformance violations: {:#?}",
        report.failures
    );
    assert_eq!(report.cases, 32);
    // Every tier (plus the centralized differential reference) actually ran on
    // every case — a sweep that silently skipped a tier must not pass. The
    // reactor tier runs three times: one runtime on four shards (memory hops
    // across shard threads), one runtime on one shard (memory hops on one
    // thread) and one daemon per node (every hop on the wire).
    for tier in ["sim", "sim-centralized", "net", "net-1shard", "net-wire"] {
        let count = report
            .tier_counts
            .iter()
            .find(|(t, _)| t == tier)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert_eq!(count, 32, "tier {tier} ran {count}/32 cases");
    }
    assert!(report.total_requests >= 32 * 4, "cases were non-trivial");
}

/// The replay file of any sweep case is a faithful one-command repro: text out,
/// parse back, re-run, same verdict (pass, here).
#[test]
fn replay_files_roundtrip_and_rerun() {
    let mut opts = SweepOptions::smoke();
    opts.include_net = false; // keep this test fast; the sweep test covers net
    for i in [0usize, 7, 19] {
        let case = ReplayCase::generate(derive_spec(&opts, i));
        let text = case.to_replay_text();
        let (tiers, violations) = run_replay(&text, &opts).expect("replay parses");
        assert!(tiers.contains(&"sim".to_string()));
        assert!(tiers.contains(&"sim-centralized".to_string()));
        assert!(violations.is_empty(), "case {i}: {violations:?}");
    }
}

/// Shrinking a failing case drops requests and nodes while the failure keeps
/// reproducing (checked here with a synthetic predicate, so the test does not
/// depend on a real protocol bug existing).
#[test]
fn shrinker_minimizes_against_the_real_case_runner() {
    let opts = SweepOptions::smoke();
    let case = ReplayCase::generate(derive_spec(&opts, 3));
    assert!(case.requests.len() > 2);
    // Predicate: "fails" while at least 2 requests survive — the shrinker must
    // land on exactly 2 and still produce a runnable case.
    let shrunk = arrow_conformance::shrink(&case, |c| c.requests.len() >= 2);
    assert_eq!(shrunk.requests.len(), 2);
    let (_, violations) = run_case(&shrunk, &opts);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Corrupt replay files are rejected with a line-accurate error, not a panic.
#[test]
fn corrupt_replay_files_error_cleanly() {
    let opts = SweepOptions::smoke();
    assert!(run_replay("", &opts).is_err());
    assert!(run_replay("arrow-conformance-replay v2\n", &opts).is_err());
    let err = run_replay("arrow-conformance-replay v1\nreq one two three\n", &opts).unwrap_err();
    assert!(err.contains("line 2"), "{err}");
}
