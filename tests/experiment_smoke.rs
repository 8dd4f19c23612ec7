//! Smoke tests for the experiment harness: every figure-reproduction entry point runs
//! end to end at a reduced scale and produces sane, non-degenerate output. (The figure
//! binaries run the full sweeps; `tests/figures/check.sh` pins their output at fixed
//! arguments.)

use arrow_bench::{async_vs_sync, figure_10, figure_11, figure_9, ratio_sweep, Table};

#[test]
fn figure_10_small_sweep_produces_monotone_system_sizes() {
    let rows = figure_10(&[2, 4, 8], 20, 0.2);
    assert_eq!(rows.len(), 3);
    for w in rows.windows(2) {
        assert!(w[0].processors < w[1].processors);
    }
    for row in &rows {
        assert!(row.arrow_makespan > 0.0);
        assert!(row.centralized_makespan > 0.0);
        assert!(row.arrow_mean_latency >= 0.0);
    }
}

#[test]
fn figure_11_hops_are_nonnegative_and_finite() {
    let rows = figure_11(&[2, 8], 20, 0.2);
    for row in &rows {
        assert!(row.arrow_hops_per_request.is_finite());
        assert!(row.arrow_hops_per_request >= 0.0);
        assert!(row.centralized_hops_per_request <= 2.0 + 1e-9);
    }
}

#[test]
fn figure_9_small_instances_work() {
    let rows = figure_9(&[16]);
    assert_eq!(rows.len(), 1);
    assert!(rows[0].ratio >= 1.0);
    assert!(rows[0].requests > 10);
}

#[test]
fn ratio_sweep_and_async_comparison_run() {
    let rows = ratio_sweep(9, 12, 7);
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| r.report.certifies_bound()));

    let sync_async = async_vs_sync(6, 10, &[3]);
    assert_eq!(sync_async.len(), 1);
}

#[test]
fn tables_render_experiment_rows() {
    let rows = figure_10(&[2, 4], 10, 0.2);
    let mut table = Table::new(&["n", "arrow", "central"]);
    for r in &rows {
        table.push(vec![
            r.processors.to_string(),
            format!("{:.2}", r.arrow_makespan),
            format!("{:.2}", r.centralized_makespan),
        ]);
    }
    let rendered = table.render();
    assert!(rendered.contains("arrow"));
    assert!(rendered.lines().count() >= 4);
}
