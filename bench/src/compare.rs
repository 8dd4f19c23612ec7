//! `bench compare A.json B.json`: hold result set B against baseline A.
//!
//! Prints every (workload, metric) pair present in both files with both
//! values and the relative change. End-to-end metrics of untraced runs are
//! checked against their bound — B may be worse than A by at most that share
//! of A — and any pair outside it makes the command exit non-zero. Per-layer
//! rows, and everything from traced runs, are informational.

use crate::json::Json;
use crate::report::format_value;
use crate::spec::{self, Better};

/// One compared pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub traced: bool,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative = better).
    /// `None` when A is 0 and no share exists.
    pub worse_by: Option<f64>,
    /// The bound that applies, for gated rows.
    pub bound: Option<f64>,
}

impl Row {
    /// A gated row whose bound B breaks.
    pub fn regressed(&self) -> bool {
        match (self.bound, self.worse_by) {
            (Some(bound), Some(worse)) => worse > bound,
            // A gated metric that was 0 has no share to compare; any
            // worsening at all counts.
            (Some(_), None) => self.a != self.b,
            _ => false,
        }
    }
}

fn results_of(doc: &Json) -> Result<&[Json], String> {
    doc.get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no \"results\" array: not a bench result file".to_string())
}

/// Compare two parsed result files.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for ra in results_of(a)? {
        let workload = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
        let traced = ra.get("traced") == Some(&Json::Bool(true));
        let Some(rb) = results_of(b)?.iter().find(|rb| {
            rb.get("workload").and_then(Json::as_str) == Some(workload)
                && (rb.get("traced") == Some(&Json::Bool(true))) == traced
        }) else {
            continue;
        };
        let metrics_a = ra.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, entry) in metrics_a {
            let value = |e: &Json| e.get("value").and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (
                value(entry),
                rb.get("metrics").and_then(|m| m.get(name)).and_then(value),
            ) else {
                continue;
            };
            let spec = spec::metric(name);
            let worse_by = (va != 0.0).then(|| match spec.map(|s| s.better) {
                Some(Better::Higher) => (va - vb) / va.abs(),
                _ => (vb - va) / va.abs(),
            });
            rows.push(Row {
                workload: workload.to_string(),
                traced,
                metric: name.clone(),
                a: va,
                b: vb,
                worse_by,
                bound: spec.and_then(|s| s.bound).filter(|_| !traced),
            });
        }
    }
    Ok(rows)
}

/// The rows as an aligned table, gated rows marked.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<32} {:>16} {:>16} {:>9} {:>7}  {}\n",
        "workload", "metric", "A", "B", "worse by", "bound", "verdict"
    );
    for r in rows {
        let worse = r
            .worse_by
            .map_or("n/a".to_string(), |w| format!("{:+.1}%", w * 100.0));
        let (bound, verdict) = match r.bound {
            Some(b) if r.regressed() => (format!("{:.0}%", b * 100.0), "REGRESSED"),
            Some(b) => (format!("{:.0}%", b * 100.0), "ok"),
            None => ("-".to_string(), "info"),
        };
        out.push_str(&format!(
            "{:<16} {:<32} {:>16} {:>16} {:>9} {:>7}  {}\n",
            if r.traced {
                format!("{}*", r.workload)
            } else {
                r.workload.clone()
            },
            r.metric,
            format_value(r.a),
            format_value(r.b),
            worse,
            bound,
            verdict
        ));
    }
    let gated = rows.iter().filter(|r| r.bound.is_some()).count();
    let regressed = rows.iter().filter(|r| r.regressed()).count();
    out.push_str(&format!(
        "{gated} end-to-end pairs checked, {regressed} outside their bound; \
         {} informational rows (* = traced run)\n",
        rows.len() - gated
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(workload, traced, [(metric, value)])` per result.
    type Results<'a> = [(&'a str, bool, &'a [(&'a str, f64)])];

    fn file(results: &Results) -> Json {
        Json::obj([(
            "results",
            Json::Arr(
                results
                    .iter()
                    .map(|(w, traced, metrics)| {
                        Json::obj([
                            ("workload", Json::str(*w)),
                            ("traced", Json::Bool(*traced)),
                            (
                                "metrics",
                                Json::obj(
                                    metrics
                                        .iter()
                                        .map(|(n, v)| (*n, Json::obj([("value", Json::Num(*v))]))),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let a = file(&[(
            "net-closed-k1",
            false,
            &[
                ("ops_per_s", 1000.0),
                ("cpu_us_per_op", 400.0),
                ("client.samples", 9.0),
            ],
        )]);
        let within = file(&[(
            "net-closed-k1",
            false,
            &[
                ("ops_per_s", 950.0),
                ("cpu_us_per_op", 420.0),
                ("client.samples", 1.0),
            ],
        )]);
        let rows = compare(&a, &within).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| !r.regressed()));
        assert!(
            (rows[0].worse_by.unwrap() - 0.05).abs() < 1e-12,
            "higher is better: a drop is worse"
        );
        assert!(
            (rows[1].worse_by.unwrap() - 0.05).abs() < 1e-12,
            "lower is better: a rise is worse"
        );
        assert_eq!(rows[2].bound, None, "per-layer rows are informational");

        let slower = file(&[(
            "net-closed-k1",
            false,
            &[("ops_per_s", 700.0), ("cpu_us_per_op", 300.0)],
        )]);
        let rows = compare(&a, &slower).unwrap();
        assert!(rows[0].regressed());
        assert!(!rows[1].regressed(), "an improvement never regresses");
        assert!(render(&rows).contains("REGRESSED"));
    }

    #[test]
    fn traced_results_and_unmatched_workloads_are_not_gated() {
        let a = file(&[
            ("net-closed-k1", true, &[("ops_per_s", 1000.0)]),
            ("net-churn", false, &[("ops_per_s", 1000.0)]),
        ]);
        let b = file(&[("net-closed-k1", true, &[("ops_per_s", 10.0)])]);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bound, None);
        assert!(!rows[0].regressed());
        assert!(compare(&Json::Null, &b).is_err());
    }

    #[test]
    fn identical_files_agree_exactly() {
        let a = file(&[(
            "sim-open-k1",
            false,
            &[("setup_s", 0.02), ("ops_per_s", 2.0e6)],
        )]);
        let rows = compare(&a, &a).unwrap();
        assert!(rows
            .iter()
            .all(|r| r.worse_by == Some(0.0) && !r.regressed()));
    }
}
