//! What one workload run produces, and how it is printed and stored.

use crate::json::Json;
use crate::spec::{self, END_TO_END, PER_LAYER};

/// The parameters of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// `--seconds`: the untraced measured window. A traced run measures
    /// [`spec::TRACED_WINDOW_SHARE`] of it per window.
    pub seconds: f64,
    pub traced: bool,
}

impl RunArgs {
    /// Length of one measured window of this run, in seconds.
    pub fn window_s(&self) -> f64 {
        if self.traced {
            self.seconds * spec::TRACED_WINDOW_SHARE
        } else {
            self.seconds
        }
    }
}

/// Everything one run of one workload measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    /// `(name, value)` in emission order; names come from [`spec`].
    pub metrics: Vec<(String, f64)>,
    /// Operations attempted in the measured windows (requests, acquires).
    pub attempted: u64,
    /// Operations that failed, were refused or were never granted.
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub violations: Vec<String>,
    /// Free-text context printed with the numbers (window lengths, sample
    /// counts, what the latency does and does not include).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, args: &RunArgs) -> Report {
        Report {
            workload,
            traced: args.traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric. The name must be in the catalogue; an unknown name is
    /// a bug in the benchmark and fails the run.
    pub fn put(&mut self, name: &str, value: f64) {
        if spec::metric(name).is_none() {
            self.violations
                .push(format!("metric {name} is not in the catalogue"));
        }
        if !value.is_finite() {
            self.violations
                .push(format!("metric {name} is not finite ({value})"));
        }
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Record an output check; `what` names the offender when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The human-readable block: every metric by name with its unit.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== {} ({}) ==\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            out.push_str(&format!("  # {note}\n"));
        }
        for (name, value) in &self.metrics {
            let m = spec::metric(name);
            out.push_str(&format!(
                "  {:<34} {:>18} {:<11} {}\n",
                name,
                format_value(*value),
                m.map_or("?", |m| m.unit),
                match m {
                    Some(m) if m.bound.is_some() => "[end-to-end]",
                    _ => "",
                }
            ));
        }
        out.push_str(&format!(
            "  attempted {} failed {} correct {}\n",
            self.attempted,
            self.failed,
            self.correct()
        ));
        for v in &self.violations {
            out.push_str(&format!("  VIOLATION: {v}\n"));
        }
        out
    }

    fn metric_object(&self, names: &mut dyn Iterator<Item = (&str, f64)>) -> Json {
        Json::obj(names.map(|(name, value)| {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }))
    }

    /// The driver's result object: an untraced run carries every end-to-end
    /// metric, a traced run every per-layer metric (0 for a layer that is not
    /// on this workload's path).
    pub fn driver_line(&self) -> String {
        let table = if self.traced { PER_LAYER } else { END_TO_END };
        let metrics = self.metric_object(
            &mut table
                .iter()
                .map(|m| (m.name, self.get(m.name).unwrap_or(0.0))),
        );
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_line()
    }

    /// The full record for a result file: every metric this run measured.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                self.metric_object(&mut self.metrics.iter().map(|(n, v)| (n.as_str(), *v))),
            ),
        ])
    }
}

/// Six significant digits for reading; files keep every digit.
pub fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn args(traced: bool) -> RunArgs {
        RunArgs {
            seed: 1,
            seconds: 9.0,
            traced,
        }
    }

    #[test]
    fn driver_line_carries_exactly_the_contract_keys() {
        let mut r = Report::new("net-closed-k1", &args(false));
        r.put("setup_s", 0.0123);
        r.put("ops_per_s", 19000.5);
        r.put("cpu_us_per_op", 57.25);
        r.put("client.samples", 190000.0);
        r.attempted = 190000;
        let doc = parse(&r.driver_line()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.0123));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn traced_line_lists_every_per_layer_metric() {
        let mut r = Report::new("sim-open-k1", &args(true));
        r.put("run.sim_events", 24406.0);
        let doc = parse(&r.driver_line()).unwrap();
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |n: &str| {
            doc.get("metrics")
                .unwrap()
                .get(n)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(get("run.sim_events"), Some(24406.0));
        assert_eq!(get("cluster.launch_ms"), Some(0.0));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(1.0));
        assert!((args(true).window_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_names_non_finite_values_and_failed_checks_fail_the_run() {
        let mut r = Report::new("sim-open-k1", &args(false));
        r.put("no.such.metric", 1.0);
        assert!(!r.correct());
        let mut r = Report::new("sim-open-k1", &args(false));
        r.put("setup_s", f64::NAN);
        assert!(!r.correct());
        let mut r = Report::new("sim-open-k1", &args(false));
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "object 3 has no order".to_string());
        assert!(!r.correct());
        assert!(r.render_text().contains("VIOLATION: object 3 has no order"));
        assert_eq!(
            parse(&r.driver_line()).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn put_overwrites_and_values_format_readably() {
        let mut r = Report::new("sim-open-k1", &args(false));
        r.put("setup_s", 1.0);
        r.put("setup_s", 2.0);
        assert_eq!(r.metrics.len(), 1);
        assert_eq!(r.get("setup_s"), Some(2.0));
        assert_eq!(format_value(24406.0), "24406");
        assert_eq!(format_value(19000.52), "19000.5");
        assert_eq!(format_value(401.2534), "401.253");
        assert_eq!(format_value(0.0123456789), "0.012346");
    }
}
