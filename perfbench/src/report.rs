//! The metric catalogue and the result line the benchmark prints.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// End-to-end metrics, printed by the timed run (`--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_msgs_per_s", "msgs/s"),
    ("gain_vs_baseline", "x"),
    ("delivered_ratio", "fraction"),
    ("bits_per_symbol", "bits/symbol"),
    ("energy_uj_per_msg", "uJ"),
    ("ident_exact_ratio", "fraction"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`): name, unit.
/// Times are per pass over the workload's inputs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.builds", "count"),
    ("scenario.build_ms", "ms"),
    ("identification.calls", "count"),
    ("identification.busy_ms", "ms"),
    ("identification.call_ms_p50", "ms"),
    ("identification.bit_slots", "count"),
    ("identification.air_ms", "ms"),
    ("identification.restarts", "count"),
    ("transfer.calls", "count"),
    ("transfer.busy_ms", "ms"),
    ("transfer.ms_per_slot", "ms/slot"),
    ("transfer.slots", "count"),
    ("transfer.tag_transmissions", "count"),
    ("transfer.air_ms", "ms"),
    ("transfer.incomplete", "count"),
    ("session.self_ms", "ms"),
    ("baseline.busy_ms", "ms"),
    ("recovery.busy_ms", "ms"),
    ("recovery.overhead_ratio", "ratio"),
    ("recovery.extra_slots", "count"),
    ("recovery.delivery_mismatches", "count"),
    ("fleet.wall_ms", "ms"),
    ("fleet.session_busy_ms", "ms"),
    ("fleet.build_ms", "ms"),
    ("fleet.serial_ms", "ms"),
    ("fleet.executor_idle_ms", "ms"),
    ("fleet.executor_efficiency", "ratio"),
    ("fleet.carried_over", "count"),
    ("fleet.lost", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Sessions run, counting every pass and every scheme.
    pub attempted: usize,
    failed: BTreeSet<String>,
    failures: Vec<String>,
    values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Marks the session `key` failed because of `why`.  A session that
    /// fails several checks counts once.
    pub fn fail(&mut self, key: impl Into<String>, why: impl Into<String>) {
        let key = key.into();
        self.failures.push(format!("{key}: {}", why.into()));
        self.failed.insert(key);
    }

    /// Sessions that failed at least one check.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failed.len()
    }

    /// Every failed check, in the order found.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0.0`.
        self.values.push((name, value + 0.0));
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// The result line: every metric of `catalogue`, in order.  A metric
    /// that was not recorded or is not finite fails the run.
    pub fn result_line(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                other => {
                    self.fail(format!("metric/{name}"), format!("not measured: {other:?}"));
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed() == 0,
            self.attempted.max(1),
            self.failed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: a letter or digit first, then
    /// at most 63 more letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_reports_missing_metrics_as_failures() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.set("setup_s", 0.25);
        let line = report.result_line(&[("setup_s", "s"), ("sessions_per_s", "1/s")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));

        let mut report = Report {
            attempted: 2,
            ..Report::default()
        };
        report.set("setup_s", 1.0);
        report.fail("round1/buzz/0", "outcome differs");
        report.fail("round1/buzz/0", "score differs");
        assert_eq!(report.failed(), 1);
        assert_eq!(report.failures().len(), 2);
        let line = report.result_line(&[("setup_s", "s")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }
}
