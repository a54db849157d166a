//! Metric names, units, summary statistics and the result line.
//!
//! Every metric the benchmark can print is declared once in [`END_TO_END`]
//! or [`PER_LAYER`] with its unit; a run fills a [`Metrics`] map and the
//! printer refuses names that were not declared, so the JSON line and
//! `BENCHMARK.json` cannot drift apart silently.

use std::collections::BTreeMap;

/// End-to-end metrics printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_s_per_host_s", "sim-s/host-s"),
    ("candidates_per_s", "1/s"),
    ("candidate_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("recovered_tflops_per_gpu", "TFLOPS"),
    ("fill_goodput_pct", "%"),
];

/// Per-layer metrics printed with `--trace 1` on every workload (zero
/// where the workload does not reach the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.events", "count"),
    ("kernel.events_credited", "count"),
    ("kernel.self_s", "s"),
    ("kernel.ns_per_event", "ns"),
    ("core.stage_bubbles.count", "count"),
    ("core.stage_bubbles.self_s", "s"),
    ("core.stage_bubbles.ns_per_event", "ns"),
    ("core.iteration_end.count", "count"),
    ("core.iteration_end.self_s", "s"),
    ("core.iteration_end.ns_per_event", "ns"),
    ("core.device_failure.count", "count"),
    ("core.device_failure.self_s", "s"),
    ("core.device_failure.ns_per_event", "ns"),
    ("core.device_recovery.count", "count"),
    ("core.device_recovery.self_s", "s"),
    ("core.device_recovery.ns_per_event", "ns"),
    ("core.arrival.count", "count"),
    ("core.arrival.self_s", "s"),
    ("core.arrival.ns_per_event", "ns"),
    ("core.completion.count", "count"),
    ("core.completion.self_s", "s"),
    ("core.completion.ns_per_event", "ns"),
    ("core.new_s", "s"),
    ("core.prime_s", "s"),
    ("core.drain_s", "s"),
    ("ff.iterations_skipped", "count"),
    ("ff.skip_share", "ratio"),
    ("scheduler.evictions", "count"),
    ("scheduler.cross_job_dispatches", "count"),
    ("scheduler.peak_queue_depth", "count"),
    ("scheduler.rejected", "count"),
    ("convert.us_per_job", "us"),
    ("trace.generate_s", "s"),
    ("planner.calls", "count"),
    ("planner.us_per_call", "us"),
    ("planner.feasible_share", "ratio"),
    ("engine.runs", "count"),
    ("engine.us_per_run", "us"),
    ("engine.instructions_per_s", "1/s"),
    ("verify.calls", "count"),
    ("verify.us_per_call", "us"),
    ("verify.instructions_per_s", "1/s"),
    ("verify.certified_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("model.main_slowdown_pct", "%"),
    ("model.fill_jct_p50_s", "sim-s"),
    ("model.fill_jct_p95_s", "sim-s"),
    ("model.coarse_err_pct", "%"),
    ("sweep.candidate_p95_ms", "ms"),
];

/// The unit a declared metric carries, if it is declared.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Named metric values of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under a declared name.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name (a bug in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Keeps exactly the metrics of `table`, filling absent ones with 0.
    pub fn restricted_to(&self, table: &[(&'static str, &'static str)]) -> Metrics {
        Metrics(
            table
                .iter()
                .map(|&(n, _)| (n, self.get(n).unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&n, &v)| (n, v))
    }
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name).unwrap_or("");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) render as 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_carries_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(name), "metric {name} declared twice");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside pfbench/");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn restriction_fills_every_declared_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        let e2e = m.restricted_to(END_TO_END);
        assert_eq!(e2e.iter().count(), END_TO_END.len());
        assert_eq!(e2e.get("setup_s"), Some(1.5));
        assert_eq!(m.restricted_to(PER_LAYER).get("setup_s"), None);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
