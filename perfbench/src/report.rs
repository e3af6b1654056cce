//! The metric catalogue and the run's result line.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), with units, as `BENCHMARK.json`
/// declares them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("pass_s", "s"),
    ("pass_tail_s", "s"),
    ("pass_p1_s", "s"),
    ("peak_heap_bytes", "bytes"),
    ("qps_max", "1/s"),
    ("latency_p50_s", "s"),
    ("setup_s", "s"),
];

/// Stages of the `bds_seq` profile report, by metric name.
pub const SEQ_STAGES: [(&str, bds_seq::Stage); 7] = [
    ("scan_eager", bds_seq::Stage::ScanEager),
    ("filter_eager", bds_seq::Stage::FilterEager),
    ("flatten_eager", bds_seq::Stage::FlattenEager),
    ("force", bds_seq::Stage::Force),
    ("reduce", bds_seq::Stage::Reduce),
    ("for_each", bds_seq::Stage::ForEach),
    ("count", bds_seq::Stage::Count),
];

/// Every per-layer metric (`--trace 1`), with units. A workload that
/// does not exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("pool.entry_s", "s"),
        ("pool.exit_s", "s"),
        ("pool.jobs", "count"),
        ("pool.steals", "count"),
        ("pool.steal_success", "ratio"),
        ("pool.parks", "count"),
        ("pool.idle_share", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (stage, _) in SEQ_STAGES {
        m.push((format!("seq.{stage}.s"), "s"));
        m.push((format!("seq.{stage}.blocks"), "count"));
    }
    for (n, u) in [
        ("cost.decisions", "count"),
        ("cost.blocks_per_decision", "count"),
        ("plan.lookup_s", "s"),
        ("plan.hit_rate", "ratio"),
        ("plan.exec_s", "s"),
        ("plan.exec_p99_s", "s"),
        ("service.submit_s", "s"),
        ("service.wait_s", "s"),
        ("service.wait_p99_s", "s"),
        ("service.complete_s", "s"),
        ("service.rejected.queue_full", "count"),
        ("service.rejected.deadline", "count"),
        ("service.rejected.circuit_open", "count"),
        ("service.rejected.shutdown", "count"),
        ("service.backlog", "count"),
    ] {
        m.push((n.to_string(), u));
    }
    for app in crate::paper::BID_APPS.iter().chain(&crate::paper::RAD_APPS) {
        m.push((format!("workloads.{app}.s"), "s"));
        m.push((format!("workloads.{app}.peak_bytes"), "bytes"));
    }
    m.push(("trace_overhead.pass_s".to_string(), "ratio"));
    m.push(("trace_overhead.latency_p50_s".to_string(), "ratio"));
    m
}

/// Is `name` a legal metric name: 1–64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit?
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Failure-name prefixes that mean a wrong output, as opposed to a
/// refused or failed operation.
const WRONG: [&str; 2] = ["wrong_output", "nondeterministic_input"];

/// One run's results.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations by name (a wrong output, a refusal, an error
    /// with its payload text).
    pub failures: BTreeMap<String, u64>,
    /// Extra JSON fields for the detail line: `(key, raw JSON value)`.
    detail: Vec<(String, String)>,
}

impl Report {
    /// Set metric `name`.
    ///
    /// # Panics
    /// If the name is not a legal metric name.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// Keep only the metrics named in `names`; the others move to the
    /// detail line.
    pub fn retain(&mut self, names: &[String]) {
        let (keep, moved): (BTreeMap<_, _>, BTreeMap<_, _>) = std::mem::take(&mut self.metrics)
            .into_iter()
            .partition(|(k, _)| names.contains(k));
        self.metrics = keep;
        for (k, (v, _)) in moved {
            self.detail(&k, json_num(v));
        }
    }

    /// The metric names set so far.
    pub fn names(&self) -> Vec<String> {
        self.metrics.keys().cloned().collect()
    }

    /// Count `n` failures named `name`.
    pub fn fail(&mut self, name: &str, n: u64) {
        if n > 0 {
            *self.failures.entry(name.to_string()).or_default() += n;
        }
    }

    /// Merge a failure map.
    pub fn fail_all(&mut self, failures: &BTreeMap<String, u64>) {
        for (name, &n) in failures {
            self.fail(name, n);
        }
    }

    /// Add a detail field; `json` must be a JSON value.
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// No output was wrong.
    pub fn correct(&self) -> bool {
        !self
            .failures
            .keys()
            .any(|k| WRONG.iter().any(|w| k.starts_with(w)))
    }

    /// The detail line: failures by name and the extra fields.
    pub fn detail_line(&self) -> String {
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        let mut out = format!("{{\"failures\":{{{}}}", failures.join(","));
        for (k, v) in &self.detail {
            out.push_str(&format!(",{}:{v}", json_str(k)));
        }
        out.push('}');
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, &(v, u))| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(k),
                    json_num(v),
                    json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(",")
        )
    }
}

/// A JSON number; a non-finite value (a latency that never ended) is
/// written as 1e300 so the line stays valid JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_metric_name_is_legal() {
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
        {
            assert!(valid_name(&name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("pass_s", 0.5, "s");
        r.fail("error.panicked: \"boom\"", 1);
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":1,\"metrics\":{\"pass_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert!(r.detail_line().contains("\\\"boom\\\""));
        r.fail("wrong_output.shape1", 1);
        assert!(!r.correct());
    }
}
