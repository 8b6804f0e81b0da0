//! Metric collection, the human-readable table, and the final JSON line.
//!
//! The metric names here are the benchmark's contract with `BENCHMARK.json`
//! (`run.py --self-check` asserts the two lists agree): every run reports
//! every end-to-end metric with `--trace 0` and every per-layer metric with
//! `--trace 1`, on every workload. What each name measures on each workload
//! is documented in `perfbench/README.md`.

use crate::stats::percentile;
use crate::Args;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("prepare_s", "s"),
    ("cold_s", "s"),
    ("p50_ms", "ms"),
    ("high_p50_ms", "ms"),
    ("capacity_qps", "1/s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Measured in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.read_s", "s"),
    ("io.read_mb_per_s", "MB/s"),
    ("plan.prepare_s", "s"),
    ("plan.clone_ms", "ms"),
    ("plan.select_ms", "ms"),
    ("bank.build_s", "s"),
    ("svd.thin_calls", "count"),
    ("validate.scan_ms", "ms"),
    ("validate.gb_per_s", "GB/s"),
    ("validate.pct_read_bw", "%"),
    ("select.gather_us", "us"),
    ("xcorr.fused_ms", "ms"),
    ("xcorr.gflop_s", "GFLOP/s"),
    ("xcorr.batched_us.q1", "us"),
    ("xcorr.batched_us.q16", "us"),
    ("plan.batch_us_per_query.q1", "us"),
    ("plan.batch_us_per_query.q16", "us"),
    ("match.scores_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.batch_fill", "ratio"),
    ("serve.queue_depth_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.submit_us_p99", "us"),
    ("serve.refused", "count"),
    ("serve.shed", "count"),
    ("serve.quarantined", "count"),
    ("serve.respawns", "count"),
    ("serve.respawns_per_panic", "ratio"),
    ("gen.late_ms_p99", "ms"),
    ("gen.late_ms_max", "ms"),
    ("gen.recv_err_bound_us", "us"),
    ("trace.overhead_pct", "%"),
    ("host.read_gb_s", "GB/s"),
    ("host.fma_gflop_s", "GFLOP/s"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: usize,
    /// What the value is on this workload.
    pub note: String,
}

/// Everything one run measured and checked.
pub struct Report {
    trace: bool,
    workload: String,
    metrics: Vec<Metric>,
    /// Extra named figures printed in the table but not in the JSON line
    /// (workload-specific metric names, tails, accuracy).
    extras: Vec<Metric>,
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report {
            trace: args.trace,
            workload: args.workload.clone(),
            metrics: Vec::new(),
            extras: Vec::new(),
            lines: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a contract metric (end-to-end or per-layer, by name).
    pub fn metric(&mut self, name: &str, value: f64, samples: usize, note: impl Into<String>) {
        let unit = unit_of(name);
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
            note: note.into(),
        });
    }

    /// Records percentile `q` (0 for the best, 0.5 for the median) of
    /// timing samples given in ms, in the metric's unit (`s` or `ms`).
    pub fn timing(&mut self, name: &str, samples_ms: &[f64], q: f64, note: &str) {
        let scale = if unit_of(name) == "s" { 1e-3 } else { 1.0 };
        let value = percentile(samples_ms, q) * scale;
        self.metric(name, value, samples_ms.len(), note);
    }

    /// Records percentile `q` of timing samples (ms) as a printed figure.
    pub fn tail(&mut self, name: &str, samples_ms: &[f64], q: f64, note: &str) {
        let value = percentile(samples_ms, q);
        self.extra(name, value, "ms", samples_ms.len(), note);
    }

    /// Records a figure that is printed but not part of the JSON contract.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str, samples: usize, note: &str) {
        self.extras.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
            note: note.to_string(),
        });
    }

    /// A free-form line for the human-readable section.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Counts one checked operation.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts a failed operation (error, refusal, or wrong output).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        // The first few are enough to diagnose a run.
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED: {}", what.into());
        }
    }

    pub fn all_correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Peak resident set size of this process so far.
    pub fn set_gauge_rss(&mut self) {
        if self.trace {
            return;
        }
        if let Some(mb) = crate::host::peak_rss_mb() {
            self.metric(
                "rss_peak_mb",
                mb,
                1,
                "VmHWM of the benchmark process (setup, program and load generator)",
            );
        }
    }

    pub fn print_table(&self) {
        println!(
            "workload {}  mode {}",
            self.workload,
            if self.trace {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            }
        );
        for l in &self.lines {
            println!("  {l}");
        }
        let print = |m: &Metric| {
            println!(
                "  {:<30} {:>16} {:<8} n={:<7} {}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.samples,
                m.note
            )
        };
        println!("  -- contract metrics --");
        for m in &self.metrics {
            print(m);
        }
        if !self.extras.is_empty() {
            println!("  -- workload figures --");
            for m in &self.extras {
                print(m);
            }
        }
        let share = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            0.0
        };
        println!(
            "  failed_share {share} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
    }

    /// The final JSON line: exactly the contract metrics of this mode.
    pub fn json_line(&self) -> Result<String, String> {
        let table = if self.trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(m.value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.all_correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Unit of a contract metric.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's metric tables"))
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_digits_and_stay_numbers() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
        assert_eq!(json_number(1e-9), "0.000000001");
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
