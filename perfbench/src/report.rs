//! Metric catalogues, the run's outcome, and its output: human-readable
//! lines, a host block, then one JSON object as the last stdout line.

use crate::stats::{beyond, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// End-to-end metrics (name, unit), printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("tasks_per_s", "tasks/s"),
    ("latency_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (name, unit), printed by every traced run. A layer
/// a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("proto.decode_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.req_bytes", "bytes"),
    ("proto.resp_bytes", "bytes"),
    ("proto.writes_per_frame", "count"),
    ("fingerprint.us", "us"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.reply_clone_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("overload.offer_pop_us", "us"),
    ("overload.refused", "count"),
    ("core.schedule_us", "us"),
    ("core.flb_us", "us"),
    ("core.etf_us", "us"),
    ("core.mcp_us", "us"),
    ("core.ep_selections", "count"),
    ("core.non_ep_selections", "count"),
    ("core.demotions", "count"),
    ("core.list_insertions", "count"),
    ("core.max_ready", "count"),
    ("kernel.build_s", "s"),
    ("kernel.bottom_levels_s", "s"),
    ("kernel.init_s", "s"),
    ("kernel.select_s", "s"),
    ("kernel.ep_selections", "count"),
    ("kernel.non_ep_selections", "count"),
    ("kernel.demotions", "count"),
    ("kernel.list_insertions", "count"),
    ("kernel.max_ready", "count"),
    ("kernel.csr_bytes", "bytes"),
    ("kernel.convert_us", "us"),
    ("kernel.flb_us", "us"),
    ("journal.encode_us", "us"),
    ("journal.append_us", "us"),
    ("journal.bytes_per_req", "bytes"),
    ("journal.appended", "count"),
    ("journal.dropped", "count"),
    ("server.residual_us", "us"),
    ("client.latency_p99_us", "us"),
    ("client.beyond_p99", "count"),
    ("client.samples", "count"),
    ("client.completed_rps", "1/s"),
    ("client.latency_p90_us", "us"),
    ("trace.overhead_latency_p50_us", "us"),
    ("trace.overhead_throughput_rps", "1/s"),
    ("host.steal_ticks", "ticks"),
    ("host.nproc", "count"),
];

/// What one run measured and found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// Every failed check, in words.
    pub problems: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Records an informational line.
    pub fn info(&mut self, key: &'static str, value: String) {
        self.info.push((key, value));
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Records sample counts and the samples beyond each reported
    /// percentile of an ascending latency vector.
    pub fn latency_counts(&mut self, sorted_us: &[f64]) {
        let mut line = format!("{} samples", sorted_us.len());
        for pct in [50, 90, 99] {
            let v = percentile(sorted_us, pct);
            let _ = write!(
                line,
                "; p{pct} {v:.3} us with {} beyond",
                beyond(sorted_us, v)
            );
        }
        self.info("latency", line);
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Renders the whole report; the last line is the result object.
    #[must_use]
    pub fn render(&self, trace: bool, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {header}");
        let _ = writeln!(out, "# host {}", host_block());
        for (k, v) in &self.info {
            let _ = writeln!(out, "# {k}: {v}");
        }
        for (name, unit) in END_TO_END {
            if let Some(v) = self.e2e.get(name) {
                let _ = writeln!(out, "{name:<30} {v:>16.4} {unit}");
            }
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<30} {rate:>16.6} ratio ({} of {} ops)",
            "error_rate", self.failed, self.attempted
        );
        if trace {
            for (name, unit) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                let _ = writeln!(out, "{name:<30} {v:>16.4} {unit}");
            }
        }
        for p in &self.problems {
            let _ = writeln!(out, "# FAILED: {p}");
        }
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let source = if trace { &self.layers } else { &self.e2e };
        let mut correct = self.correct();
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            let v = match source.get(name) {
                Some(v) if v.is_finite() => *v,
                // A layer the workload does not run reads 0; a missing
                // end-to-end figure means the run failed.
                None if trace => 0.0,
                _ => {
                    correct = false;
                    0.0
                }
            };
            metrics.push(format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#));
        }
        let _ = writeln!(
            out,
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// nproc, CPU model, rustc, build profile and git revision, as JSON.
#[must_use]
pub fn host_block() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let rev = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        r#"{{"nproc": {nproc}, "cpu_model": {}, "rustc": {}, "profile": "{profile}", "git_rev": {}}}"#,
        json_str(&crate::procfs::cpu_model()),
        json_str(&rustc),
        json_str(&rev)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn last_line_carries_exactly_the_catalogue() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.e2e(name, 1.25);
        }
        o.layer("cache.hit_ratio", 0.5);
        let text = o.render(false, "t");
        let last = text.lines().last().unwrap();
        assert!(last.starts_with(r#"{"correct": true, "attempted": 10, "failed": 0"#));
        assert_eq!(last.matches("\"unit\"").count(), END_TO_END.len());
        assert!(last.contains(r#""setup_s": {"value": 1.25, "unit": "s"}"#));
        let traced = o.render(true, "t");
        let last = traced.lines().last().unwrap();
        assert_eq!(last.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(last.contains(r#""cache.hit_ratio": {"value": 0.5, "unit": "ratio"}"#));
    }

    #[test]
    fn a_missing_end_to_end_metric_or_a_problem_is_incorrect() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.e2e("setup_s", 0.1);
        assert!(o
            .render(false, "t")
            .lines()
            .last()
            .unwrap()
            .contains(r#""correct": false"#));
        for (name, _) in END_TO_END {
            o.e2e(name, 1.0);
        }
        o.problem("digest mismatch".into());
        assert!(o
            .render(false, "t")
            .lines()
            .last()
            .unwrap()
            .contains(r#""correct": false"#));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
    }
}
