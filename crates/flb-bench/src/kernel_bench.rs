//! Experiment X15: the million-task kernel benchmark and its tracked
//! performance trajectory.
//!
//! The flat kernel (`flb-kernel`) exists to make FLB's
//! `O(V (log W + log P) + E)` bound *felt*: a million-task LU graph
//! scheduled in seconds on one core with zero steady-state allocations.
//! This module measures that —
//! streaming graph construction time, scheduling time, throughput in
//! tasks/second, peak RSS — and fixes the result in a stable JSON
//! artifact, `BENCH_07.json` with schema [`SCHEMA`], that CI re-measures
//! and gates against: a committed datapoint is a floor future changes
//! must respect.
//!
//! Every datapoint optionally carries the makespan ratio against the
//! reference `flb_core::FlbRun` on the identical graph; the kernel is
//! bit-exact, so the recorded ratio is `1.0` — a corruption canary, not a
//! quality score.

use crate::json::{self, quote, Value};
use crate::mem::peak_rss_kb;
use flb_core::{Flb, TieBreak};
use flb_graph::costs::{CostModel, Dist};
use flb_graph::gen::RandomLayeredSpec;
use flb_kernel::{FlatGraph, KernelRun};
use flb_sched::{Machine, Scheduler};
use flb_workloads::million;
use std::fmt::Write as _;
use std::time::Instant;

/// Schema identifier of the benchmark artifact files.
pub const SCHEMA: &str = "flb-bench-trajectory/v1";

/// Default regression tolerance of the CI gate: a measured throughput more
/// than this fraction below the committed baseline fails the job.
pub const DEFAULT_MAX_REGRESSION: f64 = 0.25;

/// Workload families with a streaming flat generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatFamily {
    /// Column-oriented LU decomposition (`flb_workloads::million::lu_flat`).
    Lu,
    /// Blocked Cholesky factorisation.
    Cholesky,
    /// Random layered DAG.
    Layered,
}

impl FlatFamily {
    /// Stable lowercase name (also the artifact/CLI spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlatFamily::Lu => "lu",
            FlatFamily::Cholesky => "cholesky",
            FlatFamily::Layered => "layered",
        }
    }
}

impl std::str::FromStr for FlatFamily {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lu" => Ok(FlatFamily::Lu),
            "cholesky" => Ok(FlatFamily::Cholesky),
            "layered" => Ok(FlatFamily::Layered),
            other => Err(format!("unknown family {other:?} (lu|cholesky|layered)")),
        }
    }
}

/// One benchmark configuration.
#[derive(Clone, Debug)]
pub struct KernelBenchSpec {
    /// Workload family.
    pub family: FlatFamily,
    /// Target task count (the generator reaches at least this many).
    pub tasks: usize,
    /// Processor count (homogeneous machine).
    pub procs: usize,
    /// Target communication-to-computation ratio.
    pub ccr: f64,
    /// RNG seed for costs (and topology, where the family is random).
    pub seed: u64,
    /// Whether to replay the graph through the reference scheduler and
    /// record the makespan ratio (exactness canary; costs a slower run).
    pub reference: bool,
}

impl KernelBenchSpec {
    /// Datapoint name: family plus humanised task count, e.g. `lu-1m`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}-{}", self.family.name(), human_count(self.tasks))
    }

    /// The committed trajectory: the CI-gated 100k point and the headline
    /// million-task point, both LU at CCR 1.0 on 64 processors.
    #[must_use]
    pub fn trajectory() -> Vec<Self> {
        vec![Self::at_scale(100_000), Self::at_scale(1_000_000)]
    }

    /// The trajectory configuration at a given task count.
    #[must_use]
    pub fn at_scale(tasks: usize) -> Self {
        KernelBenchSpec {
            family: FlatFamily::Lu,
            tasks,
            procs: 64,
            ccr: 1.0,
            seed: 1999,
            reference: true,
        }
    }
}

// `usize::is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.85.
#[allow(clippy::manual_is_multiple_of)]
pub(crate) fn human_count(n: usize) -> String {
    if n >= 1_000_000 && n % 1_000_000 == 0 {
        format!("{}m", n / 1_000_000)
    } else if n >= 1_000 && n % 1_000 == 0 {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

/// One measured benchmark result.
#[derive(Clone, Debug)]
pub struct KernelDatapoint {
    /// Stable datapoint name (the baseline-matching key).
    pub name: String,
    /// Workload family name.
    pub family: String,
    /// Actual task count `V` of the generated graph.
    pub tasks: usize,
    /// Edge count `E`.
    pub edges: usize,
    /// Processor count.
    pub procs: usize,
    /// Target CCR.
    pub ccr: f64,
    /// RNG seed.
    pub seed: u64,
    /// Seconds to stream-build the graph (CSR construction incl. costs).
    pub build_seconds: f64,
    /// Seconds for the full FLB run (arena setup + bottom levels + loop).
    pub schedule_seconds: f64,
    /// `tasks / schedule_seconds`.
    pub tasks_per_second: f64,
    /// Kernel makespan of the produced schedule.
    pub makespan: u64,
    /// Kernel makespan / reference makespan (`None` when the reference
    /// replay was skipped; `1.0` otherwise, by bit-exactness).
    pub makespan_ratio_vs_reference: Option<f64>,
    /// Peak RSS of the process in kB (`None` off procfs platforms).
    pub peak_rss_kb: Option<u64>,
}

/// Streams a flat benchmark graph of the given family and scale (shared
/// by the kernel and `par` bench bins, so their oracles see the same
/// bits).
#[must_use]
pub fn build_flat(family: FlatFamily, tasks: usize, ccr: f64, seed: u64) -> FlatGraph {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr,
    };
    match family {
        FlatFamily::Lu => million::lu_flat(million::lu_order_for_tasks(tasks), &model, seed),
        FlatFamily::Cholesky => {
            million::cholesky_flat(million::cholesky_tiles_for_tasks(tasks), &model, seed)
        }
        FlatFamily::Layered => {
            // Narrow layers keep the per-task candidate-predecessor window
            // bounded, so E stays O(V) even at a million tasks.
            let spec_l = RandomLayeredSpec {
                tasks,
                layers: (tasks / 8).max(2),
                edge_prob: 0.15,
                max_skip: 2,
            };
            million::random_layered_flat(&spec_l, &model, seed)
        }
    }
}

fn build_graph(spec: &KernelBenchSpec) -> FlatGraph {
    build_flat(spec.family, spec.tasks, spec.ccr, spec.seed)
}

/// Runs one benchmark configuration to a measured datapoint.
///
/// The schedule phase is measured best-of-three (full arena setup plus the
/// scheduling loop each time): the CI regression gate compares throughputs
/// across machines and runs, and a single-shot wall time is noisy enough
/// to trip a 25% tolerance on scheduler-noise alone.
#[must_use]
pub fn run(spec: &KernelBenchSpec) -> KernelDatapoint {
    let t0 = Instant::now();
    let graph = build_graph(spec);
    let build_seconds = t0.elapsed().as_secs_f64();

    let slow = vec![1u64; spec.procs];
    let mut schedule_seconds = f64::INFINITY;
    let mut kernel = KernelRun::new(&graph, &slow, TieBreak::BottomLevel);
    for _ in 0..3 {
        let t1 = Instant::now();
        kernel = KernelRun::new(&graph, &slow, TieBreak::BottomLevel);
        kernel.run();
        schedule_seconds = schedule_seconds.min(t1.elapsed().as_secs_f64());
    }
    assert!(kernel.is_complete(), "kernel scheduled every task");

    let makespan = kernel.makespan();
    let makespan_ratio_vs_reference = spec.reference.then(|| {
        let g = graph.to_task_graph();
        let machine = Machine::new(spec.procs);
        makespan as f64 / Flb::default().schedule(&g, &machine).makespan() as f64
    });

    KernelDatapoint {
        name: spec.name(),
        family: spec.family.name().to_string(),
        tasks: graph.num_tasks(),
        edges: graph.num_edges(),
        procs: spec.procs,
        ccr: spec.ccr,
        seed: spec.seed,
        build_seconds,
        schedule_seconds,
        tasks_per_second: graph.num_tasks() as f64 / schedule_seconds,
        makespan,
        makespan_ratio_vs_reference,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Renders datapoints as the `BENCH_*.json` artifact document for the
/// `kernel` bench.
#[must_use]
pub fn to_json(points: &[KernelDatapoint]) -> String {
    to_json_named("kernel", points)
}

/// Renders datapoints as a `BENCH_*.json` artifact document under the
/// given bench name (the schema is shared across bench bins).
#[must_use]
pub fn to_json_named(bench: &str, points: &[KernelDatapoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", quote(SCHEMA));
    let _ = writeln!(out, "  \"bench\": {},", quote(bench));
    out.push_str("  \"datapoints\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": {},", quote(&p.name));
        let _ = writeln!(out, "      \"family\": {},", quote(&p.family));
        let _ = writeln!(out, "      \"tasks\": {},", p.tasks);
        let _ = writeln!(out, "      \"edges\": {},", p.edges);
        let _ = writeln!(out, "      \"procs\": {},", p.procs);
        let _ = writeln!(out, "      \"ccr\": {},", p.ccr);
        let _ = writeln!(out, "      \"seed\": {},", p.seed);
        let _ = writeln!(out, "      \"build_seconds\": {:.6},", p.build_seconds);
        let _ = writeln!(
            out,
            "      \"schedule_seconds\": {:.6},",
            p.schedule_seconds
        );
        let _ = writeln!(
            out,
            "      \"tasks_per_second\": {:.1},",
            p.tasks_per_second
        );
        let _ = writeln!(out, "      \"makespan\": {},", p.makespan);
        match p.makespan_ratio_vs_reference {
            Some(r) => {
                let _ = writeln!(out, "      \"makespan_ratio_vs_reference\": {r},");
            }
            None => out.push_str("      \"makespan_ratio_vs_reference\": null,\n"),
        }
        match p.peak_rss_kb {
            Some(kb) => {
                let _ = writeln!(out, "      \"peak_rss_kb\": {kb}");
            }
            None => out.push_str("      \"peak_rss_kb\": null\n"),
        }
        out.push_str(if i + 1 == points.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn field<'a>(dp: &'a Value, key: &str) -> Result<&'a Value, String> {
    dp.get(key).ok_or(format!("datapoint missing {key:?}"))
}

/// Parses and schema-validates a `BENCH_*.json` artifact document.
///
/// # Errors
///
/// Returns a message naming the first syntax error, schema mismatch or
/// missing field.
pub fn parse_report(text: &str) -> Result<Vec<KernelDatapoint>, String> {
    let doc = json::parse(text)?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unsupported schema {s:?}, expected {SCHEMA:?}")),
        None => return Err("missing \"schema\" field".to_string()),
    }
    let points = doc
        .get("datapoints")
        .and_then(Value::as_array)
        .ok_or("missing \"datapoints\" array")?;
    let num = |dp: &Value, key: &str| -> Result<f64, String> {
        field(dp, key)?
            .as_f64()
            .ok_or(format!("{key:?} is not a number"))
    };
    points
        .iter()
        .map(|dp| {
            Ok(KernelDatapoint {
                name: field(dp, "name")?
                    .as_str()
                    .ok_or("\"name\" is not a string")?
                    .to_string(),
                family: field(dp, "family")?
                    .as_str()
                    .ok_or("\"family\" is not a string")?
                    .to_string(),
                tasks: num(dp, "tasks")? as usize,
                edges: num(dp, "edges")? as usize,
                procs: num(dp, "procs")? as usize,
                ccr: num(dp, "ccr")?,
                seed: num(dp, "seed")? as u64,
                build_seconds: num(dp, "build_seconds")?,
                schedule_seconds: num(dp, "schedule_seconds")?,
                tasks_per_second: num(dp, "tasks_per_second")?,
                makespan: num(dp, "makespan")? as u64,
                makespan_ratio_vs_reference: match field(dp, "makespan_ratio_vs_reference")? {
                    Value::Null => None,
                    v => Some(v.as_f64().ok_or("ratio is not a number")?),
                },
                peak_rss_kb: match field(dp, "peak_rss_kb")? {
                    Value::Null => None,
                    v => Some(v.as_u64().ok_or("\"peak_rss_kb\" is not an integer")?),
                },
            })
        })
        .collect()
}

/// Compares measured datapoints against a committed baseline: every
/// current point whose name exists in the baseline must reach at least
/// `(1 - max_regression)` of the baseline throughput.
///
/// Returns one human-readable comparison line per matched point.
///
/// # Errors
///
/// Returns the first regression as an error message.
pub fn regression_gate(
    current: &[KernelDatapoint],
    baseline: &[KernelDatapoint],
    max_regression: f64,
) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.name == cur.name) else {
            lines.push(format!("{}: no baseline datapoint, skipped", cur.name));
            continue;
        };
        let floor = base.tasks_per_second * (1.0 - max_regression);
        let delta = cur.tasks_per_second / base.tasks_per_second - 1.0;
        if cur.tasks_per_second < floor {
            return Err(format!(
                "{}: {:.0} tasks/s is {:.1}% below the baseline {:.0} (tolerance {:.0}%)",
                cur.name,
                cur.tasks_per_second,
                -delta * 100.0,
                base.tasks_per_second,
                max_regression * 100.0
            ));
        }
        lines.push(format!(
            "{}: {:.0} tasks/s vs baseline {:.0} ({:+.1}%) — ok",
            cur.name,
            cur.tasks_per_second,
            base.tasks_per_second,
            delta * 100.0
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(name: &str, tps: f64) -> KernelDatapoint {
        KernelDatapoint {
            name: name.to_string(),
            family: "lu".to_string(),
            tasks: 5050,
            edges: 9900,
            procs: 8,
            ccr: 1.0,
            seed: 1999,
            build_seconds: 0.01,
            schedule_seconds: 0.02,
            tasks_per_second: tps,
            makespan: 123_456,
            makespan_ratio_vs_reference: Some(1.0),
            peak_rss_kb: Some(4096),
        }
    }

    #[test]
    fn artifact_round_trips() {
        let points = vec![point("lu-100k", 250_000.0), {
            let mut p = point("lu-1m", 300_000.5);
            p.peak_rss_kb = None;
            p.makespan_ratio_vs_reference = None;
            p
        }];
        let text = to_json(&points);
        let parsed = parse_report(&text).expect("round trip");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "lu-100k");
        assert_eq!(parsed[0].tasks, 5050);
        assert_eq!(parsed[0].makespan, 123_456);
        assert_eq!(parsed[0].makespan_ratio_vs_reference, Some(1.0));
        assert_eq!(parsed[0].peak_rss_kb, Some(4096));
        assert_eq!(parsed[1].peak_rss_kb, None);
        assert_eq!(parsed[1].makespan_ratio_vs_reference, None);
        assert!((parsed[1].tasks_per_second - 300_000.5).abs() < 0.01);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_missing_fields() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report(r#"{"schema": "other/v9", "datapoints": []}"#).is_err());
        let missing = format!(r#"{{"schema": {}, "datapoints": [{{}}]}}"#, quote(SCHEMA));
        let err = parse_report(&missing).unwrap_err();
        assert!(err.contains("name"), "got: {err}");
    }

    #[test]
    fn regression_gate_passes_within_tolerance_and_fails_outside() {
        let base = vec![point("lu-100k", 100_000.0)];
        let ok = regression_gate(&[point("lu-100k", 80_000.0)], &base, 0.25).unwrap();
        assert_eq!(ok.len(), 1);
        assert!(ok[0].contains("ok"));
        let err = regression_gate(&[point("lu-100k", 70_000.0)], &base, 0.25).unwrap_err();
        assert!(err.contains("below the baseline"), "got: {err}");
        // Unmatched names are reported but never fail the gate.
        let skipped = regression_gate(&[point("new", 1.0)], &base, 0.25).unwrap();
        assert!(skipped[0].contains("skipped"));
    }

    #[test]
    fn quick_benchmark_is_exact_vs_reference() {
        let spec = KernelBenchSpec {
            family: FlatFamily::Cholesky,
            tasks: 3000,
            procs: 16,
            ccr: 0.2,
            seed: 7,
            reference: true,
        };
        let dp = run(&spec);
        assert_eq!(dp.name, "cholesky-3k");
        assert!(dp.tasks >= 3000);
        assert_eq!(dp.makespan_ratio_vs_reference, Some(1.0));
        assert!(dp.tasks_per_second > 0.0);
    }

    #[test]
    fn names_humanise_counts() {
        assert_eq!(KernelBenchSpec::at_scale(1_000_000).name(), "lu-1m");
        assert_eq!(KernelBenchSpec::at_scale(100_000).name(), "lu-100k");
        assert_eq!(KernelBenchSpec::at_scale(1234).name(), "lu-1234");
    }
}
