//! The `flb-bench-trajectory/v1` artifact and the streaming graphs of the
//! `par` bin (experiment X17).
//!
//! `par` writes its thread-scaling sweep in this schema (`BENCH_09.json`)
//! and checks a committed artifact with [`parse_report`]. Its `t1` point
//! is the flat kernel (`flb-kernel`) itself, so `par --threads 1` times the
//! kernel on every [`FlatFamily`]. The end-to-end kernel benchmark is
//! perfbench's `kernel-lu1m` workload.
//!
//! Every datapoint carries the makespan ratio against the sequential
//! kernel on the identical graph: `1.0` at one thread by bit-exactness,
//! a schedule-quality figure for the relaxed parallel runs.

use crate::json::{self, quote, Value};
use flb_graph::costs::{CostModel, Dist};
use flb_graph::gen::RandomLayeredSpec;
use flb_kernel::FlatGraph;
use flb_workloads::million;
use std::fmt::Write as _;

/// Schema identifier of the benchmark artifact files.
pub const SCHEMA: &str = "flb-bench-trajectory/v1";

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

/// Streams a flat benchmark graph of the given family and scale; every
/// thread count of a `par` sweep schedules the one graph this returns.
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

/// Renders datapoints as a `BENCH_*.json` artifact document under the
/// given bench name.
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

#[cfg(test)]
mod tests {
    use super::*;
    use flb_core::{Flb, TieBreak};
    use flb_kernel::KernelRun;
    use flb_sched::{Machine, Scheduler};

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
        let text = to_json_named("par", &points);
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
    fn quick_benchmark_is_exact_vs_reference() {
        let graph = build_flat(FlatFamily::Cholesky, 3000, 0.2, 7);
        assert!(graph.num_tasks() >= 3000);
        let mut kernel = KernelRun::new(&graph, &[1; 16], TieBreak::BottomLevel);
        kernel.run();
        assert!(kernel.is_complete());
        let reference = Flb::default().schedule(&graph.to_task_graph(), &Machine::new(16));
        assert_eq!(kernel.makespan(), reference.makespan());
    }

    #[test]
    fn names_humanise_counts() {
        assert_eq!(human_count(1_000_000), "1m");
        assert_eq!(human_count(100_000), "100k");
        assert_eq!(human_count(1234), "1234");
    }
}
