//! kernel-lu1m: the million-task LU scheduled in-process by `flb-kernel`.
//!
//! The scheduling runs in child processes of this binary that do nothing
//! else, so their CPU time and peak RSS are the kernel's alone. Each child
//! builds the graph and times its first, cold schedule (a set-up sample);
//! the middle child then schedules repeatedly for the run's duration. The
//! parent checks exactness against `flb_core::FlbRun` on a reduced LU
//! instance with the same seed.

use crate::report::Outcome;
use crate::stats::{beyond, median, percentile, sorted};
use crate::trace::{self_times, Tracer, ROOT};
use crate::{procfs, Args};
use flb_core::{Flb, FlbRun, RunStats, TieBreak};
use flb_graph::costs::{CostModel, Dist};
use flb_kernel::{FlatGraph, KernelRun};
use flb_sched::Machine;
use flb_workloads::million;
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Target task count.
pub const TASKS: usize = 1_000_000;
/// Processors of the homogeneous machine.
pub const PROCS: usize = 64;
/// Communication-to-computation ratio.
pub const CCR: f64 = 1.0;
/// Task count of the instance checked against the reference scheduler.
pub const REDUCED_TASKS: usize = 20_000;
/// Child processes per run; `setup_s` is the median of their cold runs.
pub const SETUPS: usize = 5;

fn tie_break() -> TieBreak {
    Flb::default().tie_break
}

/// The LU graph of at least `tasks` tasks for `seed`.
#[must_use]
pub fn lu_graph(tasks: usize, seed: u64) -> FlatGraph {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: CCR,
    };
    million::lu_flat(million::lu_order_for_tasks(tasks), &model, seed)
}

/// Bytes of the CSR arrays, computed from V and E: `comp` (8 B/task),
/// two offset arrays (4 B per task + 1), `topo` (4 B/task), and per edge
/// a 4 B endpoint plus an 8 B weight in each direction.
#[must_use]
pub fn csr_bytes(v: usize, e: usize) -> usize {
    8 * v + 2 * 4 * (v + 1) + 4 * v + 2 * (4 + 8) * e
}

fn stats_vec(s: &RunStats) -> Vec<f64> {
    [
        s.ep_selections,
        s.non_ep_selections,
        s.demotions,
        s.list_insertions(),
        s.max_ready,
    ]
    .map(|x| x as f64)
    .to_vec()
}

/// One full kernel schedule: arena set-up (with the bottom-level sweep)
/// and the selection loop.
fn schedule(g: &FlatGraph, slow: &[u64]) -> (u64, RunStats) {
    let mut run = KernelRun::new(g, slow, tie_break());
    run.run();
    (black_box(run.makespan()), run.stats())
}

fn emit(key: &str, values: &[f64]) {
    let v: Vec<String> = values.iter().map(f64::to_string).collect();
    println!("{key} {}", v.join(" "));
}

/// Options of one child process.
pub struct ChildArgs {
    /// Workload seed.
    pub seed: u64,
    /// Measured duration (0 = set-up only).
    pub seconds: u64,
    /// Whether the second half of the run is traced.
    pub trace: bool,
    /// Where the traced child writes its spans.
    pub out_dir: std::path::PathBuf,
}

/// A child process: build, cold schedule, then (if `seconds > 0`) timed
/// schedules. Prints `key value...` lines for the parent.
pub fn child(a: &ChildArgs) -> io::Result<()> {
    let t = Instant::now();
    let g = lu_graph(TASKS, a.seed);
    emit("build_s", &[t.elapsed().as_secs_f64()]);
    let slow = vec![1; PROCS];
    let t = Instant::now();
    let (makespan, stats) = schedule(&g, &slow);
    emit("setup_s", &[t.elapsed().as_secs_f64()]);
    emit("graph", &[g.num_tasks() as f64, g.num_edges() as f64]);
    emit("makespan", &[makespan as f64]);
    emit("stats", &stats_vec(&stats));
    if a.seconds == 0 {
        return Ok(());
    }
    let mut mismatches = 0;
    let total = Duration::from_secs(a.seconds);
    let untraced = if a.trace { total / 2 } else { total };

    let cpu0 = procfs::cpu_ticks(None)?;
    let start = Instant::now();
    let mut lat = Vec::new();
    while start.elapsed() < untraced {
        let t = Instant::now();
        let got = schedule(&g, &slow);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        mismatches += u32::from(got != (makespan, stats));
    }
    let cpu1 = procfs::cpu_ticks(None)?;
    emit("lat_us", &lat);
    emit("cpu_ticks", &[(cpu1 - cpu0) as f64]);

    if a.trace {
        // The same schedule split at the public phase boundaries; the
        // bottom-level sweep is called once more on its own, since
        // `KernelRun::new` runs it internally.
        let mut tr = Tracer::new(Instant::now());
        let start = Instant::now();
        let mut k = 0;
        while start.elapsed() < total - untraced {
            let root = tr.open("kernel.schedule", ROOT, k);
            let s = tr.open("kernel.bottom_levels", root, k);
            black_box(g.bottom_levels());
            tr.close(s);
            let s = tr.open("kernel.init", root, k);
            let mut run = KernelRun::new(&g, &slow, tie_break());
            tr.close(s);
            let s = tr.open("kernel.select", root, k);
            run.run();
            tr.close(s);
            tr.close(root);
            mismatches += u32::from((run.makespan(), run.stats()) != (makespan, stats));
            k += 1;
        }
        let selfs = self_times(tr.spans());
        let by = |name: &str| -> Vec<f64> {
            tr.spans()
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &ns)| ns as f64 / 1e9)
                .collect()
        };
        let ops: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "kernel.schedule")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        emit("traced_lat_us", &ops);
        emit("bottom_levels_s", &by("kernel.bottom_levels"));
        emit("init_s", &by("kernel.init"));
        emit("select_s", &by("kernel.select"));
        tr.write_tsv(&a.out_dir.join("spans-kernel-lu1m.tsv"))?;
    }
    emit("mismatches", &[f64::from(mismatches)]);
    emit("vm_hwm_kb", &[procfs::peak_rss_kb(None)? as f64]);
    Ok(())
}

type Lines = HashMap<String, Vec<f64>>;

fn spawn_child(args: &Args, seconds: u64) -> io::Result<Lines> {
    let exe = std::env::current_exe()?;
    let output = Command::new(exe)
        .arg("kernel-child")
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "kernel child failed: {}",
            output.status
        )));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines = Lines::new();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if let Some(key) = it.next() {
            let values = it.map(str::parse).collect::<Result<Vec<f64>, _>>();
            let values =
                values.map_err(|e| io::Error::other(format!("child line {line:?}: {e}")))?;
            lines.insert(key.to_owned(), values);
        }
    }
    Ok(lines)
}

fn get<'a>(lines: &'a Lines, key: &str) -> io::Result<&'a [f64]> {
    match lines.get(key) {
        Some(v) if !v.is_empty() => Ok(v),
        _ => Err(io::Error::other(format!("kernel child reported no {key}"))),
    }
}

/// Bit-exactness of the kernel against `flb_core::FlbRun` on a reduced
/// LU instance: every placement and every run counter.
pub fn check_exact(seed: u64) -> Result<(), String> {
    let g = lu_graph(REDUCED_TASKS, seed);
    let mut kernel = KernelRun::new(&g, &vec![1; PROCS], tie_break());
    kernel.run();
    let tg = g.to_task_graph();
    let mut reference = FlbRun::new(&tg, &Machine::new(PROCS), tie_break());
    while reference.step().is_some() {}
    if reference.stats() != kernel.stats() {
        return Err(format!(
            "kernel counters {:?} differ from FlbRun {:?}",
            kernel.stats(),
            reference.stats()
        ));
    }
    let schedule = reference.finish();
    for (i, p) in schedule.placements().iter().enumerate() {
        let k = (
            kernel.procs()[i] as usize,
            kernel.starts()[i],
            kernel.finishes()[i],
        );
        if (p.proc.0, p.start, p.finish) != k {
            return Err(format!("task {i}: kernel {k:?} vs FlbRun {p:?}"));
        }
    }
    if schedule.makespan() != kernel.makespan() {
        return Err("kernel makespan differs from FlbRun".into());
    }
    Ok(())
}

/// Runs kernel-lu1m.
pub fn run(args: &Args, out: &mut Outcome) -> io::Result<()> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut firsts = Vec::new();
    let mut measured = None;
    // The measuring child runs in the middle, so set-up samples come from
    // both sides of the timed phase.
    for k in 0..SETUPS {
        let measuring = k == SETUPS / 2;
        let lines = spawn_child(args, if measuring { args.seconds } else { 0 })?;
        setups.push(get(&lines, "setup_s")?[0]);
        firsts.push((
            get(&lines, "makespan")?.to_vec(),
            get(&lines, "stats")?.to_vec(),
        ));
        if measuring {
            measured = Some(lines);
        }
    }
    let m = measured.expect("at least one child");
    if firsts.windows(2).any(|w| w[0] != w[1]) {
        out.problem("kernel children disagree on makespan or counters".into());
    }
    if let Err(e) = check_exact(args.seed) {
        out.problem(format!(
            "kernel not exact vs FlbRun at {REDUCED_TASKS} tasks: {e}"
        ));
    }

    let lat = sorted(get(&m, "lat_us")?.to_vec());
    let mismatches = get(&m, "mismatches")?[0] as u64;
    let traced_ops = m.get("traced_lat_us").map_or(0, Vec::len);
    out.attempted = (SETUPS + lat.len() + traced_ops) as u64;
    out.failed = mismatches;
    if mismatches > 0 {
        out.problem(format!("{mismatches} schedules differ from the first"));
    }
    let graph = get(&m, "graph")?;
    let (v, e) = (graph[0], graph[1]);
    let p50 = percentile(&lat, 50);
    let cpu_us = get(&m, "cpu_ticks")?[0] * 1e6 / procfs::TICKS_PER_SEC as f64;
    out.e2e("throughput_rps", 1e6 / p50);
    out.e2e("tasks_per_s", v * 1e6 / p50);
    out.e2e("latency_p50_us", p50);
    out.e2e("cpu_us_per_op", cpu_us / lat.len() as f64);
    out.e2e("peak_rss_mb", get(&m, "vm_hwm_kb")?[0] / 1024.0);
    out.e2e("setup_s", median(&setups));
    out.info("setup_samples_s", format!("{setups:?}"));
    out.info("graph", format!("V = {v}, E = {e}, P = {PROCS}, CCR {CCR}"));
    out.latency_counts(&lat);

    out.layer("kernel.build_s", get(&m, "build_s")?[0]);
    let stats = get(&m, "stats")?;
    for (i, name) in [
        "kernel.ep_selections",
        "kernel.non_ep_selections",
        "kernel.demotions",
        "kernel.list_insertions",
        "kernel.max_ready",
    ]
    .into_iter()
    .enumerate()
    {
        out.layer(name, stats[i]);
    }
    out.layer("kernel.csr_bytes", csr_bytes(v as usize, e as usize) as f64);
    let p99 = percentile(&lat, 99);
    out.layer("client.latency_p99_us", p99);
    out.layer("client.beyond_p99", beyond(&lat, p99) as f64);
    out.layer("client.samples", lat.len() as f64);
    out.layer("client.latency_p90_us", percentile(&lat, 90));
    if args.trace {
        let bl = median(get(&m, "bottom_levels_s")?);
        out.layer("kernel.bottom_levels_s", bl);
        out.layer("kernel.init_s", median(get(&m, "init_s")?) - bl);
        out.layer("kernel.select_s", median(get(&m, "select_s")?));
        let traced = median(get(&m, "traced_lat_us")?);
        out.layer("trace.overhead_latency_p50_us", traced - p50);
        out.layer("trace.overhead_throughput_rps", 1e6 / p50 - 1e6 / traced);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_bytes_counts_every_array() {
        // 3 tasks, 2 edges: comp 24, offsets 2 * 16, topo 12, edges 48.
        assert_eq!(csr_bytes(3, 2), 24 + 32 + 12 + 48);
    }

    #[test]
    fn kernel_is_exact_on_a_small_lu() {
        assert_eq!(check_exact(3), Ok(()));
        let g = lu_graph(2_000, 3);
        let slow = vec![1; PROCS];
        assert_eq!(schedule(&g, &slow), schedule(&g, &slow));
    }
}
