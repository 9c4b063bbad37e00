//! Implementation of the `flb` command-line tool.
//!
//! Subcommands:
//!
//! * `generate` — build a workload task graph and emit it (text format or
//!   DOT);
//! * `info` — print a graph's statistics (V, E, width, CCR, critical path);
//! * `schedule` — schedule a graph with a chosen algorithm; optionally show
//!   a Gantt chart, the FLB execution trace, and the simulator replay;
//! * `compare` — run the paper's five algorithms (plus DLS) on one graph
//!   and tabulate makespans, NSLs and speedups;
//! * `simulate` — replay a saved schedule on the discrete-event machine,
//!   optionally under single-port communication contention;
//! * `faults` — replay a schedule under injected faults (fail-stop
//!   processor failures, message loss with retry, stragglers) and
//!   optionally repair it online with warm-restarted FLB;
//! * `transform` — apply a scheduling pre-pass (transitive reduction or
//!   chain coarsening) and emit the transformed graph;
//! * `report` — emit a self-contained HTML report (comparison table + SVG
//!   Gantt charts);
//! * `fuzz` — run the seeded conformance fuzzer (`flb-conformance`):
//!   random instances through the differential and metamorphic check
//!   suite, shrinking any failure to a minimal replayable `.flb`
//!   counterexample; `--replay` re-checks saved counterexamples;
//! * `serve` — run the scheduling daemon (`flb-service`) on a TCP or
//!   Unix-domain endpoint until a client sends `shutdown`; deadline-aware
//!   socket I/O, a self-healing worker pool, and optional crash-safe
//!   cache snapshots (`--cache-file`) for warm restarts;
//! * `submit` — send a schedule request (or `--ping`/`--stats`/
//!   `--shutdown`) to a running daemon;
//! * `chaos` — run the seeded chaos harness (`flb_service::chaos`)
//!   against a running daemon: torn frames, corruption, disconnects,
//!   floods, deadline storms and (with `--inject-panics`, against a
//!   `--chaos-markers` server) scheduler panics and worker kills, while
//!   verifying the daemon keeps serving well-formed clients;
//! * `lint` — run the project-invariant static analyzer (`flb-analyze`)
//!   over the workspace: allocation fences, panic-free request paths,
//!   simulator determinism, lock ordering, bounded decode allocations;
//!   `--deny-unwaived` makes any finding without a reasoned waiver an
//!   error (the CI `lint-smoke` gate), `--format json` emits the stable
//!   `flb-analyze/v1` schema.
//!
//! The heavy lifting lives in library functions returning `Result<String>`
//! so the whole surface is unit-testable; `main` only forwards `std::env`
//! arguments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flb_core::{trace, AlgorithmId, TieBreak};
use flb_graph::costs::CostModel;
use flb_graph::gen::Family;
use flb_graph::serialize::{parse_text, to_text};
use flb_graph::{dot, paper, TaskGraph};
use flb_sched::metrics::{speedup, summarise};
use flb_sched::validate::validate;
use flb_sched::{gantt, Machine, Scheduler};
use std::fmt::Write as _;

/// A CLI error: carries the message shown to the user.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
flb — Fast Load Balancing task scheduling (Radulescu & van Gemund, ICPP 1999)

USAGE:
  flb generate  --family <lu|laplace|stencil|fft> [--tasks N] [--ccr X] [--seed S] [--dot|--stg]
  flb info      (--input FILE | --family ... | --fig1)
  flb schedule  --alg <flb|etf|mcp|mcp-ins|fcp|dsc-llb|dls|heft|hlfet|runtime-bl|runtime-fifo|runtime-lpt>
                --procs P <graph opts>
                [--gantt] [--trace] [--simulate] [--save FILE] [--svg FILE] [--trace-csv FILE]
  flb compare   --procs P <graph opts>
  flb simulate  --schedule FILE <graph opts> [--one-port]
  flb faults    (--schedule FILE | --alg A --procs P) <graph opts>
                [--fail P@T]... [--loss PROB[:TIMEOUT:RETRIES]] [--straggle T@F]...
                [--seed S] [--repair [--at T]] [--one-port] [--trace]
  flb transform (--reduce | --coarsen) <graph opts> [--dot]
  flb fuzz      [--seed S] [--cases N] [--max-tasks N] [--max-procs P]
                [--corpus DIR] | --replay FILE|DIR
  flb report    --out FILE.html <graph opts> [--procs P | --speeds ...]
  flb serve     [--listen ADDR] [--workers N] [--queue N] [--cache N]
                [--cache-file FILE] [--snapshot-interval-ms T]
                [--read-timeout-ms T] [--write-timeout-ms T]
                [--frame-deadline-ms T] [--idle-timeout-ms T]
                [--tenant-quota RATE[:BURST]] [--shed-policy POLICY]
                [--reserved-slots N] [--tenant-backlog-cap N]
                [--breaker-threshold N] [--breaker-cooldown-ms T]
                [--record DIR] [--journal-sync none|interval[:MS]|always]
                [--journal-segment-bytes N] [--journal-queue N]
                [--journal-stall-ms T] [--chaos-markers]
  flb submit    [--listen ADDR] <graph opts> [--alg A] [--procs P | --speeds ...]
                [--tenant NAME] [--deadline-ms T] [--repeat N] [--retries N]
                [--check] [--save FILE] | --ping | --stats | --shutdown
  flb stats     [--listen ADDR] [--format text|json]
  flb record    --out DIR [--offline | --listen ADDR] [--requests N]
                [--seed S] [--spacing-us T] [--segment-bytes N]
  flb replay    --trace PATH [--listen ADDR | --spawn] [--speed F]
                [--no-check]
  flb chaos     [--listen ADDR] [--seed S] [--scenarios N] [--flood N]
                [--probe-every N] [--inject-panics] [--expect-workers N]
                [--tenant-chaos] [--flood-threads N] [--flood-ms T]
                [--probe-requests N] [--trace PATH]
                [--expect-journal-drops] [--format text|json]
  flb lint      [--root DIR] [--format text|json] [--deny-unwaived]

SERVICE OPTIONS: --listen takes `HOST:PORT` (default 127.0.0.1:7171) or
  `unix:/path/to.sock` for a Unix-domain socket. `serve --cache-file`
  enables crash-safe warm restarts: the schedule cache is snapshotted on
  shutdown (and every --snapshot-interval-ms while running) and reloaded
  on boot; a corrupt snapshot is quarantined to FILE.corrupt, never
  fatal. Timeout flags take milliseconds; 0 disables that limit.
  `--tenant-quota 100:25` admits 100 requests/s per tenant with a burst
  of 25 (burst defaults to one second's worth); over-quota work is shed
  per --shed-policy `none` | `graduated` (default: over-quota rides
  along while the service is healthy) | `strict`. --breaker-threshold
  consecutive failures quarantine a tenant until --breaker-cooldown-ms
  passes (0 disables the breaker). `submit --tenant` names the tenant a
  request is accounted to; unnamed requests are per-connection
  anonymous tenants. `--chaos-markers` honors the chaos panic-injection
  graph names and belongs in test rigs only; `chaos --tenant-chaos`
  adds tenant floods, quota edges, breaker flapping and the measured
  isolation invariant to a chaos run. `serve --record DIR` journals every
  served schedule request to crash-safe segment files (off the request
  path: a stalled disk drops journal records, visibly in `stats`, never
  a client); --journal-sync picks the fsync policy (default
  interval:100). `record --offline` writes a seed-regenerable trace;
  `replay --trace` re-sends a trace and verifies deterministic replies
  are byte-identical. `chaos --trace` mutates recorded frames instead of
  synthetic ones; `--expect-journal-drops` asserts the stalled-journal
  invariant against a `--journal-stall-ms` rig.

MACHINE OPTIONS (schedule/compare): --procs P for the paper's homogeneous
  machine, or --speeds 1,1,2,4 for related processors (integer slowdowns).

GRAPH OPTIONS (for info/schedule/compare/simulate/transform):
  --input FILE   read a graph (native text format; `.stg` files are parsed
                 as Standard Task Graph Set benchmarks with unit comms)
  --fig1         use the paper's Fig. 1 example graph
  --family F [--tasks N] [--ccr X] [--seed S]   generate a workload

DEFAULTS: --tasks 2000, --ccr 1.0, --seed 1, costs U(0, 200)\n";

/// Minimal flag parser: `--key value` pairs plus boolean switches.
struct Args<'a> {
    argv: &'a [String],
}

impl<'a> Args<'a> {
    fn new(argv: &'a [String]) -> Self {
        Args { argv }
    }

    fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.argv
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    /// All occurrences of a repeatable `--key value` flag, in order.
    fn values(&self, name: &str) -> Vec<&'a str> {
        self.argv
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == name)
            .filter_map(|(i, _)| self.argv.get(i + 1))
            .map(String::as_str)
            .collect()
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("invalid value for {name}: {v:?}"))),
        }
    }
}

/// Builds the graph selected by the common graph options.
fn load_graph(a: &Args<'_>) -> Result<TaskGraph, CliError> {
    if a.flag("--fig1") {
        return Ok(paper::fig1());
    }
    if let Some(path) = a.value("--input") {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        // `.stg` files use the Standard Task Graph Set format; anything
        // else is this tool's native text format.
        return if path.ends_with(".stg") {
            flb_graph::stg::parse_stg(&text).map_err(|e| err(format!("cannot parse {path}: {e}")))
        } else {
            parse_text(&text).map_err(|e| err(format!("cannot parse {path}: {e}")))
        };
    }
    let family: Family = a
        .value("--family")
        .ok_or_else(|| err("missing graph: use --input, --fig1 or --family"))?
        .parse()
        .map_err(err)?;
    let tasks: usize = a.parsed("--tasks", 2000)?;
    let ccr: f64 = a.parsed("--ccr", 1.0)?;
    let seed: u64 = a.parsed("--seed", 1)?;
    Ok(CostModel::paper_default(ccr).apply(&family.topology(tasks), seed))
}

/// Builds the machine from `--procs` and the optional `--speeds a,b,c`
/// slowdown list (which overrides the processor count).
fn load_machine(a: &Args<'_>) -> Result<Machine, CliError> {
    if let Some(spec) = a.value("--speeds") {
        let slows: Option<Vec<u64>> = spec.split(',').map(|x| x.trim().parse().ok()).collect();
        return match slows {
            Some(v) if !v.is_empty() && v.iter().all(|&x| x >= 1) => Ok(Machine::related(v)),
            _ => Err(err(format!(
                "invalid --speeds {spec:?}: expected comma-separated integers >= 1"
            ))),
        };
    }
    let procs: usize = a.parsed("--procs", 4)?;
    if procs == 0 {
        return Err(err("--procs must be at least 1"));
    }
    Ok(Machine::new(procs))
}

/// The `--alg` registry: every [`AlgorithmId`] name, plus the three
/// `runtime-*` dispatchers of `flb-sim`, which are not wire algorithms.
fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, CliError> {
    if let Ok(alg) = name.parse::<AlgorithmId>() {
        return Ok(alg.scheduler());
    }
    Ok(match name.to_ascii_lowercase().as_str() {
        "runtime-bl" => Box::new(flb_sim::RuntimeDispatcher(
            flb_sim::DispatchPolicy::BottomLevel,
        )),
        "runtime-fifo" => Box::new(flb_sim::RuntimeDispatcher(flb_sim::DispatchPolicy::Fifo)),
        "runtime-lpt" => Box::new(flb_sim::RuntimeDispatcher(
            flb_sim::DispatchPolicy::LongestTask,
        )),
        other => return Err(err(format!("unknown algorithm {other:?}"))),
    })
}

/// Entry point: dispatches on the subcommand, returns the text to print.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(cmd) = argv.first() else {
        return Ok(USAGE.to_owned());
    };
    let a = Args::new(&argv[1..]);
    match cmd.as_str() {
        "generate" => cmd_generate(&a),
        "info" => cmd_info(&a),
        "schedule" => cmd_schedule(&a),
        "compare" => cmd_compare(&a),
        "simulate" => cmd_simulate(&a),
        "faults" => cmd_faults(&a),
        "transform" => cmd_transform(&a),
        "fuzz" => cmd_fuzz(&a),
        "report" => cmd_report(&a),
        "serve" => cmd_serve(&a),
        "submit" => cmd_submit(&a),
        "stats" => cmd_stats(&a),
        "record" => cmd_record(&a),
        "replay" => cmd_replay(&a),
        "chaos" => cmd_chaos(&a),
        "lint" => cmd_lint(&a),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn cmd_generate(a: &Args<'_>) -> Result<String, CliError> {
    let g = load_graph(a)?;
    if a.flag("--dot") {
        Ok(dot::to_dot(&g))
    } else if a.flag("--stg") {
        Ok(flb_graph::stg::to_stg(&g))
    } else {
        Ok(to_text(&g))
    }
}

fn cmd_info(a: &Args<'_>) -> Result<String, CliError> {
    let g = load_graph(a)?;
    // Exact width is O(V·E) bitset work: worth it up to a few thousand
    // tasks, fall back to the ready-sweep bound beyond.
    let s = flb_graph::analyze::stats(&g, g.num_tasks() <= 5000);
    let mut out = String::new();
    let _ = writeln!(out, "name            {}", g.name());
    let _ = writeln!(out, "tasks (V)       {}", s.tasks);
    let _ = writeln!(out, "edges (E)       {}", s.edges);
    let _ = writeln!(out, "entry tasks     {}", s.entries);
    let _ = writeln!(out, "exit tasks      {}", s.exits);
    let _ = writeln!(
        out,
        "out-degree      min {} / mean {:.2} / max {}",
        s.out_degree.0, s.out_degree.1, s.out_degree.2
    );
    let _ = writeln!(
        out,
        "in-degree       min {} / mean {:.2} / max {}",
        s.in_degree.0, s.in_degree.1, s.in_degree.2
    );
    let _ = writeln!(out, "depth           {}", s.depth);
    let _ = writeln!(out, "width (exact)   {}", s.width);
    let _ = writeln!(out, "width (ready)   {}", s.ready_width);
    let _ = writeln!(out, "total comp      {}", s.total_comp);
    let _ = writeln!(out, "total comm      {}", s.total_comm);
    let _ = writeln!(out, "CCR             {:.3}", s.ccr);
    let _ = writeln!(out, "granularity     {:.3}", s.granularity);
    let _ = writeln!(out, "critical path   {}", s.critical_path);
    let _ = writeln!(out, "CP (comp only)  {}", s.critical_path_comp);
    let _ = writeln!(out, "max speedup     {:.2}", s.max_speedup);
    if a.flag("--profile") {
        let profile = flb_graph::analyze::parallelism_profile(&g);
        let _ = writeln!(out, "parallelism profile (ready per layer):");
        let _ = writeln!(out, "  {profile:?}");
    }
    Ok(out)
}

fn cmd_schedule(a: &Args<'_>) -> Result<String, CliError> {
    let g = load_graph(a)?;
    let machine = load_machine(a)?;
    let procs = machine.num_procs();
    let alg = a.value("--alg").unwrap_or("flb");
    let mut out = String::new();

    let schedule = if a.flag("--trace") || a.value("--trace-csv").is_some() {
        if !alg.eq_ignore_ascii_case("flb") {
            return Err(err("--trace is only available for --alg flb"));
        }
        let (s, rows) = trace::trace(&g, &machine, TieBreak::BottomLevel);
        if a.flag("--trace") {
            let _ = writeln!(out, "{}", trace::render(&rows));
        }
        if let Some(path) = a.value("--trace-csv") {
            std::fs::write(path, trace::to_csv(&rows))
                .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(out, "trace CSV saved to {path}");
        }
        s
    } else {
        let s = scheduler_by_name(alg)?;
        s.schedule(&g, &machine)
    };

    validate(&g, &schedule).map_err(|e| err(format!("internal error: {e}")))?;
    let m = summarise(&g, &schedule);
    let _ = writeln!(out, "algorithm       {alg}");
    let _ = writeln!(out, "processors      {procs}");
    let _ = writeln!(out, "makespan        {}", m.makespan);
    let _ = writeln!(out, "speedup         {:.3}", m.speedup);
    let _ = writeln!(out, "efficiency      {:.3}", m.efficiency);
    let _ = writeln!(out, "idle time       {}", m.idle);

    if a.flag("--simulate") {
        let sim =
            flb_sim::simulate(&g, &schedule).map_err(|e| err(format!("simulation failed: {e}")))?;
        let _ = writeln!(
            out,
            "sim makespan    {} (replay agrees: {})",
            sim.makespan,
            sim.makespan == m.makespan
        );
        let _ = writeln!(out, "sim messages    {}", sim.messages);
        let _ = writeln!(out, "sim comm volume {}", sim.comm_volume);
    }
    if a.flag("--gantt") {
        let _ = writeln!(out, "\n{}", gantt::render(&g, &schedule, 100));
    }
    if let Some(path) = a.value("--save") {
        std::fs::write(path, flb_sched::io::to_text(&schedule))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "schedule saved to {path}");
    }
    if let Some(path) = a.value("--svg") {
        std::fs::write(path, gantt::render_svg(&g, &schedule, 900))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "SVG Gantt chart saved to {path}");
    }
    Ok(out)
}

fn cmd_simulate(a: &Args<'_>) -> Result<String, CliError> {
    let g = load_graph(a)?;
    let path = a
        .value("--schedule")
        .ok_or_else(|| err("missing --schedule FILE"))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    let schedule =
        flb_sched::io::parse_text(&text).map_err(|e| err(format!("cannot parse {path}: {e}")))?;
    if schedule.num_tasks() != g.num_tasks() {
        return Err(err(format!(
            "schedule covers {} tasks but the graph has {}",
            schedule.num_tasks(),
            g.num_tasks()
        )));
    }
    let contention = if a.flag("--one-port") {
        flb_sim::Contention::OnePort
    } else {
        flb_sim::Contention::None
    };
    let sim = flb_sim::simulate_with(
        &g,
        &schedule,
        &flb_sim::SimConfig {
            contention,
            ..Default::default()
        },
    )
    .map_err(|e| err(format!("simulation failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "contention      {contention:?}");
    let _ = writeln!(out, "sim makespan    {}", sim.makespan);
    let _ = writeln!(out, "messages        {}", sim.messages);
    let _ = writeln!(out, "local edges     {}", sim.local_edges);
    let _ = writeln!(out, "comm volume     {}", sim.comm_volume);
    let _ = writeln!(out, "efficiency      {:.3}", sim.efficiency());
    Ok(out)
}

/// Parses `"X@Y"` into its two halves.
fn split_at_sign<'s>(flag: &str, v: &'s str) -> Result<(&'s str, &'s str), CliError> {
    v.split_once('@')
        .ok_or_else(|| err(format!("invalid {flag} {v:?}: expected the form X@Y")))
}

/// `faults`: replay a schedule under an injected fault scenario; with
/// `--repair`, snapshot the execution at the repair instant and re-plan
/// the remaining work on the survivors.
fn cmd_faults(a: &Args<'_>) -> Result<String, CliError> {
    use flb_core::{clairvoyant_flb, naive_remap, repair_flb};
    use flb_graph::TaskId;
    use flb_sched::repair::validate_repaired;
    use flb_sched::ProcId;
    use flb_sim::{simulate_faulty, FaultSpec, SimConfig};

    let g = load_graph(a)?;
    let schedule = if let Some(path) = a.value("--schedule") {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        flb_sched::io::parse_text(&text).map_err(|e| err(format!("cannot parse {path}: {e}")))?
    } else {
        let machine = load_machine(a)?;
        scheduler_by_name(a.value("--alg").unwrap_or("flb"))?.schedule(&g, &machine)
    };
    if schedule.num_tasks() != g.num_tasks() {
        return Err(err(format!(
            "schedule covers {} tasks but the graph has {}",
            schedule.num_tasks(),
            g.num_tasks()
        )));
    }

    // Assemble the fault spec.
    let seed: u64 = a.parsed("--seed", 1)?;
    let mut spec = FaultSpec::new(seed);
    for v in a.values("--fail") {
        let (p, t) = split_at_sign("--fail", v)?;
        let p: usize = p
            .parse()
            .map_err(|_| err(format!("invalid --fail processor {p:?}")))?;
        let t: u64 = t
            .parse()
            .map_err(|_| err(format!("invalid --fail time {t:?}")))?;
        if p >= schedule.num_procs() {
            return Err(err(format!(
                "--fail p{p}: the machine has {} processors",
                schedule.num_procs()
            )));
        }
        spec = spec.fail(ProcId(p), t);
    }
    if let Some(v) = a.value("--loss") {
        let mut parts = v.split(':');
        let prob: f64 = parts
            .next()
            .and_then(|x| x.parse().ok())
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| {
                err(format!(
                    "invalid --loss {v:?}: probability must be in [0,1]"
                ))
            })?;
        let timeout: u64 = match parts.next() {
            None => 10,
            Some(x) => x
                .parse()
                .map_err(|_| err(format!("invalid --loss timeout in {v:?}")))?,
        };
        let retries: u32 = match parts.next() {
            None => 8,
            Some(x) => x
                .parse()
                .map_err(|_| err(format!("invalid --loss retries in {v:?}")))?,
        };
        spec = spec.with_loss(prob, timeout, retries);
    }
    for v in a.values("--straggle") {
        let (t, f) = split_at_sign("--straggle", v)?;
        let t: usize = t
            .parse()
            .map_err(|_| err(format!("invalid --straggle task {t:?}")))?;
        let f: f64 = f
            .parse()
            .map_err(|_| err(format!("invalid --straggle factor {f:?}")))?;
        if t >= g.num_tasks() || f < 1.0 {
            return Err(err(format!(
                "invalid --straggle {v:?}: task in range, factor >= 1"
            )));
        }
        spec = spec.straggle(TaskId(t), f);
    }

    let contention = if a.flag("--one-port") {
        flb_sim::Contention::OnePort
    } else {
        flb_sim::Contention::None
    };
    let cfg = SimConfig {
        contention,
        ..Default::default()
    };
    let run = simulate_faulty(&g, &schedule, &cfg, &spec);

    let mut out = String::new();
    let _ = writeln!(out, "fault seed      {seed}");
    let _ = writeln!(out, "fault events    {}", run.trace.len());
    let _ = writeln!(out, "proc failures   {}", run.failures());
    let _ = writeln!(out, "lost attempts   {}", run.lost_attempts());
    let _ = writeln!(out, "abandoned msgs  {}", run.abandoned_messages());
    let _ = writeln!(out, "tasks finished  {}/{}", run.completed, g.num_tasks());
    if run.is_complete() {
        let _ = writeln!(out, "achieved span   {}", run.makespan);
        let _ = writeln!(out, "planned span    {}", schedule.makespan());
    } else {
        let _ = writeln!(out, "halted at       {}", run.halted_at);
        for b in run.blocked.iter().take(5) {
            let _ = writeln!(out, "  blocked: {b}");
        }
    }
    if a.flag("--trace") {
        let _ = writeln!(out, "\nfault trace:");
        for ev in &run.trace {
            let _ = writeln!(out, "  {ev}");
        }
    }

    if a.flag("--repair") {
        if spec.proc_failures.is_empty() && a.value("--at").is_none() {
            return Err(err(
                "--repair needs at least one --fail (or an explicit --at T)",
            ));
        }
        let default_at = spec.proc_failures.iter().map(|f| f.at).min().unwrap_or(0);
        let at: u64 = a.parsed("--at", default_at)?;
        let exec = run.exec_state_at(&schedule, &spec, at);
        if !exec.alive.iter().any(|&x| x) {
            return Err(err(
                "no processor survives the failures: nothing to repair onto",
            ));
        }
        let machine = schedule.machine();
        let repaired = repair_flb(&g, machine, &exec, TieBreak::BottomLevel);
        validate_repaired(&g, &exec, &repaired)
            .map_err(|e| err(format!("internal error: repaired schedule invalid: {e}")))?;
        let naive = naive_remap(&g, &schedule, &exec);
        validate_repaired(&g, &exec, &naive)
            .map_err(|e| err(format!("internal error: naive remap invalid: {e}")))?;
        let clair = clairvoyant_flb(&g, machine, &exec.alive, TieBreak::BottomLevel);
        let _ = writeln!(
            out,
            "\nrepair at t={at} ({} committed, {} residual, {} survivors)",
            exec.num_completed(),
            g.num_tasks() - exec.num_completed(),
            exec.surviving_procs().count()
        );
        let _ = writeln!(
            out,
            "repaired span   {} (warm-restart FLB)",
            repaired.makespan()
        );
        let _ = writeln!(out, "naive remap     {}", naive.makespan());
        let _ = writeln!(
            out,
            "clairvoyant     {} (failure known at t=0)",
            clair.makespan()
        );
        if let Some(path) = a.value("--save") {
            std::fs::write(path, flb_sched::io::to_text(&repaired))
                .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(out, "repaired schedule saved to {path}");
        }
    }
    Ok(out)
}

/// `fuzz`: seeded conformance fuzzing of every registered scheduler, with
/// shrinking of failures to minimal `.flb` counterexamples; `--replay`
/// instead re-runs the full check suite over saved counterexamples.
fn cmd_fuzz(a: &Args<'_>) -> Result<String, CliError> {
    use flb_conformance::corpus::{self, Counterexample};
    use flb_conformance::fuzz::{fuzz, FuzzConfig};

    if let Some(path) = a.value("--replay") {
        let p = std::path::Path::new(path);
        let replayed = if p.is_dir() {
            corpus::replay_dir(p).map_err(|e| err(format!("cannot replay {path}: {e}")))?
        } else {
            let ce =
                Counterexample::load(p).map_err(|e| err(format!("cannot load {path}: {e}")))?;
            vec![(p.to_path_buf(), ce.replay())]
        };
        if replayed.is_empty() {
            return Err(err(format!("no .flb counterexamples under {path}")));
        }
        let mut out = String::new();
        let mut failing = 0usize;
        for (file, violations) in &replayed {
            if violations.is_empty() {
                let _ = writeln!(out, "ok    {}", file.display());
            } else {
                failing += 1;
                let _ = writeln!(out, "FAIL  {}", file.display());
                for v in violations {
                    let _ = writeln!(out, "      {v}");
                }
            }
        }
        let _ = writeln!(
            out,
            "replayed {} file(s), {failing} failing",
            replayed.len()
        );
        return if failing == 0 { Ok(out) } else { Err(err(out)) };
    }

    let defaults = FuzzConfig::default();
    let cfg = FuzzConfig {
        seed: a.parsed("--seed", defaults.seed)?,
        cases: a.parsed("--cases", defaults.cases)?,
        max_tasks: a.parsed("--max-tasks", defaults.max_tasks)?,
        max_procs: a.parsed("--max-procs", defaults.max_procs)?,
        corpus_dir: a.value("--corpus").map(std::path::PathBuf::from),
    };
    if cfg.cases == 0 {
        return Err(err("--cases must be at least 1"));
    }
    if cfg.max_tasks < 2 || cfg.max_procs < 1 {
        return Err(err("--max-tasks must be >= 2 and --max-procs >= 1"));
    }

    let outcome = fuzz(&cfg);
    let mut out = String::new();
    let _ = writeln!(out, "seed            {}", cfg.seed);
    let _ = writeln!(out, "cases           {}", outcome.cases);
    let _ = writeln!(out, "violations      {}", outcome.violations.len());
    if outcome.violations.is_empty() {
        return Ok(out);
    }
    for ce in &outcome.counterexamples {
        let _ = writeln!(
            out,
            "counterexample  [{}] {}: {} tasks, {} proc(s) — {}",
            ce.check,
            ce.scheduler,
            ce.instance.graph.num_tasks(),
            ce.instance.machine.num_procs(),
            ce.detail
        );
    }
    for path in &outcome.saved {
        let _ = writeln!(out, "saved           {}", path.display());
    }
    Err(err(out))
}

fn cmd_transform(a: &Args<'_>) -> Result<String, CliError> {
    let g = load_graph(a)?;
    let out_graph = match (a.flag("--reduce"), a.flag("--coarsen")) {
        (true, false) => flb_graph::transform::transitive_reduction(&g),
        (false, true) => flb_graph::transform::coarsen_chains(&g).graph,
        _ => return Err(err("pass exactly one of --reduce or --coarsen")),
    };
    if a.flag("--dot") {
        Ok(dot::to_dot(&out_graph))
    } else {
        Ok(to_text(&out_graph))
    }
}

/// `report`: a self-contained HTML page with graph statistics, the
/// algorithm comparison table, and an SVG Gantt chart per algorithm.
fn cmd_report(a: &Args<'_>) -> Result<String, CliError> {
    use AlgorithmId as A;
    let g = load_graph(a)?;
    let machine = load_machine(a)?;
    let out_path = a
        .value("--out")
        .ok_or_else(|| err("missing --out FILE.html"))?;

    let stats = flb_graph::analyze::stats(&g, g.num_tasks() <= 5000);
    let algs = [A::Mcp, A::Etf, A::DscLlb, A::Fcp, A::Flb, A::Dls, A::Heft].map(A::scheduler);

    let mut html = String::new();
    let _ = writeln!(html, "<!DOCTYPE html><html><head><meta charset=\"utf-8\">");
    let _ = writeln!(html, "<title>flb report: {}</title>", g.name());
    let _ = writeln!(
        html,
        "<style>body{{font-family:monospace;margin:2em}}table{{border-collapse:collapse}}\
         td,th{{border:1px solid #999;padding:4px 10px;text-align:right}}\
         th{{background:#eee}}h2{{margin-top:1.5em}}</style></head><body>"
    );
    let _ = writeln!(html, "<h1>Schedule report: {}</h1>", g.name());
    let _ = writeln!(
        html,
        "<p>{} tasks, {} edges, CCR {:.2}, width {}, critical path {}, \
         machine: {} processor(s){}.</p>",
        stats.tasks,
        stats.edges,
        stats.ccr,
        stats.width,
        stats.critical_path,
        machine.num_procs(),
        if machine.is_homogeneous() {
            String::new()
        } else {
            let speeds: Vec<String> = machine
                .procs()
                .map(|p| machine.slowdown(p).to_string())
                .collect();
            format!(" (slowdowns {})", speeds.join(","))
        }
    );

    let _ = writeln!(
        html,
        "<h2>Comparison</h2><table><tr><th>algorithm</th><th>makespan</th>\
         <th>speedup</th><th>efficiency</th></tr>"
    );
    let mut schedules = Vec::new();
    for s in &algs {
        let (alg, sched) = (s.name(), s.schedule(&g, &machine));
        validate(&g, &sched).map_err(|e| err(format!("{alg} invalid: {e}")))?;
        let m = summarise(&g, &sched);
        let _ = writeln!(
            html,
            "<tr><td>{alg}</td><td>{}</td><td>{:.3}</td><td>{:.3}</td></tr>",
            m.makespan, m.speedup, m.efficiency
        );
        schedules.push((alg, sched));
    }
    let _ = writeln!(html, "</table>");

    for (alg, sched) in &schedules {
        let _ = writeln!(html, "<h2>{alg} (makespan {})</h2>", sched.makespan());
        html.push_str(&gantt::render_svg(&g, sched, 1000));
    }
    let _ = writeln!(html, "</body></html>");

    std::fs::write(out_path, html).map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
    Ok(format!("report written to {out_path}\n"))
}

/// Parses `--listen` into a service endpoint (default loopback TCP).
fn load_endpoint(a: &Args<'_>) -> flb_service::Endpoint {
    flb_service::Endpoint::parse(a.value("--listen").unwrap_or("127.0.0.1:7171"))
}

/// `serve`: run the scheduling daemon until a client sends `shutdown`.
///
/// The "listening on ..." line is printed (and flushed) *before* the
/// command blocks, so wrappers can wait for readiness by reading stdout.
fn cmd_serve(a: &Args<'_>) -> Result<String, CliError> {
    let endpoint = load_endpoint(a);
    let defaults = flb_service::ServiceConfig::default();
    let (tenant_rate, tenant_burst) = match a.value("--tenant-quota") {
        None => (defaults.tenant_rate, defaults.tenant_burst),
        Some(spec) => parse_quota(spec)?,
    };
    let shed_policy = match a.value("--shed-policy") {
        None => defaults.shed_policy,
        Some(s) => flb_service::ShedPolicy::parse(s).ok_or_else(|| {
            err(format!(
                "invalid --shed-policy {s:?}: expected none, graduated or strict"
            ))
        })?,
    };
    let cfg = flb_service::ServiceConfig {
        workers: a.parsed("--workers", defaults.workers)?,
        queue_capacity: a.parsed("--queue", defaults.queue_capacity)?,
        cache_capacity: a.parsed("--cache", defaults.cache_capacity)?,
        read_timeout_ms: a.parsed("--read-timeout-ms", defaults.read_timeout_ms)?,
        write_timeout_ms: a.parsed("--write-timeout-ms", defaults.write_timeout_ms)?,
        frame_deadline_ms: a.parsed("--frame-deadline-ms", defaults.frame_deadline_ms)?,
        idle_timeout_ms: a.parsed("--idle-timeout-ms", defaults.idle_timeout_ms)?,
        cache_file: a.value("--cache-file").map(std::path::PathBuf::from),
        snapshot_interval_ms: a.parsed("--snapshot-interval-ms", defaults.snapshot_interval_ms)?,
        panic_injection: a.flag("--chaos-markers"),
        tenant_rate,
        tenant_burst,
        shed_policy,
        reserved_slots: a.parsed("--reserved-slots", defaults.reserved_slots)?,
        tenant_backlog_cap: a.parsed("--tenant-backlog-cap", defaults.tenant_backlog_cap)?,
        breaker_threshold: a.parsed("--breaker-threshold", defaults.breaker_threshold)?,
        breaker_cooldown_ms: a.parsed("--breaker-cooldown-ms", defaults.breaker_cooldown_ms)?,
        record_dir: a.value("--record").map(std::path::PathBuf::from),
        journal_sync: a.parsed("--journal-sync", defaults.journal_sync)?,
        journal_segment_bytes: a
            .parsed("--journal-segment-bytes", defaults.journal_segment_bytes)?,
        journal_queue: a.parsed("--journal-queue", defaults.journal_queue)?,
        journal_stall_ms: a.parsed("--journal-stall-ms", defaults.journal_stall_ms)?,
        ..defaults
    };
    let workers = cfg.workers;
    let handle =
        flb_service::serve(&endpoint, cfg).map_err(|e| err(format!("cannot serve: {e}")))?;
    println!("listening on {} ({} workers)", handle.endpoint(), workers);
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    Ok("service stopped\n".to_owned())
}

/// Parses `RATE[:BURST]` for `--tenant-quota` (both positive floats).
fn parse_quota(spec: &str) -> Result<(f64, f64), CliError> {
    let bad = || {
        err(format!(
            "invalid --tenant-quota {spec:?}: want RATE[:BURST]"
        ))
    };
    let (rate_s, burst_s) = match spec.split_once(':') {
        Some((r, b)) => (r, Some(b)),
        None => (spec, None),
    };
    let rate: f64 = rate_s.trim().parse().map_err(|_| bad())?;
    let burst: f64 = match burst_s {
        Some(b) => b.trim().parse().map_err(|_| bad())?,
        None => 0.0, // service default: one second's worth of rate
    };
    if !rate.is_finite() || rate < 0.0 || !burst.is_finite() || burst < 0.0 {
        return Err(bad());
    }
    Ok((rate, burst))
}

/// `submit`: one client interaction with a running daemon.
fn cmd_submit(a: &Args<'_>) -> Result<String, CliError> {
    let endpoint = load_endpoint(a);
    let mut client = flb_service::Client::connect(&endpoint)
        .map_err(|e| err(format!("cannot connect to {endpoint}: {e}")))?;
    if let Some(tenant) = a.value("--tenant") {
        client.set_tenant(tenant);
    }
    fn fail(what: &'static str) -> impl Fn(std::io::Error) -> CliError {
        move |e| err(format!("{what} failed: {e}"))
    }

    if a.flag("--ping") {
        client.ping().map_err(fail("ping"))?;
        return Ok("pong\n".to_owned());
    }
    if a.flag("--stats") {
        return Ok(client.stats().map_err(fail("stats"))?.render());
    }
    if a.flag("--shutdown") {
        client.shutdown().map_err(fail("shutdown"))?;
        return Ok("service shutting down\n".to_owned());
    }

    let g = load_graph(a)?;
    let machine = load_machine(a)?;
    let alg: AlgorithmId = a
        .value("--alg")
        .unwrap_or("flb")
        .parse()
        .map_err(|e| err(format!("{e}")))?;
    let deadline_ms: u64 = a.parsed("--deadline-ms", 0)?;
    let repeat: usize = a.parsed("--repeat", 1)?;
    let retries: u32 = a.parsed("--retries", 10)?;

    let mut out = String::new();
    let mut last = None;
    for round in 0..repeat.max(1) {
        let submission = client
            .schedule_with_retry(alg, &g, &machine, deadline_ms, retries)
            .map_err(fail("submit"))?;
        match submission {
            flb_service::Submission::Done(reply) => {
                let _ = writeln!(
                    out,
                    "round {round}: makespan {} ({} us, cached: {})",
                    reply.schedule.makespan(),
                    reply.micros,
                    reply.cached
                );
                last = Some(reply.schedule);
            }
            flb_service::Submission::Busy { retry_after_ms } => {
                return Err(err(format!(
                    "service busy (retry after {retry_after_ms} ms); giving up after {retries} retries"
                )));
            }
            flb_service::Submission::Overloaded { retry_after_ms } => {
                return Err(err(format!(
                    "service overloaded / tenant over quota (retry after {retry_after_ms} ms); \
                     giving up after {retries} retries"
                )));
            }
            flb_service::Submission::Expired => {
                return Err(err(format!(
                    "deadline of {deadline_ms} ms expired in queue"
                )));
            }
        }
    }
    let schedule = last.expect("repeat >= 1 round always runs");

    if a.flag("--check") {
        // The conformance entry of the same name: for FLB that is the
        // `FlbRun` reference, an engine independent of the daemon's kernel.
        let local = flb_conformance::registry::by_name(alg.name())
            .expect("every wire algorithm is a conformance entry")
            .scheduler
            .schedule(&g, &machine);
        if local != schedule {
            return Err(err(format!(
                "daemon schedule differs from local {alg} run (makespans {} vs {})",
                schedule.makespan(),
                local.makespan()
            )));
        }
        validate(&g, &schedule).map_err(|e| err(format!("daemon schedule invalid: {e}")))?;
        let _ = writeln!(out, "check: daemon schedule identical to local run");
    }
    if let Some(path) = a.value("--save") {
        std::fs::write(path, flb_sched::io::to_text(&schedule))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "schedule saved to {path}");
    }
    Ok(out)
}

/// `chaos`: run the seeded chaos harness against a running daemon and
/// report per-kind scenario counts plus any invariant violations (which
/// make the command exit non-zero).
fn cmd_chaos(a: &Args<'_>) -> Result<String, CliError> {
    let endpoint = load_endpoint(a);
    let defaults = flb_service::ChaosConfig::default();
    let cfg = flb_service::ChaosConfig {
        seed: a.parsed("--seed", defaults.seed)?,
        scenarios: a.parsed("--scenarios", defaults.scenarios)?,
        flood_connections: a.parsed("--flood", defaults.flood_connections)?,
        probe_every: a.parsed("--probe-every", defaults.probe_every)?,
        inject_panics: a.flag("--inject-panics"),
        expect_workers: a
            .value("--expect-workers")
            .map(str::parse)
            .transpose()
            .map_err(|_| err("invalid value for --expect-workers"))?,
        tenant_chaos: a.flag("--tenant-chaos"),
        flood_threads: a.parsed("--flood-threads", defaults.flood_threads)?,
        flood_ms: a.parsed("--flood-ms", defaults.flood_ms)?,
        probe_requests: a.parsed("--probe-requests", defaults.probe_requests)?,
        isolation_floor_us: defaults.isolation_floor_us,
        trace: a.value("--trace").map(std::path::PathBuf::from),
        expect_journal_drops: a.flag("--expect-journal-drops"),
    };
    if cfg.scenarios == 0 {
        return Err(err("--scenarios must be at least 1"));
    }
    let format = a.value("--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(err(format!(
            "unknown --format '{format}' (expected text or json)"
        )));
    }
    let report = flb_service::chaos::run(&endpoint, &cfg)
        .map_err(|e| err(format!("chaos run against {endpoint} failed: {e}")))?;
    let mut out = String::new();
    if format == "json" {
        out.push_str(&report.render_json());
    } else {
        let _ = writeln!(out, "endpoint        {endpoint}");
        let _ = writeln!(out, "seed            {}", cfg.seed);
        out.push_str(&report.render());
    }
    if report.passed() {
        Ok(out)
    } else {
        Err(err(out))
    }
}

/// `stats`: fetch the daemon's live counters, as text or stable JSON.
fn cmd_stats(a: &Args<'_>) -> Result<String, CliError> {
    let endpoint = load_endpoint(a);
    let stats = flb_service::Client::connect(&endpoint)
        .and_then(|mut c| c.stats())
        .map_err(|e| err(format!("stats from {endpoint} failed: {e}")))?;
    match a.value("--format").unwrap_or("text") {
        "json" => Ok(stats.render_json()),
        "text" => Ok(stats.render()),
        other => Err(err(format!(
            "unknown --format '{other}' (expected text or json)"
        ))),
    }
}

/// Deterministic, seeded schedule-request payloads for trace generation:
/// same seed, same byte-identical sequence, every run, every machine.
fn trace_requests(seed: u64, n: u32) -> Vec<flb_core::ScheduleRequest> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let graph = match rng.random_range(0..3u32) {
            0 => flb_graph::gen::chain(rng.random_range(3..12usize)),
            1 => {
                flb_graph::gen::fork_join(rng.random_range(2..6usize), rng.random_range(1..4usize))
            }
            _ => flb_graph::gen::independent(rng.random_range(3..9usize)),
        };
        let alg = match rng.random_range(0..3u32) {
            0 => AlgorithmId::Flb,
            1 => AlgorithmId::Etf,
            _ => AlgorithmId::Mcp,
        };
        let machine = Machine::new(rng.random_range(2..5usize));
        out.push(flb_core::ScheduleRequest::new(alg, graph, machine));
    }
    out
}

/// `record`: produce a replayable trace in the journal segment format.
///
/// With `--offline` (the pinned-trace path) requests are scheduled
/// locally — the trace is byte-for-byte regenerable from its seed, with
/// synthetic `--spacing-us` timestamps and no wallclock anywhere.
/// Without it, the generated requests are submitted to a live daemon
/// and the recorded digests are of the replies *it* served.
fn cmd_record(a: &Args<'_>) -> Result<String, CliError> {
    let Some(out_dir) = a.value("--out") else {
        return Err(err("record: missing --out DIR for the trace"));
    };
    let n: u32 = a.parsed("--requests", 64)?;
    if n == 0 {
        return Err(err("--requests must be at least 1"));
    }
    let seed: u64 = a.parsed("--seed", 1999)?;
    let spacing_us: u64 = a.parsed("--spacing-us", 2_000)?;
    let segment_bytes: u64 = a.parsed("--segment-bytes", 64 << 10)?;
    let offline = a.flag("--offline");

    let mut live = if offline {
        None
    } else {
        let endpoint = load_endpoint(a);
        Some(
            flb_service::Client::connect(&endpoint)
                .map_err(|e| err(format!("cannot connect to {endpoint}: {e}")))?,
        )
    };

    let mut records = Vec::with_capacity(n as usize);
    for (i, request) in trace_requests(seed, n).into_iter().enumerate() {
        let payload = flb_service::proto::encode_request(&flb_service::Request::Schedule {
            request: Box::new(request.clone()),
            deadline_ms: 0,
            tenant: String::new(),
        });
        let ts_us = i as u64 * spacing_us;
        let schedule = match live.as_mut() {
            None => flb_core::schedule_request(&request),
            Some(client) => {
                match client
                    .schedule_with_retry(request.algorithm, &request.graph, &request.machine, 0, 10)
                    .map_err(|e| err(format!("record: request {i} failed: {e}")))?
                {
                    flb_service::Submission::Done(reply) => reply.schedule,
                    other => {
                        return Err(err(format!(
                            "record: request {i} was not served ({other:?}); record against an idle daemon"
                        )))
                    }
                }
            }
        };
        records.push(flb_service::JournalRecord::served(
            ts_us, 1, &schedule, payload,
        ));
    }
    let dir = std::path::Path::new(out_dir);
    let segments = flb_service::journal::write_trace(dir, &records, segment_bytes)
        .map_err(|e| err(format!("cannot write trace to {out_dir}: {e}")))?;
    Ok(format!(
        "recorded {} requests into {} segment(s) at {} (seed {}, {})\n",
        records.len(),
        segments,
        out_dir,
        seed,
        if offline { "offline" } else { "live" },
    ))
}

/// `replay`: drive a daemon with a recorded trace and verify that
/// deterministic replies are byte-identical to the recording.
fn cmd_replay(a: &Args<'_>) -> Result<String, CliError> {
    let Some(trace) = a.value("--trace") else {
        return Err(err(
            "replay: missing --trace PATH (journal dir or segment file)",
        ));
    };
    let cfg = flb_service::ReplayConfig {
        speed: a.parsed("--speed", 0.0)?,
        check: !a.flag("--no-check"),
    };
    // --spawn serves a throwaway in-process daemon for the run — the
    // one-command way to check a trace still replays cleanly.
    let (endpoint, spawned) = if a.flag("--spawn") {
        let handle = flb_service::serve(
            &flb_service::Endpoint::parse("127.0.0.1:0"),
            flb_service::ServiceConfig::default(),
        )
        .map_err(|e| err(format!("cannot spawn replay daemon: {e}")))?;
        (handle.endpoint(), Some(handle))
    } else {
        (load_endpoint(a), None)
    };
    let report = flb_service::replay_trace(&endpoint, std::path::Path::new(trace), &cfg)
        .map_err(|e| err(format!("replay of {trace} failed: {e}")))?;
    if let Some(handle) = spawned {
        handle.shutdown();
        handle.join();
    }
    let out = report.render();
    if report.ok() {
        Ok(out)
    } else {
        Err(err(out))
    }
}

fn cmd_compare(a: &Args<'_>) -> Result<String, CliError> {
    use AlgorithmId as A;
    let g = load_graph(a)?;
    let machine = load_machine(a)?;
    let procs = machine.num_procs();
    let algs = [A::Mcp, A::Etf, A::DscLlb, A::Fcp, A::Flb, A::Dls].map(A::scheduler);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} tasks, {} edges, CCR {:.2}, P = {}",
        g.num_tasks(),
        g.num_edges(),
        g.ccr(),
        procs
    );
    let _ = writeln!(
        out,
        "{:<9} {:>10} {:>8} {:>9}",
        "algorithm", "makespan", "NSL", "speedup"
    );
    let mcp_span = algs[0].schedule(&g, &machine).makespan();
    for s in &algs {
        let (alg, sched) = (s.name(), s.schedule(&g, &machine));
        validate(&g, &sched).map_err(|e| err(format!("{alg} invalid: {e}")))?;
        let _ = writeln!(
            out,
            "{:<9} {:>10} {:>8.3} {:>9.3}",
            alg,
            sched.makespan(),
            sched.makespan() as f64 / mcp_span as f64,
            speedup(&g, &sched),
        );
    }
    Ok(out)
}

/// `flb lint`: run the flb-analyze rules over the workspace sources.
fn cmd_lint(a: &Args<'_>) -> Result<String, CliError> {
    let root = match a.value("--root") {
        Some(r) => std::path::PathBuf::from(r),
        None => find_workspace_root()?,
    };
    let report = flb_analyze::analyze_workspace(&root)
        .map_err(|e| err(format!("lint walk of {} failed: {e}", root.display())))?;
    let out = match a.value("--format").unwrap_or("text") {
        "text" => report.render_text(),
        "json" => report.render_json(),
        other => return Err(err(format!("unknown --format {other:?} (text|json)"))),
    };
    let unwaived = report.unwaived().count();
    if a.flag("--deny-unwaived") && unwaived > 0 {
        return Err(err(format!("{out}\nlint: {unwaived} unwaived finding(s)")));
    }
    Ok(out)
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring a `[workspace]`, so `flb lint` works from any subdirectory.
fn find_workspace_root() -> Result<std::path::PathBuf, CliError> {
    let mut dir = std::env::current_dir().map_err(|e| err(format!("cannot read cwd: {e}")))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file()
            && std::fs::read_to_string(&manifest).is_ok_and(|t| t.contains("[workspace]"))
        {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(err(
                "no workspace root (Cargo.toml with [workspace]) above cwd; pass --root DIR",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&argv)
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(run_str(&[]).unwrap().contains("USAGE"));
        assert!(run_str(&["help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_str(&["frob"]).is_err());
    }

    /// `flb lint --format json` emits the stable `flb-analyze/v1`
    /// schema, parsed here with the same hand-rolled JSON reader the
    /// bench artifacts use (CI greps for the schema tag too, but this
    /// pins the full shape: key set, types, and summary arithmetic).
    #[test]
    fn lint_json_schema_is_stable() {
        use flb_bench::json::{parse, Value};

        let out = run_str(&["lint", "--format", "json"]).expect("lint runs on this workspace");
        let v = parse(&out).expect("lint emits valid JSON");

        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("flb-analyze/v1")
        );

        let findings = v
            .get("findings")
            .and_then(Value::as_array)
            .expect("findings array");
        for f in findings {
            assert!(f.get("rule").and_then(Value::as_str).is_some());
            assert!(f.get("file").and_then(Value::as_str).is_some());
            assert!(f.get("line").and_then(Value::as_u64).is_some());
            assert!(f.get("col").and_then(Value::as_u64).is_some());
            assert!(f.get("message").and_then(Value::as_str).is_some());
            assert!(f.get("snippet").and_then(Value::as_str).is_some());
            let waived = f.get("waived").expect("waived key present");
            let reason = f.get("reason").expect("reason key present");
            match waived {
                Value::Bool(true) => {
                    assert!(
                        matches!(reason, Value::Str(_)),
                        "a waived finding carries its reason string"
                    );
                }
                Value::Bool(false) => {
                    assert_eq!(reason, &Value::Null, "unwaived findings have no reason");
                }
                other => panic!("waived is a bool, got {other:?}"),
            }
        }

        let summary = v.get("summary").expect("summary object");
        let total = summary.get("total").and_then(Value::as_u64).unwrap();
        let waived = summary.get("waived").and_then(Value::as_u64).unwrap();
        let unwaived = summary.get("unwaived").and_then(Value::as_u64).unwrap();
        assert!(
            summary
                .get("files_scanned")
                .and_then(Value::as_u64)
                .unwrap()
                > 0
        );
        assert_eq!(total as usize, findings.len());
        assert_eq!(waived + unwaived, total);
    }

    /// `flb record --offline` and `flb replay --spawn` are a closed loop:
    /// the trace is byte-for-byte regenerable from its seed and replays
    /// with every deterministic reply digest matching.
    #[test]
    fn record_and_replay_round_trip_via_cli() {
        let base = std::env::temp_dir().join(format!("flb-cli-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dir_a = base.join("a");
        let dir_b = base.join("b");
        let a = dir_a.to_str().unwrap().to_string();
        let b = dir_b.to_str().unwrap().to_string();

        let out = run_str(&[
            "record",
            "--offline",
            "--out",
            &a,
            "--requests",
            "12",
            "--seed",
            "42",
        ])
        .unwrap();
        assert!(out.contains("recorded 12 requests"), "{out}");

        // The pinned-trace contract: same seed, same bytes, every run.
        run_str(&[
            "record",
            "--offline",
            "--out",
            &b,
            "--requests",
            "12",
            "--seed",
            "42",
        ])
        .unwrap();
        let seg = flb_service::journal::segment_file_name(1);
        assert_eq!(
            std::fs::read(dir_a.join(&seg)).unwrap(),
            std::fs::read(dir_b.join(&seg)).unwrap(),
            "offline traces must be byte-identical across runs"
        );

        let replayed = run_str(&["replay", "--trace", &a, "--spawn"]).unwrap();
        assert!(replayed.contains("sent        12"), "{replayed}");
        assert!(replayed.contains("mismatched  0"), "{replayed}");

        // Flag validation: both commands name their missing argument.
        assert!(run_str(&["record", "--offline"])
            .unwrap_err()
            .to_string()
            .contains("--out"));
        assert!(run_str(&["replay", "--spawn"])
            .unwrap_err()
            .to_string()
            .contains("--trace"));
        // A missing trace is reported, not panicked on.
        assert!(run_str(&["replay", "--trace", "/nonexistent/trace"])
            .unwrap_err()
            .to_string()
            .contains("/nonexistent/trace"));
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `flb stats --format json` and `flb chaos --format json` emit the
    /// stable `flb-service-stats/v1` / `flb-chaos/v1` schemas, parsed
    /// here with the bench JSON reader (the same one CI tooling uses).
    #[test]
    fn stats_and_chaos_json_schemas_are_stable() {
        use flb_bench::json::{parse, Value};

        let base = std::env::temp_dir().join(format!("flb-cli-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let sock = base.join("flb.sock");
        let listen = format!("unix:{}", sock.display());
        let record_dir = base.join("journal");
        let record = record_dir.to_str().unwrap().to_string();

        let server = {
            let listen = listen.clone();
            let record = record.clone();
            std::thread::spawn(move || {
                run_str(&[
                    "serve",
                    "--listen",
                    &listen,
                    "--workers",
                    "2",
                    "--record",
                    &record,
                    "--journal-sync",
                    "always",
                ])
            })
        };
        let mut ready = false;
        for _ in 0..200 {
            if run_str(&["submit", "--listen", &listen, "--ping"]).is_ok() {
                ready = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(ready, "daemon never became reachable on {listen}");
        run_str(&[
            "submit", "--listen", &listen, "--fig1", "--alg", "flb", "--procs", "2",
        ])
        .unwrap();

        // The journal hand-off is asynchronous, so poll until the writer
        // has drained the append before sampling the schema.
        let mut out = String::new();
        for _ in 0..200 {
            out = run_str(&["stats", "--listen", &listen, "--format", "json"]).unwrap();
            if parse(&out)
                .ok()
                .and_then(|v| v.get("journal_appended").and_then(Value::as_u64))
                == Some(1)
            {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let v = parse(&out).expect("stats emits valid JSON");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("flb-service-stats/v1")
        );
        for key in [
            "requests",
            "schedule_requests",
            "p50_us",
            "p99_us",
            "journal_appended",
            "journal_dropped",
            "journal_bytes",
            "journal_segments",
            "journal_recovered",
            "journal_truncated_bytes",
            "journal_quarantined",
            "quarantine_pruned",
        ] {
            assert!(
                v.get(key).and_then(Value::as_u64).is_some(),
                "stats JSON missing counter {key:?}: {out}"
            );
        }
        assert!(v.get("hit_rate").and_then(Value::as_f64).is_some());
        assert!(v.get("overload_state").and_then(Value::as_str).is_some());
        assert!(v.get("per_algorithm").and_then(Value::as_array).is_some());
        // The daemon records, so the served request reached the journal.
        assert_eq!(v.get("journal_appended").and_then(Value::as_u64), Some(1));

        // Chaos with a recorded corpus, reported as JSON.
        let trace_dir = base.join("trace");
        let trace = trace_dir.to_str().unwrap().to_string();
        run_str(&[
            "record",
            "--offline",
            "--out",
            &trace,
            "--requests",
            "10",
            "--seed",
            "7",
        ])
        .unwrap();
        let out = run_str(&[
            "chaos",
            "--listen",
            &listen,
            "--seed",
            "5",
            "--scenarios",
            "30",
            "--flood-ms",
            "300",
            "--probe-requests",
            "6",
            "--trace",
            &trace,
            "--format",
            "json",
        ])
        .unwrap();
        let v = parse(&out).expect("chaos emits valid JSON");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("flb-chaos/v1")
        );
        assert_eq!(v.get("passed"), Some(&Value::Bool(true)));
        assert_eq!(v.get("trace_frames").and_then(Value::as_u64), Some(10));
        for key in ["scenarios", "torn_frames", "floods", "probes_ok"] {
            assert!(
                v.get(key).and_then(Value::as_u64).is_some(),
                "chaos JSON missing counter {key:?}: {out}"
            );
        }
        assert_eq!(
            v.get("failures")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0),
            "{out}"
        );

        run_str(&["submit", "--listen", &listen, "--shutdown"]).unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn generate_text_roundtrips() {
        let text = run_str(&[
            "generate", "--family", "stencil", "--tasks", "40", "--ccr", "0.5", "--seed", "3",
        ])
        .unwrap();
        let g = parse_text(&text).unwrap();
        assert!(g.num_tasks() >= 30);
    }

    #[test]
    fn generate_dot() {
        let dot = run_str(&["generate", "--fig1", "--dot"]).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn info_fig1() {
        let info = run_str(&["info", "--fig1"]).unwrap();
        assert!(info.contains("tasks (V)       8"));
        assert!(info.contains("edges (E)       10"));
        assert!(info.contains("width (exact)   3"));
        assert!(info.contains("critical path   15"));
    }

    #[test]
    fn schedule_with_trace_gantt_simulate() {
        let out = run_str(&[
            "schedule",
            "--fig1",
            "--alg",
            "flb",
            "--procs",
            "2",
            "--trace",
            "--gantt",
            "--simulate",
        ])
        .unwrap();
        assert!(out.contains("EP tasks on p0"));
        assert!(out.contains("makespan        14"));
        assert!(out.contains("replay agrees: true"));
        assert!(out.contains("p0  |"));
    }

    #[test]
    fn trace_requires_flb() {
        assert!(run_str(&["schedule", "--fig1", "--alg", "etf", "--trace"]).is_err());
    }

    #[test]
    fn compare_fig1() {
        let out = run_str(&["compare", "--fig1", "--procs", "2"]).unwrap();
        for alg in ["MCP", "ETF", "DSC-LLB", "FCP", "FLB"] {
            assert!(out.contains(alg), "missing {alg} in:\n{out}");
        }
    }

    #[test]
    fn save_and_simulate_roundtrip() {
        let dir = std::env::temp_dir().join("flb-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sched_path = dir.join("fig1.sched");
        let sched_path = sched_path.to_str().unwrap();

        let out = run_str(&[
            "schedule", "--fig1", "--alg", "flb", "--procs", "2", "--save", sched_path,
        ])
        .unwrap();
        assert!(out.contains("schedule saved"));

        let sim = run_str(&["simulate", "--fig1", "--schedule", sched_path]).unwrap();
        assert!(sim.contains("sim makespan    14"), "{sim}");

        let port =
            run_str(&["simulate", "--fig1", "--schedule", sched_path, "--one-port"]).unwrap();
        assert!(port.contains("OnePort"));
        std::fs::remove_file(sched_path).ok();
    }

    #[test]
    fn simulate_rejects_mismatched_graph() {
        let dir = std::env::temp_dir().join("flb-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("tiny.sched");
        std::fs::write(&p, "procs 1\ns 0 0 0 1\n").unwrap();
        let r = run_str(&["simulate", "--fig1", "--schedule", p.to_str().unwrap()]);
        assert!(r.is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn transform_reduce_and_coarsen() {
        let reduced = run_str(&["transform", "--fig1", "--reduce"]).unwrap();
        let g = parse_text(&reduced).unwrap();
        assert_eq!(g.num_edges(), 10); // fig1 is already reduced

        let coarse = run_str(&["transform", "--fig1", "--coarsen"]).unwrap();
        let g = parse_text(&coarse).unwrap();
        assert_eq!(g.num_tasks(), 7); // t2 -> t6 chain merged

        assert!(run_str(&["transform", "--fig1"]).is_err());
        assert!(run_str(&["transform", "--fig1", "--reduce", "--coarsen"]).is_err());
        let dot = run_str(&["transform", "--fig1", "--reduce", "--dot"]).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    /// `AlgorithmId` is the one scheduler registry: each of its names is a
    /// conformance entry with the replay class its kind of schedule owes
    /// the simulator, and an `--alg` value.
    #[test]
    fn every_wire_algorithm_is_a_conformance_entry_and_a_cli_algorithm() {
        use flb_conformance::registry::{by_name, Replay};
        for alg in AlgorithmId::ALL {
            let entry = by_name(alg.name()).unwrap_or_else(|| panic!("{alg} not registered"));
            let insertion = matches!(alg, AlgorithmId::McpInsertion | AlgorithmId::Heft);
            let expected = if insertion {
                Replay::NoLater
            } else {
                Replay::Exact
            };
            assert_eq!(entry.replay, expected, "{alg}");
            let out =
                run_str(&["schedule", "--fig1", "--alg", alg.name(), "--procs", "2"]).unwrap();
            assert!(out.contains("makespan"), "{alg}: {out}");
        }
    }

    #[test]
    fn extended_algorithms_available() {
        for alg in ["runtime-bl", "runtime-fifo", "runtime-lpt"] {
            let out = run_str(&["schedule", "--fig1", "--alg", alg, "--procs", "2"]).unwrap();
            assert!(out.contains("makespan"), "{alg}");
        }
    }

    #[test]
    fn svg_and_trace_csv_exports() {
        let dir = std::env::temp_dir().join("flb-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let svg_path = dir.join("fig1.svg");
        let csv_path = dir.join("fig1.csv");
        let out = run_str(&[
            "schedule",
            "--fig1",
            "--alg",
            "flb",
            "--procs",
            "2",
            "--svg",
            svg_path.to_str().unwrap(),
            "--trace-csv",
            csv_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("SVG Gantt chart saved"));
        assert!(out.contains("trace CSV saved"));
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg "));
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("iteration,kind,task"));
        assert_eq!(csv.matches(",decision,").count(), 8);
        std::fs::remove_file(&svg_path).ok();
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn html_report_generation() {
        let dir = std::env::temp_dir().join("flb-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.html");
        let out = run_str(&[
            "report",
            "--fig1",
            "--procs",
            "2",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("report written"));
        let html = std::fs::read_to_string(&path).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        for alg in ["MCP", "ETF", "DSC-LLB", "FCP", "FLB", "DLS", "HEFT"] {
            assert!(html.contains(&format!("<td>{alg}</td>")), "missing {alg}");
        }
        // One SVG chart per algorithm.
        assert_eq!(html.matches("<svg ").count(), 7);
        assert!(html.contains("critical path 15"));
        std::fs::remove_file(&path).ok();

        assert!(run_str(&["report", "--fig1"]).is_err()); // missing --out
    }

    #[test]
    fn related_machine_via_speeds() {
        let out = run_str(&["schedule", "--fig1", "--alg", "dls", "--speeds", "1,3"]).unwrap();
        assert!(out.contains("processors      2"), "{out}");
        let cmp = run_str(&["compare", "--fig1", "--speeds", "1,2,4"]).unwrap();
        assert!(cmp.contains("DLS"));
        assert!(run_str(&["schedule", "--fig1", "--speeds", "1,0"]).is_err());
        assert!(run_str(&["schedule", "--fig1", "--speeds", "abc"]).is_err());
    }

    #[test]
    fn stg_generate_and_load() {
        let dir = std::env::temp_dir().join("flb-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bench.stg");
        let stg = run_str(&["generate", "--family", "lu", "--tasks", "30", "--stg"]).unwrap();
        std::fs::write(&p, &stg).unwrap();
        let info = run_str(&["info", "--input", p.to_str().unwrap()]).unwrap();
        assert!(info.contains("tasks (V)"));
        let out = run_str(&[
            "schedule",
            "--input",
            p.to_str().unwrap(),
            "--alg",
            "flb",
            "--procs",
            "3",
        ])
        .unwrap();
        assert!(out.contains("makespan"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn faults_replay_and_repair() {
        // Fault-free: identical to the planned schedule.
        let out = run_str(&["faults", "--fig1", "--procs", "2"]).unwrap();
        assert!(out.contains("tasks finished  8/8"), "{out}");
        assert!(out.contains("achieved span   14"), "{out}");

        // p1 fails at 6; online repair must beat or match the naive remap.
        let out = run_str(&[
            "faults", "--fig1", "--procs", "2", "--fail", "1@6", "--repair", "--trace",
        ])
        .unwrap();
        assert!(out.contains("proc failures   1"), "{out}");
        assert!(out.contains("repair at t=6"), "{out}");
        assert!(out.contains("repaired span"), "{out}");
        assert!(out.contains("naive remap"), "{out}");
        assert!(out.contains("clairvoyant"), "{out}");
        assert!(out.contains("fault trace:"), "{out}");

        // Stragglers and message loss run to completion.
        let out = run_str(&[
            "faults",
            "--fig1",
            "--procs",
            "2",
            "--straggle",
            "3@2.0",
            "--loss",
            "0.2:3:8",
        ])
        .unwrap();
        assert!(out.contains("tasks finished  8/8"), "{out}");
    }

    #[test]
    fn faults_flag_validation() {
        assert!(run_str(&["faults", "--fig1", "--procs", "2", "--fail", "9@1"]).is_err());
        assert!(run_str(&["faults", "--fig1", "--procs", "2", "--fail", "oops"]).is_err());
        assert!(run_str(&["faults", "--fig1", "--procs", "2", "--loss", "1.5"]).is_err());
        assert!(run_str(&["faults", "--fig1", "--procs", "2", "--straggle", "3@0.5"]).is_err());
        assert!(run_str(&["faults", "--fig1", "--procs", "2", "--repair"]).is_err());
        // Failing every processor leaves nothing to repair onto.
        assert!(run_str(&[
            "faults", "--fig1", "--procs", "2", "--fail", "0@1", "--fail", "1@1", "--repair",
        ])
        .is_err());
    }

    #[test]
    fn fuzz_smoke_is_clean_and_deterministic() {
        let out = run_str(&[
            "fuzz",
            "--seed",
            "42",
            "--cases",
            "10",
            "--max-tasks",
            "16",
            "--max-procs",
            "4",
        ])
        .unwrap();
        assert!(out.contains("cases           10"), "{out}");
        assert!(out.contains("violations      0"), "{out}");
    }

    #[test]
    fn fuzz_replays_the_committed_corpus() {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let out = run_str(&["fuzz", "--replay", corpus]).unwrap();
        assert!(out.contains("0 failing"), "{out}");
        assert!(out.contains("ok    "), "{out}");

        // Replaying a single file also works.
        let file = std::fs::read_dir(corpus)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "flb"))
            .expect("committed corpus has .flb files");
        let out = run_str(&["fuzz", "--replay", file.to_str().unwrap()]).unwrap();
        assert!(out.contains("replayed 1 file(s), 0 failing"), "{out}");
    }

    #[test]
    fn fuzz_flag_validation() {
        assert!(run_str(&["fuzz", "--cases", "0"]).is_err());
        assert!(run_str(&["fuzz", "--max-tasks", "1"]).is_err());
        assert!(run_str(&["fuzz", "--seed", "abc"]).is_err());
        assert!(run_str(&["fuzz", "--replay", "/definitely/missing.flb"]).is_err());
    }

    #[test]
    fn info_profile_flag() {
        let out = run_str(&["info", "--fig1", "--profile"]).unwrap();
        assert!(out.contains("parallelism profile"));
        assert!(out.contains("[1, 3, 3, 1]"));
    }

    #[test]
    fn serve_and_submit_over_unix_socket() {
        let sock = std::env::temp_dir().join(format!("flb-cli-serve-{}.sock", std::process::id()));
        let listen = format!("unix:{}", sock.display());

        let server = {
            let listen = listen.clone();
            std::thread::spawn(move || run_str(&["serve", "--listen", &listen, "--workers", "2"]))
        };
        // Wait for the daemon to come up.
        let mut ready = false;
        for _ in 0..200 {
            if run_str(&["submit", "--listen", &listen, "--ping"]).is_ok() {
                ready = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(ready, "daemon never became reachable on {listen}");

        // First submission computes; the resubmission must hit the cache,
        // and --check verifies bit-identity with a local run.
        let submit = |extra: &[&str]| {
            let mut argv = vec![
                "submit", "--listen", &listen, "--fig1", "--alg", "flb", "--procs", "2",
            ];
            argv.extend_from_slice(extra);
            run_str(&argv)
        };
        let first = submit(&["--check"]).unwrap();
        assert!(first.contains("makespan 14"), "{first}");
        assert!(first.contains("cached: false"), "{first}");
        assert!(first.contains("identical to local run"), "{first}");
        let second = submit(&["--repeat", "2"]).unwrap();
        assert!(second.contains("cached: true"), "{second}");

        let stats = run_str(&["submit", "--listen", &listen, "--stats"]).unwrap();
        assert!(stats.contains("hit rate"), "{stats}");

        assert!(run_str(&["submit", "--listen", &listen, "--fig1", "--alg", "nope"]).is_err());

        let bye = run_str(&["submit", "--listen", &listen, "--shutdown"]).unwrap();
        assert!(bye.contains("shutting down"));
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("service stopped"));
        assert!(!sock.exists());
    }

    #[test]
    fn quota_flags_shed_over_quota_tenants_via_cli() {
        let sock = std::env::temp_dir().join(format!("flb-cli-quota-{}.sock", std::process::id()));
        let listen = format!("unix:{}", sock.display());

        let server = {
            let listen = listen.clone();
            std::thread::spawn(move || {
                run_str(&[
                    "serve",
                    "--listen",
                    &listen,
                    "--workers",
                    "2",
                    "--tenant-quota",
                    "1:2",
                    "--shed-policy",
                    "strict",
                ])
            })
        };
        let mut ready = false;
        for _ in 0..200 {
            if run_str(&["submit", "--listen", &listen, "--ping"]).is_ok() {
                ready = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(ready, "daemon never became reachable on {listen}");

        // Distinct graphs (seeded) so the cache cannot answer; a burst of
        // 2 at 1 req/s means the third rapid submission is shed. --retries
        // 0 surfaces the rejection instead of sleeping through the refill.
        let submit = |seed: &str, tenant: &str| {
            run_str(&[
                "submit",
                "--listen",
                &listen,
                "--family",
                "lu",
                "--tasks",
                "6",
                "--seed",
                seed,
                "--alg",
                "flb",
                "--procs",
                "2",
                "--tenant",
                tenant,
                "--retries",
                "0",
            ])
        };
        assert!(submit("1", "team-a").is_ok());
        assert!(submit("2", "team-a").is_ok());
        let third = submit("3", "team-a").expect_err("burst spent: must be shed");
        assert!(third.to_string().contains("over quota"), "{third}");
        // Another tenant's bucket is untouched.
        assert!(submit("4", "team-b").is_ok());

        // Per-tenant accounting shows up in the stats block.
        let stats = run_str(&["submit", "--listen", &listen, "--stats"]).unwrap();
        assert!(stats.contains("team-a"), "{stats}");
        assert!(stats.contains("overload state"), "{stats}");

        run_str(&["submit", "--listen", &listen, "--shutdown"]).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn quota_and_policy_flag_validation() {
        assert_eq!(parse_quota("100").unwrap(), (100.0, 0.0));
        assert_eq!(parse_quota("100:25").unwrap(), (100.0, 25.0));
        assert_eq!(parse_quota("0.5:1.5").unwrap(), (0.5, 1.5));
        assert!(parse_quota("abc").is_err());
        assert!(parse_quota("100:").is_err());
        assert!(parse_quota("-1").is_err());
        assert!(parse_quota("1:-2").is_err());
        // Bad policy names are rejected before the daemon binds anything.
        let e = run_str(&[
            "serve",
            "--listen",
            "unix:/tmp/never.sock",
            "--shed-policy",
            "bogus",
        ])
        .expect_err("bogus policy");
        assert!(e.to_string().contains("--shed-policy"), "{e}");
    }

    #[test]
    fn chaos_against_a_marker_enabled_daemon() {
        let sock = std::env::temp_dir().join(format!("flb-cli-chaos-{}.sock", std::process::id()));
        let listen = format!("unix:{}", sock.display());

        let server = {
            let listen = listen.clone();
            std::thread::spawn(move || {
                run_str(&[
                    "serve",
                    "--listen",
                    &listen,
                    "--workers",
                    "2",
                    "--chaos-markers",
                ])
            })
        };
        let mut ready = false;
        for _ in 0..200 {
            if run_str(&["submit", "--listen", &listen, "--ping"]).is_ok() {
                ready = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(ready, "daemon never became reachable on {listen}");

        // --tenant-chaos adds one round of the four tenant scenarios
        // (60/100 rounds to 1) plus the isolation experiment, so the
        // scenario count lands at 64.
        let out = run_str(&[
            "chaos",
            "--listen",
            &listen,
            "--seed",
            "11",
            "--scenarios",
            "60",
            "--inject-panics",
            "--expect-workers",
            "2",
            "--tenant-chaos",
            "--flood-ms",
            "600",
            "--probe-requests",
            "8",
        ])
        .unwrap();
        assert!(out.contains("scenarios       64"), "{out}");
        assert!(out.contains("failures        0"), "{out}");
        assert!(out.contains("panics injected"), "{out}");
        assert!(out.contains("tenant floods   1"), "{out}");
        assert!(out.contains("breaker flaps   1"), "{out}");
        assert!(out.contains("probe shed      0"), "{out}");

        // The survivor still serves a correct schedule afterwards.
        let post = run_str(&[
            "submit", "--listen", &listen, "--fig1", "--alg", "flb", "--procs", "2", "--check",
        ])
        .unwrap();
        assert!(post.contains("identical to local run"), "{post}");

        run_str(&["submit", "--listen", &listen, "--shutdown"]).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn serve_with_cache_file_warm_restarts_via_cli() {
        let dir = std::env::temp_dir().join(format!("flb-cli-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("cache.snap");
        let sock = dir.join("warm.sock");
        let listen = format!("unix:{}", sock.display());

        let generation = |expect_cached: bool| {
            let server = {
                let listen = listen.clone();
                let snap = snap.to_str().unwrap().to_owned();
                std::thread::spawn(move || {
                    run_str(&[
                        "serve",
                        "--listen",
                        &listen,
                        "--workers",
                        "2",
                        "--cache-file",
                        &snap,
                    ])
                })
            };
            let mut ready = false;
            for _ in 0..200 {
                if run_str(&["submit", "--listen", &listen, "--ping"]).is_ok() {
                    ready = true;
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(ready, "daemon never became reachable on {listen}");
            let out = run_str(&[
                "submit", "--listen", &listen, "--fig1", "--alg", "flb", "--procs", "2",
            ])
            .unwrap();
            assert!(
                out.contains(&format!("cached: {expect_cached}")),
                "expected cached: {expect_cached} in {out}"
            );
            run_str(&["submit", "--listen", &listen, "--shutdown"]).unwrap();
            server.join().unwrap().unwrap();
        };

        generation(false); // cold: computes, snapshots on shutdown
        assert!(snap.exists(), "shutdown must write the snapshot");
        generation(true); // warm: same request served from the snapshot
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_flag_validation() {
        assert!(run_str(&["chaos", "--scenarios", "0"]).is_err());
        assert!(run_str(&["chaos", "--expect-workers", "many"]).is_err());
        // No daemon listening: a clean error, not a hang.
        assert!(run_str(&[
            "chaos",
            "--listen",
            "unix:/definitely/missing.sock",
            "--scenarios",
            "1"
        ])
        .is_err());
    }

    #[test]
    fn submit_without_daemon_errors() {
        // Nothing listens on this socket: connection must fail cleanly.
        let r = run_str(&[
            "submit",
            "--listen",
            "unix:/definitely/missing.sock",
            "--ping",
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn bad_flag_values_error() {
        assert!(run_str(&["schedule", "--fig1", "--procs", "zero"]).is_err());
        assert!(run_str(&["schedule", "--fig1", "--procs", "0"]).is_err());
        assert!(run_str(&["generate", "--family", "nope"]).is_err());
        assert!(run_str(&["info"]).is_err());
        assert!(run_str(&["info", "--input", "/definitely/missing.tg"]).is_err());
        assert!(run_str(&["schedule", "--fig1", "--alg", "nope"]).is_err());
    }
}
