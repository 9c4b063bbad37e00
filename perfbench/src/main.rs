//! perfbench: the end-to-end and per-layer benchmark of the FLB daemon and
//! kernel.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --flb PATH --out-dir DIR
//! ```
//!
//! Workloads: `kernel-lu1m`, `serve-miss`, `serve-hit`, `serve-mix`, or
//! `all` of them in turn (see README.md). Untraced runs (`--trace 0`) report the end-to-end
//! metrics; traced runs (`--trace 1`) measure the first half of the run
//! untraced, the second half traced, and report the per-layer metrics
//! plus the tracing overhead. The last stdout line is one JSON object;
//! the exit code is 0 only when every output and counter checked out.
//! `bash perfbench/run.sh ...` builds everything and supplies `--flb`
//! and `--out-dir`.

mod gen;
mod kernel;
mod procfs;
mod report;
mod serve;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["kernel-lu1m", "serve-miss", "serve-hit", "serve-mix"];

/// Options of one benchmark run.
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured duration in seconds.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// The `flb` binary to serve with.
    pub flb: PathBuf,
    /// Directory for journals and span files.
    pub out_dir: PathBuf,
}

fn value<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {flag}"))
}

fn number(args: &[String], flag: &str) -> Result<u64, String> {
    let v = value(args, flag)?;
    v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))
}

fn trace_flag(args: &[String]) -> Result<bool, String> {
    match value(args, "--trace")? {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--trace must be 0 or 1, not {other:?}")),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let workload = value(args, "--workload")?.to_owned();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or all"
        ));
    }
    let seconds = number(args, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number(args, "--seed")?,
        seconds,
        trace: trace_flag(args)?,
        flb: PathBuf::from(value(args, "--flb")?),
        out_dir: PathBuf::from(value(args, "--out-dir")?),
    })
}

fn run(args: &Args, workload: &str) -> Outcome {
    let mut out = Outcome::default();
    let steal0 = procfs::steal_ticks();
    let result = match workload {
        "kernel-lu1m" => kernel::run(args, &mut out),
        "serve-miss" => serve::run(serve::Workload::Miss, args, &mut out),
        "serve-hit" => serve::run(serve::Workload::Hit, args, &mut out),
        "serve-mix" => serve::run(serve::Workload::Mix, args, &mut out),
        _ => unreachable!("workload names are checked by parse"),
    };
    if let Err(e) = result {
        out.problem(format!("run aborted: {e}"));
    }
    if let (Ok(a), Ok(b)) = (steal0, procfs::steal_ticks()) {
        out.info("steal_ticks_during_run", (b - a).to_string());
        out.layer("host.steal_ticks", (b - a) as f64);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.layer("host.nproc", nproc as f64);
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("kernel-child") {
        let child = (|| {
            Ok::<_, String>(kernel::ChildArgs {
                seed: number(&argv, "--seed")?,
                seconds: number(&argv, "--seconds")?,
                trace: trace_flag(&argv)?,
                out_dir: PathBuf::from(value(&argv, "--out-dir")?),
            })
        })();
        return match child.map(|c| kernel::child(&c).map_err(|e| e.to_string())) {
            Ok(Ok(())) => ExitCode::SUCCESS,
            Ok(Err(e)) | Err(e) => {
                eprintln!("perfbench kernel-child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 --flb PATH --out-dir DIR"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    // `all` runs every workload in turn; each prints its own report.
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let out = run(&args, name);
        let header = format!(
            "perfbench workload={name} seed={} seconds={} trace={}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        print!("{}", out.render(args.trace, &header));
        all_correct &= out.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
