//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each figure/table has a dedicated binary (see DESIGN.md's experiment
//! index):
//!
//! * `table1` — the FLB execution trace of Fig. 1 / Table 1;
//! * `fig2`   — scheduling running times vs `P` (Fig. 2);
//! * `fig3`   — FLB speedups vs `P` per problem and CCR (Fig. 3);
//! * `fig4`   — normalised schedule lengths vs MCP (Fig. 4), plus the §6.2
//!   summary comparisons;
//! * `ablations` — the A1–A3 design-choice ablations of DESIGN.md;
//! * `complexity`, `contention`, `duplication`, `extended`, `faults`,
//!   `hetero`, `robustness`, `runtime` and `service` — the extension
//!   experiments of EXPERIMENTS.md, each with its command there.
//!
//! Binaries accept `--quick` to run a scaled-down suite (~200-task graphs,
//! 2 instances) so the whole pipeline can be exercised in seconds; without
//! it they run the paper-scale suite (`V ≈ 2000`, 5 instances).
//!
//! The library is what the binaries share: the scheduler registry, the
//! parallel [`measure_all`] runner, table/CSV formatting and the peak-RSS
//! reading. [`json`] is the small JSON reader `flb-cli`'s schema tests
//! parse `--format json` output with. The end-to-end benchmark is
//! `perfbench/`, outside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod json;
pub mod mem;
pub mod registry;
pub mod report;
pub mod runner;

pub use registry::{named_schedulers, scheduler_names};
pub use runner::{measure_all, Measurement};

/// Parses the common CLI flags of the harness binaries: returns the suite
/// (paper or `--quick`) and whether quick mode is on.
#[must_use]
pub fn suite_from_args(args: &[String]) -> (flb_workloads::SuiteSpec, bool) {
    let quick = args.iter().any(|a| a == "--quick");
    let spec = if quick {
        flb_workloads::SuiteSpec::small()
    } else {
        flb_workloads::SuiteSpec::paper()
    };
    (spec, quick)
}
