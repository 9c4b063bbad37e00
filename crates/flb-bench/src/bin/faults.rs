//! Experiment X10 (extension): fault-injected execution and online repair.
//!
//! A compile-time FLB schedule is executed on the discrete-event machine
//! while faults are injected (`flb_sim::simulate_faulty`): fail-stop
//! processor failures, lost messages with timeout/retry, and stragglers.
//! Three questions are answered:
//!
//! 1. **Repair quality.** After a processor fails partway through the run,
//!    the execution state is snapshotted and the remaining work re-planned
//!    three ways: warm-restarted FLB on the residual graph
//!    (`repair_flb`), the no-scheduler round-robin baseline
//!    (`naive_remap`), and clairvoyant FLB that knew about the failure at
//!    time zero (`clairvoyant_flb` — a lower reference, not achievable
//!    online). Reported as makespan relative to the fault-free run.
//! 2. **Message-loss degradation.** Lost messages cost timeout + retry
//!    time; the achieved makespan inflates with the loss probability.
//! 3. **Straggler degradation.** The longest tasks run `xF` slower; the
//!    schedule absorbs some of it (slack) and inherits the rest.
//!
//! Run: `cargo run -p flb-bench --release --bin faults [--quick]`

use flb_bench::report::{fmt_ratio, table};
use flb_bench::suite_from_args;
use flb_core::{clairvoyant_flb, naive_remap, repair_flb, TieBreak};
use flb_kernel::FlbKernel;
use flb_sched::repair::validate_repaired;
use flb_sched::{Machine, ProcId, Scheduler};
use flb_sim::{simulate_faulty, FaultSpec, SimConfig};
use flb_workloads::stats::geo_mean;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (spec, quick) = suite_from_args(&args);
    let suite = spec.generate();
    let procs: &[usize] = if quick { &[8] } else { &[8, 32] };
    let cfg = SimConfig::default();
    println!(
        "Fault injection and online repair ({} workloads, V ~ {}, P in {procs:?})\n",
        suite.len(),
        spec.target_tasks
    );

    let flb = FlbKernel::new();

    // --- 1. Processor failure at a fraction of the fault-free makespan,
    //        repaired three ways. ---------------------------------------
    let fractions = [0.25, 0.5, 0.75];
    println!("1. One processor fails at t = f * makespan (repaired makespan / fault-free)");
    let mut rows = Vec::new();
    for &ccr in &spec.ccrs {
        for &p in procs {
            let machine = Machine::new(p);
            let mut row = vec![format!("{ccr}"), p.to_string()];
            for &f in &fractions {
                let (mut repair, mut naive, mut clair) = (Vec::new(), Vec::new(), Vec::new());
                for (i, w) in suite.iter().filter(|w| w.ccr == ccr).enumerate() {
                    let s = flb.schedule(&w.graph, &machine);
                    let m0 = s.makespan() as f64;
                    let at = (s.makespan() as f64 * f) as u64;
                    let dead = ProcId(i % p); // rotate the victim
                    let fault = FaultSpec::new(0xFA_17 ^ i as u64).fail(dead, at);
                    let run = simulate_faulty(&w.graph, &s, &cfg, &fault);
                    let exec = run.exec_state_at(&s, &fault, at);

                    let r = repair_flb(&w.graph, &machine, &exec, TieBreak::BottomLevel);
                    validate_repaired(&w.graph, &exec, &r).expect("repair validates");
                    repair.push(r.makespan() as f64 / m0);

                    let n = naive_remap(&w.graph, &s, &exec);
                    validate_repaired(&w.graph, &exec, &n).expect("naive remap validates");
                    naive.push(n.makespan() as f64 / m0);

                    let c = clairvoyant_flb(&w.graph, &machine, &exec.alive, TieBreak::BottomLevel);
                    clair.push(c.makespan() as f64 / m0);
                }
                row.push(format!(
                    "{}/{}/{}",
                    fmt_ratio(geo_mean(&repair)),
                    fmt_ratio(geo_mean(&naive)),
                    fmt_ratio(geo_mean(&clair))
                ));
            }
            rows.push(row);
        }
    }
    let mut header = vec!["CCR".to_string(), "P".to_string()];
    header.extend(fractions.iter().map(|f| format!("f={f} (FLB/naive/clair)")));
    println!("{}", table(&header, &rows));
    println!("FLB = warm-restart repair; naive = keep order, round-robin stranded tasks;");
    println!("clair = FLB that knew the failure at t=0 (offline reference).\n");

    // --- 2. Message loss: achieved makespan vs loss probability. -------
    let loss_probs = [0.01, 0.05, 0.1];
    println!("2. Message loss with timeout/retry (achieved makespan / fault-free)");
    let mut rows = Vec::new();
    for &ccr in &spec.ccrs {
        for &p in procs {
            let machine = Machine::new(p);
            let mut row = vec![format!("{ccr}"), p.to_string()];
            for &prob in &loss_probs {
                let mut degradation = Vec::new();
                for (i, w) in suite.iter().filter(|w| w.ccr == ccr).enumerate() {
                    let s = flb.schedule(&w.graph, &machine);
                    let m0 = s.makespan() as f64;
                    // Timeout comparable to a typical message; retries
                    // bounded but ample, so every run completes.
                    let timeout = (w.graph.total_comm() / w.graph.num_edges().max(1) as u64).max(1);
                    let fault = FaultSpec::new(0x105E ^ i as u64).with_loss(prob, timeout, 16);
                    let run = simulate_faulty(&w.graph, &s, &cfg, &fault);
                    assert!(run.is_complete(), "bounded retries must deliver");
                    degradation.push(run.makespan as f64 / m0);
                }
                row.push(fmt_ratio(geo_mean(&degradation)));
            }
            rows.push(row);
        }
    }
    let mut header = vec!["CCR".to_string(), "P".to_string()];
    header.extend(loss_probs.iter().map(|p| format!("loss {:.0}%", p * 100.0)));
    println!("{}", table(&header, &rows));
    println!("lost sends are retried after an exponentially backed-off timeout.\n");

    // --- 3. Stragglers: the longest tasks slow down by xF. -------------
    let factors = [1.5, 2.0, 4.0];
    println!("3. Stragglers: the 5% longest tasks run xF slower (achieved / fault-free)");
    let mut rows = Vec::new();
    for &ccr in &spec.ccrs {
        for &p in procs {
            let machine = Machine::new(p);
            let mut row = vec![format!("{ccr}"), p.to_string()];
            for &factor in &factors {
                let mut degradation = Vec::new();
                for (i, w) in suite.iter().filter(|w| w.ccr == ccr).enumerate() {
                    let s = flb.schedule(&w.graph, &machine);
                    let m0 = s.makespan() as f64;
                    let mut by_comp: Vec<_> = w.graph.tasks().collect();
                    by_comp.sort_by_key(|&t| std::cmp::Reverse(w.graph.comp(t)));
                    let slow = (w.graph.num_tasks() / 20).max(1);
                    let mut fault = FaultSpec::new(0x57A6 ^ i as u64);
                    for &t in by_comp.iter().take(slow) {
                        fault = fault.straggle(t, factor);
                    }
                    let run = simulate_faulty(&w.graph, &s, &cfg, &fault);
                    assert!(run.is_complete(), "stragglers cannot block completion");
                    degradation.push(run.makespan as f64 / m0);
                }
                row.push(fmt_ratio(geo_mean(&degradation)));
            }
            rows.push(row);
        }
    }
    let mut header = vec!["CCR".to_string(), "P".to_string()];
    header.extend(factors.iter().map(|f| format!("x{f}")));
    println!("{}", table(&header, &rows));
    println!("the eager simulator re-times the fixed order, so slack absorbs part of");
    println!("the slowdown; the rest surfaces as makespan inflation.");
}
