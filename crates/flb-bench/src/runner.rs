//! Experiment execution: schedule every workload with every algorithm at
//! every machine size, in parallel across workloads.

use crate::registry::named_schedulers;
use flb_sched::{validate::validate, Machine};
use flb_workloads::Workload;
use parking_lot::Mutex;
use std::time::Instant;

/// One (workload, algorithm, machine-size) measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Index of the workload in the input slice.
    pub workload: usize,
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Number of processors.
    pub procs: usize,
    /// Schedule length (makespan).
    pub makespan: u64,
    /// Wall-clock scheduling time in seconds.
    pub seconds: f64,
}

/// Runs every registered scheduler on every workload at every `proc` count.
///
/// Workloads are fanned out over `threads` OS threads with a shared work
/// queue (`std::thread::scope` — no `'static` bound on the borrowed
/// workloads). Each schedule is validated before its measurement is
/// recorded, so a buggy algorithm aborts the experiment instead of
/// reporting garbage.
#[must_use]
pub fn measure_all(workloads: &[Workload], procs: &[usize], threads: usize) -> Vec<Measurement> {
    let threads = threads.max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Mutex<Vec<Measurement>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let schedulers = named_schedulers();
                loop {
                    let wi = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if wi >= workloads.len() {
                        break;
                    }
                    let w = &workloads[wi];
                    let mut local = Vec::new();
                    for &p in procs {
                        let machine = Machine::new(p);
                        for (name, s) in &schedulers {
                            let t0 = Instant::now();
                            let sched = s.schedule(&w.graph, &machine);
                            let seconds = t0.elapsed().as_secs_f64();
                            validate(&w.graph, &sched)
                                .unwrap_or_else(|e| panic!("{name} invalid on {}: {e}", w.label()));
                            local.push(Measurement {
                                workload: wi,
                                algorithm: name,
                                procs: p,
                                makespan: sched.makespan(),
                                seconds,
                            });
                        }
                    }
                    results.lock().extend(local);
                }
            });
        }
    });

    let mut out = results.into_inner();
    // Deterministic order regardless of thread interleaving.
    out.sort_by(|a, b| (a.workload, a.procs, a.algorithm).cmp(&(b.workload, b.procs, b.algorithm)));
    out
}

/// Measurements filtered by a predicate — small helper for the binaries.
pub fn filter(ms: &[Measurement], mut pred: impl FnMut(&Measurement) -> bool) -> Vec<&Measurement> {
    ms.iter().filter(|m| pred(m)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_workloads::SuiteSpec;

    #[test]
    fn measure_all_covers_grid() {
        let mut spec = SuiteSpec::small();
        spec.families.truncate(1);
        spec.instances = 1;
        spec.target_tasks = 60;
        let ws = spec.generate();
        let ms = measure_all(&ws, &[2, 4], 2);
        // |workloads| x |procs| x 5 algorithms.
        assert_eq!(ms.len(), ws.len() * 2 * 5);
        // All grid points present and sorted.
        assert!(ms.windows(2).all(|w| {
            (w[0].workload, w[0].procs, w[0].algorithm)
                <= (w[1].workload, w[1].procs, w[1].algorithm)
        }));
        assert!(ms.iter().all(|m| m.makespan > 0 && m.seconds >= 0.0));
    }

    #[test]
    fn filter_selects() {
        let mut spec = SuiteSpec::small();
        spec.families.truncate(1);
        spec.instances = 1;
        spec.target_tasks = 40;
        let ws = spec.generate();
        let ms = measure_all(&ws, &[2], 1);
        let flb = filter(&ms, |m| m.algorithm == "FLB");
        assert_eq!(flb.len(), ws.len());
    }
}
