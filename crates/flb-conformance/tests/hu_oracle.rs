//! The Hu oracle (EXPERIMENTS X1). On an in-forest of unit-cost tasks
//! with zero communication, on identical processors, Hu's
//! highest-level-first rule is optimal (Hu 1961): at every time step run
//! the ready tasks farthest from their root. ETF and HLFET both pick by
//! bottom level among the tasks that can start earliest, so both must
//! meet Hu's makespan on every such instance. FLB's paper tie-break keys
//! its non-EP list by `(LMT, −bl)` and its processor list by EST alone,
//! so it may start a lower task first; the oracle catches that.

use flb_conformance::registry::by_name;
use flb_graph::{TaskGraph, TaskGraphBuilder, TaskId};
use flb_sched::{Machine, Scheduler};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One instance: each task's parent (its one successor; `None` for a
/// root) and the processor count.
struct Instance {
    parent: Vec<Option<usize>>,
    procs: usize,
}

/// 3000 seeded in-forests of 1–15 tasks on 2–4 processors. Task `i`'s
/// parent has a larger id, or `i` is a root (one time in four).
fn instances() -> impl Iterator<Item = Instance> {
    let mut rng = StdRng::seed_from_u64(0x0048_5531_9610);
    (0..3000).map(move |_| {
        let n = rng.random_range(1..=15usize);
        let parent = (0..n)
            .map(|i| {
                let root = i + 1 == n || rng.random_range(0..4u32) == 0;
                (!root).then(|| rng.random_range(i + 1..n))
            })
            .collect();
        Instance {
            parent,
            procs: rng.random_range(2..=4usize),
        }
    })
}

fn graph(inst: &Instance) -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    for _ in &inst.parent {
        b.add_task(1);
    }
    for (i, p) in inst.parent.iter().enumerate() {
        if let Some(p) = *p {
            b.add_edge(TaskId(i), TaskId(p), 0).expect("forest edge");
        }
    }
    b.build().expect("an in-forest is a DAG")
}

/// Tasks on the path from each task to its root, itself included.
fn levels(parent: &[Option<usize>]) -> Vec<usize> {
    let mut level = vec![1; parent.len()];
    // Parents have larger ids, so they are final before their children.
    for i in (0..parent.len()).rev() {
        if let Some(p) = parent[i] {
            level[i] = level[p] + 1;
        }
    }
    level
}

/// The unfinished tasks whose children are all in `done`.
fn ready(parent: &[Option<usize>], done: u32) -> impl Iterator<Item = usize> + '_ {
    let n = parent.len();
    (0..n).filter(move |&t| {
        done & (1 << t) == 0 && (0..n).all(|c| parent[c] != Some(t) || done & (1 << c) != 0)
    })
}

/// Hu's makespan: each unit step runs the `procs` highest ready tasks.
fn hu(inst: &Instance) -> u64 {
    let level = levels(&inst.parent);
    let (mut done, mut steps) = (0u32, 0);
    while done.count_ones() as usize != inst.parent.len() {
        let mut r: Vec<usize> = ready(&inst.parent, done).collect();
        r.sort_by_key(|&t| std::cmp::Reverse(level[t]));
        for &t in r.iter().take(inst.procs) {
            done |= 1 << t;
        }
        steps += 1;
    }
    steps
}

/// The optimum by breadth-first search over the sets of finished tasks.
/// A step runs `min(P, ready)` ready tasks: with unit tasks, moving a
/// ready task into an idle slot never delays anything.
fn brute_force(inst: &Instance) -> u64 {
    let n = inst.parent.len();
    let full = (1u32 << n) - 1;
    let mut seen = vec![false; 1 << n];
    let mut frontier = vec![0u32];
    seen[0] = true;
    let mut steps = 0;
    loop {
        if frontier.contains(&full) {
            return steps;
        }
        let mut next = Vec::new();
        for &done in &frontier {
            let r: Vec<usize> = ready(&inst.parent, done).collect();
            let k = r.len().min(inst.procs);
            // Every k-subset of the ready tasks, as a bit mask over `r`.
            for pick in 0u32..1 << r.len() {
                if pick.count_ones() as usize != k {
                    continue;
                }
                let mut after = done;
                for (j, &t) in r.iter().enumerate() {
                    if pick & (1 << j) != 0 {
                        after |= 1 << t;
                    }
                }
                if !seen[after as usize] {
                    seen[after as usize] = true;
                    next.push(after);
                }
            }
        }
        frontier = next;
        steps += 1;
    }
}

fn makespan(s: &dyn Scheduler, g: &TaskGraph, procs: usize) -> u64 {
    s.schedule(g, &Machine::new(procs)).makespan()
}

#[test]
fn hus_rule_is_the_brute_force_optimum_on_small_forests() {
    let mut checked = 0;
    for inst in instances().filter(|i| i.parent.len() <= 10) {
        assert_eq!(hu(&inst), brute_force(&inst), "{:?}", inst.parent);
        checked += 1;
    }
    assert!(checked > 1000, "{checked}");
    println!("Hu's rule is the brute-force optimum on {checked} forests of <= 10 tasks");
}

#[test]
fn etf_and_hlfet_meet_hus_optimum_on_unit_in_forests() {
    let engines = ["etf", "hlfet"].map(|name| by_name(name).expect("registered"));
    for inst in instances() {
        let (g, opt) = (graph(&inst), hu(&inst));
        for e in &engines {
            let span = makespan(e.scheduler.as_ref(), &g, inst.procs);
            assert_eq!(
                span, opt,
                "{} on {:?}, P={}",
                e.name, inst.parent, inst.procs
            );
        }
    }
}

/// The oracle bites: FLB's paper tie-break misses Hu's optimum. EXPERIMENTS
/// X1 records how often.
#[test]
fn flbs_paper_tie_break_misses_hus_optimum() {
    let flb = by_name("flb-kernel").expect("registered").scheduler;
    let mut misses = 0;
    for inst in instances() {
        let (span, opt) = (makespan(flb.as_ref(), &graph(&inst), inst.procs), hu(&inst));
        assert!(span >= opt, "below the optimum on {:?}", inst.parent);
        misses += usize::from(span > opt);
    }
    assert!(misses > 0, "FLB met Hu's optimum on every instance");
    println!("flb misses Hu's optimum on {misses} of 3000 in-forests");
}
