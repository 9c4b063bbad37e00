//! Random cost models with controlled communication-to-computation ratio.
//!
//! The paper's methodology (§6): fix a topology, then draw computation and
//! communication costs i.i.d. from a distribution whose means realise the
//! target CCR; five seeded instances per configuration.
//!
//! A note on "uniform distribution with unit coefficient of variation": a
//! nonnegative uniform distribution cannot reach CV = 1 (its maximum is
//! `1/√3 ≈ 0.577`, attained by `U(0, 2μ)`). We therefore provide both the
//! common reading `U(0, 2μ)` ([`Dist::UniformMean`]) and an exponential
//! distribution with CV exactly 1 ([`Dist::Exponential`]); the experiment
//! harness records which one was used (see DESIGN.md).

use crate::{Cost, TaskGraph, TaskGraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A distribution over integer costs (all samples are ≥ 1 so no task or
/// message is ever free).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    /// Every sample equals the given constant.
    Constant(Cost),
    /// Discrete uniform on `[1, 2·mean - 1]` — integer analogue of
    /// `U(0, 2μ)`, mean exactly `mean`, CV ≈ `1/√3`.
    UniformMean(Cost),
    /// Discrete uniform on `[lo, hi]` (inclusive).
    UniformRange(Cost, Cost),
    /// Exponential with the given mean (rounded to an integer, min 1):
    /// CV ≈ 1, the literal reading of the paper's "unit coefficient of
    /// variation".
    Exponential(Cost),
}

impl Dist {
    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> Cost {
        match *self {
            Dist::Constant(c) => c.max(1),
            Dist::UniformMean(mean) => {
                let mean = mean.max(1);
                rng.random_range(1..=2 * mean - 1)
            }
            Dist::UniformRange(lo, hi) => {
                let lo = lo.max(1);
                let hi = hi.max(lo);
                rng.random_range(lo..=hi)
            }
            Dist::Exponential(mean) => {
                let mean = mean.max(1) as f64;
                let u: f64 = rng.random_range(f64::EPSILON..1.0);
                let x = -mean * u.ln();
                (x.round() as Cost).max(1)
            }
        }
    }

    /// The distribution's mean (exact for constant/uniform, nominal for
    /// exponential before integer rounding).
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(c) => c.max(1) as f64,
            Dist::UniformMean(mean) => mean.max(1) as f64,
            Dist::UniformRange(lo, hi) => (lo.max(1) + hi.max(lo)) as f64 / 2.0,
            Dist::Exponential(mean) => mean.max(1) as f64,
        }
    }

    /// Same distribution family re-centred on the given mean (used to
    /// derive the communication distribution from the computation one).
    #[must_use]
    pub fn with_mean(&self, mean: Cost) -> Dist {
        match *self {
            Dist::Constant(_) => Dist::Constant(mean),
            Dist::UniformMean(_) => Dist::UniformMean(mean),
            Dist::UniformRange(lo, hi) => {
                // Preserve the relative half-width around the new mean.
                let old_mean = (lo + hi) as f64 / 2.0;
                let half = (hi - lo) as f64 / 2.0;
                let ratio = if old_mean > 0.0 { half / old_mean } else { 0.0 };
                let new_half = (mean as f64 * ratio).round() as Cost;
                Dist::UniformRange(mean.saturating_sub(new_half).max(1), mean + new_half)
            }
            Dist::Exponential(_) => Dist::Exponential(mean),
        }
    }
}

/// A complete cost model: computation distribution plus a target CCR from
/// which the communication distribution is derived.
///
/// ```
/// use flb_graph::costs::CostModel;
/// use flb_graph::gen::Family;
///
/// let topology = Family::Stencil.topology(400);
/// let g = CostModel::paper_default(5.0).apply(&topology, 42);
/// assert_eq!(g.num_tasks(), topology.num_tasks());
/// assert!((g.ccr() - 5.0).abs() < 1.0); // communication-dominated
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Distribution of task computation costs.
    pub comp: Dist,
    /// Target communication-to-computation ratio; the communication
    /// distribution is `comp` re-scaled to mean `ccr · mean(comp)`.
    pub ccr: f64,
}

impl CostModel {
    /// The paper's default: mean computation cost 100 (so CCR 0.2 still
    /// yields integer communication means), uniform costs.
    #[must_use]
    pub fn paper_default(ccr: f64) -> Self {
        CostModel {
            comp: Dist::UniformMean(100),
            ccr,
        }
    }

    /// The communication-cost distribution implied by this model.
    #[must_use]
    pub fn comm_dist(&self) -> Dist {
        let mean = (self.comp.mean() * self.ccr).round().max(1.0) as Cost;
        self.comp.with_mean(mean)
    }

    /// Re-weights `topology`: same tasks and edges, with computation and
    /// communication costs drawn from this model. Deterministic in `seed`.
    #[must_use]
    pub fn apply(&self, topology: &TaskGraph, seed: u64) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let comm_dist = self.comm_dist();
        let mut b = TaskGraphBuilder::named(format!("{}-ccr{}-s{seed}", topology.name(), self.ccr));
        b.reserve(topology.num_tasks(), topology.num_edges());
        for _ in topology.tasks() {
            b.add_task(self.comp.sample(&mut rng));
        }
        for t in topology.tasks() {
            for s in topology.succ_ids(t) {
                b.add_edge(t, s, comm_dist.sample(&mut rng))
                    .expect("copying edges of a valid graph");
            }
        }
        b.build().expect("re-weighting preserves acyclicity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mean(d: Dist, n: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(7);
        (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_dist() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Dist::Constant(5).sample(&mut rng), 5);
        assert_eq!(Dist::Constant(0).sample(&mut rng), 1); // clamped
        assert_eq!(Dist::Constant(5).mean(), 5.0);
    }

    #[test]
    fn uniform_mean_has_right_mean_and_range() {
        let d = Dist::UniformMean(100);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((1..=199).contains(&x));
        }
        let m = sample_mean(d, 20_000);
        assert!((m - 100.0).abs() < 2.0, "uniform mean drifted: {m}");
    }

    #[test]
    fn uniform_range_degenerate_bounds() {
        // lo clamped to 1, hi clamped up to lo: both degenerate inputs
        // produce valid single-point distributions.
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(Dist::UniformRange(0, 0).sample(&mut rng), 1);
        assert_eq!(Dist::UniformRange(9, 3).sample(&mut rng), 9);
        assert_eq!(Dist::UniformRange(9, 3).mean(), 9.0);
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let d = Dist::UniformRange(10, 20);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((10..=20).contains(&x));
        }
        assert_eq!(d.mean(), 15.0);
    }

    #[test]
    fn exponential_mean_and_cv() {
        let d = Dist::Exponential(100);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 100.0).abs() < 3.0, "exp mean drifted: {mean}");
        assert!((cv - 1.0).abs() < 0.05, "exp CV drifted: {cv}");
    }

    #[test]
    fn with_mean_rescales() {
        assert_eq!(Dist::UniformMean(100).with_mean(20), Dist::UniformMean(20));
        assert_eq!(Dist::Constant(3).with_mean(9), Dist::Constant(9));
        assert_eq!(Dist::Exponential(5).with_mean(50), Dist::Exponential(50));
        // UniformRange keeps its relative width: [50,150] mean 100 -> mean 10
        // gives half-width 5.
        assert_eq!(
            Dist::UniformRange(50, 150).with_mean(10),
            Dist::UniformRange(5, 15)
        );
    }

    #[test]
    fn cost_model_hits_target_ccr() {
        let topo = gen::stencil(20, 20);
        for &ccr in &[0.2, 1.0, 5.0] {
            let model = CostModel::paper_default(ccr);
            let g = model.apply(&topo, 11);
            let measured = g.ccr();
            assert!(
                (measured - ccr).abs() / ccr < 0.15,
                "target CCR {ccr}, measured {measured}"
            );
        }
    }

    #[test]
    fn apply_is_deterministic_and_preserves_topology() {
        let topo = gen::lu(8);
        let model = CostModel::paper_default(5.0);
        let a = model.apply(&topo, 99);
        let b = model.apply(&topo, 99);
        assert_eq!(a.num_tasks(), topo.num_tasks());
        assert_eq!(a.num_edges(), topo.num_edges());
        for t in a.tasks() {
            assert_eq!(a.comp(t), b.comp(t));
            assert!(a.succs(t).eq(b.succs(t)));
            // Same adjacency as the topology (costs aside).
            let succ_a: Vec<_> = a.succ_ids(t).collect();
            let succ_t: Vec<_> = topo.succ_ids(t).collect();
            assert_eq!(succ_a, succ_t);
        }
        let c = model.apply(&topo, 100);
        assert!(
            a.tasks().any(|t| a.comp(t) != c.comp(t)),
            "different seeds must give different costs"
        );
    }

    #[test]
    fn comm_dist_mean_scales_with_ccr() {
        let model = CostModel::paper_default(0.2);
        assert_eq!(model.comm_dist(), Dist::UniformMean(20));
        let model5 = CostModel::paper_default(5.0);
        assert_eq!(model5.comm_dist(), Dist::UniformMean(500));
    }
}
