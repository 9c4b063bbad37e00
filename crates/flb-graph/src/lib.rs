//! Task-graph substrate for the FLB scheduling system.
//!
//! A parallel program is modelled as a weighted directed acyclic graph
//! `G = (V, E)` (Rădulescu & van Gemund, ICPP 1999, §2): nodes are tasks with
//! a computation cost, edges are dependencies with a communication cost. This
//! crate provides:
//!
//! * [`TaskGraph`] — an immutable, validated, CSR-stored weighted DAG,
//!   constructed through [`TaskGraphBuilder`];
//! * [`levels`] — static levels used by the schedulers (bottom level,
//!   top level, ALAP times, critical path);
//! * [`width`] — the task-graph width `W` (maximum antichain), both exactly
//!   via Dilworth's theorem and as a cheap upper bound;
//! * [`gen`] — the workload generators of the paper's evaluation (LU,
//!   Laplace, stencil, FFT) plus the standard extra families (Gaussian
//!   elimination, random layered graphs, fork–join, trees, chains, …);
//! * [`costs`] — random cost models with controlled communication-to-
//!   computation ratio (CCR);
//! * [`paper`] — the exact example graph of the paper's Fig. 1;
//! * [`dot`] / [`serialize`] — DOT export and a line-oriented text format;
//! * [`packed`] — integers stored in the fewest bytes a column's largest
//!   value needs, as [`TaskGraph`] stores its costs.
//!
//! Times and costs are unsigned integers ([`Time`], [`Cost`]): schedulers
//! compare and add them exactly, with no floating-point ordering pitfalls;
//! ratios (CCR, speedup, NSL) are computed in `f64` only at reporting time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;

pub mod analyze;
pub mod compose;
pub mod costs;
pub mod dot;
pub mod gen;
pub mod levels;
pub mod packed;
pub mod paper;
pub mod serialize;
pub mod stg;
pub mod transform;
pub mod width;

pub use graph::{Cost, GraphError, TaskGraph, TaskGraphBuilder, TaskId, Time};
