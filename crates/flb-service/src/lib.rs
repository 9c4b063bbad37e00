//! Scheduling as a service: a concurrent daemon serving FLB-quality
//! schedules on demand.
//!
//! FLB's `O(V (log W + log P) + E)` complexity makes ETF-quality schedules
//! cheap enough to compute *online*; this crate turns that into a serving
//! substrate. A daemon ([`serve`]) accepts schedule requests — task graph +
//! machine + algorithm — over a length-prefixed protocol ([`proto`]) on a
//! TCP or Unix-domain socket, dispatches them to a fixed worker pool behind
//! a bounded queue (full queue ⇒ a `busy` backpressure response, never a
//! hang), and answers repeated workloads from a sharded LRU cache
//! ([`cache`]) keyed by a canonical graph fingerprint ([`fingerprint`]).
//! Live counters ([`metrics`]) — request totals, hit rate, p50/p99 latency,
//! queue depth, per-algorithm counts — are served by a `stats` request.
//!
//! Ingress is governed by an overload-resilience layer ([`overload`]):
//! requests carry a tenant identity (explicit, or anonymous per
//! connection), each tenant is admission-controlled by a token bucket
//! and served from a weighted-fair queue, a graduated governor
//! (Healthy → Shedding → Emergency) sheds over-quota work first with a
//! structured `overloaded` reply, and a per-tenant circuit breaker
//! quarantines tenants whose requests repeatedly panic or blow
//! deadlines — so one abusive tenant cannot starve the rest.
//!
//! Everything is `std`-only: no external network or async dependencies.
//!
//! ```no_run
//! use flb_service::{serve, Client, Endpoint, ServiceConfig, Submission};
//! use flb_core::AlgorithmId;
//! use flb_graph::paper::fig1;
//! use flb_sched::Machine;
//!
//! let handle = serve(&Endpoint::parse("127.0.0.1:0"), ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(&handle.endpoint()).unwrap();
//! match client.schedule(AlgorithmId::Flb, fig1(), Machine::new(2), 0).unwrap() {
//!     Submission::Done(reply) => assert_eq!(reply.schedule.makespan(), 14),
//!     other => panic!("{other:?}"),
//! }
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod fingerprint;
pub mod journal;
pub mod metrics;
pub mod overload;
pub mod proto;
pub mod replay;
pub mod server;
pub mod snapshot;

pub use cache::ShardedLru;
pub use chaos::{ChaosConfig, ChaosReport};
pub use client::{Client, RetryPolicy, ScheduleReply, Submission};
pub use fingerprint::{peek_request_key, request_fingerprint};
pub use journal::{JournalCounters, JournalRecord, SyncPolicy};
pub use metrics::{Gauges, Metrics, StatsSnapshot, TenantStat};
pub use overload::{
    Breaker, Decision, OverloadConfig, OverloadCtl, OverloadState, ShedPolicy, TenantId,
    TokenBucket,
};
pub use proto::{Request, Response};
pub use replay::{replay_trace, ReplayConfig, ReplayReport};
pub use server::{serve, Endpoint, ServiceConfig, ServiceHandle, HARD_PANIC_MARKER, PANIC_MARKER};
