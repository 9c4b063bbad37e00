//! Overload resilience: per-tenant admission control, fair
//! queueing, graduated load shedding, and per-tenant circuit breaking.
//!
//! The daemon's original ingress was a single bounded FIFO: under
//! overload it answered `busy` indiscriminately, so one abusive
//! submitter could starve every other client. This module replaces the
//! FIFO with an [`OverloadCtl`] that decides, per request, whether to
//! *admit*, *backpressure* (`busy`), *shed* (`overloaded`, a policy
//! decision rather than a capacity accident) or *breaker-reject*
//! (`breaker-open`, the tenant itself is misbehaving), and serves the
//! admitted backlog tenant-fairly:
//!
//! * **Tenant identity** — every request belongs to a [`TenantId`]:
//!   either a name carried on the wire or a per-connection anonymous id,
//!   so quotas apply even to clients that never opt in.
//! * **Token buckets** ([`TokenBucket`]) — each tenant refills at a
//!   configured rate up to a burst; a request over quota is *sheddable*,
//!   one within quota is *protected*.
//! * **Fair queue** — round robin over per-tenant backlogs: each round a
//!   tenant dequeues one job, so a tenant with a thousand queued jobs
//!   cannot delay another's single job by more than one round. The queue
//!   is work-conserving: `pop` always serves *someone* while any backlog
//!   is non-empty.
//! * **Graduated shedding** — an overload governor walks
//!   `Healthy → Shedding → Emergency` on queue depth and the EWMA of
//!   observed queue wait, with hysteresis and a minimum dwell so the
//!   state cannot flap. Shedding drops over-quota work first;
//!   Emergency additionally clamps per-tenant backlogs to a small
//!   reserved share so the queue always retains room for every tenant's
//!   minimum (starvation-proof degradation).
//! * **Circuit breaker** ([`Breaker`]) — a tenant whose requests
//!   repeatedly panic the scheduler or blow their deadlines is rejected
//!   outright for a cooldown, then probed half-open: one trial request
//!   decides between closing the breaker and another cooldown.
//!
//! Everything here is pure (callers pass `now_us` from their own
//! monotonic clock), single-threaded, and generic over the queued item,
//! which is what makes the fairness and bucket invariants property-
//! testable without a running daemon.

use crate::metrics;
use std::collections::{HashMap, VecDeque};

/// Display name under which all anonymous (per-connection) tenants are
/// aggregated in stats.
pub const ANON_TENANT: &str = "(anon)";

/// Display name absorbing counters of idle tenants evicted from the
/// tracking table (the table is bounded; the counters are not lost).
pub const OTHER_TENANT: &str = "(other)";

/// Longest tenant name accepted from the wire.
pub const MAX_TENANT_NAME: usize = 64;

/// Tenant-table size that triggers an idle sweep.
const SWEEP_THRESHOLD: usize = 512;

/// A tenant is sweepable after this long without traffic (µs).
const IDLE_EVICT_US: u64 = 5_000_000;

/// Who a request belongs to.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TenantId {
    /// A name supplied on the wire.
    Named(String),
    /// No name supplied: an anonymous per-connection tenant.
    Anon(u64),
}

impl TenantId {
    /// The name under which this tenant appears in aggregated stats.
    #[must_use]
    pub fn display_name(&self) -> &str {
        match self {
            TenantId::Named(name) => name,
            TenantId::Anon(_) => ANON_TENANT,
        }
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantId::Named(name) => f.write_str(name),
            TenantId::Anon(id) => write!(f, "anon#{id}"),
        }
    }
}

/// When over-quota work is shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Quotas and shedding disabled: legacy single-FIFO semantics
    /// (global capacity is the only limit, `busy` the only rejection).
    None,
    /// Over-quota work rides along while Healthy (outside the reserved
    /// region), is shed under Shedding, and everything beyond a small
    /// per-tenant share is shed under Emergency. The default.
    Graduated,
    /// Over-quota work is always shed, regardless of overload state.
    Strict,
}

impl ShedPolicy {
    /// Parses the CLI spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<ShedPolicy> {
        match s {
            "none" => Some(ShedPolicy::None),
            "graduated" => Some(ShedPolicy::Graduated),
            "strict" => Some(ShedPolicy::Strict),
            _ => None,
        }
    }
}

impl std::fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedPolicy::None => "none",
            ShedPolicy::Graduated => "graduated",
            ShedPolicy::Strict => "strict",
        })
    }
}

/// The governor's overload state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadState {
    /// Depth and wait are below the shed thresholds.
    #[default]
    Healthy,
    /// The queue is congested: over-quota work is shed.
    Shedding,
    /// The queue is nearly full: only each tenant's reserved minimum
    /// share is still admitted.
    Emergency,
}

impl OverloadState {
    /// Stable wire code.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            OverloadState::Healthy => 0,
            OverloadState::Shedding => 1,
            OverloadState::Emergency => 2,
        }
    }

    /// Inverse of [`code`](Self::code); unknown codes read as Healthy
    /// (forward compatibility over a wire that may be newer than us).
    #[must_use]
    pub fn from_code(code: u64) -> OverloadState {
        match code {
            1 => OverloadState::Shedding,
            2 => OverloadState::Emergency,
            _ => OverloadState::Healthy,
        }
    }

    /// Lower-case name for stats rendering.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OverloadState::Healthy => "healthy",
            OverloadState::Shedding => "shedding",
            OverloadState::Emergency => "emergency",
        }
    }
}

/// A per-tenant token bucket: refills continuously at `rate_per_sec` up
/// to `burst`, each admitted request costs one token.
///
/// Invariants (property-tested in `tests/overload_props.rs`): the token
/// count never goes negative, never exceeds the burst, and refill is
/// monotone in elapsed time.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Tokens added per microsecond; `0.0` means unlimited.
    rate_per_us: f64,
    burst: f64,
    tokens: f64,
    updated_us: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec` with the given burst. A rate
    /// of zero (or below) builds an unlimited bucket; a burst of zero
    /// defaults to one second's worth of tokens (at least 1).
    #[must_use]
    pub fn new(rate_per_sec: f64, burst: f64) -> TokenBucket {
        if rate_per_sec <= 0.0 {
            return TokenBucket {
                rate_per_us: 0.0,
                burst: 0.0,
                tokens: 0.0,
                updated_us: 0,
            };
        }
        let burst = if burst > 0.0 {
            burst
        } else {
            rate_per_sec.max(1.0)
        };
        TokenBucket {
            rate_per_us: rate_per_sec / 1_000_000.0,
            burst,
            tokens: burst,
            updated_us: 0,
        }
    }

    /// Whether this bucket admits everything.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.rate_per_us == 0.0
    }

    /// Brings the token count up to `now_us`. Time never runs backwards
    /// for a monotone caller; a stale `now_us` is simply ignored.
    pub fn refill(&mut self, now_us: u64) {
        if now_us > self.updated_us {
            let dt = (now_us - self.updated_us) as f64;
            self.tokens = (self.tokens + dt * self.rate_per_us).min(self.burst);
            self.updated_us = now_us;
        }
    }

    /// Takes one token if available. Unlimited buckets always admit.
    pub fn try_take(&mut self, now_us: u64) -> bool {
        if self.is_unlimited() {
            return true;
        }
        self.refill(now_us);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Milliseconds until one token is available (0 when one already is).
    #[must_use]
    pub fn ms_until_token(&self, now_us: u64) -> u64 {
        if self.is_unlimited() || self.rate_per_us <= 0.0 {
            return 0;
        }
        let mut probe = self.clone();
        probe.refill(now_us);
        if probe.tokens >= 1.0 {
            return 0;
        }
        let deficit = 1.0 - probe.tokens;
        ((deficit / self.rate_per_us) / 1_000.0).ceil() as u64
    }

    /// Current token count (after a refill to `now_us`).
    #[must_use]
    pub fn tokens(&self, now_us: u64) -> f64 {
        let mut probe = self.clone();
        probe.refill(now_us);
        probe.tokens
    }

    /// The configured burst capacity.
    #[must_use]
    pub fn burst(&self) -> f64 {
        self.burst
    }
}

/// The breaker's lifecycle position.
#[derive(Clone, Debug, PartialEq, Eq)]
enum BreakerState {
    Closed { consecutive_fails: u32 },
    Open { until_us: u64 },
    HalfOpen,
}

/// A per-tenant circuit breaker.
///
/// `threshold` consecutive failures (scheduler panics, blown deadlines)
/// trip it open for `cooldown_us`; after the cooldown the next request
/// is admitted as a half-open probe whose outcome either closes the
/// breaker or re-opens it for another cooldown. A threshold of zero
/// disables the breaker entirely.
#[derive(Clone, Debug)]
pub struct Breaker {
    threshold: u32,
    cooldown_us: u64,
    state: BreakerState,
    /// Times this breaker has tripped open.
    trips: u64,
}

impl Breaker {
    /// A closed breaker with the given trip threshold and cooldown.
    #[must_use]
    pub fn new(threshold: u32, cooldown_us: u64) -> Breaker {
        Breaker {
            threshold,
            cooldown_us,
            state: BreakerState::Closed {
                consecutive_fails: 0,
            },
            trips: 0,
        }
    }

    /// Asks the breaker to admit a request. `Err(retry_after_ms)` means
    /// the tenant is rejected without touching the queue.
    pub fn admit(&mut self, now_us: u64) -> Result<(), u64> {
        if self.threshold == 0 {
            return Ok(());
        }
        match self.state {
            BreakerState::Closed { .. } => Ok(()),
            BreakerState::Open { until_us } if now_us < until_us => {
                Err(((until_us - now_us) / 1_000).max(1))
            }
            BreakerState::Open { .. } => {
                // Cooldown over: this request is the half-open probe.
                self.state = BreakerState::HalfOpen;
                Ok(())
            }
            // One probe is in flight; everyone else waits it out.
            BreakerState::HalfOpen => Err((self.cooldown_us / 1_000).max(1)),
        }
    }

    /// Reports the outcome of an admitted request.
    pub fn outcome(&mut self, ok: bool, now_us: u64) {
        if self.threshold == 0 {
            return;
        }
        match (&mut self.state, ok) {
            (BreakerState::Closed { consecutive_fails }, true) => *consecutive_fails = 0,
            (BreakerState::Closed { consecutive_fails }, false) => {
                *consecutive_fails += 1;
                if *consecutive_fails >= self.threshold {
                    self.trip(now_us);
                }
            }
            (BreakerState::HalfOpen, true) => {
                self.state = BreakerState::Closed {
                    consecutive_fails: 0,
                };
            }
            (BreakerState::HalfOpen, false) => self.trip(now_us),
            // Outcomes of requests admitted before the trip.
            (BreakerState::Open { .. }, _) => {}
        }
    }

    fn trip(&mut self, now_us: u64) {
        self.trips += 1;
        self.state = BreakerState::Open {
            until_us: now_us + self.cooldown_us,
        };
    }

    /// Whether the breaker currently rejects (open and cooling down).
    #[must_use]
    pub fn is_open(&self, now_us: u64) -> bool {
        matches!(self.state, BreakerState::Open { until_us } if now_us < until_us)
    }

    /// Times this breaker has tripped open.
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// Tuning of an [`OverloadCtl`]. Zeros mean "derive a sane value from
/// `queue_capacity`" where noted.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Global bound on queued jobs across all tenants.
    pub queue_capacity: usize,
    /// Per-tenant admission rate in requests/second; 0 = unlimited.
    pub tenant_rate: f64,
    /// Per-tenant burst; 0 = one second's worth of rate.
    pub tenant_burst: f64,
    /// When over-quota work is shed.
    pub shed_policy: ShedPolicy,
    /// Queue slots over-quota work may never occupy, so within-quota
    /// tenants always find room; 0 = `queue_capacity / 8` (at least 1).
    pub reserved_slots: usize,
    /// Most jobs one tenant may hold queued at once; 0 =
    /// `queue_capacity / 2` (at least 1).
    pub tenant_backlog_cap: usize,
    /// Consecutive failures that trip a tenant's breaker; 0 = disabled.
    pub breaker_threshold: u32,
    /// Breaker cooldown before the half-open probe, in milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Retry hint attached to shed responses, in milliseconds.
    pub retry_after_ms: u64,
    /// EWMA queue wait that forces Shedding even below the depth
    /// threshold, in microseconds.
    pub shed_wait_us: u64,
    /// Minimum dwell in a state before the governor may step back down,
    /// in microseconds (hysteresis against flapping).
    pub dwell_us: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_capacity: 64,
            tenant_rate: 0.0,
            tenant_burst: 0.0,
            shed_policy: ShedPolicy::Graduated,
            reserved_slots: 0,
            tenant_backlog_cap: 0,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            retry_after_ms: 25,
            shed_wait_us: 250_000,
            dwell_us: 50_000,
        }
    }
}

impl OverloadConfig {
    fn resolved(mut self) -> OverloadConfig {
        self.queue_capacity = self.queue_capacity.max(1);
        if self.reserved_slots == 0 {
            self.reserved_slots = (self.queue_capacity / 8).max(1);
        }
        self.reserved_slots = self.reserved_slots.min(self.queue_capacity);
        if self.tenant_backlog_cap == 0 {
            self.tenant_backlog_cap = (self.queue_capacity / 2).max(1);
        }
        self
    }

    /// Per-tenant backlog bound under Emergency: a small share so the
    /// remaining capacity is spread across tenants.
    fn emergency_backlog_cap(&self) -> usize {
        (self.tenant_backlog_cap / 4).max(1)
    }
}

/// The verdict on one offered request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Queued; a subsequent [`OverloadCtl::pop`] will serve it.
    Admitted,
    /// Capacity backpressure (within quota, nothing left to give):
    /// answer `busy`.
    Busy,
    /// Policy shed (over quota, or over the emergency share): answer
    /// `overloaded` with the hint.
    Shed {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The tenant's circuit breaker is open: answer `breaker-open`.
    BreakerOpen {
        /// Remaining cooldown in milliseconds.
        retry_after_ms: u64,
    },
}

/// One dequeued job with its provenance.
#[derive(Debug)]
pub struct Popped<T> {
    /// Whose job it is (feed the outcome back via
    /// [`OverloadCtl::outcome`]).
    pub tenant: TenantId,
    /// The job itself.
    pub item: T,
    /// How long it waited in the queue, in microseconds.
    pub wait_us: u64,
}

/// Plain (non-atomic) power-of-two histogram for per-tenant queue waits;
/// same bucketing as `metrics::LatencyHistogram`, but cheap to merge.
#[derive(Clone, Debug)]
struct WaitHisto {
    buckets: [u64; 64],
}

impl Default for WaitHisto {
    fn default() -> Self {
        WaitHisto { buckets: [0; 64] }
    }
}

impl WaitHisto {
    fn record(&mut self, us: u64) {
        self.buckets[metrics::bucket(us)] += 1;
    }

    fn merge(&mut self, other: &WaitHisto) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    fn quantile(&self, q: f64) -> u64 {
        metrics::quantile(&self.buckets, q)
    }
}

/// Aggregated counters carried into stats (and, merged by display name,
/// onto the wire).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStat {
    /// Display name (`(anon)` aggregates anonymous tenants).
    pub name: String,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests shed by policy (`overloaded` answers).
    pub shed: u64,
    /// Requests rejected by an open breaker.
    pub breaker_rejected: u64,
    /// Whether any aggregated tenant's breaker is currently open.
    pub breaker_open: bool,
    /// Median queue wait of admitted requests, in microseconds.
    pub wait_p50_us: u64,
    /// 99th-percentile queue wait, in microseconds.
    pub wait_p99_us: u64,
}

/// Everything the controller tracks about one tenant.
struct Tenant<T> {
    bucket: TokenBucket,
    breaker: Breaker,
    backlog: VecDeque<(T, u64)>,
    in_active: bool,
    admitted: u64,
    shed: u64,
    breaker_rejected: u64,
    waits: WaitHisto,
    last_seen_us: u64,
}

impl<T> Tenant<T> {
    fn new(cfg: &OverloadConfig, now_us: u64) -> Tenant<T> {
        let mut bucket = TokenBucket::new(cfg.tenant_rate, cfg.tenant_burst);
        bucket.updated_us = now_us;
        Tenant {
            bucket,
            breaker: Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms * 1_000),
            backlog: VecDeque::new(),
            in_active: false,
            admitted: 0,
            shed: 0,
            breaker_rejected: 0,
            waits: WaitHisto::default(),
            last_seen_us: now_us,
        }
    }
}

/// Counters of evicted tenants, folded into one stats row.
#[derive(Default)]
struct Accum {
    admitted: u64,
    shed: u64,
    breaker_rejected: u64,
    waits: WaitHisto,
}

impl Accum {
    fn absorb<T>(&mut self, t: &Tenant<T>) {
        self.admitted += t.admitted;
        self.shed += t.shed;
        self.breaker_rejected += t.breaker_rejected;
        self.waits.merge(&t.waits);
    }
}

/// The admission controller + fair queue + governor + breakers, generic
/// over the queued item so the scheduling behaviour is testable pure.
pub struct OverloadCtl<T> {
    cfg: OverloadConfig,
    tenants: HashMap<TenantId, Tenant<T>>,
    /// Round-robin rotation of tenants with non-empty backlogs.
    active: VecDeque<TenantId>,
    depth: usize,
    state: OverloadState,
    state_since_us: u64,
    transitions: u64,
    /// EWMA of observed queue wait (µs), the governor's latency signal.
    ewma_wait_us: u64,
    last_wait_update_us: u64,
    /// Counters of swept anonymous tenants.
    anon_evicted: Accum,
    /// Counters of swept named tenants.
    other_evicted: Accum,
}

impl<T> OverloadCtl<T> {
    /// A controller in the Healthy state with empty queues.
    #[must_use]
    pub fn new(cfg: OverloadConfig) -> OverloadCtl<T> {
        OverloadCtl {
            cfg: cfg.resolved(),
            tenants: HashMap::new(),
            active: VecDeque::new(),
            depth: 0,
            state: OverloadState::Healthy,
            state_since_us: 0,
            transitions: 0,
            ewma_wait_us: 0,
            last_wait_update_us: 0,
            anon_evicted: Accum::default(),
            other_evicted: Accum::default(),
        }
    }

    /// Jobs currently queued across all tenants.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The governor's current state.
    #[must_use]
    pub fn state(&self) -> OverloadState {
        self.state
    }

    /// Governor state transitions since start.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Tenants currently tracked (bounded by the idle sweep).
    #[must_use]
    pub fn tenants_tracked(&self) -> usize {
        self.tenants.len()
    }

    /// EWMA of observed queue wait in microseconds.
    #[must_use]
    pub fn ewma_wait_us(&self) -> u64 {
        self.ewma_wait_us
    }

    /// Advances the governor: depth- and wait-driven transitions with
    /// hysteresis (upgrades immediate, downgrades one step after the
    /// dwell). Called from `offer` and `pop`; harmless to call directly.
    pub fn govern(&mut self, now_us: u64) {
        // A stale wait signal (no pops for a while) must not pin the
        // state: the queue evidently is not moving slowly, it is idle.
        if self.ewma_wait_us > 0 && now_us.saturating_sub(self.last_wait_update_us) > 1_000_000 {
            self.ewma_wait_us = 0;
        }
        let cap = self.cfg.queue_capacity;
        let shed_hi = (cap / 2).max(1);
        let shed_lo = cap / 4;
        let emer_hi = (cap * 7 / 8).max(shed_hi);
        let emer_lo = cap / 2;
        let depth = self.depth;
        let wait_high = self.cfg.shed_wait_us > 0 && self.ewma_wait_us >= self.cfg.shed_wait_us;
        let dwelt = now_us.saturating_sub(self.state_since_us) >= self.cfg.dwell_us;
        let next = match self.state {
            OverloadState::Healthy => {
                if depth >= emer_hi {
                    OverloadState::Emergency
                } else if depth >= shed_hi || wait_high {
                    OverloadState::Shedding
                } else {
                    OverloadState::Healthy
                }
            }
            OverloadState::Shedding => {
                if depth >= emer_hi {
                    OverloadState::Emergency
                } else if depth <= shed_lo && !wait_high && dwelt {
                    OverloadState::Healthy
                } else {
                    OverloadState::Shedding
                }
            }
            OverloadState::Emergency => {
                if depth <= emer_lo && dwelt {
                    OverloadState::Shedding
                } else {
                    OverloadState::Emergency
                }
            }
        };
        if next != self.state {
            self.state = next;
            self.state_since_us = now_us;
            self.transitions += 1;
        }
    }

    /// Evicts idle tenants once the table grows past the threshold,
    /// folding their counters into the `(anon)`/`(other)` accumulators.
    fn sweep(&mut self, now_us: u64) {
        if self.tenants.len() <= SWEEP_THRESHOLD {
            return;
        }
        let anon = &mut self.anon_evicted;
        let other = &mut self.other_evicted;
        self.tenants.retain(|id, t| {
            let idle = now_us.saturating_sub(t.last_seen_us) >= IDLE_EVICT_US;
            let quiet = t.backlog.is_empty() && !t.breaker.is_open(now_us);
            if idle && quiet {
                match id {
                    TenantId::Anon(_) => anon.absorb(t),
                    TenantId::Named(_) => other.absorb(t),
                }
                false
            } else {
                true
            }
        });
    }

    /// Offers one request for admission. The item is consumed either
    /// way; a rejected item is simply dropped (its reply channel, if
    /// any, is the caller's signal).
    pub fn offer(&mut self, id: &TenantId, item: T, now_us: u64) -> Decision {
        self.govern(now_us);
        self.sweep(now_us);
        let cfg = self.cfg.clone();
        let t = self
            .tenants
            .entry(id.clone())
            .or_insert_with(|| Tenant::new(&cfg, now_us));
        t.last_seen_us = now_us;

        if let Err(retry_after_ms) = t.breaker.admit(now_us) {
            t.breaker_rejected += 1;
            return Decision::BreakerOpen { retry_after_ms };
        }

        // Legacy semantics: one global FIFO bound, busy when full.
        if cfg.shed_policy == ShedPolicy::None {
            if self.depth >= cfg.queue_capacity {
                return Decision::Busy;
            }
            return self.enqueue(id, item, now_us);
        }

        let within = t.bucket.try_take(now_us);
        let hint = cfg.retry_after_ms.max(t.bucket.ms_until_token(now_us));
        if !within {
            let admit_over_quota = cfg.shed_policy == ShedPolicy::Graduated
                && self.state == OverloadState::Healthy
                // Over-quota work never enters the reserved region...
                && self.depth < cfg.queue_capacity.saturating_sub(cfg.reserved_slots)
                // ...and never balloons one tenant's backlog.
                && t.backlog.len() < cfg.tenant_backlog_cap;
            if !admit_over_quota {
                t.shed += 1;
                return Decision::Shed {
                    retry_after_ms: hint,
                };
            }
            return self.enqueue(id, item, now_us);
        }

        // Within quota: protected, but not beyond physical capacity.
        if self.depth >= cfg.queue_capacity {
            return Decision::Busy;
        }
        let backlog_cap = if self.state == OverloadState::Emergency {
            cfg.emergency_backlog_cap()
        } else {
            cfg.tenant_backlog_cap
        };
        if t.backlog.len() >= backlog_cap {
            // Under Emergency the clamp is a policy decision (shed with
            // a stronger hint); otherwise it is per-tenant backpressure.
            if self.state == OverloadState::Emergency {
                t.shed += 1;
                return Decision::Shed {
                    retry_after_ms: hint.saturating_mul(2),
                };
            }
            return Decision::Busy;
        }
        self.enqueue(id, item, now_us)
    }

    fn enqueue(&mut self, id: &TenantId, item: T, now_us: u64) -> Decision {
        // flb-analyze: allow(no-panic-in-request-path, reason="enqueue is only called from offer(), which inserts the tenant row first")
        let t = self.tenants.get_mut(id).expect("tenant exists in offer");
        t.backlog.push_back((item, now_us));
        t.admitted += 1;
        if !t.in_active {
            t.in_active = true;
            self.active.push_back(id.clone());
        }
        self.depth += 1;
        Decision::Admitted
    }

    /// Dequeues the next job tenant-fairly (round robin), or
    /// `None` when every backlog is empty. Work-conserving: returns
    /// `Some` whenever [`depth`](Self::depth) is non-zero.
    pub fn pop(&mut self, now_us: u64) -> Option<Popped<T>> {
        loop {
            let id = self.active.pop_front()?;
            let Some(t) = self.tenants.get_mut(&id) else {
                continue; // swept while queued; cannot happen, but safe
            };
            let Some((item, enq_us)) = t.backlog.pop_front() else {
                t.in_active = false;
                continue;
            };
            let wait_us = now_us.saturating_sub(enq_us);
            t.waits.record(wait_us);
            if t.backlog.is_empty() {
                t.in_active = false;
            } else {
                self.active.push_back(id.clone());
            }
            self.depth -= 1;
            self.ewma_wait_us = (self.ewma_wait_us * 7 + wait_us) / 8;
            self.last_wait_update_us = now_us;
            self.govern(now_us);
            return Some(Popped {
                tenant: id,
                item,
                wait_us,
            });
        }
    }

    /// Feeds a served job's outcome back into the tenant's breaker
    /// (`ok == false` for scheduler panics and blown deadlines).
    pub fn outcome(&mut self, id: &TenantId, ok: bool, now_us: u64) {
        if let Some(t) = self.tenants.get_mut(id) {
            t.breaker.outcome(ok, now_us);
        }
    }

    /// Whether a tenant's breaker is currently open.
    #[must_use]
    pub fn breaker_open(&self, id: &TenantId, now_us: u64) -> bool {
        self.tenants
            .get(id)
            .is_some_and(|t| t.breaker.is_open(now_us))
    }

    /// Per-tenant counters aggregated by display name: named tenants
    /// sorted by name, anonymous tenants merged under `(anon)`, swept
    /// tenants under `(anon)`/`(other)`. Rows are capped at `limit`
    /// (excess named rows fold into `(other)`).
    #[must_use]
    pub fn tenant_stats(&self, now_us: u64, limit: usize) -> Vec<TenantStat> {
        let mut anon = TenantStat {
            name: ANON_TENANT.to_owned(),
            admitted: self.anon_evicted.admitted,
            shed: self.anon_evicted.shed,
            breaker_rejected: self.anon_evicted.breaker_rejected,
            ..TenantStat::default()
        };
        let mut anon_waits = self.anon_evicted.waits.clone();
        let mut other = TenantStat {
            name: OTHER_TENANT.to_owned(),
            admitted: self.other_evicted.admitted,
            shed: self.other_evicted.shed,
            breaker_rejected: self.other_evicted.breaker_rejected,
            ..TenantStat::default()
        };
        let mut other_waits = self.other_evicted.waits.clone();

        let mut named: Vec<(&String, &Tenant<T>)> = Vec::new();
        for (id, t) in &self.tenants {
            match id {
                TenantId::Anon(_) => {
                    anon.admitted += t.admitted;
                    anon.shed += t.shed;
                    anon.breaker_rejected += t.breaker_rejected;
                    anon.breaker_open |= t.breaker.is_open(now_us);
                    anon_waits.merge(&t.waits);
                }
                TenantId::Named(name) => named.push((name, t)),
            }
        }
        named.sort_by(|a, b| a.0.cmp(b.0));

        let mut rows = Vec::new();
        let keep = limit.max(2).saturating_sub(2); // room for (anon)/(other)
        for (i, (name, t)) in named.into_iter().enumerate() {
            if i < keep {
                rows.push(TenantStat {
                    name: (*name).clone(),
                    admitted: t.admitted,
                    shed: t.shed,
                    breaker_rejected: t.breaker_rejected,
                    breaker_open: t.breaker.is_open(now_us),
                    wait_p50_us: t.waits.quantile(0.50),
                    wait_p99_us: t.waits.quantile(0.99),
                });
            } else {
                other.admitted += t.admitted;
                other.shed += t.shed;
                other.breaker_rejected += t.breaker_rejected;
                other.breaker_open |= t.breaker.is_open(now_us);
                other_waits.merge(&t.waits);
            }
        }
        if anon.admitted + anon.shed + anon.breaker_rejected > 0 || anon.breaker_open {
            anon.wait_p50_us = anon_waits.quantile(0.50);
            anon.wait_p99_us = anon_waits.quantile(0.99);
            rows.push(anon);
        }
        if other.admitted + other.shed + other.breaker_rejected > 0 || other.breaker_open {
            other.wait_p50_us = other_waits.quantile(0.50);
            other.wait_p99_us = other_waits.quantile(0.99);
            rows.push(other);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(s: &str) -> TenantId {
        TenantId::Named(s.to_owned())
    }

    fn cfg(cap: usize) -> OverloadConfig {
        OverloadConfig {
            queue_capacity: cap,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn token_bucket_refills_and_bounds() {
        let mut b = TokenBucket::new(10.0, 5.0); // 10/s, burst 5
        assert!(!b.is_unlimited());
        for _ in 0..5 {
            assert!(b.try_take(0));
        }
        assert!(!b.try_take(0), "burst exhausted");
        assert!(b.ms_until_token(0) > 0);
        // 100 ms later one token (10/s) has refilled.
        assert!(b.try_take(100_000));
        assert!(!b.try_take(100_000));
        // A long idle period refills to burst, never beyond.
        assert!((b.tokens(1_000_000_000) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_means_unlimited() {
        let mut b = TokenBucket::new(0.0, 0.0);
        assert!(b.is_unlimited());
        for now in 0..10_000u64 {
            assert!(b.try_take(now));
        }
        assert_eq!(b.ms_until_token(0), 0);
    }

    #[test]
    fn breaker_lifecycle_closed_open_halfopen() {
        let mut b = Breaker::new(3, 1_000_000); // 3 fails, 1 s cooldown
        assert!(b.admit(0).is_ok());
        b.outcome(false, 0);
        b.outcome(false, 0);
        assert!(b.admit(0).is_ok(), "below threshold stays closed");
        b.outcome(false, 0);
        assert!(b.is_open(1));
        assert_eq!(b.trips(), 1);
        let retry = b.admit(500_000).unwrap_err();
        assert!((1..=1_000).contains(&retry));
        // Cooldown over: one half-open probe is admitted, peers are not.
        assert!(b.admit(1_000_001).is_ok());
        assert!(b.admit(1_000_002).is_err(), "only one probe in flight");
        // A failed probe re-opens...
        b.outcome(false, 1_000_010);
        assert!(b.is_open(1_000_011));
        assert_eq!(b.trips(), 2);
        // ...a successful one closes.
        assert!(b.admit(2_000_011).is_ok());
        b.outcome(true, 2_000_020);
        assert!(!b.is_open(2_000_021));
        assert!(b.admit(2_000_030).is_ok());
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let mut b = Breaker::new(0, 1_000_000);
        for _ in 0..100 {
            b.outcome(false, 0);
        }
        assert!(b.admit(0).is_ok());
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn fifo_semantics_with_policy_none() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(OverloadConfig {
            queue_capacity: 2,
            shed_policy: ShedPolicy::None,
            tenant_rate: 1.0, // would shed under other policies
            ..OverloadConfig::default()
        });
        let a = named("a");
        assert_eq!(ctl.offer(&a, 1, 0), Decision::Admitted);
        assert_eq!(ctl.offer(&a, 2, 0), Decision::Admitted);
        assert_eq!(ctl.offer(&a, 3, 0), Decision::Busy, "full queue is busy");
        assert_eq!(ctl.pop(10).unwrap().item, 1);
        assert_eq!(ctl.pop(10).unwrap().item, 2);
        assert!(ctl.pop(10).is_none());
    }

    #[test]
    fn over_quota_is_shed_and_within_quota_admitted() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(OverloadConfig {
            queue_capacity: 16,
            tenant_rate: 1.0,
            tenant_burst: 2.0,
            shed_policy: ShedPolicy::Strict,
            ..OverloadConfig::default()
        });
        let a = named("a");
        assert_eq!(ctl.offer(&a, 1, 0), Decision::Admitted);
        assert_eq!(ctl.offer(&a, 2, 0), Decision::Admitted);
        match ctl.offer(&a, 3, 0) {
            Decision::Shed { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected shed, got {other:?}"),
        }
        // Another tenant's quota is untouched.
        assert_eq!(ctl.offer(&named("b"), 4, 0), Decision::Admitted);
        let stats = ctl.tenant_stats(0, 16);
        let row_a = stats.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(row_a.admitted, 2);
        assert_eq!(row_a.shed, 1);
    }

    #[test]
    fn graduated_policy_rides_over_quota_while_healthy_only() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(OverloadConfig {
            queue_capacity: 16,
            reserved_slots: 4,
            tenant_rate: 1.0,
            tenant_burst: 1.0,
            tenant_backlog_cap: 16,
            shed_wait_us: 0,
            ..OverloadConfig::default()
        });
        let a = named("a");
        assert_eq!(ctl.offer(&a, 0, 0), Decision::Admitted, "within quota");
        // Over quota but Healthy: admitted into the non-reserved region.
        let mut admitted = 1;
        loop {
            match ctl.offer(&a, 0, 0) {
                Decision::Admitted => admitted += 1,
                Decision::Shed { .. } => break,
                other => panic!("unexpected {other:?}"),
            }
            assert!(admitted <= 16, "reserved region was invaded");
        }
        // 16 slots - 4 reserved = 12 occupied before the shed. (Depth 8
        // crossed the Shedding threshold; both paths end in a shed.)
        assert!(ctl.depth() <= 12);
        assert!(ctl.state() >= OverloadState::Shedding);
        // Under Shedding, over-quota work is always shed.
        assert!(matches!(ctl.offer(&a, 0, 0), Decision::Shed { .. }));
        // A within-quota tenant still gets in: the reserved share works.
        assert_eq!(ctl.offer(&named("b"), 9, 0), Decision::Admitted);
    }

    #[test]
    fn emergency_clamps_even_within_quota() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(OverloadConfig {
            queue_capacity: 8,
            tenant_rate: 1_000_000.0, // everyone within quota
            tenant_backlog_cap: 8,
            shed_wait_us: 0,
            ..OverloadConfig::default()
        });
        let a = named("a");
        for i in 0..7 {
            assert_eq!(ctl.offer(&a, i, 0), Decision::Admitted);
        }
        ctl.govern(0);
        assert_eq!(ctl.state(), OverloadState::Emergency, "7/8 >= 7/8 cap");
        // Emergency share is tenant_backlog_cap / 4 = 2; tenant a far
        // exceeds it, so its next within-quota request is shed.
        assert!(matches!(ctl.offer(&a, 99, 0), Decision::Shed { .. }));
        // A fresh tenant is within its emergency share and gets in.
        assert_eq!(ctl.offer(&named("b"), 100, 0), Decision::Admitted);
    }

    #[test]
    fn governor_hysteresis_and_dwell() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(OverloadConfig {
            queue_capacity: 8,
            dwell_us: 1_000,
            shed_wait_us: 0,
            tenant_rate: 1_000_000.0,
            tenant_backlog_cap: 8,
            ..OverloadConfig::default()
        });
        for i in 0..4u32 {
            ctl.offer(&named(&format!("t{i}")), i, 0);
        }
        ctl.govern(0);
        assert_eq!(ctl.state(), OverloadState::Shedding, "depth 4 >= cap/2");
        // Draining below shed_lo (cap/4 = 2) is not enough before dwell.
        ctl.pop(10);
        ctl.pop(20);
        ctl.pop(30);
        ctl.govern(40);
        assert_eq!(ctl.state(), OverloadState::Shedding, "dwell not served");
        ctl.govern(5_000);
        assert_eq!(ctl.state(), OverloadState::Healthy, "dwell served");
        assert_eq!(ctl.transitions(), 2);
    }

    #[test]
    fn drr_serves_tenants_round_robin() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(cfg(64));
        let (a, b) = (named("a"), named("b"));
        for i in 0..3 {
            ctl.offer(&a, i, 0);
        }
        ctl.offer(&b, 100, 0);
        // b's single job must not wait behind a's entire backlog.
        let order: Vec<String> =
            std::iter::from_fn(|| ctl.pop(1).map(|p| p.tenant.to_string())).collect();
        assert_eq!(order, ["a", "b", "a", "a"]);
    }

    #[test]
    fn pop_is_work_conserving() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(cfg(64));
        for i in 0..5u32 {
            ctl.offer(&named(&format!("t{}", i % 2)), i, 0);
        }
        for _ in 0..5 {
            assert!(ctl.depth() > 0);
            assert!(ctl.pop(1).is_some(), "non-empty queue must serve");
        }
        assert_eq!(ctl.depth(), 0);
        assert!(ctl.pop(1).is_none());
    }

    #[test]
    fn breaker_trips_via_outcomes_and_recovers() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(OverloadConfig {
            breaker_threshold: 2,
            breaker_cooldown_ms: 1, // 1000 µs
            ..cfg(16)
        });
        let a = named("a");
        assert_eq!(ctl.offer(&a, 1, 0), Decision::Admitted);
        ctl.pop(1);
        ctl.outcome(&a, false, 1);
        assert_eq!(ctl.offer(&a, 2, 2), Decision::Admitted);
        ctl.pop(3);
        ctl.outcome(&a, false, 3);
        assert!(ctl.breaker_open(&a, 4));
        match ctl.offer(&a, 3, 4) {
            Decision::BreakerOpen { retry_after_ms } => assert!(retry_after_ms >= 1),
            other => panic!("expected breaker-open, got {other:?}"),
        }
        // Other tenants are unaffected.
        assert_eq!(ctl.offer(&named("b"), 4, 5), Decision::Admitted);
        // After the cooldown the half-open probe is admitted and its
        // success closes the breaker.
        assert_eq!(ctl.offer(&a, 5, 2_000), Decision::Admitted);
        ctl.pop(2_001);
        ctl.outcome(&a, true, 2_001);
        assert!(!ctl.breaker_open(&a, 2_002));
        let row = ctl
            .tenant_stats(2_002, 16)
            .into_iter()
            .find(|r| r.name == "a")
            .unwrap();
        assert_eq!(row.breaker_rejected, 1);
    }

    #[test]
    fn anon_tenants_aggregate_and_sweep_preserves_counters() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(cfg(4096));
        for i in 0..(SWEEP_THRESHOLD as u64 + 10) {
            let id = TenantId::Anon(i);
            ctl.offer(&id, i as u32, 0);
            ctl.pop(1);
        }
        // All idle and long past the eviction age: the next offer sweeps.
        let fresh = TenantId::Anon(u64::MAX);
        ctl.offer(&fresh, 0, IDLE_EVICT_US + 1);
        assert!(ctl.tenants_tracked() <= 2, "sweep must bound the table");
        let stats = ctl.tenant_stats(IDLE_EVICT_US + 2, 16);
        let anon = stats.iter().find(|r| r.name == ANON_TENANT).unwrap();
        assert_eq!(
            anon.admitted,
            SWEEP_THRESHOLD as u64 + 11,
            "evicted counters are folded, not lost"
        );
    }

    #[test]
    fn tenant_stats_caps_rows_into_other() {
        let mut ctl: OverloadCtl<u32> = OverloadCtl::new(cfg(4096));
        for i in 0..10u32 {
            ctl.offer(&named(&format!("t{i:02}")), i, 0);
        }
        let rows = ctl.tenant_stats(1, 5);
        assert_eq!(rows.len(), 4, "3 named + (other)");
        assert_eq!(rows.last().unwrap().name, OTHER_TENANT);
        assert_eq!(rows.last().unwrap().admitted, 7);
    }

    #[test]
    fn shed_policy_parses_and_displays() {
        for p in [ShedPolicy::None, ShedPolicy::Graduated, ShedPolicy::Strict] {
            assert_eq!(ShedPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(ShedPolicy::parse("bogus"), None);
    }

    #[test]
    fn overload_state_codes_roundtrip() {
        for s in [
            OverloadState::Healthy,
            OverloadState::Shedding,
            OverloadState::Emergency,
        ] {
            assert_eq!(OverloadState::from_code(s.code()), s);
        }
        assert_eq!(OverloadState::from_code(99), OverloadState::Healthy);
    }
}
