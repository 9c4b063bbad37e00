//! A small blocking client for the service protocol.

use crate::metrics::StatsSnapshot;
use crate::proto::{read_response, write_request, Request, Response};
use crate::server::{Endpoint, Stream};
use flb_core::{AlgorithmId, ScheduleRequest};
use flb_graph::TaskGraph;
use flb_sched::{Machine, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::time::Duration;

/// Outcome of one `schedule` submission.
#[derive(Clone, Debug)]
pub enum Submission {
    /// The service answered with a schedule.
    Done(ScheduleReply),
    /// Backpressure: the queue was full; retry after the hint.
    Busy {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// Load shed: the service is overloaded (or this tenant is over
    /// quota) and declined the work; retry after the hint.
    Overloaded {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired while it was queued.
    Expired,
}

/// A served schedule plus its serving metadata.
#[derive(Clone, Debug)]
pub struct ScheduleReply {
    /// The schedule.
    pub schedule: Schedule,
    /// Whether the fingerprint cache answered it.
    pub cached: bool,
    /// Server-side service time in microseconds.
    pub micros: u64,
}

/// A blocking protocol client over one connection.
pub struct Client {
    conn: Stream,
    /// Tenant name attached to schedule requests; empty = anonymous
    /// (the server buckets the connection under a private identity).
    tenant: String,
}

fn unexpected(what: &str, resp: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response to {what}: {resp:?}"),
    )
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            conn: Stream::connect(endpoint, None)?,
            tenant: String::new(),
        })
    }

    /// Connects and identifies as `tenant` on every schedule request.
    pub fn connect_as(endpoint: &Endpoint, tenant: &str) -> io::Result<Client> {
        let mut client = Client::connect(endpoint)?;
        client.set_tenant(tenant);
        Ok(client)
    }

    /// Sets the tenant name attached to subsequent schedule requests
    /// (empty reverts to anonymous).
    pub fn set_tenant(&mut self, tenant: &str) {
        self.tenant = tenant.to_owned();
    }

    /// The tenant name currently attached to schedule requests.
    #[must_use]
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        write_request(&mut self.conn, req)?;
        match read_response(&mut self.conn)? {
            Response::Error(msg) => Err(io::Error::other(format!("service error: {msg}"))),
            resp => Ok(resp),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            resp => Err(unexpected("ping", &resp)),
        }
    }

    /// Submits one schedule request (`deadline_ms == 0` means none).
    pub fn schedule(
        &mut self,
        algorithm: AlgorithmId,
        graph: TaskGraph,
        machine: Machine,
        deadline_ms: u64,
    ) -> io::Result<Submission> {
        let req = Request::Schedule {
            request: Box::new(ScheduleRequest::new(algorithm, graph, machine)),
            deadline_ms,
            tenant: self.tenant.clone(),
        };
        match self.round_trip(&req)? {
            Response::Schedule {
                cached,
                micros,
                schedule,
            } => Ok(Submission::Done(ScheduleReply {
                schedule,
                cached,
                micros,
            })),
            Response::Busy { retry_after_ms } => Ok(Submission::Busy { retry_after_ms }),
            Response::Overloaded { retry_after_ms } => {
                Ok(Submission::Overloaded { retry_after_ms })
            }
            Response::BreakerOpen { retry_after_ms } => Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!(
                    "circuit breaker open for this tenant (cooling down, \
                     retry in ~{retry_after_ms} ms)"
                ),
            )),
            Response::Expired => Ok(Submission::Expired),
            Response::ShuttingDown => Err(io::Error::other("service is shutting down")),
            resp => Err(unexpected("schedule", &resp)),
        }
    }

    /// Submits with bounded busy-retry under the default [`RetryPolicy`]
    /// (exponential backoff with jitter, seeded from the server's
    /// `retry_after_ms` hint), up to `max_retries` extra attempts.
    pub fn schedule_with_retry(
        &mut self,
        algorithm: AlgorithmId,
        graph: &TaskGraph,
        machine: &Machine,
        deadline_ms: u64,
        max_retries: u32,
    ) -> io::Result<Submission> {
        let policy = RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        };
        self.schedule_with_policy(algorithm, graph, machine, deadline_ms, &policy)
    }

    /// Submits with bounded busy-retry under an explicit [`RetryPolicy`].
    ///
    /// Each `busy` or `overloaded` response triggers a sleep of the
    /// policy's backoff for that attempt (hint-based, exponentially
    /// growing, jittered), then a resubmission. Total sleep is further
    /// capped by [`RetryPolicy::budget_ms`]. Once the retry budget is
    /// spent, the final response — including `busy`/`overloaded` — is
    /// returned to the caller, who decides how to surface exhaustion.
    /// A breaker-open response is an error, never retried: the server
    /// has quarantined this tenant and retries only prolong the cooldown.
    pub fn schedule_with_policy(
        &mut self,
        algorithm: AlgorithmId,
        graph: &TaskGraph,
        machine: &Machine,
        deadline_ms: u64,
        policy: &RetryPolicy,
    ) -> io::Result<Submission> {
        let mut rng = policy.jitter.then(RetryPolicy::jitter_rng);
        let mut slept_ms: u64 = 0;
        for attempt in 0..policy.max_retries {
            let hint =
                match self.schedule(algorithm, graph.clone(), machine.clone(), deadline_ms)? {
                    Submission::Busy { retry_after_ms }
                    | Submission::Overloaded { retry_after_ms } => retry_after_ms,
                    done => return Ok(done),
                };
            let want = policy.backoff_ms(attempt, hint, rng.as_mut());
            let room = policy.budget_ms.saturating_sub(slept_ms);
            if policy.budget_ms > 0 && room == 0 {
                break; // budget exhausted: surface the rejection
            }
            let ms = if policy.budget_ms > 0 {
                want.min(room)
            } else {
                want
            };
            std::thread::sleep(Duration::from_millis(ms));
            slept_ms = slept_ms.saturating_add(ms);
        }
        self.schedule(algorithm, graph.clone(), machine.clone(), deadline_ms)
    }

    /// Fetches the live counters.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            resp => Err(unexpected("stats", &resp)),
        }
    }

    /// Asks the daemon to stop.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            resp => Err(unexpected("shutdown", &resp)),
        }
    }
}

/// How a client backs off when the service answers `busy`.
///
/// The sleep before retry `attempt` (0-based) is the server's
/// `retry_after_ms` hint (or [`base_ms`](Self::base_ms) when the hint is
/// 0) doubled per attempt, capped at [`cap_ms`](Self::cap_ms), plus up to
/// 50% random jitter so a herd of rejected clients does not resubmit in
/// lockstep. The hint is always honored: the sleep is never shorter than
/// the deterministic, hint-derived part.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Extra attempts after the first submission.
    pub max_retries: u32,
    /// Backoff seed in milliseconds when the server sends no hint.
    pub base_ms: u64,
    /// Upper bound on the deterministic backoff per attempt.
    pub cap_ms: u64,
    /// Upper bound on *total* sleep across all retries, in milliseconds
    /// (0 = unbounded). Keeps a client from stacking server hints into
    /// an unbounded stall when the service stays overloaded.
    pub budget_ms: u64,
    /// Whether to add random jitter on top of the deterministic backoff.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_ms: 10,
            cap_ms: 1_000,
            budget_ms: 10_000,
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// A time-seeded RNG for jitter (no fixed seed: jitter exists exactly
    /// to decorrelate clients started at the same moment).
    fn jitter_rng() -> StdRng {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs());
        StdRng::seed_from_u64(nanos ^ u64::from(std::process::id()) << 32)
    }

    /// The sleep in milliseconds before retry `attempt` (0-based), given
    /// the server's hint. Pass an RNG to add jitter, `None` for the
    /// deterministic part only.
    fn backoff_ms(&self, attempt: u32, hint_ms: u64, rng: Option<&mut StdRng>) -> u64 {
        let seed = if hint_ms > 0 {
            hint_ms
        } else {
            self.base_ms.max(1)
        };
        let grown = seed.saturating_mul(1u64 << attempt.min(20));
        let det = grown.min(self.cap_ms.max(1));
        match rng {
            Some(rng) => det + rng.random_range(0..=det / 2),
            None => det,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_honors_hint_and_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(0, 40, None), 40);
        assert_eq!(p.backoff_ms(1, 40, None), 80);
        assert_eq!(p.backoff_ms(2, 40, None), 160);
        // No hint: falls back to base_ms.
        assert_eq!(p.backoff_ms(0, 0, None), p.base_ms);
    }

    #[test]
    fn backoff_is_capped_and_never_overflows() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(30, 500, None), p.cap_ms);
        assert_eq!(p.backoff_ms(u32::MAX, u64::MAX, None), p.cap_ms);
    }

    #[test]
    fn default_policy_bounds_total_sleep() {
        let p = RetryPolicy::default();
        assert!(p.budget_ms > 0, "total-sleep budget on by default");
        assert!(
            p.budget_ms >= p.cap_ms,
            "budget must allow at least one max-length sleep"
        );
    }

    #[test]
    fn jitter_stays_within_half_the_deterministic_backoff() {
        let p = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(7);
        for attempt in 0..6 {
            let det = p.backoff_ms(attempt, 32, None);
            for _ in 0..100 {
                let j = p.backoff_ms(attempt, 32, Some(&mut rng));
                assert!(j >= det, "jitter may only lengthen the sleep");
                assert!(j <= det + det / 2, "jitter bounded at +50%");
            }
        }
    }
}
