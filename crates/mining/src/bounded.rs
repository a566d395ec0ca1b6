//! Shared bounded-execution plumbing for the miners: the partial-result
//! container returned by `mine_bounded`, the sweep-level error type, the
//! panic-containment wrapper, and the one crossbeam worker fan-out.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tgm_limits::{fail, panic_message, CancelToken, Interrupt, Limits, Verdict, WorkerPanic};
use tgm_obs::span::span_if;
use tgm_obs::ObsOptions;

use crate::problem::Solution;

/// The outcome of a bounded mining run: everything found before the run
/// completed or was interrupted.
///
/// Interruption never invalidates what was already found — `solutions`
/// holds every solution whose support count finished, `stats` reflects
/// the work actually performed, and `verdict` says whether the result is
/// exhaustive ([`Verdict::Completed`]) or a prefix
/// ([`Verdict::Interrupted`]).
#[derive(Clone, Debug)]
pub struct BoundedMining<S> {
    /// Solutions fully counted before the run ended.
    pub solutions: Vec<Solution>,
    /// Per-run instrumentation for the work actually performed.
    pub stats: S,
    /// Whether the run completed or stopped early (and why).
    pub verdict: Verdict,
}

/// Why a (possibly parallel) support sweep stopped without a count.
pub(crate) enum SweepError {
    /// A limit tripped (deadline, cancellation); the candidate's support
    /// count is incomplete and must be discarded.
    Interrupted(Interrupt),
    /// A worker panicked; siblings have been cancelled via the shared
    /// token.
    Panicked(WorkerPanic),
}

impl From<Interrupt> for SweepError {
    fn from(i: Interrupt) -> Self {
        SweepError::Interrupted(i)
    }
}

impl From<WorkerPanic> for SweepError {
    fn from(p: WorkerPanic) -> Self {
        SweepError::Panicked(p)
    }
}

/// Runs `f`, converting a panic into a typed [`WorkerPanic`] after
/// cancelling `token` so sibling workers stop at their next poll instead
/// of burning through their chunks (or aborting the process, with
/// `panic = "abort"`-style configs, before anyone can report).
pub(crate) fn contain<T>(
    site: &'static str,
    token: Option<&CancelToken>,
    f: impl FnOnce() -> T,
) -> Result<T, WorkerPanic> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            if let Some(t) = token {
                t.cancel();
            }
            // The unwind stopped here, so this thread's span stack is the
            // known-good depth again: flush the partial span tree (tagged
            // via the `obs.spans.panicked_flushes` counter) instead of
            // dropping it, and dump the flight ring with the panic site.
            tgm_obs::span::flush_panicked(site);
            tgm_obs::recorder::worker_panic(site);
            Err(WorkerPanic {
                site,
                message: panic_message(payload.as_ref()),
            })
        }
    }
}

/// Runs `work` once per job, each on its own scoped worker thread, and
/// returns the jobs' results in job order.
///
/// Every worker enters the caller's current metric scope (fresh threads
/// start with an empty scope stack, so their emissions and any
/// contained-panic flush land where the caller's would), passes the
/// `site` failpoint, times itself under `span`, and runs inside
/// [`contain`]: a panic cancels `token` so siblings stop at their next
/// poll, and the first panic in job order is returned as the error. It
/// wins over any interrupt, since cancellation interrupts in siblings are
/// a side effect of the panic itself.
pub(crate) fn fan_out<J: Send, T: Send>(
    site: &'static str,
    span: &'static str,
    obs: ObsOptions,
    limits: Option<&Limits>,
    token: Option<&CancelToken>,
    jobs: Vec<J>,
    work: impl Fn(J) -> Result<T, Interrupt> + Sync,
) -> Result<Vec<Result<T, Interrupt>>, WorkerPanic> {
    let worker_panic = |payload: &(dyn std::any::Any + Send)| {
        if let Some(t) = token {
            t.cancel();
        }
        WorkerPanic {
            site,
            message: panic_message(payload),
        }
    };
    let worker_scope = tgm_obs::scope::current();
    let work = &work;
    let joined: Vec<Result<Result<T, Interrupt>, WorkerPanic>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let worker_scope = worker_scope.clone();
                scope.spawn(move |_| {
                    let _obs_scope = worker_scope.enter();
                    contain(site, token, || {
                        fail::point(site, limits);
                        let _s = span_if(obs.spans, span);
                        work(job)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| Err(worker_panic(p.as_ref()))))
            .collect()
    })
    .unwrap_or_else(|p| vec![Err(worker_panic(p.as_ref()))]);
    joined.into_iter().collect()
}
