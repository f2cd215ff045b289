//! Deterministic fan-out of independent evaluation work across threads.
//!
//! The paper's efficiency story is throughput: hierarchical evaluation
//! plus single-pass simulation already collapse the *number* of
//! simulations, and this module makes the remaining independent passes run
//! concurrently. Two invariants keep parallelism invisible to results:
//!
//! * work items are independent (no shared mutable state), and
//! * results are returned in **input order**, so every consumer sees
//!   exactly the sequence a serial loop would have produced.
//!
//! Together these make the engine bit-deterministic: miss counts and
//! estimates are identical for any worker count, including one.
//!
//! Thread-count control: [`worker_threads`] honours the `MHE_THREADS`
//! environment variable and falls back to the machine's available
//! parallelism.
//!
//! # One loop
//!
//! Every entry point is a thin adapter over one private loop that runs
//! `task(i)` for each index `i`, claimed from an atomic cursor so uneven
//! costs balance. One worker runs on the calling thread and spawns
//! nothing. The adapters differ only in how a task reaches its item:
//! `map`, `map_in` and `map_timed` take it out of an owned slot,
//! `try_map` and `try_map_in` borrow `&items[i]`, and
//! `try_for_each_mut_in` locks `&mut items[i]`. The loop alone spawns
//! workers, catches panics, retries, checks the cancel token, picks the
//! reported failure, fills [`SweepMetrics`] and, given an observability
//! phase, records the round's wall span and each worker's busy time (one
//! relaxed atomic load when observability is off).
//!
//! # Failures, retries, cancellation and faults
//!
//! Every task runs under `catch_unwind`, so a panic can never deadlock or
//! abort a sweep mid-join. The first failure, typed error or panic, stops
//! new claims; tasks already claimed finish, and the **lowest failing
//! index** is reported, whatever the worker count.
//!
//! * The fallible entry points (`try_*`) return it as a [`SweepError`]
//!   with partial [`SweepMetrics`]; a panic becomes
//!   [`MheError::WorkerFailed`] (`"{label} task {i}"` plus the panic
//!   message). Panics, never typed errors, are re-run under the sweep's
//!   [`RetryPolicy`] (default [`crate::env::retry_policy`], i.e.
//!   `MHE_RETRIES`), and the [`CancelToken`] is checked before every
//!   attempt.
//! * The infallible entry points (`map*`) cannot express failure: they
//!   never retry, ignore the cancel token, and re-raise the failing
//!   task's original panic payload once every worker has joined.
//!
//! Only `try_map` and `try_map_in` consult
//! [`crate::fault::maybe_panic_task`], so a [`crate::fault::FaultPlan`]
//! can kill chosen tasks there. Injected panics are one-shot, built for a
//! retry to recover from; `map*` never retries, and the in-place sweep
//! feeds stateful tasks (the reference measurement runs it without
//! retries), so neither is a fault site.

use crate::cancel::CancelToken;
use crate::env::RetryPolicy;
use crate::error::MheError;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default worker count: `MHE_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism. The variable is parsed
/// once, in [`crate::env::threads`].
pub fn worker_threads() -> usize {
    match crate::env::threads() {
        Some(n) => n,
        None => std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
    }
}

/// Wall-clock accounting for one [`ParallelSweep`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepMetrics {
    /// Number of work items submitted.
    pub jobs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time of the whole fan-out.
    pub wall: Duration,
    /// Work items that finished successfully (equals `jobs` unless the
    /// sweep failed and cancelled its remaining queue).
    pub completed: usize,
    /// Task attempts re-run after an isolated worker panic.
    pub retries: u64,
}

impl SweepMetrics {
    /// Completed jobs per wall-clock second.
    pub fn jobs_per_second(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.wall.as_secs_f64()
        }
    }
}

impl std::fmt::Display for SweepMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} jobs on {} threads in {:.3}s ({:.2} jobs/s)",
            self.completed,
            self.jobs,
            self.threads,
            self.wall.as_secs_f64(),
            self.jobs_per_second()
        )?;
        if self.retries > 0 {
            write!(f, ", {} retries", self.retries)?;
        }
        Ok(())
    }
}

/// A failed sweep: the first task failure (by input index) plus the
/// partial [`SweepMetrics`] — how much work *did* finish before the
/// queue was cancelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Why the sweep failed (the lowest-index failing task wins).
    pub error: MheError,
    /// Accounting for the partial run.
    pub metrics: SweepMetrics,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} after {}", self.error, self.metrics)
    }
}

impl std::error::Error for SweepError {}

impl From<SweepError> for MheError {
    fn from(e: SweepError) -> MheError {
        e.error
    }
}

/// Renders a caught panic payload: the `panic!` message when it is a
/// string, a placeholder otherwise. Pass the payload itself
/// (`payload.as_ref()`), not a reference to its `Box`, or the downcast
/// never matches.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// A scoped-thread worker pool over independent work items.
///
/// # Examples
///
/// ```
/// use mhe_core::parallel::ParallelSweep;
/// let squares = ParallelSweep::with_threads(4).map(vec![1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelSweep {
    threads: usize,
    retry: RetryPolicy,
    label: &'static str,
    cancel: Option<CancelToken>,
}

impl Default for ParallelSweep {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelSweep {
    /// A sweep using [`worker_threads`] workers and the process retry
    /// policy (`MHE_RETRIES`, default none).
    pub fn new() -> Self {
        Self {
            threads: worker_threads(),
            retry: crate::env::retry_policy(),
            label: "sweep",
            cancel: None,
        }
    }

    /// A sweep with an explicit worker count (`0` means [`worker_threads`]).
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            Self::new()
        } else {
            Self { threads, ..Self::new() }
        }
    }

    /// Overrides the retry policy for panicked tasks in the fallible
    /// paths ([`ParallelSweep::try_map`] and friends).
    pub fn with_retry(self, retry: RetryPolicy) -> Self {
        Self { retry, ..self }
    }

    /// Names this sweep's tasks in [`MheError::WorkerFailed`] (e.g.
    /// `"icache walk"` → `"icache walk task 17"`). Default `"sweep"`.
    pub fn with_label(self, label: &'static str) -> Self {
        Self { label, ..self }
    }

    /// Attaches a cooperative [`CancelToken`], checked before every task
    /// in the fallible paths ([`ParallelSweep::try_map`] and friends). A
    /// cancelled sweep stops claiming work at the next task boundary and
    /// surfaces [`MheError::Cancelled`] with partial [`SweepMetrics`];
    /// already-completed work (cache insertions in particular) stays
    /// valid. The infallible paths ignore the token — their signatures
    /// cannot express early exit.
    pub fn with_cancel(self, cancel: CancelToken) -> Self {
        Self { cancel: Some(cancel), ..self }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The retry policy applied to panicked tasks in the fallible paths.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Applies `f` to every item, concurrently, returning results in input
    /// order.
    ///
    /// A panicking task stops the sweep; the panic of the lowest failing
    /// index is re-raised, with its original payload, once every worker
    /// has joined.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_in(None, items, f)
    }

    /// Like [`ParallelSweep::map`], attributing the fan-out to an
    /// observability phase: the round's wall time plus each worker's busy
    /// time are recorded, so a [`mhe_obs::RunReport`] can derive the
    /// phase's parallel efficiency. With observability off (the default)
    /// this costs one relaxed atomic load over `map`.
    pub fn map_in<T, R, F>(&self, phase: Option<mhe_obs::Phase>, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_owned(phase, items, f).0
    }

    /// Like [`ParallelSweep::map`], also reporting the fan-out's wall time.
    pub fn map_timed<T, R, F>(&self, items: Vec<T>, f: F) -> (Vec<R>, SweepMetrics)
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map_owned(None, items, f)
    }

    /// Applies a fallible `f` to every item, concurrently, returning
    /// results in input order.
    ///
    /// Nothing panics out of this method. The lowest-index failure, a
    /// typed error or a panic that outlived the sweep's [`RetryPolicy`]
    /// (as [`MheError::WorkerFailed`] with the task label and panic
    /// message), cancels the remaining queue and comes back as a
    /// [`SweepError`] whose partial [`SweepMetrics`] say how much work
    /// completed. Items are taken by reference (retries may re-run a
    /// task), which is why `f` borrows rather than consumes.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, SweepError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R, MheError> + Sync,
    {
        self.try_map_in(None, items, f)
    }

    /// Like [`ParallelSweep::try_map`], attributing the fan-out to an
    /// observability phase (as [`ParallelSweep::map_in`] does).
    pub fn try_map_in<T, R, F>(
        &self,
        phase: Option<mhe_obs::Phase>,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, SweepError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R, MheError> + Sync,
    {
        self.run(phase, items.len(), Path::TryMap, |i| f(&items[i])).map(|(out, _)| out)
    }

    /// Applies `f` to every item **in place**, concurrently, attributing
    /// the round to an observability phase as [`ParallelSweep::map_in`]
    /// does.
    ///
    /// The streaming counterpart of [`ParallelSweep::try_map`]: stateful
    /// items (simulators, modelers) stay owned by the caller and can be fed
    /// one trace chunk per call, each visited exactly once per call. `Err`
    /// and caught panics behave as in `try_map`; a retried task re-runs `f`
    /// on the same item, so `f` must be restartable or panic before
    /// mutating. This sweep is no fault-injection site.
    pub fn try_for_each_mut_in<T, F>(
        &self,
        phase: Option<mhe_obs::Phase>,
        items: &mut [T],
        f: F,
    ) -> Result<(), SweepError>
    where
        T: Send,
        F: Fn(&mut T) -> Result<(), MheError> + Sync,
    {
        let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        // A panicking attempt poisons its slot; a retry still gets the item.
        self.run(phase, slots.len(), Path::InPlace, |i| {
            f(&mut slots[i].lock().unwrap_or_else(PoisonError::into_inner))
        })
        .map(|_| ())
    }

    /// The `map*` adapter: each task takes its item out of an owned slot.
    fn map_owned<T, R, F>(
        &self,
        phase: Option<mhe_obs::Phase>,
        items: Vec<T>,
        f: F,
    ) -> (Vec<R>, SweepMetrics)
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.run(phase, slots.len(), Path::Map, |i| {
            Ok(f(slots[i].lock().expect("no task holds a slot").take().expect("item claimed once")))
        })
        .expect("map tasks return Ok and their panics re-raise")
    }

    /// The one fan-out loop: runs `task(i)` for every `i < n` and returns
    /// the results in index order with the sweep's metrics, following the
    /// rules in the module doc. A `map*` panic is re-raised here, after
    /// every worker has joined.
    fn run<R, F>(
        &self,
        phase: Option<mhe_obs::Phase>,
        n: usize,
        path: Path,
        task: F,
    ) -> Result<(Vec<R>, SweepMetrics), SweepError>
    where
        R: Send,
        F: Fn(usize) -> Result<R, MheError> + Sync,
    {
        let start = Instant::now();
        let probe = phase.filter(|_| mhe_obs::enabled());
        let _wall = probe.map(mhe_obs::wall_span);
        let workers = self.threads.min(n).max(1);
        let cursor = AtomicUsize::new(0);
        let halted = AtomicBool::new(false);
        let retries = AtomicU64::new(0);
        let first_stop: Mutex<Option<(usize, Stop)>> = Mutex::new(None);
        let worker = || {
            let busy_start = probe.map(|_| Instant::now());
            let mut done = Vec::with_capacity(n.div_ceil(workers));
            while !halted.load(Ordering::Relaxed) {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match self.attempt(path, i, &task, &retries) {
                    Ok(r) => done.push((i, r)),
                    Err(stop) => {
                        halted.store(true, Ordering::Relaxed);
                        let mut first = first_stop.lock().expect("no task holds the stop slot");
                        if first.as_ref().is_none_or(|(j, _)| i < *j) {
                            *first = Some((i, stop));
                        }
                        break;
                    }
                }
            }
            if let (Some(p), Some(s)) = (probe, busy_start) {
                mhe_obs::add_busy(p, s.elapsed());
            }
            done
        };
        let mut outputs: Vec<Vec<(usize, R)>> = if workers == 1 {
            vec![worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
                handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect()
            })
        };
        // One worker's output is already the whole result, in order.
        let mut results = outputs.pop().unwrap_or_default();
        for part in outputs {
            results.extend(part);
        }
        let metrics = SweepMetrics {
            jobs: n,
            threads: workers,
            wall: start.elapsed(),
            completed: results.len(),
            retries: retries.into_inner(),
        };
        match first_stop.into_inner().expect("no task holds the stop slot") {
            None => {
                results.sort_unstable_by_key(|&(i, _)| i);
                Ok((results.into_iter().map(|(_, r)| r).collect(), metrics))
            }
            Some((_, Stop::Failed(error))) => Err(SweepError { error, metrics }),
            Some((_, Stop::Panicked(payload))) => resume_unwind(payload),
        }
    }

    /// Runs task `i` until it returns, or until it has panicked as often
    /// as `path` allows. Counts each re-run in `retries`.
    fn attempt<R>(
        &self,
        path: Path,
        i: usize,
        task: &impl Fn(usize) -> Result<R, MheError>,
        retries: &AtomicU64,
    ) -> Result<R, Stop> {
        let fallible = path != Path::Map;
        let mut attempts = 0u32;
        loop {
            if fallible && self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(Stop::Failed(MheError::Cancelled));
            }
            attempts += 1;
            let payload = match catch_unwind(AssertUnwindSafe(|| {
                if path == Path::TryMap {
                    crate::fault::maybe_panic_task(i as u64);
                }
                task(i)
            })) {
                Ok(result) => return result.map_err(Stop::Failed),
                Err(payload) => payload,
            };
            mhe_obs::count(mhe_obs::Counter::WorkerPanic, 1);
            if !fallible {
                return Err(Stop::Panicked(payload));
            }
            if attempts >= self.retry.max_attempts {
                return Err(Stop::Failed(MheError::worker_failed(
                    format!("{} task {i}", self.label),
                    panic_message(payload.as_ref()),
                )));
            }
            retries.fetch_add(1, Ordering::Relaxed);
            mhe_obs::count(mhe_obs::Counter::TaskRetry, 1);
            if !self.retry.backoff.is_zero() {
                std::thread::sleep(self.retry.backoff);
            }
        }
    }
}

/// The entry-point family a task runs for; it fixes the loop's rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// `map*`: no retries, no cancel token, no fault site; panics re-raise.
    Map,
    /// `try_map*`: retries, the cancel token and the `PanicTask` fault site.
    TryMap,
    /// `try_for_each_mut_in`: retries and the cancel token; no fault site.
    InPlace,
}

/// Why a task stopped its sweep.
enum Stop {
    /// A typed error, or a fallible path's panic that outlived its retries.
    Failed(MheError),
    /// A `map*` panic, re-raised with its original payload.
    Panicked(Box<dyn Any + Send>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let out = ParallelSweep::with_threads(threads).map(items.clone(), |x| x * 2 + 1);
            assert_eq!(out, items.iter().map(|x| x * 2 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let sweep = ParallelSweep::with_threads(4);
        assert_eq!(sweep.map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(sweep.map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // The determinism contract at the pool level: any worker count
        // produces the same output sequence.
        let items: Vec<u64> = (0..100).map(|i| i * 37 % 91).collect();
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let one = ParallelSweep::with_threads(1).map(items.clone(), f);
        for threads in [2, 5, 16] {
            assert_eq!(ParallelSweep::with_threads(threads).map(items.clone(), f), one);
        }
    }

    #[test]
    fn with_threads_zero_falls_back_to_auto() {
        assert!(ParallelSweep::with_threads(0).threads() >= 1);
    }

    #[test]
    fn for_each_mut_visits_every_item_once() {
        for threads in [1, 2, 3, 8] {
            let mut items: Vec<u64> = (0..97).collect();
            ParallelSweep::with_threads(threads)
                .try_for_each_mut_in(None, &mut items, |x| {
                    *x += 1000;
                    Ok(())
                })
                .unwrap();
            assert_eq!(items, (1000..1097).collect::<Vec<u64>>(), "{threads} threads");
        }
    }

    #[test]
    fn for_each_mut_accumulates_state_across_calls() {
        // The chunked-replay shape: stateful items fed repeatedly.
        let mut sums = vec![0u64; 16];
        let sweep = ParallelSweep::with_threads(4);
        for chunk in 1..=10u64 {
            sweep
                .try_for_each_mut_in(None, &mut sums, |s| {
                    *s += chunk;
                    Ok(())
                })
                .unwrap();
        }
        assert_eq!(sums, vec![55u64; 16]);
        sweep
            .try_for_each_mut_in(None, &mut [], |_: &mut u64| {
                unreachable!("empty slice has no items")
            })
            .unwrap();
    }

    #[test]
    fn map_timed_reports_jobs() {
        let (out, m) = ParallelSweep::with_threads(2).map_timed(vec![1, 2, 3], |x| x);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(m.jobs, 3);
        assert_eq!(m.completed, m.jobs);
        assert!(m.threads >= 1);
        assert!(format!("{m}").contains("3 jobs"));
    }

    #[test]
    fn try_map_matches_map_on_success() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8] {
            let sweep = ParallelSweep::with_threads(threads);
            let out = sweep.try_map(&items, |x| Ok(x * 3)).unwrap();
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_map_surfaces_the_lowest_index_error() {
        // Each case: the index that panics, the indices that return a
        // typed error, and the failure the sweep must report.
        let typed = MheError::InvalidConfig { field: "x", requirement: "!= 7" };
        let panicked = |i: u64| MheError::worker_failed(format!("sweep task {i}"), "boom");
        let cases = [
            (None, vec![7, 40], typed.clone()),
            (Some(3), vec![7], panicked(3)),
            (Some(7), vec![3], typed.clone()),
        ];
        let items: Vec<u64> = (0..64).collect();
        for (panic_at, errors_at, expected) in cases {
            for threads in [1, 4, 8] {
                let err = ParallelSweep::with_threads(threads)
                    .with_retry(RetryPolicy::NONE)
                    .try_map(&items, |&x| {
                        if Some(x) == panic_at {
                            panic!("boom");
                        }
                        if errors_at.contains(&x) {
                            return Err(typed.clone());
                        }
                        Ok(x)
                    })
                    .unwrap_err();
                assert_eq!(err.error, expected, "{threads} threads, panic at {panic_at:?}");
                assert!(err.metrics.completed < items.len(), "queue was cancelled");
                assert_eq!(err.metrics.jobs, items.len());
            }
        }
    }

    #[test]
    fn try_map_converts_panics_into_worker_failed() {
        let items: Vec<u64> = (0..32).collect();
        for threads in [1, 8] {
            let err = ParallelSweep::with_threads(threads)
                .with_retry(RetryPolicy::NONE)
                .with_label("unit")
                .try_map(&items, |&x| {
                    if x == 5 {
                        panic!("boom at {x}");
                    }
                    Ok(x)
                })
                .unwrap_err();
            match &err.error {
                MheError::WorkerFailed { task, cause } => {
                    assert_eq!(&**task, "unit task 5", "{threads} threads");
                    assert_eq!(&**cause, "boom at 5");
                }
                other => panic!("expected WorkerFailed, got {other:?}"),
            }
            assert_eq!(err.error.exit_code(), 4);
        }
    }

    #[test]
    fn try_map_retries_transient_panics() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let items: Vec<u64> = (0..8).collect();
        let out = ParallelSweep::with_threads(4)
            .with_retry(RetryPolicy { max_attempts: 3, backoff: Duration::ZERO })
            .try_map(&items, |&x| {
                if x == 3 && attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                Ok(x)
            })
            .unwrap();
        assert_eq!(out, items);
        assert_eq!(attempts.load(Ordering::Relaxed), 3, "two failures, then success");
    }

    #[test]
    fn try_map_does_not_retry_typed_errors() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let items = [1u64];
        let err = ParallelSweep::with_threads(1)
            .with_retry(RetryPolicy { max_attempts: 5, backoff: Duration::ZERO })
            .try_map(&items, |_| -> Result<u64, MheError> {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(MheError::InvalidConfig { field: "f", requirement: "r" })
            })
            .unwrap_err();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "typed errors are deterministic");
        assert_eq!(err.error.exit_code(), 2);
    }

    #[test]
    fn try_for_each_mut_isolates_panics_and_reports_partial_metrics() {
        for threads in [1, 8] {
            let mut items: Vec<u64> = (0..40).collect();
            let err = ParallelSweep::with_threads(threads)
                .try_for_each_mut_in(None, &mut items, |x| {
                    if *x == 11 {
                        panic!("poisoned item");
                    }
                    *x += 100;
                    Ok(())
                })
                .unwrap_err();
            assert!(matches!(err.error, MheError::WorkerFailed { .. }), "{threads} threads");
            assert!(err.metrics.completed < 40);
        }
        // Success path mutates every item exactly once.
        let mut items: Vec<u64> = (0..40).collect();
        ParallelSweep::with_threads(8)
            .try_for_each_mut_in(None, &mut items, |x| {
                *x += 100;
                Ok(())
            })
            .unwrap();
        assert_eq!(items, (100..140).collect::<Vec<u64>>());
    }

    #[test]
    fn map_panic_is_reraised_after_clean_join() {
        // The infallible path cannot express failure, but the panic must
        // arrive via a clean join (no worker left running), carrying the
        // original payload of the lowest panicking index, at any worker
        // count.
        for threads in [1, 4] {
            let sweep = ParallelSweep::with_threads(threads);
            let payload = std::thread::spawn(move || {
                sweep.map((0..64u64).collect(), |x| {
                    if x == 9 || x == 30 {
                        panic!("original payload {x}");
                    }
                    x
                })
            })
            .join()
            .unwrap_err();
            assert_eq!(panic_message(payload.as_ref()), "original payload 9", "{threads} threads");
        }
    }

    #[test]
    fn fault_plan_panics_surface_as_worker_failed() {
        let _lock = crate::fault::injection_lock().lock().unwrap();
        let _guard =
            crate::fault::arm(crate::fault::FaultPlan::new(vec![crate::fault::Fault::PanicTask {
                task: 2,
            }]));
        let items: Vec<u64> = (0..16).collect();
        let err = ParallelSweep::with_threads(4)
            .with_retry(RetryPolicy::NONE)
            .try_map(&items, |&x| Ok(x))
            .unwrap_err();
        match &err.error {
            MheError::WorkerFailed { task, cause } => {
                assert!(task.contains("task 2"), "{task}");
                assert!(cause.contains("injected fault"), "{cause}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn fault_plan_panic_recovers_with_one_retry() {
        let _lock = crate::fault::injection_lock().lock().unwrap();
        let _guard =
            crate::fault::arm(crate::fault::FaultPlan::new(vec![crate::fault::Fault::PanicTask {
                task: 5,
            }]));
        let items: Vec<u64> = (0..16).collect();
        let out = ParallelSweep::with_threads(4)
            .with_retry(RetryPolicy { max_attempts: 2, backoff: Duration::ZERO })
            .try_map(&items, |&x| Ok(x * 2))
            .unwrap();
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn only_try_map_is_a_fault_site() {
        let _lock = crate::fault::injection_lock().lock().unwrap();
        let _guard =
            crate::fault::arm(crate::fault::FaultPlan::new(vec![crate::fault::Fault::PanicTask {
                task: 0,
            }]));
        let items: Vec<u64> = (0..16).collect();
        let sweep = ParallelSweep::with_threads(4).with_retry(RetryPolicy::NONE);
        assert_eq!(sweep.map(items.clone(), |x| x), items);
        assert_eq!(sweep.map_in(None, items.clone(), |x| x), items);
        let mut visited = items.clone();
        sweep
            .try_for_each_mut_in(None, &mut visited, |x| {
                *x += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(visited, (1..17).collect::<Vec<u64>>());
        // The one-shot plan is still armed: the first fault site fires it.
        let err = sweep.try_map(&items, |&x| Ok(x)).unwrap_err();
        match &err.error {
            MheError::WorkerFailed { task, cause } => {
                assert_eq!(&**task, "sweep task 0");
                assert!(cause.contains("injected fault"), "{cause}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_sweep_stops_at_a_task_boundary_with_partial_metrics() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            let observer = token.clone();
            let items: Vec<u64> = (0..64).collect();
            let err = ParallelSweep::with_threads(threads)
                .with_cancel(token)
                .try_map(&items, |&x| {
                    if x == 3 {
                        observer.cancel();
                    }
                    Ok(x)
                })
                .unwrap_err();
            assert_eq!(err.error, MheError::Cancelled, "{threads} threads");
            assert_eq!(err.error.exit_code(), 7);
            assert!(err.metrics.completed < items.len(), "{threads} threads: queue cancelled");
        }
    }

    #[test]
    fn pre_cancelled_sweep_does_no_work() {
        let token = CancelToken::new();
        token.cancel();
        let calls = std::sync::atomic::AtomicU32::new(0);
        let items: Vec<u64> = (0..16).collect();
        let err = ParallelSweep::with_threads(4)
            .with_cancel(token.clone())
            .try_map(&items, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(x)
            })
            .unwrap_err();
        assert_eq!(err.error, MheError::Cancelled);
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no task may start after cancellation");

        let mut items: Vec<u64> = (0..16).collect();
        let err = ParallelSweep::with_threads(4)
            .with_cancel(token)
            .try_for_each_mut_in(None, &mut items, |x| {
                *x += 100;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.error, MheError::Cancelled);
        assert_eq!(err.metrics.completed, 0);
        assert_eq!(items, (0..16).collect::<Vec<u64>>(), "no item may be visited");
    }

    #[test]
    fn uneven_work_completes() {
        // Items with wildly different costs still all complete and land in
        // their own slots.
        let items: Vec<u64> = vec![200_000, 1, 1, 120_000, 1, 80_000, 1, 1];
        let out = ParallelSweep::with_threads(4).map(items.clone(), |n| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(i ^ (acc >> 3));
            }
            (n, acc)
        });
        for (i, (n, _)) in out.iter().enumerate() {
            assert_eq!(*n, items[i]);
        }
    }
}
