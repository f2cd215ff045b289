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
//! # Fault tolerance
//!
//! Worker panics are caught at the task boundary (`catch_unwind`), so a
//! poisoned task can never deadlock or abort a sweep mid-join:
//!
//! * the fallible entry points ([`ParallelSweep::try_map`],
//!   [`ParallelSweep::try_for_each_mut_in`]) convert the panic into
//!   [`MheError::WorkerFailed`] carrying the task label and panic
//!   message, cancel remaining queued work, and surface the partial
//!   [`SweepMetrics`] in a [`SweepError`];
//! * the infallible entry point ([`ParallelSweep::map`]) cancels
//!   remaining work, joins every worker cleanly, and then re-raises the
//!   first panicking task's payload (lowest index wins) — deterministic,
//!   but still a panic, because the signature cannot express failure;
//! * a [`RetryPolicy`] (default: [`crate::env::retry_policy`], i.e.
//!   `MHE_RETRIES`) re-runs *panicked* tasks a bounded number of times in
//!   the fallible paths. Typed `MheError` returns are never retried —
//!   they are deterministic domain failures.
//!
//! [`ParallelSweep::try_map`] also consults
//! [`crate::fault::maybe_panic_task`], so a [`crate::fault::FaultPlan`]
//! can kill chosen tasks on demand. Injected panics are one-shot, built
//! for a retry to recover from; the in-place sweep feeds stateful tasks
//! that are never retried (the reference measurement), so it is no fault
//! site.

use crate::cancel::CancelToken;
use crate::env::RetryPolicy;
use crate::error::MheError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
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
    /// Work is claimed dynamically (an atomic cursor), so uneven item costs
    /// balance across workers; a panicking item propagates the panic to the
    /// caller once the scope joins.
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
        let probe = phase.filter(|_| mhe_obs::enabled());
        let _wall = probe.map(mhe_obs::wall_span);
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            let busy_start = probe.map(|_| Instant::now());
            let out: Vec<R> = items.into_iter().map(f).collect();
            if let (Some(p), Some(start)) = (probe, busy_start) {
                mhe_obs::add_busy(p, start.elapsed());
            }
            return out;
        }
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let first_panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut busy = Duration::ZERO;
                    loop {
                        if cancelled.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i].lock().unwrap().take().expect("item claimed once");
                        let item_start = probe.map(|_| Instant::now());
                        // Isolate the task: a panic cancels the queue and
                        // joins every worker cleanly instead of tearing
                        // down the scope mid-flight.
                        match catch_unwind(AssertUnwindSafe(|| f(item))) {
                            Ok(r) => {
                                *results[i].lock().unwrap() = Some(r);
                            }
                            Err(payload) => {
                                mhe_obs::count(mhe_obs::Counter::WorkerPanic, 1);
                                cancelled.store(true, Ordering::Relaxed);
                                let mut slot = first_panic.lock().unwrap();
                                match &*slot {
                                    Some((j, _)) if *j <= i => {}
                                    _ => *slot = Some((i, payload)),
                                }
                                break;
                            }
                        }
                        if let Some(start) = item_start {
                            busy += start.elapsed();
                        }
                    }
                    if let Some(p) = probe {
                        mhe_obs::add_busy(p, busy);
                    }
                });
            }
        });
        if let Some((_, payload)) = first_panic.into_inner().unwrap() {
            // Deterministic re-raise: the lowest-index panicking task's
            // payload, after every worker has joined.
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("worker completed item"))
            .collect()
    }

    /// Like [`ParallelSweep::map`], also reporting the fan-out's wall time.
    pub fn map_timed<T, R, F>(&self, items: Vec<T>, f: F) -> (Vec<R>, SweepMetrics)
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let jobs = items.len();
        let start = Instant::now();
        let out = self.map(items, f);
        (
            out,
            SweepMetrics {
                jobs,
                threads: self.threads.min(jobs).max(1),
                wall: start.elapsed(),
                completed: jobs,
                retries: 0,
            },
        )
    }

    /// Applies a fallible `f` to every item, concurrently, returning
    /// results in input order.
    ///
    /// Unlike [`ParallelSweep::map`], nothing panics out of this method:
    ///
    /// * a task returning `Err` cancels remaining queued work and
    ///   surfaces as the sweep's error (lowest input index wins, so the
    ///   reported failure is deterministic);
    /// * a task that *panics* is caught at the task boundary, retried per
    ///   the sweep's [`RetryPolicy`], and — if it keeps panicking —
    ///   converted into [`MheError::WorkerFailed`] with the task label
    ///   and panic message;
    /// * the returned [`SweepError`] carries partial [`SweepMetrics`], so
    ///   callers know how much work completed before cancellation.
    ///
    /// Items are taken by reference (retries may re-run a task), which is
    /// why `f` borrows rather than consumes.
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
        let start = Instant::now();
        let probe = phase.filter(|_| mhe_obs::enabled());
        let _wall = probe.map(mhe_obs::wall_span);
        let n = items.len();
        let workers = self.threads.min(n).max(1);
        let retries = AtomicU64::new(0);
        let completed = AtomicUsize::new(0);

        let run_one = |i: usize, item: &T| -> Result<R, MheError> {
            let mut attempt = 0u32;
            loop {
                if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return Err(MheError::Cancelled);
                }
                attempt += 1;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    crate::fault::maybe_panic_task(i as u64);
                    f(item)
                }));
                match outcome {
                    Ok(result) => return result,
                    Err(payload) => {
                        mhe_obs::count(mhe_obs::Counter::WorkerPanic, 1);
                        if attempt < self.retry.max_attempts {
                            retries.fetch_add(1, Ordering::Relaxed);
                            mhe_obs::count(mhe_obs::Counter::TaskRetry, 1);
                            if !self.retry.backoff.is_zero() {
                                std::thread::sleep(self.retry.backoff);
                            }
                            continue;
                        }
                        return Err(MheError::worker_failed(
                            format!("{} task {i}", self.label),
                            panic_message(payload.as_ref()),
                        ));
                    }
                }
            }
        };

        let metrics = |completed: usize, retries: u64, wall: Duration| SweepMetrics {
            jobs: n,
            threads: workers,
            wall,
            completed,
            retries,
        };

        if workers <= 1 {
            let busy_start = probe.map(|_| Instant::now());
            let mut out = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                match run_one(i, item) {
                    Ok(r) => out.push(r),
                    Err(error) => {
                        if let (Some(p), Some(bs)) = (probe, busy_start) {
                            mhe_obs::add_busy(p, bs.elapsed());
                        }
                        return Err(SweepError {
                            error,
                            metrics: metrics(i, retries.load(Ordering::Relaxed), start.elapsed()),
                        });
                    }
                }
            }
            if let (Some(p), Some(bs)) = (probe, busy_start) {
                mhe_obs::add_busy(p, bs.elapsed());
            }
            return Ok(out);
        }

        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let first_error: Mutex<Option<(usize, MheError)>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut busy = Duration::ZERO;
                    loop {
                        if cancelled.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item_start = probe.map(|_| Instant::now());
                        match run_one(i, &items[i]) {
                            Ok(r) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                                *results[i].lock().unwrap() = Some(r);
                            }
                            Err(error) => {
                                cancelled.store(true, Ordering::Relaxed);
                                let mut slot = first_error.lock().unwrap();
                                match &*slot {
                                    Some((j, _)) if *j <= i => {}
                                    _ => *slot = Some((i, error)),
                                }
                                break;
                            }
                        }
                        if let Some(s) = item_start {
                            busy += s.elapsed();
                        }
                    }
                    if let Some(p) = probe {
                        mhe_obs::add_busy(p, busy);
                    }
                });
            }
        });
        if let Some((_, error)) = first_error.into_inner().unwrap() {
            return Err(SweepError {
                error,
                metrics: metrics(
                    completed.load(Ordering::Relaxed),
                    retries.load(Ordering::Relaxed),
                    start.elapsed(),
                ),
            });
        }
        Ok(results
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("worker completed item"))
            .collect())
    }

    /// Applies `f` to every item **in place**, concurrently, attributing
    /// the round to an observability phase (wall time + per-worker busy
    /// time, as [`ParallelSweep::map_in`] does for `map`).
    ///
    /// The streaming counterpart of [`ParallelSweep::try_map`]: the items
    /// stay owned by the caller, so stateful workers (simulators,
    /// modelers) can be fed one trace chunk per call across many calls
    /// without moving in and out of the pool. Work is claimed dynamically;
    /// each item is visited exactly once per call. `Err` and caught panics
    /// behave as in [`ParallelSweep::try_map`]. A retried task re-runs `f`
    /// on the same item, so `f` must either be restartable or panic before
    /// mutating.
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
        let start = Instant::now();
        let probe = phase.filter(|_| mhe_obs::enabled());
        let _wall = probe.map(mhe_obs::wall_span);
        let n = items.len();
        let workers = self.threads.min(n).max(1);
        let retries = AtomicU64::new(0);
        let completed = AtomicUsize::new(0);

        let run_one = |i: usize, item: &mut T| -> Result<(), MheError> {
            let mut attempt = 0u32;
            loop {
                if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return Err(MheError::Cancelled);
                }
                attempt += 1;
                let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
                match outcome {
                    Ok(result) => return result,
                    Err(payload) => {
                        mhe_obs::count(mhe_obs::Counter::WorkerPanic, 1);
                        if attempt < self.retry.max_attempts {
                            retries.fetch_add(1, Ordering::Relaxed);
                            mhe_obs::count(mhe_obs::Counter::TaskRetry, 1);
                            if !self.retry.backoff.is_zero() {
                                std::thread::sleep(self.retry.backoff);
                            }
                            continue;
                        }
                        return Err(MheError::worker_failed(
                            format!("{} task {i}", self.label),
                            panic_message(payload.as_ref()),
                        ));
                    }
                }
            }
        };

        let metrics = |completed: usize, retries: u64, wall: Duration| SweepMetrics {
            jobs: n,
            threads: workers,
            wall,
            completed,
            retries,
        };

        if workers <= 1 {
            let busy_start = probe.map(|_| Instant::now());
            for (i, item) in items.iter_mut().enumerate() {
                if let Err(error) = run_one(i, item) {
                    if let (Some(p), Some(bs)) = (probe, busy_start) {
                        mhe_obs::add_busy(p, bs.elapsed());
                    }
                    return Err(SweepError {
                        error,
                        metrics: metrics(i, retries.load(Ordering::Relaxed), start.elapsed()),
                    });
                }
            }
            if let (Some(p), Some(bs)) = (probe, busy_start) {
                mhe_obs::add_busy(p, bs.elapsed());
            }
            return Ok(());
        }

        let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        let cursor = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let first_error: Mutex<Option<(usize, MheError)>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut busy = Duration::ZERO;
                    loop {
                        if cancelled.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let mut guard = slots[i].lock().unwrap();
                        let item_start = probe.map(|_| Instant::now());
                        let outcome = run_one(i, &mut guard);
                        drop(guard);
                        match outcome {
                            Ok(()) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(error) => {
                                cancelled.store(true, Ordering::Relaxed);
                                let mut slot = first_error.lock().unwrap();
                                match &*slot {
                                    Some((j, _)) if *j <= i => {}
                                    _ => *slot = Some((i, error)),
                                }
                                break;
                            }
                        }
                        if let Some(s) = item_start {
                            busy += s.elapsed();
                        }
                    }
                    if let Some(p) = probe {
                        mhe_obs::add_busy(p, busy);
                    }
                });
            }
        });
        if let Some((_, error)) = first_error.into_inner().unwrap() {
            return Err(SweepError {
                error,
                metrics: metrics(
                    completed.load(Ordering::Relaxed),
                    retries.load(Ordering::Relaxed),
                    start.elapsed(),
                ),
            });
        }
        Ok(())
    }
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
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let err = ParallelSweep::with_threads(threads)
                .try_map(&items, |&x| {
                    if x == 7 || x == 40 {
                        Err(MheError::InvalidConfig { field: "x", requirement: "!= 7" })
                    } else {
                        Ok(x)
                    }
                })
                .unwrap_err();
            assert_eq!(
                err.error,
                MheError::InvalidConfig { field: "x", requirement: "!= 7" },
                "{threads} threads"
            );
            assert!(err.metrics.completed < items.len(), "queue was cancelled");
            assert_eq!(err.metrics.jobs, items.len());
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
        // original payload.
        let items: Vec<u64> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            ParallelSweep::with_threads(4).map(items, |x| {
                if x == 9 {
                    panic!("original payload");
                }
                x
            })
        });
        let payload = result.unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "original payload");
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
            .with_cancel(token)
            .try_map(&items, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(x)
            })
            .unwrap_err();
        assert_eq!(err.error, MheError::Cancelled);
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no task may start after cancellation");
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
