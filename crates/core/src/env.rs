//! The workspace's environment knobs, each parsed in exactly one place.
//!
//! These variables steer code below the CLI; this module is their single
//! documented home, with typed accessors that parse each variable once
//! per process and cache the result. The daemon's and fleet's variables
//! stand in for CLI flags, so they live next to those flags in the knob
//! table of `mhe_spacewalk::cli`.
//!
//! | Variable         | Accessor            | Meaning |
//! |------------------|---------------------|---------|
//! | `MHE_THREADS`    | [`threads`]         | Worker-thread count for every parallel fan-out (`>= 1`; unset/invalid → available parallelism). Results are bit-identical for every value. |
//! | `MHE_EVENTS`     | [`events_or`]       | Dynamic window (basic-block events) for bench/demo binaries; each binary supplies its own default. |
//! | `MHE_OBS`        | [`obs`]             | Observability sink: `json`, `text`/`1`/`on`/`true`, anything else off. Parsed by `mhe-obs`, surfaced here for discoverability. |
//! | `MHE_RETRIES`    | [`retry_policy`]    | Bounded retries for panicked sweep tasks: `N` or `N:backoff_ms` (e.g. `3:10`). Unset → no retries. |
//! | `MHE_FAULT_PLAN` | `fault::armed` (private) | Deterministic fault-injection schedule for tests, in [`crate::fault::FaultPlan::parse`] syntax, armed process-wide on first use; [`crate::fault::arm`] replaces it (see [`crate::fault`]). Unset → no injection. |
//!
//! None of these variables affects any measured or estimated miss count —
//! they steer *how* the work runs (parallelism, workload size, reporting,
//! fault recovery), never what it computes.

use std::sync::OnceLock;
use std::time::Duration;

/// How a parallel sweep retries a task whose worker panicked.
///
/// Retries apply only to *panics* (which are how injected/transient faults
/// surface), never to typed `MheError`s — those are deterministic domain
/// failures that would fail identically on every attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per task, including the first (`>= 1`).
    pub max_attempts: u32,
    /// Sleep between attempts.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retries: one attempt, no backoff. The default everywhere.
    pub const NONE: RetryPolicy = RetryPolicy { max_attempts: 1, backoff: Duration::ZERO };

    /// Parses the `MHE_RETRIES` syntax: `N` (extra attempts with no
    /// backoff) or `N:backoff_ms`. Returns `None` for empty/invalid text.
    fn parse(text: &str) -> Option<RetryPolicy> {
        let (n, backoff_ms) = match text.split_once(':') {
            Some((n, ms)) => (n, ms.trim().parse::<u64>().ok()?),
            None => (text, 0),
        };
        let retries = n.trim().parse::<u32>().ok()?;
        Some(RetryPolicy {
            max_attempts: retries.saturating_add(1),
            backoff: Duration::from_millis(backoff_ms),
        })
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::NONE
    }
}

/// The retry policy selected by `MHE_RETRIES`, or [`RetryPolicy::NONE`]
/// when unset or invalid. Parsed once per process.
///
/// `MHE_RETRIES=N` grants each panicked task `N` retries (so `N + 1`
/// total attempts); `MHE_RETRIES=N:B` additionally sleeps `B`
/// milliseconds between attempts.
pub fn retry_policy() -> RetryPolicy {
    static RETRIES: OnceLock<RetryPolicy> = OnceLock::new();
    *RETRIES.get_or_init(|| {
        std::env::var("MHE_RETRIES")
            .ok()
            .and_then(|v| RetryPolicy::parse(&v))
            .unwrap_or(RetryPolicy::NONE)
    })
}

/// Worker-thread count from `MHE_THREADS`, or `None` when unset or not a
/// positive integer. Parsed once per process.
///
/// Most callers want [`crate::parallel::worker_threads`], which falls
/// back to the machine's available parallelism.
pub fn threads() -> Option<usize> {
    static THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("MHE_THREADS").ok().and_then(|v| v.parse::<usize>().ok()).filter(|&n| n >= 1)
    })
}

/// Dynamic-window size (basic-block events) from `MHE_EVENTS`, or
/// `default` when unset or not a positive integer. Parsed once per
/// process; the first caller's view of the variable wins.
pub fn events_or(default: usize) -> usize {
    static EVENTS: OnceLock<Option<usize>> = OnceLock::new();
    EVENTS
        .get_or_init(|| {
            std::env::var("MHE_EVENTS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
        })
        .unwrap_or(default)
}

/// The observability level selected by `MHE_OBS` (or a prior
/// [`mhe_obs::set_level`] override). Delegates to [`mhe_obs::level`],
/// which owns the parse.
pub fn obs() -> mhe_obs::ObsLevel {
    mhe_obs::level()
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests only exercise the cached accessors against whatever the
    // harness environment holds; setting the variables here would race
    // sibling tests, and the parse rules themselves are covered by
    // `ObsLevel::parse` and the integration binaries.

    #[test]
    fn threads_is_stable_across_calls() {
        assert_eq!(threads(), threads());
        if let Some(n) = threads() {
            assert!(n >= 1);
        }
    }

    #[test]
    fn events_or_falls_back_to_default() {
        let a = events_or(12_345);
        assert!(a >= 1);
        // Cached: a second call with any default yields the same source.
        assert_eq!(events_or(12_345), a);
    }

    #[test]
    fn obs_matches_the_obs_crate() {
        assert_eq!(obs(), mhe_obs::level());
    }

    #[test]
    fn retry_policy_parse_rules() {
        assert_eq!(
            RetryPolicy::parse("3"),
            Some(RetryPolicy { max_attempts: 4, backoff: Duration::ZERO })
        );
        assert_eq!(
            RetryPolicy::parse("2:15"),
            Some(RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(15) })
        );
        assert_eq!(
            RetryPolicy::parse("0"),
            Some(RetryPolicy { max_attempts: 1, backoff: Duration::ZERO })
        );
        assert_eq!(RetryPolicy::parse(""), None);
        assert_eq!(RetryPolicy::parse("nope"), None);
        assert_eq!(RetryPolicy::parse("3:x"), None);
        assert_eq!(RetryPolicy::default(), RetryPolicy::NONE);
    }

    #[test]
    fn retry_policy_is_stable_across_calls() {
        assert_eq!(retry_policy(), retry_policy());
        assert!(retry_policy().max_attempts >= 1);
    }
}
