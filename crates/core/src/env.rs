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
//! | `MHE_THREADS`    | [`threads`]         | Worker-thread count for every parallel fan-out (`>= 1`; unset/invalid → available parallelism; [`check`] rejects invalid). Results are bit-identical for every value. |
//! | `MHE_EVENTS`     | [`events_or`]       | Dynamic window (basic-block events) for bench/demo binaries (`>= 1`); each binary supplies its own default for unset/invalid; [`check`] rejects invalid. |
//! | `MHE_OBS`        | [`obs`]             | Observability sink: `json`, `text`/`1`/`on`/`true`, anything else off (case-insensitive). Parsed by `mhe-obs`, surfaced here for discoverability; [`check`] rejects anything but those and `off`/`0`/`false`. |
//! | `MHE_RETRIES`    | [`retry_policy`]    | Bounded retries for panicked sweep tasks: `N` or `N:backoff_ms` (e.g. `3:10`). Unset/invalid → no retries; [`check`] rejects invalid. |
//! | `MHE_FAULT_PLAN` | `fault::armed` (private) | Deterministic fault-injection schedule for tests, in [`crate::fault::FaultPlan::parse`] syntax, armed process-wide on first use; [`crate::fault::arm`] replaces it (see [`crate::fault`]). Unset/invalid → no injection; [`check`] rejects invalid. |
//!
//! None of these variables affects any measured or estimated miss count —
//! they steer *how* the work runs (parallelism, workload size, reporting,
//! fault recovery), never what it computes.
//!
//! The accessors cannot report an error, so an invalid value falls back
//! as described above. A binary that can should call [`check`] at
//! start-up: it applies the accessors' own parse rules to every variable
//! of the table and names the first one that is set but invalid.

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
    pub fn parse(text: &str) -> Option<RetryPolicy> {
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
    *THREADS.get_or_init(|| std::env::var("MHE_THREADS").ok().and_then(|v| parse_threads(&v)))
}

/// Parses the `MHE_THREADS` syntax: a positive integer. Returns `None`
/// for empty/invalid text.
pub fn parse_threads(text: &str) -> Option<usize> {
    positive(text)
}

/// A positive integer (the `MHE_THREADS` and `MHE_EVENTS` syntax), or
/// `None`.
fn positive(text: &str) -> Option<usize> {
    text.parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Checks `MHE_THREADS`, `MHE_EVENTS`, `MHE_RETRIES`, `MHE_OBS` and
/// `MHE_FAULT_PLAN`, read through `lookup` (the process environment in
/// the binaries), against the parse rules of [`threads`], [`events_or`],
/// [`retry_policy`], [`mhe_obs::ObsLevel::parse_strict`] and
/// [`crate::fault::FaultPlan::parse`]. An empty variable counts as unset.
///
/// # Errors
///
/// A one-line message naming the first variable whose value the
/// accessor would silently ignore.
pub fn check(lookup: impl Fn(&str) -> Option<String>) -> Result<(), String> {
    let set = |var: &str| lookup(var).filter(|text| !text.is_empty());
    if let Some(text) = set("MHE_THREADS").filter(|text| parse_threads(text).is_none()) {
        return Err(format!("MHE_THREADS {text:?}: expected a whole number of at least 1"));
    }
    if let Some(text) = set("MHE_EVENTS").filter(|text| positive(text).is_none()) {
        return Err(format!("MHE_EVENTS {text:?}: expected a whole number of at least 1"));
    }
    if let Some(text) = set("MHE_RETRIES").filter(|text| RetryPolicy::parse(text).is_none()) {
        return Err(format!("MHE_RETRIES {text:?}: expected N or N:backoff_ms"));
    }
    if let Some(text) =
        set("MHE_OBS").filter(|text| mhe_obs::ObsLevel::parse_strict(text).is_none())
    {
        return Err(format!("MHE_OBS {text:?}: expected json, text, 1, on, true, off, 0 or false"));
    }
    if let Some(text) =
        set("MHE_FAULT_PLAN").filter(|text| crate::fault::FaultPlan::parse(text).is_none())
    {
        return Err(format!(
            "MHE_FAULT_PLAN {text:?}: expected a comma-separated list such as panic@3,drop@2"
        ));
    }
    Ok(())
}

/// Dynamic-window size (basic-block events) from `MHE_EVENTS`, or
/// `default` when unset or not a positive integer. Parsed once per
/// process; the first caller's view of the variable wins.
pub fn events_or(default: usize) -> usize {
    static EVENTS: OnceLock<Option<usize>> = OnceLock::new();
    EVENTS
        .get_or_init(|| std::env::var("MHE_EVENTS").ok().and_then(|v| positive(&v)))
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
    fn check_names_the_invalid_variable() {
        let check_with = |env: &[(&str, &str)]| {
            check(|var| env.iter().find(|(k, _)| *k == var).map(|(_, v)| v.to_string()))
        };
        assert_eq!(check_with(&[]), Ok(()));
        assert_eq!(
            check_with(&[("MHE_THREADS", "4"), ("MHE_EVENTS", "5000"), ("MHE_RETRIES", "2:10")]),
            Ok(())
        );
        for obs in ["json", "TEXT", "1", "on", "True", "off", "0", "false", " json "] {
            assert_eq!(check_with(&[("MHE_OBS", obs)]), Ok(()), "MHE_OBS={obs:?}");
        }
        assert_eq!(check_with(&[("MHE_FAULT_PLAN", "panic@0,delay@2:10")]), Ok(()));
        assert_eq!(
            check_with(&[
                ("MHE_THREADS", ""),
                ("MHE_EVENTS", ""),
                ("MHE_RETRIES", ""),
                ("MHE_OBS", ""),
                ("MHE_FAULT_PLAN", ""),
            ]),
            Ok(()),
            "empty = unset"
        );
        for (var, text) in [
            ("MHE_THREADS", "0"),
            ("MHE_THREADS", "four"),
            ("MHE_THREADS", "-1"),
            ("MHE_EVENTS", "0"),
            ("MHE_EVENTS", "20k"),
            ("MHE_EVENTS", "-5"),
            ("MHE_RETRIES", "x"),
            ("MHE_RETRIES", "3:y"),
            ("MHE_OBS", "jsn"),
            ("MHE_OBS", "yes"),
            ("MHE_FAULT_PLAN", "panic"),
            ("MHE_FAULT_PLAN", "panic@3,explode@1"),
            ("MHE_FAULT_PLAN", ","),
        ] {
            let err = check_with(&[(var, text)]).expect_err(text);
            assert!(err.starts_with(var) && err.contains(text) && !err.contains('\n'), "{err}");
        }
        assert_eq!(parse_threads("3"), Some(3));
        assert_eq!(parse_threads("0"), None);
    }

    #[test]
    fn retry_policy_is_stable_across_calls() {
        assert_eq!(retry_policy(), retry_policy());
        assert!(retry_policy().max_attempts >= 1);
    }
}
