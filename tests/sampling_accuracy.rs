//! Differential accuracy harness for interval-sampled evaluation.
//!
//! Every estimate the sampled path produces is held honest against the
//! full-simulation oracle, at one **pinned** sampling configuration:
//! all ten benchmarks × {LRU, FIFO} × {1, 8} worker threads, every
//! design point of a three-cache grid. Two independent guarantees:
//!
//! 1. **Accuracy**: the sampled miss count of every design point stays
//!    within a pinned per-benchmark relative-error budget of the exact
//!    count — every budget at most [`GLOBAL_BUDGET`] (2%), most far
//!    tighter. The budgets are pinned worst cases, not aspirations: a
//!    regression that nudges any benchmark past its own historical
//!    worst fails the suite even if it stays under 2%.
//! 2. **Determinism**: the sampled grids are bit-identical across
//!    thread counts and across repeated runs — seeded clustering plus
//!    fixed-order accumulation leave nothing to scheduling.
//!
//! The pinned configuration trades speed for tightness (short traces
//! leave few intervals to cluster, and the sparse-miss points of this
//! grid make relative error a harsh metric). What sampling saves is
//! gated here as work, not time: a sampled build simulates a bounded
//! number of addresses, at least [`MIN_WORK_RATIO`]× fewer than the
//! exact build. The time that saves end to end is measured by
//! `mhe-benchmark`'s `sampled-replay` workload (`latency_iqm_ms`, and
//! `cache.exact_grid_sim_s` ÷ `cache.grid_sim_s` in a traced run).

use mhe::cache::{CacheConfig, Policy};
use mhe::core::evaluator::ReferenceEvaluation;
use mhe::prelude::*;
use mhe::workload::Benchmark;

mod common;

/// Trace length (scheduler events) of every harness evaluation.
const EVENTS: usize = 60_000;

/// No benchmark's pinned budget may exceed this: the ≤2 % acceptance
/// gate, enforced structurally in [`budgets_stay_under_the_global_gate`].
const GLOBAL_BUDGET: f64 = 0.02;

/// A sampled build must simulate at least this many times fewer family
/// addresses than the exact build of the same trace.
const MIN_WORK_RATIO: u64 = 10;

/// The pinned sampling configuration of the whole harness. Changing any
/// field re-tunes the accuracy story and must re-pin every budget.
fn pinned() -> SamplingConfig {
    SamplingConfig { interval_accesses: 8192, clusters: 88, warmup: 16384, ..Default::default() }
}

/// Pinned per-benchmark worst-case relative-error budgets (fraction of
/// the exact miss count, worst design point, worst policy). Measured at
/// the pinned configuration and rounded up with modest slack; the point
/// of the pin is that silent estimator regressions fail loudly.
fn budget(b: Benchmark) -> f64 {
    match b {
        Benchmark::Rasta => 0.010,
        Benchmark::Unepic => 0.018,
        _ => 0.005,
    }
}

/// The evaluation grid: deliberately includes sparse-miss points (1 KB
/// direct-mapped split caches, a 16 KB two-way unified cache) where
/// relative error is hardest to hold.
fn grids(policy: Policy) -> (Vec<CacheConfig>, Vec<CacheConfig>, Vec<CacheConfig>) {
    let p = |c: CacheConfig| c.with_policy(policy);
    (
        vec![p(CacheConfig::from_bytes(1024, 1, 32))],
        vec![p(CacheConfig::from_bytes(1024, 1, 32)), p(CacheConfig::from_bytes(4096, 2, 32))],
        vec![p(CacheConfig::from_bytes(16 * 1024, 2, 64))],
    )
}

/// Builds one evaluation of `b` under `policy`, sampled or exact, over
/// this harness's pinned grids.
fn build(
    b: Benchmark,
    policy: Policy,
    threads: usize,
    sampling: Option<SamplingConfig>,
) -> ReferenceEvaluation {
    common::build_eval(b, policy, threads, EVENTS, sampling, grids(policy))
}

/// Asserts every design point of `sampled` against `exact` under the
/// benchmark's pinned budget; returns the worst observed error.
fn assert_within_budget(
    b: Benchmark,
    policy: Policy,
    sampled: &ReferenceEvaluation,
    exact: &ReferenceEvaluation,
) -> f64 {
    let cap = budget(b);
    let mut worst = 0.0f64;
    for (name, got, want) in [
        ("icache", sampled.imeasured(), exact.imeasured()),
        ("dcache", sampled.dmeasured(), exact.dmeasured()),
        ("ucache", sampled.umeasured(), exact.umeasured()),
    ] {
        assert_eq!(got.len(), want.len(), "{b:?}/{policy}: {name} grid shape differs");
        for (config, &exact_misses) in want {
            let approx = got[config];
            let rel = (approx as f64 - exact_misses as f64).abs() / (exact_misses.max(1)) as f64;
            assert!(
                rel <= cap,
                "{b:?}/{policy}: {name} {config:?} sampled {approx} vs exact {exact_misses} \
                 ({rel:.4} > pinned {cap})"
            );
            worst = worst.max(rel);
        }
    }
    worst
}

/// Structural guard on the pins themselves: every per-benchmark budget
/// respects the ≤2 % acceptance gate.
#[test]
fn budgets_stay_under_the_global_gate() {
    for b in Benchmark::ALL {
        assert!(
            budget(b) <= GLOBAL_BUDGET,
            "{b:?}: pinned budget {} exceeds the global {GLOBAL_BUDGET} gate",
            budget(b)
        );
    }
}

/// The harness proper: accuracy against the oracle on every benchmark
/// and policy, bit-identical grids across 1/8 threads and repeat runs.
///
/// Debug builds cover a three-benchmark smoke subset (including both
/// worst-case pins); `scripts/ci.sh` runs the full ten-benchmark matrix
/// through this same test in release under its own wall-clock budget.
#[test]
fn sampled_grids_match_full_simulation_within_pinned_budgets() {
    const SMOKE: [Benchmark; 3] = [Benchmark::Epic, Benchmark::Rasta, Benchmark::Unepic];
    let benchmarks: &[Benchmark] = if cfg!(debug_assertions) { &SMOKE } else { &Benchmark::ALL };
    for &b in benchmarks {
        for policy in [Policy::Lru, Policy::Fifo] {
            let exact = build(b, policy, 8, None);
            let sampled = build(b, policy, 1, Some(pinned()));
            let worst = assert_within_budget(b, policy, &sampled, &exact);

            // Determinism: same grids from 8 workers and from a repeat
            // single-thread run, bit for bit.
            let threads8 = build(b, policy, 8, Some(pinned()));
            let repeat = build(b, policy, 1, Some(pinned()));
            for other in [&threads8, &repeat] {
                assert_eq!(sampled.imeasured(), other.imeasured(), "{b:?}/{policy}: icache");
                assert_eq!(sampled.dmeasured(), other.dmeasured(), "{b:?}/{policy}: dcache");
                assert_eq!(sampled.umeasured(), other.umeasured(), "{b:?}/{policy}: ucache");
            }

            let sm = sampled.metrics().sampling.expect("sampled build records metrics");
            assert!(sm.intervals > 0 && sm.clusters > 0);
            eprintln!(
                "{b:?}/{policy}: worst {worst:.4} (pinned {}), {} intervals -> {} clusters",
                budget(b),
                sm.intervals,
                sm.clusters
            );
        }
    }
}

/// Sampling's saving as a work count: every simulated family (stream,
/// line size, policy) replays at most `clusters × (interval + warm-up)`
/// addresses, and the whole sampled build at least [`MIN_WORK_RATIO`]×
/// fewer than the exact one.
#[test]
fn sampled_build_simulates_a_bounded_fraction_of_the_exact_addresses() {
    let small =
        SamplingConfig { interval_accesses: 1024, clusters: 8, warmup: 1024, ..Default::default() };
    let b = Benchmark::Gcc;
    let exact = build(b, Policy::Lru, 1, None).metrics().simulated_addresses();
    let sampled = build(b, Policy::Lru, 1, Some(small));
    let families = sampled.metrics().passes.len() as u64;
    let cap = families * (small.clusters * (small.interval_accesses + small.warmup)) as u64;
    let simulated = sampled.metrics().simulated_addresses();
    eprintln!("{b:?}: {simulated} sampled vs {exact} exact family addresses ({families} families)");
    assert!(simulated <= cap, "{simulated} simulated addresses exceed the {cap} window bound");
    assert!(
        simulated * MIN_WORK_RATIO <= exact,
        "sampling simulated {simulated} of {exact} addresses: less than a {MIN_WORK_RATIO}x saving"
    );
}
