//! Property tests for the interval-sampling machinery: the structural
//! invariants that must hold for *arbitrary* traces, not just the
//! benchmarks — the planner's intervals partition the trace, the
//! permutation-stable slice of a signature really is permutation-stable,
//! and the degenerate configuration (one cluster, one interval spanning
//! the trace) is bit-for-bit exact against full simulation for every
//! stream and policy.

use mhe_cache::{Policy, SinglePassSim};
use mhe_sampling::{plan_trace, signature_of, SampledSim, SamplingConfig};
use mhe_trace::{Access, StreamKind};
use proptest::prelude::*;

/// Strategy: one arbitrary access (any kind, bounded address space).
fn access() -> impl Strategy<Value = Access> {
    (0u64..100_000, 0u8..3).prop_map(|(addr, kind)| match kind {
        0 => Access::inst(addr),
        1 => Access::load(addr),
        _ => Access::store(addr),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planner's interval table is a partition of the trace at any
    /// chunking: starts are contiguous from 0, every interval but the
    /// last is full, and the lengths sum to the trace length.
    #[test]
    fn splitting_is_a_partition(
        trace in proptest::collection::vec(access(), 0..400),
        interval in 1usize..48,
        chunk in 1usize..64,
    ) {
        let cfg = SamplingConfig { interval_accesses: interval, ..SamplingConfig::default() };
        let mut planner = mhe_sampling::SamplePlanner::new(cfg);
        for c in trace.chunks(chunk) {
            planner.feed(c);
        }
        let plan = planner.finish();
        let intervals = plan.intervals();
        let mut next = 0u64;
        for (i, iv) in intervals.iter().enumerate() {
            prop_assert_eq!(iv.start, next, "interval {} must start where {} ended", i, i);
            if i + 1 < intervals.len() {
                prop_assert_eq!(iv.len, interval as u64, "only the final interval may be partial");
            } else {
                prop_assert!(iv.len >= 1 && iv.len <= interval as u64);
            }
            next += iv.len;
        }
        prop_assert_eq!(next, trace.len() as u64, "interval lengths must sum to the trace");
        prop_assert_eq!(plan.total_accesses(), trace.len() as u64);
    }

    /// The access-kind mix of a signature is permutation-stable: any
    /// reordering of an interval's accesses leaves it unchanged. (The
    /// probe miss profile is deliberately order-sensitive — it encodes
    /// temporal locality — so only the kind-mix slice is asserted.)
    #[test]
    fn kind_mix_is_permutation_stable(
        interval in proptest::collection::vec(access(), 1..200),
        seed in 0u64..u64::MAX,
    ) {
        // Deterministic Fisher-Yates driven by the drawn seed.
        let mut shuffled = interval.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let a = signature_of(&interval).kind_mix();
        let b = signature_of(&shuffled).kind_mix();
        prop_assert_eq!(a, b, "kind mix must not depend on access order");
    }

    /// `clusters = 1, interval = trace_len` degenerates to exact full
    /// simulation, bit for bit, on every stream and policy.
    #[test]
    fn degenerate_config_is_exact_bit_for_bit(
        trace in proptest::collection::vec(access(), 1..500),
        sets_pow in 0u32..5,
        assoc in 1u32..4,
        policy_idx in 0usize..2,
    ) {
        let sets = 1u32 << sets_pow;
        let policy = [Policy::Lru, Policy::Fifo][policy_idx];
        let cfg = SamplingConfig {
            interval_accesses: trace.len(),
            clusters: 1,
            warmup: 0,
            ..SamplingConfig::default()
        };
        let (plan, windows) = plan_trace(&trace, cfg);
        for stream in [StreamKind::Instruction, StreamKind::Data, StreamKind::Unified] {
            let sampled =
                SampledSim::measure(policy, 4, &[sets], assoc, stream, &plan, &windows);
            let mut exact = SinglePassSim::new_with_policy(policy, 4, &[sets], assoc);
            exact.run(trace.iter().filter(|a| stream.admits(a.kind)).map(|a| a.addr));
            for a in 1..=assoc {
                prop_assert_eq!(
                    sampled.misses(sets, a),
                    exact.misses(sets, a),
                    "{:?}/{:?} sets={} assoc={}", stream, policy, sets, a
                );
            }
        }
    }

    /// Planning is insensitive to input chunking: feeding the planner
    /// access-by-access or in one slab yields the same plan skeleton.
    #[test]
    fn planning_is_chunking_invariant(
        trace in proptest::collection::vec(access(), 0..300),
        interval in 1usize..32,
        chunk in 1usize..48,
    ) {
        let cfg = SamplingConfig {
            interval_accesses: interval,
            clusters: 4,
            warmup: 8,
            ..SamplingConfig::default()
        };
        let (whole, wins_whole) = plan_trace(&trace, cfg);
        let mut planner = mhe_sampling::SamplePlanner::new(cfg);
        for c in trace.chunks(chunk) {
            planner.feed(c);
        }
        let plan = planner.finish();
        let mut extractor = mhe_sampling::WindowExtractor::new(&plan);
        for c in trace.chunks(chunk) {
            extractor.feed(c);
        }
        let windows = extractor.finish();
        prop_assert_eq!(plan.intervals(), whole.intervals());
        prop_assert_eq!(plan.total_accesses(), whole.total_accesses());
        prop_assert_eq!(windows.len(), wins_whole.len());
        for (a, b) in windows.iter().zip(&wins_whole) {
            prop_assert_eq!(&a.warmup, &b.warmup);
            prop_assert_eq!(&a.body, &b.body);
        }
    }
}
