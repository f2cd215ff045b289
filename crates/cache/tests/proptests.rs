//! Property tests: the single-pass simulator is exactly equivalent to
//! direct simulation under every policy, over the whole address range and on
//! full and sparse grids at any stack depth, and LRU inclusion properties
//! hold.

use mhe_cache::{simulate, CacheConfig, Policy, SinglePassSim};
use mhe_trace::{Access, StreamKind};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Traces mixing streams, hot sets, and random addresses.
fn trace_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            0u64..256,                               // hot region
            0u64..65_536,                            // wider region
            (0u64..4096).prop_map(|x| x * 7 % 4096), // strided
        ],
        50..2000,
    )
}

/// Traces built to stress the engines' edge cases: hot, wide and strided
/// addresses in long same-block runs (set-refinement stops) and ping-pong
/// between two blocks, plus addresses at and near `u64::MAX` (block ids
/// no empty-way marker may collide with).
fn edge_case_trace_strategy() -> impl Strategy<Value = Vec<u64>> {
    let addr = || {
        prop_oneof![
            0u64..256,
            0u64..256,
            0u64..65_536,
            (0u64..4096).prop_map(|x| x * 7 % 4096),
            Just(u64::MAX),
            (1u64..16).prop_map(|d| u64::MAX - d),
            0u64..u64::MAX,
        ]
    };
    let segment = prop_oneof![
        addr().prop_map(|a| vec![a]),
        (addr(), 2usize..32).prop_map(|(a, n)| vec![a; n]),
        (addr(), addr(), 2usize..16).prop_map(|(a, b, n)| [a, b].repeat(n)),
    ];
    prop::collection::vec(segment, 10..120).prop_map(|segments| segments.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_pass_equals_direct_everywhere(
        trace in edge_case_trace_strategy(),
        line_pow in 0u32..4,
        max_assoc in 1u32..9,
    ) {
        let line = 1u32 << line_pow;
        let set_counts = [1u32, 4, 16, 64];
        for policy in Policy::all() {
            let mut sp = SinglePassSim::new_with_policy(policy, line, &set_counts, max_assoc);
            sp.run(trace.iter().copied());
            prop_assert_eq!(sp.accesses(), trace.len() as u64);
            for &sets in &set_counts {
                for assoc in 1..=max_assoc {
                    let cfg = CacheConfig::new(sets, assoc, line).with_policy(policy);
                    let direct = simulate(cfg, trace.iter().copied());
                    prop_assert_eq!(
                        sp.misses(sets, assoc),
                        direct.misses,
                        "{} S={} A={} L={}", policy, sets, assoc, line
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_grids_cover_exactly_the_asked_points(
        trace in edge_case_trace_strategy(),
        line_pow in 0u32..4,
        // (index into the set counts, assoc) pairs: a random non-empty
        // subset of the 4 × 8 grid, so some set counts are asked at one
        // associativity only and others not at all.
        picks in prop::collection::vec((0usize..4, 1u32..9), 1..12),
    ) {
        let line = 1u32 << line_pow;
        let set_counts = [1u32, 4, 16, 64];
        let asked: BTreeSet<(u32, u32)> =
            picks.iter().map(|&(si, assoc)| (set_counts[si], assoc)).collect();
        let unasked = set_counts
            .iter()
            .flat_map(|&s| (1..=8).map(move |a| (s, a)))
            .find(|p| !asked.contains(p))
            .expect("at most 11 of 32 points are asked");
        for policy in Policy::all() {
            let configs: Vec<CacheConfig> = asked
                .iter()
                .map(|&(sets, assoc)| CacheConfig::new(sets, assoc, line).with_policy(policy))
                .collect();
            let mut sp = SinglePassSim::for_configs(&configs);
            sp.run(trace.iter().copied());
            for cfg in &configs {
                let direct = simulate(*cfg, trace.iter().copied());
                prop_assert_eq!(
                    sp.misses(cfg.sets, cfg.assoc),
                    direct.misses,
                    "{} S={} A={} L={}", policy, cfg.sets, cfg.assoc, line
                );
            }
            let listed: BTreeSet<(u32, u32)> =
                sp.all_results().iter().map(|(c, _)| (c.sets, c.assoc)).collect();
            prop_assert_eq!(sp.all_results().len(), asked.len());
            prop_assert_eq!(&listed, &asked);
            let err = catch_unwind(AssertUnwindSafe(|| sp.misses(unasked.0, unasked.1)))
                .expect_err("an unasked point must not return a miss count");
            let message = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            prop_assert!(message.contains("not covered"), "{}: {:?}", policy, message);
        }
    }

    #[test]
    fn chunked_run_stream_equals_one_run(
        trace in edge_case_trace_strategy(),
        line_pow in 0u32..4,
        chunk in 1usize..64,
    ) {
        let line = 1u32 << line_pow;
        let set_counts = [1u32, 4, 16, 64];
        let accesses: Vec<Access> = trace
            .iter()
            .enumerate()
            .map(|(i, &a)| if i % 2 == 0 { Access::inst(a) } else { Access::load(a) })
            .collect();
        for policy in Policy::all() {
            let mut whole = SinglePassSim::new_with_policy(policy, line, &set_counts, 8);
            whole.run(trace.iter().copied());
            let mut chunked = SinglePassSim::new_with_policy(policy, line, &set_counts, 8);
            for part in accesses.chunks(chunk) {
                chunked.run_stream(StreamKind::Unified, part.iter().copied());
            }
            prop_assert_eq!(chunked.accesses(), whole.accesses());
            for &sets in &set_counts {
                for assoc in 1..=8 {
                    prop_assert_eq!(
                        chunked.misses(sets, assoc),
                        whole.misses(sets, assoc),
                        "{} S={} A={} L={} chunk={}", policy, sets, assoc, line, chunk
                    );
                }
            }
        }
    }

    #[test]
    fn stacks_rounded_up_or_deeper_than_eight_ways_equal_direct(
        trace in edge_case_trace_strategy(),
        line_pow in 0u32..4,
        // The largest asked associativity: a non-power-of-two the LRU
        // stacks round up (3 to 4, 5-7 to 8), 8 itself, or 9-32, the
        // stacks deeper than the fixed-depth kernels.
        top in prop_oneof![(0usize..5).prop_map(|i| [3u32, 5, 6, 7, 8][i]), 9u32..33],
        // More (set count index, assoc) points, each assoc folded into
        // 1..=top.
        picks in prop::collection::vec((0usize..4, 1u32..33), 0..8),
    ) {
        let line = 1u32 << line_pow;
        let set_counts = [1u32, 4, 16, 64];
        // The smallest set count asks for the deepest stack and the
        // largest for a direct-mapped cache, so one table's stacks are far
        // deeper than any of its asked associativities.
        let mut asked: BTreeSet<(u32, u32)> = BTreeSet::from([(1, top), (64, 1)]);
        asked.extend(picks.iter().map(|&(si, a)| (set_counts[si], 1 + (a - 1) % top)));
        for policy in Policy::all() {
            let configs: Vec<CacheConfig> = asked
                .iter()
                .map(|&(sets, assoc)| CacheConfig::new(sets, assoc, line).with_policy(policy))
                .collect();
            let mut sp = SinglePassSim::for_configs(&configs);
            sp.run(trace.iter().copied());
            prop_assert_eq!(sp.max_assoc(), top);
            for cfg in &configs {
                let direct = simulate(*cfg, trace.iter().copied());
                prop_assert_eq!(
                    sp.misses(cfg.sets, cfg.assoc),
                    direct.misses,
                    "{} S={} A={} L={} top={}", policy, cfg.sets, cfg.assoc, line, top
                );
            }
        }
    }

    #[test]
    fn lru_inclusion_in_associativity(
        trace in trace_strategy(),
        sets_pow in 2u32..8,
    ) {
        // For fixed sets and line, misses never increase with associativity.
        let sets = 1u32 << sets_pow;
        let mut prev = u64::MAX;
        for assoc in [1u32, 2, 4, 8] {
            let m = simulate(CacheConfig::new(sets, assoc, 4), trace.iter().copied()).misses;
            prop_assert!(m <= prev, "assoc {}: {} > {}", assoc, m, prev);
            prev = m;
        }
    }

    #[test]
    fn lru_inclusion_in_sets(
        trace in trace_strategy(),
        assoc in 1u32..5,
        line_pow in 0u32..3,
    ) {
        // Bit-selection indexing with power-of-two set counts: the blocks
        // that map to a set of the doubled cache are a subset of those that
        // map to its image set in the half-size cache, so with LRU the
        // doubled cache hits whenever the smaller one does. Misses are
        // monotone non-increasing in set count at fixed assoc and line.
        let line = 1u32 << line_pow;
        let mut prev = u64::MAX;
        for sets_pow in 2u32..=7 {
            let m = simulate(
                CacheConfig::new(1 << sets_pow, assoc, line),
                trace.iter().copied(),
            ).misses;
            prop_assert!(m <= prev, "sets {}: {} > {}", 1 << sets_pow, m, prev);
            prev = m;
        }
    }

    #[test]
    fn single_pass_respects_inclusion_in_both_axes(
        trace in trace_strategy(),
        line_pow in 0u32..3,
    ) {
        // The same two monotonicities — in associativity at fixed sets and
        // in sets at fixed associativity — read out of one single-pass
        // simulation, each point cross-checked against the direct Cache.
        // (Growing either axis grows total cache size at fixed line, so
        // together these give "misses never increase with cache size".)
        let line = 1u32 << line_pow;
        let set_counts = [8u32, 16, 32, 64];
        let max_assoc = 4;
        let mut sp = SinglePassSim::new(line, &set_counts, max_assoc);
        sp.run(trace.iter().copied());
        for &sets in &set_counts {
            let mut prev = u64::MAX;
            for assoc in 1..=max_assoc {
                let m = sp.misses(sets, assoc);
                let direct =
                    simulate(CacheConfig::new(sets, assoc, line), trace.iter().copied());
                prop_assert_eq!(m, direct.misses, "S={} A={} L={}", sets, assoc, line);
                prop_assert!(m <= prev, "assoc {} at S={}: {} > {}", assoc, sets, m, prev);
                prev = m;
            }
        }
        for assoc in 1..=max_assoc {
            let mut prev = u64::MAX;
            for &sets in &set_counts {
                let m = sp.misses(sets, assoc);
                prop_assert!(m <= prev, "sets {} at A={}: {} > {}", sets, assoc, m, prev);
                prev = m;
            }
        }
    }

    #[test]
    fn misses_bounded_by_accesses(
        trace in trace_strategy(),
        sets_pow in 0u32..8,
        assoc in 1u32..8,
        line_pow in 0u32..5,
    ) {
        let cfg = CacheConfig::new(1 << sets_pow, assoc, 1 << line_pow);
        let s = simulate(cfg, trace.iter().copied());
        prop_assert_eq!(s.accesses, trace.len() as u64);
        prop_assert!(s.misses <= s.accesses);
        // Compulsory floor: the first touch of every distinct line misses in
        // any cache, so misses >= distinct lines.
        let mut lines: Vec<u64> = trace.iter().map(|a| a / (1 << line_pow) as u64).collect();
        lines.sort_unstable();
        lines.dedup();
        prop_assert!(s.misses as usize >= lines.len());
        let _ = cfg;
    }

    #[test]
    fn doubling_line_size_never_increases_compulsory_floor(
        trace in trace_strategy(),
    ) {
        // The number of *distinct lines* halves or stays; with an infinite
        // cache (huge assoc), misses = distinct lines, so misses with larger
        // lines are <= misses with smaller lines.
        let big = CacheConfig::new(1, 1 << 16, 8);
        let small = CacheConfig::new(1, 1 << 16, 4);
        let m_big = simulate(big, trace.iter().copied()).misses;
        let m_small = simulate(small, trace.iter().copied()).misses;
        prop_assert!(m_big <= m_small);
    }
}
