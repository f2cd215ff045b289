//! Differential tests that keep every replacement policy honest.
//!
//! The single-pass simulator answers "how many misses at every
//! associativity" from one pass over the trace — via flat LRU stacks,
//! bounded FIFO insertion rings (memory independent of the trace's
//! footprint), or (for PLRU and random) an embedded grid of
//! per-configuration direct simulations, all behind a filter that skips
//! repeated references to the last block. Each of those paths is an
//! independent re-derivation of the same quantity the direct oracle
//! [`Cache`] computes by brute force, so any disagreement — on any
//! benchmark, any geometry, any thread count — is a bug, not noise.
//!
//! Three layers of defence:
//!
//! 1. **Exhaustive differential**: every policy × all ten benchmarks,
//!    single-pass grids vs the oracle, bit-identical, fanned out on 1 and
//!    8 threads with identical results.
//! 2. **Random-trace proptests**: arbitrary address streams and geometry,
//!    so the agreement does not depend on benchmark structure.
//! 3. **A pre-refactor LRU golden frontier**: the exact Pareto frontier
//!    (cost and time bits) captured *before* the replacement-policy
//!    generalization landed; the generalized code must reproduce it
//!    bit-for-bit, proving the refactor changed no LRU number.

use mhe::cache::{Cache, CacheConfig, Policy, SinglePassSim};
use mhe::prelude::*;
use proptest::prelude::*;

mod common;
use common::{instruction_trace, SEED};

const EVENTS: usize = 12_000;
const SET_COUNTS: [u32; 3] = [8, 32, 64];
const MAX_ASSOC: u32 = 4;
const LINE_WORDS: u32 = 8;

/// Runs one (trace, policy) differential over the whole geometry grid:
/// the single-pass answer must equal the direct oracle for every (sets,
/// assoc) point. Returns the grid of miss counts for cross-run comparison.
fn differential(trace: &[u64], policy: Policy) -> Vec<(u32, u32, u64)> {
    let mut sim = SinglePassSim::new_with_policy(policy, LINE_WORDS, &SET_COUNTS, MAX_ASSOC);
    sim.run(trace.iter().copied());
    let mut grid = Vec::new();
    for &sets in &SET_COUNTS {
        for assoc in 1..=MAX_ASSOC {
            let single_pass = sim.misses(sets, assoc);
            let oracle = Cache::new(CacheConfig::new(sets, assoc, LINE_WORDS).with_policy(policy))
                .run(trace.iter().copied())
                .misses;
            assert_eq!(
                single_pass, oracle,
                "{policy}: single-pass disagrees with oracle at sets={sets} assoc={assoc}"
            );
            grid.push((sets, assoc, single_pass));
        }
    }
    grid
}

/// One sweep result: which benchmark, which policy, which miss grid.
type SweepGrid = Vec<(Benchmark, Policy, Vec<(u32, u32, u64)>)>;

/// The benchmark pair with the smallest programs — the only ones that
/// run the *embedded direct-sim grid* policies (PLRU, random), whose
/// single-pass path simulates every (sets, assoc) point individually
/// and costs a full grid of direct simulations per trace. LRU and FIFO
/// have true single-pass engines and stay exhaustive over all ten
/// benchmarks; rerunning the direct-grid policies on all ten was pure
/// runtime creep with no differential power the small pair lacks.
const DIRECT_GRID_PAIR: [Benchmark; 2] = [Benchmark::Epic, Benchmark::Unepic];

/// Wall-clock ceiling for the exhaustive differential, far below the
/// 300 s `scripts/ci.sh` budget so the sampling accuracy suite has
/// headroom inside the same gate.
const SWEEP_BUDGET: std::time::Duration = std::time::Duration::from_secs(60);

/// Every policy matches the oracle: LRU/FIFO across all ten benchmarks,
/// the embedded direct-grid policies (PLRU, random) on the smallest
/// pair, and the whole sweep returns identical grids on 1 and 8 workers.
#[test]
fn every_policy_matches_oracle_on_every_benchmark_at_any_thread_count() {
    let start = std::time::Instant::now();
    let traces: Vec<(Benchmark, Vec<u64>)> =
        Benchmark::ALL.iter().map(|&b| (b, instruction_trace(b, EVENTS))).collect();
    let work: Vec<(usize, Policy)> = (0..traces.len())
        .flat_map(|i| Policy::all().into_iter().map(move |p| (i, p)))
        .filter(|&(i, p)| {
            matches!(p, Policy::Lru | Policy::Fifo) || DIRECT_GRID_PAIR.contains(&traces[i].0)
        })
        .collect();
    let run = |threads: usize| -> SweepGrid {
        ParallelSweep::with_threads(threads).map(work.clone(), |(i, policy)| {
            let (b, trace) = &traces[i];
            (*b, policy, differential(trace, policy))
        })
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial, parallel, "miss grids must not depend on the thread count");
    let elapsed = start.elapsed();
    assert!(
        elapsed < SWEEP_BUDGET,
        "differential sweep took {elapsed:?}; must stay under {SWEEP_BUDGET:?} to leave \
         ci.sh headroom"
    );
    // Sanity: the policies genuinely differ somewhere (the differential
    // would pass vacuously if every engine were secretly LRU).
    let lru: Vec<_> = serial.iter().filter(|(_, p, _)| *p == Policy::Lru).collect();
    let diverged = serial.iter().any(|(b, p, grid)| {
        *p != Policy::Lru && lru.iter().any(|(lb, _, lgrid)| lb == b && lgrid != grid)
    });
    assert!(diverged, "no policy ever diverged from LRU — engines are not being exercised");
}

/// The evaluator groups simulation tasks by (line size, policy); a FIFO
/// build must produce the same measured counts at 1 and 8 worker threads.
#[test]
fn evaluator_fifo_builds_are_thread_invariant() {
    for b in [Benchmark::Epic, Benchmark::Unepic] {
        let l1 = CacheConfig::from_bytes(1024, 2, 32);
        let u1 = CacheConfig::from_bytes(16 * 1024, 2, 64);
        let run = |threads: usize| {
            let cfg = EvalConfig::builder()
                .events(20_000)
                .seed(SEED)
                .threads(threads)
                .policy(Policy::Fifo)
                .build()
                .unwrap();
            let eval = ReferenceEvaluation::for_benchmark(
                b,
                &ProcessorKind::P1111.mdes(),
                cfg,
                &[l1],
                &[l1],
                &[u1],
            );
            let fifo = |c: CacheConfig| c.with_policy(Policy::Fifo);
            (
                eval.icache_misses_measured(fifo(l1)).expect("icache measured under fifo"),
                eval.ucache_misses_measured(fifo(u1)).expect("ucache measured under fifo"),
                eval.dcache_misses(fifo(l1)).expect("dcache simulated under fifo"),
            )
        };
        assert_eq!(run(1), run(8), "{b:?}: evaluator results must not depend on threads");
    }
}

/// The explicit-policy configs pass through `for_benchmark` unchanged:
/// `EvalConfig::policy` stamps only configs still carrying the LRU
/// default.
#[test]
fn explicit_policies_survive_the_config_wide_default() {
    let lru = CacheConfig::from_bytes(1024, 2, 32);
    let plru = lru.with_policy(Policy::PlruTree);
    let cfg = EvalConfig::builder().events(10_000).seed(SEED).policy(Policy::Fifo).build().unwrap();
    let eval = ReferenceEvaluation::for_benchmark(
        Benchmark::Unepic,
        &ProcessorKind::P1111.mdes(),
        cfg,
        &[lru, plru],
        &[],
        &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
    );
    // The LRU-default config got the FIFO stamp; the explicit PLRU one
    // kept its policy.
    assert!(eval.icache_misses_measured(lru.with_policy(Policy::Fifo)).is_some());
    assert!(eval.icache_misses_measured(plru).is_some());
    assert!(eval.icache_misses_measured(lru).is_none(), "unstamped LRU was not requested");
}

// --- pre-refactor LRU golden frontier -----------------------------------
//
// Captured by running `walk_icache` (epic, P1111 reference, 50 000
// events, seed 0xC0FF_EE01, threads 2, dilation 1.5) at the commit
// *before* the replacement-policy generalization. Tuples are (sets,
// assoc, line_words, cost bits, time bits). If this test moves, the
// refactor changed an LRU number — that is a bug by definition.

const GOLDEN_LRU_FRONTIER: [(u32, u32, u32, u64, u64); 7] = [
    (32, 1, 8, 0x4021eb851eb851ec, 0x40c104563027ee60),
    (64, 1, 8, 0x4031db22d0e56042, 0x40b51f20b8e53f39),
    (32, 2, 8, 0x4031eb851eb851ec, 0x40b39c43a2cec480),
    (128, 1, 8, 0x4041cac083126e98, 0x40a906b6a97282b0),
    (64, 2, 8, 0x4041db22d0e56042, 0x40a3f4d038be0c9c),
    (256, 1, 8, 0x4051ba5e353f7cee, 0x409563c0ac5be654),
    (128, 2, 8, 0x4051cac083126e98, 0x409430a06179288e),
];

#[test]
fn lru_golden_frontier_reproduces_bit_for_bit() {
    use mhe_spacewalk::walker::{prepare_evaluation, walk_icache};
    let space = SystemSpace {
        processors: vec![ProcessorKind::P1111.mdes()],
        icache: CacheSpace {
            sizes_bytes: vec![1024, 2048, 4096, 8192],
            assocs: vec![1, 2],
            line_bytes: vec![16, 32],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
        dcache: CacheSpace {
            sizes_bytes: vec![1024],
            assocs: vec![1],
            line_bytes: vec![32],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
        ucache: CacheSpace {
            sizes_bytes: vec![16 << 10],
            assocs: vec![2],
            line_bytes: vec![64],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
    };
    let eval = prepare_evaluation(
        Benchmark::Epic.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: 50_000, seed: SEED, threads: 2, ..EvalConfig::default() },
        &space,
    );
    let db = EvaluationCache::new();
    let frontier = walk_icache(&eval, &space.icache, 1.5, &db).unwrap();
    let got: Vec<(u32, u32, u32, u64, u64)> = frontier
        .points()
        .iter()
        .map(|p| {
            (
                p.design.config.sets,
                p.design.config.assoc,
                p.design.config.line_words,
                p.cost.to_bits(),
                p.time.to_bits(),
            )
        })
        .collect();
    assert_eq!(got, GOLDEN_LRU_FRONTIER, "pre-refactor LRU frontier must reproduce exactly");
}

// --- random-trace proptests ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary address streams: the single-pass path agrees with the
    /// oracle for every policy on random geometry.
    #[test]
    fn random_traces_agree_with_the_oracle(
        addrs in proptest::collection::vec(0u64..4096, 1..300),
        sets_pow in 0u32..5,
        assoc in 1u32..5,
        policy_idx in 0usize..4,
    ) {
        let sets = 1u32 << sets_pow;
        let policy = Policy::all()[policy_idx];
        let mut sim = SinglePassSim::new_with_policy(policy, 4, &[sets], assoc);
        sim.run(addrs.iter().copied());
        let oracle = Cache::new(CacheConfig::new(sets, assoc, 4).with_policy(policy))
            .run(addrs.iter().copied());
        prop_assert_eq!(sim.misses(sets, assoc), oracle.misses);
    }

    /// LRU regression: under the generalized engines, the LRU stack path
    /// still equals a direct LRU simulation on arbitrary traces (the
    /// pre-refactor behaviour, preserved).
    #[test]
    fn lru_stack_distances_survive_the_generalization(
        addrs in proptest::collection::vec(0u64..2048, 1..300),
        sets_pow in 0u32..4,
        assoc in 1u32..5,
    ) {
        let sets = 1u32 << sets_pow;
        let mut sim = SinglePassSim::new(4, &[sets], assoc);
        sim.run(addrs.iter().copied());
        let oracle = Cache::new(CacheConfig::new(sets, assoc, 4)).run(addrs.iter().copied());
        prop_assert_eq!(sim.misses(sets, assoc), oracle.misses);
        prop_assert_eq!(sim.policy(), Policy::Lru);
    }
}
