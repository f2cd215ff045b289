//! Determinism of the walkers: `walk_system` must produce bit-identical
//! Pareto frontiers at 1, 2 and 8 worker threads, with both a cold and a
//! warm evaluation cache. Each thread count gets its own evaluation, so
//! every cold walk compiles its targets in the walk's one parallel sweep;
//! the designs themselves are resolved on the calling thread and merged
//! in enumeration order, so thread count may only change the wall clock —
//! never the frontier.

use mhe::prelude::*;
use mhe::spacewalk::walker;

fn space() -> SystemSpace {
    SystemSpace {
        processors: vec![
            ProcessorKind::P1111.mdes(),
            ProcessorKind::P2111.mdes(),
            ProcessorKind::P3221.mdes(),
        ],
        icache: CacheSpace {
            sizes_bytes: vec![1 << 10, 2 << 10, 4 << 10],
            assocs: vec![1, 2],
            line_bytes: vec![16, 32],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
        dcache: CacheSpace {
            sizes_bytes: vec![1 << 10, 4 << 10],
            assocs: vec![1],
            line_bytes: vec![32],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
        ucache: CacheSpace {
            sizes_bytes: vec![16 << 10, 64 << 10],
            assocs: vec![2],
            line_bytes: vec![64],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
    }
}

/// The frontier reduced to exactly comparable bits: processor name, cache
/// geometries, and the raw `f64` bit patterns of cost and time.
type FrontierBits = Vec<(String, String, String, String, u64, u64)>;

fn frontier_bits(
    eval: &ReferenceEvaluation,
    space: &SystemSpace,
    db: &EvaluationCache,
) -> FrontierBits {
    let frontier = walker::walk_system(eval, space, Penalties::default(), db).expect("walk");
    frontier
        .points()
        .iter()
        .map(|p| {
            (
                p.design.processor.name.clone(),
                p.design.memory.icache.config.to_string(),
                p.design.memory.dcache.config.to_string(),
                p.design.memory.ucache.config.to_string(),
                p.cost.to_bits(),
                p.time.to_bits(),
            )
        })
        .collect()
}

#[test]
fn walk_system_is_bit_identical_across_thread_counts() {
    let space = space();
    let eval_at = |threads: usize| {
        walker::prepare_evaluation(
            Benchmark::Unepic.generate(),
            &ProcessorKind::P1111.mdes(),
            EvalConfig::builder().events(40_000).threads(threads).build().expect("valid config"),
            &space,
        )
    };
    let evals: Vec<(usize, ReferenceEvaluation)> =
        [1usize, 2, 8].into_iter().map(|threads| (threads, eval_at(threads))).collect();

    // Cold cache at every thread count: each run computes everything.
    let mut cold = Vec::new();
    for (threads, eval) in &evals {
        let db = EvaluationCache::new();
        cold.push((threads, frontier_bits(eval, &space, &db)));
    }
    for (threads, bits) in &cold[1..] {
        assert_eq!(&cold[0].1, bits, "cold-cache frontier differs between 1 and {threads} threads");
    }

    // Warm cache: seed with a 1-thread walk, then re-walk at each count.
    let warm_db = EvaluationCache::new();
    let seed_bits = frontier_bits(&evals[0].1, &space, &warm_db);
    assert_eq!(seed_bits, cold[0].1, "warm seed differs from cold walk");
    for (threads, eval) in &evals {
        let (_, computes_before) = warm_db.stats();
        let bits = frontier_bits(eval, &space, &warm_db);
        let (_, computes_after) = warm_db.stats();
        assert_eq!(bits, cold[0].1, "warm-cache frontier differs at {threads} threads");
        assert_eq!(
            computes_before, computes_after,
            "warm walk at {threads} threads recomputed metrics"
        );
    }
}
