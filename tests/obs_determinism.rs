//! Observability must never change results: with `MHE_OBS`-style sinks
//! enabled (text and json), measured miss maps, estimates, and walker
//! frontiers are bit-identical to the probe-free run, at 1 and at 8
//! worker threads.
//!
//! The obs level is process-global, so everything lives in ONE `#[test]`
//! (this file is its own test binary; in-process tests would race on the
//! level).

use mhe::prelude::*;
use mhe::spacewalk::walker;
use std::sync::Arc;

fn space() -> SystemSpace {
    SystemSpace {
        processors: vec![ProcessorKind::P1111.mdes(), ProcessorKind::P3221.mdes()],
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

/// Everything a run answers with, reduced to exactly comparable bits.
#[derive(PartialEq, Debug)]
struct RunBits {
    imeasured: Vec<(CacheConfig, u64)>,
    dmeasured: Vec<(CacheConfig, u64)>,
    umeasured: Vec<(CacheConfig, u64)>,
    estimate: u64,
    frontier: Vec<(String, u64, u64)>,
    heuristic: Vec<(u64, u64)>,
    heuristic_evaluated: usize,
}

fn run(threads: usize) -> RunBits {
    let space = space();
    let eval = walker::prepare_evaluation(
        Benchmark::Unepic.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig::builder().events(20_000).threads(threads).build().expect("valid config"),
        &space,
    );
    let estimate = eval
        .estimate_icache_misses(CacheConfig::from_bytes(1024, 1, 32), 1.5)
        .expect("config is in the simulated space")
        .to_bits();
    let db = EvaluationCache::new();
    let frontier = walker::walk_system(&eval, &space, Penalties::default(), &db)
        .expect("space is fully simulated")
        .points()
        .iter()
        .map(|p| (p.design.processor.name.clone(), p.cost.to_bits(), p.time.to_bits()))
        .collect();
    let app: Arc<str> = Arc::from(eval.program().name.as_str());
    let hdb = EvaluationCache::new();
    let heuristic = walk_heuristic(
        &space.icache,
        &hdb,
        |d| MetricKey::icache(&app, d, 1.5),
        |d| eval.estimate_icache_misses(d.config, 1.5),
    )
    .expect("heuristic walk succeeds");
    let sorted = |m: &std::collections::HashMap<CacheConfig, u64>| {
        let mut v: Vec<(CacheConfig, u64)> = m.iter().map(|(c, n)| (*c, *n)).collect();
        v.sort_unstable();
        v
    };
    RunBits {
        imeasured: sorted(eval.imeasured()),
        dmeasured: sorted(eval.dmeasured()),
        umeasured: sorted(eval.umeasured()),
        estimate,
        frontier,
        heuristic: heuristic
            .pareto
            .points()
            .iter()
            .map(|p| (p.cost.to_bits(), p.time.to_bits()))
            .collect(),
        heuristic_evaluated: heuristic.evaluated,
    }
}

#[test]
fn enabled_observability_leaves_results_bit_identical() {
    mhe::obs::set_level(ObsLevel::Off);
    let baseline = run(1);

    for level in [ObsLevel::Text, ObsLevel::Json] {
        for threads in [1usize, 8] {
            mhe::obs::set_level(level);
            let bits = run(threads);
            mhe::obs::set_level(ObsLevel::Off);
            assert_eq!(
                baseline, bits,
                "results diverge with obs level {level:?} at {threads} threads"
            );
        }
    }
    mhe::obs::reset();
}
