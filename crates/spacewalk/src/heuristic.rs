//! Heuristic design-space exploration.
//!
//! The paper's `Walkers` module "supports many heuristics for exploring the
//! design space. An exhaustive design space exploration evaluates all
//! designs […] A heuristic only evaluates designs that are likely to be
//! superior than the ones that have already been explored." This module
//! provides a neighbourhood-ascent heuristic for cache spaces: starting
//! from the cheapest design, it expands only the neighbours of current
//! frontier members (size ×2, associativity ×2, next line size, ±port),
//! evaluating a fraction of the space while recovering the frontier of the
//! exhaustive walk in practice.
//!
//! The walk proceeds in *waves*: every unvisited design in the current
//! wave is resolved against the shared [`EvaluationCache`] on the calling
//! thread and merged into the frontier in sorted wave order. Sorting each
//! wave (designs are `Ord`) makes the exploration order — and therefore
//! the result and the evaluated count — deterministic.

use crate::cache_db::{EvaluationCache, MetricKey};
use crate::cost::{cache_area, CacheDesign};
use crate::pareto::ParetoSet;
use crate::space::{CacheSpace, SystemSpace};
use crate::walker::{app_of, current_cancel, resolve};
use mhe_cache::{CacheConfig, Policy};
use mhe_core::evaluator::ReferenceEvaluation;
use mhe_core::MheError;
use std::collections::{BTreeMap, HashSet};

/// Result of a heuristic walk: the frontier plus exploration statistics.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// Accumulated Pareto frontier.
    pub pareto: ParetoSet<CacheDesign>,
    /// Designs actually evaluated (cache hits included).
    pub evaluated: usize,
    /// Size of the full space.
    pub space_size: usize,
}

/// Walks a cache space by neighbourhood ascent instead of exhaustively.
///
/// `key` names a design's metric in the shared cache and `evaluate`
/// computes it on a miss (e.g. estimated misses at a dilation). Designs
/// are explored outward from the cheapest ones; a neighbour is enqueued
/// only when the current design earned a place on the frontier, which is
/// what prunes the space. The scoped cancel token (see
/// [`crate::walker::with_walk_cancel`]) is checked before each design.
///
/// # Errors
///
/// Propagates the first `evaluate` error in wave order, or
/// [`MheError::Cancelled`].
pub fn walk_heuristic(
    space: &CacheSpace,
    db: &EvaluationCache,
    key: impl Fn(CacheDesign) -> MetricKey,
    evaluate: impl Fn(CacheDesign) -> Result<f64, MheError>,
) -> Result<HeuristicResult, MheError> {
    let all = space.enumerate();
    let space_size = all.len();
    let universe: HashSet<CacheDesign> = all.iter().copied().collect();

    // Seeds: the cheapest design for each (line size, policy). Line size
    // changes miss behaviour non-monotonically, and no move changes the
    // policy, so every pair gets a start.
    let mut cheapest: BTreeMap<(u32, Policy), CacheDesign> = BTreeMap::new();
    for d in &all {
        let best = cheapest.entry((d.config.line_bytes(), d.config.policy)).or_insert(*d);
        if cache_area(d).total_cmp(&cache_area(best)).is_lt() {
            *best = *d;
        }
    }
    let mut wave: Vec<CacheDesign> = cheapest.into_values().collect();
    wave.sort_unstable();

    let _obs = mhe_obs::span(mhe_obs::Phase::Walk);
    let cancel = current_cancel();
    let mut pareto = ParetoSet::new();
    let mut visited: HashSet<CacheDesign> = HashSet::new();
    let mut evaluated = 0usize;
    while !wave.is_empty() {
        wave.retain(|d| visited.insert(*d));
        mhe_obs::count(mhe_obs::Counter::WalkWaves, 1);
        mhe_obs::count(mhe_obs::Counter::WalkWaveDesigns, wave.len() as u64);
        mhe_obs::add_events(mhe_obs::Phase::Walk, wave.len() as u64);
        let mut next: Vec<CacheDesign> = Vec::new();
        for design in wave {
            let time = resolve(db, cancel.as_ref(), key(design), || evaluate(design))?;
            evaluated += 1;
            if pareto.insert(design, cache_area(&design), time) {
                next.extend(
                    neighbours(design)
                        .into_iter()
                        .filter(|n| universe.contains(n) && !visited.contains(n)),
                );
            }
        }
        next.sort_unstable();
        next.dedup();
        mhe_obs::record_max(mhe_obs::Counter::WalkFrontierPeak, pareto.len() as u64);
        wave = next;
    }
    Ok(HeuristicResult { pareto, evaluated, space_size })
}

/// The heuristic pre-warm of a system walk: one [`walk_heuristic`] over
/// the I$ space at each processor's dilation, sharing `db`, so every
/// design it touches is a cache hit in the full walk that follows.
/// Results come back in processor order.
///
/// # Errors
///
/// The first failed walk, with the name of its processor.
pub fn prewarm_icache(
    eval: &ReferenceEvaluation,
    space: &SystemSpace,
    db: &EvaluationCache,
) -> Result<Vec<HeuristicResult>, (String, MheError)> {
    let app = app_of(eval);
    space
        .processors
        .iter()
        .map(|proc| {
            let d = eval.dilation_of(proc);
            walk_heuristic(
                &space.icache,
                db,
                |design| MetricKey::icache(&app, design, d),
                |design| eval.estimate_icache_misses(design.config, d),
            )
            .map_err(|e| (proc.name.clone(), e))
        })
        .collect()
}

/// Single-parameter moves from a design. Geometry moves preserve the
/// replacement policy — the walk explores within one policy; policy is a
/// space dimension, not a neighbourhood move.
fn neighbours(d: CacheDesign) -> Vec<CacheDesign> {
    let c = d.config;
    let geom = |sets: u32, assoc: u32, line_words: u32| {
        CacheConfig::new(sets, assoc, line_words).with_policy(c.policy)
    };
    let mut out = Vec::with_capacity(6);
    // Grow capacity (more sets).
    out.push(CacheDesign { config: geom(c.sets * 2, c.assoc, c.line_words), ..d });
    // Grow associativity at same capacity.
    if c.sets >= 2 {
        out.push(CacheDesign { config: geom(c.sets / 2, c.assoc * 2, c.line_words), ..d });
    }
    // Grow associativity (and capacity).
    out.push(CacheDesign { config: geom(c.sets, c.assoc * 2, c.line_words), ..d });
    // Change line size at same capacity.
    out.push(CacheDesign { config: geom(c.sets, c.assoc, c.line_words * 2), ..d });
    if c.line_words >= 2 && c.sets >= 2 {
        out.push(CacheDesign { config: geom(c.sets * 2, c.assoc, c.line_words / 2), ..d });
    }
    // More ports.
    out.push(CacheDesign { ports: d.ports + 1, ..d });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::{prepare_evaluation, walk_icache};
    use mhe_core::evaluator::EvalConfig;
    use mhe_vliw::ProcessorKind;
    use mhe_workload::Benchmark;
    use std::sync::Arc;

    fn space() -> CacheSpace {
        CacheSpace {
            sizes_bytes: vec![1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10],
            assocs: vec![1, 2, 4],
            line_bytes: vec![16, 32],
            ports: vec![1],
            policies: vec![Policy::Lru],
        }
    }

    fn synthetic_key(app: &Arc<str>, d: CacheDesign) -> MetricKey {
        MetricKey::icache(app, d, 1.0)
    }

    #[test]
    fn heuristic_explores_fewer_designs() {
        // A synthetic metric: misses fall with capacity, with diminishing
        // returns (monotone landscape the heuristic should exploit).
        let db = EvaluationCache::new();
        let app: Arc<str> = Arc::from("synthetic");
        let r = walk_heuristic(
            &space(),
            &db,
            |d| synthetic_key(&app, d),
            |d| Ok(1e9 / (d.config.size_bytes() as f64).powf(0.8)),
        )
        .unwrap();
        assert!(!r.pareto.is_empty());
        assert!(r.evaluated <= r.space_size);
    }

    #[test]
    fn heuristic_propagates_errors() {
        let db = EvaluationCache::new();
        let app: Arc<str> = Arc::from("err");
        let bad = MheError::MissingReference { speculation: false, predication: false };
        let r = walk_heuristic(&space(), &db, |d| synthetic_key(&app, d), |_| Err(bad.clone()));
        assert_eq!(r.unwrap_err(), bad);
    }

    #[test]
    fn heuristic_matches_exhaustive_frontier_on_real_estimates() {
        let both = CacheSpace { policies: vec![Policy::Lru, Policy::Fifo], ..space() };
        let system = SystemSpace {
            processors: vec![ProcessorKind::P1111.mdes()],
            icache: both.clone(),
            dcache: CacheSpace {
                sizes_bytes: vec![1024],
                assocs: vec![1],
                line_bytes: vec![32],
                ports: vec![1],
                policies: vec![Policy::Lru],
            },
            ucache: CacheSpace {
                sizes_bytes: vec![64 << 10],
                assocs: vec![4],
                line_bytes: vec![64],
                ports: vec![1],
                policies: vec![Policy::Lru],
            },
        };
        let eval = prepare_evaluation(
            Benchmark::Unepic.generate(),
            &ProcessorKind::P1111.mdes(),
            EvalConfig { events: 40_000, ..EvalConfig::default() },
            &system,
        );
        let d = 1.8;
        let app: Arc<str> = Arc::from(eval.program().name.as_str());
        let reversed = CacheSpace { policies: vec![Policy::Fifo, Policy::Lru], ..space() };
        for icache in [space(), both, reversed] {
            let db1 = EvaluationCache::new();
            let exhaustive = walk_icache(&eval, &icache, d, &db1).unwrap();
            let db2 = EvaluationCache::new();
            let explored = std::cell::RefCell::new(HashSet::new());
            let heuristic = walk_heuristic(
                &icache,
                &db2,
                |design| MetricKey::icache(&app, design, d),
                |design| {
                    explored.borrow_mut().insert(design.config.policy);
                    eval.estimate_icache_misses(design.config, d)
                },
            )
            .unwrap();
            // Every policy of the space is explored, not just the first.
            for policy in &icache.policies {
                assert!(
                    explored.borrow().contains(policy),
                    "{:?}: no {policy} design evaluated",
                    icache.policies
                );
            }
            // The heuristic must recover every exhaustive frontier point
            // (same cost/time pairs).
            let mut ex: Vec<(u64, u64)> =
                exhaustive.points().iter().map(|p| (p.cost.to_bits(), p.time.to_bits())).collect();
            let mut he: Vec<(u64, u64)> = heuristic
                .pareto
                .points()
                .iter()
                .map(|p| (p.cost.to_bits(), p.time.to_bits()))
                .collect();
            ex.sort_unstable();
            he.sort_unstable();
            assert_eq!(ex, he, "{:?}: heuristic missed frontier points", icache.policies);
        }
    }
}
