//! Walkers: exhaustive exploration of the cache and system design spaces.
//!
//! Mirrors the paper's `MemoryWalker`/`IcacheWalker`/... hierarchy: each
//! walker binds (application, design, dilation) into experiments, obtains
//! metrics through the [`EvaluationCache`], and accumulates Pareto sets.
//! Because cache stalls are additive and independent across the three
//! caches (given a dilation), the memory walker may combine the
//! *per-cache* Pareto survivors instead of the raw cross product — a large
//! reduction that loses no Pareto-optimal combination (any combination
//! containing a dominated component is itself dominated by swapping that
//! component; the inclusion constraint is checked on the combined design).
//!
//! # Parallelism and determinism
//!
//! Only the per-processor step of [`walk_system`] — the cold compile of
//! each target — fans out over a [`ParallelSweep`]; the worker count comes
//! from the evaluation's [`EvalConfig::worker_threads`]. Every design a
//! walk resolves, exhaustive or heuristic, is resolved in a plain loop on
//! the calling thread: each estimate takes about a microsecond, less than
//! a thread spawn. Results are merged into the [`ParetoSet`] serially in
//! enumeration order, so the frontier is **bit-identical regardless of
//! thread count** — only the wall clock changes.

use crate::cache_db::{EvaluationCache, MetricKey};
use crate::ckpt::Checkpointer;
use crate::cost::{cache_area, CacheDesign};
use crate::pareto::ParetoSet;
use crate::space::{CacheSpace, SystemSpace};
use mhe_cache::{MemoryDesign, Penalties};
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_core::parallel::ParallelSweep;
use mhe_core::{CancelToken, MheError};
use mhe_vliw::Mdes;
use mhe_workload::ir::Program;
use std::sync::Arc;

/// Scale factor translating [`Mdes::cost`] units into the cache-area units
/// of [`crate::cost::cache_area`], so system cost is a single number.
pub const PROCESSOR_AREA_SCALE: f64 = 25.0;

/// A complete memory-hierarchy design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryPoint {
    /// Instruction cache.
    pub icache: CacheDesign,
    /// Data cache.
    pub dcache: CacheDesign,
    /// Unified cache.
    pub ucache: CacheDesign,
}

impl MemoryPoint {
    /// The geometry-only view.
    pub fn design(&self) -> MemoryDesign {
        MemoryDesign {
            icache: self.icache.config,
            dcache: self.dcache.config,
            ucache: self.ucache.config,
        }
    }
}

/// A complete system design point.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPoint {
    /// The processor.
    pub processor: Mdes,
    /// The memory hierarchy.
    pub memory: MemoryPoint,
}

/// Builds the reference evaluation needed to walk `space`.
///
/// This is the only simulation work in the whole exploration; everything
/// after is analytic.
pub fn prepare_evaluation(
    program: Program,
    reference: &Mdes,
    config: EvalConfig,
    space: &SystemSpace,
) -> ReferenceEvaluation {
    ReferenceEvaluation::build(
        program,
        reference,
        config,
        &space.icache.configs(),
        &space.dcache.configs(),
        &space.ucache.configs(),
    )
}

/// The application key for an evaluation's program, shared by every metric
/// the walkers derive from it.
pub(crate) fn app_of(eval: &ReferenceEvaluation) -> Arc<str> {
    Arc::from(eval.program().name.as_str())
}

std::thread_local! {
    /// The cancel token [`walk_system`]'s target sweep on this thread
    /// attaches, and every walk on it checks before each design (scoped
    /// by [`with_walk_cancel`]). Thread-local rather than a parameter so
    /// the whole `walk_*` family stays cancellation-agnostic: batch runs
    /// and fleet workers never set it, while the daemon scopes one token
    /// around each served request.
    static WALK_CANCEL: std::cell::RefCell<Option<CancelToken>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with `cancel` attached to every target sweep and design walk
/// this thread runs, restoring the previous token (usually none)
/// afterwards — panic-safe via an RAII guard, since the service catches
/// request panics and reuses the thread.
pub fn with_walk_cancel<R>(cancel: CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WALK_CANCEL.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(WALK_CANCEL.with(|c| c.borrow_mut().replace(cancel)));
    f()
}

/// The token scoped onto this thread by [`with_walk_cancel`], if any.
pub(crate) fn current_cancel() -> Option<CancelToken> {
    WALK_CANCEL.with(|c| c.borrow().clone())
}

/// Resolves one design's metric through the shared cache: checks the
/// scoped cancel token (see [`with_walk_cancel`]), then looks the key up
/// and computes it on a miss. Every walk that resolves designs one by
/// one — the cache-space walks and the heuristic's waves — goes through
/// here, so a cancelled request stops before its next design.
pub(crate) fn resolve(
    db: &EvaluationCache,
    cancel: Option<&CancelToken>,
    key: MetricKey,
    metric: impl FnOnce() -> Result<f64, MheError>,
) -> Result<f64, MheError> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Err(MheError::Cancelled);
    }
    db.get_or_try_insert_with(key, metric)
}

/// Walks one cache space: resolves each enumerated design's metric
/// through the shared cache, in order, on the calling thread, and merges
/// it into the frontier.
fn walk_cache_space(
    space: &CacheSpace,
    db: &EvaluationCache,
    key: impl Fn(CacheDesign) -> MetricKey,
    metric: impl Fn(CacheDesign) -> Result<f64, MheError>,
) -> Result<ParetoSet<CacheDesign>, MheError> {
    let designs = space.enumerate();
    mhe_obs::add_events(mhe_obs::Phase::Walk, designs.len() as u64);
    let _obs = mhe_obs::span(mhe_obs::Phase::Walk);
    let cancel = current_cancel();
    let mut pareto = ParetoSet::new();
    for design in designs {
        let time = resolve(db, cancel.as_ref(), key(design), || metric(design))?;
        pareto.insert(design, cache_area(&design), time);
    }
    Ok(pareto)
}

/// Walks the instruction-cache space at one dilation; time = estimated
/// misses.
///
/// # Errors
///
/// Returns [`MheError::MissingSimulation`] if the dilation needs a line
/// size outside the pre-simulated space.
pub fn walk_icache(
    eval: &ReferenceEvaluation,
    space: &CacheSpace,
    dilation: f64,
    db: &EvaluationCache,
) -> Result<ParetoSet<CacheDesign>, MheError> {
    let app = app_of(eval);
    walk_cache_space(
        space,
        db,
        |design| MetricKey::icache(&app, design, dilation),
        |design| eval.estimate_icache_misses(design.config, dilation),
    )
}

/// Walks the data-cache space (dilation-independent by Eq. 4.1).
///
/// # Errors
///
/// Returns [`MheError::MissingSimulation`] if a configuration was not
/// simulated.
pub fn walk_dcache(
    eval: &ReferenceEvaluation,
    space: &CacheSpace,
    db: &EvaluationCache,
) -> Result<ParetoSet<CacheDesign>, MheError> {
    let app = app_of(eval);
    walk_cache_space(
        space,
        db,
        |design| MetricKey::dcache(&app, design),
        |design| eval.dcache_misses(design.config).map(|m| m as f64),
    )
}

/// Walks the unified-cache space at one dilation.
///
/// # Errors
///
/// Returns [`MheError::MissingSimulation`] if a configuration was not
/// simulated.
pub fn walk_ucache(
    eval: &ReferenceEvaluation,
    space: &CacheSpace,
    dilation: f64,
    db: &EvaluationCache,
) -> Result<ParetoSet<CacheDesign>, MheError> {
    let app = app_of(eval);
    walk_cache_space(
        space,
        db,
        |design| MetricKey::ucache(&app, design, dilation),
        |design| eval.estimate_ucache_misses(design.config, dilation),
    )
}

/// Walks the whole memory space at one dilation; time = stall cycles.
///
/// # Errors
///
/// Propagates any [`MheError`] from the three per-cache walks.
pub fn walk_memory(
    eval: &ReferenceEvaluation,
    space: &SystemSpace,
    dilation: f64,
    penalties: Penalties,
    db: &EvaluationCache,
) -> Result<ParetoSet<MemoryPoint>, MheError> {
    let ic = walk_icache(eval, &space.icache, dilation, db)?;
    let dc = walk_dcache(eval, &space.dcache, db)?;
    let uc = walk_ucache(eval, &space.ucache, dilation, db)?;
    let mut pareto = ParetoSet::new();
    for i in ic.points() {
        for d in dc.points() {
            for u in uc.points() {
                let point = MemoryPoint { icache: i.design, dcache: d.design, ucache: u.design };
                if !point.design().satisfies_inclusion() {
                    continue;
                }
                let stalls = (i.time + d.time) * penalties.l1_miss as f64
                    + u.time * penalties.l2_miss as f64;
                let cost = i.cost + d.cost + u.cost;
                pareto.insert(point, cost, stalls);
            }
        }
    }
    Ok(pareto)
}

/// Walks the joint processor × memory space; time = total execution cycles.
///
/// The per-processor facts — text dilation and compute cycles, read from
/// the evaluation's target memo ([`ReferenceEvaluation::target_facts`]) —
/// fan out over a [`ParallelSweep`], the one sweep a walk builds: on a
/// cold evaluation that compiles each target once, in parallel; on a warm
/// one it only looks them up. The sweep carries the scoped cancel token
/// and is a fault-injection site ([`ParallelSweep::try_map_in`]). Each
/// processor's memory walk then runs on the calling thread. Frontier
/// merges happen serially in processor order, so the result is
/// bit-identical at any thread count.
///
/// # Errors
///
/// Propagates any [`MheError`] from the per-processor memory walks.
pub fn walk_system(
    eval: &ReferenceEvaluation,
    space: &SystemSpace,
    penalties: Penalties,
    db: &EvaluationCache,
) -> Result<ParetoSet<SystemPoint>, MheError> {
    walk_system_with(eval, space, penalties, db, None)
}

/// [`walk_system`] with an optional crash-safe checkpoint hook.
///
/// When `checkpoint` is given, the shared [`EvaluationCache`] is persisted
/// atomically after every processor's memory walk, so a killed run can be
/// resumed by reloading the checkpoint and re-walking: every already-done
/// evaluation is a cache hit and the frontier comes out bit-identical to an
/// uninterrupted run (the merge itself is deterministic and cheap — only
/// the metric evaluations are worth saving).
///
/// # Errors
///
/// Propagates any [`MheError`] from the per-processor memory walks; a
/// failed checkpoint write surfaces as [`MheError::WorkerFailed`].
pub fn walk_system_with(
    eval: &ReferenceEvaluation,
    space: &SystemSpace,
    penalties: Penalties,
    db: &EvaluationCache,
    checkpoint: Option<&Checkpointer>,
) -> Result<ParetoSet<SystemPoint>, MheError> {
    let app = app_of(eval);
    mhe_obs::add_events(mhe_obs::Phase::Walk, space.processors.len() as u64);
    let mut sweep = ParallelSweep::with_threads(eval.config().worker_threads()).with_label("walk");
    if let Some(cancel) = current_cancel() {
        sweep = sweep.with_cancel(cancel);
    }
    let prepared = sweep.try_map_in(Some(mhe_obs::Phase::Walk), &space.processors, |proc| {
        let target = eval.target_facts(proc);
        let cycles = db
            .get_or_insert_with(MetricKey::proc_cycles(&app, &proc.name), || target.cycles as f64);
        Ok((target.dilation, cycles))
    })?;
    if let Some(ckpt) = checkpoint {
        ckpt.save(db).map_err(|e| MheError::worker_failed("checkpoint save", e.to_string()))?;
    }
    let mut pareto = ParetoSet::new();
    for (proc, (d, compute)) in space.processors.iter().zip(prepared) {
        let memory = walk_memory(eval, space, d, penalties, db)?;
        for m in memory.points() {
            let time = compute + m.time;
            let cost = proc.cost() * PROCESSOR_AREA_SCALE + m.cost;
            pareto.insert(SystemPoint { processor: proc.clone(), memory: m.design }, cost, time);
        }
        if let Some(ckpt) = checkpoint {
            ckpt.save(db).map_err(|e| MheError::worker_failed("checkpoint save", e.to_string()))?;
        }
    }
    Ok(pareto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhe_cache::Policy;
    use mhe_vliw::ProcessorKind;
    use mhe_workload::Benchmark;

    fn small_space() -> SystemSpace {
        SystemSpace {
            processors: vec![ProcessorKind::P1111.mdes(), ProcessorKind::P3221.mdes()],
            icache: CacheSpace {
                sizes_bytes: vec![1024, 4096],
                assocs: vec![1, 2],
                line_bytes: vec![32],
                ports: vec![1],
                policies: vec![Policy::Lru],
            },
            dcache: CacheSpace {
                sizes_bytes: vec![1024, 4096],
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

    fn eval_for(space: &SystemSpace) -> ReferenceEvaluation {
        prepare_evaluation(
            Benchmark::Unepic.generate(),
            &ProcessorKind::P1111.mdes(),
            EvalConfig { events: 40_000, ..EvalConfig::default() },
            space,
        )
    }

    #[test]
    fn icache_walk_produces_frontier() {
        let space = small_space();
        let eval = eval_for(&space);
        let db = EvaluationCache::new();
        let p = walk_icache(&eval, &space.icache, 1.5, &db).unwrap();
        assert!(!p.is_empty());
        assert!(p.len() <= space.icache.enumerate().len());
        // Frontier is strictly improving in time as cost rises.
        let pts = p.points();
        for w in pts.windows(2) {
            assert!(w[0].time > w[1].time);
        }
    }

    #[test]
    fn evaluation_cache_avoids_recomputation() {
        let space = small_space();
        let eval = eval_for(&space);
        let db = EvaluationCache::new();
        let _ = walk_icache(&eval, &space.icache, 1.5, &db).unwrap();
        let before = db.stats();
        let _ = walk_icache(&eval, &space.icache, 1.5, &db).unwrap();
        let after = db.stats();
        assert_eq!(before.1, after.1, "second walk must be all hits");
        assert!(after.0 > before.0);
    }

    #[test]
    fn missing_simulation_is_an_error_not_a_panic() {
        let space = small_space();
        let eval = eval_for(&space);
        let db = EvaluationCache::new();
        // Dilation far beyond max_dilation needs line sizes that were never
        // simulated: the walker must report, not panic.
        let err = walk_icache(&eval, &space.icache, 64.0, &db);
        assert!(matches!(err, Err(MheError::MissingSimulation { .. })));
    }

    #[test]
    fn memory_walk_respects_inclusion() {
        let space = small_space();
        let eval = eval_for(&space);
        let db = EvaluationCache::new();
        let p = walk_memory(&eval, &space, 1.0, Penalties::default(), &db).unwrap();
        assert!(!p.is_empty());
        for pt in p.points() {
            assert!(pt.design.design().satisfies_inclusion());
        }
    }

    #[test]
    fn system_walk_contains_multiple_processors_or_dominates() {
        let space = small_space();
        let eval = eval_for(&space);
        let db = EvaluationCache::new();
        let p = walk_system(&eval, &space, Penalties::default(), &db).unwrap();
        assert!(!p.is_empty());
        // The cheapest system should use the narrow processor.
        let cheapest = p.cheapest().unwrap();
        assert_eq!(cheapest.design.processor.name, "1111");
        // With memory stalls priced at zero the wide processor's compute
        // advantage must win outright — the interesting case is that with
        // real penalties it may not (that tension is the paper's premise).
        let free_mem = Penalties { l1_miss: 0, l2_miss: 0 };
        let q = walk_system(&eval, &space, free_mem, &db).unwrap();
        assert_eq!(q.fastest().unwrap().design.processor.name, "3221");
    }

    #[test]
    fn scoped_cancel_aborts_the_walk_and_does_not_leak() {
        let space = small_space();
        let eval = eval_for(&space);
        let db = EvaluationCache::new();
        let token = CancelToken::new();
        token.cancel();
        let err = with_walk_cancel(token, || walk_icache(&eval, &space.icache, 1.5, &db))
            .expect_err("pre-cancelled walk must abort");
        assert!(matches!(err, MheError::Cancelled), "{err}");
        // The cancel saved work: the aborted walk computed no metric.
        assert_eq!(db.stats().1, 0, "a pre-cancelled walk computed metrics");
        // The scope restored: the same thread walks normally afterwards.
        assert!(walk_icache(&eval, &space.icache, 1.5, &db).is_ok());
        assert!(db.stats().1 > 0);
    }

    #[test]
    fn scoped_cancel_aborts_a_heuristic_walk() {
        let space = small_space();
        let eval = eval_for(&space);
        let db = EvaluationCache::new();
        let app = app_of(&eval);
        let token = CancelToken::new();
        token.cancel();
        let err = with_walk_cancel(token, || {
            crate::heuristic::walk_heuristic(
                &space.icache,
                &db,
                |design| MetricKey::icache(&app, design, 1.5),
                |design| eval.estimate_icache_misses(design.config, 1.5),
            )
        })
        .expect_err("pre-cancelled heuristic walk must abort");
        assert!(matches!(err, MheError::Cancelled), "{err}");
        assert_eq!(db.stats().1, 0, "a pre-cancelled heuristic walk computed metrics");
    }

    #[test]
    fn dcache_walk_is_dilation_independent() {
        let space = small_space();
        let eval = eval_for(&space);
        let db = EvaluationCache::new();
        let p = walk_dcache(&eval, &space.dcache, &db).unwrap();
        assert!(!p.is_empty());
    }
}
