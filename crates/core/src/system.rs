//! Hierarchical system-level evaluation: processor cycles + cache stalls.
//!
//! The paper's evaluator combines independently-obtained subsystem metrics:
//! "The overall execution time consists of the processor cycles and the
//! stall cycles from each of the caches." Processor cycles come from
//! schedule lengths weighted by block execution counts (no trace
//! simulation, and one block profile serves every processor); cache
//! stalls come either from the dilation model (fast path, used during
//! design-space exploration) or from simulation (validation path).

use crate::error::MheError;
use crate::evaluator::{ReferenceEvaluation, TargetFacts};
use mhe_cache::{MemoryDesign, Penalties};
use mhe_vliw::compile::Compiled;
use mhe_vliw::Mdes;
use mhe_workload::exec::BlockFrequencies;
use mhe_workload::ir::Program;

/// One complete system design point.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemDesign {
    /// The VLIW processor.
    pub processor: Mdes,
    /// The memory hierarchy.
    pub memory: MemoryDesign,
}

/// Evaluated performance of a system design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemPerformance {
    /// Compute cycles (schedule lengths over the dynamic window).
    pub processor_cycles: u64,
    /// Estimated instruction-cache misses.
    pub icache_misses: f64,
    /// Estimated data-cache misses.
    pub dcache_misses: f64,
    /// Estimated unified-cache misses.
    pub ucache_misses: f64,
    /// Total estimated execution cycles.
    pub total_cycles: f64,
}

impl SystemPerformance {
    /// Stall cycles implied by the miss counts and `penalties`.
    pub fn stall_cycles(&self, penalties: Penalties) -> f64 {
        (self.icache_misses + self.dcache_misses) * penalties.l1_miss as f64
            + self.ucache_misses * penalties.l2_miss as f64
    }
}

/// Dynamic processor cycles: schedule lengths summed over the executed
/// block window (no cache effects).
///
/// The event trace does not depend on the machine, so this is the
/// window's block profile dotted with the target's schedule lengths
/// ([`profile_cycles`]). Callers that score several processors on one
/// window profile it once; [`ReferenceEvaluation::target_facts`] does.
///
/// # Examples
///
/// ```
/// use mhe_core::system::processor_cycles;
/// use mhe_vliw::{compile::Compiled, mdes::ProcessorKind};
/// use mhe_workload::Benchmark;
/// let program = Benchmark::Unepic.generate();
/// let narrow = Compiled::build(&program, &ProcessorKind::P1111.mdes(), None);
/// let wide = Compiled::build(&program, &ProcessorKind::P6332.mdes(), None);
/// let events = 10_000;
/// assert!(processor_cycles(&program, &wide, 1, events)
///     < processor_cycles(&program, &narrow, 1, events));
/// ```
pub fn processor_cycles(program: &Program, compiled: &Compiled, seed: u64, events: usize) -> u64 {
    profile_cycles(&BlockFrequencies::profile(program, seed, events), compiled)
}

/// Compute cycles of `compiled` over a profiled window: Σ over blocks of
/// execution count × schedule length. The sum is an integer, so it equals
/// the per-event sum exactly.
pub fn profile_cycles(freq: &BlockFrequencies, compiled: &Compiled) -> u64 {
    freq.weighted_total(|proc, block| u64::from(compiled.sched.block(proc, block).len_cycles()))
}

/// Evaluates a complete system design using the dilation model — the fast
/// path the spacewalker calls per design point. The per-processor facts
/// (dilation and compute cycles) come from the evaluation's target memo,
/// so each processor is compiled once per evaluation; all cache numbers
/// are produced analytically from the reference evaluation.
///
/// # Errors
///
/// Returns [`MheError::MissingSimulation`] if any cache configuration is
/// outside the evaluated space.
pub fn evaluate_system(
    eval: &ReferenceEvaluation,
    design: &SystemDesign,
    penalties: Penalties,
) -> Result<SystemPerformance, MheError> {
    let TargetFacts { dilation, cycles: processor } = eval.target_facts(&design.processor);
    let icache = eval.estimate_icache_misses(design.memory.icache, dilation)?;
    let dcache = eval.dcache_misses(design.memory.dcache)? as f64;
    let ucache = eval.estimate_ucache_misses(design.memory.ucache, dilation)?;
    let perf = SystemPerformance {
        processor_cycles: processor,
        icache_misses: icache,
        dcache_misses: dcache,
        ucache_misses: ucache,
        total_cycles: processor as f64
            + (icache + dcache) * penalties.l1_miss as f64
            + ucache * penalties.l2_miss as f64,
    };
    Ok(perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::EvalConfig;
    use mhe_cache::CacheConfig;
    use mhe_vliw::mdes::ProcessorKind;
    use mhe_workload::Benchmark;

    fn eval() -> ReferenceEvaluation {
        ReferenceEvaluation::for_benchmark(
            Benchmark::Unepic,
            &ProcessorKind::P1111.mdes(),
            EvalConfig { events: 50_000, ..EvalConfig::default() },
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
        )
    }

    fn design(kind: ProcessorKind) -> SystemDesign {
        SystemDesign {
            processor: kind.mdes(),
            memory: MemoryDesign {
                icache: CacheConfig::from_bytes(1024, 1, 32),
                dcache: CacheConfig::from_bytes(1024, 1, 32),
                ucache: CacheConfig::from_bytes(16 * 1024, 2, 64),
            },
        }
    }

    #[test]
    fn wider_processor_fewer_compute_cycles_more_icache_misses() {
        let e = eval();
        let narrow =
            evaluate_system(&e, &design(ProcessorKind::P1111), Penalties::default()).unwrap();
        let wide =
            evaluate_system(&e, &design(ProcessorKind::P6332), Penalties::default()).unwrap();
        assert!(wide.processor_cycles < narrow.processor_cycles);
        assert!(wide.icache_misses > narrow.icache_misses);
        assert!(wide.ucache_misses >= narrow.ucache_misses);
        // Data misses are dilation-independent by assumption (Eq. 4.1).
        assert!((wide.dcache_misses - narrow.dcache_misses).abs() < 1e-9);
    }

    #[test]
    fn total_cycles_decompose() {
        let e = eval();
        let p = Penalties::default();
        let perf = evaluate_system(&e, &design(ProcessorKind::P2111), p).unwrap();
        let expect = perf.processor_cycles as f64 + perf.stall_cycles(p);
        assert!((perf.total_cycles - expect).abs() < 1e-6);
    }

    #[test]
    fn bad_cache_config_is_error() {
        let e = eval();
        let mut d = design(ProcessorKind::P2111);
        d.memory.ucache = CacheConfig::from_bytes(64 * 1024, 4, 64);
        assert!(evaluate_system(&e, &d, Penalties::default()).is_err());
    }
}
