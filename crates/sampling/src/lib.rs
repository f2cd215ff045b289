//! Interval-sampled cache simulation: the 1000×-longer-trace story.
//!
//! Full single-pass simulation is exact but touches every access of the
//! trace; for billion-access workloads that is the binding constraint.
//! This crate implements interval sampling in the style of Bueno et al.
//! (*Improving the Representativeness of Simulation Intervals for the
//! Cache Memory System*): the trace is split into fixed-size
//! **intervals**, each interval is summarized by a cheap **signature**
//! (access-kind mix plus the miss profiles of two ladders of small
//! direct-mapped probe filters, one shared and one split per stream),
//! signatures are clustered with a deterministic seeded
//! **k-means**, and only one **representative** interval per cluster is
//! simulated — preceded by a warm-up prefix — with its miss counts scaled
//! back by the cluster's weight.
//!
//! The result answers the same `misses(sets, assoc)` grid queries as the
//! exact [`mhe_cache::SinglePassSim`], via [`SampledSim`], at a cost
//! proportional to the number of *representative* accesses rather than
//! the trace length. Every grid point is simulated exactly over the
//! representative windows, with the same single-pass engines the exact
//! path uses; only the extrapolation from windows to the whole trace is
//! estimated.
//!
//! Everything here is deterministic: the same trace and
//! [`SamplingConfig`] produce bit-identical estimates on any thread
//! count, any chunking, and any repetition — the property the
//! differential accuracy harness (`tests/sampling_accuracy.rs` at the
//! workspace root) pins against full simulation.
//!
//! # Pipeline
//!
//! ```text
//! pass A (whole trace, cheap):   split -> signatures        [SamplePlanner]
//! plan   (tiny):                 k-means -> representatives  [SamplePlan]
//! pass B (windows only, copy):   extract warm-up + body      [WindowExtractor]
//! simulate (representatives):    exact grid over windows     [SampledSim]
//! ```
//!
//! Pass B reads only what the windows need. A source that can seek
//! (an `.mtr` file, whose self-contained frames pass A indexed) decodes
//! just the frames that overlap a window; one that cannot re-streams
//! from the start and stops after the last window ends.
//!
//! # Quick start
//!
//! ```
//! use mhe_sampling::{SamplePlanner, SampledSim, SamplingConfig, WindowExtractor};
//! use mhe_trace::{Access, StreamKind};
//!
//! let trace: Vec<Access> =
//!     (0..40_000u64).map(|i| Access::inst((i * 17) % 4096)).collect();
//! let cfg = SamplingConfig { interval_accesses: 4096, clusters: 4, ..Default::default() };
//! let mut planner = SamplePlanner::new(cfg);
//! planner.feed(&trace);
//! let plan = planner.finish();
//! let mut ex = WindowExtractor::new(&plan);
//! ex.feed(&trace);
//! let windows = ex.finish();
//! let sim = SampledSim::measure(
//!     mhe_cache::Policy::Lru, 8, &[32, 64], 4, StreamKind::Instruction, &plan, &windows,
//! );
//! assert!(sim.miss_ratio(64, 2) <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod kmeans;
pub mod plan;
pub mod sampled;
pub mod signature;

pub use kmeans::Clustering;
pub use plan::{
    plan_trace, ClusterInfo, IntervalInfo, RepWindow, SamplePlan, SamplePlanner, WindowExtractor,
};
pub use sampled::SampledSim;
pub use signature::{signature_of, Signature};

/// Knobs of the interval-sampling pipeline.
///
/// `Copy`, `PartialEq` and `Default` so it can ride inside
/// `EvalConfig` the way every other evaluation knob does. All defaults
/// are the `--sample` defaults of the `spacewalker` CLI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Accesses per interval (the sampling granularity). The final
    /// interval of a trace may be shorter.
    pub interval_accesses: usize,
    /// Number of k-means clusters — the maximum number of representative
    /// intervals that will be simulated.
    pub clusters: usize,
    /// Warm-up prefix: that many accesses immediately preceding a
    /// representative interval are simulated first (populating cache
    /// state) without counting their misses. Clipped at the start of the
    /// trace.
    pub warmup: usize,
    /// Seed for the deterministic k-means initialisation.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self { interval_accesses: 8192, clusters: 48, warmup: 8192, seed: 0x5A3B_1E5D_0C0F_FEE1 }
    }
}

impl SamplingConfig {
    /// Validates the configuration, returning the first offending field
    /// and its requirement.
    ///
    /// # Errors
    ///
    /// `(field, requirement)` for a zero interval size or cluster count.
    pub fn validate(&self) -> Result<(), (&'static str, &'static str)> {
        if self.interval_accesses == 0 {
            return Err(("sampling.interval_accesses", "must be positive"));
        }
        if self.clusters == 0 {
            return Err(("sampling.clusters", "must be positive"));
        }
        Ok(())
    }
}

// The evaluator fan-out moves sampling state across scoped worker
// threads; keep that guarantee explicit (the same contract mhe-cache
// states for its simulators).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SamplingConfig>();
    assert_send_sync::<SampledSim>();
    assert_send_sync::<SamplePlan>();
    assert_send_sync::<RepWindow>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SamplingConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_fields_are_rejected() {
        let bad = SamplingConfig { interval_accesses: 0, ..Default::default() };
        assert_eq!(bad.validate().unwrap_err().0, "sampling.interval_accesses");
        let bad = SamplingConfig { clusters: 0, ..Default::default() };
        assert_eq!(bad.validate().unwrap_err().0, "sampling.clusters");
    }
}
