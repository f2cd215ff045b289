//! The dilation model: efficient memory-hierarchy evaluation for VLIW
//! design-space exploration.
//!
//! This crate is the reproduction of the paper's primary contribution. The
//! problem: evaluating every (processor, cache) pair in a large embedded
//! design space by trace simulation is infeasible. The solution evaluates
//! caches **only on a single reference processor's traces** and models every
//! other processor's trace as a *dilated* reference trace, where each
//! instruction basic block stretches by the text-size ratio `d`:
//!
//! * [`dilation`] — text dilation and per-block dilation distributions
//!   (Figure 5);
//! * [`icache`] — Lemma 1 (dilation ⇔ line contraction) and the
//!   AHH-collision interpolation of Eq. 4.12;
//! * [`ucache`] — the mixed dilated/undilated extrapolation of
//!   Eqs. 4.13–4.15;
//! * [`evaluator`] — measure-once / estimate-everywhere orchestration,
//!   plus the ground-truth helpers (actual and dilated-trace simulation)
//!   used to validate the model;
//! * [`system`] — hierarchical whole-system evaluation (processor cycles +
//!   cache stalls).
//!
//! # Quick start
//!
//! ```
//! use mhe_cache::CacheConfig;
//! use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
//! use mhe_vliw::mdes::ProcessorKind;
//! use mhe_workload::Benchmark;
//!
//! let icache = CacheConfig::from_bytes(1024, 1, 32);
//! let dcache = CacheConfig::from_bytes(1024, 1, 32);
//! let ucache = CacheConfig::from_bytes(16 * 1024, 2, 64);
//! let eval = ReferenceEvaluation::for_benchmark(
//!     Benchmark::Unepic,
//!     &ProcessorKind::P1111.mdes(),
//!     EvalConfig { events: 20_000, ..EvalConfig::default() },
//!     &[icache], &[dcache], &[ucache],
//! );
//!
//! // Misses of the wide 6332 processor — no simulation of its trace:
//! let d = eval.dilation_of(&ProcessorKind::P6332.mdes());
//! let misses = eval.estimate_icache_misses(icache, d)?;
//! assert!(misses > 0.0);
//! # Ok::<(), mhe_core::MheError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accel;
pub mod auth;
pub mod bank;
pub mod cancel;
pub mod dilation;
pub mod env;
pub mod error;
pub mod evaluator;
pub mod fault;
pub mod icache;
pub mod metrics;
pub mod parallel;
pub mod system;
pub mod ucache;

pub use accel::{accelerated_cycles, Accelerator, KernelMap};
pub use bank::{FeatureKey, ReferenceBank};
pub use cancel::CancelToken;
pub use dilation::{text_dilation, DilationDistribution};
pub use env::RetryPolicy;
pub use error::{
    MheError, EXIT_BAD_CONFIG, EXIT_CANCELLED, EXIT_CORRUPT_INPUT, EXIT_SERVER_UNAVAILABLE,
    EXIT_UNAUTHORIZED, EXIT_WORKER_FAILURE,
};
pub use evaluator::{
    actual_misses, dilated_misses, EvalConfig, EvalConfigBuilder, ReferenceEvaluation, TargetFacts,
};
pub use fault::{Fault, FaultPlan, FaultyReader, FaultyWriter};
pub use metrics::{EvalMetrics, PassMetrics, SamplingMetrics};
pub use mhe_sampling::SamplingConfig;
pub use parallel::{worker_threads, ParallelSweep, SweepError, SweepMetrics};
pub use system::{
    evaluate_system, processor_cycles, profile_cycles, SystemDesign, SystemPerformance,
};
