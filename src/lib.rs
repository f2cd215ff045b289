//! **mhe** — Memory-Hierarchy Evaluation for embedded VLIW systems.
//!
//! A from-scratch Rust reproduction of Abraham & Mahlke, *Automatic and
//! Efficient Evaluation of Memory Hierarchies for Embedded Systems*
//! (HPL-1999-132 / MICRO-32, 1999).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`workload`] | `mhe-workload` | program IR, synthetic benchmarks, execution engine |
//! | [`vliw`] | `mhe-vliw` | machine descriptions, scheduler, instruction formats, assembler, linker |
//! | [`trace`] | `mhe-trace` | address-trace generation, dilated traces |
//! | [`cache`] | `mhe-cache` | direct and single-pass cache simulation, memory-design geometry |
//! | [`model`] | `mhe-model` | trace parameters, the AHH analytic cache model |
//! | [`core`] | `mhe-core` | **the dilation model** and hierarchical evaluation |
//! | [`sampling`] | `mhe-sampling` | interval sampling: signatures, clustering, sampled simulation |
//! | [`spacewalk`] | `mhe-spacewalk` | Pareto sets, cost models, design-space walkers, the shared evaluation service |
//! | [`server`] | `mhe-server` | the sweep daemon wrapping the service for `spacewalker connect` |
//! | [`obs`] | `mhe-obs` | zero-dependency observability: phase timers, counters, run reports |
//!
//! For applications, `use mhe::prelude::*;` imports the common working
//! set in one line (see [`prelude`]).
//!
//! # The one-paragraph idea
//!
//! Exploring a VLIW-processor × cache design space by simulating every
//! combination is hopeless. Simulate caches **once**, on the traces of a
//! single narrow *reference* processor (and only once per distinct line
//! size, via single-pass simulation). Model every wider processor's
//! instruction trace as the reference trace with each basic block
//! stretched by the text-size ratio *d* ("dilation"). Then instruction-
//! cache misses under dilation equal the misses of the same cache with its
//! line size contracted by *d* — interpolated between feasible line sizes
//! using the AHH analytic cache model — and unified-cache misses follow by
//! scaling with modeled collision counts.
//!
//! # Example
//!
//! ```
//! use mhe::cache::CacheConfig;
//! use mhe::core::evaluator::{EvalConfig, ReferenceEvaluation};
//! use mhe::vliw::ProcessorKind;
//! use mhe::workload::Benchmark;
//!
//! let icache = CacheConfig::from_bytes(1024, 1, 32);
//! let eval = ReferenceEvaluation::for_benchmark(
//!     Benchmark::Unepic,
//!     &ProcessorKind::P1111.mdes(),
//!     EvalConfig { events: 20_000, ..EvalConfig::default() },
//!     &[icache],
//!     &[icache],
//!     &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
//! );
//! let d = eval.dilation_of(&ProcessorKind::P3221.mdes());
//! let est = eval.estimate_icache_misses(icache, d)?;
//! assert!(est > eval.icache_misses_measured(icache).unwrap() as f64);
//! # Ok::<(), mhe::core::MheError>(())
//! ```

#![warn(missing_docs)]

pub use mhe_cache as cache;
pub use mhe_core as core;
pub use mhe_model as model;
pub use mhe_obs as obs;
pub use mhe_sampling as sampling;
pub use mhe_server as server;
pub use mhe_spacewalk as spacewalk;
pub use mhe_trace as trace;
pub use mhe_vliw as vliw;
pub use mhe_workload as workload;

pub mod prelude {
    //! The recommended import for applications: the types that nearly
    //! every evaluation or exploration touches, in one line.
    //!
    //! ```
    //! use mhe::prelude::*;
    //!
    //! let cfg = EvalConfig::builder().events(20_000).build()?;
    //! let l1 = CacheConfig::from_bytes(1024, 1, 32);
    //! let eval = ReferenceEvaluation::for_benchmark(
    //!     Benchmark::Unepic,
    //!     &ProcessorKind::P1111.mdes(),
    //!     cfg,
    //!     &[l1],
    //!     &[l1],
    //!     &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
    //! );
    //! assert!(eval.icache_misses_measured(l1).is_some());
    //! # Ok::<(), MheError>(())
    //! ```

    pub use mhe_cache::{Cache, CacheConfig, MemoryDesign, Penalties, Policy};
    pub use mhe_core::evaluator::{EvalConfig, EvalConfigBuilder, ReferenceEvaluation};
    pub use mhe_core::{
        evaluate_system, worker_threads, EvalMetrics, FaultPlan, MheError, ParallelSweep,
        RetryPolicy, SamplingConfig, SamplingMetrics, SweepError, SystemDesign,
    };
    pub use mhe_obs::{ObsLevel, RunReport};
    pub use mhe_sampling::SampledSim;
    pub use mhe_spacewalk::{
        run_worker, walk_heuristic, walk_memory, walk_system, walk_system_with, CacheDesign,
        CacheSpace, Checkpointer, Client, ClientBuilder, Coordinator, EvalService, EvaluationCache,
        FleetConfig, FleetJob, HaltHandle, MemoryPoint, MetricKey, ParetoSet, PreparedWorker,
        RetrySchedule, Server, ServiceConfig, ServiceLimits, SystemPoint, SystemSpace,
        WorkerOptions,
    };
    pub use mhe_trace::{Access, StreamKind, TraceGenerator};
    pub use mhe_vliw::{Mdes, ProcessorKind};
    pub use mhe_workload::{Benchmark, Program};
}
