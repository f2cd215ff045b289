//! Design-space exploration: the spacewalker.
//!
//! Reproduces the paper's exploration layer (Figure 4's `Walkers` /
//! `Pareto` / `EvaluationCache` stack):
//!
//! * [`space`] — design-space specifications and enumeration;
//! * [`cost`] — cache/memory area models;
//! * [`pareto`] — Pareto-frontier accumulation;
//! * [`cache_db`] — typed [`MetricKey`]s in a sharded concurrent store
//!   with versioned binary persistence;
//! * [`walker`] — instruction/data/unified/memory/system walkers built on
//!   the dilation-model evaluator from `mhe-core`, fanning per-design
//!   evaluation out over worker threads with a deterministic merge;
//! * [`service`] — the shared `Send + Sync` evaluation service (warm
//!   sessions, scope-shared caches, admission control) plus the daemon
//!   wire protocol, server loop, and client used by `mhe-server` and
//!   `spacewalker connect`;
//! * [`fleet`] — the distributed walk: deterministic shard partition,
//!   coordinator with work-stealing leases and checkpointed merges, and
//!   the worker loop behind `spacewalker fleet`/`worker`;
//! * [`cli`] — the knob table: every flag of `spacewalker` and
//!   `mhe-server`, its `MHE_*` variable and its validator, written once.
//!
//! # Quick start
//!
//! ```no_run
//! use mhe_core::evaluator::EvalConfig;
//! use mhe_cache::Penalties;
//! use mhe_spacewalk::{cache_db::EvaluationCache, space::SystemSpace, walker};
//! use mhe_vliw::ProcessorKind;
//! use mhe_workload::Benchmark;
//!
//! let space = SystemSpace::paper_default();
//! let eval = walker::prepare_evaluation(
//!     Benchmark::Epic.generate(),
//!     &ProcessorKind::P1111.mdes(),
//!     EvalConfig::default(),
//!     &space,
//! );
//! let db = EvaluationCache::new();
//! let frontier = walker::walk_system(&eval, &space, Penalties::default(), &db)?;
//! for p in frontier.points() {
//!     println!("{}  cost={:.0}  cycles={:.0}", p.design.processor.name, p.cost, p.time);
//! }
//! # Ok::<(), mhe_core::MheError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache_db;
pub mod ckpt;
pub mod cli;
pub mod cost;
pub mod fleet;
pub mod heuristic;
pub mod pareto;
pub mod service;
pub mod space;
pub mod spec;
pub mod walker;

pub use cache_db::{dilation_millis, EvaluationCache, MetricKey};
pub use ckpt::Checkpointer;
pub use cost::{cache_area, CacheDesign};
pub use fleet::{
    run_worker, Coordinator, FleetConfig, FleetJob, FleetSummary, HaltHandle, PreparedWorker,
    WorkerOptions, WorkerOutcome,
};
pub use heuristic::{walk_heuristic, HeuristicResult};
pub use pareto::{ParetoPoint, ParetoSet};
pub use service::{
    client::{Client, ClientBuilder, ClientError, RetrySchedule},
    render_frontier, report_from,
    server::Server,
    AdmissionGate, EvalService, ServiceConfig, ServiceError, ServiceLimits,
};
pub use space::{CacheSpace, SystemSpace};
pub use walker::{walk_memory, walk_system, walk_system_with, MemoryPoint, SystemPoint};
