//! Analytic cache modeling: trace parameters and the AHH model.
//!
//! This crate reproduces the paper's `TraceModeler` and its use of the
//! analytic cache model of Agarwal, Horowitz and Hennessy (the "AHH
//! model"):
//!
//! * [`params`] — granule-based extraction of the three basic trace
//!   parameters `u(1)`, `p1`, `lav`, for single-component traces and for
//!   the instruction/data split of unified traces;
//! * [`ahh`] — derived quantities `p2`, `u(L)`, `P(L, a)`, collisions
//!   `Coll(S, A, L)` (with the paper's numerically stable fallback series),
//!   and the Lemma-2 linear interpolation used to evaluate infeasible line
//!   sizes;
//! * [`math`] — log-gamma / log-binomial machinery.
//!
//! # Quick start
//!
//! ```
//! use mhe_model::{ahh, params::TraceParams};
//!
//! // Characterize a streaming trace in one pass...
//! let trace = (0..100_000u64).map(|i| i % 20_000);
//! let p = TraceParams::measure(trace, 10_000);
//!
//! // ...then ask the model about any cache geometry.
//! let u8 = ahh::unique_lines(&p, 8.0, ahh::UniqueLineModel::RunBased);
//! let coll = ahh::collisions(u8, 64, 2);
//! assert!(coll >= 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ahh;
pub mod math;
pub mod params;

pub use ahh::{collisions, unique_lines, UniqueLineModel};
pub use params::{
    ITraceModeler, TraceModeler, TraceParams, UTraceModeler, UnifiedParams, I_GRANULE, U_GRANULE,
};
