//! Address-trace generation for memory-hierarchy evaluation.
//!
//! Reproduces the paper's trace-generation pipeline: the machine-independent
//! event trace (from `mhe-workload`'s execution engine) is combined with a
//! processor's linked binary (from `mhe-vliw`) to produce instruction, data,
//! or joint address traces ([`gen::TraceGenerator`]). The module [`dilate`]
//! additionally constructs *dilated* reference traces — the synthetic
//! ground truth the paper uses to isolate the errors of its dilation model.
//!
//! Traces interchange in two formats: the classic `din` text ([`io`])
//! and the compact streaming binary `.mtr` codec ([`codec`]), both
//! consumable in bounded memory for capture/replay workflows.
//!
//! All addresses are 4-byte-word addresses.
//!
//! # Quick start
//!
//! ```
//! use mhe_trace::{access::StreamKind, gen::TraceGenerator};
//! use mhe_vliw::{compile::Compiled, mdes::ProcessorKind};
//! use mhe_workload::Benchmark;
//!
//! let program = Benchmark::Unepic.generate();
//! let compiled = Compiled::build(&program, &ProcessorKind::P1111.mdes(), None);
//! let icache_trace = TraceGenerator::new(&program, &compiled, 42)
//!     .stream(StreamKind::Instruction)
//!     .take(10_000);
//! assert_eq!(icache_trace.count(), 10_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod access;
pub mod codec;
pub mod dilate;
pub mod gen;
pub mod integrity;
pub mod io;
pub mod stats;

pub use access::{Access, AccessKind, StreamKind};
pub use codec::{CodecStats, FrameEntry, TraceReader, TraceWriter};
pub use dilate::DilatedTraceGenerator;
pub use gen::TraceGenerator;
pub use integrity::{crc32, Crc32, Crc32Reader, Crc32Writer};
