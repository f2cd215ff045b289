//! Parameterized VLIW back-end: the compiler, instruction-format,
//! assembler, and linker substrate of the design system.
//!
//! The paper's toolchain (Elcor compiler, co-synthesized instruction
//! formats, Eas assembler, Eld linker) is reproduced here in four stages:
//!
//! 1. [`mdes`] — parameterized machine descriptions, including the five
//!    processors of the experiments (`1111` … `6332`);
//! 2. [`sched`] — a list scheduler with spill insertion and load
//!    speculation;
//! 3. [`mod@format`] + [`asm`] — variable-length multi-template instruction
//!    format synthesis and greedy template-selection encoding;
//! 4. [`link`] — profile-guided layout, packet alignment, and address
//!    assignment.
//!
//! [`compile::Compiled`] bundles the pipeline; [`compile::text_dilation`]
//! computes the paper's dilation coefficient `d`.
//!
//! # Quick start
//!
//! ```
//! use mhe_vliw::{compile::{Compiled, text_dilation}, mdes::ProcessorKind};
//! use mhe_workload::Benchmark;
//!
//! let program = Benchmark::Epic.generate();
//! let reference = Compiled::build(&program, &ProcessorKind::P1111.mdes(), None);
//! let wide = Compiled::build(&program, &ProcessorKind::P6332.mdes(), None);
//! println!("text dilation d = {:.2}", text_dilation(&reference, &wide));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod compile;
pub mod format;
pub mod link;
pub mod mdes;
pub mod sched;

pub use compile::{text_dilation, Compiled};
pub use mdes::{Mdes, ProcessorKind};
