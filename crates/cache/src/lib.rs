//! Cache simulation substrate: direct and single-pass.
//!
//! Two engines reproduce the paper's memory-simulation toolchain:
//!
//! * [`sim::Cache`] — a plain set-associative simulator (the oracle),
//!   generic over the replacement [`Policy`];
//! * [`single_pass::SinglePassSim`] — the Cheetah role: every configuration
//!   sharing a line size and policy in one pass over the trace (flat LRU
//!   stacks, bounded FIFO rings whose memory does not grow with the
//!   trace's footprint, or a direct fallback grid), each stopping a
//!   reference at the first set count where its block is its set's last.
//!
//! [`hierarchy::MemoryDesign`] names a whole L1I/L1D/L2 geometry and
//! [`hierarchy::Penalties`] its miss penalties.
//!
//! All addresses are 4-byte-word addresses; line sizes are powers of two.
//!
//! # Quick start
//!
//! ```
//! use mhe_cache::single_pass::SinglePassSim;
//! // Simulate every (sets, assoc) combination with 32-byte lines at once.
//! let mut sim = SinglePassSim::new(8, &[32, 64, 128, 256], 4);
//! sim.run((0..100_000u64).map(|i| (i * 3) % 8192));
//! let m = sim.stats(64, 2);
//! assert!(m.miss_rate() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod hierarchy;
pub mod policy;
pub mod sim;
pub mod single_pass;

pub use config::CacheConfig;
pub use hierarchy::{MemoryDesign, Penalties};
pub use policy::{Policy, ReplacementPolicy, SetEngine};
pub use sim::{simulate, Cache, MissStats};
pub use single_pass::SinglePassSim;

// The parallel evaluation engine (mhe-core) moves simulator state across
// scoped worker threads; keep that guarantee explicit so a future field
// (an Rc, a raw pointer) can't silently break the fan-out.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SinglePassSim>();
    assert_send_sync::<Cache>();
    assert_send_sync::<CacheConfig>();
    assert_send_sync::<MissStats>();
    assert_send_sync::<Policy>();
    assert_send_sync::<SetEngine>();
};
