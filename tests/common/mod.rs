//! Shared setup for the integration-test suites.
//!
//! The policy-differential, sampling-accuracy, and daemon suites all
//! start from the same ingredients — a reference instruction trace, a
//! configured evaluation, a small walkable spec — and diverged copies of
//! that setup are exactly how differential harnesses drift apart. Each
//! helper lives here once; each suite binds its own constants (events,
//! grids, budgets) and passes them in.

// Each integration test is its own crate, so no single suite uses every
// helper here.
#![allow(dead_code)]

use mhe::prelude::*;
use mhe::trace::{StreamKind, TraceGenerator};
use mhe::vliw::compile::Compiled;

/// The workspace-wide deterministic seed (`EvalConfig::default().seed`).
pub const SEED: u64 = 0xC0FF_EE01;

/// The reference instruction-address trace of `b` on the P1111 reference
/// processor: `events` scheduler events, default seed.
pub fn instruction_trace(b: Benchmark, events: usize) -> Vec<u64> {
    let program = b.generate();
    let compiled = Compiled::build(&program, &ProcessorKind::P1111.mdes(), None);
    TraceGenerator::new(&program, &compiled, SEED)
        .stream(StreamKind::Instruction)
        .take(events)
        .map(|a| a.addr)
        .collect()
}

/// Builds one reference evaluation of `b` under `policy`, sampled or
/// exact, over the caller's (icache, dcache, ucache) grids.
pub fn build_eval(
    b: Benchmark,
    policy: Policy,
    threads: usize,
    events: usize,
    sampling: Option<SamplingConfig>,
    grids: (Vec<CacheConfig>, Vec<CacheConfig>, Vec<CacheConfig>),
) -> ReferenceEvaluation {
    let (ic, dc, uc) = grids;
    let mut builder = EvalConfig::builder().events(events).threads(threads).policy(policy);
    if let Some(s) = sampling {
        builder = builder.sampling(s);
    }
    let cfg = builder.build().expect("harness config is valid");
    ReferenceEvaluation::for_benchmark(b, &ProcessorKind::P1111.mdes(), cfg, &ic, &dc, &uc)
}

/// A small but non-trivial walkable spec: two processors, two sizes and
/// two associativities of I$, split/unified caches — enough structure
/// for a multi-row frontier while staying debug-build fast.
pub fn demo_spec_text(benchmark: &str, events: usize) -> String {
    format!(
        "[processors]\n\
         kinds = 1111 3221\n\
         \n\
         [icache]\n\
         sizes_kb = 1 4\n\
         assocs = 1 2\n\
         line_bytes = 32\n\
         ports = 1\n\
         \n\
         [dcache]\n\
         sizes_kb = 1 4\n\
         assocs = 1\n\
         line_bytes = 32\n\
         ports = 1\n\
         \n\
         [ucache]\n\
         sizes_kb = 16 64\n\
         assocs = 2\n\
         line_bytes = 64\n\
         ports = 1\n\
         \n\
         [eval]\n\
         benchmark = {benchmark}\n\
         events = {events}\n\
         l1_miss = 10\n\
         l2_miss = 50\n"
    )
}

/// Serializes a test against every sibling that arms the process-global
/// fault plan, which fires inside *any* walk or frame exchange in the
/// process. The plan disarms on unwind, so a poisoned lock is still good.
pub fn fault_serial() -> std::sync::MutexGuard<'static, ()> {
    mhe::core::fault::injection_lock().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
