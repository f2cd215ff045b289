//! Shared experiment plumbing for the table/figure reproduction binaries.
//!
//! Every binary regenerates one table or figure of the paper's evaluation
//! section (see DESIGN.md §5 for the index). Common choices live here so
//! the experiments agree on cache configurations, processors, the dynamic
//! window, and trace seeds.

#![warn(missing_docs)]

use mhe_cache::{Cache, CacheConfig};
use mhe_spacewalk::cli;
use mhe_trace::{StreamKind, TraceGenerator};
use mhe_vliw::compile::Compiled;
use mhe_vliw::Mdes;
use mhe_workload::exec::BlockFrequencies;
use mhe_workload::ir::Program;
use mhe_workload::Benchmark;

/// Seed used by every experiment (branch decisions + data patterns).
pub const SEED: u64 = 0xC0FF_EE01;

/// Dynamic window in basic-block events; override with `MHE_EVENTS`
/// (parsed once, in [`mhe_core::env`]).
pub fn events() -> usize {
    mhe_core::env::events_or(200_000)
}

/// Rejects an invalid `MHE_THREADS`, `MHE_EVENTS` or `MHE_RETRIES` before
/// any work starts, by [`mhe_core::env::check`]: prints `bin: ` and the
/// one-line reason to stderr and exits with [`mhe_core::EXIT_BAD_CONFIG`].
/// Every binary calls it first, so a typo never silently runs the default.
pub fn check_env(bin: &str) {
    if let Err(message) = mhe_core::env::check(|var| std::env::var(var).ok()) {
        eprintln!("{bin}: {message}");
        std::process::exit(i32::from(mhe_core::EXIT_BAD_CONFIG));
    }
}

/// Strips the `--obs` / `--obs-json` flags (the [`cli::OBS`] and
/// [`cli::OBS_JSON`] rows of the knob table) from a binary's argument
/// list, selecting the corresponding observability sink. The flags mirror
/// the `MHE_OBS` environment variable; an explicit flag wins over the
/// environment.
pub fn obs_from_args(args: &mut Vec<String>) {
    let mut level = None;
    args.retain(|a| {
        if *a == cli::OBS.flag {
            level = Some(mhe_obs::ObsLevel::Text);
        } else if *a == cli::OBS_JSON.flag {
            level = Some(mhe_obs::ObsLevel::Json);
        } else {
            return true;
        }
        false
    });
    if let Some(level) = level {
        mhe_obs::set_level(level);
    }
}

/// Emits a [`mhe_obs::RunReport`] covering everything recorded since
/// `before` to the configured sink; a no-op with observability off.
pub fn emit_obs_report(label: &str, before: &mhe_obs::Snapshot) {
    if mhe_obs::enabled() {
        mhe_obs::RunReport::since(label, mhe_core::worker_threads(), before).emit();
    }
}

/// The paper's small L1 configuration: 1 KB direct-mapped, 32-byte lines.
pub fn l1_small() -> CacheConfig {
    CacheConfig::from_bytes(1024, 1, 32)
}

/// The paper's large L1 configuration: 16 KB 2-way, 32-byte lines.
pub fn l1_large() -> CacheConfig {
    CacheConfig::from_bytes(16 * 1024, 2, 32)
}

/// The paper's small unified configuration: 16 KB 2-way, 64-byte lines.
pub fn l2_small() -> CacheConfig {
    CacheConfig::from_bytes(16 * 1024, 2, 64)
}

/// The paper's large unified configuration: 128 KB 4-way, 64-byte lines.
pub fn l2_large() -> CacheConfig {
    CacheConfig::from_bytes(128 * 1024, 4, 64)
}

/// Simulates several caches over *one* pass of a compiled target's trace.
///
/// Each entry pairs a stream filter with a cache; instruction caches see
/// only instruction references, data caches only loads/stores, unified
/// caches everything. Returns per-cache miss counts in input order.
pub fn simulate_caches(
    program: &Program,
    compiled: &Compiled,
    seed: u64,
    events: usize,
    plan: &[(StreamKind, CacheConfig)],
) -> Vec<u64> {
    let mut caches: Vec<(StreamKind, Cache)> =
        plan.iter().map(|&(k, c)| (k, Cache::new(c))).collect();
    for a in TraceGenerator::new(program, compiled, seed).with_event_limit(events) {
        for (kind, cache) in &mut caches {
            if kind.admits(a.kind) {
                cache.access(a.addr);
            }
        }
    }
    caches.iter().map(|(_, c)| c.stats().misses).collect()
}

/// Like [`simulate_caches`] but over a dilated reference trace.
pub fn simulate_caches_dilated(
    program: &Program,
    reference: &Compiled,
    d: f64,
    seed: u64,
    events: usize,
    plan: &[(StreamKind, CacheConfig)],
) -> Vec<u64> {
    let mut caches: Vec<(StreamKind, Cache)> =
        plan.iter().map(|&(k, c)| (k, Cache::new(c))).collect();
    for a in
        mhe_trace::DilatedTraceGenerator::new(program, reference, d, seed).with_event_limit(events)
    {
        for (kind, cache) in &mut caches {
            if kind.admits(a.kind) {
                cache.access(a.addr);
            }
        }
    }
    caches.iter().map(|(_, c)| c.stats().misses).collect()
}

/// Formats a ratio with two decimals, the paper's table style.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Maps an I/O error onto the exit-status convention the workspace
/// binaries share: **3** for corrupt input (CRC mismatch, bad framing,
/// truncation), **4** for storage exhaustion mid-write, **1** otherwise.
/// Status 2 (bad configuration) is decided at argument-parsing time, not
/// from an error kind.
pub fn io_exit_code(e: &std::io::Error) -> u8 {
    match e.kind() {
        std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof => 3,
        std::io::ErrorKind::StorageFull => 4,
        _ => 1,
    }
}

/// Looks up a benchmark by its paper-table name (case-insensitive),
/// e.g. `085.gcc` or `unepic`.
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    Benchmark::ALL.into_iter().find(|b| b.name().eq_ignore_ascii_case(name))
}

/// Compiles a program exactly as `ReferenceEvaluation::build` compiles its
/// reference: with the layout profile from [`SEED`] over the standard
/// 200 000-event profiling window. Traces generated from this compilation
/// are therefore bit-identical to the evaluator's reference trace.
pub fn reference_compilation(program: &Program, mdes: &Mdes) -> Compiled {
    let freq = BlockFrequencies::profile(program, SEED, 200_000);
    Compiled::build(program, mdes, Some(&freq))
}
