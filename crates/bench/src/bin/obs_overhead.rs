//! Asserts that observability probes are close to free.
//!
//! The contract of `mhe-obs` is that an *enabled* probe costs a couple of
//! atomic adds at batch granularity, and a *disabled* probe costs one
//! relaxed load plus a branch. This binary measures the trace-replay
//! workload — decode a captured `.mtr` trace and run the measured cache
//! simulations, the probe-densest path in the workspace — with probes
//! disabled and with probes recording, and fails (exit 1) if recording
//! adds more than the overhead budget. Since a disabled probe does
//! strictly less work than a recording one, the disabled-probe overhead
//! is bounded by the same budget.
//!
//! Method: the two modes alternate for `RUNS` rounds and the minimum
//! wall time of each is compared (minimum, not mean: the minimum is the
//! least-noise estimate of the true cost on a shared machine). A small
//! absolute floor keeps sub-millisecond jitter from failing short runs.
//!
//! Usage: `obs_overhead` — the dynamic window follows `MHE_EVENTS`.

use mhe_cache::CacheConfig;
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_vliw::Mdes;
use mhe_workload::Benchmark;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::{Duration, Instant};

/// Alternating measurement rounds per mode.
const RUNS: usize = 5;
/// Relative overhead budget for recording probes.
const BUDGET: f64 = 0.02;
/// Absolute slack absorbing scheduler jitter on short runs.
const FLOOR: Duration = Duration::from_millis(5);

fn spaces() -> (Vec<CacheConfig>, Vec<CacheConfig>, Vec<CacheConfig>) {
    let l1 = vec![mhe_bench::l1_small(), mhe_bench::l1_large()];
    (l1.clone(), l1, vec![mhe_bench::l2_small(), mhe_bench::l2_large()])
}

fn replay_once(b: Benchmark, mdes: &Mdes, cfg: EvalConfig, path: &Path) -> Duration {
    let (ic, dc, uc) = spaces();
    let start = Instant::now();
    let eval = ReferenceEvaluation::replay_file(b.generate(), mdes, cfg, path, &ic, &dc, &uc)
        .expect("replay of a just-captured trace");
    let wall = start.elapsed();
    assert!(eval.metrics().replay.is_some(), "file replay records metrics");
    wall
}

fn main() -> std::io::Result<()> {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    let events = mhe_bench::events();
    let mdes = mhe_vliw::ProcessorKind::P1111.mdes();
    // One thread: the probe cost per access is what is under test, and
    // parallel scheduling noise would drown it.
    let cfg = EvalConfig { events, seed: mhe_bench::SEED, threads: 1, ..EvalConfig::default() };
    let b = Benchmark::Gcc;

    let dir = std::env::temp_dir().join("mhe_traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("obs_overhead_085_gcc.mtr");
    let (ic, dc, uc) = spaces();
    let mem = ReferenceEvaluation::build(b.generate(), &mdes, cfg, &ic, &dc, &uc);
    mem.capture_mtr(BufWriter::new(File::create(&path)?))?;

    println!("# Observability probe overhead (trace replay, events = {events})\n");
    // Warm-up: touch the file cache and the allocator before timing.
    let _ = replay_once(b, &mdes, cfg, &path);

    let mut off = Duration::MAX;
    let mut on = Duration::MAX;
    for _ in 0..RUNS {
        mhe_obs::set_level(mhe_obs::ObsLevel::Off);
        off = off.min(replay_once(b, &mdes, cfg, &path));
        mhe_obs::set_level(mhe_obs::ObsLevel::Json);
        on = on.min(replay_once(b, &mdes, cfg, &path));
        mhe_obs::reset();
    }
    mhe_obs::set_level(mhe_obs::ObsLevel::Off);

    let overhead = on.as_secs_f64() / off.as_secs_f64().max(1e-9) - 1.0;
    let budget = Duration::from_secs_f64(off.as_secs_f64() * BUDGET) + FLOOR;
    let pass = on <= off + budget;
    println!("  probes off (min of {RUNS}): {off:>9.3?}");
    println!("  probes on  (min of {RUNS}): {on:>9.3?}");
    println!(
        "  overhead: {:.2}% (budget {:.0}% + {FLOOR:?} floor): {}",
        overhead * 100.0,
        BUDGET * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        eprintln!("[obs_overhead] FAIL: recording probes exceed the overhead budget");
        std::process::exit(1);
    }
    Ok(())
}
