//! Replays captured trace files through the evaluator and checks the
//! results against the build from the generated trace, bit for bit.
//!
//! For each benchmark three evaluations run over the same cache design
//! space: the normal build from the generated trace, a `.mtr` replay,
//! and a `.din` replay (both files captured first from that build). The
//! replayed miss maps and dilated estimates must match the generated ones
//! exactly; the report also shows the replay metrics — bytes read, decode
//! throughput, and how much smaller the binary trace is than `din` text
//! (the format targets at least a 4x reduction).
//!
//! Usage: `trace_replay [--obs|--obs-json] [BENCHMARK ...]` (paper-table
//! names, case-insensitive; `all` for every benchmark; default `085.gcc`
//! and `unepic`). Files go to `$TMPDIR/mhe_traces`; the dynamic window
//! follows `MHE_EVENTS`, the worker pool `MHE_THREADS`, and the
//! observability sink `MHE_OBS` (or the flags). With a sink enabled, one
//! `RunReport` per benchmark goes to stderr covering the trace-gen,
//! encode, decode, simulate, and estimate phases.
//!
//! Failures print a one-line diagnostic and exit with the workspace
//! convention: 2 bad arguments, 3 corrupt input (a `.mtr`/`.din` file
//! failing CRC or framing checks), 4 storage exhaustion.

use mhe_cache::CacheConfig;
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_vliw::{Mdes, ProcessorKind};
use mhe_workload::Benchmark;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

fn spaces() -> (Vec<CacheConfig>, Vec<CacheConfig>, Vec<CacheConfig>) {
    let l1 = vec![mhe_bench::l1_small(), mhe_bench::l1_large()];
    (l1.clone(), l1, vec![mhe_bench::l2_small(), mhe_bench::l2_large()])
}

/// Bitwise comparison of everything a replayed evaluation answers with:
/// the three measured miss maps and a dilated estimate per stream.
fn identical(a: &ReferenceEvaluation, b: &ReferenceEvaluation) -> bool {
    let est = |e: &ReferenceEvaluation| {
        (
            e.estimate_icache_misses(mhe_bench::l1_small(), 2.0).unwrap().to_bits(),
            e.estimate_ucache_misses(mhe_bench::l2_small(), 2.0).unwrap().to_bits(),
        )
    };
    a.imeasured() == b.imeasured()
        && a.dmeasured() == b.dmeasured()
        && a.umeasured() == b.umeasured()
        && est(a) == est(b)
}

fn replay(
    benchmark: Benchmark,
    mdes: &Mdes,
    cfg: EvalConfig,
    path: &Path,
) -> std::io::Result<ReferenceEvaluation> {
    let (ic, dc, uc) = spaces();
    ReferenceEvaluation::replay_file(benchmark.generate(), mdes, cfg, path, &ic, &dc, &uc)
}

fn main() -> std::process::ExitCode {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_replay: {e}");
            std::process::ExitCode::from(mhe_bench::io_exit_code(&e))
        }
    }
}

fn run() -> std::io::Result<()> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    mhe_bench::obs_from_args(&mut args);
    let benches: Vec<Benchmark> = if args.iter().any(|a| a == "all") {
        Benchmark::ALL.to_vec()
    } else if args.is_empty() {
        vec![Benchmark::Gcc, Benchmark::Unepic]
    } else {
        args.iter()
            .map(|a| {
                mhe_bench::benchmark_by_name(a).unwrap_or_else(|| {
                    eprintln!("unknown benchmark {a:?}; known: all, {:?}", Benchmark::ALL);
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let dir = std::env::temp_dir().join("mhe_traces");
    std::fs::create_dir_all(&dir)?;
    let events = mhe_bench::events();
    let mdes = ProcessorKind::P1111.mdes();
    let cfg = EvalConfig { events, seed: mhe_bench::SEED, ..EvalConfig::default() };
    let (ic, dc, uc) = spaces();

    println!("# Trace replay vs generated evaluation (events = {events})\n");
    let mut all_identical = true;
    let mut worst_ratio = f64::INFINITY;
    for b in benches {
        let obs_before = mhe_obs::Snapshot::now();
        let mem = ReferenceEvaluation::build(b.generate(), &mdes, cfg, &ic, &dc, &uc);
        let stem = b.name().replace('.', "_");
        let mtr_path = dir.join(format!("{stem}.mtr"));
        let din_path = dir.join(format!("{stem}.din"));
        mem.capture_mtr(BufWriter::new(File::create(&mtr_path)?))?;
        mem.capture_din(File::create(&din_path)?)?;

        println!("## {} ({} accesses)", b.name(), mem.metrics().trace_len);
        println!("  generated: {}", mem.metrics());
        for path in [&mtr_path, &din_path] {
            let r = replay(b, &mdes, cfg, path)?;
            let same = identical(&mem, &r);
            all_identical &= same;
            let replayed = r.metrics().replay.expect("file replay records metrics");
            println!("  replay {:>3}: bit-identical = {same}; {replayed}", ext(path));
            if ext(path) == "mtr" {
                worst_ratio = worst_ratio.min(replayed.compression_ratio());
            }
        }
        mhe_bench::emit_obs_report(&format!("trace_replay/{}", b.name()), &obs_before);
        println!();
    }
    println!("all replays bit-identical to generated evaluation: {all_identical}");
    println!(
        "worst mtr size reduction vs din: {worst_ratio:.2}x (target >= 4x: {})",
        if worst_ratio >= 4.0 { "PASS" } else { "MISS" }
    );
    if !all_identical {
        eprintln!("[trace_replay] WARNING: a replay diverged from the generated evaluation!");
        std::process::exit(1);
    }
    Ok(())
}

fn ext(path: &Path) -> &str {
    path.extension().and_then(|e| e.to_str()).unwrap_or("")
}
