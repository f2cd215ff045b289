//! Captures benchmark reference traces to `.mtr` (and `.din`) files.
//!
//! For each requested benchmark the reference trace — exactly the access
//! sequence `ReferenceEvaluation::build` measures — is streamed once into
//! a compact `.mtr` binary file and once into classic `din` text, and the
//! codec's accounting is reported: trace length, both file sizes, the
//! compression ratio, and bytes per access.
//!
//! Usage: `trace_capture [--obs|--obs-json] [BENCHMARK ...] [DIR]`
//!
//! Arguments naming a benchmark (paper-table names, e.g. `085.gcc`,
//! `unepic`; case-insensitive) select what to capture; any other argument
//! is taken as the output directory. Defaults: every benchmark, into
//! `$TMPDIR/mhe_traces`. The dynamic window follows `MHE_EVENTS`.
//!
//! Failures print a one-line diagnostic and exit with the workspace
//! convention: 3 for corrupt input, 4 for storage exhaustion.

use mhe_trace::codec::TraceWriter;
use mhe_trace::io::write_din;
use mhe_trace::TraceGenerator;
use mhe_vliw::ProcessorKind;
use mhe_workload::Benchmark;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File stem for a benchmark (paper names contain dots: `085.gcc`).
fn stem(b: Benchmark) -> String {
    b.name().replace('.', "_")
}

fn main() -> std::process::ExitCode {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_capture: {e}");
            std::process::ExitCode::from(mhe_bench::io_exit_code(&e))
        }
    }
}

fn run() -> std::io::Result<()> {
    let mut dir = std::env::temp_dir().join("mhe_traces");
    let mut benches: Vec<Benchmark> = Vec::new();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    mhe_bench::obs_from_args(&mut args);
    for arg in args {
        match mhe_bench::benchmark_by_name(&arg) {
            Some(b) => benches.push(b),
            None => dir = PathBuf::from(arg),
        }
    }
    if benches.is_empty() {
        benches = Benchmark::ALL.to_vec();
    }
    std::fs::create_dir_all(&dir)?;
    let events = mhe_bench::events();
    let mdes = ProcessorKind::P1111.mdes();

    println!("# Trace capture (events = {events}, dir = {})\n", dir.display());
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>7} {:>9} {:>9}",
        "benchmark", "accesses", "din B", "mtr B", "ratio", "B/access", "wall"
    );
    for b in benches {
        let obs_before = mhe_obs::Snapshot::now();
        let start = Instant::now();
        let program = b.generate();
        let compiled = mhe_bench::reference_compilation(&program, &mdes);
        let trace =
            || TraceGenerator::new(&program, &compiled, mhe_bench::SEED).with_event_limit(events);

        let mtr_path = dir.join(format!("{}.mtr", stem(b)));
        let mut w = TraceWriter::new(BufWriter::new(File::create(&mtr_path)?))?;
        w.write_all(trace())?;
        let stats = w.finish()?;
        write_din(File::create(dir.join(format!("{}.din", stem(b))))?, trace())?;

        println!(
            "{:<12} {:>10} {:>12} {:>12} {:>6.2}x {:>9.2} {:>8.3?}",
            b.name(),
            stats.accesses,
            stats.din_bytes,
            stats.bytes,
            stats.compression_ratio(),
            stats.bytes_per_access(),
            start.elapsed()
        );
        debug_assert_eq!(file_len(&mtr_path), stats.bytes, "codec byte accounting");
        mhe_bench::emit_obs_report(&format!("trace_capture/{}", b.name()), &obs_before);
    }
    println!("\nReplay captured files through the evaluator with: trace_replay [BENCHMARK]");
    Ok(())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}
