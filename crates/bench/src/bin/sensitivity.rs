//! Sensitivity: robustness of the headline results to the execution seed
//! (i.e. to the program's input data set).
//!
//! The paper fixes one data set per benchmark; this experiment checks that
//! our reproduced quantities — text dilation (input-independent by
//! construction) and the estimate-vs-actual tracking — are stable across
//! inputs, so none of the conclusions hinge on a lucky seed.

use mhe_bench::{l1_small, simulate_caches};
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_trace::StreamKind;
use mhe_vliw::ProcessorKind;
use mhe_workload::Benchmark;

fn main() {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    let b = Benchmark::Ghostscript;
    let target = ProcessorKind::P3221;
    let icache = l1_small();
    let events = 80_000;
    let seeds = [0xC0FF_EE01u64, 1, 2, 3, 4];

    println!("# Seed sensitivity — {b}, target {target}, {icache}\n");
    println!(
        "{:>12} {:>9} {:>12} {:>12} {:>9}",
        "seed", "dilation", "actual", "estimated", "error"
    );
    let mut errors = Vec::new();
    for seed in seeds {
        let eval = ReferenceEvaluation::for_benchmark(
            b,
            &ProcessorKind::P1111.mdes(),
            EvalConfig { events, seed, ..EvalConfig::default() },
            &[icache],
            &[],
            &[],
        );
        let d = eval.dilation_of(&target.mdes());
        let est = eval.estimate_icache_misses(icache, d).unwrap();
        let compiled = eval.compile_target(&target.mdes());
        let act = simulate_caches(
            eval.program(),
            &compiled,
            seed,
            events,
            &[(StreamKind::Instruction, icache)],
        )[0];
        let err = (est - act as f64) / act as f64;
        errors.push(err);
        println!("{seed:>12x} {d:>9.3} {act:>12} {est:>12.0} {:>8.1}%", 100.0 * err);
    }
    let mean = errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64;
    let spread = errors.iter().cloned().fold(f64::MIN, f64::max)
        - errors.iter().cloned().fold(f64::MAX, f64::min);
    println!("\nmean |error| {:.1}%, error spread {:.1} points", 100.0 * mean, 100.0 * spread);
    println!("(dilation varies only via profile-guided layout; estimates stay informative");
    println!(" across inputs — the conclusions do not hinge on one seed)");
}
