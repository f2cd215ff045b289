//! Figure 6: estimated vs dilated misses as a function of dilation, for
//! 085.gcc.
//!
//! Left panel: instruction-cache misses (1 KB direct-mapped and 16 KB
//! 2-way) on traces dilated by d ∈ [1, 4], both simulated ("dilated") and
//! analytically estimated. Right panel: the same for the 16 KB and 128 KB
//! unified caches. The paper finds the instruction-cache interpolation
//! tracks closely over the whole range, while the small unified cache's
//! extrapolation degrades past d ≈ 2.
//!
//! Each dilation point needs its own dilated-trace simulation; the points
//! are independent, so they fan out over a [`ParallelSweep`] and print in
//! dilation order.

use mhe_bench::{events, l1_large, l1_small, l2_large, l2_small, simulate_caches_dilated, SEED};
use mhe_cache::CacheConfig;
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_core::parallel::ParallelSweep;
use mhe_trace::StreamKind;
use mhe_vliw::ProcessorKind;
use mhe_workload::Benchmark;

fn main() {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    let n = events();
    let b = Benchmark::Gcc;
    let eval = ReferenceEvaluation::for_benchmark(
        b,
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: n, seed: SEED, ..EvalConfig::default() },
        &[l1_small(), l1_large()],
        &[],
        &[l2_small(), l2_large()],
    );
    let plan: Vec<(StreamKind, CacheConfig)> = vec![
        (StreamKind::Instruction, l1_small()),
        (StreamKind::Instruction, l1_large()),
        (StreamKind::Unified, l2_small()),
        (StreamKind::Unified, l2_large()),
    ];

    println!("# Figure 6: Estimated and dilated misses vs dilation — {}\n", b.name());
    println!(
        "{:>5} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "d",
        "I1K-dil",
        "I1K-est",
        "I16K-dil",
        "I16K-est",
        "U16K-dil",
        "U16K-est",
        "U128K-dil",
        "U128K-est"
    );
    let ds: Vec<f64> = (0..=12).map(|i| 1.0 + 0.25 * f64::from(i)).collect();
    let (rows, sweep) = ParallelSweep::new().map_timed(ds, |d| {
        let dil = simulate_caches_dilated(eval.program(), eval.reference(), d, SEED, n, &plan);
        let est = [
            eval.estimate_icache_misses(l1_small(), d).unwrap(),
            eval.estimate_icache_misses(l1_large(), d).unwrap(),
            eval.estimate_ucache_misses(l2_small(), d).unwrap(),
            eval.estimate_ucache_misses(l2_large(), d).unwrap(),
        ];
        (d, dil, est)
    });
    for (d, dil, est) in rows {
        println!(
            "{:>5.2} {:>11} {:>11.0} {:>11} {:>11.0} {:>11} {:>11.0} {:>11} {:>11.0}",
            d, dil[0], est[0], dil[1], est[1], dil[2], est[2], dil[3], est[3]
        );
    }
    println!("\npaper: instruction-cache estimates track the dilated misses closely over");
    println!("the whole range; the 16 KB unified cache tracks only up to d ~ 2.");
    eprintln!("[fig6] reference evaluation: {}", eval.metrics());
    eprintln!("[fig6] dilation sweep: {sweep}");
}
