//! Ablations of the dilation model's design choices (DESIGN.md §6).
//!
//! 1. **Interpolation basis** — AHH-collision interpolation (Eq. 4.12) vs
//!    naive linear interpolation in the line size; the paper argues misses
//!    are "a very nonlinear function of line size".
//! 2. **`u(L)` model** — the run-based derivation vs the formula as printed
//!    (Eq. 4.5), both validated against dilated-trace simulation.
//! 3. **Granule size** — sensitivity of the estimates to the trace-modeler
//!    granule (the paper fixes 10k / 200k).
//!
//! Errors are reported against simulation of explicitly dilated traces
//! (isolating model error from the uniform-dilation assumption).

use mhe_bench::{events, simulate_caches_dilated, SEED};
use mhe_cache::CacheConfig;
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_core::icache::estimate_icache_misses_linear;
use mhe_model::ahh::UniqueLineModel;
use mhe_trace::StreamKind;
use mhe_vliw::ProcessorKind;
use mhe_workload::Benchmark;

fn mean_abs_err(errors: &[f64]) -> f64 {
    errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64
}

fn main() {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    let n = events();
    let b = Benchmark::Gcc;
    let dilations = [1.3, 1.7, 2.2, 2.8, 3.3];
    println!("# Ablation study — {} / d in {dilations:?}\n", b.name());

    // --- Ablations 1 & 2 on two regimes: a small cache the workload
    // saturates and a large cache with steady-state interference.
    let caches = [mhe_bench::l1_small(), mhe_bench::l1_large()];
    let base_eval = ReferenceEvaluation::for_benchmark(
        b,
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: n, seed: SEED, ..EvalConfig::default() },
        &caches,
        &[],
        &[],
    );
    let printed_eval = ReferenceEvaluation::for_benchmark(
        b,
        &ProcessorKind::P1111.mdes(),
        EvalConfig {
            events: n,
            seed: SEED,
            model: UniqueLineModel::PrintedAhh,
            ..EvalConfig::default()
        },
        &caches,
        &[],
        &[],
    );
    for icache in caches {
        let truth: Vec<f64> = dilations
            .iter()
            .map(|&d| {
                simulate_caches_dilated(
                    base_eval.program(),
                    base_eval.reference(),
                    d,
                    SEED,
                    n,
                    &[(StreamKind::Instruction, icache)],
                )[0] as f64
            })
            .collect();
        println!("## 1+2. Interpolation basis / u(L) model — {icache}\n");
        println!(
            "{:>5} {:>12} {:>12} {:>12} {:>12}",
            "d", "dilated-sim", "AHH-run", "AHH-printed", "linear-L"
        );
        let mut err_run = Vec::new();
        let mut err_printed = Vec::new();
        let mut err_linear = Vec::new();
        let table = |cfg: CacheConfig| base_eval.icache_misses_measured(cfg);
        for (i, &d) in dilations.iter().enumerate() {
            let run = base_eval.estimate_icache_misses(icache, d).unwrap();
            let printed = printed_eval.estimate_icache_misses(icache, d).unwrap();
            let linear = estimate_icache_misses_linear(&table, icache, d).unwrap();
            err_run.push((run - truth[i]) / truth[i]);
            err_printed.push((printed - truth[i]) / truth[i]);
            err_linear.push((linear - truth[i]) / truth[i]);
            println!(
                "{:>5.2} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
                d, truth[i], run, printed, linear
            );
        }
        println!(
            "\nmean |error|: AHH-run {:.1}%  AHH-printed {:.1}%  linear-in-L {:.1}%\n",
            100.0 * mean_abs_err(&err_run),
            100.0 * mean_abs_err(&err_printed),
            100.0 * mean_abs_err(&err_linear),
        );
    }
    let icache = mhe_bench::l1_small();
    let truth: Vec<f64> = dilations
        .iter()
        .map(|&d| {
            simulate_caches_dilated(
                base_eval.program(),
                base_eval.reference(),
                d,
                SEED,
                n,
                &[(StreamKind::Instruction, icache)],
            )[0] as f64
        })
        .collect();

    // --- Ablation 3: granule size. ---
    println!("## 3. Granule-size sensitivity (instruction trace)\n");
    println!("{:>9} {:>10} {:>8} {:>8} | mean |est err| over d", "granule", "u(1)", "p1", "lav");
    for granule in [1_000usize, 5_000, 10_000, 50_000] {
        let eval = ReferenceEvaluation::for_benchmark(
            b,
            &ProcessorKind::P1111.mdes(),
            EvalConfig { events: n, seed: SEED, i_granule: granule, ..EvalConfig::default() },
            &[icache],
            &[],
            &[],
        );
        let errs: Vec<f64> = dilations
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let est = eval.estimate_icache_misses(icache, d).unwrap();
                (est - truth[i]) / truth[i]
            })
            .collect();
        let p = eval.iparams();
        println!(
            "{granule:>9} {:>10.0} {:>8.3} {:>8.1} | {:>6.1}%",
            p.u1,
            p.p1,
            p.lav,
            100.0 * mean_abs_err(&errs)
        );
    }
    println!("\npaper: granules must be large enough that the incremental working-set");
    println!("change is small and the collision computation numerically stable.");
}
