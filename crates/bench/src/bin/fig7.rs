//! Figure 7: actual / dilated / estimated normalized misses for 085.gcc.
//!
//! The bar-chart values behind the paper's bottom-line comparison: for each
//! of the four cache configurations and each target processor, the misses
//! normalized to the 1111 reference processor's actual misses. (Table 4's
//! gcc rows rendered as bar groups.)
//!
//! The per-target work (compiling the target and simulating its actual and
//! dilated traces) is independent across processors, so targets fan out
//! over a [`ParallelSweep`]; results come back in target order.

use mhe_bench::{
    events, l1_large, l1_small, l2_large, l2_small, simulate_caches, simulate_caches_dilated, SEED,
};
use mhe_cache::CacheConfig;
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_core::parallel::ParallelSweep;
use mhe_trace::StreamKind;
use mhe_vliw::ProcessorKind;
use mhe_workload::Benchmark;

fn bar(x: f64) -> String {
    let full = (x * 8.0).round().clamp(0.0, 64.0) as usize;
    "#".repeat(full)
}

fn main() {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    let n = events();
    let eval = ReferenceEvaluation::for_benchmark(
        Benchmark::Gcc,
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: n, seed: SEED, ..EvalConfig::default() },
        &[l1_small(), l1_large()],
        &[],
        &[l2_small(), l2_large()],
    );
    let configs: [(StreamKind, CacheConfig, &str); 4] = [
        (StreamKind::Instruction, l1_small(), "Misses for 1 KB Instruction Cache"),
        (StreamKind::Instruction, l1_large(), "Misses for 16 KB Instruction Cache"),
        (StreamKind::Unified, l2_small(), "Misses for 16 KB Unified Cache"),
        (StreamKind::Unified, l2_large(), "Misses for 128 KB Unified Cache"),
    ];
    let plan: Vec<(StreamKind, CacheConfig)> = configs.iter().map(|&(k, c, _)| (k, c)).collect();
    let base = simulate_caches(eval.program(), eval.reference(), SEED, n, &plan);

    // One job per target processor; each yields a column of
    // (act, dil, est) triples, one per cache configuration.
    let (columns, sweep) =
        ParallelSweep::new().map_timed(ProcessorKind::TARGETS.to_vec(), |kind| {
            let target = eval.compile_target(&kind.mdes());
            let d = eval.dilation_of(&kind.mdes());
            let act = simulate_caches(eval.program(), &target, SEED, n, &plan);
            let dil = simulate_caches_dilated(eval.program(), eval.reference(), d, SEED, n, &plan);
            configs
                .iter()
                .enumerate()
                .map(|(ci, &(stream, cfg, _))| {
                    let est = match stream {
                        StreamKind::Instruction => eval.estimate_icache_misses(cfg, d).unwrap(),
                        _ => eval.estimate_ucache_misses(cfg, d).unwrap(),
                    };
                    let b0 = base[ci].max(1) as f64;
                    (act[ci] as f64 / b0, dil[ci] as f64 / b0, est / b0)
                })
                .collect::<Vec<(f64, f64, f64)>>()
        });

    println!("# Figure 7: Actual, dilated and estimated misses for 085.gcc\n");
    for (ci, &(_, _, title)) in configs.iter().enumerate() {
        println!("## {title}\n");
        for (ti, kind) in ProcessorKind::TARGETS.iter().enumerate() {
            let (a, d, e) = columns[ti][ci];
            println!("{kind}  Actual {a:>5.2} |{}", bar(a));
            println!("      Dilated {d:>5.2} |{}", bar(d));
            println!("      Est     {e:>5.2} |{}", bar(e));
        }
        println!();
    }
    println!("paper: normalized actual misses reach ~6x for 6332 — assuming memory");
    println!("behaviour is width-independent (all bars = 1.0) would be badly wrong,");
    println!("and the dilation model captures most of the change.");
    eprintln!("[fig7] reference evaluation: {}", eval.metrics());
    eprintln!("[fig7] target sweep: {sweep}");
}
