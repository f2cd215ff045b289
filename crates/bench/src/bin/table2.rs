//! Table 2: relative data-cache miss rates for all benchmarks.
//!
//! Validates the model's step-1 assumption (the data trace is essentially
//! unchanged across processors): the table shows each target processor's
//! *actual* data-cache misses normalized to the reference processor's, for
//! the 1 KB direct-mapped and 16 KB 2-way data caches. The paper finds
//! ratios mostly within ~1.0–1.16 for the large cache, with more scatter
//! on the small direct-mapped cache.
//!
//! Benchmarks are independent, so each one's five-processor column is
//! computed as one [`ParallelSweep`] job; rows come back in benchmark
//! order, so the table is identical for any `MHE_THREADS`.

use mhe_bench::{events, l1_large, l1_small, simulate_caches, SEED};
use mhe_core::parallel::ParallelSweep;
use mhe_trace::StreamKind;
use mhe_vliw::compile::Compiled;
use mhe_vliw::ProcessorKind;
use mhe_workload::{Benchmark, BlockFrequencies};

fn main() {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    let n = events();
    let configs = [l1_small(), l1_large()];
    let names = ["1 KB", "16 KB"];

    // One job per benchmark -> two rows (one per cache configuration) of
    // per-processor ratios, ordered as ProcessorKind::ALL.
    let (rows, sweep) = ParallelSweep::new().map_timed(Benchmark::ALL.to_vec(), |b| {
        let program = b.generate();
        let freq = BlockFrequencies::profile(&program, SEED, 200_000);
        let mut rows: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
        let mut base = [0u64; 2];
        for kind in ProcessorKind::ALL {
            let compiled = Compiled::build(&program, &kind.mdes(), Some(&freq));
            let misses = simulate_caches(
                &program,
                &compiled,
                SEED,
                n,
                &[(StreamKind::Data, configs[0]), (StreamKind::Data, configs[1])],
            );
            for (i, &m) in misses.iter().enumerate() {
                if kind == ProcessorKind::P1111 {
                    base[i] = m.max(1);
                }
                rows[i].push(m as f64 / base[i] as f64);
            }
        }
        rows
    });
    let tables: Vec<Vec<&Vec<f64>>> =
        (0..2).map(|t| rows.iter().map(|r| &r[t]).collect()).collect();

    for (t, name) in names.iter().enumerate() {
        println!("# Table 2: Relative data-cache miss rates ({name})\n");
        println!(
            "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "Benchmark", "1111", "2111", "3221", "4221", "6332"
        );
        for (bi, b) in Benchmark::ALL.iter().enumerate() {
            print!("{:<14}", b.name());
            for v in tables[t][bi] {
                print!(" {:>6.2}", v);
            }
            println!();
        }
        println!();
    }
    println!(
        "paper: large-cache ratios mostly 0.99-1.16; small-cache ratios scatter more (0.82-1.90)."
    );
    eprintln!("[table2] benchmark sweep: {sweep}");
}
