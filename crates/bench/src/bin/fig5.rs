//! Figure 5: cumulative dilation distributions for 085.gcc and
//! ghostscript.
//!
//! Plots (as text series) the static and dynamic fractions of basic blocks
//! whose dilation is below each threshold, for the 2111, 3221, and 6332
//! target processors. The paper uses these curves to judge the uniform-
//! dilation assumption: the steeper the rise around the text dilation, the
//! better the assumption.
//!
//! The two benchmarks (and the three target compilations within each) are
//! independent, so they run concurrently on a [`ParallelSweep`]; output is
//! buffered per benchmark and printed in order, so the report is identical
//! for any `MHE_THREADS`.

use mhe_core::dilation::DilationDistribution;
use mhe_core::parallel::ParallelSweep;
use mhe_vliw::compile::Compiled;
use mhe_vliw::ProcessorKind;
use mhe_workload::{Benchmark, BlockFrequencies};
use std::fmt::Write as _;

fn report(b: Benchmark) -> String {
    let procs = [ProcessorKind::P2111, ProcessorKind::P3221, ProcessorKind::P6332];
    let program = b.generate();
    let freq = BlockFrequencies::profile(&program, mhe_bench::SEED, 400_000);
    let reference = Compiled::build(&program, &ProcessorKind::P1111.mdes(), Some(&freq));
    let dists: Vec<(ProcessorKind, DilationDistribution)> =
        ParallelSweep::new().map(procs.to_vec(), |k| {
            let target = Compiled::build(&program, &k.mdes(), Some(&freq));
            (k, DilationDistribution::new(&reference, &target, &freq))
        });

    let mut out = String::new();
    let _ = writeln!(out, "# Figure 5: Dilation distribution — {}\n", b.name());
    let _ = write!(out, "{:>9}", "dilation");
    for (k, _) in &dists {
        let _ = write!(out, " {:>9} {:>9}", format!("St{k}"), format!("Dy{k}"));
    }
    let _ = writeln!(out);
    let mut x = 0.5;
    while x <= 5.0 + 1e-9 {
        let _ = write!(out, "{x:>9.2}");
        for (_, d) in &dists {
            let _ = write!(out, " {:>9.3} {:>9.3}", d.static_cdf(x), d.dynamic_cdf(x));
        }
        let _ = writeln!(out);
        x += 0.25;
    }
    let _ = writeln!(out);
    for (k, d) in &dists {
        let _ = writeln!(
            out,
            "{k}: text dilation {:.2} sits at static CDF {:.2}, dynamic CDF {:.2}; \
             static quartiles [{:.2}, {:.2}, {:.2}]",
            d.text_dilation(),
            d.static_cdf(d.text_dilation()),
            d.dynamic_cdf(d.text_dilation()),
            d.static_quantile(0.25),
            d.static_quantile(0.5),
            d.static_quantile(0.75),
        );
    }
    out
}

fn main() {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    let (reports, sweep) =
        ParallelSweep::new().map_timed(vec![Benchmark::Gcc, Benchmark::Ghostscript], report);
    for r in reports {
        println!("{r}");
    }
    println!("paper: curves rise from 0 to 1 around the text dilation; the rise is");
    println!("sharper for 2111 than 6332, and dynamic tracks static closely.");
    eprintln!("[fig5] benchmark sweep: {sweep}");
}
