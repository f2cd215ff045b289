//! Table 3: text dilation for all benchmarks × processors.
//!
//! Paper values range from 1.26–1.40 (2111) up to 2.47–3.25 (6332). No
//! simulation: ten compilations per processor.

use mhe_vliw::compile::Compiled;
use mhe_vliw::ProcessorKind;
use mhe_workload::{Benchmark, BlockFrequencies};

fn main() {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    println!("# Table 3: Text dilation for all benchmarks\n");
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "Benchmark", "1111", "2111", "3221", "4221", "6332"
    );
    for b in Benchmark::ALL {
        let program = b.generate();
        let freq = BlockFrequencies::profile(&program, mhe_bench::SEED, 200_000);
        let reference = Compiled::build(&program, &ProcessorKind::P1111.mdes(), Some(&freq));
        print!("{:<14}", b.name());
        for kind in ProcessorKind::ALL {
            let target = Compiled::build(&program, &kind.mdes(), Some(&freq));
            let d = target.text_words() as f64 / reference.text_words() as f64;
            print!(" {:>6.2}", d);
        }
        println!();
    }
    println!(
        "\npaper bands: 2111 in 1.26-1.40, 3221 in 1.66-2.00, 4221 in 1.80-2.51, 6332 in 2.47-3.25"
    );
}
