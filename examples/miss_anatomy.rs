//! Miss anatomy: where do a benchmark's instruction-cache misses come
//! from, and when is the dilation model's steady-state assumption safe?
//!
//! The AHH model keeps only the steady-state *interference* term,
//! discarding start-up and non-stationary misses. This example measures
//! the compulsory/capacity/conflict decomposition across cache sizes
//! (three-C taxonomy), plus the Mattson stack profile that gives every
//! fully-associative capacity in one pass — the two analyses that tell you
//! whether that simplification is justified for a workload.
//!
//! Run with: `cargo run --release --example miss_anatomy`

use mhe::cache::{classify_misses, ReuseHistogram};
use mhe::prelude::*;
use mhe::vliw::compile::Compiled;

fn main() {
    let benchmark = Benchmark::Gcc;
    let program = benchmark.generate();
    let compiled = Compiled::build(&program, &ProcessorKind::P1111.mdes(), None);
    let events = 120_000;
    let trace: Vec<u64> = TraceGenerator::new(&program, &compiled, 42)
        .with_event_limit(events)
        .stream(StreamKind::Instruction)
        .map(|a| a.addr)
        .collect();
    println!("benchmark: {benchmark}; instruction trace of {} references\n", trace.len());

    // --- Three-C decomposition across direct-mapped cache sizes. ---
    println!("## Miss decomposition (direct-mapped, 32 B lines)\n");
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>10} {:>14}",
        "size", "misses", "compulsory", "capacity", "conflict", "conflict share"
    );
    for kb in [1u64, 2, 4, 8, 16, 32] {
        let cfg = CacheConfig::from_bytes(kb * 1024, 1, 32);
        let b = classify_misses(cfg, trace.iter().copied());
        println!(
            "{:>6}KB {:>10} {:>12} {:>10} {:>10} {:>13.1}%",
            kb,
            b.total(),
            b.compulsory,
            b.capacity,
            b.conflict,
            100.0 * b.conflict_share()
        );
    }

    // --- Stack profile: every fully-associative capacity at once. ---
    let mut stack = ReuseHistogram::new(8);
    for &a in &trace {
        stack.observe(a);
    }
    let accesses = stack.accesses() as f64;
    println!("\n## Fully-associative miss-rate curve (one stack pass)\n");
    println!("{:>10} {:>12} {:>10}", "capacity", "misses", "rate");
    for lines in [8u32, 16, 32, 64, 128, 256, 512, 1024] {
        let m = stack.expected_misses(1, lines);
        println!("{:>7} ln {:>12} {:>9.2}%", lines, m, 100.0 * m / accesses);
    }
    for target in [0.05, 0.02, 0.01] {
        match capacity_for_miss_rate(&stack, target) {
            Some(lines) => println!(
                "smallest fully-associative cache with miss rate <= {:.0}%: {} lines ({} KB)",
                target * 100.0,
                lines,
                lines * 32 / 1024
            ),
            None => println!(
                "no capacity reaches {:.0}% (compulsory floor {:.2}%)",
                target * 100.0,
                100.0 * stack.cold() as f64 / accesses
            ),
        }
    }
    println!("\nWhere the conflict share is high and compulsory misses are few, the");
    println!("paper's steady-state interference model is on safe ground.");
}

/// The smallest fully-associative capacity (in lines) with a miss rate at
/// most `target`, if any capacity reaches it (compulsory misses set the
/// floor). A reference at stack distance `d` hits every capacity above
/// `d`, so the running sum of the histogram is the hit curve.
fn capacity_for_miss_rate(stack: &ReuseHistogram, target: f64) -> Option<u32> {
    let accesses = stack.accesses();
    if accesses == 0 {
        return Some(1);
    }
    let mut hits = 0u64;
    for (d, &n) in stack.histogram().iter().enumerate() {
        hits += n;
        if (accesses - hits) as f64 / accesses as f64 <= target {
            return Some(d as u32 + 1);
        }
    }
    (stack.cold() as f64 / accesses as f64 <= target)
        .then_some(stack.histogram().len().max(1) as u32)
}
