//! Evaluation-cost accounting: the paper's §1 arithmetic, measured.
//!
//! The paper's motivating computation: 40 processors × 20 caches per type,
//! with per-trace simulation taking hours, totals "466 days"; hierarchical
//! evaluation plus single-pass simulation collapses this to a handful of
//! simulation runs. This binary measures the same accounting on our
//! substrate: wall-clock for (a) the naive scheme scaled from measured
//! per-pass costs, (b) the paper's scheme, on an actual design space.

use mhe_cache::{Cache, SinglePassSim};
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_spacewalk::space::SystemSpace;
use mhe_trace::{StreamKind, TraceGenerator};
use mhe_vliw::ProcessorKind;
use mhe_workload::Benchmark;
use std::time::Instant;

fn main() {
    mhe_bench::check_env(env!("CARGO_BIN_NAME"));
    let b = Benchmark::Ghostscript;
    let space = SystemSpace::paper_default();
    let events = mhe_bench::events();
    let n_proc = space.processors.len();
    let icaches = space.icache.configs();
    let dcaches = space.dcache.configs();
    let ucaches = space.ucache.configs();
    let n_caches = icaches.len() + dcaches.len() + ucaches.len();
    println!("# Evaluation-cost accounting — {b}\n");
    println!(
        "design space: {n_proc} processors, {} I$ + {} D$ + {} U$ = {n_caches} caches",
        icaches.len(),
        dcaches.len(),
        ucaches.len()
    );

    let program = b.generate();
    let reference =
        mhe_vliw::compile::Compiled::build(&program, &ProcessorKind::P1111.mdes(), None);

    // --- Measure one direct simulation pass (trace gen + one cache). ---
    let t0 = Instant::now();
    let mut cache = Cache::new(icaches[0]);
    for a in TraceGenerator::new(&program, &reference, 1)
        .with_event_limit(events)
        .stream(StreamKind::Instruction)
    {
        cache.access(a.addr);
    }
    let per_pass = t0.elapsed();
    println!("\nmeasured cost of ONE trace-generation + single-cache pass: {per_pass:?}");

    // Naive scheme: every (processor, cache) pair simulated on that
    // processor's own trace.
    let naive_passes = n_proc * n_caches;
    println!(
        "naive exhaustive scheme: {naive_passes} passes  ~= {:?}",
        per_pass * naive_passes as u32
    );

    // Paper scheme: reference processor only; one single-pass run per
    // distinct line size per stream (plus the trace-parameter pass).
    let line_sizes = space.icache.distinct_line_words().len()
        + space.dcache.distinct_line_words().len()
        + space.ucache.distinct_line_words().len();
    println!(
        "paper scheme: {line_sizes} single-pass simulations + 2 modeler passes, one processor"
    );

    let t1 = Instant::now();
    let mut sp = SinglePassSim::for_configs(
        &icaches.iter().copied().filter(|c| c.line_words == 8).collect::<Vec<_>>(),
    );
    for a in TraceGenerator::new(&program, &reference, 1)
        .with_event_limit(events)
        .stream(StreamKind::Instruction)
    {
        sp.access(a.addr);
    }
    let single_pass_cost = t1.elapsed();
    println!(
        "measured cost of one SINGLE-PASS run covering {} configurations: {single_pass_cost:?}",
        sp.all_results().len()
    );

    // End-to-end: the real reference evaluation plus estimates for every
    // processor and cache.
    let t2 = Instant::now();
    let eval = ReferenceEvaluation::build(
        program.clone(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events, ..EvalConfig::default() },
        &icaches,
        &dcaches,
        &ucaches,
    );
    let build_cost = t2.elapsed();
    let t3 = Instant::now();
    let mut estimates = 0usize;
    for proc in &space.processors {
        let d = eval.dilation_of(proc);
        for &c in &icaches {
            eval.estimate_icache_misses(c, d).unwrap();
            estimates += 1;
        }
        for &c in &ucaches {
            eval.estimate_ucache_misses(c, d).unwrap();
            estimates += 1;
        }
        for &c in &dcaches {
            eval.dcache_misses(c).unwrap();
            estimates += 1;
        }
    }
    let estimate_cost = t3.elapsed();
    println!("\nmeasured end-to-end paper scheme:");
    println!("  reference evaluation (all simulation): {build_cost:?}");
    println!(
        "  {estimates} (processor, cache) miss numbers after that: {estimate_cost:?} \
         (includes {n_proc} target compilations)"
    );
    let naive = per_pass.as_secs_f64() * naive_passes as f64;
    let ours = build_cost.as_secs_f64() + estimate_cost.as_secs_f64();
    println!(
        "\nspeedup over naive exhaustive simulation: {:.1}x (paper's example: ~40x \
         from hierarchy alone, x10 more from single-pass)",
        naive / ours
    );
}
