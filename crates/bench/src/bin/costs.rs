//! Evaluation-cost accounting: the paper's §1 arithmetic, measured.
//!
//! The paper's motivating computation: 40 processors × 20 caches per type,
//! with per-trace simulation taking hours, totals "466 days"; hierarchical
//! evaluation plus single-pass simulation collapses this to a handful of
//! simulation runs. This binary measures the same accounting on our
//! substrate: wall-clock for (a) the naive scheme scaled from measured
//! per-pass costs, (b) the paper's scheme, on an actual design space.
//! The reference trace is generated once and timed on its own, so the
//! direct and single-pass timings are simulation only. The end-to-end
//! build then lists one line per single-pass simulation it ran, so the
//! grid-simulation time can be read per family. Last come the pass-A
//! layers of a sampled replay, on the joint trace of the same program:
//! `.mtr` decode, the signature scan, and the AHH modelers, timed both as
//! the per-reference `ITraceModeler` + `UTraceModeler` pair and as the
//! joint `TraceModeler` pass; the run panics if the two disagree on any
//! parameter bit.

use mhe_cache::{Cache, SinglePassSim};
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_core::SamplingConfig;
use mhe_model::{ITraceModeler, TraceModeler, UTraceModeler};
use mhe_sampling::plan::SamplePlanner;
use mhe_spacewalk::space::SystemSpace;
use mhe_trace::codec::{write_mtr, TraceReader};
use mhe_trace::{StreamKind, TraceGenerator};
use mhe_vliw::ProcessorKind;
use mhe_workload::Benchmark;
use std::time::{Duration, Instant};

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

    // --- Generate the reference instruction trace once, outside both
    // simulation timings. ---
    let t0 = Instant::now();
    let addrs: Vec<u64> = TraceGenerator::new(&program, &reference, 1)
        .with_event_limit(events)
        .stream(StreamKind::Instruction)
        .map(|a| a.addr)
        .collect();
    let gen_cost = t0.elapsed();
    println!("\nmeasured cost of ONE trace generation ({} accesses): {gen_cost:?}", addrs.len());

    // --- One direct simulation pass over that trace (one cache). ---
    let t1 = Instant::now();
    let mut cache = Cache::new(icaches[0]);
    for &a in &addrs {
        cache.access(a);
    }
    let direct_cost = t1.elapsed();
    println!("measured cost of ONE direct single-cache pass: {direct_cost:?}");

    // Naive scheme: every (processor, cache) pair simulated on that
    // processor's own trace, so each pass generates its trace too.
    let per_pass = gen_cost + direct_cost;
    let naive_passes = n_proc * n_caches;
    println!(
        "naive exhaustive scheme: {naive_passes} passes of generation + one cache  ~= {:?}",
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

    let t2 = Instant::now();
    let mut sp = SinglePassSim::for_configs(
        &icaches.iter().copied().filter(|c| c.line_words == 8).collect::<Vec<_>>(),
    );
    sp.run(addrs.iter().copied());
    let single_pass_cost = t2.elapsed();
    println!(
        "measured cost of one SINGLE-PASS run over the same trace, covering the {} asked \
         configurations (covered points only): {single_pass_cost:?}",
        sp.all_results().len()
    );

    // End-to-end: the real reference evaluation plus estimates for every
    // processor and cache.
    let t3 = Instant::now();
    let eval = ReferenceEvaluation::build(
        program.clone(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events, ..EvalConfig::default() },
        &icaches,
        &dcaches,
        &ucaches,
    );
    let build_cost = t3.elapsed();
    println!("\nsingle-pass simulations of that reference evaluation, one per family:");
    println!(
        "  {:<11} {:>4} {:<6} {:>7} {:>10} {:>10}",
        "stream", "line", "policy", "configs", "addresses", "wall"
    );
    for p in &eval.metrics().passes {
        println!(
            "  {:<11} {:>4} {:<6} {:>7} {:>10} {:>9.3}s",
            format!("{:?}", p.stream),
            p.line_words,
            p.policy.to_string(),
            p.configs,
            p.addresses,
            p.wall.as_secs_f64()
        );
    }
    let t4 = Instant::now();
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
    let estimate_cost = t4.elapsed();
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

    // --- Sampled replay's pass A: decode an `.mtr` capture of the joint
    // trace frame by frame, scan each frame for signatures and model it
    // both ways, each timed apart. ---
    let mut mtr = Vec::new();
    let written =
        write_mtr(&mut mtr, TraceGenerator::new(&program, &reference, 1).with_event_limit(events))
            .expect("in-memory .mtr capture");
    let mut reader = TraceReader::new(mtr.as_slice()).expect(".mtr header");
    let mut planner = SamplePlanner::new(SamplingConfig::default());
    let granules = EvalConfig::default();
    let mut imodel = ITraceModeler::new(granules.i_granule);
    let mut umodel = UTraceModeler::new(granules.u_granule);
    let mut joint = TraceModeler::new(granules.i_granule, granules.u_granule);
    let (mut decode_cost, mut feed_cost) = (Duration::ZERO, Duration::ZERO);
    let (mut pair_cost, mut joint_cost) = (Duration::ZERO, Duration::ZERO);
    loop {
        let t5 = Instant::now();
        let Some(frame) = reader.next_frame().expect("the capture decodes") else { break };
        decode_cost += t5.elapsed();
        let t6 = Instant::now();
        planner.feed(&frame);
        feed_cost += t6.elapsed();
        let t7 = Instant::now();
        for &a in &frame {
            if StreamKind::Instruction.admits(a.kind) {
                imodel.process(a.addr);
            }
            umodel.process(a);
        }
        pair_cost += t7.elapsed();
        let t8 = Instant::now();
        joint.feed(&frame);
        joint_cost += t8.elapsed();
    }
    let t7 = Instant::now();
    let pair = (imodel.finish(), umodel.finish());
    pair_cost += t7.elapsed();
    let t8 = Instant::now();
    let joint = joint.finish();
    joint_cost += t8.elapsed();
    assert_eq!(joint, pair, "the joint modeler pass must equal the per-reference pair");
    println!("\nsampled replay's pass A over the joint trace ({} accesses):", written.accesses);
    println!("  .mtr decode, TraceReader::next_frame ({} bytes): {decode_cost:?}", written.bytes);
    println!("  signature scan, SamplePlanner::feed: {feed_cost:?}");
    println!("  AHH modelers, per-reference ITraceModeler + UTraceModeler: {pair_cost:?}");
    println!(
        "  AHH modelers, joint TraceModeler::feed (same parameters): {joint_cost:?} ({:.2}x)",
        pair_cost.as_secs_f64() / joint_cost.as_secs_f64().max(1e-12)
    );
}
