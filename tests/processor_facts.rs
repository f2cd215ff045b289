//! Per-processor facts of a reference evaluation: compute cycles from one
//! block profile, and each target compiled once.
//!
//! The event trace does not depend on the machine, so a target's compute
//! cycles are Σ over blocks of (execution count × schedule length). These
//! tests pin that dot product against re-executing the window event by
//! event, check that the evaluation's target memo answers identically
//! from many threads, and check that a warm `walk_system` compiles and
//! profiles nothing.
//!
//! The observability registry is process-global, so every test in this
//! binary holds `common::fault_serial()`: the obs test's counts then see
//! only its own walks.

mod common;

use mhe::core::system::{processor_cycles, profile_cycles};
use mhe::obs::{Phase, Snapshot};
use mhe::prelude::*;
use mhe::spacewalk::spec::Spec;
use mhe::vliw::compile::Compiled;
use mhe::workload::{BlockFrequencies, Executor};

/// Every preset plus one custom machine (predicated, wide memory).
fn targets() -> Vec<Mdes> {
    let mut targets: Vec<Mdes> = ProcessorKind::ALL.iter().map(|k| k.mdes()).collect();
    targets.push(Mdes::builder("3221p").units(3, 2, 2, 1).regs(64, 48).predication(true).build());
    targets
}

/// The oracle: re-execute the window and sum each event's schedule length.
fn re_executed_cycles(program: &Program, compiled: &Compiled, seed: u64, events: usize) -> u64 {
    Executor::new(program, seed)
        .take(events)
        .map(|ev| u64::from(compiled.sched.block(ev.proc, ev.block).len_cycles()))
        .sum()
}

fn small_eval(benchmark: Benchmark, events: usize, threads: usize) -> ReferenceEvaluation {
    let l1 = CacheConfig::from_bytes(1024, 1, 32);
    let cfg = EvalConfig::builder().events(events).threads(threads).build().expect("valid config");
    ReferenceEvaluation::for_benchmark(
        benchmark,
        &ProcessorKind::P1111.mdes(),
        cfg,
        &[l1],
        &[l1],
        &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
    )
}

#[test]
fn profile_dot_product_equals_re_execution() {
    let _serial = common::fault_serial();
    for benchmark in [Benchmark::Unepic, Benchmark::Ghostscript, Benchmark::Gcc] {
        let program = benchmark.generate();
        for events in [20_000, 200_000] {
            let freq = BlockFrequencies::profile(&program, common::SEED, events);
            for target in targets() {
                let compiled = Compiled::build(&program, &target, None);
                let oracle = re_executed_cycles(&program, &compiled, common::SEED, events);
                let at = format!("{benchmark} / {} / {events} events", target.name);
                assert_eq!(profile_cycles(&freq, &compiled), oracle, "{at}");
                assert_eq!(processor_cycles(&program, &compiled, common::SEED, events), oracle);
            }
        }
    }
    // The evaluation's memo is the same dot product over its own window,
    // on the layout-profiled compilation.
    let events = 20_000;
    let eval = small_eval(Benchmark::Unepic, events, 1);
    for target in targets() {
        let compiled = eval.compile_target(&target);
        let oracle = re_executed_cycles(eval.program(), &compiled, eval.config().seed, events);
        assert_eq!(eval.target_facts(&target).cycles, oracle, "{}", target.name);
    }
}

#[test]
fn target_memo_is_bit_identical_from_eight_threads() {
    let _serial = common::fault_serial();
    let eval = small_eval(Benchmark::Epic, 20_000, 2);
    let cfg = *eval.config();
    // What each target's facts must be: a fresh compile and re-execution.
    let expected: Vec<(u64, u64)> = targets()
        .iter()
        .map(|t| {
            let compiled = eval.compile_target(t);
            let d = compiled.text_words() as f64 / eval.reference().text_words() as f64;
            (d.to_bits(), re_executed_cycles(eval.program(), &compiled, cfg.seed, cfg.events))
        })
        .collect();
    let seen: Vec<Vec<(u64, u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let eval = &eval;
                scope.spawn(move || {
                    // Each thread starts at a different target, so first
                    // calls race on different cells.
                    let targets = targets();
                    let n = targets.len();
                    let mut seen = vec![(0, 0, 0); n];
                    for k in 0..n {
                        let j = (i + k) % n;
                        let facts = eval.target_facts(&targets[j]);
                        let d = eval.dilation_of(&targets[j]);
                        seen[j] = (d.to_bits(), facts.dilation.to_bits(), facts.cycles);
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no thread panics")).collect()
    });
    for per_thread in &seen {
        for ((d, facts_d, cycles), (want_d, want_cycles)) in per_thread.iter().zip(&expected) {
            assert_eq!((*d, *facts_d, *cycles), (*want_d, *want_d, *want_cycles));
        }
    }
}

#[test]
fn warm_walk_system_compiles_and_profiles_nothing() {
    let _serial = common::fault_serial();
    let spec = Spec::parse(&common::demo_spec_text("unepic", 20_000)).expect("demo spec parses");
    let eval = small_eval_for(&spec);
    mhe::obs::set_level(ObsLevel::Text);
    let phase_spans = |report: &RunReport, phase: Phase| {
        report.phases.iter().find(|p| p.phase == phase.name()).map_or(0, |p| p.spans)
    };

    let before = Snapshot::now();
    let cold = walk_system(&eval, &spec.space, spec.penalties, &EvaluationCache::new())
        .expect("cold walk");
    let cold_report = RunReport::since("cold walk", 1, &before);

    // A fresh cache, so the warm walk recomputes every metric: only the
    // per-processor facts may come from the evaluation.
    let before = Snapshot::now();
    let warm = walk_system(&eval, &spec.space, spec.penalties, &EvaluationCache::new())
        .expect("warm walk");
    let warm_report = RunReport::since("warm walk", 1, &before);
    mhe::obs::set_level(ObsLevel::Off);

    let procs = spec.space.processors.len() as u64;
    assert_eq!(phase_spans(&cold_report, Phase::Compile), procs, "{cold_report:?}");
    assert_eq!(phase_spans(&cold_report, Phase::Profile), 1, "{cold_report:?}");
    assert_eq!(phase_spans(&warm_report, Phase::Compile), 0, "{warm_report:?}");
    assert_eq!(phase_spans(&warm_report, Phase::Profile), 0, "{warm_report:?}");
    assert!(phase_spans(&warm_report, Phase::Walk) > 0, "{warm_report:?}");
    let bits = |p: &ParetoSet<SystemPoint>| -> Vec<(u64, u64)> {
        p.points().iter().map(|pt| (pt.cost.to_bits(), pt.time.to_bits())).collect()
    };
    assert_eq!(bits(&warm), bits(&cold));
}

fn small_eval_for(spec: &Spec) -> ReferenceEvaluation {
    mhe::spacewalk::walker::prepare_evaluation(
        spec.benchmark.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig::builder().events(spec.events).threads(2).build().expect("valid config"),
        &spec.space,
    )
}
