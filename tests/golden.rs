//! Golden regression tests: pinned miss counts for the model's two core
//! mechanisms.
//!
//! * **Lemma 1** (dilation ⇔ line contraction): at an integer power-of-two
//!   contraction the estimate must *equal* the measured misses of the
//!   contracted-line cache — no interpolation, no tolerance — and the
//!   dilated-trace simulation must reproduce the same count, because block
//!   dilation by 2 touches exactly the lines that half-size lines touch.
//! * **Eq. 4.12** (AHH-collision interpolation): at a fractional
//!   contraction the estimate interpolates between the neighbouring
//!   measured line sizes, linearly in the modeled collision count, and
//!   lands strictly between them.
//!
//! The pinned integers below are the simulator's output for the fixed
//! seed/window (epic, P1111 reference, 50 000 events, seed 0xC0FF_EE01);
//! they guard against silent changes anywhere in the workload → compile →
//! trace → simulate pipeline. If a deliberate change to that pipeline
//! moves them, re-pin and say so in the commit message.

use mhe::core::evaluator::dilated_misses;
use mhe::core::fault::{Fault, FaultPlan};
use mhe::prelude::*;

mod common;

const EVENTS: usize = 50_000;

/// Reference misses of the 1 KB direct-mapped icache at 8/4/2-word lines.
const MEASURED_L8: u64 = 4375;
const MEASURED_L4: u64 = 12_895;
const MEASURED_L2: u64 = 36_471;
/// Eq. 4.12 estimate at d = 1.5 (effective line 16/3 words, bracket 4–8).
const EST_D15: f64 = 8712.673345;
/// Eq. 4.15 unified estimate at d = 2 for the 16 KB 2-way cache.
const EST_U_D2: f64 = 17_406.949204;

fn config() -> EvalConfig {
    EvalConfig { events: EVENTS, seed: 0xC0FF_EE01, threads: 2, ..EvalConfig::default() }
}

/// 1 KB direct-mapped, 32-byte (8-word) lines.
fn l1() -> CacheConfig {
    CacheConfig::from_bytes(1024, 1, 32)
}

fn u1() -> CacheConfig {
    CacheConfig::from_bytes(16 * 1024, 2, 64)
}

fn eval() -> ReferenceEvaluation {
    ReferenceEvaluation::for_benchmark(
        Benchmark::Epic,
        &ProcessorKind::P1111.mdes(),
        config(),
        &[l1()],
        &[],
        &[u1()],
    )
}

#[test]
fn measured_reference_misses_are_pinned() {
    let e = eval();
    let cfg = l1();
    let at = |l: u32| {
        e.icache_misses_measured(CacheConfig::new(cfg.sets, cfg.assoc, l))
            .expect("line size pre-simulated")
    };
    assert_eq!(at(8), MEASURED_L8);
    assert_eq!(at(4), MEASURED_L4);
    assert_eq!(at(2), MEASURED_L2);
}

#[test]
fn lemma1_power_of_two_dilation_is_exact() {
    let e = eval();
    // d = 2 contracts the 8-word line to exactly 4 words: the estimate is
    // the measured half-line count, bit-for-bit, no model involved.
    let est = e.estimate_icache_misses(l1(), 2.0).unwrap();
    assert_eq!(est, MEASURED_L4 as f64);
    // d = 4 likewise hits the 2-word measurement.
    let est4 = e.estimate_icache_misses(l1(), 4.0).unwrap();
    assert_eq!(est4, MEASURED_L2 as f64);
}

#[test]
fn lemma1_matches_dilated_trace_simulation() {
    let e = eval();
    // Ground truth for the lemma itself: simulating the reference trace
    // with every block dilated by 2 yields the same count as halving the
    // line size on the undilated trace.
    let sim =
        dilated_misses(e.program(), e.reference(), 2.0, &config(), StreamKind::Instruction, l1());
    assert_eq!(sim, MEASURED_L4);
}

#[test]
fn eq412_interpolation_is_pinned_and_bracketed() {
    let e = eval();
    // d = 1.5: effective line 16/3 ∈ (4, 8), so the estimate interpolates
    // between the two measured counts in the collision basis.
    let est = e.estimate_icache_misses(l1(), 1.5).unwrap();
    assert!((est - EST_D15).abs() < 1e-3, "est = {est}, pinned {EST_D15}");
    assert!(
        (MEASURED_L8 as f64) < est && est < (MEASURED_L4 as f64),
        "interpolant must lie strictly between the bracket measurements"
    );
}

/// Per-policy pinned miss counts: the same 50 000-event instruction
/// trace, simulated under each replacement policy on a 16-set 4-way cache
/// (8-word lines). The counts must differ across policies (the policies
/// are real) and must reproduce exactly (the engines are deterministic,
/// including seeded random).
const POLICY_PINS: [(Benchmark, [(Policy, u64); 4]); 2] = [
    (
        Benchmark::Epic,
        [
            (Policy::Lru, 671),
            (Policy::Fifo, 668),
            (Policy::PlruTree, 670),
            (Policy::Random(0x5EED_CAFE), 709),
        ],
    ),
    (
        Benchmark::Unepic,
        [
            (Policy::Lru, 406),
            (Policy::Fifo, 414),
            (Policy::PlruTree, 420),
            (Policy::Random(0x5EED_CAFE), 490),
        ],
    ),
];

#[test]
fn per_policy_misses_are_pinned() {
    use mhe::vliw::compile::Compiled;
    for (benchmark, pins) in POLICY_PINS {
        let program = benchmark.generate();
        let compiled = Compiled::build(&program, &ProcessorKind::P1111.mdes(), None);
        let trace: Vec<u64> = TraceGenerator::new(&program, &compiled, 0xC0FF_EE01)
            .stream(StreamKind::Instruction)
            .take(EVENTS)
            .map(|a| a.addr)
            .collect();
        for (policy, pinned) in pins {
            let cfg = CacheConfig::new(16, 4, 8).with_policy(policy);
            let got = Cache::new(cfg).run(trace.iter().copied()).misses;
            assert_eq!(got, pinned, "{benchmark:?} under {policy}");
        }
    }
}

/// The evaluation-cache v3 byte layout is a compatibility contract; this
/// pins it the way `crates/trace/tests/codec.rs` pins the `.mtr` format.
/// Layout per entry: metric tag, app string (varint length + UTF-8),
/// design (sets/assoc/line_words/ports varints, then the v3 policy tag
/// varint with a seed varint for `random`), key-specific fields, and the
/// value's `f64` bits in 8 LE bytes; a CRC-32/IEEE footer closes the file.
#[test]
fn cache_db_v3_byte_layout_is_pinned() {
    use std::sync::Arc;
    let app: Arc<str> = Arc::from("x");
    let base = CacheConfig::new(8, 2, 8);
    let db = EvaluationCache::new();
    db.insert(
        MetricKey::icache(&app, CacheDesign::single_ported(base.with_policy(Policy::Fifo)), 2.0),
        42.0,
    );
    db.insert(
        MetricKey::dcache(&app, CacheDesign::single_ported(base.with_policy(Policy::Random(7)))),
        1.5,
    );
    let path = std::env::temp_dir().join(format!("mhe_golden_v3_{}.mhec", std::process::id()));
    db.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let expected: &[u8] = &[
        0x4D, 0x48, 0x45, 0x43, // magic "MHEC"
        0x03, // version 3
        0x02, // entry count
        // icache key sorts first (variant order)
        0x00, // tag: icache misses
        0x01, 0x78, // app "x"
        0x08, 0x02, 0x08, // sets=8 assoc=2 line_words=8
        0x01, // ports=1
        0x01, // policy tag: fifo
        0xD0, 0x0F, // dilation 2000 millis
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x45, 0x40, // 42.0f64 LE bits
        0x01, // tag: dcache misses
        0x01, 0x78, // app "x"
        0x08, 0x02, 0x08, // sets=8 assoc=2 line_words=8
        0x01, // ports=1
        0x03, 0x07, // policy tag: random, seed 7
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F, // 1.5f64 LE bits
        0xED, 0xA8, 0xF6, 0x15, // CRC-32/IEEE footer
    ];
    assert_eq!(bytes, expected, "cache-db v3 byte layout moved");
}

/// Sampled-path golden pin: the interval-sampled evaluation of the same
/// fixed seed/window, at the `--sample` default configuration, is fully
/// deterministic — so its grid is pinned to exact integers just like the
/// full-simulation counts above. Guards the whole sampling pipeline
/// (splitting, signatures, seeded k-means, stale-state replay, blended
/// estimator) against silent drift. If a deliberate estimator change
/// moves these, re-pin and say so in the commit message.
const SAMPLED_L8: u64 = 4343;
const SAMPLED_U: u64 = 17_225;

#[test]
fn sampled_grid_is_pinned() {
    let cfg = EvalConfig { sampling: Some(SamplingConfig::default()), ..config() };
    let e = ReferenceEvaluation::for_benchmark(
        Benchmark::Epic,
        &ProcessorKind::P1111.mdes(),
        cfg,
        &[l1()],
        &[],
        &[u1()],
    );
    assert_eq!(e.icache_misses_measured(l1()), Some(SAMPLED_L8));
    assert_eq!(e.ucache_misses_measured(u1()), Some(SAMPLED_U));
    // The pin must stay an approximation of, not a replacement for, the
    // exact path: within the harness's global 2 % budget of the full
    // simulation on both grids.
    let exact = eval();
    for (got, want) in [
        (SAMPLED_L8, exact.icache_misses_measured(l1()).unwrap()),
        (SAMPLED_U, exact.ucache_misses_measured(u1()).unwrap()),
    ] {
        let rel = (got as f64 - want as f64).abs() / want.max(1) as f64;
        assert!(rel <= 0.02, "sampled pin {got} vs exact {want} ({rel:.4})");
    }
}

#[test]
fn unified_extrapolation_is_pinned() {
    let e = eval();
    let est = e.estimate_ucache_misses(u1(), 2.0).unwrap();
    assert!((est - EST_U_D2).abs() < 1e-3, "est = {est}, pinned {EST_U_D2}");
    // d = 1 must return the measured count unchanged.
    let base = e.estimate_ucache_misses(u1(), 1.0).unwrap();
    assert_eq!(base, e.ucache_misses_measured(u1()).unwrap() as f64);
}

/// The v3 payload bytes of one value per frame variant of `Request`,
/// `Response`, `WorkerFrame` and `CoordFrame` (table in
/// `tests/common/wire.rs`). Changing any of these bytes is a wire break
/// and must come with a protocol version bump.
#[test]
fn wire_v3_payload_bytes_are_pinned() {
    for (msg, want) in common::wire::goldens() {
        let bytes = msg.encode();
        assert_eq!(common::wire::hex(&bytes), want, "payload of {msg:?} drifted");
        assert_eq!(msg.decode_like(&bytes).expect("golden payload decodes"), msg);
    }
}

/// The single-fault plans `FaultPlan::seeded` and `seeded_net` derive
/// from seeds 0..16: a failing seed in a chaos run is a regression case
/// only while these stay fixed.
#[test]
fn seeded_fault_plans_are_pinned() {
    use Fault::*;
    let seeded = [
        PanicTask { task: 700 },
        BitFlip { byte: 519, mask: 8 },
        Truncate { at: 226 },
        PanicTask { task: 561 },
        ShortRead { at: 304 },
        Enospc { at: 344 },
        Truncate { at: 833 },
        Truncate { at: 804 },
        BitFlip { byte: 817, mask: 16 },
        Enospc { at: 106 },
        Enospc { at: 814 },
        PanicTask { task: 545 },
        Enospc { at: 807 },
        Truncate { at: 921 },
        Truncate { at: 194 },
        Truncate { at: 496 },
    ];
    let seeded_net = [
        DelayFrame { frame: 0, millis: 45 },
        TruncFrame { frame: 19 },
        DelayFrame { frame: 26, millis: 37 },
        DupFrame { frame: 61 },
        DelayFrame { frame: 4, millis: 33 },
        DelayFrame { frame: 44, millis: 10 },
        TruncFrame { frame: 33 },
        TruncFrame { frame: 4 },
        DupFrame { frame: 17 },
        TruncFrame { frame: 6 },
        DupFrame { frame: 14 },
        DupFrame { frame: 45 },
        TruncFrame { frame: 7 },
        DropFrame { frame: 21 },
        TruncFrame { frame: 94 },
        DelayFrame { frame: 96, millis: 22 },
    ];
    for seed in 0..16u64 {
        let i = seed as usize;
        assert_eq!(FaultPlan::seeded(seed, 1000).faults(), &[seeded[i]], "seeded({seed}, 1000)");
        assert_eq!(
            FaultPlan::seeded_net(seed, 100).faults(),
            &[seeded_net[i]],
            "seeded_net({seed}, 100)"
        );
    }
}
