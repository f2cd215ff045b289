//! Fault-injection acceptance suite.
//!
//! Every [`FaultPlan`] scenario — bit flip, truncation, short read,
//! ENOSPC, worker panic — must surface as a structured error with
//! context, exactly as the binaries report it (exit 3 for corrupt input,
//! exit 4 for worker failures). Zero panics may escape `ParallelSweep`.
//! Finally, a killed exploration resumed from its crash-safe checkpoint
//! must produce a Pareto frontier and `EvaluationCache` contents
//! bit-identical to an uninterrupted run, at 1 and 8 worker threads.
//!
//! Tests that arm the process-global fault plan serialize on
//! [`fault::injection_lock`].

use mhe::cache::{Penalties, Policy};
use mhe::core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe::core::fault::{self, Fault, FaultPlan, FaultyReader, FaultyWriter};
use mhe::core::{MheError, ParallelSweep, RetryPolicy};
use mhe::spacewalk::walker::{self, prepare_evaluation};
use mhe::spacewalk::{CacheSpace, Checkpointer, EvaluationCache, SystemSpace};
use mhe::trace::codec::{read_mtr, write_mtr, TraceWriter};
use mhe::trace::Access;
use mhe::vliw::ProcessorKind;
use mhe::workload::Benchmark;
use std::io::ErrorKind;
use std::path::PathBuf;

mod common;

/// A small but real `.mtr` byte stream: the reference trace of a tiny
/// evaluation, captured in memory.
fn valid_mtr() -> Vec<u8> {
    let eval = tiny_eval(&small_space(), 1);
    let mut bytes = Vec::new();
    eval.capture_mtr(&mut bytes).expect("in-memory capture cannot fail");
    bytes
}

fn small_space() -> SystemSpace {
    SystemSpace {
        processors: vec![ProcessorKind::P1111.mdes(), ProcessorKind::P3221.mdes()],
        icache: CacheSpace {
            sizes_bytes: vec![1024, 4096],
            assocs: vec![1, 2],
            line_bytes: vec![32],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
        dcache: CacheSpace {
            sizes_bytes: vec![1024, 4096],
            assocs: vec![1],
            line_bytes: vec![32],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
        ucache: CacheSpace {
            sizes_bytes: vec![16 << 10, 64 << 10],
            assocs: vec![2],
            line_bytes: vec![64],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
    }
}

fn tiny_eval(space: &SystemSpace, threads: usize) -> ReferenceEvaluation {
    prepare_evaluation(
        Benchmark::Unepic.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: 20_000, threads, ..EvalConfig::default() },
        space,
    )
}

/// Decodes `bytes` through a [`FaultyReader`] armed with `plan`, mapping
/// failures to [`MheError::CorruptInput`] exactly as the binaries do at
/// their file boundaries.
fn decode_with_faults(bytes: &[u8], plan: &FaultPlan) -> Result<Vec<Access>, MheError> {
    read_mtr(FaultyReader::new(bytes, plan))
        .map_err(|e| MheError::corrupt("app.mtr", e.to_string()))
}

#[test]
fn bit_flips_surface_as_corrupt_input_with_context() {
    let bytes = valid_mtr();
    // Flip one bit in the magic, the frame header, and deep in a payload.
    for byte in [0u64, 7, bytes.len() as u64 / 2, bytes.len() as u64 - 1] {
        let plan = FaultPlan::new(vec![Fault::BitFlip { byte, mask: 0x10 }]);
        let err = decode_with_faults(&bytes, &plan)
            .expect_err(&format!("flip at byte {byte} must not decode"));
        assert!(matches!(err, MheError::CorruptInput { .. }), "byte {byte}: {err:?}");
        assert_eq!(err.exit_code(), 3, "corrupt input exits 3");
        assert!(err.to_string().contains("app.mtr"), "error names the file: {err}");
    }
}

#[test]
fn truncation_surfaces_as_corrupt_input_never_panics() {
    let bytes = valid_mtr();
    // Every prefix of a valid file must fail structurally, incl. cutting
    // inside the magic, a frame header, and a payload.
    for at in [0u64, 3, 5, 9, bytes.len() as u64 / 2, bytes.len() as u64 - 1] {
        let plan = FaultPlan::new(vec![Fault::Truncate { at }]);
        let err = decode_with_faults(&bytes, &plan)
            .expect_err(&format!("truncation at byte {at} must not decode"));
        assert_eq!(err.exit_code(), 3, "byte {at}: {err}");
    }
}

#[test]
fn short_reads_are_retried_not_mistaken_for_corruption() {
    // A short read is legal under the `Read` contract: the codec must
    // transparently retry and decode the identical access sequence —
    // erroring here would turn routine kernel behaviour into data loss.
    let bytes = valid_mtr();
    let clean = read_mtr(bytes.as_slice()).expect("valid file decodes");
    for at in [1u64, 6, 13, bytes.len() as u64 / 2] {
        let plan = FaultPlan::new(vec![Fault::ShortRead { at }]);
        let replayed = decode_with_faults(&bytes, &plan)
            .unwrap_or_else(|e| panic!("short read at {at} must decode: {e}"));
        assert_eq!(replayed, clean, "short read at {at} altered the decode");
    }
    // A short read that is actually a truncation (nothing follows) is
    // detected as corruption, not silently accepted.
    let plan = FaultPlan::new(vec![Fault::ShortRead { at: 20 }, Fault::Truncate { at: 20 }]);
    assert_eq!(decode_with_faults(&bytes, &plan).unwrap_err().exit_code(), 3);
}

#[test]
fn enospc_mid_capture_fails_hard_with_context() {
    let trace: Vec<Access> = read_mtr(valid_mtr().as_slice()).expect("valid file decodes");
    let plan = FaultPlan::new(vec![Fault::Enospc { at: 64 }]);
    let err = write_mtr(FaultyWriter::new(Vec::new(), &plan), trace.clone())
        .expect_err("a full disk must fail the capture");
    assert_eq!(err.kind(), ErrorKind::StorageFull);
    assert!(err.to_string().contains("ENOSPC at byte 64"), "{err}");
    // The binaries report this as a worker failure: exit 4.
    let structured = MheError::worker_failed("trace capture", err.to_string());
    assert_eq!(structured.exit_code(), 4);
    assert!(structured.to_string().contains("ENOSPC"), "{structured}");

    // A torn write (the disk lies instead of failing) must be caught on
    // the read side by the CRC framing.
    let torn = FaultPlan::new(vec![Fault::Truncate { at: 48 }]);
    let mut w = FaultyWriter::new(Vec::new(), &torn);
    write_mtr(&mut w, trace).expect("torn writes report success");
    let err = read_mtr(w.into_inner().as_slice()).expect_err("torn file must not decode");
    assert_eq!(mhe_bench_exit(&err), 3);
}

/// The io-error → exit-status mapping the bench binaries use.
fn mhe_bench_exit(e: &std::io::Error) -> u8 {
    match e.kind() {
        ErrorKind::InvalidData | ErrorKind::UnexpectedEof => 3,
        ErrorKind::StorageFull => 4,
        _ => 1,
    }
}

#[test]
fn worker_panics_are_isolated_structured_and_retryable() {
    let _serial = common::fault_serial();
    let items: Vec<u64> = (0..64).collect();

    // Without retries: the injected panic is caught, converted to
    // WorkerFailed naming the task, and reported with partial metrics.
    let _guard = fault::arm(FaultPlan::new(vec![Fault::PanicTask { task: 13 }]));
    let sweep = ParallelSweep::with_threads(8).with_retry(RetryPolicy::NONE).with_label("fi");
    let err = sweep.try_map(&items, |&x| Ok::<u64, MheError>(x * 2)).expect_err("task 13 dies");
    assert!(matches!(err.error, MheError::WorkerFailed { .. }), "{:?}", err.error);
    assert_eq!(err.error.exit_code(), 4);
    let msg = err.error.to_string();
    assert!(msg.contains("fi task 13") && msg.contains("injected fault"), "{msg}");
    assert!(err.metrics.completed < items.len(), "remaining work was cancelled");
    drop(_guard);

    // With one retry: the one-shot injected panic recovers transparently.
    let _guard = fault::arm(FaultPlan::new(vec![Fault::PanicTask { task: 13 }]));
    let retrying = ParallelSweep::with_threads(8)
        .with_retry(RetryPolicy { max_attempts: 2, backoff: std::time::Duration::ZERO });
    let doubled = retrying.try_map(&items, |&x| Ok::<u64, MheError>(x * 2)).expect("retried");
    assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
}

fn frontier_bits(
    p: &mhe::spacewalk::ParetoSet<mhe::spacewalk::SystemPoint>,
) -> Vec<(String, u64, u64)> {
    p.points()
        .iter()
        .map(|pt| (pt.design.processor.name.clone(), pt.cost.to_bits(), pt.time.to_bits()))
        .collect()
}

fn ckpt_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mhe_fi_{tag}_{}", std::process::id()))
}

#[test]
fn killed_walk_resumes_bit_identical_at_1_and_8_threads() {
    let _serial = common::fault_serial();
    let space = small_space();
    for threads in [1usize, 8] {
        let eval = tiny_eval(&space, threads);

        // Uninterrupted baseline.
        let db_full = EvaluationCache::new();
        let full = walker::walk_system(&eval, &space, Penalties::default(), &db_full).unwrap();

        // "Killed" run: a partial walk checkpoints its cache atomically,
        // then the process dies — all in-memory state is lost, only the
        // checkpoint survives.
        let dir = ckpt_dir(&format!("resume{threads}"));
        std::fs::remove_dir_all(&dir).ok();
        {
            let ckpt = Checkpointer::new(&dir).unwrap();
            let db = ckpt.load().unwrap();
            let d = eval.dilation_of(&space.processors[1]);
            walker::walk_memory(&eval, &space, d, Penalties::default(), &db).unwrap();
            ckpt.save(&db).unwrap();
        }

        // Resume: reload the checkpoint, redo the deterministic walk. The
        // surviving evaluations are cache hits; the frontier and the final
        // cache contents come out bit-identical to the baseline.
        let ckpt = Checkpointer::new(&dir).unwrap();
        let db = ckpt.load().unwrap();
        assert!(!db.is_empty(), "the checkpoint preserved partial progress");
        let (hits_before, _) = db.stats();
        let resumed =
            walker::walk_system_with(&eval, &space, Penalties::default(), &db, Some(&ckpt))
                .unwrap();
        let (hits_after, _) = db.stats();
        assert!(hits_after > hits_before, "resume reused checkpointed evaluations");
        assert_eq!(
            frontier_bits(&resumed),
            frontier_bits(&full),
            "{threads} threads: resumed frontier must be bit-identical"
        );
        assert_eq!(
            db.entries(),
            db_full.entries(),
            "{threads} threads: resumed cache contents must match"
        );
        // The final checkpoint equals the in-memory cache, bit for bit.
        assert_eq!(ckpt.load().unwrap().entries(), db.entries());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn injected_panic_aborts_the_walk_cleanly_and_a_rerun_recovers() {
    let _serial = common::fault_serial();
    let space = small_space();
    let eval = tiny_eval(&space, 8);
    let dir = ckpt_dir("abort");
    std::fs::remove_dir_all(&dir).ok();
    let ckpt = Checkpointer::new(&dir).unwrap();

    let db_full = EvaluationCache::new();
    let full = walker::walk_system(&eval, &space, Penalties::default(), &db_full).unwrap();

    // Kill walk task 0 on its first attempt: the walk must fail with a
    // structured worker error — no panic escapes, no poisoned state.
    {
        let db = ckpt.load().unwrap();
        let _guard = fault::arm(FaultPlan::new(vec![Fault::PanicTask { task: 0 }]));
        let retry_off = std::env::var("MHE_RETRIES").ok();
        assert!(
            retry_off.is_none() || retry_off.as_deref() == Some("0"),
            "test assumes no retries"
        );
        let err = walker::walk_system_with(&eval, &space, Penalties::default(), &db, Some(&ckpt))
            .expect_err("the injected panic must abort the walk");
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("injected fault"), "{err}");
    }

    // Disarmed rerun from whatever the checkpoint holds: completes and
    // matches the uninterrupted baseline exactly.
    let db = ckpt.load().unwrap();
    let resumed =
        walker::walk_system_with(&eval, &space, Penalties::default(), &db, Some(&ckpt)).unwrap();
    assert_eq!(frontier_bits(&resumed), frontier_bits(&full));
    assert_eq!(db.entries(), db_full.entries());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ambient_plan_parses_the_documented_env_syntax() {
    // MHE_FAULT_PLAN wiring uses the same parser; a malformed plan is
    // rejected whole rather than half-applied.
    assert!(FaultPlan::parse("flip@100:0x80,truncate@512,short@64,enospc@4096,panic@3").is_some());
    assert!(FaultPlan::parse("panic@three").is_none());
    let seeded = FaultPlan::seeded(42, 1 << 20);
    assert_eq!(seeded, FaultPlan::seeded(42, 1 << 20), "seeded plans reproduce");
}

#[test]
fn faulty_writer_composes_with_the_streaming_trace_writer() {
    // The capture path the binaries use (TraceWriter over a sink) hits
    // injected ENOSPC exactly at the scheduled offset, with the partial
    // prefix flushed — mirroring a real full disk.
    let trace: Vec<Access> = read_mtr(valid_mtr().as_slice()).expect("valid file decodes");
    let plan = FaultPlan::new(vec![Fault::Enospc { at: 32 }]);
    let mut sink = FaultyWriter::new(Vec::new(), &plan);
    let err = (|| -> std::io::Result<()> {
        let mut w = TraceWriter::new(&mut sink)?;
        w.write_all(trace)?;
        w.finish()?;
        Ok(())
    })()
    .expect_err("capture onto a full disk must fail");
    assert_eq!(err.kind(), ErrorKind::StorageFull);
    assert!(sink.into_inner().len() <= 32, "nothing lands past the full mark");
}
