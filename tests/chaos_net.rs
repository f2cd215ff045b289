//! Network-layer chaos harness: frame faults against the daemon and the
//! fleet, plus the coordinator-handoff drill.
//!
//! The contract under test: with deterministic frame faults armed
//! (drop / duplicate / truncate / delay, the `MHE_FAULT_PLAN` syntax),
//! every daemon interaction either returns the byte-identical frontier
//! or a *structured* client error within its timeout — never a hang,
//! never corrupted bytes — and the service stays warm and identical for
//! the next client. The fleet under the same faults still converges to
//! the batch-identical frontier (leases, steals, and worker redials
//! absorb the damage).
//!
//! The handoff drill: a doomed worker leaves the sweep structurally
//! incomplete, the live coordinator is halted mid-sweep, its port is
//! rebound by a standby resumed from the shared checkpoint, and a fresh
//! worker skips the checkpointed points as prefill; the merged frontier
//! is byte-identical to batch.

use mhe::core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe::core::fault::{self, FaultPlan};
use mhe::prelude::*;
use mhe::spacewalk::service::proto::FrontierRequest;
use mhe::spacewalk::spec::Spec;
use mhe::spacewalk::{render_frontier, report_from, walker, ClientError};
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod common;

/// Light enough that one reference simulation is cheap, heavy enough
/// that the walk spans many frames' worth of fleet traffic.
const EVENTS: usize = 8_000;

/// One fully-built batch context shared by the fleet scenarios.
struct Batch {
    text: String,
    spec: Spec,
    eval: Arc<ReferenceEvaluation>,
    want_render: String,
    want_bits: Vec<(String, u64, u64)>,
}

fn batch(benchmark: &str) -> Batch {
    let text = common::demo_spec_text(benchmark, EVENTS);
    let spec = Spec::parse(&text).expect("demo spec parses");
    let eval = Arc::new(walker::prepare_evaluation(
        spec.benchmark.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: spec.events, ..EvalConfig::default() },
        &spec.space,
    ));
    let db = EvaluationCache::new();
    let frontier =
        walker::walk_system(&eval, &spec.space, spec.penalties, &db).expect("batch walk");
    let report = report_from(&eval, &frontier, &db);
    let want_bits = report
        .rows
        .iter()
        .map(|r| (r.processor.clone(), r.cost.to_bits(), r.time.to_bits()))
        .collect();
    Batch { text, spec, eval, want_render: render_frontier(&report), want_bits }
}

impl Batch {
    fn job(&self) -> FleetJob {
        FleetJob { spec_text: self.text.clone(), sampling: None, policies: None }
    }

    fn worker_options(&self) -> WorkerOptions {
        WorkerOptions {
            threads: Some(1),
            prepared: Some(PreparedWorker {
                eval: Arc::clone(&self.eval),
                space: self.spec.space.clone(),
            }),
            ..WorkerOptions::default()
        }
    }

    fn request(&self) -> FrontierRequest {
        FrontierRequest {
            spec_text: self.text.clone(),
            heuristic: false,
            sampling: None,
            policies: None,
        }
    }

    /// The serial walk over a merged fleet cache, rendered exactly as
    /// `spacewalker fleet` renders it.
    fn finish(&self, db: &EvaluationCache) -> (String, Vec<(String, u64, u64)>) {
        let frontier =
            walker::walk_system_with(&self.eval, &self.spec.space, self.spec.penalties, db, None)
                .expect("post-fleet walk");
        let report = report_from(&self.eval, &frontier, db);
        let bits = report
            .rows
            .iter()
            .map(|r| (r.processor.clone(), r.cost.to_bits(), r.time.to_bits()))
            .collect();
        (render_frontier(&report), bits)
    }
}

fn report_bits(report: &mhe::spacewalk::service::proto::FrontierReport) -> Vec<(String, u64, u64)> {
    report.rows.iter().map(|r| (r.processor.clone(), r.cost.to_bits(), r.time.to_bits())).collect()
}

fn start_daemon() -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", Arc::new(EvalService::new(ServiceLimits::default())))
        .expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let drain = server.drain_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, drain, handle)
}

/// One chaos attempt: a fresh connection with a bounded timeout, so a
/// swallowed frame turns into a structured error, never a hang.
fn chaos_evaluate(
    addr: SocketAddr,
    request: FrontierRequest,
) -> Result<mhe::spacewalk::service::proto::FrontierReport, ClientError> {
    let mut client = Client::builder().addr(addr).timeout(Duration::from_secs(8)).connect()?;
    client.evaluate(request)
}

/// The deterministic chaos matrix: with the session already warm, each
/// documented frame fault is armed against exactly one request/response
/// exchange (frame 0 = the request, frame 1 = the response). Delays and
/// duplicates must not change a byte; drops and truncations must fail
/// *structurally* within the timeout. After every scenario the disarmed
/// daemon serves the exact batch bytes — chaos never corrupts state.
#[test]
fn frame_faults_yield_identity_or_structured_errors_never_corruption() {
    let _serial = common::fault_serial();
    let batch = batch("unepic");
    let (addr, drain, handle) = start_daemon();

    // Warm the daemon's session so every scenario exchange is fast and
    // the frame schedule (request = frame 0, response = frame 1) holds.
    let warm = chaos_evaluate(addr, batch.request()).expect("warmup walk");
    assert_eq!(render_frontier(&warm), batch.want_render, "warmup differs from batch");

    /// What one armed fault is allowed to do to the exchange.
    enum Expect {
        /// Deliveries must not move a byte.
        Identical,
        /// Lost frames must surface as a transport-shaped error.
        Lost,
        /// A duplicated *request* is answered by the server's busy guard
        /// with a structured exit-code-2 error before the real response
        /// — also acceptable is the identical answer (when the duplicate
        /// lands after the response).
        IdenticalOrBusy,
    }
    let scenarios = [
        ("delay@0:40", Expect::Identical),
        ("delay@1:40", Expect::Identical),
        ("dup@0", Expect::IdenticalOrBusy),
        ("dup@1", Expect::Identical),
        ("drop@0", Expect::Lost),
        ("drop@1", Expect::Lost),
        ("trunc@0", Expect::Lost),
        ("trunc@1", Expect::Lost),
    ];
    for (plan_text, expect) in scenarios {
        let outcome = {
            let _guard = fault::arm(FaultPlan::parse(plan_text).expect("documented syntax"));
            chaos_evaluate(addr, batch.request())
        };
        match (expect, outcome) {
            (Expect::Identical | Expect::IdenticalOrBusy, Ok(report)) => {
                assert_eq!(
                    report_bits(&report),
                    batch.want_bits,
                    "{plan_text}: delivered frontier bits differ from batch"
                );
            }
            (Expect::Identical, Err(e)) => {
                panic!("{plan_text}: a delivery fault must not fail: {e}")
            }
            (Expect::IdenticalOrBusy, Err(ClientError::Remote { code, message })) => {
                assert_eq!(code, mhe::core::EXIT_BAD_CONFIG, "{plan_text}: {message}");
                assert!(message.contains("already in flight"), "{plan_text}: {message}");
            }
            (Expect::IdenticalOrBusy, Err(other)) => {
                panic!("{plan_text}: expected the busy guard or identity, got {other:?}")
            }
            (Expect::Lost, Err(ClientError::Unavailable(_) | ClientError::Protocol(_))) => {}
            (Expect::Lost, Err(other)) => {
                panic!("{plan_text}: expected a transport-shaped error, got {other:?}")
            }
            (Expect::Lost, Ok(_)) => {
                panic!("{plan_text}: a swallowed frame cannot serve an answer")
            }
        }

        // Disarmed: the daemon must serve the exact batch bytes again.
        let clean = chaos_evaluate(addr, batch.request())
            .unwrap_or_else(|e| panic!("{plan_text}: daemon did not survive the fault: {e}"));
        assert_eq!(
            render_frontier(&clean),
            batch.want_render,
            "{plan_text}: the daemon's state was corrupted by the fault"
        );
        assert_eq!(report_bits(&clean), batch.want_bits, "{plan_text}: post-fault bits differ");
    }

    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// The seeded sweep: every seed derives one reproducible frame fault
/// aimed at the exchange. Any outcome other than "batch-identical
/// answer" or "structured error inside the timeout" is a failure — and
/// a failing seed is a pasteable regression test.
#[test]
fn seeded_net_chaos_never_hangs_and_never_corrupts() {
    let _serial = common::fault_serial();
    let batch = batch("unepic");
    let (addr, drain, handle) = start_daemon();
    chaos_evaluate(addr, batch.request()).expect("warmup walk");

    for seed in 0..6u64 {
        let started = Instant::now();
        let outcome = {
            let _guard = fault::arm(FaultPlan::seeded_net(seed, 2));
            chaos_evaluate(addr, batch.request())
        };
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "seed {seed}: the exchange must stay inside its timeout"
        );
        match outcome {
            Ok(report) => {
                assert_eq!(
                    report_bits(&report),
                    batch.want_bits,
                    "seed {seed}: delivered frontier differs from batch"
                );
            }
            // Every failure must be structured: a dropped/truncated frame
            // surfaces as a transport error, a duplicated request as the
            // server's busy guard (exit code 2). Anything structured is
            // acceptable — the invariants are "no hang" (the timeout
            // bound above) and "no wrong bytes" (the Ok arm and the
            // clean rerun below).
            Err(ClientError::Unavailable(_) | ClientError::Protocol(_)) => {}
            Err(ClientError::Remote { code, message }) => {
                assert_eq!(code, mhe::core::EXIT_BAD_CONFIG, "seed {seed}: {message}");
                assert!(message.contains("already in flight"), "seed {seed}: {message}");
            }
            Err(other) => panic!("seed {seed}: expected a structured error, got {other:?}"),
        }
    }

    // After the whole sweep, the disarmed daemon still serves batch bytes.
    let clean = chaos_evaluate(addr, batch.request()).expect("daemon survives the sweep");
    assert_eq!(report_bits(&clean), batch.want_bits, "post-sweep bits differ from batch");

    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// Fleet under fire: seeded frame faults against live coordinator ↔
/// worker traffic. Leases, steals, and worker redials must absorb the
/// damage — individual workers may fail, but the coordinator converges
/// and the merged frontier is byte-identical to batch.
#[test]
fn fleet_sweep_absorbs_frame_faults_and_stays_bit_identical() {
    let _serial = common::fault_serial();
    let batch = batch("unepic");

    for seed in [7u64, 19] {
        let _guard = fault::arm(FaultPlan::seeded_net(seed, 40));
        let db = Arc::new(EvaluationCache::new());
        let cfg = FleetConfig {
            shard_count: 8,
            lease_timeout: Duration::from_secs(3),
            stall_timeout: Duration::from_secs(60),
            ..FleetConfig::default()
        };
        let coordinator = Coordinator::bind("127.0.0.1:0", batch.job(), cfg, Arc::clone(&db))
            .expect("bind coordinator");
        let addr = coordinator.local_addr().expect("local addr").to_string();

        let workers: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let opts = WorkerOptions {
                    reply_timeout: Some(Duration::from_secs(2)),
                    redial_retries: 6,
                    redial_backoff: Some(Duration::from_millis(100)),
                    ..batch.worker_options()
                };
                std::thread::spawn(move || run_worker(&addr, opts))
            })
            .collect();
        let summary = coordinator
            .run(None)
            .unwrap_or_else(|e| panic!("seed {seed}: coordinator must converge: {e}"));
        assert!(summary.points > 0, "seed {seed}: fleet merged nothing");
        for w in workers {
            // A one-shot fault may cost a worker its connection (or its
            // life, when it fires mid-assignment); the sweep survives.
            let _ = w.join().expect("worker thread");
        }

        let (render, bits) = batch.finish(&db);
        assert_eq!(render, batch.want_render, "seed {seed}: chaos frontier differs from batch");
        assert_eq!(bits, batch.want_bits, "seed {seed}: chaos frontier bits differ from batch");
    }
}

/// The handoff drill. A first worker streams exactly 6 of the sweep's 16
/// points and then dies (`die_after_points`), so the primary provably
/// cannot finish; halting it mid-sweep saves the shared checkpoint on the
/// way out. A standby rebinds the same port resumed from that checkpoint,
/// a fresh worker receives the checkpointed points as prefill (no
/// recompute), and the completed frontier is byte-identical to batch.
/// No timers race the sweep: the incompleteness is structural.
#[test]
fn coordinator_handoff_resumes_from_checkpoint_and_identity_survives() {
    let _serial = common::fault_serial();
    let batch = batch("unepic");
    let ckpt_dir = std::env::temp_dir().join(format!("mhe-handoff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let ckpt = Checkpointer::new(&ckpt_dir).expect("checkpoint dir");
    let cfg = FleetConfig { shard_count: 8, ..FleetConfig::default() };

    // Primary coordinator.
    let db1 = Arc::new(EvaluationCache::new());
    let primary = Coordinator::bind("127.0.0.1:0", batch.job(), cfg.clone(), Arc::clone(&db1))
        .expect("bind primary");
    let addr = primary.local_addr().expect("local addr");
    let halt = primary.halt_handle();
    let primary_run = {
        let ckpt = ckpt.clone();
        std::thread::spawn(move || primary.run(Some(&ckpt)))
    };

    // A doomed worker: delivers 6 points, then drops its socket and fails.
    // The sweep needs 16, so the primary is mid-sweep for as long as we
    // care to leave it there.
    let doomed = {
        let addr = addr.to_string();
        let opts = WorkerOptions {
            reply_timeout: Some(Duration::from_secs(5)),
            die_after_points: Some(6),
            ..batch.worker_options()
        };
        std::thread::spawn(move || run_worker(&addr, opts))
    };
    let _ = doomed.join().expect("doomed worker thread");

    // The doomed worker flushed its points before dying; wait for the
    // primary to merge them, then hand off.
    let deadline = Instant::now() + Duration::from_secs(120);
    while db1.is_empty() {
        assert!(Instant::now() < deadline, "no fleet progress before the handoff");
        std::thread::sleep(Duration::from_millis(20));
    }
    halt.halt();
    let halted = primary_run.join().expect("primary thread").expect_err("a halt is not success");
    assert!(halted.to_string().contains("halted for handoff"), "{halted}");

    // Standby: same port, state resumed from the shared checkpoint.
    let db2 = Arc::new(ckpt.load().expect("checkpoint readable"));
    assert!(!db2.is_empty(), "the halting coordinator must have checkpointed its merges");
    let standby =
        Coordinator::bind(addr, batch.job(), cfg, Arc::clone(&db2)).expect("rebind the port");

    // A fresh worker finishes the sweep against the standby. The redial
    // budget covers the dial racing the standby's accept loop.
    let worker = {
        let addr = addr.to_string();
        let opts = WorkerOptions {
            reply_timeout: Some(Duration::from_secs(5)),
            redial_retries: 40,
            redial_backoff: Some(Duration::from_millis(50)),
            ..batch.worker_options()
        };
        std::thread::spawn(move || run_worker(&addr, opts))
    };
    let summary = standby.run(Some(&ckpt)).expect("standby completes the sweep");
    assert!(summary.points > 0, "the standby merged nothing");

    let outcome = worker.join().expect("worker thread").expect("worker survives the handoff");
    assert!(
        outcome.skipped_prefilled >= 1,
        "checkpointed points must come back as prefill, not recomputes: {outcome:?}"
    );

    let (render, bits) = batch.finish(&db2);
    assert_eq!(render, batch.want_render, "post-handoff frontier differs from batch");
    assert_eq!(bits, batch.want_bits, "post-handoff frontier bits differ from batch");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
