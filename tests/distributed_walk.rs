//! Differential harness for the distributed spacewalk.
//!
//! The contract under test: a frontier produced by a fleet — any worker
//! count, any attach order, even a worker killed mid-sweep — is the
//! *same bytes* a single-process batch walk prints for the same spec.
//! Identity is checked on the rendered listing and on the raw `f64` bit
//! patterns of every frontier row, in full-trace and interval-sampled
//! modes.
//!
//! Also covered: work stealing (the killed worker's streamed points
//! arrive back as prefill, so the healthy worker never recomputes them)
//! and the dead-coordinator contract (a worker whose coordinator goes
//! silent exits with the server-unavailable code 5).

use mhe::core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe::prelude::*;
use mhe::spacewalk::service::proto;
use mhe::spacewalk::spec::Spec;
use mhe::spacewalk::{
    render_frontier, report_from, walker, ClientError, FleetSummary, WorkerOutcome,
};
use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

mod common;

/// Short but non-degenerate, matching the daemon suite.
const EVENTS: usize = 20_000;

/// One fully-built batch context: evaluation, parsed spec, and the
/// reference answer (rendered listing plus frontier `f64` bits).
struct Batch {
    text: String,
    spec: Spec,
    eval: Arc<ReferenceEvaluation>,
    want_render: String,
    want_bits: Vec<(String, u64, u64)>,
}

fn batch(benchmark: &str, sampling: Option<SamplingConfig>) -> Batch {
    let text = common::demo_spec_text(benchmark, EVENTS);
    let spec = Spec::parse(&text).expect("demo spec parses");
    let eval = Arc::new(walker::prepare_evaluation(
        spec.benchmark.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: spec.events, sampling, ..EvalConfig::default() },
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
    fn job(&self, sampling: Option<SamplingConfig>) -> FleetJob {
        FleetJob { spec_text: self.text.clone(), sampling, policies: None }
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

    /// Finishes a fleet sweep: the serial walk over the merged cache,
    /// rendered exactly as `spacewalker fleet` renders it.
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

/// Runs one fleet sweep with `workers` concurrent healthy in-process
/// workers; returns the summary and the merged cache.
fn run_fleet(
    batch: &Batch,
    sampling: Option<SamplingConfig>,
    workers: usize,
    shard_count: u32,
) -> (FleetSummary, Arc<EvaluationCache>) {
    let db = Arc::new(EvaluationCache::new());
    let cfg = FleetConfig { shard_count, ..FleetConfig::default() };
    let coordinator = Coordinator::bind("127.0.0.1:0", batch.job(sampling), cfg, Arc::clone(&db))
        .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();

    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let addr = addr.clone();
            let opts = batch.worker_options();
            std::thread::spawn(move || run_worker(&addr, opts))
        })
        .collect();
    let summary = coordinator.run(None).expect("fleet sweep");
    for (i, h) in handles.into_iter().enumerate() {
        h.join().expect("worker thread").unwrap_or_else(|e| panic!("worker {i}: {e}"));
    }
    (summary, db)
}

/// The acceptance gate: at 1, 2, and 4 workers, on two benchmarks, the
/// fleet frontier is byte-identical (rendered listing and `f64` bits) to
/// the single-process batch walk.
#[test]
fn fleet_frontier_is_bit_identical_at_any_worker_count() {
    for benchmark in ["unepic", "epic"] {
        let batch = batch(benchmark, None);
        for workers in [1usize, 2, 4] {
            let (summary, db) = run_fleet(&batch, None, workers, 32);
            assert_eq!(summary.steals, 0, "{benchmark}/{workers}: healthy sweep stole");
            assert_eq!(summary.duplicates, 0, "{benchmark}/{workers}: duplicate deliveries");
            assert!(summary.points > 0, "{benchmark}/{workers}: fleet merged nothing");
            let (render, bits) = batch.finish(&db);
            assert_eq!(
                render, batch.want_render,
                "{benchmark}/{workers} workers: rendered frontier differs from batch"
            );
            assert_eq!(
                bits, batch.want_bits,
                "{benchmark}/{workers} workers: frontier bits differ from batch"
            );
        }
    }
}

/// The same identity holds when the reference evaluation runs in
/// interval-sampled mode — provenance and all.
#[test]
fn sampled_fleet_frontier_matches_sampled_batch() {
    let sampling = Some(SamplingConfig { interval_accesses: 2_000, ..SamplingConfig::default() });
    let batch = batch("unepic", sampling);
    for workers in [1usize, 2, 4] {
        let (summary, db) = run_fleet(&batch, sampling, workers, 16);
        assert!(summary.points > 0);
        let (render, bits) = batch.finish(&db);
        assert_eq!(render, batch.want_render, "{workers} workers: sampled render differs");
        assert_eq!(bits, batch.want_bits, "{workers} workers: sampled bits differ");
    }
}

/// Kill a worker mid-sweep: its leased shards are stolen, its streamed
/// points come back as prefill (never recomputed), and the final
/// frontier is still byte-identical to batch.
#[test]
fn killed_worker_is_stolen_from_and_identity_survives() {
    let batch = batch("unepic", None);
    let db = Arc::new(EvaluationCache::new());
    let cfg = FleetConfig { shard_count: 8, ..FleetConfig::default() };
    let coordinator = Coordinator::bind("127.0.0.1:0", batch.job(None), cfg, Arc::clone(&db))
        .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();

    // Sequential for determinism: the doomed worker runs alone, dies
    // mid-shard with points streamed, and only then does the healthy
    // worker attach — so the steal and the prefill are guaranteed, not
    // scheduling-dependent.
    let run = std::thread::spawn(move || coordinator.run(None));

    const DOOMED_POINTS: u64 = 5;
    let doomed_err = run_worker(
        &addr,
        WorkerOptions { die_after_points: Some(DOOMED_POINTS), ..batch.worker_options() },
    )
    .expect_err("doomed worker must die");
    match &doomed_err {
        ClientError::Remote { code, message } => {
            assert_eq!(*code, mhe::core::EXIT_WORKER_FAILURE, "{doomed_err}");
            assert!(message.contains("injected worker death"), "{message}");
        }
        other => panic!("expected injected death, got {other:?}"),
    }

    let healthy_outcome: WorkerOutcome =
        run_worker(&addr, batch.worker_options()).expect("healthy worker finishes");
    let summary = run.join().expect("coordinator thread").expect("fleet survives the kill");

    assert!(summary.steals >= 1, "the dead worker's lease must be stolen: {summary:?}");
    assert_eq!(summary.duplicates, 0, "prefill must prevent duplicate deliveries: {summary:?}");
    // Shards the doomed worker *completed* are never re-offered; only
    // the mid-flight shard comes back, carrying its already-streamed
    // points as prefill. At least the dying flush must round-trip.
    assert!(
        (1..=DOOMED_POINTS).contains(&healthy_outcome.skipped_prefilled),
        "the doomed worker's streamed points must come back as prefill: {healthy_outcome:?}"
    );

    let (render, bits) = batch.finish(&db);
    assert_eq!(render, batch.want_render, "post-kill frontier differs from batch");
    assert_eq!(bits, batch.want_bits, "post-kill frontier bits differ from batch");
}

/// A worker whose coordinator goes silent exits with the
/// server-unavailable contract (exit code 5) once the reply deadline
/// passes — it does not hang.
#[test]
fn worker_times_out_on_a_dead_coordinator_with_exit_code_5() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake coordinator");
    let addr = listener.local_addr().expect("local addr").to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept worker");
        // Announce like a real coordinator, then go silent forever.
        stream.write_all(&proto::handshake(proto::FEATURE_FLEET)).expect("announce");
        std::thread::sleep(Duration::from_secs(5));
        drop(stream);
    });

    let batch = batch("unepic", None);
    let opts =
        WorkerOptions { reply_timeout: Some(Duration::from_millis(500)), ..batch.worker_options() };
    let err = run_worker(&addr, opts).expect_err("silence must not hang the worker");
    match &err {
        ClientError::Unavailable(message) => {
            assert_eq!(err.exit_code(), mhe::core::EXIT_SERVER_UNAVAILABLE);
            assert!(message.contains("silent"), "{message}");
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }
    fake.join().expect("fake coordinator thread");
}

/// A coordinator announcing another protocol version is refused on the
/// worker side with the same structured `UnsupportedVersion` (exit code
/// 5) a daemon client gets.
#[test]
fn worker_refuses_a_coordinator_speaking_another_version() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake coordinator");
    let addr = listener.local_addr().expect("local addr").to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept worker");
        let v99 = proto::Handshake { version: 99, features: proto::FEATURE_FLEET };
        stream.write_all(&v99.encode()).expect("announce v99");
        let mut reply = [0u8; proto::HANDSHAKE_LEN];
        stream.read_exact(&mut reply).expect("worker announcement");
    });

    let err = run_worker(&addr, WorkerOptions::default()).expect_err("a version skew must refuse");
    assert_eq!(err, ClientError::UnsupportedVersion { server: 99, client: 4 });
    assert_eq!(err.exit_code(), 5);
    fake.join().expect("fake coordinator thread");
}

/// A worker pointed at a daemon port learns that the peer is not a fleet
/// coordinator instead of waiting for a job that never comes.
#[test]
fn worker_dialing_a_daemon_port_is_told_it_is_not_a_coordinator() {
    let service = Arc::new(EvalService::new(ServiceLimits::default()));
    let server = Server::bind("127.0.0.1:0", service).expect("bind daemon").with_auth_token(None);
    let addr = server.local_addr().expect("local addr").to_string();
    let drain = server.drain_handle();
    let daemon = std::thread::spawn(move || server.run().expect("serve loop"));

    match run_worker(&addr, WorkerOptions::default()) {
        Err(ClientError::Protocol(message)) => {
            assert!(message.contains("not a fleet coordinator"), "{message}");
        }
        other => panic!("expected a protocol refusal, got {other:?}"),
    }
    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.join().expect("drained daemon");
}

/// A worker announcing protocol version 1 gets a structured `Abort`
/// naming both versions from a real coordinator, not a dropped socket.
#[test]
fn coordinator_aborts_a_v1_worker_naming_both_versions() {
    let job = FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg = FleetConfig { auth_token: None, ..FleetConfig::default() };
    let db = Arc::new(EvaluationCache::new());
    let coordinator = Coordinator::bind("127.0.0.1:0", job, cfg, db).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr");
    let halt = coordinator.halt_handle();
    let run = std::thread::spawn(move || coordinator.run(None));

    let mut stream = std::net::TcpStream::connect(addr).expect("tcp connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut hello = [0u8; proto::HANDSHAKE_LEN];
    stream.read_exact(&mut hello).expect("coordinator announcement");
    let coordinator_hello = proto::Handshake::decode(&hello).expect("well-formed announcement");
    assert_ne!(coordinator_hello.features & proto::FEATURE_FLEET, 0);
    let v1 = proto::Handshake { version: 1, features: proto::FEATURE_FLEET };
    stream.write_all(&v1.encode()).expect("v1 announcement");

    let payload = proto::read_frame(&mut stream).expect("structured refusal frame");
    match proto::decode_coord_frame(&payload).expect("decodable frame") {
        proto::CoordFrame::Abort { message } => assert_eq!(
            message, "unsupported protocol version 1 (this coordinator speaks 4)",
            "the refusal names both versions"
        ),
        other => panic!("expected Abort, got {other:?}"),
    }
    halt.halt();
    assert!(run.join().expect("coordinator thread").is_err(), "a halted sweep is unfinished");
}

/// A raw fleet worker past the handshake and the `Hello`/`Job` exchange,
/// for driving lease sequences frame by frame.
fn raw_worker(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let mut stream = std::net::TcpStream::connect(addr).expect("tcp connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    proto::client_hello(&mut stream, proto::FEATURE_FLEET).expect("handshake");
    send_worker(&mut stream, &proto::WorkerFrame::Hello);
    match read_coord(&mut stream) {
        proto::CoordFrame::Job(_) => stream,
        other => panic!("expected Job, got {other:?}"),
    }
}

fn send_worker(stream: &mut std::net::TcpStream, frame: &proto::WorkerFrame) {
    let payload = proto::encode_worker_frame(frame).expect("encodable frame");
    proto::write_frame(stream, &payload).expect("send frame");
}

fn read_coord(stream: &mut std::net::TcpStream) -> proto::CoordFrame {
    let payload = proto::read_frame(stream).expect("coordinator frame");
    proto::decode_coord_frame(&payload).expect("decodable frame")
}

/// A `NeedShard` parked behind a leased shard is woken by the lease's
/// reclaim (its holder disconnects) and assigned at once. A park that
/// slept through the reclaim would answer only when its one-second
/// `Wait` deadline came round.
#[test]
fn parked_need_shard_is_assigned_as_soon_as_the_lease_is_reclaimed() {
    let job = FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg = FleetConfig { shard_count: 1, auth_token: None, ..FleetConfig::default() };
    let db = Arc::new(EvaluationCache::new());
    let coordinator = Coordinator::bind("127.0.0.1:0", job, cfg, db).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr");
    let run = std::thread::spawn(move || coordinator.run(None));

    let mut holder = raw_worker(addr);
    send_worker(&mut holder, &proto::WorkerFrame::NeedShard);
    assert!(matches!(read_coord(&mut holder), proto::CoordFrame::Assign { shard: 0, .. }));

    let mut parked = raw_worker(addr);
    send_worker(&mut parked, &proto::WorkerFrame::NeedShard);
    // Let the coordinator park the request behind the held lease.
    std::thread::sleep(Duration::from_millis(150));
    let reclaimed = std::time::Instant::now();
    drop(holder);
    match read_coord(&mut parked) {
        proto::CoordFrame::Assign { shard: 0, .. } => {}
        other => panic!("expected the reclaimed shard, got {other:?}"),
    }
    let waited = reclaimed.elapsed();
    assert!(waited < Duration::from_millis(500), "the reclaimed shard took {waited:?} to reassign");

    send_worker(&mut parked, &proto::WorkerFrame::ShardDone { shard: 0 });
    let summary = run.join().expect("coordinator thread").expect("the sweep completes");
    assert_eq!((summary.shards, summary.steals), (1, 1), "{summary:?}");
}

/// A worker that attached before the last shard finished, but is still
/// building its evaluation when it does, is answered `NoMoreWork` at its
/// first `NeedShard`, however late: the coordinator does not close on a
/// job holder that has not asked for work yet.
#[test]
fn a_worker_still_building_when_the_sweep_ends_is_told_no_more_work() {
    let job = FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg = FleetConfig { shard_count: 1, auth_token: None, ..FleetConfig::default() };
    let db = Arc::new(EvaluationCache::new());
    let coordinator = Coordinator::bind("127.0.0.1:0", job, cfg, db).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr");
    let run = std::thread::spawn(move || coordinator.run(None));

    let mut building = raw_worker(addr);
    let mut finisher = raw_worker(addr);
    send_worker(&mut finisher, &proto::WorkerFrame::NeedShard);
    assert!(matches!(read_coord(&mut finisher), proto::CoordFrame::Assign { shard: 0, .. }));
    send_worker(&mut finisher, &proto::WorkerFrame::ShardDone { shard: 0 });
    send_worker(&mut finisher, &proto::WorkerFrame::NeedShard);
    assert!(matches!(read_coord(&mut finisher), proto::CoordFrame::NoMoreWork));

    // The sweep is over. The late worker heartbeats while it "builds",
    // well past the handlers' stop poll, and only then asks for work.
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(150));
        send_worker(&mut building, &proto::WorkerFrame::Heartbeat);
    }
    send_worker(&mut building, &proto::WorkerFrame::NeedShard);
    assert!(matches!(read_coord(&mut building), proto::CoordFrame::NoMoreWork));
    let summary = run.join().expect("coordinator thread").expect("the sweep completes");
    assert_eq!((summary.workers, summary.shards), (2, 1), "{summary:?}");
}

/// A worker that dials after `run` returned, while the coordinator still
/// lives, gets a handshake and `NoMoreWork` and exits clean with no
/// points. A listener nobody accepts from would leave it waiting out its
/// reply deadline and failing with `Unavailable`.
#[test]
fn a_worker_dialing_after_the_sweep_is_told_no_more_work() {
    let job = FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg = FleetConfig { shard_count: 1, auth_token: None, ..FleetConfig::default() };
    let db = Arc::new(EvaluationCache::new());
    let coordinator = Coordinator::bind("127.0.0.1:0", job, cfg, db).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr");
    let finisher = std::thread::spawn(move || {
        let mut finisher = raw_worker(addr);
        send_worker(&mut finisher, &proto::WorkerFrame::NeedShard);
        assert!(matches!(read_coord(&mut finisher), proto::CoordFrame::Assign { shard: 0, .. }));
        send_worker(&mut finisher, &proto::WorkerFrame::ShardDone { shard: 0 });
        send_worker(&mut finisher, &proto::WorkerFrame::NeedShard);
        assert!(matches!(read_coord(&mut finisher), proto::CoordFrame::NoMoreWork));
    });
    let summary = coordinator.run(None).expect("the sweep completes");
    finisher.join().expect("finishing worker");
    assert_eq!((summary.workers, summary.shards), (1, 1), "{summary:?}");

    let start = std::time::Instant::now();
    let opts = WorkerOptions {
        reply_timeout: Some(Duration::from_secs(2)),
        auth_token: None,
        ..WorkerOptions::default()
    };
    let late = run_worker(&addr.to_string(), opts).expect("a late worker exits clean");
    let waited = start.elapsed();
    assert_eq!((late.points, late.shards), (0, 0), "{late:?}");
    assert!(waited < Duration::from_secs(1), "the late worker waited {waited:?}");
    drop(coordinator);
}

/// A lease whose holder stays connected but goes silent is reclaimed at
/// its deadline, not at a tick: the brokering loop sleeps until exactly
/// then, and a parked `NeedShard` takes the shard. A loop that slept on
/// its condvar with no deadline would never reclaim it.
#[test]
fn a_silent_lease_holder_is_stolen_from_at_the_lease_deadline() {
    let lease_timeout = Duration::from_millis(300);
    let job = FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg =
        FleetConfig { shard_count: 1, lease_timeout, auth_token: None, ..FleetConfig::default() };
    let db = Arc::new(EvaluationCache::new());
    let coordinator = Coordinator::bind("127.0.0.1:0", job, cfg, db).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr");
    let run = std::thread::spawn(move || coordinator.run(None));

    let mut holder = raw_worker(addr);
    send_worker(&mut holder, &proto::WorkerFrame::NeedShard);
    assert!(matches!(read_coord(&mut holder), proto::CoordFrame::Assign { shard: 0, .. }));
    let leased = std::time::Instant::now();

    let mut parked = raw_worker(addr);
    send_worker(&mut parked, &proto::WorkerFrame::NeedShard);
    let stolen = loop {
        match read_coord(&mut parked) {
            proto::CoordFrame::Assign { shard: 0, .. } => break leased.elapsed(),
            proto::CoordFrame::Wait => {}
            other => panic!("expected the expired shard, got {other:?}"),
        }
    };
    let late = lease_timeout + Duration::from_millis(500);
    assert!(stolen < late, "the silent holder's shard took {stolen:?} to reassign");

    send_worker(&mut parked, &proto::WorkerFrame::ShardDone { shard: 0 });
    let summary = run.join().expect("coordinator thread").expect("the sweep completes");
    assert_eq!((summary.shards, summary.steals), (1, 1), "{summary:?}");
    drop(holder);
}

/// A sweep that makes no progress for the stall timeout is abandoned at
/// that deadline: `run` fails naming the stall, and the silent lease
/// holder is told why with an `Abort`.
#[test]
fn a_sweep_without_progress_aborts_at_the_stall_deadline() {
    let started = std::time::Instant::now();
    let job = FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg = FleetConfig {
        shard_count: 1,
        stall_timeout: Duration::from_millis(300),
        auth_token: None,
        ..FleetConfig::default()
    };
    let db = Arc::new(EvaluationCache::new());
    let coordinator = Coordinator::bind("127.0.0.1:0", job, cfg, db).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr");
    let run = std::thread::spawn(move || coordinator.run(None));

    let mut holder = raw_worker(addr);
    send_worker(&mut holder, &proto::WorkerFrame::NeedShard);
    assert!(matches!(read_coord(&mut holder), proto::CoordFrame::Assign { shard: 0, .. }));

    let err = run.join().expect("coordinator thread").expect_err("a stalled sweep fails");
    let waited = started.elapsed();
    assert!(err.to_string().contains("no progress"), "{err}");
    assert!(waited < Duration::from_secs(2), "the stall abort took {waited:?}");
    match read_coord(&mut holder) {
        proto::CoordFrame::Abort { message } => {
            assert!(message.contains("no progress"), "{message}")
        }
        other => panic!("expected Abort, got {other:?}"),
    }
}

/// Both ends of a coordinator's life free its port at once, twenty times
/// over: a halted `run` returns with the listener shut down, while the
/// coordinator still lives, and so does the drop after a finished sweep,
/// although the acceptor may still hold its clone of the socket. A
/// standby rebinds with no retry either way.
#[test]
fn a_halted_or_dropped_coordinator_frees_its_port_at_once() {
    let job = || FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg = FleetConfig { shard_count: 1, auth_token: None, ..FleetConfig::default() };
    let bind = |addr: std::net::SocketAddr| {
        Coordinator::bind(addr, job(), cfg.clone(), Arc::new(EvaluationCache::new()))
    };
    let any_port: std::net::SocketAddr = "127.0.0.1:0".parse().expect("address");
    for round in 0..20 {
        let coordinator = bind(any_port).expect("bind coordinator");
        let addr = coordinator.local_addr().expect("local addr");
        let halt = coordinator.halt_handle();
        let halted = std::thread::scope(|scope| {
            let run = scope.spawn(|| coordinator.run(None));
            let _worker = raw_worker(addr);
            halt.halt();
            run.join().expect("coordinator thread")
        });
        assert!(halted.is_err(), "round {round}: a halted sweep is unfinished");
        let standby =
            bind(addr).unwrap_or_else(|e| panic!("round {round}: rebind after halt: {e}"));
        drop((standby, coordinator));

        let coordinator = bind(any_port).expect("bind coordinator");
        let addr = coordinator.local_addr().expect("local addr");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut finisher = raw_worker(addr);
                send_worker(&mut finisher, &proto::WorkerFrame::NeedShard);
                assert!(matches!(
                    read_coord(&mut finisher),
                    proto::CoordFrame::Assign { shard: 0, .. }
                ));
                send_worker(&mut finisher, &proto::WorkerFrame::ShardDone { shard: 0 });
                send_worker(&mut finisher, &proto::WorkerFrame::NeedShard);
                assert!(matches!(read_coord(&mut finisher), proto::CoordFrame::NoMoreWork));
            });
            coordinator.run(None).expect("the sweep completes");
        });
        drop(coordinator);
        bind(addr).unwrap_or_else(|e| panic!("round {round}: rebind after drop: {e}"));
    }
}

/// A dialer that connects and says nothing does not hold up a finished
/// sweep: `run` does not wait for a handler still in its handshake,
/// which would sit out the handshake's 10 s deadline. The same dialer,
/// finishing its handshake after the sweep, hears `NoMoreWork`.
#[test]
fn a_silent_dialer_does_not_delay_a_finished_run() {
    let job = FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg = FleetConfig { shard_count: 1, auth_token: None, ..FleetConfig::default() };
    let db = Arc::new(EvaluationCache::new());
    let coordinator = Coordinator::bind("127.0.0.1:0", job, cfg, db).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr");

    // Its handler runs once the coordinator's announcement arrives.
    let mut silent = std::net::TcpStream::connect(addr).expect("tcp connect");
    silent.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut hello = [0u8; proto::HANDSHAKE_LEN];
    silent.read_exact(&mut hello).expect("coordinator announcement");

    let (summary, waited) = std::thread::scope(|scope| {
        let run = scope.spawn(|| coordinator.run(None));
        let mut finisher = raw_worker(addr);
        send_worker(&mut finisher, &proto::WorkerFrame::NeedShard);
        assert!(matches!(read_coord(&mut finisher), proto::CoordFrame::Assign { shard: 0, .. }));
        send_worker(&mut finisher, &proto::WorkerFrame::ShardDone { shard: 0 });
        let done = std::time::Instant::now();
        let summary = run.join().expect("coordinator thread").expect("the sweep completes");
        (summary, done.elapsed())
    });
    assert_eq!((summary.workers, summary.shards), (1, 1), "{summary:?}");
    assert!(waited < Duration::from_secs(2), "run returned {waited:?} after the last ShardDone");

    let late = proto::Handshake { version: proto::VERSION, features: proto::FEATURE_FLEET };
    silent.write_all(&late.encode()).expect("late announcement");
    send_worker(&mut silent, &proto::WorkerFrame::Hello);
    assert!(matches!(read_coord(&mut silent), proto::CoordFrame::NoMoreWork));
}

/// A lease holder whose connection fails mid-conversation (here a frame
/// that does not decode) loses its lease at once, as one that closes
/// cleanly does: a parked `NeedShard` gets the shard without waiting out
/// the 15 s lease deadline.
#[test]
fn a_malformed_frame_frees_its_senders_lease_at_once() {
    let job = FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg = FleetConfig { shard_count: 1, auth_token: None, ..FleetConfig::default() };
    let db = Arc::new(EvaluationCache::new());
    let coordinator = Coordinator::bind("127.0.0.1:0", job, cfg, db).expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr");
    let run = std::thread::spawn(move || coordinator.run(None));

    let mut holder = raw_worker(addr);
    send_worker(&mut holder, &proto::WorkerFrame::NeedShard);
    assert!(matches!(read_coord(&mut holder), proto::CoordFrame::Assign { shard: 0, .. }));
    let mut parked = raw_worker(addr);
    send_worker(&mut parked, &proto::WorkerFrame::NeedShard);
    // Let the coordinator park the request behind the held lease.
    std::thread::sleep(Duration::from_millis(150));
    let failed = std::time::Instant::now();
    proto::write_frame(&mut holder, &[0xEE, 0xEE, 0xEE]).expect("undecodable frame");
    loop {
        match read_coord(&mut parked) {
            proto::CoordFrame::Assign { shard: 0, .. } => break,
            proto::CoordFrame::Wait => {}
            other => panic!("expected the freed shard, got {other:?}"),
        }
    }
    let waited = failed.elapsed();
    assert!(waited < Duration::from_millis(500), "the freed shard took {waited:?} to reassign");

    send_worker(&mut parked, &proto::WorkerFrame::ShardDone { shard: 0 });
    let summary = run.join().expect("coordinator thread").expect("the sweep completes");
    assert_eq!((summary.shards, summary.steals), (1, 1), "{summary:?}");
}

/// A halted `run` returns as soon as its handlers end, not after each
/// idle handler's blocked read times out: the halt wakes the read of
/// every serving handler, ten rounds in a row. The idle worker, holding
/// a lease, hears no `Abort`, only the close that makes it redial.
#[test]
fn a_halted_run_does_not_wait_out_an_idle_workers_read() {
    let job = || FleetJob { spec_text: String::new(), sampling: None, policies: None };
    let cfg = FleetConfig { shard_count: 2, auth_token: None, ..FleetConfig::default() };
    for round in 0..10 {
        let db = Arc::new(EvaluationCache::new());
        let coordinator =
            Coordinator::bind("127.0.0.1:0", job(), cfg.clone(), db).expect("bind coordinator");
        let addr = coordinator.local_addr().expect("local addr");
        let halt = coordinator.halt_handle();
        let (halted, waited, mut worker) = std::thread::scope(|scope| {
            let run = scope.spawn(|| coordinator.run(None));
            let mut worker = raw_worker(addr);
            send_worker(&mut worker, &proto::WorkerFrame::NeedShard);
            assert!(matches!(read_coord(&mut worker), proto::CoordFrame::Assign { .. }));
            let halted_at = std::time::Instant::now();
            halt.halt();
            let halted = run.join().expect("coordinator thread");
            (halted, halted_at.elapsed(), worker)
        });
        assert!(halted.is_err(), "round {round}: a halted sweep is unfinished");
        assert!(
            waited < Duration::from_millis(40),
            "round {round}: the halted run returned {waited:?} after the halt"
        );
        let mut rest = Vec::new();
        worker.read_to_end(&mut rest).expect("a clean close");
        assert!(rest.is_empty(), "round {round}: the halt sent {} bytes", rest.len());
    }
}
