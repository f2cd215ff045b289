//! Survivability harness for the evaluation service and daemon.
//!
//! The contract under test: the daemon's warm state is *bounded* (TTL +
//! LRU session eviction, with optional on-disk persistence so evicted
//! scopes answer warm after a restart), its requests are *cancellable*
//! (a `Cancel` frame or a client disconnect aborts the in-flight sweep
//! at a task boundary, frees the admission slot, and a rerun of the same
//! request is byte-identical), and its ports are *guarded* (a shared
//! token proves clients before any request is served; bad or missing
//! tokens map to the documented exit code 6).
//!
//! Also covered: admission-gate edge cases (queue-full rejection without
//! blocking, slot release on panic and on cancellation) and the
//! version/feature/build triple both services report over `stats`.

use mhe::core::evaluator::EvalConfig;
use mhe::core::fault::{self, Fault, FaultPlan};
use mhe::core::CancelToken;
use mhe::prelude::*;
use mhe::spacewalk::service::proto::{self, FrontierRequest, Request, Response};
use mhe::spacewalk::spec::Spec;
use mhe::spacewalk::{render_frontier, report_from, walker, AdmissionGate, ClientError};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod common;

/// Matches the daemon suite: long enough that a cancel frame lands
/// mid-request, short enough for debug-build suites.
const EVENTS: usize = 20_000;

/// Smaller specs for the session-churn tests, where each distinct spec
/// costs one reference simulation.
const SOAK_EVENTS: usize = 4_000;

fn frontier_request(text: &str) -> FrontierRequest {
    FrontierRequest {
        spec_text: text.to_string(),
        heuristic: false,
        sampling: None,
        policies: None,
    }
}

/// The in-process batch answer for `text`: rendered listing + `f64` bits.
fn batch_reference(text: &str) -> (String, Vec<(String, u64, u64)>) {
    let spec = Spec::parse(text).expect("spec parses");
    let eval = walker::prepare_evaluation(
        spec.benchmark.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: spec.events, ..EvalConfig::default() },
        &spec.space,
    );
    let db = EvaluationCache::new();
    let frontier = walker::walk_system(&eval, &spec.space, spec.penalties, &db).expect("walks");
    let report = report_from(&eval, &frontier, &db);
    let bits = report
        .rows
        .iter()
        .map(|r| (r.processor.clone(), r.cost.to_bits(), r.time.to_bits()))
        .collect();
    (render_frontier(&report), bits)
}

fn report_bits(report: &proto::FrontierReport) -> Vec<(String, u64, u64)> {
    report.rows.iter().map(|r| (r.processor.clone(), r.cost.to_bits(), r.time.to_bits())).collect()
}

/// Unwraps a service response into its frontier report.
fn expect_frontier(response: Response) -> proto::FrontierReport {
    match response {
        Response::Frontier(report) => report,
        other => panic!("expected a frontier, got {other:?}"),
    }
}

/// Starts a daemon over `service`, optionally guarded by `token`.
fn start_daemon_with(
    service: EvalService,
    token: Option<&str>,
) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", Arc::new(service))
        .expect("bind loopback")
        .with_auth_token(token.map(str::to_string));
    let addr = server.local_addr().expect("bound address");
    let drain = server.drain_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, drain, handle)
}

/// A raw protocol socket past the handshake (no auth), for driving
/// frame sequences the typed client deliberately cannot produce.
fn raw_session(addr: SocketAddr, read_timeout: Duration) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("tcp connect");
    stream.set_read_timeout(Some(read_timeout)).expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    let server = proto::client_hello(&mut stream, proto::FEATURE_FRONTIER).expect("handshake");
    assert_ne!(server.features & proto::FEATURE_FRONTIER, 0, "daemon must offer frontiers");
    stream
}

fn send_request(stream: &mut TcpStream, request: &Request) {
    proto::write_frame(stream, &proto::encode_request(request)).expect("send frame");
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = proto::read_frame(stream).expect("response frame");
    proto::decode_response(&payload).expect("decodable response")
}

/// The tentpole soak: five distinct specs against a two-session cap.
/// The warm-session count never exceeds the cap, the overflow is
/// counted as evictions, and an evicted spec reruns correctly (the
/// bound trades memory for recompute, never for wrong answers).
#[test]
fn session_count_stays_bounded_under_spec_churn() {
    let _serial = common::fault_serial();
    let service = EvalService::with_config(ServiceConfig {
        max_sessions: Some(2),
        session_ttl: None,
        ..ServiceConfig::default()
    });

    let specs: Vec<String> =
        (0..5).map(|i| common::demo_spec_text("unepic", SOAK_EVENTS + i)).collect();
    let mut first_answer = None;
    for (i, text) in specs.iter().enumerate() {
        let report = expect_frontier(service.respond(Request::Frontier(frontier_request(text))));
        assert!(!report.rows.is_empty(), "spec {i}: empty frontier");
        if i == 0 {
            first_answer = Some(report_bits(&report));
        }
        let stats = service.stats();
        assert!(
            stats.sessions <= 2,
            "after spec {i}: {} warm sessions exceed the cap of 2",
            stats.sessions
        );
    }
    let stats = service.stats();
    assert!(
        stats.evictions >= 3,
        "5 specs through a 2-session cap must evict at least 3, saw {}",
        stats.evictions
    );

    // The first (long-evicted) spec still answers — and identically.
    let rerun = expect_frontier(service.respond(Request::Frontier(frontier_request(&specs[0]))));
    assert_eq!(Some(report_bits(&rerun)), first_answer, "evicted spec must rerun to the same bits");
}

/// A zero TTL expires every idle session as soon as another request
/// touches the service; the touched session itself is never evicted.
#[test]
fn zero_ttl_expires_idle_sessions() {
    let _serial = common::fault_serial();
    let service = EvalService::with_config(ServiceConfig {
        session_ttl: Some(Duration::ZERO),
        max_sessions: None,
        ..ServiceConfig::default()
    });
    let a = common::demo_spec_text("unepic", SOAK_EVENTS);
    let b = common::demo_spec_text("unepic", SOAK_EVENTS + 1);

    expect_frontier(service.respond(Request::Frontier(frontier_request(&a))));
    assert_eq!(service.stats().sessions, 1);

    // Touching B runs the eviction pass: A is expired, B is in use.
    expect_frontier(service.respond(Request::Frontier(frontier_request(&b))));
    let stats = service.stats();
    assert_eq!(stats.sessions, 1, "the expired session must be gone, the touched one kept");
    assert!(stats.evictions >= 1, "expiry must be counted: {stats:?}");
}

/// Persistence closes the eviction loop: a service with a `--db`
/// directory saves its scope cache, and a *fresh* service over the same
/// directory answers the same spec without a single recompute.
#[test]
fn persisted_scope_cache_survives_a_service_restart() {
    let _serial = common::fault_serial();
    let dir = std::env::temp_dir().join(format!("mhe-survive-db-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let text = common::demo_spec_text("unepic", SOAK_EVENTS);
    let config = ServiceConfig { persist_dir: Some(dir.clone()), ..ServiceConfig::default() };

    let service = EvalService::with_config(config.clone());
    let first = expect_frontier(service.respond(Request::Frontier(frontier_request(&text))));
    assert!(service.stats().computes > 0, "the cold run must compute");
    assert!(service.persist_all() >= 1, "the scope cache must be saved");
    drop(service);

    let restarted = EvalService::with_config(config);
    let second = expect_frontier(restarted.respond(Request::Frontier(frontier_request(&text))));
    let stats = restarted.stats();
    assert_eq!(stats.computes, 0, "a restart over the db must answer entirely warm: {stats:?}");
    assert!(stats.hits > 0, "the preloaded cache must be hit: {stats:?}");
    assert_eq!(report_bits(&first), report_bits(&second), "persisted answer drifted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The auth gate on the daemon port: no token and a wrong token are both
/// turned away with the documented exit code 6 before any request is
/// served; the right token is admitted and serves the exact batch bytes.
/// The tokened `stats` reply carries the version/feature/build triple
/// with `FEATURE_AUTH` announced.
#[test]
fn daemon_auth_rejects_bad_tokens_and_serves_good_ones_identically() {
    let _serial = common::fault_serial();
    let text = common::demo_spec_text("unepic", SOAK_EVENTS);
    let (want_render, want_bits) = batch_reference(&text);
    let (addr, drain, handle) =
        start_daemon_with(EvalService::new(ServiceLimits::default()), Some("open-sesame"));

    // Tokenless: the client refuses to answer the challenge.
    match Client::builder().addr(addr).connect() {
        Err(e @ ClientError::Remote { code, .. }) => {
            assert_eq!(code, mhe::core::EXIT_UNAUTHORIZED);
            assert_eq!(e.exit_code(), mhe::core::EXIT_UNAUTHORIZED);
            assert!(e.to_string().contains("auth token"), "{e}");
        }
        other => panic!("tokenless connect must fail with exit code 6, got {other:?}"),
    }

    // Wrong token: the server rejects the proof.
    match Client::builder().addr(addr).auth_token("swordfish").connect() {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, mhe::core::EXIT_UNAUTHORIZED);
            assert!(message.contains("authentication failed"), "{message}");
        }
        other => panic!("wrong token must fail with exit code 6, got {other:?}"),
    }

    // Right token: full service, byte-identical to batch.
    let mut client =
        Client::builder().addr(addr).auth_token("open-sesame").connect().expect("tokened connect");
    assert_ne!(client.features() & proto::FEATURE_AUTH, 0, "server must announce FEATURE_AUTH");
    let report = client.evaluate(frontier_request(&text)).expect("authed walk");
    assert_eq!(render_frontier(&report), want_render, "authed frontier differs from batch");
    assert_eq!(report_bits(&report), want_bits, "authed frontier bits differ from batch");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.version, proto::VERSION);
    assert_ne!(stats.features & proto::FEATURE_FRONTIER, 0, "{stats:?}");
    assert_ne!(stats.features & proto::FEATURE_AUTH, 0, "{stats:?}");
    assert!(!stats.build.is_empty(), "stats must carry the build version");

    drop(client);
    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// An open (tokenless) daemon reports the same triple without
/// `FEATURE_AUTH` — feature bits describe the connection, not a wish.
#[test]
fn open_daemon_stats_report_version_features_and_build() {
    let (addr, drain, handle) = start_daemon_with(EvalService::new(ServiceLimits::default()), None);
    let mut client = Client::builder().addr(addr).connect().expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.version, proto::VERSION);
    assert_eq!(stats.features, proto::FEATURE_FRONTIER);
    assert_eq!(stats.build, env!("CARGO_PKG_VERSION"));
    drop(client);
    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// A `Cancel` frame aborts the in-flight walk with the documented exit
/// code 7 — and the rerun on the same connection completes from the
/// partially-warmed cache, byte-identical to the batch answer.
///
/// Whether the cancel lands before the walk finishes is a race against
/// the machine, so each attempt uses a fresh spec (a cold session) and a
/// shrinking pre-cancel delay until one cancel wins; a cancel that loses
/// every race on every delay fails the test.
#[test]
fn cancel_frame_aborts_the_walk_and_the_rerun_is_bit_identical() {
    let _serial = common::fault_serial();
    let (addr, drain, handle) =
        start_daemon_with(EvalService::new(ServiceLimits { max_inflight: 1, max_queued: 0 }), None);

    let delays_ms = [200u64, 50, 10, 2, 0, 0];
    let mut won = None;
    for (attempt, delay) in delays_ms.into_iter().enumerate() {
        // A distinct event count per attempt means a distinct session:
        // every race starts from a cold (simulate + walk) request.
        let text = common::demo_spec_text("unepic", EVENTS + attempt);
        let mut stream = raw_session(addr, Duration::from_secs(300));
        send_request(&mut stream, &Request::Frontier(frontier_request(&text)));
        std::thread::sleep(Duration::from_millis(delay));
        send_request(&mut stream, &Request::Cancel);
        match read_response(&mut stream) {
            Response::Error { code, message } => {
                assert_eq!(code, mhe::core::EXIT_CANCELLED, "cancel must map to exit code 7");
                assert!(message.contains("cancelled"), "{message}");
                won = Some((text, stream));
                break;
            }
            // The walk beat the cancel to the finish line: legal, just
            // not the interleaving under test — try again, faster.
            Response::Frontier(_) => continue,
            other => panic!("expected cancelled-error or frontier, got {other:?}"),
        }
    }
    let (text, mut stream) = won.expect("no cancel beat the walk even with zero delay");

    // Same connection, same request: whatever the cancelled walk already
    // cached is reused, and the answer must not move.
    let (want_render, want_bits) = batch_reference(&text);
    send_request(&mut stream, &Request::Frontier(frontier_request(&text)));
    let report = expect_frontier(read_response(&mut stream));
    assert_eq!(render_frontier(&report), want_render, "post-cancel rerun differs from batch");
    assert_eq!(report_bits(&report), want_bits, "post-cancel rerun bits differ from batch");

    drop(stream);
    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// Disconnect-cancellation: a client that vanishes mid-request must not
/// pin the daemon's only admission slot. A second client polls until the
/// abandoned sweep is reaped, then gets the exact batch answer.
#[test]
fn client_disconnect_cancels_the_sweep_and_frees_the_slot() {
    let _serial = common::fault_serial();
    let text = common::demo_spec_text("unepic", EVENTS);
    let (want_render, want_bits) = batch_reference(&text);
    let (addr, drain, handle) =
        start_daemon_with(EvalService::new(ServiceLimits { max_inflight: 1, max_queued: 0 }), None);

    {
        let mut doomed = raw_session(addr, Duration::from_secs(10));
        send_request(&mut doomed, &Request::Frontier(frontier_request(&text)));
        std::thread::sleep(Duration::from_millis(200));
        // Vanish without reading the response.
    }

    // With max_inflight 1 and no queue, this only ever succeeds once the
    // abandoned request's slot is released — a leak fails the deadline.
    let deadline = Instant::now() + Duration::from_secs(120);
    let report = loop {
        let mut client = Client::builder().addr(addr).connect().expect("connect");
        match client.evaluate(frontier_request(&text)) {
            Ok(report) => break report,
            Err(ClientError::Rejected(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(other) => panic!("unexpected failure while polling for the slot: {other}"),
        }
    };
    assert_eq!(render_frontier(&report), want_render, "post-disconnect walk differs from batch");
    assert_eq!(report_bits(&report), want_bits, "post-disconnect walk bits differ from batch");

    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// One reader, one writer lock per connection: a second frontier sent
/// while the first runs is refused as "already in flight" (the running
/// walk still answers), a request sent the moment a reply lands is the
/// next request — served, never refused as busy — and every served
/// frontier is the batch bytes.
#[test]
fn requests_during_a_walk_are_busy_and_right_after_its_reply_are_served() {
    let _serial = common::fault_serial();
    let text = common::demo_spec_text("unepic", EVENTS);
    let (want_render, want_bits) = batch_reference(&text);
    let (addr, drain, handle) = start_daemon_with(EvalService::new(ServiceLimits::default()), None);
    let mut stream = raw_session(addr, Duration::from_secs(300));

    // The first request is cold (a reference simulation), so the second
    // frame lands while it runs.
    let request = Request::Frontier(frontier_request(&text));
    send_request(&mut stream, &request);
    send_request(&mut stream, &request);
    match read_response(&mut stream) {
        Response::Error { code, message } => {
            assert_eq!(code, mhe::core::EXIT_BAD_CONFIG, "{message}");
            assert!(message.contains("already in flight"), "{message}");
        }
        other => panic!("expected the busy refusal first, got {other:?}"),
    }
    let first = expect_frontier(read_response(&mut stream));
    assert_eq!(render_frontier(&first), want_render, "the walk behind the busy refusal differs");
    assert_eq!(report_bits(&first), want_bits, "the walk behind the busy refusal differs");

    for i in 0..5 {
        send_request(&mut stream, &request);
        let next = expect_frontier(read_response(&mut stream));
        assert_eq!(render_frontier(&next), want_render, "request {i} after a reply differs");
        assert_eq!(report_bits(&next), want_bits, "request {i} after a reply differs");
    }
    send_request(&mut stream, &Request::Ping);
    assert_eq!(read_response(&mut stream), Response::Pong, "a ping right after a reply");

    drop(stream);
    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// The gate itself: a full queue turns `try_admit` into an immediate
/// `None` (never a block), and dropping a permit reopens the gate.
#[test]
fn admission_gate_rejects_a_full_queue_without_blocking() {
    let gate = AdmissionGate::new(ServiceLimits { max_inflight: 1, max_queued: 0 });
    let permit = gate.try_admit().expect("first admit");
    assert_eq!(gate.occupancy(), (1, 0));

    // Queue of 0: the second claim must return None immediately.
    let started = Instant::now();
    assert!(gate.try_admit().is_none(), "full gate must reject");
    assert!(started.elapsed() < Duration::from_secs(5), "queue-full rejection must not block");

    drop(permit);
    assert_eq!(gate.occupancy(), (0, 0), "dropping the permit must free the slot");
    let reopened = gate.try_admit().expect("slot reusable after release");
    drop(reopened);
}

/// The slot frees on *every* exit path: a panicking request (injected
/// worker fault) and a cancelled request both release their permit, and
/// the disarmed rerun serves the exact answer.
#[test]
fn admission_slot_is_released_on_panic_and_on_cancellation() {
    let _serial = common::fault_serial();
    let text = common::demo_spec_text("unepic", SOAK_EVENTS);
    let service = EvalService::new(ServiceLimits { max_inflight: 1, max_queued: 0 });

    // Warm the session first so the injected fault lands in the walk.
    let baseline = expect_frontier(service.respond(Request::Frontier(frontier_request(&text))));

    {
        let _guard = fault::arm(FaultPlan::new(vec![Fault::PanicTask { task: 0 }]));
        let fresh = FrontierRequest {
            policies: Some(vec![Policy::Fifo]), // force fresh metrics past the warm cache
            ..frontier_request(&text)
        };
        match service.respond(Request::Frontier(fresh)) {
            Response::Error { code, message } => {
                assert_eq!(code, mhe::core::EXIT_WORKER_FAILURE);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected the injected panic, got {other:?}"),
        }
    }
    assert_eq!(service.gate().occupancy(), (0, 0), "panic must release the admission slot");

    let cancelled = CancelToken::new();
    cancelled.cancel();
    match service.respond_with_cancel(Request::Frontier(frontier_request(&text)), Some(cancelled)) {
        Response::Error { code, .. } => assert_eq!(code, mhe::core::EXIT_CANCELLED),
        other => panic!("expected the cancelled-request error, got {other:?}"),
    }
    assert_eq!(service.gate().occupancy(), (0, 0), "cancellation must release the admission slot");

    let rerun = expect_frontier(service.respond(Request::Frontier(frontier_request(&text))));
    assert_eq!(
        report_bits(&baseline),
        report_bits(&rerun),
        "the service must stay warm and identical past panic and cancellation"
    );
}
