//! Differential harness for the evaluation daemon.
//!
//! The contract under test: a frontier served over the daemon socket is
//! the *same bytes* an in-process batch run prints for the same spec —
//! at any client count, with admission queueing in play, under injected
//! worker panics, and across warm-cache repeats. Byte-identity is
//! checked on the rendered listing (what `spacewalker` prints) *and* on
//! the raw `f64` bit patterns carried by the wire report, so a
//! formatting coincidence cannot mask a numeric drift.
//!
//! Also covered: the liveness/stats surface, structured error codes for
//! failed requests (the session must stay warm afterwards), and the
//! graceful drain — after the flag flips, the accept loop stops, live
//! connections finish their frame, and fresh connects are refused.

use mhe::core::evaluator::EvalConfig;
use mhe::core::fault::{self, Fault, FaultPlan};
use mhe::prelude::*;
use mhe::spacewalk::service::proto::FrontierRequest;
use mhe::spacewalk::spec::Spec;
use mhe::spacewalk::{render_frontier, report_from, walker, ClientError};
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;

mod common;

/// Short but non-degenerate: full heuristic walks finish in seconds in
/// debug builds while still producing a multi-row frontier.
const EVENTS: usize = 20_000;

fn spec_text() -> String {
    common::demo_spec_text("unepic", EVENTS)
}

/// The in-process batch answer for `text` — the exact computation
/// `spacewalker` runs, ending in the same report/renderer pair.
fn batch_reference(text: &str) -> (String, Vec<(String, u64, u64)>) {
    let spec = Spec::parse(text).expect("demo spec parses");
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

/// Starts a daemon on an ephemeral loopback port; returns its address,
/// drain flag, and the serve-loop join handle.
fn start_daemon(limits: ServiceLimits) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
    let server =
        Server::bind("127.0.0.1:0", Arc::new(EvalService::new(limits))).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let drain = server.drain_handle();
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, drain, handle)
}

fn frontier_request(heuristic: bool) -> FrontierRequest {
    FrontierRequest { spec_text: spec_text(), heuristic, sampling: None, policies: None }
}

/// The acceptance gate: four concurrent clients — half running the full
/// heuristic walk, half the plain walk — against limits that force
/// queueing, every served frontier byte-identical (rendered listing and
/// `f64` bits) to the in-process batch run, including a warm repeat.
#[test]
fn four_concurrent_clients_match_the_batch_frontier_byte_for_byte() {
    let _serial = common::fault_serial();
    let (want_text, want_bits) = batch_reference(&spec_text());
    // max_inflight 2 < 4 clients: two requests queue at the gate, which
    // must delay them, not change or reject them.
    let (addr, drain, handle) = start_daemon(ServiceLimits { max_inflight: 2, max_queued: 8 });

    let workers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::builder().addr(addr).connect().expect("connect");
                let heuristic = i < 2;
                let report = client.evaluate(frontier_request(heuristic)).expect("served walk");
                let bits: Vec<(String, u64, u64)> = report
                    .rows
                    .iter()
                    .map(|r| (r.processor.clone(), r.cost.to_bits(), r.time.to_bits()))
                    .collect();
                // Warm repeat on the same connection: session and cache
                // are hot, the answer must not move (the hit/compute
                // counters legitimately advance; the frontier may not).
                let again = client.evaluate(frontier_request(heuristic)).expect("warm repeat");
                assert_eq!(report.rows, again.rows, "client {i}: warm repeat moved the frontier");
                assert_eq!(report.sampling, again.sampling, "client {i}: provenance moved");
                (render_frontier(&report), bits)
            })
        })
        .collect();
    for (i, w) in workers.into_iter().enumerate() {
        let (text, bits) = w.join().expect("client thread");
        assert_eq!(text, want_text, "client {i}: rendered frontier differs from batch");
        assert_eq!(bits, want_bits, "client {i}: frontier bits differ from batch");
    }

    // All four specs share one warm session and one scope cache.
    let mut client = Client::builder().addr(addr).connect().expect("connect for stats");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions, 1, "identical specs must share one session");
    assert!(stats.hits > 0, "warm repeats must hit the shared cache");
    drop(client);

    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// An injected worker panic inside the served walk surfaces as a
/// structured exit-code-4 error on the client — and the session stays
/// warm: the disarmed retry serves the exact batch answer.
#[test]
fn injected_panic_is_structured_and_the_session_recovers() {
    let _serial = common::fault_serial();
    let (want_text, _) = batch_reference(&spec_text());
    let (addr, drain, handle) = start_daemon(ServiceLimits { max_inflight: 1, max_queued: 4 });
    let mut client = Client::builder().addr(addr).connect().expect("connect");

    // Build the session warm first (injection targets the *walk* phase;
    // a cold first request would spend the fault during the heuristic
    // prewarm of the same request and still succeed — we want the error
    // path, deterministically).
    let baseline = client.evaluate(frontier_request(false)).expect("cold walk");
    assert_eq!(render_frontier(&baseline), want_text);

    {
        let _guard = fault::arm(FaultPlan::new(vec![Fault::PanicTask { task: 0 }]));
        let err = client
            .evaluate(FrontierRequest {
                spec_text: spec_text(),
                heuristic: false,
                sampling: None,
                // A policy override forces fresh metrics, so the armed
                // walk cannot be answered entirely from cache hits.
                policies: Some(vec![Policy::Fifo]),
            })
            .expect_err("the injected panic must fail the request");
        match &err {
            ClientError::Remote { code, message } => {
                assert_eq!(*code, mhe::core::EXIT_WORKER_FAILURE, "{err}");
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected Remote worker failure, got {other:?}"),
        }
    }

    // Disarmed: the same connection, the same daemon, the exact batch
    // bytes — the panic poisoned nothing.
    let recovered = client.evaluate(frontier_request(false)).expect("recovered walk");
    assert_eq!(render_frontier(&recovered), want_text, "session must stay warm past a panic");

    drop(client);
    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// Liveness and counters over the wire.
#[test]
fn ping_and_stats_round_trip() {
    let _serial = common::fault_serial();
    let (addr, drain, handle) = start_daemon(ServiceLimits::default());
    let mut client = Client::builder().addr(addr).connect().expect("connect");
    client.ping().expect("pong");
    let cold = client.stats().expect("stats");
    assert_eq!((cold.sessions, cold.entries, cold.computes), (0, 0, 0));

    client.evaluate(frontier_request(false)).expect("walk");
    let warm = client.stats().expect("stats after walk");
    assert_eq!(warm.sessions, 1);
    assert!(warm.entries > 0 && warm.computes > 0);

    drop(client);
    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// A warm reply leaves when the walk returns, not when the connection's
/// idle read next wakes to check for a drain: ten warm frontier requests
/// on one connection take far less than ten drain polls. They are warm
/// in the work they do, not only in time: no new metric and no new
/// session.
#[test]
fn warm_replies_do_not_wait_for_the_drain_poll() {
    let _serial = common::fault_serial();
    let (want_text, _) = batch_reference(&spec_text());
    let (addr, drain, handle) = start_daemon(ServiceLimits::default());
    let mut client = Client::builder().addr(addr).connect().expect("connect");
    let cold = client.evaluate(frontier_request(false)).expect("cold walk");
    assert_eq!(render_frontier(&cold), want_text);
    let sessions = client.stats().expect("stats after the cold walk").sessions;

    let started = std::time::Instant::now();
    for i in 0..10 {
        let warm = client.evaluate(frontier_request(false)).expect("warm walk");
        assert_eq!(render_frontier(&warm), want_text, "warm request {i} differs from batch");
        assert_eq!(warm.computes, cold.computes, "warm request {i} computed new metrics");
    }
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_millis(500),
        "10 warm replies took {took:?}: replies are waiting on a timer"
    );
    assert_eq!(client.stats().expect("stats after the warm walks").sessions, sessions);

    drop(client);
    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// Graceful drain: the serve loop joins its connections and returns;
/// fresh connects are refused afterwards.
#[test]
fn drain_stops_accepting_and_joins_cleanly() {
    let (addr, drain, handle) = start_daemon(ServiceLimits::default());
    let mut client = Client::builder().addr(addr).connect().expect("connect before drain");
    client.ping().expect("pong before drain");

    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("serve loop exits cleanly on drain");

    match Client::builder().addr(addr).connect() {
        Err(e @ ClientError::Unavailable(_)) => {
            assert_eq!(e.exit_code(), mhe::core::EXIT_SERVER_UNAVAILABLE);
        }
        Err(other) => panic!("expected Unavailable, got {other:?}"),
        Ok(_) => panic!("a drained daemon must not accept new connections"),
    }
}

/// Version negotiation: a client announcing protocol v1 gets a
/// *structured* rejection (exit-code-2 error naming both versions), not
/// a hang or a slammed socket.
#[test]
fn v1_client_is_rejected_with_a_structured_error() {
    use mhe::spacewalk::service::proto;
    use std::io::{Read, Write};

    let (addr, drain, handle) = start_daemon(ServiceLimits::default());
    let mut stream = std::net::TcpStream::connect(addr).expect("tcp connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");

    // The server announces first: magic + version + feature bits.
    let mut hello = [0u8; proto::HANDSHAKE_LEN];
    stream.read_exact(&mut hello).expect("server announcement");
    let server = proto::Handshake::decode(&hello).expect("well-formed announcement");
    assert_eq!(server.version, proto::VERSION);
    assert_ne!(server.features & proto::FEATURE_FRONTIER, 0, "daemon must offer frontiers");

    // Reply as a version-1 client.
    let v1 = proto::Handshake { version: 1, features: 0 };
    stream.write_all(&v1.encode()).expect("v1 announcement");

    let payload = proto::read_frame(&mut stream).expect("structured rejection frame");
    match proto::decode_response(&payload).expect("decodable response") {
        proto::Response::Error { code, message } => {
            assert_eq!(code, mhe::core::EXIT_BAD_CONFIG);
            assert!(message.contains("unsupported protocol version 1"), "{message}");
        }
        other => panic!("expected a version rejection, got {other:?}"),
    }

    drop(stream);
    drain.store(true, std::sync::atomic::Ordering::SeqCst);
    handle.join().expect("drained serve loop");
}

/// A server announcing another protocol version is refused on the
/// client side with a structured `UnsupportedVersion` (exit code 5),
/// after the client has still answered with its own announcement.
#[test]
fn client_refuses_a_server_speaking_another_version() {
    use mhe::spacewalk::service::proto;
    use std::io::{Read, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept client");
        let v99 = proto::Handshake { version: 99, features: proto::FEATURE_FRONTIER };
        stream.write_all(&v99.encode()).expect("announce v99");
        let mut reply = [0u8; proto::HANDSHAKE_LEN];
        stream.read_exact(&mut reply).expect("client announcement");
        reply
    });

    let err = Client::builder().addr(addr).connect().expect_err("a version skew must refuse");
    assert_eq!(err, ClientError::UnsupportedVersion { server: 99, client: 3 });
    assert_eq!(err.exit_code(), 5);
    let reply = fake.join().expect("fake server thread");
    assert_eq!(reply, proto::handshake(proto::FEATURE_FRONTIER));
}
