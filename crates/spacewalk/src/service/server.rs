//! The daemon's network face: a TCP accept loop over an [`EvalService`].
//!
//! One thread per connection, one request at a time per connection —
//! which is the per-client fairness policy: a client cannot occupy more
//! than one admission slot, so N clients share the gate's in-flight
//! budget evenly no matter how fast any one of them queues work.
//!
//! Each connection has one reader for its whole life. A frontier request
//! runs on its own thread, which writes the reply the moment the walk
//! returns; meanwhile the reader keeps reading, so a `Cancel` frame or a
//! disconnect cancels the sweep and any other frame gets an "already in
//! flight" error. Both writers share one per-connection lock, and a
//! frame read after the reply went out is simply the next request. No
//! reply waits on a timer.
//!
//! Shutdown is a *drain*, not a kill: when the drain flag turns on
//! (programmatically via [`Server::drain_handle`] or by SIGTERM/SIGINT
//! after [`Server::install_signal_drain`]), the listener stops accepting,
//! every connection finishes the request it is serving (an idle read
//! wakes on a short timeout to re-check the flag, only at frame
//! boundaries), and [`Server::run`] joins them all before returning — so
//! a supervisor that SIGTERMs the daemon gets exit 0 and no half-written
//! frames.

use super::proto::{
    accept_hello, decode_request, encode_response, write_frame, FrameReader, Refusal, Request,
    Response, FEATURE_AUTH, FEATURE_FRONTIER, VERSION,
};
use super::EvalService;
use mhe_core::CancelToken;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{JoinHandle, ScopedJoinHandle};
use std::time::Duration;

/// How often an idle connection's read wakes to re-check the drain flag.
const DRAIN_POLL: Duration = Duration::from_millis(100);
/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// The process-wide drain flag set by the installed signal handler.
static SIG_DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_drain_signal(_signum: i32) {
    // Only async-signal-safe work here: flip one atomic.
    SIG_DRAIN.store(true, Ordering::SeqCst);
}

/// A running daemon endpoint: listener + service + drain flag.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<EvalService>,
    drain: Arc<AtomicBool>,
    auth_token: Option<String>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over
    /// `service`. The shared auth token defaults from `MHE_AUTH_TOKEN`
    /// (none = open server); override with [`Server::with_auth_token`].
    ///
    /// # Errors
    ///
    /// Propagates bind / socket-configuration failures.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<EvalService>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept so the loop can poll the drain flag.
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            service,
            drain: Arc::new(AtomicBool::new(false)),
            auth_token: crate::cli::AUTH_TOKEN.env(),
        })
    }

    /// Sets (or clears) the shared token clients must prove knowledge of
    /// before any request is served (announced as [`FEATURE_AUTH`]).
    #[must_use]
    pub fn with_auth_token(mut self, token: Option<String>) -> Self {
        self.auth_token = token;
        self
    }

    /// The actually-bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared drain flag; store `true` to begin a graceful shutdown.
    pub fn drain_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.drain)
    }

    /// Routes SIGTERM and SIGINT into a graceful drain of this process's
    /// servers (they share one process-wide flag; every server polls it).
    pub fn install_signal_drain(&self) {
        type SigHandler = extern "C" fn(i32);
        extern "C" {
            fn signal(signum: i32, handler: SigHandler) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the libc std already links; the handler
        // only stores to an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_drain_signal);
            signal(SIGINT, on_drain_signal);
        }
    }

    /// Accepts and serves connections until the drain flag (local handle
    /// or process-wide signal flag) turns on, then joins every
    /// connection thread and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors other than the expected
    /// would-block; per-connection errors are contained in their threads.
    pub fn run(&self) -> io::Result<()> {
        let mut workers = Vec::new();
        loop {
            if self.drain.load(Ordering::SeqCst) || SIG_DRAIN.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    reap_finished(&mut workers);
                    let service = Arc::clone(&self.service);
                    let drain = Arc::clone(&self.drain);
                    let token = self.auth_token.clone();
                    workers.push(std::thread::spawn(move || {
                        // Per-connection failures end that connection only.
                        let _ = serve_connection(stream, &service, &drain, token.as_deref());
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for w in workers {
            let _ = w.join();
        }
        // Drained: persist every scope cache so a restart answers warm.
        self.service.persist_all();
        Ok(())
    }
}

/// Joins every handle whose thread has exited, so an accept loop holds
/// only its live connections instead of one stack per past one.
pub(crate) fn reap_finished<T>(handles: &mut Vec<JoinHandle<T>>) {
    for done in handles.extract_if(.., |h| h.is_finished()) {
        let _ = done.join();
    }
}

/// Serves one connection: two-way handshake, an auth exchange when the
/// server carries a token, then a request/response loop that ends on
/// clean EOF or — at a frame boundary — on drain.
///
/// The server writes its announcement first, then inspects the client's
/// opening bytes. A v2+ client answers with its own 12-byte handshake
/// (leading with the magic); anything else — in particular a v1 client
/// that opens with a frame length prefix — gets a *structured*
/// `Response::Error` naming the version mismatch instead of a cryptic
/// frame error, then the connection closes.
fn serve_connection(
    mut stream: TcpStream,
    service: &EvalService,
    drain: &AtomicBool,
    auth_token: Option<&str>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(DRAIN_POLL))?;
    stream.set_nodelay(true)?;
    let features = FEATURE_FRONTIER | if auth_token.is_some() { FEATURE_AUTH } else { 0 };
    let stop = || drain.load(Ordering::SeqCst) || SIG_DRAIN.load(Ordering::SeqCst);
    match accept_hello(&mut stream, features, &stop)? {
        None => return Ok(()), // port-scanner or drain: nothing to answer
        Some(Ok(_client)) => {}
        // A pre-v2 client skipped the handshake and opened with a frame.
        Some(Err(Refusal::NoMagic)) => return reject_version(&mut stream, 1),
        Some(Err(Refusal::Version(version))) => return reject_version(&mut stream, version),
    }

    let mut reader = FrameReader::new(stream.try_clone()?);
    if let Some(token) = auth_token {
        if !authenticate(&mut stream, &mut reader, token, &stop)? {
            return Ok(());
        }
    }
    let outbox = Mutex::new(Outbox { stream, running: None });
    let lock = || outbox.lock().unwrap_or_else(PoisonError::into_inner);
    std::thread::scope(|scope| {
        // The thread of the latest frontier request, joined once its
        // reply is out and the next request arrives.
        let mut flight: Option<ScopedJoinHandle<'_, ()>> = None;
        loop {
            // Drain stops only an idle connection: a running request
            // finishes and replies first.
            let payload = match reader.read_frame(&|| stop() && lock().running.is_none()) {
                Ok(Some(payload)) => payload,
                end => {
                    // EOF or a dead socket while a request runs: its reply
                    // is undeliverable, so cancel it (disconnect-cancel).
                    if let Some(cancel) = lock().running.take() {
                        cancel.cancel();
                    }
                    return end.map(drop);
                }
            };
            let request = decode_request(&payload);
            {
                let mut out = lock();
                let out = &mut *out;
                if let Some(cancel) = &out.running {
                    if matches!(request, Ok(Request::Cancel)) {
                        cancel.cancel();
                    } else if write_frame(&mut out.stream, &encode_response(&busy())).is_err() {
                        cancel.cancel();
                        out.running = None;
                        return Ok(());
                    }
                    continue;
                }
            }
            if let Some(done) = flight.take() {
                let _ = done.join();
            }
            let response = match request {
                Ok(request @ Request::Frontier(_)) => {
                    let cancel = CancelToken::new();
                    lock().running = Some(cancel.clone());
                    let outbox = &outbox;
                    flight =
                        Some(scope.spawn(move || reply_frontier(service, request, cancel, outbox)));
                    continue;
                }
                Ok(request) => {
                    let mut response = service.respond(request);
                    if let Response::Stats(stats) = &mut response {
                        // The service knows its counters; only the
                        // connection knows what features it announced.
                        stats.features = features;
                    }
                    response
                }
                Err(e) => Response::Error {
                    code: mhe_core::EXIT_BAD_CONFIG,
                    message: format!("malformed request: {e}"),
                },
            };
            write_frame(&mut lock().stream, &encode_response(&response))?;
        }
    })
}

/// The write half of a connection, shared by its reader and the thread
/// running its frontier request. Every frame the server sends goes out
/// under this one lock, so a reply and a busy error never interleave.
struct Outbox {
    stream: TcpStream,
    /// The running frontier request's cancel token; taken — under the
    /// lock, before the reply is written — the moment the request ends.
    running: Option<CancelToken>,
}

/// The refusal for a second request while one is running.
fn busy() -> Response {
    Response::Error {
        code: mhe_core::EXIT_BAD_CONFIG,
        message: "a request is already in flight on this connection".into(),
    }
}

/// Runs one frontier request on its own thread — so the reader keeps
/// watching for a [`Request::Cancel`] frame or a disconnect, either of
/// which cancels the sweep at its next task boundary — and writes the
/// reply the moment it is ready, unless the reader abandoned it.
fn reply_frontier(
    service: &EvalService,
    request: Request,
    cancel: CancelToken,
    outbox: &Mutex<Outbox>,
) {
    let response = catch_unwind(AssertUnwindSafe(|| {
        let before = mhe_obs::Snapshot::now();
        let response = service.respond_with_cancel(request, Some(cancel));
        if mhe_obs::enabled() {
            mhe_obs::RunReport::since("mhe-server", mhe_core::parallel::worker_threads(), &before)
                .emit();
        }
        response
    }))
    .unwrap_or_else(|_| Response::Error {
        code: mhe_core::EXIT_WORKER_FAILURE,
        message: "request thread panicked".into(),
    });
    let mut out = outbox.lock().unwrap_or_else(PoisonError::into_inner);
    if out.running.take().is_some()
        && write_frame(&mut out.stream, &encode_response(&response)).is_err()
    {
        // Close both halves so the reader ends the connection too.
        let _ = out.stream.shutdown(Shutdown::Both);
    }
}

/// Challenge/response over the shared token: a fresh nonce out, an HMAC
/// proof back, constant-time compare, then a confirming `Pong` (so the
/// client knows the session is live before its first real request).
/// Returns `Ok(false)` (after a structured code-6 error when the peer is
/// still there) unless the proof verifies.
fn authenticate(
    stream: &mut TcpStream,
    reader: &mut FrameReader<TcpStream>,
    token: &str,
    stop: &dyn Fn() -> bool,
) -> io::Result<bool> {
    let nonce = mhe_core::auth::fresh_nonce();
    write_frame(stream, &encode_response(&Response::AuthChallenge { nonce }))?;
    let Some(payload) = reader.read_frame(stop)? else {
        return Ok(false); // disconnected (or drained) instead of answering
    };
    let verified = matches!(
        decode_request(&payload),
        Ok(Request::Auth { proof }) if mhe_core::auth::verify(token, &nonce, &proof)
    );
    let verdict = if verified {
        Response::Pong
    } else {
        Response::Error {
            code: mhe_core::EXIT_UNAUTHORIZED,
            message: "authentication failed (bad or missing token)".into(),
        }
    };
    write_frame(stream, &encode_response(&verdict))?;
    Ok(verified)
}

/// Answers an incompatible client with a structured version rejection.
fn reject_version(stream: &mut TcpStream, client_version: u32) -> io::Result<()> {
    let response = Response::Error {
        code: mhe_core::EXIT_BAD_CONFIG,
        message: format!(
            "unsupported protocol version {client_version} (this server speaks {VERSION})"
        ),
    };
    write_frame(stream, &encode_response(&response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn reap_finished_joins_exited_threads_and_keeps_live_ones() {
        let (release, gate) = mpsc::channel::<()>();
        let mut handles: Vec<_> = (0..3).map(|_| std::thread::spawn(|| ())).collect();
        handles.push(std::thread::spawn(move || {
            let _ = gate.recv();
        }));
        while handles.iter().filter(|h| h.is_finished()).count() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut handles);
        assert_eq!(handles.len(), 1, "the three exited threads are joined");
        assert!(!handles[0].is_finished(), "the live thread is kept");

        drop(release);
        while !handles[0].is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut handles);
        assert!(handles.is_empty());
    }
}
