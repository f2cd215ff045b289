//! The daemon's network face: a TCP accept loop over an [`EvalService`].
//!
//! One thread per connection, one request at a time per connection —
//! which is the per-client fairness policy: a client cannot occupy more
//! than one admission slot, so N clients share the gate's in-flight
//! budget evenly no matter how fast any one of them queues work.
//!
//! Shutdown is a *drain*, not a kill: when the drain flag turns on
//! (programmatically via [`Server::drain_handle`] or by SIGTERM/SIGINT
//! after [`Server::install_signal_drain`]), the listener stops accepting,
//! every connection finishes the request it is serving (reads park on a
//! short timeout and re-check the flag only at frame boundaries), and
//! [`Server::run`] joins them all before returning — so a supervisor that
//! SIGTERMs the daemon gets exit 0 and no half-written frames.

use super::proto::{
    decode_request, encode_response, handshake, read_exact_or_stop, write_frame, FrameReader,
    Handshake, Request, Response, FEATURE_AUTH, FEATURE_FRONTIER, HANDSHAKE_LEN, MAGIC, VERSION,
};
use super::EvalService;
use mhe_core::CancelToken;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a connection read parks before re-checking the drain flag.
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
    stream.write_all(&handshake(features))?;
    stream.flush()?;
    let mut reader_stream = stream.try_clone()?;
    let stop = || drain.load(Ordering::SeqCst) || SIG_DRAIN.load(Ordering::SeqCst);

    // Client's reply: the magic distinguishes a v2 handshake from a
    // legacy frame (a frame's length prefix can never spell `MHES` —
    // that value is far above MAX_FRAME).
    let mut opening = [0u8; 4];
    if !read_exact_or_stop(&mut reader_stream, &mut opening, &stop)? {
        return Ok(()); // port-scanner or drain: nothing to answer
    }
    if opening == MAGIC {
        let mut rest = [0u8; HANDSHAKE_LEN - 4];
        if !read_exact_or_stop(&mut reader_stream, &mut rest, &stop)? {
            return Ok(());
        }
        let mut full = [0u8; HANDSHAKE_LEN];
        full[..4].copy_from_slice(&opening);
        full[4..].copy_from_slice(&rest);
        let client = Handshake::decode(&full)?;
        if client.version != VERSION {
            return reject_version(&mut stream, client.version);
        }
    } else {
        // Not a handshake: a pre-v2 client skipped straight to a frame.
        return reject_version(&mut stream, 1);
    }

    let mut reader = FrameReader::new(reader_stream);
    if let Some(token) = auth_token {
        if !authenticate(&mut stream, &mut reader, token, &stop)? {
            return Ok(());
        }
    }
    while let Some(payload) = reader.read_frame(&stop)? {
        let response = match decode_request(&payload) {
            Ok(request @ Request::Frontier(_)) => {
                match serve_frontier(service, &mut reader, &mut stream, request)? {
                    Some(response) => response,
                    None => return Ok(()), // client vanished mid-request
                }
            }
            Ok(request) => {
                let mut response = service.respond(request);
                if let Response::Stats(stats) = &mut response {
                    // The service knows its counters; only the connection
                    // knows what features it announced.
                    stats.features = features;
                }
                response
            }
            Err(e) => Response::Error {
                code: mhe_core::EXIT_BAD_CONFIG,
                message: format!("malformed request: {e}"),
            },
        };
        write_frame(&mut stream, &encode_response(&response))?;
    }
    Ok(())
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
    if verified {
        write_frame(stream, &encode_response(&Response::Pong))?;
    } else {
        write_frame(
            stream,
            &encode_response(&Response::Error {
                code: mhe_core::EXIT_UNAUTHORIZED,
                message: "authentication failed (bad or missing token)".into(),
            }),
        )?;
    }
    Ok(verified)
}

/// Runs one frontier request on a scoped worker thread while this thread
/// keeps reading the connection, so a [`Request::Cancel`] frame or a
/// client disconnect cancels the sweep at its next task boundary (the
/// admission slot frees as soon as the sweep stops). Returns `Ok(None)`
/// when the connection died — the response is undeliverable.
fn serve_frontier(
    service: &EvalService,
    reader: &mut FrameReader<TcpStream>,
    stream: &mut TcpStream,
    request: Request,
) -> io::Result<Option<Response>> {
    let cancel = CancelToken::new();
    let mut dead = false;
    let response = std::thread::scope(|scope| {
        let worker_cancel = cancel.clone();
        let handle = scope.spawn(move || {
            let before = mhe_obs::Snapshot::now();
            let response = service.respond_with_cancel(request, Some(worker_cancel));
            if mhe_obs::enabled() {
                mhe_obs::RunReport::since(
                    "mhe-server",
                    mhe_core::parallel::worker_threads(),
                    &before,
                )
                .emit();
            }
            response
        });
        while !handle.is_finished() {
            // The read timeout is the poll point; drain is deliberately
            // ignored here — a draining server finishes what it serves.
            let stop_busy = || handle.is_finished();
            match reader.read_frame(&stop_busy) {
                Ok(Some(frame)) => match decode_request(&frame) {
                    Ok(Request::Cancel) => cancel.cancel(),
                    _ => {
                        let busy = Response::Error {
                            code: mhe_core::EXIT_BAD_CONFIG,
                            message: "a request is already in flight on this connection".into(),
                        };
                        if write_frame(stream, &encode_response(&busy)).is_err() {
                            dead = true;
                            cancel.cancel();
                            break;
                        }
                    }
                },
                Ok(None) => {
                    if !handle.is_finished() {
                        // Clean EOF while the sweep runs: the client hung
                        // up — disconnect-cancellation.
                        dead = true;
                        cancel.cancel();
                    }
                    break;
                }
                Err(_) => {
                    dead = true;
                    cancel.cancel();
                    break;
                }
            }
        }
        match handle.join() {
            Ok(response) => response,
            Err(_) => Response::Error {
                code: mhe_core::EXIT_WORKER_FAILURE,
                message: "request thread panicked".into(),
            },
        }
    });
    if dead {
        return Ok(None);
    }
    Ok(Some(response))
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
