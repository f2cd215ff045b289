//! The daemon client: a blocking connection speaking the frame protocol.
//!
//! Connections are built through [`Client::builder`] — address, timeout
//! and retry policy are explicit, and [`ClientBuilder::connect`] returns
//! a session handle with typed [`Client::ping`]/[`Client::stats`]/
//! [`Client::evaluate`] calls. The error taxonomy maps every failure to
//! the exit code the CLI contract promises — [`EXIT_SERVER_UNAVAILABLE`]
//! for anything that kept the daemon from *answering* (unreachable,
//! handshake mismatch, stream corruption, admission rejection), and the
//! server-reported code verbatim when the request ran and failed
//! remotely. A protocol-version skew is its own structured variant
//! ([`ClientError::UnsupportedVersion`]), never a frame error.

use super::proto::{
    client_hello, decode_response, encode_request, read_frame, write_frame, FrontierReport,
    FrontierRequest, Handshake, Request, Response, StatsReport, CLIENT_READ_TIMEOUT, FEATURE_AUTH,
    FEATURE_FRONTIER, VERSION,
};
use mhe_core::{EXIT_SERVER_UNAVAILABLE, EXIT_UNAUTHORIZED};
use mhe_workload::rng::SplitMix64;
use std::fmt;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Why a daemon query failed, from the client's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The daemon could not be reached (connect failure, handshake never
    /// arrived, connection dropped).
    Unavailable(String),
    /// The daemon answered but turned the request away at admission
    /// (queue full) — the request never started; retrying later is safe.
    Rejected(String),
    /// The request ran on the daemon and failed there.
    Remote {
        /// The exit code the daemon assigned (see [`mhe_core::error`]).
        code: u8,
        /// The daemon's rendered diagnostic.
        message: String,
    },
    /// The peer speaks a different protocol version — a real mhe
    /// endpoint, just from an incompatible build.
    UnsupportedVersion {
        /// The version the server announced.
        server: u32,
        /// The version this client speaks.
        client: u32,
    },
    /// The byte stream violated the protocol (bad handshake, malformed
    /// frame, wrong response kind).
    Protocol(String),
}

impl ClientError {
    /// The process exit code a CLI maps this failure to:
    /// the daemon's own code for [`ClientError::Remote`],
    /// [`EXIT_SERVER_UNAVAILABLE`] for everything else.
    pub fn exit_code(&self) -> u8 {
        match self {
            ClientError::Remote { code, .. } => *code,
            ClientError::Unavailable(_)
            | ClientError::Rejected(_)
            | ClientError::UnsupportedVersion { .. }
            | ClientError::Protocol(_) => EXIT_SERVER_UNAVAILABLE,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Unavailable(detail) => write!(f, "server unavailable: {detail}"),
            ClientError::Rejected(reason) => write!(f, "server rejected request: {reason}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error (exit code {code}): {message}")
            }
            ClientError::UnsupportedVersion { server, client } => {
                write!(f, "unsupported protocol version {server} (this client speaks {client})")
            }
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A jittered, deadline-bounded dial-retry schedule.
///
/// Pure state machine: [`RetrySchedule::next_delay`] takes the elapsed
/// wall time as an argument and returns the pause before the next
/// attempt, or `None` when attempts or the total deadline are exhausted
/// — so unit tests drive it with a fake clock and real callers pass
/// `started.elapsed()`. Delays double per attempt (capped at 64× the
/// base) with deterministic ±50% jitter from the seed, which de-herds
/// workers that all lost the same coordinator at the same instant.
#[derive(Debug, Clone)]
pub struct RetrySchedule {
    base: Duration,
    retries: u32,
    deadline: Option<Duration>,
    attempt: u32,
    rng: SplitMix64,
}

impl RetrySchedule {
    /// A schedule of up to `retries` attempts, pausing around
    /// `base * 2^attempt` between them, never letting the *next* attempt
    /// start past `deadline` (when given).
    pub fn new(base: Duration, retries: u32, deadline: Option<Duration>, seed: u64) -> Self {
        Self { base, retries, deadline, attempt: 0, rng: SplitMix64::new(seed) }
    }

    /// Attempts granted so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The pause before the next retry, or `None` to give up: either
    /// every retry is spent, or `elapsed + pause` would cross the
    /// deadline (retrying *after* the deadline helps nobody).
    pub fn next_delay(&mut self, elapsed: Duration) -> Option<Duration> {
        if self.attempt >= self.retries {
            return None;
        }
        self.attempt += 1;
        let doubled = self.base.saturating_mul(1u32 << (self.attempt - 1).min(6));
        // Jitter factor in [0.5, 1.5).
        let jitter = 0.5 + (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let delay = doubled.mul_f64(jitter);
        self.deadline.is_none_or(|deadline| elapsed + delay < deadline).then_some(delay)
    }

    /// A schedule whose jitter is seeded from the address it dials, so
    /// callers aimed at different endpoints de-correlate even with
    /// identical configs.
    pub(crate) fn for_addr(
        addr: &str,
        base: Duration,
        retries: u32,
        deadline: Option<Duration>,
    ) -> Self {
        let seed =
            addr.bytes().fold(0xA5A5_0001u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        Self::new(base, retries, deadline, seed)
    }

    /// Runs `attempt` until it succeeds or fails with anything but
    /// [`ClientError::Unavailable`], pausing per this schedule between
    /// tries and returning the last error once the schedule gives up.
    /// Each retry is logged to stderr as `{error}; {verb} n/max`.
    pub(crate) fn drive<T>(
        mut self,
        verb: &str,
        mut attempt: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let started = Instant::now();
        loop {
            match attempt() {
                Err(e @ ClientError::Unavailable(_)) => {
                    let Some(delay) = self.next_delay(started.elapsed()) else {
                        return Err(e);
                    };
                    eprintln!("spacewalker: {e}; {verb} {}/{}", self.attempt, self.retries);
                    std::thread::sleep(delay);
                }
                done => return done,
            }
        }
    }
}

/// One dial attempt, shared by the daemon client and the fleet worker:
/// TCP connect, read timeout and nodelay, the two-way handshake
/// announcing `features`, then the peer's version and its `need`
/// feature bit (`lacks` says what a peer without it is not).
///
/// # Errors
///
/// [`ClientError::Unavailable`] for transport trouble (the retryable
/// kind), [`ClientError::UnsupportedVersion`] on a version skew,
/// [`ClientError::Protocol`] on a wrong magic or a missing feature.
pub(crate) fn dial(
    addr: &str,
    timeout: Duration,
    features: u32,
    need: u32,
    lacks: &str,
) -> Result<(TcpStream, Handshake), ClientError> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| ClientError::Unavailable(format!("connect {addr:?}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| ClientError::Unavailable(format!("configure socket: {e}")))?;
    let _ = stream.set_nodelay(true);
    let peer = client_hello(&mut stream, features).map_err(|e| {
        if e.kind() == std::io::ErrorKind::InvalidData {
            ClientError::Protocol(e.to_string())
        } else {
            ClientError::Unavailable(format!("handshake: {e}"))
        }
    })?;
    if peer.version != VERSION {
        return Err(ClientError::UnsupportedVersion { server: peer.version, client: VERSION });
    }
    if peer.features & need == 0 {
        return Err(ClientError::Protocol(format!("peer {lacks} (features {:#x})", peer.features)));
    }
    Ok((stream, peer))
}

/// Configures and opens a [`Client`] session.
///
/// ```no_run
/// # use mhe_spacewalk::service::client::Client;
/// # use std::time::Duration;
/// let mut client = Client::builder()
///     .addr("127.0.0.1:7777")
///     .timeout(Duration::from_secs(30))
///     .retries(2)
///     .connect()?;
/// client.ping()?;
/// # Ok::<(), mhe_spacewalk::service::client::ClientError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: Option<String>,
    timeout: Duration,
    retries: u32,
    retry_backoff: Duration,
    retry_deadline: Option<Duration>,
    auth_token: Option<String>,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        Self {
            addr: None,
            timeout: CLIENT_READ_TIMEOUT,
            retries: 0,
            retry_backoff: Duration::from_millis(200),
            retry_deadline: None,
            auth_token: crate::cli::AUTH_TOKEN.env(),
        }
    }
}

impl ClientBuilder {
    /// The daemon address to dial, e.g. `127.0.0.1:7777`. Required.
    #[must_use]
    pub fn addr(mut self, addr: impl fmt::Display) -> Self {
        self.addr = Some(addr.to_string());
        self
    }

    /// Read timeout for every blocking receive (default: the generous
    /// [`CLIENT_READ_TIMEOUT`], sized for long evaluation requests).
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// How many times a failed *dial* is retried before giving up
    /// (default 0). Only connection establishment retries; requests on
    /// an open session never auto-retry.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Base pause between dial retries (default 200 ms); actual pauses
    /// double per attempt with ±50% jitter (see [`RetrySchedule`]).
    #[must_use]
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Total wall-clock budget across all dial attempts: no retry starts
    /// once this much time has passed since [`ClientBuilder::connect`]
    /// began (default: unbounded — the retry count is the only limit).
    #[must_use]
    pub fn retry_deadline(mut self, deadline: Duration) -> Self {
        self.retry_deadline = Some(deadline);
        self
    }

    /// The shared token proving this client may use a [`FEATURE_AUTH`]
    /// server (default: `MHE_AUTH_TOKEN` from the environment).
    #[must_use]
    pub fn auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Dials the daemon, exchanges handshakes (and the auth proof when
    /// the server demands one), and returns the session.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unavailable`] when the daemon cannot be reached
    /// (after exhausting retries), [`ClientError::UnsupportedVersion`]
    /// on a protocol-version skew, [`ClientError::Remote`] with
    /// [`EXIT_UNAUTHORIZED`] when the server requires a token this
    /// builder does not carry (or rejects the one it does),
    /// [`ClientError::Protocol`] when whatever answered is not an mhe
    /// endpoint serving frontiers.
    pub fn connect(self) -> Result<Client, ClientError> {
        let addr = self
            .addr
            .as_deref()
            .ok_or_else(|| ClientError::Unavailable("no address configured".into()))?;
        let schedule =
            RetrySchedule::for_addr(addr, self.retry_backoff, self.retries, self.retry_deadline);
        schedule.drive("retry", || {
            let lacks = "does not serve frontier requests";
            let (stream, server) =
                dial(addr, self.timeout, FEATURE_FRONTIER, FEATURE_FRONTIER, lacks)?;
            let mut client = Client { stream, features: server.features };
            if server.features & FEATURE_AUTH != 0 {
                client.authenticate(self.auth_token.as_deref())?;
            }
            Ok(client)
        })
    }
}

/// A connected daemon client. One request runs at a time per connection
/// (which is exactly the daemon's fairness unit).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    features: u32,
}

impl Client {
    /// Starts configuring a session; see [`ClientBuilder`].
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Answers the server's post-handshake challenge with an HMAC proof.
    fn authenticate(&mut self, auth_token: Option<&str>) -> Result<(), ClientError> {
        let Some(token) = auth_token else {
            return Err(ClientError::Remote {
                code: EXIT_UNAUTHORIZED,
                message: "server requires an auth token (set --auth-token or MHE_AUTH_TOKEN)"
                    .into(),
            });
        };
        let nonce = match self.recv("auth challenge")? {
            Response::AuthChallenge { nonce } => nonce,
            other => {
                return Err(ClientError::Protocol(format!("expected AuthChallenge, got {other:?}")))
            }
        };
        let proof = mhe_core::auth::proof(token, &nonce);
        self.send(&Request::Auth { proof }, "send auth")?;
        match self.recv("auth verdict")? {
            Response::Pong => Ok(()),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            other => Err(ClientError::Protocol(format!("expected auth verdict, got {other:?}"))),
        }
    }

    /// The feature bits the server announced in its handshake.
    pub fn features(&self) -> u32 {
        self.features
    }

    /// Sends one request; a failure is reported as `{what}: {error}`.
    fn send(&mut self, request: &Request, what: &str) -> Result<(), ClientError> {
        write_frame(&mut self.stream, &encode_request(request))
            .map_err(|e| ClientError::Unavailable(format!("{what}: {e}")))
    }

    /// Receives one response; a failure is reported as `{what}: {error}`.
    fn recv(&mut self, what: &str) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.stream)
            .map_err(|e| ClientError::Unavailable(format!("{what}: {e}")))?;
        decode_response(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// One request/response round trip.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request, "send")?;
        self.recv("receive")
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; an unexpected response kind is
    /// [`ClientError::Protocol`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Evaluates a frontier on the daemon.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] on admission backpressure,
    /// [`ClientError::Remote`] when the walk failed server-side, other
    /// [`ClientError`]s for transport trouble.
    pub fn evaluate(&mut self, request: FrontierRequest) -> Result<FrontierReport, ClientError> {
        match self.roundtrip(&Request::Frontier(request))? {
            Response::Frontier(report) => Ok(report),
            Response::Rejected { reason } => Err(ClientError::Rejected(reason)),
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            other => Err(ClientError::Protocol(format!("expected Frontier, got {other:?}"))),
        }
    }

    /// Fetches service counters.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; an unexpected response kind is
    /// [`ClientError::Protocol`].
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::Protocol(format!("expected Stats, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::RetrySchedule;
    use std::time::Duration;

    #[test]
    fn retry_schedule_doubles_with_bounded_jitter_and_spends_every_retry() {
        let base = Duration::from_millis(100);
        let mut schedule = RetrySchedule::new(base, 4, None, 7);
        let mut clock = Duration::ZERO; // fake clock: we advance it by hand
        let mut delays = Vec::new();
        while let Some(delay) = schedule.next_delay(clock) {
            clock += delay;
            delays.push(delay);
        }
        assert_eq!(delays.len(), 4);
        assert_eq!(schedule.attempts(), 4);
        for (i, delay) in delays.iter().enumerate() {
            let nominal = base * (1 << i);
            assert!(
                *delay >= nominal / 2 && *delay < nominal * 3 / 2,
                "attempt {i}: {delay:?} outside ±50% of {nominal:?}"
            );
        }
    }

    #[test]
    fn retry_schedule_is_deterministic_per_seed() {
        let base = Duration::from_millis(50);
        let mut a = RetrySchedule::new(base, 3, None, 42);
        let mut b = RetrySchedule::new(base, 3, None, 42);
        let mut c = RetrySchedule::new(base, 3, None, 43);
        let da: Vec<_> = std::iter::from_fn(|| a.next_delay(Duration::ZERO)).collect();
        let db: Vec<_> = std::iter::from_fn(|| b.next_delay(Duration::ZERO)).collect();
        let dc: Vec<_> = std::iter::from_fn(|| c.next_delay(Duration::ZERO)).collect();
        assert_eq!(da, db, "same seed must produce the same jitter");
        assert_ne!(da, dc, "different seeds must de-herd");
    }

    #[test]
    fn retry_schedule_refuses_to_cross_the_deadline() {
        let base = Duration::from_millis(100);
        let deadline = Duration::from_millis(350);
        let mut schedule = RetrySchedule::new(base, 100, Some(deadline), 11);
        let mut clock = Duration::ZERO;
        let mut granted = 0u32;
        while let Some(delay) = schedule.next_delay(clock) {
            assert!(clock + delay < deadline, "granted a retry past the deadline");
            clock += delay;
            granted += 1;
        }
        // With doubling from 100 ms and a 350 ms budget, only a couple of
        // attempts can ever fit — the deadline, not the retry count (100),
        // is what stopped the schedule.
        assert!(granted < 100, "deadline never engaged");
        assert!(granted >= 1, "jitter floor (50 ms) always fits a 350 ms budget");
    }

    #[test]
    fn retry_schedule_caps_the_exponent() {
        let base = Duration::from_millis(10);
        let mut schedule = RetrySchedule::new(base, 20, None, 3);
        let mut last = Duration::ZERO;
        for _ in 0..20 {
            last = schedule.next_delay(Duration::ZERO).unwrap_or(last);
        }
        // 64x cap with +50% jitter headroom: 10ms * 64 * 1.5 = 960ms.
        assert!(last < Duration::from_millis(960), "delay {last:?} escaped the 64x cap");
    }
}
