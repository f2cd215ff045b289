//! The daemon wire protocol: length-prefixed binary frames.
//!
//! One request or response per frame. A frame is a little-endian `u32`
//! payload length followed by that many payload bytes; payloads are
//! hand-rolled tagged binary (varint-free: fixed-width little-endian
//! integers, `f64`s as raw bits so every float round-trips bit-exactly —
//! the same discipline as the cache database format). On connect the
//! server sends a 12-byte handshake (magic `MHES` + version + feature
//! bits) before any frame, and the client answers with its own 12 bytes,
//! so a client talking to the wrong port fails immediately and loudly
//! instead of hanging on a length prefix that never comes, and a version
//! skew is a *structured* rejection on both sides rather than a frame
//! error (see [`Handshake`]).
//!
//! The protocol is deliberately local: it carries the *spec text* of a
//! walk, not paths, so the daemon never touches the client's filesystem,
//! and frontier rows carry full design identities plus `f64` bit
//! patterns, so a client can render output byte-identical to a batch run.
//!
//! Version 2 added the handshake feature word and the fleet frames
//! ([`WorkerFrame`]/[`CoordFrame`]) that carry sharded work assignments
//! and streamed `(MetricKey, f64)` evaluation points between a
//! distributed-walk coordinator and its workers.
//!
//! Version 3 added cooperative cancellation ([`Request::Cancel`]), the
//! shared-token authentication exchange ([`Response::AuthChallenge`] /
//! [`Request::Auth`] on the daemon port, [`CoordFrame::AuthChallenge`] /
//! [`WorkerFrame::Auth`] / [`CoordFrame::Denied`] on the fleet port,
//! gated by [`FEATURE_AUTH`]), and a wider [`StatsReport`] carrying
//! session-eviction counters plus the server's protocol version,
//! negotiated feature bits, and build identifier. Frame writes also
//! consult [`mhe_core::fault::next_frame_fate`], so a deterministic
//! chaos plan can drop, duplicate, truncate, or delay exact frames.

use crate::cache_db::{self, MetricKey};
use crate::cost::CacheDesign;
use mhe_cache::{CacheConfig, Policy};
use mhe_core::metrics::SamplingMetrics;
use mhe_core::SamplingConfig;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Handshake magic both sides emit on every fresh connection.
pub const MAGIC: [u8; 4] = *b"MHES";
/// Protocol version, bumped on any incompatible frame-layout change.
/// Version 2: 12-byte handshake with a feature word, fleet frames.
/// Version 3: cancellation, token auth, widened [`StatsReport`].
pub const VERSION: u32 = 3;
/// Feature bit: the peer answers [`Request`] frames (frontier RPC).
pub const FEATURE_FRONTIER: u32 = 1 << 0;
/// Feature bit: the peer coordinates fleet workers ([`WorkerFrame`]s).
pub const FEATURE_FLEET: u32 = 1 << 1;
/// Feature bit: the peer requires the shared-token challenge/response
/// exchange before serving any request (see [`mhe_core::auth`]).
pub const FEATURE_AUTH: u32 = 1 << 2;
/// Upper bound on a single frame's payload; anything larger is treated as
/// stream corruption rather than an allocation request.
pub const MAX_FRAME: usize = 16 << 20;

/// A design-point query: one full spacewalk over a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRequest {
    /// The design-space specification, verbatim spec-file text (parsed
    /// server-side by [`crate::spec::Spec::parse`]).
    pub spec_text: String,
    /// Run the heuristic per-cache prewarm before the full walk
    /// (`spacewalker --heuristic`).
    pub heuristic: bool,
    /// Route the reference evaluation through interval sampling
    /// (`spacewalker --sample`).
    pub sampling: Option<SamplingConfig>,
    /// Override every cache space's replacement-policy dimension
    /// (`spacewalker --policy`).
    pub policies: Option<Vec<Policy>>,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Evaluate a full Pareto frontier.
    Frontier(FrontierRequest),
    /// Service counters (sessions, cache traffic).
    Stats,
    /// Cancel the in-flight [`Request::Frontier`] on this connection.
    /// The server answers the *frontier* with a code-7 error once the
    /// sweep reaches a task boundary; `Cancel` itself gets no reply.
    Cancel,
    /// Answer to [`Response::AuthChallenge`]: the HMAC-SHA-256 proof of
    /// the shared token over the server's nonce.
    Auth {
        /// `HMAC-SHA256(token, nonce)` (see [`mhe_core::auth::proof`]).
        proof: [u8; 32],
    },
}

/// One frontier design, with cost/time carried as exact `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// Processor (machine description) name.
    pub processor: String,
    /// Instruction-cache design.
    pub icache: CacheDesign,
    /// Data-cache design.
    pub dcache: CacheDesign,
    /// Unified-cache design.
    pub ucache: CacheDesign,
    /// System cost (area units).
    pub cost: f64,
    /// Execution time (cycles).
    pub time: f64,
}

/// A served frontier: everything a client needs to render output
/// byte-identical to an in-process batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierReport {
    /// Sampling provenance when the evaluation was interval-sampled.
    pub sampling: Option<SamplingMetrics>,
    /// Frontier designs in increasing-cost order.
    pub rows: Vec<FrontierRow>,
    /// Evaluation-cache hits accumulated by the serving session's cache.
    pub hits: u64,
    /// Evaluation-cache computes accumulated by the serving session's
    /// cache.
    pub computes: u64,
}

/// Service counters and server identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// Warm evaluation sessions currently held.
    pub sessions: u64,
    /// Metric entries across all shared caches.
    pub entries: u64,
    /// Cache hits across all shared caches.
    pub hits: u64,
    /// Cache computes across all shared caches.
    pub computes: u64,
    /// Sessions evicted so far by the TTL/LRU bound.
    pub evictions: u64,
    /// The server's protocol version (matches the handshake).
    pub version: u32,
    /// The feature bits the server announced on this connection.
    pub features: u32,
    /// Server build identifier (crate version string).
    pub build: String,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// The evaluated frontier.
    Frontier(FrontierReport),
    /// Admission control turned the request away (queue full). The
    /// request was not started; retrying later is safe.
    Rejected {
        /// Human-readable backpressure diagnostic.
        reason: String,
    },
    /// The request ran and failed.
    Error {
        /// The exit code a CLI would have used (see [`mhe_core::error`]).
        code: u8,
        /// The rendered error.
        message: String,
    },
    /// Service counters.
    Stats(StatsReport),
    /// First frame from a token-bearing server (before any request is
    /// answered): prove knowledge of the shared token with
    /// [`Request::Auth`] or be turned away with a code-6 error.
    AuthChallenge {
        /// Fresh per-connection nonce to HMAC the token over.
        nonce: [u8; 16],
    },
}

// --- handshake -----------------------------------------------------------

/// Byte length of the version-2 handshake each side writes on connect.
pub const HANDSHAKE_LEN: usize = 12;

/// A decoded handshake: what the peer announced about itself.
///
/// Wire layout (12 bytes, pinned by a golden test): 4 magic bytes
/// `MHES`, then the protocol version as a little-endian `u32`, then the
/// feature bits as a little-endian `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// The peer's protocol version.
    pub version: u32,
    /// The peer's advertised [`FEATURE_FRONTIER`]/[`FEATURE_FLEET`] bits.
    pub features: u32,
}

impl Handshake {
    /// Encodes this side's announcement.
    pub fn encode(self) -> [u8; HANDSHAKE_LEN] {
        let mut h = [0u8; HANDSHAKE_LEN];
        h[..4].copy_from_slice(&MAGIC);
        h[4..].copy_from_slice(&to_payload(&self));
        h
    }

    /// Decodes a peer's announcement, validating only the magic — the
    /// caller decides how to surface a version skew (structurally, not
    /// as a frame error).
    ///
    /// # Errors
    ///
    /// `InvalidData` when the magic is wrong (not an mhe endpoint).
    pub fn decode(h: &[u8; HANDSHAKE_LEN]) -> io::Result<Self> {
        if h[..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad handshake magic {:02x?} (not an mhe-server?)", &h[..4]),
            ));
        }
        from_payload(&h[4..])
    }
}

/// The handshake this build announces, with the given feature bits.
pub fn handshake(features: u32) -> [u8; HANDSHAKE_LEN] {
    Handshake { version: VERSION, features }.encode()
}

/// Client side of the two-way handshake: reads the server's 12 bytes,
/// validates the magic, writes this side's announcement back, and
/// returns the server's (version still unchecked — the caller maps a
/// skew to its own structured error type).
///
/// # Errors
///
/// Read/write errors, or `InvalidData` on a wrong magic.
pub fn client_hello(stream: &mut (impl Read + Write), features: u32) -> io::Result<Handshake> {
    let mut h = [0u8; HANDSHAKE_LEN];
    stream.read_exact(&mut h)?;
    let server = Handshake::decode(&h)?;
    stream.write_all(&handshake(features))?;
    stream.flush()?;
    Ok(server)
}

/// Why the accepting side turned a peer away during the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The peer's first four bytes are not the magic: a pre-v2 peer that
    /// opened with a frame (a length prefix can never spell `MHES` — that
    /// value is far above [`MAX_FRAME`]).
    NoMagic,
    /// The peer announced this protocol version instead of [`VERSION`].
    Version(u32),
}

/// Accept side of the two-way handshake: writes this side's
/// announcement, then reads the peer's under a stop poll (the stream's
/// read timeout is the poll period). The magic is read first, so a
/// pre-v2 peer is refused without waiting for bytes it will never send.
///
/// Returns `Ok(None)` when `stop()` turned true or the peer closed before
/// sending anything, `Ok(Some(Err(_)))` for a peer the caller must refuse
/// with its port's own frame, and the peer's announcement otherwise (its
/// feature bits still unchecked).
///
/// # Errors
///
/// `UnexpectedEof` when the peer closes mid-handshake; other read and
/// write errors propagate.
pub fn accept_hello(
    stream: &mut (impl Read + Write),
    features: u32,
    stop: &dyn Fn() -> bool,
) -> io::Result<Option<Result<Handshake, Refusal>>> {
    stream.write_all(&handshake(features))?;
    stream.flush()?;
    let mut h = [0u8; HANDSHAKE_LEN];
    let mut filled = 0;
    while filled < HANDSHAKE_LEN {
        let want = if filled < MAGIC.len() { MAGIC.len() } else { HANDSHAKE_LEN };
        match read_polled(stream, &mut h[filled..want], stop)? {
            Some(0) if filled > 0 => return Err(eof("peer closed mid-handshake")),
            None | Some(0) => return Ok(None),
            Some(n) => filled += n,
        }
        if filled == MAGIC.len() && h[..MAGIC.len()] != MAGIC {
            return Ok(Some(Err(Refusal::NoMagic)));
        }
    }
    let peer = Handshake::decode(&h)?;
    Ok(Some(if peer.version == VERSION { Ok(peer) } else { Err(Refusal::Version(peer.version)) }))
}

/// One read from a stream whose read timeout doubles as a stop-poll
/// point: retries timeouts until data, EOF (`Some(0)`), or `stop()`
/// (`None`).
fn read_polled(
    r: &mut impl Read,
    buf: &mut [u8],
    stop: &dyn Fn() -> bool,
) -> io::Result<Option<usize>> {
    loop {
        match r.read(buf) {
            Ok(n) => return Ok(Some(n)),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if stop() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn eof(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what)
}

// --- framing -------------------------------------------------------------

/// A frame length off the wire, rejected as corruption over [`MAX_FRAME`].
fn frame_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    Ok(len)
}

/// Writes one length-prefixed frame.
///
/// Every call consults the armed chaos plan (if any): a scheduled frame
/// fault may drop the frame, write it twice, write only its first half
/// (a mid-frame connection tear), or sleep before writing. With no plan
/// armed the fate check is a single uncontended mutex lock.
///
/// # Errors
///
/// Propagates write errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME}-byte cap", payload.len()),
        ));
    }
    use mhe_core::fault::FrameFate;
    match mhe_core::fault::next_frame_fate() {
        FrameFate::Deliver => write_frame_raw(w, payload),
        FrameFate::Drop => Ok(()),
        FrameFate::Duplicate => {
            write_frame_raw(w, payload)?;
            write_frame_raw(w, payload)
        }
        FrameFate::Truncate => {
            let whole = [&(payload.len() as u32).to_le_bytes()[..], payload].concat();
            w.write_all(&whole[..whole.len() / 2])?;
            w.flush()
        }
        FrameFate::Delay(pause) => {
            std::thread::sleep(pause);
            write_frame_raw(w, payload)
        }
    }
}

fn write_frame_raw(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame (blocking until complete).
///
/// # Errors
///
/// Propagates read errors; rejects frames over [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let mut payload = vec![0u8; frame_len(len)?];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// An incremental frame reader over a stream with a read timeout.
///
/// [`FrameReader::read_frame`] accumulates partial reads in an internal
/// buffer, so a timeout mid-frame loses nothing — the server uses the
/// timeouts as drain poll points, not as deadlines.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream.
    pub fn new(inner: R) -> Self {
        Self { inner, buf: Vec::new() }
    }

    /// Reads the next complete frame. Returns `Ok(None)` on a clean EOF
    /// at a frame boundary, or — when `stop()` turns true — on a timeout
    /// with no frame in progress (graceful drain).
    ///
    /// # Errors
    ///
    /// Propagates read errors; EOF mid-frame is `UnexpectedEof`;
    /// over-long frames are `InvalidData`.
    pub fn read_frame(&mut self, stop: &dyn Fn() -> bool) -> io::Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(&prefix) = self.buf.first_chunk::<4>() {
                let len = frame_len(prefix)?;
                if self.buf.len() >= 4 + len {
                    let payload = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(Some(payload));
                }
            }
            // Only abandon the wait at a frame boundary: a client that
            // already started a frame gets to finish it.
            let idle = self.buf.is_empty();
            match read_polled(&mut self.inner, &mut chunk, &|| idle && stop())? {
                None => return Ok(None),
                Some(0) if idle => return Ok(None),
                Some(0) => return Err(eof("connection closed mid-frame")),
                Some(n) => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

// --- fleet frames (protocol v2) ------------------------------------------

/// Cap on `(MetricKey, f64)` points in one frame; larger lists are split
/// across frames by the sender and rejected as corruption by the reader.
pub const MAX_POINTS: usize = 1 << 20;

/// The job a coordinator hands a worker on attach: everything needed to
/// rebuild the same reference evaluation and enumerate the same work
/// plan the batch walk would, spec-text-only (no paths cross the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOffer {
    /// Coordinator-assigned worker id (dense, from 0, attach order).
    pub worker_id: u32,
    /// The design-space specification, verbatim spec-file text.
    pub spec_text: String,
    /// Interval-sampling override, as in [`FrontierRequest`].
    pub sampling: Option<SamplingConfig>,
    /// Replacement-policy override, as in [`FrontierRequest`].
    pub policies: Option<Vec<Policy>>,
    /// Total shard count the key space is partitioned into.
    pub shard_count: u32,
}

/// Frames a fleet worker sends to its coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerFrame {
    /// First frame after the handshake: request a [`JobOffer`].
    Hello,
    /// Ready for work: lease the next unclaimed shard.
    NeedShard,
    /// A batch of evaluated points from the worker's current shard.
    Points {
        /// The shard these points belong to.
        shard: u32,
        /// Evaluated `(key, value)` pairs, `f64`s bit-exact.
        points: Vec<(MetricKey, f64)>,
    },
    /// Every point of the shard has been streamed.
    ShardDone {
        /// The finished shard.
        shard: u32,
    },
    /// Liveness signal renewing this worker's leases.
    Heartbeat,
    /// Answer to [`CoordFrame::AuthChallenge`]: HMAC proof of the
    /// shared fleet token over the coordinator's nonce.
    Auth {
        /// `HMAC-SHA256(token, nonce)` (see [`mhe_core::auth::proof`]).
        proof: [u8; 32],
    },
}

/// Frames a coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordFrame {
    /// Reply to [`WorkerFrame::Hello`].
    Job(JobOffer),
    /// A shard lease. `prefill` carries points already merged for this
    /// shard (from a checkpoint or a dead worker's partial stream), so
    /// stolen work is never recomputed.
    Assign {
        /// The leased shard.
        shard: u32,
        /// Already-known `(key, value)` pairs within the shard.
        prefill: Vec<(MetricKey, f64)>,
    },
    /// Every shard is done; the worker should disconnect cleanly.
    NoMoreWork,
    /// The sweep is being abandoned; carries the coordinator's error.
    Abort {
        /// Rendered coordinator-side failure.
        message: String,
    },
    /// No shard is free *right now* (all leased, none done) — keep
    /// waiting; sent periodically so the worker's read deadline is a
    /// dead-coordinator detector, not a stall false-positive.
    Wait,
    /// First frame from a token-bearing coordinator: prove knowledge of
    /// the shared fleet token with [`WorkerFrame::Auth`] before any
    /// [`WorkerFrame::Hello`] is answered.
    AuthChallenge {
        /// Fresh per-connection nonce to HMAC the token over.
        nonce: [u8; 16],
    },
    /// Authentication failed; the coordinator closes the connection.
    Denied {
        /// Human-readable rejection (no secrets).
        message: String,
    },
}

// --- payload codec -------------------------------------------------------
//
// Every payload is a one-byte tag followed by the variant's fields in
// the order the tables below list them. Each field type has exactly one
// layout (its `Wire` impl), so an encoder and its decoder cannot drift.

/// A field type with one wire layout: `put` appends it, `take` reads it
/// off the front of the remaining payload.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(buf: &mut &[u8]) -> io::Result<Self>;
}

/// An element type of a `u32`-counted list.
trait Listed: Wire {
    /// The largest count a decoder accepts.
    const CAP: usize;
    /// The fewest payload bytes one element encodes in: a decoder never
    /// reserves room for more elements than the rest of the payload can
    /// hold, whatever the count field claims.
    const MIN_LEN: usize;
}

fn short() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "truncated protocol payload")
}

fn bad(what: &str, v: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad {what}: {v}"))
}

impl<const N: usize> Wire for [u8; N] {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn take(buf: &mut &[u8]) -> io::Result<Self> {
        let (head, rest) = buf.split_first_chunk::<N>().ok_or_else(short)?;
        *buf = rest;
        Ok(*head)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(buf: &mut &[u8]) -> io::Result<Self> {
                Ok(<$t>::from_le_bytes(Wire::take(buf)?))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

/// Types that travel as one of the integers above.
macro_rules! wire_as {
    ($($t:ty as $w:ty: $to:expr, $from:expr;)*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $to(*self).put(out);
            }
            fn take(buf: &mut &[u8]) -> io::Result<Self> {
                Ok($from(<$w>::take(buf)?))
            }
        }
    )*};
}
wire_as! {
    // Any non-zero byte reads as `true`.
    bool as u8: u8::from, |b: u8| b != 0;
    usize as u64: |n: usize| n as u64, |n: u64| n as usize;
    // Raw IEEE bits, so every value round-trips bit-exactly.
    f64 as u64: f64::to_bits, f64::from_bits;
}

/// A `u32` byte length, then UTF-8.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(buf: &mut &[u8]) -> io::Result<Self> {
        let len = u32::take(buf)? as usize;
        let head = buf.get(..len).ok_or_else(short)?;
        *buf = &buf[len..];
        String::from_utf8(head.to_vec()).map_err(|e| bad("utf-8", e))
    }
}

/// A `0`/`1` presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => 0u8.put(out),
            Some(v) => {
                1u8.put(out);
                v.put(out);
            }
        }
    }
    fn take(buf: &mut &[u8]) -> io::Result<Self> {
        match u8::take(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::take(buf)?)),
            other => Err(bad("presence flag", other)),
        }
    }
}

/// A `u32` count, then the elements.
impl<T: Listed> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for v in self {
            v.put(out);
        }
    }
    fn take(buf: &mut &[u8]) -> io::Result<Self> {
        let n = u32::take(buf)? as usize;
        if n > T::CAP {
            return Err(bad("list length", n));
        }
        let mut items = Vec::with_capacity(n.min(buf.len() / T::MIN_LEN));
        for _ in 0..n {
            items.push(T::take(buf)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(buf: &mut &[u8]) -> io::Result<Self> {
        Ok((A::take(buf)?, B::take(buf)?))
    }
}

/// A tag byte, then a seed (zero unless [`Policy::Random`]).
impl Wire for Policy {
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, seed) = match *self {
            Policy::Lru => (0u8, 0u64),
            Policy::Fifo => (1, 0),
            Policy::PlruTree => (2, 0),
            Policy::Random(seed) => (3, seed),
        };
        (tag, seed).put(out);
    }
    fn take(buf: &mut &[u8]) -> io::Result<Self> {
        match <(u8, u64)>::take(buf)? {
            (0, _) => Ok(Policy::Lru),
            (1, _) => Ok(Policy::Fifo),
            (2, _) => Ok(Policy::PlruTree),
            (3, seed) => Ok(Policy::Random(seed)),
            (other, _) => Err(bad("policy tag", other)),
        }
    }
}

impl Listed for Policy {
    const CAP: usize = 64;
    const MIN_LEN: usize = 9;
}

/// Geometry, then policy; an infeasible geometry is `InvalidData`, never
/// a `CacheConfig::new` panic.
impl Wire for CacheConfig {
    fn put(&self, out: &mut Vec<u8>) {
        self.sets.put(out);
        self.assoc.put(out);
        self.line_words.put(out);
        self.policy.put(out);
    }
    fn take(buf: &mut &[u8]) -> io::Result<Self> {
        let (sets, assoc, line_words) = (u32::take(buf)?, u32::take(buf)?, u32::take(buf)?);
        if !sets.is_power_of_two() || !line_words.is_power_of_two() || assoc == 0 {
            return Err(bad(
                "cache geometry",
                format!("{sets} sets, {assoc} ways, {line_words} words"),
            ));
        }
        Ok(CacheConfig::new(sets, assoc, line_words).with_policy(Policy::take(buf)?))
    }
}

/// The cache database's canonical key bytes.
impl Wire for MetricKey {
    fn put(&self, out: &mut Vec<u8>) {
        // Writing into a `Vec` cannot fail.
        let _ = cache_db::write_key(out, self);
    }
    fn take(buf: &mut &[u8]) -> io::Result<Self> {
        cache_db::read_key(buf)
    }
}

impl Listed for (MetricKey, f64) {
    const CAP: usize = MAX_POINTS;
    // A `ProcCycles` key with two empty names (3 bytes), then the value.
    const MIN_LEN: usize = 11;
}

/// Field order of each struct, written once.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn take(buf: &mut &[u8]) -> io::Result<Self> {
                Ok($ty { $($field: Wire::take(buf)?),* })
            }
        }
    )*};
}

wire_struct! {
    Handshake { version, features }
    CacheDesign { config, ports }
    SamplingConfig { interval_accesses, clusters, warmup, seed, histogram_sets }
    SamplingMetrics { intervals, clusters, representative_accesses, total_accesses, error_bound }
    FrontierRequest { spec_text, heuristic, sampling, policies }
    FrontierRow { processor, icache, dcache, ucache, cost, time }
    FrontierReport { sampling, rows, hits, computes }
    StatsReport { sessions, entries, hits, computes, evictions, version, features, build }
    JobOffer { worker_id, spec_text, sampling, policies, shard_count }
}

impl Listed for FrontierRow {
    const CAP: usize = 1 << 20;
    // An empty processor name, three designs, cost and time.
    const MIN_LEN: usize = 4 + 3 * 25 + 16;
}

/// Tag byte and field order of each message variant, written once.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $var:ident $(($inner:ident))? $({ $($field:ident),* })?,)*
    }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$var $(($inner))? $({ $($field),* })? => {
                        out.push($tag);
                        $($inner.put(out);)?
                        $($($field.put(out);)*)?
                    })*
                }
            }
            fn take(buf: &mut &[u8]) -> io::Result<Self> {
                Ok(match u8::take(buf)? {
                    $($tag => {
                        $(let $inner = Wire::take(buf)?;)?
                        $($(let $field = Wire::take(buf)?;)*)?
                        $ty::$var $(($inner))? $({ $($field),* })?
                    })*
                    other => return Err(bad($what, other)),
                })
            }
        }
    };
}

wire_enum!(Request, "request tag" {
    0 => Ping,
    1 => Frontier(request),
    2 => Stats,
    3 => Cancel,
    4 => Auth { proof },
});

wire_enum!(Response, "response tag" {
    0 => Pong,
    1 => Frontier(report),
    2 => Rejected { reason },
    3 => Error { code, message },
    4 => Stats(stats),
    5 => AuthChallenge { nonce },
});

wire_enum!(WorkerFrame, "worker frame tag" {
    0x10 => Hello,
    0x11 => NeedShard,
    0x12 => Points { shard, points },
    0x13 => ShardDone { shard },
    0x14 => Heartbeat,
    0x15 => Auth { proof },
});

wire_enum!(CoordFrame, "coord frame tag" {
    0x20 => Job(job),
    0x21 => Assign { shard, prefill },
    0x22 => NoMoreWork,
    0x23 => Abort { message },
    0x24 => Wait,
    0x25 => AuthChallenge { nonce },
    0x26 => Denied { message },
});

fn to_payload<T: Wire>(msg: &T) -> Vec<u8> {
    let mut out = Vec::new();
    msg.put(&mut out);
    out
}

fn from_payload<T: Wire>(mut payload: &[u8]) -> io::Result<T> {
    let msg = T::take(&mut payload)?;
    if !payload.is_empty() {
        return Err(bad("payload", format!("{} trailing bytes", payload.len())));
    }
    Ok(msg)
}

/// Refuses to encode a point batch its decoder would reject.
fn check_points(points: &[(MetricKey, f64)]) -> io::Result<()> {
    if points.len() > MAX_POINTS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} points exceed the {MAX_POINTS}-point frame cap", points.len()),
        ));
    }
    Ok(())
}

/// Encodes a request payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    to_payload(req)
}

/// Decodes a request payload.
///
/// # Errors
///
/// `InvalidData` on any malformed field, truncation, or trailing bytes.
pub fn decode_request(payload: &[u8]) -> io::Result<Request> {
    from_payload(payload)
}

/// Encodes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    to_payload(resp)
}

/// Decodes a response payload.
///
/// # Errors
///
/// `InvalidData` on any malformed field, truncation, or trailing bytes.
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    from_payload(payload)
}

/// Encodes a worker→coordinator frame payload.
///
/// # Errors
///
/// `InvalidInput` when a point batch exceeds [`MAX_POINTS`].
pub fn encode_worker_frame(frame: &WorkerFrame) -> io::Result<Vec<u8>> {
    if let WorkerFrame::Points { points, .. } = frame {
        check_points(points)?;
    }
    Ok(to_payload(frame))
}

/// Decodes a worker→coordinator frame payload.
///
/// # Errors
///
/// `InvalidData` on any malformed field, truncation, or trailing bytes.
pub fn decode_worker_frame(payload: &[u8]) -> io::Result<WorkerFrame> {
    from_payload(payload)
}

/// Encodes a coordinator→worker frame payload.
///
/// # Errors
///
/// `InvalidInput` when a prefill batch exceeds [`MAX_POINTS`].
pub fn encode_coord_frame(frame: &CoordFrame) -> io::Result<Vec<u8>> {
    if let CoordFrame::Assign { prefill, .. } = frame {
        check_points(prefill)?;
    }
    Ok(to_payload(frame))
}

/// Decodes a coordinator→worker frame payload.
///
/// # Errors
///
/// `InvalidData` on any malformed field, truncation, or trailing bytes.
pub fn decode_coord_frame(payload: &[u8]) -> io::Result<CoordFrame> {
    from_payload(payload)
}

/// A generous read timeout for blocking client-side reads — long
/// evaluation requests keep the connection silent while the walk runs.
pub const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(600);

#[cfg(test)]
mod tests {
    use super::*;

    fn designs() -> (CacheDesign, CacheDesign, CacheDesign) {
        (
            CacheDesign { config: CacheConfig::from_bytes(1024, 1, 32), ports: 1 },
            CacheDesign {
                config: CacheConfig::from_bytes(4096, 2, 32).with_policy(Policy::Fifo),
                ports: 2,
            },
            CacheDesign {
                config: CacheConfig::from_bytes(16 << 10, 2, 64).with_policy(Policy::Random(7)),
                ports: 1,
            },
        )
    }

    #[test]
    fn requests_round_trip() {
        let (_, _, _) = designs();
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Cancel,
            Request::Auth { proof: [0xA5; 32] },
            Request::Frontier(FrontierRequest {
                spec_text: "[processors]\nkinds = 1111\n".into(),
                heuristic: true,
                sampling: Some(SamplingConfig {
                    interval_accesses: 8192,
                    clusters: 88,
                    warmup: 16384,
                    ..Default::default()
                }),
                policies: Some(vec![Policy::Lru, Policy::Random(0xDEAD)]),
            }),
            Request::Frontier(FrontierRequest {
                spec_text: String::new(),
                heuristic: false,
                sampling: None,
                policies: None,
            }),
        ];
        for req in &reqs {
            let bytes = encode_request(req);
            assert_eq!(&decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let (i, d, u) = designs();
        let resps = [
            Response::Pong,
            Response::Rejected { reason: "queue full".into() },
            Response::Error { code: 4, message: "worker panic in walk".into() },
            Response::Stats(StatsReport {
                sessions: 2,
                entries: 99,
                hits: 5,
                computes: 94,
                evictions: 3,
                version: VERSION,
                features: FEATURE_FRONTIER | FEATURE_AUTH,
                build: env!("CARGO_PKG_VERSION").into(),
            }),
            Response::AuthChallenge { nonce: [0x5A; 16] },
            Response::Frontier(FrontierReport {
                sampling: Some(SamplingMetrics {
                    intervals: 10,
                    clusters: 4,
                    representative_accesses: 4000,
                    total_accesses: 80_000,
                    error_bound: 0.012345,
                }),
                rows: vec![FrontierRow {
                    processor: "3221".into(),
                    icache: i,
                    dcache: d,
                    ucache: u,
                    cost: 123.456_789_f64,
                    time: f64::from_bits(0x40c104563027ee60),
                }],
                hits: 7,
                computes: 13,
            }),
        ];
        for resp in &resps {
            let bytes = encode_response(resp);
            assert_eq!(&decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[9]).is_err());
        assert!(decode_response(&[1, 2]).is_err());
        // Trailing garbage is corruption, not padding.
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }

    /// Golden pin of the v3 handshake byte layout: `MHES`, version 3 LE,
    /// feature bits LE. Changing any of these bytes is a wire break and
    /// must come with a version bump.
    #[test]
    fn handshake_byte_layout_is_pinned() {
        let h = handshake(FEATURE_FRONTIER | FEATURE_FLEET | FEATURE_AUTH);
        assert_eq!(
            h,
            [b'M', b'H', b'E', b'S', 0x03, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00],
            "v3 handshake layout drifted"
        );
        let decoded = Handshake::decode(&h).unwrap();
        assert_eq!(decoded, Handshake { version: 3, features: 7 });
    }

    /// An in-memory peer: reads come from `incoming`, writes are kept.
    struct Duplex {
        incoming: std::io::Cursor<Vec<u8>>,
        outgoing: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.incoming.read(out)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.outgoing.write(data)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn duplex(incoming: &[u8]) -> Duplex {
        Duplex { incoming: std::io::Cursor::new(incoming.to_vec()), outgoing: Vec::new() }
    }

    #[test]
    fn handshake_decode_checks_only_the_magic() {
        let h = handshake(FEATURE_FRONTIER);
        let mut wrong = h;
        wrong[0] = b'X';
        assert!(Handshake::decode(&wrong).is_err(), "bad magic must be rejected");
        let mut newer = h;
        newer[4] = 99;
        let decoded = Handshake::decode(&newer).unwrap();
        assert_eq!(decoded.version, 99, "magic-valid handshake decodes structurally");
    }

    #[test]
    fn client_hello_exchanges_both_announcements() {
        let mut stream = duplex(&handshake(FEATURE_FRONTIER | FEATURE_FLEET));
        let server = client_hello(&mut stream, FEATURE_FLEET).unwrap();
        assert_eq!(server.features, FEATURE_FRONTIER | FEATURE_FLEET);
        assert_eq!(stream.outgoing, handshake(FEATURE_FLEET).to_vec());
    }

    #[test]
    fn accept_hello_announces_then_refuses_skewed_and_legacy_peers() {
        let never = || false;
        let mut peer = duplex(&handshake(FEATURE_FLEET));
        let got = accept_hello(&mut peer, FEATURE_FRONTIER, &never).unwrap();
        assert_eq!(got, Some(Ok(Handshake { version: VERSION, features: FEATURE_FLEET })));
        assert_eq!(peer.outgoing, handshake(FEATURE_FRONTIER).to_vec());

        let v99 = Handshake { version: 99, features: FEATURE_FLEET }.encode();
        let got = accept_hello(&mut duplex(&v99), 0, &never).unwrap();
        assert_eq!(got, Some(Err(Refusal::Version(99))));
        // A v1 peer opens with a frame length: refused after four bytes.
        let got = accept_hello(&mut duplex(&[5, 0, 0, 0]), 0, &never).unwrap();
        assert_eq!(got, Some(Err(Refusal::NoMagic)));
        assert_eq!(accept_hello(&mut duplex(&[]), 0, &never).unwrap(), None, "closed at once");
        assert!(accept_hello(&mut duplex(&MAGIC), 0, &never).is_err(), "closed mid-handshake");
    }

    fn sample_points() -> Vec<(MetricKey, f64)> {
        let app: std::sync::Arc<str> = std::sync::Arc::from("unepic");
        let (i, d, _) = designs();
        vec![
            (MetricKey::icache(&app, i, 1.25), 1234.5),
            (MetricKey::dcache(&app, d), f64::from_bits(0x3FF8_0000_0000_0001)),
            (MetricKey::proc_cycles(&app, "3221"), 9.9e12),
        ]
    }

    #[test]
    fn worker_frames_round_trip() {
        let frames = [
            WorkerFrame::Hello,
            WorkerFrame::NeedShard,
            WorkerFrame::Points { shard: 7, points: sample_points() },
            WorkerFrame::Points { shard: 0, points: Vec::new() },
            WorkerFrame::ShardDone { shard: 31 },
            WorkerFrame::Heartbeat,
            WorkerFrame::Auth { proof: [0x42; 32] },
        ];
        for frame in &frames {
            let bytes = encode_worker_frame(frame).unwrap();
            assert_eq!(&decode_worker_frame(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn coord_frames_round_trip() {
        let frames = [
            CoordFrame::Job(JobOffer {
                worker_id: 3,
                spec_text: "[processors]\nkinds = 1111\n".into(),
                sampling: Some(SamplingConfig { clusters: 12, ..Default::default() }),
                policies: Some(vec![Policy::Fifo, Policy::Random(0xBEEF)]),
                shard_count: 32,
            }),
            CoordFrame::Job(JobOffer {
                worker_id: 0,
                spec_text: String::new(),
                sampling: None,
                policies: None,
                shard_count: 1,
            }),
            CoordFrame::Assign { shard: 5, prefill: sample_points() },
            CoordFrame::Assign { shard: 0, prefill: Vec::new() },
            CoordFrame::NoMoreWork,
            CoordFrame::Abort { message: "reference build failed".into() },
            CoordFrame::Wait,
            CoordFrame::AuthChallenge { nonce: [0x17; 16] },
            CoordFrame::Denied { message: "authentication failed".into() },
        ];
        for frame in &frames {
            let bytes = encode_coord_frame(frame).unwrap();
            assert_eq!(&decode_coord_frame(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn malformed_fleet_frames_are_rejected() {
        assert!(decode_worker_frame(&[]).is_err());
        assert!(decode_worker_frame(&[0x7F]).is_err());
        assert!(decode_coord_frame(&[0x7F]).is_err());
        let mut bytes = encode_worker_frame(&WorkerFrame::Heartbeat).unwrap();
        bytes.push(0);
        assert!(decode_worker_frame(&bytes).is_err(), "trailing bytes are corruption");
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        struct Dribble(Vec<u8>, usize);
        impl std::io::Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let payload = encode_request(&Request::Ping);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload).unwrap();
        write_frame(&mut bytes, &payload).unwrap();
        let mut reader = FrameReader::new(Dribble(bytes, 0));
        let stop = || false;
        assert_eq!(reader.read_frame(&stop).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(reader.read_frame(&stop).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(reader.read_frame(&stop).unwrap(), None);
    }

    #[test]
    fn armed_frame_faults_shape_the_byte_stream() {
        use mhe_core::fault::{arm, injection_lock, Fault, FaultPlan};
        let _lock = injection_lock().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let payload = encode_request(&Request::Ping);
        let mut framed = Vec::new();
        write_frame_raw(&mut framed, &payload).unwrap();

        // drop@0, dup@1, trunc@2 against four writes: the stream carries
        // nothing for the first, the second twice, half of the third, and
        // the fourth intact.
        let _guard = arm(FaultPlan::new(vec![
            Fault::DropFrame { frame: 0 },
            Fault::DupFrame { frame: 1 },
            Fault::TruncFrame { frame: 2 },
        ]));
        let mut out = Vec::new();
        for _ in 0..4 {
            write_frame(&mut out, &payload).unwrap();
        }
        let mut expect = Vec::new();
        expect.extend_from_slice(&framed); // dup, first copy
        expect.extend_from_slice(&framed); // dup, second copy
        expect.extend_from_slice(&framed[..framed.len() / 2]); // trunc
        expect.extend_from_slice(&framed); // delivered
        assert_eq!(out, expect);
    }
}
