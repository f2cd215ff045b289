//! The fleet coordinator: a shard-lease and point-merge server.
//!
//! The coordinator owns no reference evaluation — it is a pure
//! bookkeeper over the shared [`EvaluationCache`]. It partitions the
//! shard-id space `0..shard_count`, leases shards to whichever worker
//! asks first, merges every streamed `(key, value)` point into the
//! cache, and reclaims leases the moment a worker disconnects (or stops
//! renewing), handing the shard — together with every point already
//! merged for it as a *prefill* — to the next free worker. A killed
//! worker therefore costs the fleet only the points it had not yet
//! streamed; nothing completed is ever recomputed.
//!
//! Determinism is structural, not protocolary: point values are
//! deterministic functions of their keys, the cache is first-writer-wins
//! on identical values, and the frontier is produced *after* the fleet
//! by an ordinary serial walk over the merged cache. Worker count,
//! attach order, steals, and duplicate deliveries can change wall-clock
//! and counters, never bytes.

use super::plan::shard_of;
use crate::cache_db::EvaluationCache;
use crate::ckpt::Checkpointer;
use crate::service::proto::{
    accept_hello, decode_worker_frame, encode_coord_frame, write_frame, CoordFrame, FrameReader,
    JobOffer, Refusal, WorkerFrame, FEATURE_AUTH, FEATURE_FLEET, VERSION,
};
use crate::service::server::reap_finished;
use mhe_cache::Policy;
use mhe_core::{MheError, SamplingConfig};
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Connection read timeout doubling as the handlers' stop-poll period.
const HANDLER_POLL: Duration = Duration::from_millis(100);
/// How often a parked worker is told to keep waiting.
const WAIT_PERIOD: Duration = Duration::from_secs(1);

/// Tunables for a fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// How many shards the key space is partitioned into. More shards
    /// mean finer-grained stealing; the default suits single-digit
    /// worker counts.
    pub shard_count: u32,
    /// A lease not renewed (by points, completion, or heartbeat) within
    /// this window is reclaimed and reassigned.
    pub lease_timeout: Duration,
    /// If *no* shard completes and no points arrive for this long while
    /// work remains, the sweep is abandoned with a worker-failure error.
    pub stall_timeout: Duration,
    /// When set, every attaching worker must answer a challenge with an
    /// HMAC proof over this token before it is offered the job (the
    /// default adopts `MHE_AUTH_TOKEN` from the environment).
    pub auth_token: Option<String>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shard_count: 32,
            lease_timeout: Duration::from_secs(15),
            stall_timeout: Duration::from_secs(120),
            auth_token: crate::cli::AUTH_TOKEN.env(),
        }
    }
}

/// The job every attaching worker is handed (minus its worker id).
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Verbatim spec-file text; workers rebuild the evaluation from it.
    pub spec_text: String,
    /// Interval-sampling override.
    pub sampling: Option<SamplingConfig>,
    /// Replacement-policy override.
    pub policies: Option<Vec<Policy>>,
}

/// What a completed fleet sweep looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSummary {
    /// Distinct workers that attached over the sweep's lifetime.
    pub workers: u32,
    /// Points merged into the cache (first deliveries only).
    pub points: u64,
    /// Shards reclaimed from dead or expired workers and reassigned.
    pub steals: u64,
    /// Point deliveries whose key was already merged (stolen-shard
    /// overlap); harmless — values are deterministic.
    pub duplicates: u64,
    /// Total shard count of the partition.
    pub shards: u32,
}

#[derive(Debug)]
struct Lease {
    worker: u32,
    renewed: Instant,
}

#[derive(Debug)]
struct State {
    pending: VecDeque<u32>,
    leases: HashMap<u32, Lease>,
    done: HashSet<u32>,
    next_worker: u32,
    steals: u64,
    duplicates: u64,
    points: u64,
    last_progress: Instant,
    abort: Option<String>,
}

#[derive(Debug)]
struct Shared {
    job: FleetJob,
    cfg: FleetConfig,
    db: Arc<EvaluationCache>,
    state: Mutex<State>,
    /// Wakes parked `NeedShard` requests whenever a shard is reclaimed,
    /// completed or aborted, or the coordinator halts.
    wake: Condvar,
    halt: AtomicBool,
    /// Set when the [`Coordinator`] is dropped: the late-dial acceptor
    /// and its handlers stop.
    closed: AtomicBool,
}

/// What a parked `NeedShard` request is answered with.
enum Offer {
    Assign(u32),
    Finished,
    Abort(String),
    Halted,
    /// Nothing to offer for a whole [`WAIT_PERIOD`].
    Wait,
}

impl Shared {
    /// Puts every lease `lost` selects back in the pending pool, counted
    /// as a steal, and wakes parked requests to take them.
    fn reclaim(&self, lost: impl Fn(&Lease) -> bool) {
        self.settle(|s| {
            let shards: Vec<u32> =
                s.leases.iter().filter(|(_, l)| lost(l)).map(|(&shard, _)| shard).collect();
            for &shard in &shards {
                s.leases.remove(&shard);
                s.pending.push_back(shard);
                s.steals += 1;
                mhe_obs::count(mhe_obs::Counter::ShardSteal, 1);
            }
            !shards.is_empty()
        });
    }

    /// Leases the next free shard to `worker`, parking until one frees
    /// up, the sweep ends, or a whole [`WAIT_PERIOD`] passes.
    fn next_offer(&self, worker: u32) -> Offer {
        let deadline = Instant::now() + WAIT_PERIOD;
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.halted() {
                return Offer::Halted;
            }
            if let Some(message) = s.abort.clone() {
                return Offer::Abort(message);
            }
            if let Some(shard) = s.pending.pop_front() {
                s.leases.insert(shard, Lease { worker, renewed: Instant::now() });
                mhe_obs::count(mhe_obs::Counter::ShardLease, 1);
                return Offer::Assign(shard);
            }
            if s.done.len() == self.cfg.shard_count as usize {
                return Offer::Finished;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Offer::Wait;
            }
            s = self.wake.wait_timeout(s, left).unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// [`Shared::locked`] for an update that may unpark a `NeedShard`:
    /// wakes every parked request when `f` returns `true`.
    fn settle(&self, f: impl FnOnce(&mut State) -> bool) {
        if self.locked(f) {
            self.wake.notify_all();
        }
    }

    fn all_done(&self) -> bool {
        self.locked(|s| s.done.len() as u32) == self.cfg.shard_count
    }

    fn aborted(&self) -> Option<String> {
        self.locked(|s| s.abort.clone())
    }

    fn halted(&self) -> bool {
        self.halt.load(Ordering::SeqCst)
    }

    fn closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    fn locked<R>(&self, f: impl FnOnce(&mut State) -> R) -> R {
        match self.state.lock() {
            Ok(mut s) => f(&mut s),
            // A poisoned lock means a handler panicked mid-update; the
            // bookkeeping is still consistent (every update is a single
            // guarded section), so keep going rather than deadlock.
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }
}

/// A remote stop switch for a running [`Coordinator`] — the handoff
/// primitive. Halting is *not* aborting: connections close without an
/// `Abort` frame, so workers see silence, map it to the
/// server-unavailable contract, and redial (landing on the standby that
/// rebinds the port and resumes from the shared checkpoint).
#[derive(Debug, Clone)]
pub struct HaltHandle {
    shared: Arc<Shared>,
}

impl HaltHandle {
    /// Asks the coordinator to stop brokering and return. Idempotent.
    pub fn halt(&self) {
        self.shared.halt.store(true, Ordering::SeqCst);
        // Taking the lock orders the flag before any parked request's
        // next check, so none sleeps through it.
        self.shared.settle(|_| true);
    }

    /// Whether a halt was requested.
    pub fn is_halted(&self) -> bool {
        self.shared.halted()
    }
}

/// A bound fleet coordinator, ready to [`Coordinator::run`].
///
/// After a finished sweep it keeps answering: every worker that dials
/// while the value lives gets a handshake and `NoMoreWork`. Dropping it
/// stops that; the listener closes as the answering thread exits.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// The thread answering dials after a finished sweep.
    late: Mutex<Option<Thread>>,
}

impl Coordinator {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and prepares the shard
    /// partition. `db` is the merge target — preloading it (from `--db`
    /// or a checkpoint) turns already-known points into prefills that no
    /// worker recomputes.
    ///
    /// # Errors
    ///
    /// Propagates bind / socket-configuration failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        job: FleetJob,
        cfg: FleetConfig,
        db: Arc<EvaluationCache>,
    ) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let state = State {
            pending: (0..cfg.shard_count).collect(),
            leases: HashMap::new(),
            done: HashSet::new(),
            next_worker: 0,
            steals: 0,
            duplicates: 0,
            points: 0,
            last_progress: Instant::now(),
            abort: None,
        };
        let shared = Arc::new(Shared {
            job,
            cfg,
            db,
            state: Mutex::new(state),
            wake: Condvar::new(),
            halt: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        });
        Ok(Coordinator { listener, shared, late: Mutex::new(None) })
    }

    /// The actually-bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A cloneable stop switch for handing this coordinator's role to a
    /// standby; see [`HaltHandle`].
    pub fn halt_handle(&self) -> HaltHandle {
        HaltHandle { shared: Arc::clone(&self.shared) }
    }

    /// Accepts workers and brokers shards until every shard is done (or
    /// the sweep stalls), merging streamed points into the cache.
    ///
    /// When `checkpoint` is given, the merged cache is persisted after
    /// every newly completed shard — only from this thread, so saves
    /// never race.
    ///
    /// # Errors
    ///
    /// [`MheError::WorkerFailed`] when the sweep stalls past
    /// [`FleetConfig::stall_timeout`] or a checkpoint write fails.
    pub fn run(&self, checkpoint: Option<&Checkpointer>) -> Result<FleetSummary, MheError> {
        let _span = mhe_obs::span(mhe_obs::Phase::Fleet);
        let mut handlers = Vec::new();
        let mut admit = |stream| {
            reap_finished(&mut handlers);
            let shared = Arc::clone(&self.shared);
            // Per-worker failures end that worker only.
            handlers.push(std::thread::spawn(move || {
                let _ = serve_worker(stream, &shared);
            }));
        };
        let save = || match checkpoint {
            Some(ckpt) => ckpt
                .save(&self.shared.db)
                .map_err(|e| MheError::worker_failed("fleet checkpoint save", e.to_string())),
            None => Ok(()),
        };
        let mut saved_done = 0usize;
        let result = loop {
            // Reclaim leases whose worker stopped renewing without the
            // TCP layer noticing (hung process, half-open link).
            let cutoff = self.shared.cfg.lease_timeout;
            self.shared.reclaim(|lease| lease.renewed.elapsed() > cutoff);
            let (done, stalled) = self.shared.locked(|s| {
                (s.done.len(), s.last_progress.elapsed() > self.shared.cfg.stall_timeout)
            });
            if let Some(message) = self.shared.aborted() {
                break Err(MheError::worker_failed("fleet", message));
            }
            if done == self.shared.cfg.shard_count as usize {
                break Ok(());
            }
            if self.shared.halted() {
                // Handoff: stop brokering and report the unfinished
                // sweep. Handlers observe the halt and close every
                // worker connection *without* an Abort — silence makes
                // workers redial; the checkpoint is written after they
                // drain (below), so it carries every merged point.
                break Err(MheError::worker_failed(
                    "coordinator",
                    format!(
                        "halted for handoff with {done} of {} shards done",
                        self.shared.cfg.shard_count
                    ),
                ));
            }
            if stalled {
                let message = format!(
                    "no progress for {:?} with {} of {} shards done",
                    self.shared.cfg.stall_timeout, done, self.shared.cfg.shard_count
                );
                self.shared.settle(|s| {
                    s.abort = Some(message.clone());
                    true
                });
                break Err(MheError::worker_failed("fleet", message));
            }
            if done > saved_done {
                save()?;
                saved_done = done;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(MheError::worker_failed("fleet accept", e.to_string())),
            }
        };
        // Final checkpoint of the fully-merged cache, then let every
        // handler observe the terminal state and unwind.
        if result.is_ok() {
            save()?;
            self.answer_late_dials();
        }
        for h in handlers {
            let _ = h.join();
        }
        // On a halt, the cache is persisted only now — after every
        // handler finished merging its in-flight points — so the standby
        // resumes from the most complete frontier this node ever held.
        if self.shared.halted() {
            save()?;
        }
        result?;
        Ok(self.shared.locked(|s| FleetSummary {
            workers: s.next_worker,
            points: s.points,
            steals: s.steals,
            duplicates: s.duplicates,
            shards: self.shared.cfg.shard_count,
        }))
    }

    /// Starts the thread that serves every dial after a finished sweep,
    /// until the coordinator is dropped. Each late worker (one still in
    /// the accept backlog, or one that dials later) gets a handshake and
    /// `NoMoreWork`, instead of waiting out its reply deadline on a
    /// listener nobody accepts from.
    fn answer_late_dials(&self) {
        let mut late = self.late.lock().unwrap_or_else(PoisonError::into_inner);
        if late.is_some() {
            return;
        }
        let Ok(listener) = self.listener.try_clone() else { return };
        let shared = Arc::clone(&self.shared);
        // Detached: the drop unparks it and it exits on its own. Joining
        // it there would make every drop wait for a thread wake-up,
        // 0.2-0.6 ms measured on a 2-core VM, about 5% of a fleet round.
        let thread = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            while !shared.closed() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        reap_finished(&mut handlers);
                        let shared = Arc::clone(&shared);
                        handlers.push(std::thread::spawn(move || {
                            let _ = serve_worker(stream, &shared);
                        }));
                    }
                    // Parked, not asleep: the drop unparks this thread,
                    // so the listener does not outlive it by a poll.
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::park_timeout(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        *late = Some(thread.thread().clone());
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        if let Some(thread) = self.late.get_mut().unwrap_or_else(PoisonError::into_inner) {
            thread.unpark();
        }
    }
}

/// Serves one worker connection: handshake, job offer, then the
/// lease/points loop until the sweep finishes or the worker goes away.
fn serve_worker(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(HANDLER_POLL))?;
    stream.set_nodelay(true)?;
    let features = FEATURE_FLEET | if shared.cfg.auth_token.is_some() { FEATURE_AUTH } else { 0 };
    // A worker that holds a job but has not asked for a shard yet is
    // still building its evaluation. Closing on it when the last shard
    // finishes would fail its next send, so its handler waits for that
    // first `NeedShard` and answers `NoMoreWork`. The worker's heartbeats
    // keep the wait alive; silence past the lease timeout ends it.
    let building = Cell::new(false);
    let heard = Cell::new(Instant::now());
    let stop = || {
        let awaited = building.get() && heard.get().elapsed() <= shared.cfg.lease_timeout;
        shared.aborted().is_some()
            || shared.halted()
            || shared.closed()
            || (shared.all_done() && !awaited)
    };

    // The handshake reply gets its own patience: a worker admitted after
    // the sweep must still complete it (so it can be told NoMoreWork),
    // while a port scanner that never answers cannot pin the handler —
    // only an abort, the coordinator's drop or the deadline stops the
    // wait.
    let hs_deadline = Instant::now();
    let hs_stop = || {
        shared.aborted().is_some()
            || shared.closed()
            || hs_deadline.elapsed() > Duration::from_secs(10)
    };
    let peer = match accept_hello(&mut stream, features, &hs_stop)? {
        None => return Ok(()),
        Some(Ok(peer)) => peer,
        Some(Err(Refusal::NoMagic)) => {
            return abort_worker(&mut stream, "unsupported protocol: expected a v2 fleet handshake")
        }
        Some(Err(Refusal::Version(version))) => {
            return abort_worker(
                &mut stream,
                &format!(
                    "unsupported protocol version {version} (this coordinator speaks {VERSION})"
                ),
            )
        }
    };
    if peer.features & FEATURE_FLEET == 0 {
        return abort_worker(&mut stream, "peer did not announce fleet support");
    }

    let mut worker_id = None;
    let mut reader = FrameReader::new(stream.try_clone()?);

    // Trust gate: a tokened coordinator challenges before offering the
    // job. The proof must be the very next frame; anything else (or a
    // bad proof) earns a structured `Denied` and the connection ends.
    if let Some(token) = shared.cfg.auth_token.as_deref() {
        let nonce = mhe_core::auth::fresh_nonce();
        send(&mut stream, &CoordFrame::AuthChallenge { nonce })?;
        let Some(payload) = reader.read_frame(&hs_stop)? else {
            return Ok(());
        };
        let verified = matches!(
            decode_worker_frame(&payload),
            Ok(WorkerFrame::Auth { proof }) if mhe_core::auth::verify(token, &nonce, &proof)
        );
        if !verified {
            let frame = CoordFrame::Denied {
                message: "authentication failed (bad or missing token)".into(),
            };
            return send(&mut stream, &frame);
        }
    }
    let outcome = loop {
        let payload = match reader.read_frame(&stop)? {
            Some(payload) => payload,
            None => {
                // Terminal state observed at a frame boundary: tell the
                // worker why before closing (best-effort — the worker
                // may already be gone), so a worker racing its final
                // NeedShard against sweep completion still exits clean.
                // A halt says nothing: the closed socket is the signal
                // that makes the worker redial the standby.
                if shared.halted() {
                } else if let Some(message) = shared.aborted() {
                    let _ = send(&mut stream, &CoordFrame::Abort { message });
                } else if shared.all_done() {
                    let _ = send(&mut stream, &CoordFrame::NoMoreWork);
                }
                break Ok(());
            }
        };
        heard.set(Instant::now());
        match decode_worker_frame(&payload)? {
            WorkerFrame::Hello => {
                if shared.all_done() {
                    // Attached after the last shard finished: no job to
                    // offer, and no point making the worker build an
                    // evaluation just to hear it.
                    send(&mut stream, &CoordFrame::NoMoreWork)?;
                    break Ok(());
                }
                let id = shared.locked(|s| {
                    let id = s.next_worker;
                    s.next_worker += 1;
                    id
                });
                worker_id = Some(id);
                let job = CoordFrame::Job(JobOffer {
                    worker_id: id,
                    spec_text: shared.job.spec_text.clone(),
                    sampling: shared.job.sampling,
                    policies: shared.job.policies.clone(),
                    shard_count: shared.cfg.shard_count,
                });
                send(&mut stream, &job)?;
                building.set(true);
            }
            WorkerFrame::NeedShard => {
                building.set(false);
                let Some(id) = worker_id else {
                    break Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "NeedShard before Hello",
                    ));
                };
                if !offer_shard(&mut stream, shared, id)? {
                    break Ok(()); // NoMoreWork or Abort was sent
                }
            }
            WorkerFrame::Points { shard, points } => {
                shared.locked(|s| {
                    for (key, value) in points {
                        if shared.db.get(&key).is_some() {
                            s.duplicates += 1;
                        } else {
                            shared.db.insert(key, value);
                            s.points += 1;
                            mhe_obs::count(mhe_obs::Counter::FleetPoints, 1);
                        }
                    }
                    if let Some(lease) = s.leases.get_mut(&shard) {
                        if Some(lease.worker) == worker_id {
                            lease.renewed = Instant::now();
                        }
                    }
                    s.last_progress = Instant::now();
                });
            }
            WorkerFrame::ShardDone { shard } => {
                shared.settle(|s| {
                    // Accept completion from any worker: even after a
                    // steal, the slow owner's points were all merged.
                    s.leases.remove(&shard);
                    s.pending.retain(|&p| p != shard);
                    s.done.insert(shard);
                    s.last_progress = Instant::now();
                    true
                });
            }
            WorkerFrame::Heartbeat => {
                if let Some(id) = worker_id {
                    shared.locked(|s| {
                        let now = Instant::now();
                        for lease in s.leases.values_mut().filter(|l| l.worker == id) {
                            lease.renewed = now;
                        }
                    });
                }
            }
            WorkerFrame::Auth { .. } => {
                break Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected auth frame (authentication is pre-Hello)",
                ));
            }
        }
    };
    // Whatever ends this connection, the worker's leases go back in the
    // pool immediately — disconnection is the fast steal path.
    if let Some(id) = worker_id {
        shared.reclaim(|lease| lease.worker == id);
    }
    outcome
}

/// Parks a `NeedShard` request until a shard frees up (sending a `Wait`
/// every [`WAIT_PERIOD`]), then leases it with its prefill. Returns
/// `false` when the conversation is over (`NoMoreWork`/`Abort` sent, or
/// halted).
fn offer_shard(stream: &mut TcpStream, shared: &Shared, worker: u32) -> io::Result<bool> {
    loop {
        match shared.next_offer(worker) {
            Offer::Assign(shard) => {
                // Everything already merged for this shard rides along,
                // so a stolen shard resumes instead of restarting.
                let prefill: Vec<_> = shared
                    .db
                    .entries()
                    .into_iter()
                    .filter(|(key, _)| shard_of(key, shared.cfg.shard_count) == shard)
                    .collect();
                send(stream, &CoordFrame::Assign { shard, prefill })?;
                return Ok(true);
            }
            Offer::Finished => {
                send(stream, &CoordFrame::NoMoreWork)?;
                return Ok(false);
            }
            Offer::Abort(message) => {
                send(stream, &CoordFrame::Abort { message })?;
                return Ok(false);
            }
            // Close without a frame; the worker redials the standby.
            Offer::Halted => return Ok(false),
            Offer::Wait => send(stream, &CoordFrame::Wait)?,
        }
    }
}

/// Writes one coordinator frame.
fn send(stream: &mut TcpStream, frame: &CoordFrame) -> io::Result<()> {
    write_frame(stream, &encode_coord_frame(frame)?)
}

/// Sends a final `Abort` and ends the conversation.
fn abort_worker(stream: &mut TcpStream, message: &str) -> io::Result<()> {
    send(stream, &CoordFrame::Abort { message: message.to_string() })
}
