//! The shared evaluation service: warm sessions behind one `Send + Sync`
//! core.
//!
//! Batch runs, the `mhe-server` daemon, and `spacewalker connect` all
//! answer frontier queries through this module, so a served result is the
//! *same computation* as an in-process run — not a reimplementation that
//! merely agrees. The service owns what per-run plumbing used to rebuild
//! from scratch on every invocation:
//!
//! * **Sessions** — a [`ReferenceEvaluation`] per (benchmark, events,
//!   sampling, space) signature, built once (the only simulation work) and
//!   then shared by every request that matches it;
//! * **Caches** — one [`EvaluationCache`] per *metric scope* (benchmark,
//!   events, sampling). The scope is deliberately coarser than the
//!   session: [`MetricKey`]s name only the application, so two specs that
//!   differ merely in space geometry share every overlapping metric — but
//!   specs that change the workload or measurement regime get distinct
//!   caches, because their metric *values* differ for identical keys;
//! * **Admission** — an [`AdmissionGate`] bounding concurrent evaluations
//!   and the queue behind them, with a structured
//!   [`Response::Rejected`] when the queue is full (backpressure the
//!   client can see, instead of an unbounded pile-up);
//! * **Isolation** — each request runs under `catch_unwind` on top of the
//!   walker's own per-task panic isolation and retry policy, so one
//!   poisoned request answers with [`Response::Error`] while the session
//!   stays warm for the next.
//!
//! Determinism is inherited, not re-proven: the walkers merge in
//! enumeration order at any thread count, so a daemon-served frontier is
//! bit-identical to a batch run of the same spec — [`render_frontier`]
//! produces the byte-exact `spacewalker` listing from a wire
//! [`FrontierReport`], and the differential tests hold both paths to that.

pub mod client;
pub mod proto;
pub mod server;

use crate::cache_db::{EvaluationCache, MetricKey};
use crate::ckpt::Checkpointer;
use crate::cli;
use crate::heuristic::walk_heuristic;
use crate::pareto::ParetoSet;
use crate::spec::Spec;
use crate::walker::{self, SystemPoint};
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_core::parallel::panic_message;
use mhe_core::{CancelToken, MheError, SamplingConfig, EXIT_BAD_CONFIG, EXIT_WORKER_FAILURE};
use mhe_vliw::ProcessorKind;
use proto::{FrontierReport, FrontierRequest, FrontierRow, Request, Response, StatsReport};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Admission-control bounds for an [`EvalService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceLimits {
    /// Evaluation requests allowed to run concurrently (`>= 1`).
    pub max_inflight: usize,
    /// Requests allowed to wait for an in-flight slot; arrivals beyond
    /// this are rejected immediately (`0` = reject as soon as all
    /// in-flight slots are taken).
    pub max_queued: usize,
}

impl Default for ServiceLimits {
    /// Defaults from the variables of [`cli::INFLIGHT`] and [`cli::QUEUE`]
    /// (4 and 64 when unset or invalid).
    fn default() -> Self {
        ServiceLimits {
            max_inflight: cli::INFLIGHT.env().unwrap_or(4),
            max_queued: cli::QUEUE.env().unwrap_or(64),
        }
    }
}

/// Full configuration for an [`EvalService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission-control bounds.
    pub limits: ServiceLimits,
    /// Evict warm sessions idle for at least this long (`None` = keep
    /// forever). `Duration::ZERO` means every session is evicted as soon
    /// as another request touches the service.
    pub session_ttl: Option<Duration>,
    /// Hard cap on warm sessions; least-recently-used sessions beyond it
    /// are evicted (`None` = unbounded).
    pub max_sessions: Option<usize>,
    /// Directory persisting each scope's metric cache across restarts
    /// and evictions (`None` = memory only). An evicted or drained
    /// scope's evaluations reload from here, so a restarted daemon
    /// answers warm.
    pub persist_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    /// Defaults from the variables of [`cli::SESSION_TTL`] and
    /// [`cli::MAX_SESSIONS`] (both unbounded when unset or invalid);
    /// persistence stays off without `--db`.
    fn default() -> Self {
        ServiceConfig {
            limits: ServiceLimits::default(),
            session_ttl: cli::SESSION_TTL.env(),
            max_sessions: cli::MAX_SESSIONS.env(),
            persist_dir: None,
        }
    }
}

#[derive(Debug, Default)]
struct GateState {
    inflight: usize,
    queued: usize,
}

/// A counting admission gate: up to `max_inflight` holders run at once,
/// up to `max_queued` more wait their turn, and everyone else is turned
/// away immediately with `None` (so the caller can answer with structured
/// backpressure instead of hanging).
///
/// Queued waiters are woken in mutex-acquisition order, which keeps
/// per-client service fair in practice: each daemon connection runs one
/// request at a time, so no client can occupy more than one slot.
#[derive(Debug)]
pub struct AdmissionGate {
    limits: ServiceLimits,
    state: Mutex<GateState>,
    turn: Condvar,
}

/// An in-flight slot held on an [`AdmissionGate`]; dropping it releases
/// the slot and wakes a queued waiter.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl AdmissionGate {
    /// A gate enforcing `limits`.
    pub fn new(limits: ServiceLimits) -> Self {
        AdmissionGate { limits, state: Mutex::new(GateState::default()), turn: Condvar::new() }
    }

    /// The limits this gate enforces.
    pub fn limits(&self) -> ServiceLimits {
        self.limits
    }

    /// Claims an in-flight slot, waiting in the bounded queue if all
    /// slots are taken. Returns `None` — *without blocking* — when the
    /// queue is also full.
    pub fn try_admit(&self) -> Option<AdmissionPermit<'_>> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.inflight >= self.limits.max_inflight {
            if s.queued >= self.limits.max_queued {
                return None;
            }
            s.queued += 1;
            while s.inflight >= self.limits.max_inflight {
                s = self.turn.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
            s.queued -= 1;
        }
        s.inflight += 1;
        Some(AdmissionPermit { gate: self })
    }

    /// Current (inflight, queued) occupancy, for diagnostics.
    pub fn occupancy(&self) -> (usize, usize) {
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (s.inflight, s.queued)
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.inflight = s.inflight.saturating_sub(1);
        drop(s);
        self.gate.turn.notify_one();
    }
}

/// A request failure with the exit code a CLI maps it to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Exit code (see [`mhe_core::error`]).
    pub code: u8,
    /// Rendered diagnostic.
    pub message: String,
}

impl From<MheError> for ServiceError {
    fn from(e: MheError) -> Self {
        ServiceError { code: e.exit_code(), message: e.to_string() }
    }
}

/// A warm evaluation session: the reference evaluation plus the
/// scope-shared metric cache it draws from.
#[derive(Debug, Clone)]
struct Session {
    eval: Arc<ReferenceEvaluation>,
    db: Arc<EvaluationCache>,
}

/// A scope's shared metric cache plus its optional on-disk home.
#[derive(Debug)]
struct ScopeCache {
    db: Arc<EvaluationCache>,
    ckpt: Option<Checkpointer>,
}

/// One warm-session slot: the build cell plus the bookkeeping the
/// TTL/LRU eviction policy needs.
#[derive(Debug)]
struct SessionSlot {
    /// The [`OnceLock`] arbitrates concurrent first requests: one thread
    /// simulates, the rest block on the cell and share the result. A
    /// panicked build leaves the cell empty, so a later request retries.
    cell: Arc<OnceLock<Session>>,
    /// The metric scope this session draws from (for cache retirement).
    scope: String,
    /// When a request last touched this session.
    last_used: Instant,
}

/// The shared `Send + Sync` evaluation core.
///
/// One instance serves any number of threads; see the module docs for
/// what it owns. Constructed once and shared via [`Arc`] by the daemon's
/// connection threads (and by tests that drive it in-process).
///
/// Lock order: `sessions` before `caches` — never acquire `sessions`
/// while holding `caches`.
#[derive(Debug)]
pub struct EvalService {
    config: ServiceConfig,
    gate: AdmissionGate,
    /// Metric caches keyed by scope `(benchmark, events, sampling)`.
    caches: Mutex<HashMap<String, ScopeCache>>,
    /// Sessions keyed by the full evaluation signature (scope + space).
    sessions: Mutex<HashMap<String, SessionSlot>>,
    /// Sessions evicted so far by the TTL/LRU bound.
    evictions: AtomicU64,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EvalService>()
};

/// FNV-1a over a scope string, naming its on-disk checkpoint directory.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl EvalService {
    /// A service enforcing `limits`, with TTL/eviction/persistence from
    /// the environment defaults (see [`ServiceConfig::default`]).
    pub fn new(limits: ServiceLimits) -> Self {
        EvalService::with_config(ServiceConfig { limits, ..ServiceConfig::default() })
    }

    /// A service with explicit bounds and persistence.
    pub fn with_config(config: ServiceConfig) -> Self {
        EvalService {
            gate: AdmissionGate::new(config.limits),
            config,
            caches: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            evictions: AtomicU64::new(0),
        }
    }

    /// The admission gate (exposed for occupancy diagnostics).
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Answers one request. Never panics: evaluation runs under
    /// `catch_unwind`, so a poisoned request becomes
    /// [`Response::Error`] while the service stays warm.
    pub fn respond(&self, request: Request) -> Response {
        self.respond_with_cancel(request, None)
    }

    /// [`EvalService::respond`] with a cancellation token scoped around
    /// the evaluation: when `cancel` fires (client disconnect, a
    /// [`Request::Cancel`] frame), the sweep stops at its next task
    /// boundary and the request answers with a code-7 error. Work already
    /// cached stays warm, so a rerun of the same request completes from
    /// where the cancelled one left off — bit-identically.
    pub fn respond_with_cancel(&self, request: Request, cancel: Option<CancelToken>) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(self.stats()),
            Request::Cancel => Response::Error {
                code: EXIT_BAD_CONFIG,
                message: "no request in flight to cancel".into(),
            },
            Request::Auth { .. } => Response::Error {
                code: EXIT_BAD_CONFIG,
                message: "unexpected auth frame (authentication is pre-request)".into(),
            },
            Request::Frontier(req) => {
                let Some(_permit) = self.gate.try_admit() else {
                    let (inflight, queued) = self.gate.occupancy();
                    return Response::Rejected {
                        reason: format!(
                            "server saturated: {inflight} in flight, {queued} queued \
                             (limits {}/{}); retry later",
                            self.gate.limits.max_inflight, self.gate.limits.max_queued
                        ),
                    };
                };
                reply(|| match &cancel {
                    Some(token) if token.is_cancelled() => {
                        Err(ServiceError::from(MheError::Cancelled))
                    }
                    Some(token) => walker::with_walk_cancel(token.clone(), || self.frontier(&req)),
                    None => self.frontier(&req),
                })
            }
        }
    }

    /// Service counters across every scope cache.
    pub fn stats(&self) -> StatsReport {
        let sessions = {
            let map = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            map.values().filter(|slot| slot.cell.get().is_some()).count() as u64
        };
        let caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut entries, mut hits, mut computes) = (0u64, 0u64, 0u64);
        for scope in caches.values() {
            entries += scope.db.len() as u64;
            let (h, c) = scope.db.stats();
            hits += h;
            computes += c;
        }
        StatsReport {
            sessions,
            entries,
            hits,
            computes,
            evictions: self.evictions.load(Ordering::Relaxed),
            version: proto::VERSION,
            features: proto::FEATURE_FRONTIER,
            build: env!("CARGO_PKG_VERSION").to_string(),
        }
    }

    /// Persists every scope cache into the configured persistence
    /// directory (no-op without one); returns how many were saved. The
    /// daemon calls this on graceful drain so a restart answers warm.
    pub fn persist_all(&self) -> usize {
        let caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        let mut saved = 0;
        for scope in caches.values() {
            if let Some(ckpt) = &scope.ckpt {
                if ckpt.save(&scope.db).is_ok() {
                    saved += 1;
                }
            }
        }
        saved
    }

    /// Evaluates one frontier request end to end — the same code path,
    /// in the same order, as a `spacewalker` batch run.
    fn frontier(&self, req: &FrontierRequest) -> Result<FrontierReport, ServiceError> {
        let mut spec = Spec::parse(&req.spec_text)
            .map_err(|e| ServiceError { code: EXIT_BAD_CONFIG, message: format!("spec: {e}") })?;
        if let Some(p) = &req.policies {
            spec.space.icache.policies.clone_from(p);
            spec.space.dcache.policies.clone_from(p);
            spec.space.ucache.policies.clone_from(p);
        }
        let spec = spec;
        let session = self.session(&spec, req.sampling);
        let eval = &session.eval;
        let db = &session.db;
        if req.heuristic {
            // Same pre-warm as `spacewalker --heuristic`: neighbourhood
            // ascent over the I$ space at every processor's dilation,
            // sharing the scope cache so the full walk below hits.
            let app: Arc<str> = Arc::from(eval.program().name.as_str());
            for proc in &spec.space.processors {
                let d = eval.dilation_of(proc);
                walk_heuristic(
                    &spec.space.icache,
                    db,
                    eval.config().worker_threads(),
                    |design| MetricKey::icache(&app, design, d),
                    |design| eval.estimate_icache_misses(design.config, d),
                )
                .map_err(|e| ServiceError {
                    code: e.exit_code(),
                    message: format!("heuristic I$ walk @ {}: {e}", proc.name),
                })?;
            }
        }
        let frontier = walker::walk_system(eval, &spec.space, spec.penalties, db).map_err(|e| {
            ServiceError { code: e.exit_code(), message: format!("system walk failed: {e}") }
        })?;
        Ok(report_from(eval, &frontier, db))
    }

    /// The warm session for `spec`, building it (the only simulation
    /// work) on first use. Touching a session refreshes its LRU stamp
    /// and runs one eviction pass over the others.
    fn session(&self, spec: &Spec, sampling: Option<SamplingConfig>) -> Session {
        // Scope key: everything a metric *value* depends on beyond its
        // MetricKey. Space geometry is deliberately absent — identical
        // keys mean identical values across spaces within a scope.
        let scope = format!("{}|{}|{:?}", spec.benchmark, spec.events, sampling);
        let db = self.scope_db(&scope);
        let signature =
            format!("{}|{}|{:?}|{:?}", spec.benchmark, spec.events, sampling, spec.space);
        let cell = {
            let mut sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            let now = Instant::now();
            let slot = sessions.entry(signature.clone()).or_insert_with(|| SessionSlot {
                cell: Arc::default(),
                scope: scope.clone(),
                last_used: now,
            });
            slot.last_used = now;
            let cell = Arc::clone(&slot.cell);
            self.evict_expired(&mut sessions, &signature, now);
            cell
        };
        let shared_db = Arc::clone(&db);
        cell.get_or_init(move || {
            let eval = walker::prepare_evaluation(
                spec.benchmark.generate(),
                &ProcessorKind::P1111.mdes(),
                EvalConfig { events: spec.events, sampling, ..EvalConfig::default() },
                &spec.space,
            );
            Session { eval: Arc::new(eval), db: shared_db }
        })
        .clone()
    }

    /// The shared metric cache for `scope`, creating it (preloaded from
    /// the persistence directory, when configured) on first use.
    fn scope_db(&self, scope: &str) -> Arc<EvaluationCache> {
        let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(sc) = caches.get(scope) {
            return Arc::clone(&sc.db);
        }
        let (db, ckpt) = match &self.config.persist_dir {
            None => (Arc::new(EvaluationCache::new()), None),
            Some(dir) => {
                match Checkpointer::new(dir.join(format!("scope-{:016x}", fnv64(scope)))) {
                    // A corrupt or unreadable checkpoint degrades to a cold
                    // cache: warm restart is an optimization, not a
                    // correctness dependency.
                    Ok(ckpt) => {
                        let db = ckpt.load().unwrap_or_else(|_| EvaluationCache::new());
                        (Arc::new(db), Some(ckpt))
                    }
                    Err(_) => (Arc::new(EvaluationCache::new()), None),
                }
            }
        };
        caches.insert(scope.to_string(), ScopeCache { db: Arc::clone(&db), ckpt });
        drop(caches);
        db
    }

    /// One eviction pass, called with the `sessions` lock held. `keep`
    /// (the session being touched right now) is never evicted. Applies
    /// the TTL first, then the LRU cap; retired sessions are counted and
    /// any scope cache no session references any more is persisted (when
    /// configured) and dropped, bounding daemon memory.
    fn evict_expired(&self, sessions: &mut HashMap<String, SessionSlot>, keep: &str, now: Instant) {
        let mut victims: Vec<String> = Vec::new();
        if let Some(ttl) = self.config.session_ttl {
            victims.extend(
                sessions
                    .iter()
                    .filter(|(sig, slot)| {
                        sig.as_str() != keep && now.duration_since(slot.last_used) >= ttl
                    })
                    .map(|(sig, _)| sig.clone()),
            );
        }
        if let Some(max) = self.config.max_sessions {
            let max = max.max(1);
            while sessions.len() - victims.len() > max {
                // Oldest first, excluding the touched session and anyone
                // already sentenced by the TTL above.
                let Some(oldest) = sessions
                    .iter()
                    .filter(|(sig, _)| sig.as_str() != keep && !victims.contains(sig))
                    .min_by_key(|(_, slot)| slot.last_used)
                    .map(|(sig, _)| sig.clone())
                else {
                    break;
                };
                victims.push(oldest);
            }
        }
        if victims.is_empty() {
            return;
        }
        for sig in &victims {
            sessions.remove(sig);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            mhe_obs::count(mhe_obs::Counter::SessionEvict, 1);
        }
        // Retire scope caches nothing references any more (lock order:
        // sessions held, then caches — matching the struct contract).
        let live: std::collections::HashSet<&str> =
            sessions.values().map(|slot| slot.scope.as_str()).collect();
        let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        caches.retain(|scope, sc| {
            if live.contains(scope.as_str()) {
                return true;
            }
            if let Some(ckpt) = &sc.ckpt {
                ckpt.save(&sc.db).ok();
            }
            false
        });
    }
}

impl Default for EvalService {
    fn default() -> Self {
        EvalService::new(ServiceLimits::default())
    }
}

/// Runs one frontier evaluation under `catch_unwind`: a panic becomes a
/// code-4 error carrying the panic's message, never a dead thread.
fn reply(run: impl FnOnce() -> Result<FrontierReport, ServiceError>) -> Response {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(report)) => Response::Frontier(report),
        Ok(Err(e)) => Response::Error { code: e.code, message: e.message },
        Err(payload) => Response::Error {
            code: EXIT_WORKER_FAILURE,
            message: format!("request panicked: {}", panic_message(payload.as_ref())),
        },
    }
}

/// Packages a walked frontier as a wire report carrying everything the
/// renderer needs — exact `f64` bits included.
pub fn report_from(
    eval: &ReferenceEvaluation,
    frontier: &ParetoSet<SystemPoint>,
    db: &EvaluationCache,
) -> FrontierReport {
    let rows = frontier
        .points()
        .iter()
        .map(|p| FrontierRow {
            processor: p.design.processor.name.clone(),
            icache: p.design.memory.icache,
            dcache: p.design.memory.dcache,
            ucache: p.design.memory.ucache,
            cost: p.cost,
            time: p.time,
        })
        .collect();
    let (hits, computes) = db.stats();
    FrontierReport { sampling: eval.metrics().sampling, rows, hits, computes }
}

/// Renders a report as the exact `spacewalker` stdout listing —
/// provenance header, column header, one row per frontier design. Batch
/// runs and `spacewalker connect` clients print this same string, which is what
/// makes "daemon output byte-identical to batch output" a `==` on two
/// strings.
pub fn render_frontier(report: &FrontierReport) -> String {
    let mut out = String::new();
    let src = match report.sampling {
        Some(sm) => {
            let _ = writeln!(
                out,
                "# provenance: sampled ({:.2}% coverage, {} intervals -> {} clusters, \
                 error bound {:.4})",
                sm.coverage() * 100.0,
                sm.intervals,
                sm.clusters,
                sm.error_bound
            );
            "sampled"
        }
        None => {
            let _ = writeln!(out, "# provenance: exact (full-trace simulation)");
            "exact"
        }
    };
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>9} {:>9} {:<17} {:>12} {:>14} {:<7}",
        "proc", "I$ B", "D$ B", "U$ B", "policy I/D/U", "area", "cycles", "src"
    );
    for row in &report.rows {
        let pol = format!(
            "{}/{}/{}",
            row.icache.config.policy, row.dcache.config.policy, row.ucache.config.policy
        );
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>9} {:>9} {:<17} {:>12.0} {:>14.0} {:<7}",
            row.processor,
            row.icache.config.size_bytes(),
            row.dcache.config.size_bytes(),
            row.ucache.config.size_bytes(),
            pol,
            row.cost,
            row.time,
            src
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn gate_rejects_when_inflight_and_queue_are_full() {
        let gate = AdmissionGate::new(ServiceLimits { max_inflight: 1, max_queued: 0 });
        let first = gate.try_admit();
        assert!(first.is_some());
        assert!(gate.try_admit().is_none(), "queue of 0 must reject immediately");
        drop(first);
        assert!(gate.try_admit().is_some(), "released slot must be claimable again");
    }

    #[test]
    fn gate_queues_up_to_its_bound_and_drains_in_turn() {
        let gate = Arc::new(AdmissionGate::new(ServiceLimits { max_inflight: 1, max_queued: 2 }));
        let held = gate.try_admit().unwrap();
        let admitted = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let admitted = Arc::clone(&admitted);
                std::thread::spawn(move || {
                    let permit = gate.try_admit();
                    assert!(permit.is_some(), "queued waiter must eventually run");
                    admitted.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        // Both workers are queued (or about to be); the queue bound of 2
        // means a third arrival is rejected while the slot is held.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while gate.occupancy().1 < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(gate.occupancy(), (1, 2));
        assert!(gate.try_admit().is_none(), "full queue must reject");
        drop(held);
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(admitted.load(Ordering::SeqCst), 2);
        assert_eq!(gate.occupancy(), (0, 0));
    }

    #[test]
    fn a_panicking_request_reports_the_panic_message() {
        match reply(|| panic!("boom")) {
            Response::Error { code, message } => {
                assert_eq!(code, EXIT_WORKER_FAILURE);
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("expected a code-4 error, got {other:?}"),
        }
    }

    #[test]
    fn service_answers_ping_and_rejects_malformed_specs() {
        let svc = EvalService::default();
        assert_eq!(svc.respond(Request::Ping), Response::Pong);
        // Not a spec at all, and a machine the builder would assert on.
        let zero_units = "[processors]\nkinds = x\n[processor.x]\nunits = 0 0 0 0\n";
        for spec_text in ["this is not a spec", zero_units] {
            let resp = svc.respond(Request::Frontier(FrontierRequest {
                spec_text: spec_text.into(),
                heuristic: false,
                sampling: None,
                policies: None,
            }));
            match resp {
                Response::Error { code, message } => {
                    assert_eq!(code, mhe_core::EXIT_BAD_CONFIG, "{message}");
                    assert!(message.starts_with("spec: "), "{message}");
                }
                other => panic!("expected Error, got {other:?}"),
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.sessions, 0, "a rejected spec must not leave a session behind");
    }
}
