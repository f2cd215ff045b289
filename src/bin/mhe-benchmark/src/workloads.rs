//! The four workloads: set-up, timed phase and output checks.
//!
//! Every workload runs its set-up several times (reported as `setup_s`),
//! then repeats its operation for the requested number of seconds. Every
//! operation's output is checked; a failed check counts against
//! `attempted` as a failed operation. CPU-bound timings carry the
//! reference-kernel time sampled around them (see [`speed`]). In a
//! traced run, every other operation records spans and the ones between
//! record nothing, so the two halves give the tracing overhead.

use crate::inputs::{self, DaemonInput, Pick, RequestPlan, Sizes, CLIENTS};
use crate::metrics::{Value, Values};
use crate::spans::{self, Recorder, Span};
use crate::{speed, stats};
use mhe::core::auth::sha256;
use mhe::core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe::core::SamplingConfig;
use mhe::spacewalk::fleet::{
    run_worker, Coordinator, FleetConfig, FleetJob, FleetSummary, PreparedWorker, WorkerOptions,
};
use mhe::spacewalk::service::proto::{FrontierRequest, Request, Response};
use mhe::spacewalk::spec::Spec;
use mhe::spacewalk::{
    render_frontier, report_from, walker, Client, ClientError, EvalService, EvaluationCache,
    Server, ServiceConfig, ServiceLimits,
};
use mhe::trace::codec::write_mtr;
use mhe::trace::{StreamKind, TraceGenerator};
use mhe::vliw::{Compiled, Mdes, ProcessorKind};
use mhe::workload::BlockFrequencies;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["exact-walk", "sampled-replay", "daemon-mix", "fleet-2"];

/// Every timed phase runs at least this many operations, however short.
const MIN_OPS: u64 = 3;
/// A sampled miss ratio further than this from the exact one is a failed
/// operation.
pub const MAX_SAMPLED_ERROR: f64 = 0.02;
/// Block events the evaluator profiles block frequencies over; a captured
/// trace must come from the same layout the replay will rebuild.
pub const PROFILE_EVENTS: usize = 200_000;
/// Warm sessions the daemon keeps: the hot set plus room for two cold
/// specs, so every further cold spec evicts the oldest cold one.
const MAX_SESSIONS: usize = inputs::HOT_SPECS + 2;
/// Fleet workers, each a thread in this process.
const FLEET_WORKERS: usize = 2;
/// Shards in the fleet's key partition.
const FLEET_SHARDS: u32 = 16;
/// Failure messages kept for the report; the rest are only counted.
const MAX_PROBLEMS: usize = 16;
/// Reply deadline for daemon and fleet sockets.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(60);

/// Run-wide settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Scratch directory inside the working directory.
    pub tmp: PathBuf,
    /// Time origin of every span.
    pub origin: Instant,
}

/// Checked operations and the failures among them.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// The first few failure messages.
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(what());
            }
        }
    }

    fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(other.problems.into_iter().take(room));
    }
}

/// Service counters observed over a daemon run.
#[derive(Debug, Clone, Copy)]
pub struct ServiceCounts {
    /// Sessions built (still live or since evicted).
    pub sessions_built: u64,
    /// Sessions evicted.
    pub evictions: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
}

/// What the per-layer probes re-run: the workload's main input.
#[derive(Debug, Default)]
pub struct Primary {
    /// Spec text.
    pub spec_text: String,
    /// The evaluation configuration the workload builds with.
    pub config: EvalConfig,
    /// The captured trace, when the workload replays one.
    pub mtr: Option<PathBuf>,
    /// The workload's own evaluation and the wall of the build that made
    /// it, when the workload keeps one (`fleet-2`); the probes build one
    /// otherwise.
    pub built: Option<(Arc<ReferenceEvaluation>, Duration)>,
    /// The exact evaluation and its build wall, when the workload's own
    /// evaluation is sampled.
    pub exact: Option<(Arc<ReferenceEvaluation>, Duration)>,
    /// Counters from the daemon run, when there was one.
    pub service: Option<ServiceCounts>,
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Set-up rounds.
    pub setup: Setup,
    /// Latencies of untraced operations (warm requests for the daemon);
    /// kernel samples only where the operations are CPU-bound.
    pub latencies: Timings,
    /// Latencies of traced operations.
    pub traced: Vec<Duration>,
    /// Operations completed in the timed phase.
    pub ops: usize,
    /// Wall time of the timed phase.
    pub wall: Duration,
    /// Output checks.
    pub checks: Checks,
    /// Workload-specific numbers for the text and TSV output.
    pub extras: Values,
    /// Spans of the traced operations.
    pub spans: Vec<Span>,
    /// SHA-256 (hex) of the reference output, for the pinned seed-1 check.
    pub digest: String,
    /// Input for the per-layer probes.
    pub primary: Primary,
}

/// The reference processor every evaluation is built on.
pub fn reference() -> Mdes {
    ProcessorKind::P1111.mdes()
}

/// Lower-case hex SHA-256.
pub fn hex_digest(bytes: &[u8]) -> String {
    sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs the named workload.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "exact-walk" => exact_walk(ctx),
        "sampled-replay" => sampled_replay(ctx),
        "daemon-mix" => daemon_mix(ctx),
        "fleet-2" => fleet(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Restarts the kernel's peak-RSS counter (`VmHWM`), so that
/// `peak_rss_mb` covers the timed phase only and not the set-up rounds
/// and oracles, whose allocations the allocator may keep in per-thread
/// arenas in ways that vary from run to run. Kernels without this
/// control leave the counter running from process start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Wall times, each with the kernel time sampled around it when the
/// timed work is CPU-bound (see [`speed`]).
#[derive(Debug, Default)]
pub struct Timings {
    /// Wall times.
    pub walls: Vec<Duration>,
    /// Kernel seconds, one per wall time, or empty.
    pub kernels: Vec<f64>,
}

impl Timings {
    fn push(&mut self, wall: Duration, kernel: Option<f64>) {
        self.walls.push(wall);
        self.kernels.extend(kernel);
    }

    fn len(&self) -> usize {
        self.walls.len()
    }
}

/// Set-up rounds. The CPU-bound part of a round (a build, session
/// priming) carries the kernel time sampled around it and is
/// normalized; the part spent waiting (binding a socket, a handshake
/// against a polling accept loop) is counted as measured.
#[derive(Debug, Default)]
pub struct Setup {
    /// CPU-bound wall time of each round, with its kernel sample.
    pub cpu: Timings,
    /// Waiting time of each round.
    pub waits: Vec<Duration>,
}

impl Setup {
    fn push(&mut self, cpu: Duration, kernel: f64, wait: Duration) {
        self.cpu.push(cpu, Some(kernel));
        self.waits.push(wait);
    }

    /// Seconds per round, as if measured on the reference machine.
    pub fn seconds(&self) -> Vec<f64> {
        let cpu = speed::normalized(&self.cpu.walls, &self.cpu.kernels);
        cpu.iter().zip(&self.waits).map(|(c, w)| c + w.as_secs_f64()).collect()
    }
}

/// Times one set-up round that is CPU-bound throughout (a build).
fn setup_round<R>(setup: &mut Setup, round: impl FnOnce() -> R) -> R {
    let (out, wall, kernel) = speed::bracketed(round);
    setup.push(wall, kernel, Duration::ZERO);
    out
}

#[derive(Debug, Default)]
struct Timed {
    untraced: Timings,
    traced: Vec<Duration>,
    wall: Duration,
}

/// Repeats `op` for `ctx.seconds` (at least [`MIN_OPS`] times), each
/// inside an `op` span when traced. With `cpu_bound`, every untraced
/// operation runs between two kernel samples.
fn timed_loop(
    ctx: &Ctx,
    rec: &mut Recorder,
    cpu_bound: bool,
    mut op: impl FnMut(&mut Recorder, u64),
) -> Timed {
    reset_peak_rss();
    let start = Instant::now();
    let mut timed = Timed::default();
    for i in 0u64.. {
        if i >= MIN_OPS && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let traced = ctx.traced && i.is_multiple_of(2);
        rec.set_enabled(traced);
        let id = rec.enter("op", i);
        let (latency, kernel) = if cpu_bound && !traced {
            let ((), latency, kernel) = speed::bracketed(|| op(rec, i));
            (latency, Some(kernel))
        } else {
            let start = Instant::now();
            op(rec, i);
            (start.elapsed(), None)
        };
        rec.exit(id);
        if traced {
            timed.traced.push(latency);
        } else {
            timed.untraced.push(latency, kernel);
        }
    }
    timed.wall = start.elapsed();
    timed
}

/// Output of one batch repetition: the rendered frontier and the number
/// of reference accesses it simulated or replayed.
type BatchResult = Result<(String, u64), String>;

/// Shared shape of the two batch workloads: warm-up repetitions as
/// set-up (the first one's bytes become the reference), then the timed
/// repetitions, each of which must reproduce those bytes.
fn batch(ctx: &Ctx, mut pipeline: impl FnMut(&mut Recorder, u64) -> BatchResult) -> BatchRun {
    let mut rec = Recorder::new(ctx.origin, 0);
    rec.set_enabled(false);
    let mut checks = Checks::default();
    let mut setup = Setup::default();
    let mut want: Option<(String, u64)> = None;
    for _ in 0..ctx.sizes.build_setups {
        let result = setup_round(&mut setup, || pipeline(&mut rec, 0));
        match (result, &want) {
            (Ok(out), None) => want = Some(out),
            (Ok((text, _)), Some((reference, _))) => {
                checks.check(&text == reference, || "warm-up frontier bytes differ".into())
            }
            (Err(e), _) => checks.check(false, || format!("warm-up: {e}")),
        }
    }
    // Without a reference every timed repetition fails its check, which
    // is the right outcome when no warm-up produced a frontier.
    let (want, accesses) = want.unwrap_or_default();
    let timed = timed_loop(ctx, &mut rec, true, |rec, op| match pipeline(rec, op) {
        Ok((text, _)) => {
            checks.check(text == want, || format!("repetition {op}: frontier bytes differ"))
        }
        Err(e) => checks.check(false, || format!("repetition {op}: {e}")),
    });
    BatchRun { setup, timed, checks, want, accesses, spans: rec.into_spans() }
}

#[derive(Debug)]
struct BatchRun {
    setup: Setup,
    timed: Timed,
    checks: Checks,
    want: String,
    accesses: u64,
    spans: Vec<Span>,
}

impl BatchRun {
    fn into_outcome(self, mut extras: Values, primary: Primary) -> Outcome {
        let latencies = stats::seconds(&self.timed.untraced.walls);
        if let Some(p50) = stats::median(&latencies) {
            let accesses_per_s = self.accesses as f64 / p50;
            extras.insert(0, ("accesses_per_s", value(accesses_per_s, "1/s", latencies.len())));
        }
        Outcome {
            setup: self.setup,
            ops: self.timed.untraced.len() + self.timed.traced.len(),
            latencies: self.timed.untraced,
            traced: self.timed.traced,
            wall: self.timed.wall,
            checks: self.checks,
            extras,
            spans: self.spans,
            digest: hex_digest(self.want.as_bytes()),
            primary,
        }
    }
}

fn value(value: f64, unit: &'static str, samples: usize) -> Value {
    Value { value, unit, samples }
}

fn parse(rec: &mut Recorder, op: u64, text: &str) -> Result<Spec, String> {
    rec.time("parse", op, || Spec::parse(text)).map_err(|e| format!("spec: {e}"))
}

/// Walk, render and free one evaluation — the tail both batch
/// pipelines share.
fn walk_and_render(
    rec: &mut Recorder,
    op: u64,
    eval: ReferenceEvaluation,
    spec: &Spec,
) -> Result<String, String> {
    let db = EvaluationCache::new();
    let frontier = rec
        .time("walk", op, || {
            walker::walk_system_with(&eval, &spec.space, spec.penalties, &db, None)
        })
        .map_err(|e| format!("walk: {e}"))?;
    let text = rec.time("render", op, || render_frontier(&report_from(&eval, &frontier, &db)));
    rec.time("release", op, move || drop((eval, db, frontier)));
    Ok(text)
}

/// `exact-walk`: parse → full simulation → system walk → render.
fn exact_walk(ctx: &Ctx) -> Result<Outcome, String> {
    let input = inputs::exact_walk(ctx.seed, ctx.sizes);
    let config =
        |events| EvalConfig { events, seed: input.trace_seed, threads: 1, ..EvalConfig::default() };
    let run = batch(ctx, |rec, op| {
        let spec = parse(rec, op, &input.spec_text)?;
        let eval = rec.time("build", op, || {
            walker::prepare_evaluation(
                spec.benchmark.generate(),
                &reference(),
                config(spec.events),
                &spec.space,
            )
        });
        let accesses = eval.metrics().trace_len;
        Ok((walk_and_render(rec, op, eval, &spec)?, accesses))
    });
    let primary = Primary {
        spec_text: input.spec_text.clone(),
        config: config(ctx.sizes.exact_events),
        mtr: None,
        built: None,
        exact: None,
        service: None,
    };
    Ok(run.into_outcome(Vec::new(), primary))
}

/// Writes the reference trace of `spec` at `seed` as an `.mtr` file —
/// benchmark-side input generation, outside every timing.
fn capture_trace(spec: &Spec, seed: u64, path: &Path) -> Result<(), String> {
    let program = spec.benchmark.generate();
    let freq = BlockFrequencies::profile(&program, seed, PROFILE_EVENTS);
    let compiled = Compiled::build(&program, &reference(), Some(&freq));
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let trace = TraceGenerator::new(&program, &compiled, seed).with_event_limit(spec.events);
    write_mtr(BufWriter::new(file), trace).map_err(|e| format!("capture: {e}"))?;
    Ok(())
}

/// Worst miss-ratio difference between two evaluations of one trace over
/// every measured grid point, each normalized by its stream's length.
pub fn max_miss_ratio_error(sampled: &ReferenceEvaluation, exact: &ReferenceEvaluation) -> f64 {
    let stream_len = |kind: StreamKind| {
        exact.metrics().passes.iter().filter(|p| p.stream == kind).map(|p| p.addresses).max()
    };
    let mut worst = 0.0f64;
    for (kind, got, want) in [
        (StreamKind::Instruction, sampled.imeasured(), exact.imeasured()),
        (StreamKind::Data, sampled.dmeasured(), exact.dmeasured()),
        (StreamKind::Unified, sampled.umeasured(), exact.umeasured()),
    ] {
        let n = stream_len(kind).unwrap_or(1).max(1) as f64;
        for (config, &truth) in want {
            // A point the sampled run did not measure at all is as wrong
            // as it can be.
            let err = got.get(config).map_or(1.0, |&est| (est as f64 - truth as f64).abs() / n);
            worst = worst.max(err);
        }
    }
    worst
}

fn replay(spec: &Spec, config: EvalConfig, path: &Path) -> Result<ReferenceEvaluation, String> {
    let space = &spec.space;
    ReferenceEvaluation::replay_file(
        spec.benchmark.generate(),
        &reference(),
        config,
        path,
        &space.icache.configs(),
        &space.dcache.configs(),
        &space.ucache.configs(),
    )
    .map_err(|e| format!("replay: {e}"))
}

/// `sampled-replay`: parse → sampled replay of a captured `.mtr` →
/// system walk → render. Judged by determinism and by its miss-ratio
/// error against an exact replay of the same file (not timed).
fn sampled_replay(ctx: &Ctx) -> Result<Outcome, String> {
    let input = inputs::sampled_replay(ctx.seed, ctx.sizes);
    let spec = Spec::parse(&input.spec_text).map_err(|e| format!("spec: {e}"))?;
    let path = ctx.tmp.join("sampled-replay.mtr");
    capture_trace(&spec, input.trace_seed, &path)?;
    let exact_config = EvalConfig {
        events: spec.events,
        seed: input.trace_seed,
        threads: 1,
        ..EvalConfig::default()
    };
    let exact_start = Instant::now();
    let exact = Arc::new(replay(&spec, exact_config, &path)?);
    let exact_build = exact_start.elapsed();
    let config = EvalConfig { sampling: Some(SamplingConfig::default()), ..exact_config };
    let mut worst = 0.0f64;
    let run = batch(ctx, |rec, op| {
        let spec = parse(rec, op, &input.spec_text)?;
        let eval = rec.time("build", op, || replay(&spec, config, &path))?;
        let error = rec.time("verify", op, || max_miss_ratio_error(&eval, &exact));
        worst = worst.max(error);
        if error > MAX_SAMPLED_ERROR {
            return Err(format!("sampled miss-ratio error {error:.5} exceeds {MAX_SAMPLED_ERROR}"));
        }
        let accesses = eval.metrics().trace_len;
        Ok((walk_and_render(rec, op, eval, &spec)?, accesses))
    });
    let samples = run.setup.cpu.len() + run.timed.untraced.len() + run.timed.traced.len();
    let extras = vec![("max_miss_ratio_error", value(worst, "ratio", samples))];
    let primary = Primary {
        spec_text: input.spec_text.clone(),
        config,
        mtr: Some(path),
        built: None,
        exact: Some((exact, exact_build)),
        service: None,
    };
    Ok(run.into_outcome(extras, primary))
}

/// A batch run of one daemon spec, exactly as `spacewalker walk` does
/// it: the oracle the daemon's bytes must match.
fn batch_oracle(text: &str) -> Result<String, String> {
    let spec = Spec::parse(text).map_err(|e| format!("spec: {e}"))?;
    let config = EvalConfig { events: spec.events, threads: 1, ..EvalConfig::default() };
    let eval =
        walker::prepare_evaluation(spec.benchmark.generate(), &reference(), config, &spec.space);
    let db = EvaluationCache::new();
    let frontier = walker::walk_system(&eval, &spec.space, spec.penalties, &db)
        .map_err(|e| format!("oracle walk: {e}"))?;
    Ok(render_frontier(&report_from(&eval, &frontier, &db)))
}

/// A frontier request for `spec_text`, as `spacewalker connect` sends it.
pub fn frontier_request(spec_text: &str, sampling: Option<SamplingConfig>) -> FrontierRequest {
    FrontierRequest { spec_text: spec_text.to_string(), heuristic: false, sampling, policies: None }
}

/// A running in-process daemon plus one open admin connection.
pub struct Daemon {
    addr: String,
    drain: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
    /// A connection for priming, stats and one-off requests.
    pub admin: Client,
}

impl Daemon {
    /// Serves `service` on an ephemeral loopback port.
    pub fn serve(service: Arc<EvalService>) -> Result<Daemon, String> {
        let server = Server::bind("127.0.0.1:0", service)
            .map_err(|e| format!("bind daemon: {e}"))?
            .with_auth_token(None);
        let addr = server.local_addr().map_err(|e| format!("daemon address: {e}"))?.to_string();
        let drain = server.drain_handle();
        let thread = std::thread::spawn(move || server.run());
        match Client::builder().addr(&addr).timeout(SOCKET_TIMEOUT).connect() {
            Ok(admin) => Ok(Daemon { addr, drain, thread, admin }),
            Err(e) => {
                drain.store(true, Ordering::SeqCst);
                let _ = thread.join();
                Err(format!("connect to daemon: {e}"))
            }
        }
    }

    /// Closes the admin connection, drains the server and joins it.
    pub fn stop(self) -> Result<(), String> {
        drop(self.admin);
        self.drain.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon accept loop: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// One `daemon-mix` set-up round: a primed service (see [`prime`])
/// served on a loopback port. Priming is CPU-bound and normalized;
/// serving (bind, the accept loop's poll, the admin handshake) is counted
/// as measured.
fn start_daemon(
    input: &DaemonInput,
    want: &[String],
    checks: &mut Checks,
    setup: &mut Setup,
) -> Result<Daemon, String> {
    let (service, primed, kernel) = speed::bracketed(|| prime(input, want, checks));
    let start = Instant::now();
    let daemon = Daemon::serve(service);
    setup.push(primed, kernel, start.elapsed());
    daemon
}

/// A fresh bounded service primed with the hot set through
/// `EvalService::respond` — the call the server makes for every request,
/// here without the socket's poll interval — every primed frontier
/// checked against its oracle.
fn prime(input: &DaemonInput, want: &[String], checks: &mut Checks) -> Arc<EvalService> {
    let service = Arc::new(EvalService::with_config(ServiceConfig {
        limits: ServiceLimits { max_inflight: CLIENTS, max_queued: CLIENTS },
        session_ttl: None,
        max_sessions: Some(MAX_SESSIONS),
        persist_dir: None,
    }));
    for (text, want) in input.hot.iter().zip(want) {
        match service.respond(Request::Frontier(frontier_request(text, None))) {
            Response::Frontier(report) => checks.check(render_frontier(&report) == *want, || {
                "primed frontier differs from the batch oracle".into()
            }),
            other => checks.check(false, || format!("priming: {other:?}")),
        }
    }
    service
}

/// What one closed-loop client measured.
#[derive(Debug, Default)]
struct ClientRun {
    warm: Vec<Duration>,
    traced_warm: Vec<Duration>,
    cold: Vec<Duration>,
    rejected: u64,
    checks: Checks,
    spans: Vec<Span>,
}

/// One client: a persistent connection sending its seeded request
/// sequence, one request in flight, until `deadline`.
fn client_loop(
    ctx: &Ctx,
    client_id: usize,
    addr: &str,
    input: &DaemonInput,
    want: &[String],
    deadline: Instant,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut rec = Recorder::new(ctx.origin, client_id + 1);
    let mut client = match Client::builder().addr(addr).timeout(SOCKET_TIMEOUT).connect() {
        Ok(c) => c,
        Err(e) => {
            run.checks.check(false, || format!("client {client_id}: connect: {e}"));
            return run;
        }
    };
    let hot = input.hot.len();
    let mut plan = RequestPlan::new(ctx.seed, client_id);
    for k in 0u64.. {
        if k >= MIN_OPS && Instant::now() >= deadline {
            break;
        }
        let pick = plan.next().expect("request plans never end");
        let (text, want) = match pick {
            Pick::Hot(i) => (&input.hot[i], &want[i]),
            Pick::Cold(i) => (&input.cold[i], &want[hot + i]),
        };
        let op = k * CLIENTS as u64 + client_id as u64;
        let traced = ctx.traced && k.is_multiple_of(2);
        rec.set_enabled(traced);
        let id = rec.enter("op", op);
        let start = Instant::now();
        let reply = rec.time("request", op, || client.evaluate(frontier_request(text, None)));
        let latency = start.elapsed();
        match reply {
            Ok(report) => {
                let bytes = rec.time("render", op, || render_frontier(&report));
                let ok = rec.time("verify", op, || bytes == *want);
                run.checks
                    .check(ok, || format!("{pick:?}: frontier differs from the batch oracle"));
            }
            Err(e) => {
                run.rejected += u64::from(matches!(e, ClientError::Rejected(_)));
                run.checks.check(false, || format!("{pick:?}: {e}"));
            }
        }
        rec.exit(id);
        match (pick, traced) {
            (Pick::Cold(_), _) => run.cold.push(latency),
            (Pick::Hot(_), false) => run.warm.push(latency),
            (Pick::Hot(_), true) => run.traced_warm.push(latency),
        }
    }
    run.spans = rec.into_spans();
    run
}

/// `daemon-mix`: two closed-loop clients on persistent connections to an
/// in-process daemon, mostly warm requests for the hot set with a steady
/// trickle of cold specs that build sessions and evict old ones.
fn daemon_mix(ctx: &Ctx) -> Result<Outcome, String> {
    let input = inputs::daemon(ctx.seed, ctx.sizes);
    let want: Vec<String> =
        input.hot.iter().chain(&input.cold).map(|t| batch_oracle(t)).collect::<Result<_, _>>()?;
    let mut checks = Checks::default();
    let mut setup = Setup::default();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..ctx.sizes.daemon_setups {
        if let Some(previous) = daemon.take() {
            previous.stop()?;
        }
        daemon = Some(start_daemon(&input, &want, &mut checks, &mut setup)?);
    }
    let mut daemon = daemon.ok_or("no set-up round ran")?;

    reset_peak_rss();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (input, want, addr) = (&input, &want, daemon.addr.as_str());
                scope.spawn(move || client_loop(ctx, c, addr, input, want, deadline))
            })
            .collect();
        clients.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let wall = start.elapsed();
    let stats = daemon.admin.stats().map_err(|e| format!("daemon stats: {e}"));
    daemon.stop()?;
    let stats = stats?;

    let mut latencies = Timings::default();
    let mut traced = Vec::new();
    let mut cold = Vec::new();
    let mut lists = Vec::new();
    let mut rejected = 0;
    for run in runs {
        rejected += run.rejected;
        latencies.walls.extend(run.warm);
        traced.extend(run.traced_warm);
        cold.extend(run.cold);
        checks.absorb(run.checks);
        lists.push(run.spans);
    }
    let ops = latencies.len() + traced.len() + cold.len();
    let counts = ServiceCounts {
        sessions_built: stats.sessions + stats.evictions,
        evictions: stats.evictions,
        rejected,
    };
    let mut extras = Vec::new();
    let cold_ms = stats::millis(&cold);
    if let Some(p50) = stats::median(&cold_ms) {
        extras.push(("cold_p50_ms", value(p50, "ms", cold_ms.len())));
    }
    let hot_bytes: String = want[..input.hot.len()].concat();
    Ok(Outcome {
        setup,
        latencies,
        traced,
        ops,
        wall,
        checks,
        extras,
        spans: spans::merge(lists),
        digest: hex_digest(hot_bytes.as_bytes()),
        primary: Primary {
            spec_text: input.hot[0].clone(),
            config: EvalConfig {
                events: ctx.sizes.hot_events,
                threads: 1,
                ..EvalConfig::default()
            },
            mtr: None,
            built: None,
            exact: None,
            service: Some(counts),
        },
    })
}

/// Everything a fleet round needs: the job, the coordinator's settings
/// and the workers' options, all sharing one prepared evaluation.
pub struct FleetSetup {
    job: FleetJob,
    config: FleetConfig,
    worker: WorkerOptions,
    eval: Arc<ReferenceEvaluation>,
    spec: Spec,
}

impl FleetSetup {
    /// A fleet over `eval`, the evaluation of `spec_text`.
    pub fn new(
        spec_text: &str,
        sampling: Option<SamplingConfig>,
        eval: Arc<ReferenceEvaluation>,
    ) -> Result<FleetSetup, String> {
        let spec = Spec::parse(spec_text).map_err(|e| format!("spec: {e}"))?;
        Ok(FleetSetup {
            job: FleetJob { spec_text: spec_text.to_string(), sampling, policies: None },
            config: FleetConfig {
                shard_count: FLEET_SHARDS,
                stall_timeout: SOCKET_TIMEOUT,
                auth_token: None,
                ..FleetConfig::default()
            },
            worker: WorkerOptions {
                threads: Some(1),
                reply_timeout: Some(SOCKET_TIMEOUT),
                prepared: Some(PreparedWorker {
                    eval: Arc::clone(&eval),
                    space: spec.space.clone(),
                }),
                auth_token: None,
                ..WorkerOptions::default()
            },
            eval,
            spec,
        })
    }
}

/// What one fleet round produced.
pub struct FleetRound {
    /// The rendered frontier.
    pub text: String,
    /// The coordinator's account of the sweep.
    pub summary: FleetSummary,
    /// Points each worker evaluated.
    pub worker_points: Vec<u64>,
    /// Wall time from bind to the last worker's exit.
    pub sweep: Duration,
}

/// One distributed sweep: bind, two workers, coordinate, then the final
/// walk over the merged cache and the render.
pub fn fleet_round(rec: &mut Recorder, op: u64, setup: &FleetSetup) -> Result<FleetRound, String> {
    let start = Instant::now();
    let db = Arc::new(EvaluationCache::new());
    let coordinator = rec
        .time("bind", op, || {
            Coordinator::bind(
                "127.0.0.1:0",
                setup.job.clone(),
                setup.config.clone(),
                Arc::clone(&db),
            )
        })
        .map_err(|e| format!("bind coordinator: {e}"))?;
    let addr = coordinator.local_addr().map_err(|e| format!("coordinator address: {e}"))?;
    let addr = addr.to_string();
    let (summary, outcomes) = std::thread::scope(|scope| {
        let workers: Vec<_> = rec.time("spawn", op, || {
            (0..FLEET_WORKERS)
                .map(|_| {
                    let (addr, opts) = (&addr, setup.worker.clone());
                    scope.spawn(move || run_worker(addr, opts))
                })
                .collect()
        });
        let summary = rec.time("coordinate", op, || coordinator.run(None));
        let outcomes: Vec<_> =
            rec.time("join", op, || workers.into_iter().map(|h| h.join()).collect());
        (summary, outcomes)
    });
    let sweep = start.elapsed();
    let summary = summary.map_err(|e| format!("fleet sweep: {e}"))?;
    let mut worker_points = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(Ok(outcome)) => worker_points.push(outcome.points),
            Ok(Err(e)) => return Err(format!("fleet worker: {e}")),
            Err(_) => return Err("fleet worker panicked".into()),
        }
    }
    let (eval, spec) = (&setup.eval, &setup.spec);
    let frontier = rec
        .time("walk", op, || walker::walk_system_with(eval, &spec.space, spec.penalties, &db, None))
        .map_err(|e| format!("post-fleet walk: {e}"))?;
    let text = rec.time("render", op, || render_frontier(&report_from(eval, &frontier, &db)));
    Ok(FleetRound { text, summary, worker_points, sweep })
}

/// `fleet-2`: the reference evaluation is built once per set-up round;
/// each operation distributes the metric plan over two in-process workers
/// and walks the merged cache.
fn fleet(ctx: &Ctx) -> Result<Outcome, String> {
    let input = inputs::fleet(ctx.seed, ctx.sizes);
    let spec = Spec::parse(&input.spec_text).map_err(|e| format!("spec: {e}"))?;
    let config = EvalConfig {
        events: spec.events,
        seed: input.trace_seed,
        threads: 1,
        ..EvalConfig::default()
    };
    let mut setup = Setup::default();
    let mut eval = None;
    for _ in 0..ctx.sizes.build_setups {
        drop(eval.take());
        eval = Some(setup_round(&mut setup, || {
            walker::prepare_evaluation(spec.benchmark.generate(), &reference(), config, &spec.space)
        }));
    }
    let eval = Arc::new(eval.ok_or("no set-up round ran")?);
    // The kept evaluation is the last round's; its metrics split that
    // round's wall.
    let build_wall = setup.cpu.walls.last().copied().unwrap_or_default();
    let db = EvaluationCache::new();
    let frontier = walker::walk_system(&eval, &spec.space, spec.penalties, &db)
        .map_err(|e| format!("batch oracle walk: {e}"))?;
    let want = render_frontier(&report_from(&eval, &frontier, &db));

    let fleet_setup = FleetSetup::new(&input.spec_text, None, Arc::clone(&eval))?;
    let mut checks = Checks::default();
    let (mut steals, mut duplicates) = (0u64, 0u64);
    let mut rec = Recorder::new(ctx.origin, 0);
    let timed =
        timed_loop(ctx, &mut rec, true, |rec, op| match fleet_round(rec, op, &fleet_setup) {
            Ok(round) => {
                steals += round.summary.steals;
                duplicates += round.summary.duplicates;
                rec.time("verify", op, || {
                    checks.check(round.text == want, || {
                        format!("round {op}: fleet frontier differs from batch")
                    })
                });
            }
            Err(e) => checks.check(false, || format!("round {op}: {e}")),
        });
    let rounds = timed.untraced.len() + timed.traced.len();
    let extras = vec![
        ("steals", value(steals as f64, "count", rounds)),
        ("duplicates", value(duplicates as f64, "count", rounds)),
    ];
    Ok(Outcome {
        setup,
        ops: rounds,
        latencies: timed.untraced,
        traced: timed.traced,
        wall: timed.wall,
        checks,
        extras,
        spans: rec.into_spans(),
        digest: hex_digest(want.as_bytes()),
        primary: Primary {
            spec_text: input.spec_text.clone(),
            config,
            mtr: None,
            built: Some((eval, build_wall)),
            exact: None,
            service: None,
        },
    })
}
