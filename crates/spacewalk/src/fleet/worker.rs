//! The fleet worker: evaluates leased shards and streams points home.
//!
//! A worker is a full evaluation node: it rebuilds the reference
//! evaluation from the job's spec text (one simulation per worker —
//! the fleet distributes the *walk*, not the reference build), computes
//! the same deterministic work plan as every other fleet member, and
//! then loops lease → evaluate → stream until the coordinator says
//! `NoMoreWork`. Prefilled keys that arrive with a stolen shard are
//! skipped, which is exactly the "never recompute a dead worker's
//! finished points" guarantee.
//!
//! A heartbeat thread renews the worker's leases about once a second so
//! a long shard is not mistaken for a dead worker; conversely the
//! worker's own read deadline ([`WorkerOptions::reply_timeout`]) is its
//! dead-coordinator detector — the coordinator sends `Wait` frames
//! while a worker is parked, so silence longer than the deadline means
//! the coordinator is gone and the worker exits with the
//! server-unavailable contract (exit code 5).

use super::plan::{evaluate_item, shard_of, work_plan, WorkItem};
use crate::cache_db::MetricKey;
use crate::service::client::{dial, ClientError, RetrySchedule};
use crate::service::proto::{
    decode_coord_frame, encode_worker_frame, read_frame, write_frame, CoordFrame, JobOffer,
    WorkerFrame, FEATURE_AUTH, FEATURE_FLEET,
};
use crate::space::SystemSpace;
use crate::spec::Spec;
use crate::walker;
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_vliw::ProcessorKind;
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Points per `Points` frame: small enough that a killed worker loses
/// little streamed work, large enough to amortize framing.
const POINT_BATCH: usize = 256;
/// Heartbeat period; well inside the coordinator's default lease timeout.
const HEARTBEAT_PERIOD: Duration = Duration::from_secs(1);

/// A pre-built evaluation for in-process workers (tests, benches): skips
/// the per-worker reference build when the caller already has one for
/// the job's spec.
#[derive(Debug, Clone)]
pub struct PreparedWorker {
    /// The shared reference evaluation.
    pub eval: Arc<ReferenceEvaluation>,
    /// The (policy-overridden) system space the evaluation was built for.
    pub space: SystemSpace,
}

/// Tunables for one worker process.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Evaluation thread count (`None`/0 = auto via `MHE_THREADS`).
    pub threads: Option<usize>,
    /// How long coordinator silence is tolerated before the worker
    /// declares it dead. `None` uses a 30-second default.
    pub reply_timeout: Option<Duration>,
    /// Fault-injection hook: stream exactly this many points, then drop
    /// the connection and fail — simulates a worker killed mid-shard for
    /// the steal/resume tests and the fleet smoke script.
    pub die_after_points: Option<u64>,
    /// Skip the reference build and use this evaluation instead.
    pub prepared: Option<PreparedWorker>,
    /// How many times a lost coordinator is redialed before the worker
    /// gives up (default 0: one attach, no retry). Redials survive a
    /// coordinator handoff — the worker keeps its built evaluation and
    /// resumes against the standby.
    pub redial_retries: u32,
    /// Base pause between redials (default 200 ms), doubling per attempt
    /// with deterministic jitter (see [`RetrySchedule`]).
    pub redial_backoff: Option<Duration>,
    /// The shared token answering a [`FEATURE_AUTH`] coordinator's
    /// challenge (default: `MHE_AUTH_TOKEN` from the environment).
    pub auth_token: Option<String>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            threads: None,
            reply_timeout: None,
            die_after_points: None,
            prepared: None,
            redial_retries: 0,
            redial_backoff: None,
            auth_token: crate::cli::AUTH_TOKEN.env(),
        }
    }
}

/// What one worker contributed to a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// The coordinator-assigned worker id (`u32::MAX` when the sweep
    /// was already complete at attach time and no id was assigned).
    pub worker_id: u32,
    /// Shards this worker completed.
    pub shards: u64,
    /// Points this worker evaluated and streamed.
    pub points: u64,
    /// Plan items skipped because a prefill already carried their value.
    pub skipped_prefilled: u64,
}

/// Sends one frame under the shared writer lock (the heartbeat thread
/// shares the socket).
fn send(writer: &Mutex<TcpStream>, frame: &WorkerFrame) -> Result<(), ClientError> {
    let payload = encode_worker_frame(frame).map_err(|e| ClientError::Protocol(e.to_string()))?;
    let mut guard = writer.lock().unwrap_or_else(PoisonError::into_inner);
    write_frame(&mut *guard, &payload).map_err(|e| ClientError::Unavailable(format!("send: {e}")))
}

/// Receives the next coordinator frame on the read half. `Abort` and
/// `Denied` end the conversation wherever they arrive, so they come back
/// as [`ClientError::Remote`] errors.
fn recv(reader: &mut TcpStream, timeout: Duration) -> Result<CoordFrame, ClientError> {
    let payload = read_frame(reader).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Unavailable(format!(
            "coordinator silent past the {timeout:?} reply deadline"
        )),
        io::ErrorKind::InvalidData => ClientError::Protocol(e.to_string()),
        _ => ClientError::Unavailable(format!("receive: {e}")),
    })?;
    match decode_coord_frame(&payload).map_err(|e| ClientError::Protocol(e.to_string()))? {
        CoordFrame::Abort { message } => {
            Err(ClientError::Remote { code: mhe_core::EXIT_WORKER_FAILURE, message })
        }
        CoordFrame::Denied { message } => {
            Err(ClientError::Remote { code: mhe_core::EXIT_UNAUTHORIZED, message })
        }
        frame => Ok(frame),
    }
}

/// Attaches to a coordinator at `addr` and works shards until the sweep
/// ends, redialing a lost coordinator up to
/// [`WorkerOptions::redial_retries`] times. Blocks for the whole sweep.
///
/// Across redials the worker keeps its built reference evaluation (the
/// expensive part of attaching) and the outcome accumulates — a handoff
/// costs a reconnect, not a rebuild.
///
/// # Errors
///
/// [`ClientError::Unavailable`] when the coordinator cannot be reached
/// or goes silent past the reply deadline (exit code 5, after the
/// redial budget is spent), [`ClientError::UnsupportedVersion`] on
/// protocol skew, [`ClientError::Remote`] when the coordinator aborts
/// the sweep, denies the auth proof, or the injected-death hook fires,
/// [`ClientError::Protocol`] on wire trouble.
pub fn run_worker(addr: &str, opts: WorkerOptions) -> Result<WorkerOutcome, ClientError> {
    let mut prepared = opts.prepared.clone();
    let mut outcome =
        WorkerOutcome { worker_id: u32::MAX, shards: 0, points: 0, skipped_prefilled: 0 };
    let backoff = opts.redial_backoff.unwrap_or(Duration::from_millis(200));
    RetrySchedule::for_addr(addr, backoff, opts.redial_retries, None)
        .drive("redial", || attach_once(addr, &opts, &mut prepared, &mut outcome))?;
    Ok(outcome)
}

/// One attach: connect, handshake, auth, then the shard loop until the
/// sweep ends (`Ok`) or the connection dies (`Err`). Progress lands in
/// `outcome` as it happens, so a dropped connection loses nothing
/// already counted; the built evaluation is parked in `prepared` for
/// the next attempt.
fn attach_once(
    addr: &str,
    opts: &WorkerOptions,
    prepared: &mut Option<PreparedWorker>,
    outcome: &mut WorkerOutcome,
) -> Result<(), ClientError> {
    let timeout = opts.reply_timeout.unwrap_or(Duration::from_secs(30));
    let features = FEATURE_FLEET | if opts.auth_token.is_some() { FEATURE_AUTH } else { 0 };
    let (stream, coordinator) =
        dial(addr, timeout, features, FEATURE_FLEET, "is not a fleet coordinator")?;
    let mut reader =
        stream.try_clone().map_err(|e| ClientError::Unavailable(format!("split socket: {e}")))?;
    let writer = Arc::new(Mutex::new(stream));
    // The auth exchange runs before the heartbeat thread exists — the
    // proof must be the very next frame the coordinator reads, and a
    // stray heartbeat would break that.
    if coordinator.features & FEATURE_AUTH != 0 {
        let Some(token) = opts.auth_token.as_deref() else {
            return Err(ClientError::Remote {
                code: mhe_core::EXIT_UNAUTHORIZED,
                message: "coordinator requires an auth token (set --auth-token or MHE_AUTH_TOKEN)"
                    .into(),
            });
        };
        let nonce = match recv(&mut reader, timeout)? {
            CoordFrame::AuthChallenge { nonce } => nonce,
            other => {
                return Err(ClientError::Protocol(format!("expected AuthChallenge, got {other:?}")))
            }
        };
        send(&writer, &WorkerFrame::Auth { proof: mhe_core::auth::proof(token, &nonce) })?;
    }
    let hb_stop = Arc::new(AtomicBool::new(false));
    let hb = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&hb_stop);
        std::thread::spawn(move || {
            // Short ticks so stopping the thread is cheap; beats go out
            // once per HEARTBEAT_PERIOD regardless.
            let mut since_beat = Duration::ZERO;
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
                since_beat += Duration::from_millis(20);
                if since_beat >= HEARTBEAT_PERIOD {
                    since_beat = Duration::ZERO;
                    if send(&writer, &WorkerFrame::Heartbeat).is_err() {
                        break; // socket gone; the main thread will notice
                    }
                }
            }
        })
    };
    let result = drive(&mut reader, &writer, timeout, opts, prepared, outcome);
    hb_stop.store(true, Ordering::SeqCst);
    let _ = hb.join();
    result
}

/// The post-handshake protocol conversation. Progress accumulates into
/// `outcome` so a severed connection keeps everything already streamed.
fn drive(
    reader: &mut TcpStream,
    writer: &Mutex<TcpStream>,
    timeout: Duration,
    opts: &WorkerOptions,
    prepared: &mut Option<PreparedWorker>,
    outcome: &mut WorkerOutcome,
) -> Result<(), ClientError> {
    send(writer, &WorkerFrame::Hello)?;
    let job = match recv(reader, timeout)? {
        CoordFrame::Job(job) => job,
        CoordFrame::NoMoreWork => {
            // The sweep finished before this worker was admitted;
            // contributing nothing is a clean outcome, not an error.
            return Ok(());
        }
        other => return Err(ClientError::Protocol(format!("expected Job, got {other:?}"))),
    };

    let (eval, space) = build_evaluation(&job, opts, prepared)?;
    // Park the build for redials: a handoff costs a reconnect, never a
    // reference rebuild.
    *prepared = Some(PreparedWorker { eval: Arc::clone(&eval), space: space.clone() });
    // The whole fleet computes this plan identically (golden-pinned
    // shard hash over canonical key bytes), so a shard id alone names
    // the same work on every node.
    let mut by_shard: HashMap<u32, Vec<WorkItem>> = HashMap::new();
    for item in work_plan(&eval, &space) {
        by_shard.entry(shard_of(&item.key, job.shard_count)).or_default().push(item);
    }

    outcome.worker_id = job.worker_id;
    loop {
        send(writer, &WorkerFrame::NeedShard)?;
        let assignment = loop {
            match recv(reader, timeout)? {
                CoordFrame::Wait => continue,
                CoordFrame::Assign { shard, prefill } => break Some((shard, prefill)),
                CoordFrame::NoMoreWork => break None,
                other => {
                    return Err(ClientError::Protocol(format!("expected Assign, got {other:?}")))
                }
            }
        };
        let Some((shard, prefill)) = assignment else {
            if mhe_obs::enabled() {
                mhe_obs::RunReport::capture(
                    format!("spacewalker-worker-{}", job.worker_id),
                    eval.config().worker_threads(),
                )
                .emit();
            }
            return Ok(());
        };
        work_shard(writer, &eval, &mut by_shard, shard, prefill, opts, outcome)?;
        send(writer, &WorkerFrame::ShardDone { shard })?;
        outcome.shards += 1;
    }
}

/// Builds (or adopts) the evaluation and policy-overridden space for a job.
fn build_evaluation(
    job: &JobOffer,
    opts: &WorkerOptions,
    cached: &Option<PreparedWorker>,
) -> Result<(Arc<ReferenceEvaluation>, SystemSpace), ClientError> {
    if let Some(prepared) = cached.as_ref().or(opts.prepared.as_ref()) {
        return Ok((Arc::clone(&prepared.eval), prepared.space.clone()));
    }
    let mut spec =
        Spec::parse(&job.spec_text).map_err(|e| ClientError::Protocol(format!("job spec: {e}")))?;
    if let Some(p) = &job.policies {
        spec.space.icache.policies.clone_from(p);
        spec.space.dcache.policies.clone_from(p);
        spec.space.ucache.policies.clone_from(p);
    }
    let _span = mhe_obs::span(mhe_obs::Phase::Fleet);
    let eval = walker::prepare_evaluation(
        spec.benchmark.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig {
            events: spec.events,
            sampling: job.sampling,
            threads: opts.threads.unwrap_or(0),
            ..EvalConfig::default()
        },
        &spec.space,
    );
    Ok((Arc::new(eval), spec.space))
}

/// Evaluates one leased shard and streams its points in batches.
fn work_shard(
    writer: &Mutex<TcpStream>,
    eval: &ReferenceEvaluation,
    by_shard: &mut HashMap<u32, Vec<WorkItem>>,
    shard: u32,
    prefill: Vec<(MetricKey, f64)>,
    opts: &WorkerOptions,
    outcome: &mut WorkerOutcome,
) -> Result<(), ClientError> {
    let known: HashSet<MetricKey> = prefill.into_iter().map(|(key, _)| key).collect();
    let items: Vec<WorkItem> = by_shard
        .remove(&shard)
        .unwrap_or_default()
        .into_iter()
        .filter(|item| {
            let have = known.contains(&item.key);
            if have {
                outcome.skipped_prefilled += 1;
            }
            !have
        })
        .collect();

    let _span = mhe_obs::span(mhe_obs::Phase::Fleet);
    let results = walker::fan_out(eval.config().worker_threads(), items, |item| {
        evaluate_item(eval, item).map(|value| (item.key.clone(), value))
    })
    .map_err(|e| ClientError::Remote {
        code: e.exit_code(),
        message: format!("shard {shard}: {e}"),
    })?;

    let mut batch: Vec<(MetricKey, f64)> = Vec::with_capacity(POINT_BATCH);
    for point in results {
        batch.push(point);
        outcome.points += 1;
        let dying = opts.die_after_points.is_some_and(|n| outcome.points >= n);
        if batch.len() >= POINT_BATCH || dying {
            send(writer, &WorkerFrame::Points { shard, points: std::mem::take(&mut batch) })?;
            if dying {
                // Simulated kill: the partial stream is flushed (those
                // points must survive as prefill), then the socket dies.
                let guard = writer.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = guard.shutdown(std::net::Shutdown::Both);
                return Err(ClientError::Remote {
                    code: mhe_core::EXIT_WORKER_FAILURE,
                    message: format!(
                        "injected worker death after {} streamed points",
                        outcome.points
                    ),
                });
            }
        }
    }
    if !batch.is_empty() {
        send(writer, &WorkerFrame::Points { shard, points: batch })?;
    }
    Ok(())
}
