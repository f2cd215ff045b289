//! Per-layer probes for the traced run.
//!
//! Each probe times one layer from outside, by calling that layer's
//! public function on the workload's own main input — the same spec,
//! window, trace seed and (for replay) `.mtr` file. Cheap calls are
//! timed as the median of [`ROUNDS`]; the build and the passes over the
//! whole trace run once. Every call is also recorded as a span. The trace
//! is streamed from an `.mtr` file frame by frame and never held whole,
//! so the probes' memory stays that of one build.

use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{
    fleet_round, frontier_request, reference, Daemon, FleetSetup, Primary, ServiceCounts,
    PROFILE_EVENTS,
};
use mhe::cache::{CacheConfig, Policy};
use mhe::core::evaluator::ReferenceEvaluation;
use mhe::model::{ITraceModeler, UTraceModeler};
use mhe::sampling::{SamplePlanner, SampledSim, WindowExtractor};
use mhe::spacewalk::fleet::{evaluate_item, work_plan, Task};
use mhe::spacewalk::service::proto::{
    decode_request, decode_response, decode_worker_frame, encode_request, encode_response,
    encode_worker_frame, Request, Response, WorkerFrame,
};
use mhe::spacewalk::spec::Spec;
use mhe::spacewalk::{
    render_frontier, report_from, walker, EvalService, EvaluationCache, ServiceConfig,
    ServiceLimits,
};
use mhe::trace::codec::write_mtr;
use mhe::trace::{Access, StreamKind, TraceGenerator, TraceReader};
use mhe::vliw::Compiled;
use mhe::workload::BlockFrequencies;
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn median(values: &[f64]) -> f64 {
    stats::median(values).expect("every probe runs at least once")
}

/// Calls per timed probe.
const ROUNDS: usize = 3;
/// Calls per codec probe (microsecond-scale work).
const CODEC_ROUNDS: usize = 101;
/// Points per fleet frame, as the worker batches them.
const POINT_BATCH: usize = 256;

/// Runs `f` `rounds` times in spans named `name`; returns the median
/// seconds and the last result.
fn timed<R>(
    rec: &mut Recorder,
    name: &'static str,
    rounds: usize,
    mut f: impl FnMut() -> R,
) -> (f64, R) {
    let mut walls = Vec::with_capacity(rounds);
    let mut last = None;
    for round in 0..rounds {
        let start = Instant::now();
        let out = rec.time(name, round as u64, &mut f);
        walls.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&walls), last.expect("rounds > 0"))
}

/// One (stream, line size, policy) family of a cache space, the unit a
/// single-pass or sampled simulator covers.
struct Family {
    kind: StreamKind,
    line_words: u32,
    policy: Policy,
    configs: Vec<CacheConfig>,
}

fn families(spec: &Spec) -> Vec<Family> {
    let mut out = Vec::new();
    for (kind, space) in [
        (StreamKind::Instruction, &spec.space.icache),
        (StreamKind::Data, &spec.space.dcache),
        (StreamKind::Unified, &spec.space.ucache),
    ] {
        let mut groups: BTreeMap<(u32, Policy), Vec<CacheConfig>> = BTreeMap::new();
        for c in space.configs() {
            groups.entry((c.line_words, c.policy)).or_default().push(c);
        }
        out.extend(groups.into_iter().map(|((line_words, policy), configs)| Family {
            kind,
            line_words,
            policy,
            configs,
        }));
    }
    out
}

fn exact_misses(eval: &ReferenceEvaluation, kind: StreamKind, config: &CacheConfig) -> Option<u64> {
    match kind {
        StreamKind::Instruction => eval.imeasured(),
        StreamKind::Data => eval.dmeasured(),
        StreamKind::Unified => eval.umeasured(),
    }
    .get(config)
    .copied()
}

/// Decodes the `.mtr` file at `path` frame by frame, handing each frame
/// to `consume`. Returns the time spent reading and decoding (the
/// consumer's time excluded) and the number of accesses.
fn stream_frames(
    path: &Path,
    mut consume: impl FnMut(&[Access]),
) -> Result<(Duration, usize), String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut reader = TraceReader::new(BufReader::new(file)).map_err(|e| format!("decode: {e}"))?;
    let (mut decode, mut accesses) = (Duration::ZERO, 0);
    loop {
        let start = Instant::now();
        let frame = reader.next_frame().map_err(|e| format!("decode: {e}"))?;
        decode += start.elapsed();
        let Some(frame) = frame else { break };
        accesses += frame.len();
        consume(&frame);
    }
    Ok((decode, accesses))
}

/// Builds the workload's evaluation the way its pipeline does.
fn build(primary: &Primary, spec: &Spec) -> Result<ReferenceEvaluation, String> {
    let program = spec.benchmark.generate();
    match &primary.mtr {
        Some(path) => ReferenceEvaluation::replay_file(
            program,
            &reference(),
            primary.config,
            path,
            &spec.space.icache.configs(),
            &spec.space.dcache.configs(),
            &spec.space.ucache.configs(),
        )
        .map_err(|e| format!("replay: {e}")),
        None => Ok(walker::prepare_evaluation(program, &reference(), primary.config, &spec.space)),
    }
}

/// Measures every per-layer metric on `primary`; scratch files go to
/// `tmp`. Takes `primary` by value so that its evaluations are freed
/// before the service probe builds a session of its own.
pub fn probe(
    primary: Primary,
    tmp: &Path,
    rec: &mut Recorder,
) -> Result<Vec<(&'static str, f64)>, String> {
    let spec = Spec::parse(&primary.spec_text).map_err(|e| format!("spec: {e}"))?;
    let cfg = primary.config;
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // --- core: the workload's own build, and what its metrics attribute.
    let (build_s, eval) = match &primary.built {
        Some((eval, wall)) => (wall.as_secs_f64(), Arc::clone(eval)),
        None => {
            let (build_s, eval) = timed(rec, "core.build", 1, || build(&primary, &spec));
            (build_s, Arc::new(eval?))
        }
    };
    let m = eval.metrics();
    let grid_sim = m.cpu_sim_time().as_secs_f64();
    out.push(("cache.grid_sim_s", grid_sim));
    out.push(("cache.family_addresses", m.simulated_addresses() as f64));
    out.push(("cache.addresses_per_s", m.simulated_addresses() as f64 / grid_sim.max(1e-12)));
    out.push(("cache.passes", m.passes.len() as f64));
    out.push(("core.build_s", build_s));
    // The exact counterpart of a sampled build: timed once around the
    // workload's exact replay of the same file.
    let (exact_grid_sim, exact_build_s) = match &primary.exact {
        Some((exact, wall)) => (exact.metrics().cpu_sim_time().as_secs_f64(), wall.as_secs_f64()),
        None => (grid_sim, build_s),
    };
    out.push(("cache.exact_grid_sim_s", exact_grid_sim));
    out.push(("core.exact_build_s", exact_build_s));

    // --- workload and vliw: profile and compiles.
    let program = spec.benchmark.generate();
    let (profile_s, freq) = timed(rec, "workload.profile", ROUNDS, || {
        BlockFrequencies::profile(&program, cfg.seed, PROFILE_EVENTS)
    });
    let (compile_ref_s, compiled) = timed(rec, "vliw.compile_reference", ROUNDS, || {
        Compiled::build(&program, &reference(), Some(&freq))
    });
    let (compile_targets_s, _) = timed(rec, "vliw.compile_targets", ROUNDS, || {
        spec.space
            .processors
            .iter()
            .map(|p| Compiled::build(&program, p, Some(&freq)).text_words())
            .sum::<u64>()
    });
    out.push(("workload.profile_s", profile_s));
    out.push(("vliw.compile_s", compile_ref_s + compile_targets_s));
    // Whatever the build spent outside profiling, compiling, trace
    // production and the measurement fan-out.
    let other =
        build_s - profile_s - compile_ref_s - m.trace_wall.as_secs_f64() - m.sim_wall.as_secs_f64();
    out.push(("core.build_other_s", other));

    // --- trace: generation, then the same trace as `.mtr` (the captured
    // file when the workload replays one), decoded in two streamed
    // passes that also feed the modelers and the sampling planner, then
    // the window extractor.
    let generate =
        || TraceGenerator::new(&program, &compiled, cfg.seed).with_event_limit(cfg.events);
    let (gen_s, accesses) = timed(rec, "trace.gen", 1, || generate().count());
    out.push(("trace.gen_s", gen_s));
    out.push(("trace.gen_accesses_per_s", accesses as f64 / gen_s.max(1e-12)));
    let mtr = match &primary.mtr {
        Some(path) => path.clone(),
        None => {
            let path = tmp.join("probe.mtr");
            let file =
                File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
            rec.time("trace.encode", 0, || write_mtr(BufWriter::new(file), generate()))
                .map_err(|e| format!("encode: {e}"))?;
            path
        }
    };
    let mtr_bytes = std::fs::metadata(&mtr).map_err(|e| format!("{}: {e}", mtr.display()))?.len();

    let sampling = cfg.sampling.unwrap_or_default();
    let mut imodel = ITraceModeler::new(cfg.i_granule);
    let mut umodel = UTraceModeler::new(cfg.u_granule);
    let mut planner = SamplePlanner::new(sampling);
    let (mut model, mut plan) = (Duration::ZERO, Duration::ZERO);
    let (decode_first, first) = rec.time("trace.stream", 0, || {
        stream_frames(&mtr, |frame| {
            let start = Instant::now();
            for &a in frame {
                if StreamKind::Instruction.admits(a.kind) {
                    imodel.process(a.addr);
                }
                umodel.process(a);
            }
            let modeled = Instant::now();
            planner.feed(frame);
            model += modeled - start;
            plan += modeled.elapsed();
        })
    })?;
    let start = Instant::now();
    black_box((imodel.finish(), umodel.finish()));
    let modeled = Instant::now();
    let sample_plan = planner.finish();
    model += modeled - start;
    plan += modeled.elapsed();

    let mut extractor = WindowExtractor::new(&sample_plan);
    let mut extract = Duration::ZERO;
    let (decode_second, second) = rec.time("trace.stream", 1, || {
        stream_frames(&mtr, |frame| {
            let start = Instant::now();
            extractor.feed(frame);
            extract += start.elapsed();
        })
    })?;
    let start = Instant::now();
    let windows = extractor.finish();
    extract += start.elapsed();
    if first != accesses || second != accesses {
        return Err(format!("decoded {first} and {second} accesses, generated {accesses}"));
    }
    let decode_s = (decode_first + decode_second).as_secs_f64() / 2.0;
    out.push(("trace.decode_s", decode_s));
    out.push(("trace.decode_mb_per_s", mtr_bytes as f64 / 1e6 / decode_s.max(1e-12)));
    out.push(("model.modeler_s", model.as_secs_f64()));

    // --- sampling: estimate the space's grids from the planned windows,
    // and the estimate's error against the exact grids.
    let fams = families(&spec);
    let (sim_s, sims) = timed(rec, "sampling.sim", ROUNDS, || {
        fams.iter()
            .map(|f| {
                let mut sets: Vec<u32> = f.configs.iter().map(|c| c.sets).collect();
                sets.sort_unstable();
                sets.dedup();
                let max_assoc = f.configs.iter().map(|c| c.assoc).max().unwrap_or(1);
                SampledSim::measure(
                    f.policy,
                    f.line_words,
                    &sets,
                    max_assoc,
                    f.kind,
                    &sample_plan,
                    &windows,
                )
            })
            .collect::<Vec<_>>()
    });
    let exact = primary.exact.as_ref().map_or(eval.as_ref(), |(exact, _)| exact.as_ref());
    let mut error = 0.0f64;
    for (f, sim) in fams.iter().zip(&sims) {
        let n = sample_plan.stream_accesses(f.kind).max(1) as f64;
        for c in &f.configs {
            let truth = exact_misses(exact, f.kind, c).ok_or("exact grid lacks a space config")?;
            error = error.max((sim.misses(c.sets, c.assoc) as f64 - truth as f64).abs() / n);
        }
    }
    out.push(("sampling.plan_s", plan.as_secs_f64()));
    out.push(("sampling.extract_s", extract.as_secs_f64()));
    out.push(("sampling.sim_s", sim_s));
    out.push(("sampling.intervals", sample_plan.intervals().len() as f64));
    out.push(("sampling.clusters", sample_plan.clusters().len() as f64));
    out.push(("sampling.coverage", sample_plan.coverage()));
    out.push(("sampling.max_miss_ratio_error", error));
    drop((windows, sims));

    // --- core: the metric plan, split into cycle simulation and the
    // analytic estimates.
    let plan_items = work_plan(&eval, &spec.space);
    let mut proc_walls = Vec::new();
    let mut estimate_walls = Vec::new();
    let mut serial_walls = Vec::new();
    let mut points = Vec::new();
    for round in 0..ROUNDS {
        let (mut proc, mut estimate) = (Duration::ZERO, Duration::ZERO);
        let id = rec.enter("core.evaluate_items", round as u64);
        let start = Instant::now();
        points.clear();
        for item in &plan_items {
            let t = Instant::now();
            let value = evaluate_item(&eval, item).map_err(|e| format!("plan item: {e}"))?;
            let wall = t.elapsed();
            if matches!(item.task, Task::ProcCycles { .. }) {
                proc += wall;
            } else {
                estimate += wall;
            }
            points.push((item.key.clone(), value));
        }
        serial_walls.push(start.elapsed().as_secs_f64());
        rec.exit(id);
        proc_walls.push(proc.as_secs_f64());
        estimate_walls.push(estimate.as_secs_f64());
    }
    let serial_eval_s = median(&serial_walls);
    let estimates =
        plan_items.iter().filter(|i| !matches!(i.task, Task::ProcCycles { .. })).count();
    out.push(("core.proc_cycles_s", median(&proc_walls)));
    out.push(("core.estimate_s", median(&estimate_walls)));
    out.push(("core.estimates", estimates as f64));
    out.push(("spacewalk.fleet.plan_items", plan_items.len() as f64));
    out.push(("spacewalk.fleet.serial_eval_s", serial_eval_s));

    // --- spacewalk.walk: a cold walk for the cache hit ratio, then warm
    // walks and the render.
    let db = EvaluationCache::new();
    let frontier = rec
        .time("spacewalk.walk_cold", 0, || {
            walker::walk_system_with(&eval, &spec.space, spec.penalties, &db, None)
        })
        .map_err(|e| format!("walk: {e}"))?;
    let (hits, computes) = db.stats();
    let (warm_s, warm) = timed(rec, "spacewalk.walk", ROUNDS, || {
        walker::walk_system_with(&eval, &spec.space, spec.penalties, &db, None)
    });
    warm.map_err(|e| format!("warm walk: {e}"))?;
    let (render_s, _) = timed(rec, "spacewalk.render", ROUNDS, || {
        render_frontier(&report_from(&eval, &frontier, &db))
    });
    out.push(("spacewalk.walk.warm_s", warm_s));
    out.push(("spacewalk.walk.designs", spec.space.combinations() as f64));
    out.push(("spacewalk.walk.frontier_rows", frontier.len() as f64));
    out.push(("spacewalk.walk.db_hit_ratio", hits as f64 / (hits + computes).max(1) as f64));
    out.push(("spacewalk.render_s", render_s));
    drop((db, frontier));

    // --- spacewalk.fleet: the plan distributed over two workers.
    let fleet = FleetSetup::new(&primary.spec_text, cfg.sampling, eval)?;
    let mut sweeps = Vec::new();
    let mut round = None;
    for i in 0..ROUNDS {
        let r = fleet_round(rec, i as u64, &fleet)?;
        sweeps.push(r.sweep.as_secs_f64());
        round = Some(r);
    }
    let round = round.expect("ROUNDS > 0");
    let coordinator_s = median(&sweeps);
    let worker_points = &round.worker_points;
    let busiest = worker_points.iter().copied().max().unwrap_or(0).max(1);
    let idlest = worker_points.iter().copied().min().unwrap_or(0);
    out.push(("spacewalk.fleet.coordinator_s", coordinator_s));
    out.push((
        "spacewalk.fleet.overhead_us_per_point",
        (coordinator_s * worker_points.len() as f64 - serial_eval_s)
            / round.summary.points.max(1) as f64
            * 1e6,
    ));
    out.push(("spacewalk.fleet.steals", round.summary.steals as f64));
    out.push(("spacewalk.fleet.duplicates", round.summary.duplicates as f64));
    out.push(("spacewalk.fleet.worker_balance", idlest as f64 / busiest as f64));
    drop((fleet, primary.built, primary.exact));

    // --- spacewalk.service and .proto: the same spec through an
    // in-process service, then through a loopback daemon.
    let service = Arc::new(EvalService::with_config(ServiceConfig {
        limits: ServiceLimits { max_inflight: 1, max_queued: 1 },
        session_ttl: None,
        max_sessions: None,
        persist_dir: None,
    }));
    let request = frontier_request(&primary.spec_text, cfg.sampling);
    let respond = || service.respond(Request::Frontier(request.clone()));
    let (cold_s, response) = timed(rec, "spacewalk.service.respond_cold", 1, respond);
    if !matches!(response, Response::Frontier(_)) {
        return Err(format!("service answered {response:?}"));
    }
    let (warm_respond_s, response) = timed(rec, "spacewalk.service.respond_warm", 5, respond);
    out.push(("spacewalk.service.respond_warm_ms", warm_respond_s * 1e3));
    out.push(("spacewalk.service.respond_cold_ms", cold_s * 1e3));
    let counts = primary.service.unwrap_or_else(|| {
        let stats = service.stats();
        ServiceCounts {
            sessions_built: stats.sessions + stats.evictions,
            evictions: stats.evictions,
            rejected: 0,
        }
    });
    out.push(("spacewalk.service.sessions_built", counts.sessions_built as f64));
    out.push(("spacewalk.service.evictions", counts.evictions as f64));
    out.push(("spacewalk.service.rejected", counts.rejected as f64));

    let whole_request = Request::Frontier(request.clone());
    let (codec_s, decoded) = timed(rec, "spacewalk.proto.codec", CODEC_ROUNDS, || {
        let a = decode_request(&encode_request(&whole_request));
        let b = decode_response(&encode_response(&response));
        a.and(b)
    });
    decoded.map_err(|e| format!("codec: {e}"))?;
    out.push(("spacewalk.proto.codec_us", codec_s * 1e6));
    out.push(("spacewalk.proto.response_bytes", encode_response(&response).len() as f64));

    let mut daemon = Daemon::serve(Arc::clone(&service))?;
    let (client_s, reply) =
        timed(rec, "spacewalk.proto.client_warm", 5, || daemon.admin.evaluate(request.clone()));
    daemon.stop()?;
    reply.map_err(|e| format!("loopback request: {e}"))?;
    out.push(("spacewalk.proto.transport_ms", (client_s - warm_respond_s - codec_s) * 1e3));

    let frame = WorkerFrame::Points {
        shard: 0,
        points: points.iter().take(POINT_BATCH).cloned().collect(),
    };
    let (frame_s, decoded) = timed(rec, "spacewalk.proto.point_frame", CODEC_ROUNDS, || {
        encode_worker_frame(&frame).and_then(|bytes| decode_worker_frame(&bytes))
    });
    decoded.map_err(|e| format!("point frame: {e}"))?;
    out.push(("spacewalk.proto.point_frame_us", frame_s * 1e6));
    Ok(out)
}
