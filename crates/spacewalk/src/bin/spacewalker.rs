//! `spacewalker` — non-interactive design-space exploration from a
//! specification file. `spacewalker --help` prints every subcommand with
//! the knobs it accepts (the table in `mhe_spacewalk::cli`).
//!
//! `walk` reads the design-space specification, runs the reference
//! evaluation once (the only simulation), walks the processor × memory
//! space with the dilation model, and prints the cost/performance Pareto
//! frontier. With `--db` the evaluation cache persists across runs in
//! the versioned binary format (bit-exact round-trip); `--export`
//! additionally writes a human-readable text listing; `--heuristic`
//! demonstrates neighbourhood-ascent pruning; `--policy
//! lru,fifo,plru,random:7` overrides the replacement-policy dimension of
//! every cache space; `--sample N` routes the reference evaluation
//! through interval sampling and stamps the frontier with its
//! provenance. `--obs` / `--obs-json` (or `MHE_OBS`) emit a run report
//! to stderr.
//!
//! # Daemon mode
//!
//! `connect ADDR SPEC` sends the walk to an `mhe-server` daemon and
//! prints the served frontier — byte-identical to the batch output,
//! because both sides render the same report with the same renderer.
//! Persistence flags are not accepted in connect mode: they belong to
//! the daemon's side of the socket.
//!
//! # Distributed mode
//!
//! `fleet SPEC --workers N` partitions the metric evaluations into
//! deterministic shards, spawns `N` local worker processes (more can
//! attach from other machines with `worker ADDR`), merges their
//! streamed points with work-stealing fault tolerance, and finishes
//! with a serial walk over the merged cache — printing a frontier
//! bit-identical to `walk` at any worker count, even after killing a
//! worker mid-sweep. `--checkpoint`/`--resume` reuse the crash-safe
//! cache format, so a restarted coordinator re-offers completed points
//! instead of recomputing them.
//!
//! # Exit codes
//!
//! Failures exit with a one-line message and a typed status: **2** bad
//! configuration (usage, an invalid flag or `MHE_*` variable, unreadable
//! or malformed spec, protocol-version skew rejected by a server), **3**
//! corrupt input (cache database or checkpoint fails its CRC), **4**
//! worker failure (a panic isolated inside the parallel walk, a failed
//! checkpoint write, an aborted fleet sweep), **5** server unavailable
//! (a daemon or coordinator could not be reached or went silent), **6**
//! unauthorized (a tokened daemon or coordinator rejected — or never
//! received — the shared auth token), **7** cancelled (the request was
//! cooperatively cancelled before completing).

use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_core::{EXIT_BAD_CONFIG, EXIT_CORRUPT_INPUT, EXIT_SERVER_UNAVAILABLE, EXIT_WORKER_FAILURE};
use mhe_spacewalk::cache_db::EvaluationCache;
use mhe_spacewalk::ckpt::Checkpointer;
use mhe_spacewalk::cli::{self, Args, Command};
use mhe_spacewalk::fleet::{run_worker, Coordinator, FleetConfig, FleetJob, WorkerOptions};
use mhe_spacewalk::heuristic::prewarm_icache;
use mhe_spacewalk::service::proto::{FrontierReport, FrontierRequest};
use mhe_spacewalk::spec::Spec;
use mhe_spacewalk::{render_frontier, report_from, walker, Client};
use mhe_vliw::ProcessorKind;
use std::process::ExitCode;
use std::sync::Arc;

const EXIT_CODES: &str = "exit codes:
  0 success | 2 bad configuration | 3 corrupt input
  4 worker failure | 5 server unavailable
  6 unauthorized | 7 cancelled";

/// A typed CLI failure: exit code plus rendered message.
type CliError = (u8, String);

/// Runs one parsed subcommand.
type Run = fn(&Args) -> Result<(), CliError>;

/// Each subcommand's knob list and the function running it.
const SUBCOMMANDS: [(&Command, Run); 4] =
    [(&cli::WALK, walk), (&cli::CONNECT, connect), (&cli::WORKER, worker), (&cli::FLEET, fleet)];

fn usage() -> String {
    let commands: Vec<String> =
        SUBCOMMANDS.iter().map(|(c, _)| format!("  {}", c.usage())).collect();
    format!("usage:\n{}\n\n{EXIT_CODES}", commands.join("\n"))
}

fn bad(msg: impl std::fmt::Display) -> CliError {
    (EXIT_BAD_CONFIG, msg.to_string())
}

/// Reads and parses the spec, applying the `--policy` override.
fn load_spec(path: &str, args: &Args) -> Result<(String, Spec), CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| bad(format!("cannot read {path}: {e}")))?;
    let mut spec = Spec::parse(&text).map_err(|e| bad(format!("{path}: {e}")))?;
    if let Some(p) = args.get::<Vec<mhe_cache::Policy>>(&cli::POLICY) {
        spec.space.icache.policies.clone_from(&p);
        spec.space.dcache.policies.clone_from(&p);
        spec.space.ucache.policies = p;
    }
    eprintln!(
        "benchmark {} | {} processors x {} I$ x {} D$ x {} U$ = {} systems",
        spec.benchmark,
        spec.space.processors.len(),
        spec.space.icache.enumerate().len(),
        spec.space.dcache.enumerate().len(),
        spec.space.ucache.enumerate().len(),
        spec.space.combinations()
    );
    Ok((text, spec))
}

/// Opens the checkpointer (if any) and the starting evaluation cache,
/// honouring `--resume` and `--db` preloads.
fn open_store(args: &Args) -> Result<(Option<Checkpointer>, EvaluationCache), CliError> {
    let resume: Option<String> = args.get(&cli::RESUME);
    let dir: Option<String> = args.get(&cli::CHECKPOINT);
    if resume.is_some() && dir.is_some() && resume != dir {
        return Err(bad("--checkpoint and --resume name different directories"));
    }
    let checkpoint = resume.clone().or(dir).map(Checkpointer::new).transpose().map_err(bad)?;
    let db = if resume.is_some() {
        match checkpoint.as_ref().map(Checkpointer::load) {
            Some(Ok(db)) => {
                eprintln!("resumed {} cached metrics from checkpoint", db.len());
                db
            }
            Some(Err(e)) => return Err((EXIT_CORRUPT_INPUT, e.to_string())),
            None => EvaluationCache::new(),
        }
    } else {
        match args.get::<String>(&cli::DB) {
            Some(p) if std::path::Path::new(&p).exists() => match EvaluationCache::load(&p) {
                Ok(db) => {
                    eprintln!("loaded {} cached metrics from {p}", db.len());
                    db
                }
                Err(e) => return Err((EXIT_CORRUPT_INPUT, e.to_string())),
            },
            _ => EvaluationCache::new(),
        }
    };
    Ok((checkpoint, db))
}

/// Builds the reference evaluation — the only simulation step.
fn prepare(spec: &Spec, args: &Args) -> ReferenceEvaluation {
    eprintln!("building reference evaluation (the only simulation step)...");
    let sampling = args.get(&cli::SAMPLE);
    walker::prepare_evaluation(
        spec.benchmark.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: spec.events, sampling, ..EvalConfig::default() },
        &spec.space,
    )
}

/// Walks the system space over `db`, prints the frontier, saves/exports
/// the cache per the persistence flags and emits the run report — the
/// shared tail of `walk` and `fleet`.
fn finish(
    eval: &ReferenceEvaluation,
    spec: &Spec,
    db: &EvaluationCache,
    checkpoint: Option<&Checkpointer>,
    args: &Args,
    tool: &str,
) -> Result<(), CliError> {
    let frontier = walker::walk_system_with(eval, &spec.space, spec.penalties, db, checkpoint)
        .map_err(|e| (e.exit_code(), format!("system walk failed: {e}")))?;
    // Sampled-vs-exact provenance travels with the frontier itself, so a
    // saved listing is self-describing about how its misses were measured.
    // The report + renderer pair is the same one a daemon serves over the
    // wire, which is what keeps batch, served, and fleet output
    // byte-identical by construction.
    print_report(&report_from(eval, &frontier, db));
    if let Some(p) = args.get::<String>(&cli::DB) {
        db.save(&p).map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot save {p}: {e}")))?;
        eprintln!("saved evaluation cache to {p}");
    }
    if let Some(p) = args.get::<String>(&cli::EXPORT) {
        db.export_text(&p).map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot export {p}: {e}")))?;
        eprintln!("exported text listing to {p}");
    }
    if mhe_obs::enabled() {
        mhe_obs::RunReport::capture(tool, eval.config().worker_threads()).emit();
    }
    Ok(())
}

/// Prints the frontier and its one-line stderr summary — the shared tail
/// of `walk`, `connect`, and `fleet`, and the bytes the byte-identity
/// contract is about.
fn print_report(report: &FrontierReport) {
    print!("{}", render_frontier(report));
    eprintln!(
        "{} frontier designs; evaluation cache {} hits / {} computes",
        report.rows.len(),
        report.hits,
        report.computes
    );
}

// --- subcommands ---------------------------------------------------------

fn walk(args: &Args) -> Result<(), CliError> {
    let (_, spec) = load_spec(&args.operands[0], args)?;
    let (checkpoint, db) = open_store(args)?;
    let eval = prepare(&spec, args);

    if args.has(&cli::HEURISTIC) {
        // Demonstrate the pruning on the instruction-cache walk at each
        // processor's dilation. The heuristic shares the system cache, so
        // every design it touches pre-warms the full walk below.
        let results = prewarm_icache(&eval, &spec.space, &db)
            .map_err(|(proc, e)| (e.exit_code(), format!("heuristic I$ walk @ {proc}: {e}")))?;
        for (proc, r) in spec.space.processors.iter().zip(results) {
            eprintln!(
                "heuristic I$ walk @ {}: evaluated {}/{} designs, frontier {}",
                proc.name,
                r.evaluated,
                r.space_size,
                r.pareto.len()
            );
        }
    }
    finish(&eval, &spec, &db, checkpoint.as_ref(), args, "spacewalker")
}

/// Sends the walk to a daemon and prints the served frontier — the same
/// bytes the batch path prints for the same spec.
fn connect(args: &Args) -> Result<(), CliError> {
    let (spec_text, _) = load_spec(&args.operands[1], args)?;
    let mut builder =
        Client::builder().addr(&args.operands[0]).retries(args.get(&cli::RETRIES).unwrap_or(0));
    if let Some(t) = args.get(&cli::TIMEOUT) {
        builder = builder.timeout(t);
    }
    if let Some(d) = args.get(&cli::RETRY_DEADLINE) {
        builder = builder.retry_deadline(d);
    }
    if let Some(token) = args.get::<String>(&cli::AUTH_TOKEN) {
        builder = builder.auth_token(token);
    }
    let request = FrontierRequest {
        spec_text,
        heuristic: args.has(&cli::HEURISTIC),
        sampling: args.get(&cli::SAMPLE),
        policies: args.get(&cli::POLICY),
    };
    let report = builder
        .connect()
        .and_then(|mut client| client.evaluate(request))
        .map_err(|e| (e.exit_code(), e.to_string()))?;
    print_report(&report);
    Ok(())
}

fn worker(args: &Args) -> Result<(), CliError> {
    let defaults = WorkerOptions::default();
    let opts = WorkerOptions {
        threads: args.get(&cli::THREADS),
        reply_timeout: args.get(&cli::TIMEOUT),
        die_after_points: args.get(&cli::DIE_AFTER_POINTS),
        redial_retries: args.get(&cli::REDIALS).unwrap_or(defaults.redial_retries),
        auth_token: args.get(&cli::AUTH_TOKEN),
        ..defaults
    };
    let outcome =
        run_worker(&args.operands[0], opts).map_err(|e| (e.exit_code(), e.to_string()))?;
    eprintln!(
        "worker {}: {} shards, {} points evaluated, {} prefilled skipped",
        outcome.worker_id, outcome.shards, outcome.points, outcome.skipped_prefilled
    );
    Ok(())
}

fn fleet(args: &Args) -> Result<(), CliError> {
    let workers: u32 = args.get(&cli::WORKERS).unwrap_or(0);
    let defaults = FleetConfig::default();
    let fleet_cfg = FleetConfig {
        shard_count: args.get(&cli::SHARDS).unwrap_or(defaults.shard_count),
        lease_timeout: args.get(&cli::LEASE_TIMEOUT).unwrap_or(defaults.lease_timeout),
        stall_timeout: args.get(&cli::STALL_TIMEOUT).unwrap_or(defaults.stall_timeout),
        auth_token: args.get(&cli::AUTH_TOKEN),
    };
    let bind_addr = args.get(&cli::BIND).unwrap_or_else(|| "127.0.0.1:0".to_string());
    let (spec_text, spec) = load_spec(&args.operands[0], args)?;
    let (checkpoint, db) = open_store(args)?;
    let db = Arc::new(db);

    let job =
        FleetJob { spec_text, sampling: args.get(&cli::SAMPLE), policies: args.get(&cli::POLICY) };
    let shard_count = fleet_cfg.shard_count;
    let worker_token = fleet_cfg.auth_token.clone();
    let coordinator = Coordinator::bind(bind_addr.as_str(), job, fleet_cfg, Arc::clone(&db))
        .map_err(|e| (EXIT_SERVER_UNAVAILABLE, format!("cannot bind {bind_addr}: {e}")))?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| (EXIT_SERVER_UNAVAILABLE, format!("local addr: {e}")))?;
    if let Some(path) = args.get::<String>(&cli::PORT_FILE) {
        std::fs::write(&path, format!("{addr}\n"))
            .map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot write {path}: {e}")))?;
    }
    eprintln!("fleet: coordinating on {addr} ({} shards, {} local workers)", shard_count, workers);

    let exe = std::env::current_exe()
        .map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot locate own binary: {e}")))?;
    let mut children = Vec::new();
    for _ in 0..workers {
        let mut command = std::process::Command::new(&exe);
        command.arg("worker").arg(addr.to_string());
        if let Some(token) = &worker_token {
            // Locally-spawned workers inherit the coordinator's token so
            // `fleet --auth-token` works without extra plumbing.
            command.arg(cli::AUTH_TOKEN.flag).arg(token);
        }
        let child = command
            .spawn()
            .map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot spawn worker: {e}")))?;
        children.push(child);
    }

    let summary = match coordinator.run(checkpoint.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            for child in &mut children {
                let _ = child.kill();
                let _ = child.wait();
            }
            return Err((e.exit_code(), format!("fleet sweep failed: {e}")));
        }
    };
    // Workers exit on NoMoreWork; a worker that died mid-sweep was
    // already stolen from — its exit status is not the fleet's.
    for child in &mut children {
        let _ = child.wait();
    }
    eprintln!(
        "fleet: {} workers, {} points merged, {} steals, {} duplicate deliveries",
        summary.workers, summary.points, summary.steals, summary.duplicates
    );

    // The fleet filled the cache; the frontier itself is the ordinary
    // deterministic serial walk — every metric lookup below is a hit,
    // which is what makes this output bit-identical to `walk`.
    let eval = prepare(&spec, args);
    finish(&eval, &spec, &db, checkpoint.as_ref(), args, "spacewalker-fleet")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = argv.first().map(String::as_str).unwrap_or_default();
    let found = SUBCOMMANDS
        .into_iter()
        .find(|(c, _)| c.name.strip_prefix("spacewalker ") == Some(subcommand));
    let Some((command, run)) = found else {
        eprintln!("{}", usage());
        let asked = subcommand == cli::HELP.flag;
        return if asked { ExitCode::SUCCESS } else { ExitCode::from(EXIT_BAD_CONFIG) };
    };
    let env = |var: &str| std::env::var(var).ok();
    let result = mhe_core::env::check(env).and_then(|()| command.parse(&argv[1..], env));
    let result = result.map_err(bad);
    let result = result.and_then(|args| {
        if args.has(&cli::HELP) {
            eprintln!("usage:\n  {}", command.usage());
            return Ok(());
        }
        args.apply_obs();
        run(&args)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("spacewalker: {msg}");
            ExitCode::from(code)
        }
    }
}
