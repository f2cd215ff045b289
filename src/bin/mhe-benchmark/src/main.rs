//! `mhe-benchmark`: one benchmark for the spec → frontier pipeline.
//!
//! ```text
//! mhe-benchmark --workload W --seed N --seconds S --trace 0|1
//!               [--smoke] [--out FILE.tsv] [--trace-out FILE.jsonl]
//! mhe-benchmark run --seed N [--seconds S] [--traced] [--smoke]
//!               [--out FILE.tsv] [--trace-out FILE.jsonl]
//! mhe-benchmark compare PARENT.tsv CHANGE.tsv...
//! ```
//!
//! The first form runs one workload in this process and prints one line
//! per metric, then a one-line JSON result (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). `run` runs every
//! workload, each in its own child process. `compare` applies the
//! decision rule to TSV files written by `--out`. See README.md.

mod compare;
mod inputs;
mod layers;
mod metrics;
mod spans;
mod speed;
mod stats;
mod workloads;

use inputs::Sizes;
use metrics::{
    render_json, render_text, render_tsv, unit_of, Value, Values, END_TO_END, PER_LAYER,
};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Ctx, Outcome, WORKLOADS};

/// Seconds `run` measures each workload for when `--seconds` is absent;
/// `BENCHMARK.json` names the same number as `run_seconds`.
const RUN_SECONDS: f64 = 12.0;
/// Seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;
/// Top-level spans must cover at least this share of the traced
/// operations' wall time.
const MAX_UNATTRIBUTED: f64 = 0.02;

/// SHA-256 of the rendered seed-1 frontier of each workload with a fixed
/// answer (for `daemon-mix`, of the hot set's frontiers in order).
/// `sampled-replay` is judged by accuracy instead, so that reworking the
/// sampling estimator does not count as a failure.
const PINNED_SEED1: [(&str, &str); 3] = [
    ("exact-walk", "4ef95719127228bd20f5de91e9072cb3e2c440f0aeceaeb478ce87753f95379e"),
    ("daemon-mix", "61d248dc3894a70d0b3101bbf8487d7c322cfc222157b7a3c11e8b080c8900ad"),
    ("fleet-2", "cd495719465758bd97d0a2679679ac32c987b62df239c163808b753cc35afa57"),
];

const USAGE: &str = "usage:
  mhe-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out FILE] [--trace-out FILE]
  mhe-benchmark run --seed N [--seconds S] [--traced] [--smoke] [--out FILE] [--trace-out FILE]
  mhe-benchmark compare PARENT.tsv CHANGE.tsv...
workloads: exact-walk sampled-replay daemon-mix fleet-2";

/// Options of one workload run.
#[derive(Debug, Clone, PartialEq)]
struct RunOpts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    One(RunOpts),
    All(RunOpts),
    Compare(Vec<PathBuf>),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("compare") if args.len() >= 3 => {
            return Ok(Command::Compare(args[1..].iter().map(PathBuf::from).collect()))
        }
        Some("compare") => return Err("compare needs a parent and at least one change file".into()),
        _ => {}
    }
    let all = args.first().map(String::as_str) == Some("run");
    let mut opts = RunOpts {
        workload: None,
        seed: 0,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut seed = None;
    let mut trace = None;
    let mut it = args.iter().skip(usize::from(all));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" if !all => opts.workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                opts.seconds = Some(s);
            }
            "--trace" if !all => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--traced" if all => opts.traced = true,
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    opts.seed = seed.ok_or("--seed is required")?;
    if all {
        return Ok(Command::All(opts));
    }
    let workload = opts.workload.as_deref().ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    opts.seconds.ok_or("--seconds is required")?;
    opts.traced = trace.ok_or("--trace is required")?;
    Ok(Command::One(opts))
}

/// The benchmark owns its environment: every `MHE_*` knob is cleared so
/// that nothing outside the inputs changes what is measured, every
/// evaluation runs one thread, and the program's own observability
/// registry stays off in both runs.
fn pin_environment() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("MHE_"))
        .collect();
    for key in knobs {
        std::env::remove_var(key);
    }
    std::env::set_var("MHE_THREADS", "1");
    mhe::obs::set_level(mhe::obs::ObsLevel::Off);
}

/// A scratch directory under the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn v(value: f64, unit: &'static str, samples: usize) -> Value {
    Value { value, unit, samples }
}

/// End-to-end values of an untraced run. Timings that carry kernel
/// samples (the CPU-bound part of every set-up round; the operations of
/// `exact-walk`, `sampled-replay` and `fleet-2`) are normalized to the
/// reference machine. Latency is the interquartile mean: like a median
/// it ignores the slowest and fastest quarter, and unlike one it moves
/// smoothly when the samples fall into clusters. Throughput of a
/// normalized workload is operations per normalized second of operation
/// time. The raw median and tail latency (the highest of p90 and p99
/// that leaves at least ten samples beyond it) and the machine factor
/// follow for the text and TSV output.
fn end_to_end(outcome: &Outcome, peak_rss_mb: f64) -> Result<Values, String> {
    let (setup, ops) = (&outcome.setup, &outcome.latencies);
    let setup_s = setup.seconds();
    let latency = speed::normalized(&ops.walls, &ops.kernels);
    let raw = stats::millis(&ops.walls);
    let n = latency.len();
    let missing = || "the run produced no timed operations".to_string();
    let ops_per_s = if ops.kernels.is_empty() {
        outcome.ops as f64 / outcome.wall.as_secs_f64()
    } else {
        n as f64 / latency.iter().sum::<f64>()
    };
    let mut values = vec![
        ("setup_s", v(stats::median(&setup_s).ok_or("no set-up ran")?, "s", setup_s.len())),
        (
            "latency_iqm_ms",
            v(stats::interquartile_mean(&latency).ok_or_else(missing)? * 1e3, "ms", n),
        ),
        ("ops_per_s", v(ops_per_s, "1/s", outcome.ops)),
        ("peak_rss_mb", v(peak_rss_mb, "MB", 1)),
        ("latency_p50_raw_ms", v(stats::median(&raw).ok_or_else(missing)?, "ms", n)),
    ];
    let q = stats::tail_quantile(&[0.5, 0.9, 0.99], n);
    if q > 0.5 {
        let name = if q >= 0.99 { "latency_p99_raw_ms" } else { "latency_p90_raw_ms" };
        values.push((name, v(stats::percentile(&raw, q).ok_or_else(missing)?, "ms", n)));
    }
    let kernels: Vec<f64> = setup.cpu.kernels.iter().chain(&ops.kernels).copied().collect();
    if let Some(factor) = speed::factor(&kernels) {
        values.push(("machine_factor", v(factor, "ratio", kernels.len())));
    }
    Ok(values)
}

fn append(path: &PathBuf, text: &str) -> Result<(), String> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn failure_json() -> String {
    render_json(false, 1, 1, &[], &Vec::new())
}

/// Runs one workload in this process.
fn run_one(opts: &RunOpts) -> ExitCode {
    let workload = opts.workload.as_deref().expect("parse_args checked the workload");
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mhe-benchmark: scratch directory: {e}");
            println!("{}", failure_json());
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        seed: opts.seed,
        sizes: if opts.smoke { Sizes::SMOKE } else { Sizes::FULL },
        seconds: opts.seconds.expect("parse_args checked the duration"),
        traced: opts.traced,
        tmp: scratch.0.clone(),
        origin: Instant::now(),
    };
    let mut outcome = match workloads::run(workload, &ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mhe-benchmark: {workload}: {e}");
            println!("{}", failure_json());
            return ExitCode::FAILURE;
        }
    };
    let checks = &mut outcome.checks;
    if opts.seed == 1 && !opts.smoke {
        if let Some((_, pin)) = PINNED_SEED1.iter().find(|(w, _)| *w == workload) {
            let digest = &outcome.digest;
            checks.check(digest == pin, || {
                format!("seed-1 frontier digest {digest} != pinned {pin}")
            });
        }
    }

    let mut values: Values = Vec::new();
    let mut spans = std::mem::take(&mut outcome.spans);
    let names: Vec<&str>;
    if opts.traced {
        let unattributed = spans::unattributed_ratio(&spans, "op");
        outcome.checks.check(unattributed <= MAX_UNATTRIBUTED, || {
            format!(
                "top-level spans leave {:.2}% of the operations unattributed",
                unattributed * 100.0
            )
        });
        let mut rec = spans::Recorder::new(ctx.origin, 0);
        let probe = rec.enter("probes", 0);
        let probed = layers::probe(std::mem::take(&mut outcome.primary), &ctx.tmp, &mut rec);
        rec.exit(probe);
        spans = spans::merge(vec![spans, rec.into_spans()]);
        match probed {
            Ok(layer_values) => {
                for (name, value) in layer_values {
                    values.push((name, v(value, unit_of(name).expect("catalogued"), 1)));
                }
            }
            Err(e) => outcome.checks.check(false, || format!("layer probes: {e}")),
        }
        let traced = stats::millis(&outcome.traced);
        let untraced = stats::millis(&outcome.latencies.walls);
        let overhead = match (stats::median(&traced), stats::median(&untraced)) {
            (Some(t), Some(u)) => t / u - 1.0,
            _ => 0.0,
        };
        values.push(("unattributed_ratio", v(unattributed, "ratio", traced.len())));
        values.push(("trace_overhead_ratio", v(overhead, "ratio", traced.len() + untraced.len())));
        names = PER_LAYER.iter().map(|l| l.0).collect();
    } else {
        match peak_rss_mb().and_then(|peak| end_to_end(&outcome, peak)) {
            Ok(e2e) => values.extend(e2e),
            Err(e) => outcome.checks.check(false, || e),
        }
        values.append(&mut outcome.extras);
        names = END_TO_END.iter().map(|m| m.name).collect();
    }
    let checks = std::mem::take(&mut outcome.checks);
    drop(outcome);
    drop(scratch);
    values.push((
        "fail_ratio",
        v(
            checks.failed as f64 / checks.attempted.max(1) as f64,
            "ratio",
            checks.attempted as usize,
        ),
    ));

    let mut correct = checks.failed == 0 && checks.attempted > 0;
    for name in &names {
        let present = values.iter().any(|(n, v)| n == name && v.value.is_finite());
        if !present {
            eprintln!("mhe-benchmark: {workload}: metric {name} is missing or not finite");
            correct = false;
        }
    }
    for problem in &checks.problems {
        eprintln!("mhe-benchmark: {workload}: FAILED: {problem}");
    }
    print!("{}", render_text(workload, &values));
    if let Some(path) = &opts.out {
        if let Err(e) = append(path, &render_tsv(workload, &values)) {
            eprintln!("mhe-benchmark: {e}");
            correct = false;
        }
    }
    if let Some(path) = &opts.trace_out {
        let mut lines = Vec::new();
        let written = spans::write_json_lines(&mut lines, workload, &spans)
            .map_err(|e| e.to_string())
            .and_then(|()| append(path, &String::from_utf8_lossy(&lines)));
        if let Err(e) = written {
            eprintln!("mhe-benchmark: trace-out: {e}");
            correct = false;
        }
    }
    println!("{}", render_json(correct, checks.attempted.max(1), checks.failed, &names, &values));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own child process.
fn run_all(opts: &RunOpts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("mhe-benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let default_seconds = if opts.smoke { SMOKE_SECONDS } else { RUN_SECONDS };
    let seconds = opts.seconds.unwrap_or(default_seconds).to_string();
    let seed = opts.seed.to_string();
    let mut ok = true;
    for workload in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &seed, "--seconds", &seconds]);
        cmd.args(["--trace", if opts.traced { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &opts.out {
            cmd.arg("--out").arg(out);
        }
        if let Some(trace_out) = &opts.trace_out {
            cmd.arg("--trace-out").arg(trace_out);
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("mhe-benchmark: {workload}: spawn: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(paths: &[PathBuf]) -> ExitCode {
    let load = |path: &PathBuf| {
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display())).and_then(
            |text| compare::parse_tsv(&text).map_err(|e| format!("{}: {e}", path.display())),
        )
    };
    let parent = match load(&paths[0]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mhe-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    for path in &paths[1..] {
        match load(path) {
            Ok(change) => {
                let (table, worse) = compare::report(&parent, &change);
                println!("# {} vs {}\n{table}", paths[0].display(), path.display());
                regressed |= worse;
            }
            Err(e) => {
                eprintln!("mhe-benchmark: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&args) {
        Ok(Command::One(opts)) => {
            pin_environment();
            run_one(&opts)
        }
        Ok(Command::All(opts)) => run_all(&opts),
        Ok(Command::Compare(paths)) => run_compare(&paths),
        Err(e) => {
            eprintln!("mhe-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn single_workload_arguments_parse() {
        let Ok(Command::One(o)) =
            parse_args(&args("--workload fleet-2 --seed 7 --seconds 10 --trace 1"))
        else {
            panic!("the single-workload form must parse");
        };
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.traced),
            (Some("fleet-2"), 7, Some(10.0), true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload fleet-2 --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload fleet-2 --seed 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload fleet-2 --seconds 1 --trace 0")).is_err());
        assert!(
            matches!(parse_args(&args("run --seed 1 --traced --smoke")), Ok(Command::All(o)) if o.traced && o.smoke)
        );
        assert!(parse_args(&args("run --seed 1 --trace 1")).is_err());
        assert!(
            matches!(parse_args(&args("compare a b c")), Ok(Command::Compare(p)) if p.len() == 3)
        );
        assert!(parse_args(&args("compare a")).is_err());
    }

    #[test]
    fn pins_cover_only_deterministic_workloads() {
        for (workload, digest) in PINNED_SEED1 {
            assert!(WORKLOADS.contains(&workload) && workload != "sampled-replay");
            assert!(
                digest.len() == 64 && digest.chars().all(|c| c.is_ascii_hexdigit()),
                "{workload}"
            );
        }
    }
}
