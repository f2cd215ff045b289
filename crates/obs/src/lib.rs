//! **mhe-obs** — the workspace observability layer.
//!
//! Every pipeline stage of the evaluator (trace generation, `.mtr`
//! encode/decode, single-pass simulation, trace modeling, analytic
//! estimation, design-space walking, metric-cache traffic) carries
//! lightweight probes from this crate: monotonic span timers, relaxed
//! atomic counters, and byte/event gauges. The probes aggregate into a
//! process-global registry keyed by [`Phase`], snapshot at any moment via
//! [`Snapshot`], and render as a [`RunReport`] — human-readable text or a
//! single line of JSON — so every performance PR reports against the same
//! schema.
//!
//! # Cost model
//!
//! Observability is **off by default**. Every probe begins with one
//! relaxed load of a single `AtomicU8` and a branch; nothing else runs
//! when the level is [`ObsLevel::Off`], so instrumented hot paths keep
//! their uninstrumented timings (the `obs_overhead` bench bin in
//! `mhe-bench` enforces a <2% budget on the trace-replay workload).
//! Probes sit at batch boundaries — a simulation chunk, a codec frame, a
//! fan-out round — never inside per-address loops.
//!
//! # Selecting a sink
//!
//! The `MHE_OBS` environment variable selects the level on first probe
//! use: `json` → [`ObsLevel::Json`], `text`/`1`/`on`/`true` →
//! [`ObsLevel::Text`], anything else (including unset) →
//! [`ObsLevel::Off`]. [`set_level`] overrides it programmatically (the
//! `--obs`/`--obs-json` CLI flags do exactly that). Reports are emitted
//! to **stderr** by [`RunReport::emit`], keeping stdout clean for
//! experiment tables.
//!
//! # Example
//!
//! ```
//! use mhe_obs::{self as obs, ObsLevel, Phase, RunReport, Snapshot};
//!
//! obs::set_level(ObsLevel::Text);
//! let before = Snapshot::now();
//! {
//!     let _span = obs::span(Phase::Simulate);
//!     obs::add_events(Phase::Simulate, 1_000);
//! }
//! let report = RunReport::since("example", 1, &before);
//! assert_eq!(report.phases[0].events, 1_000);
//! obs::set_level(ObsLevel::Off);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// How much the probes record and how reports render.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ObsLevel {
    /// Probes compile to a branch on one relaxed atomic; nothing recorded.
    #[default]
    Off,
    /// Probes record; [`RunReport::emit`] prints human-readable text.
    Text,
    /// Probes record; [`RunReport::emit`] prints one JSON object per line.
    Json,
}

impl ObsLevel {
    /// Parses an `MHE_OBS`-style value: `json` selects [`ObsLevel::Json`];
    /// `text`, `1`, `on` or `true` select [`ObsLevel::Text`]; anything
    /// else is [`ObsLevel::Off`].
    pub fn parse(value: &str) -> ObsLevel {
        ObsLevel::parse_strict(value).unwrap_or(ObsLevel::Off)
    }

    /// Parses an `MHE_OBS`-style value, case-insensitively, with
    /// whitespace trimmed: the values [`ObsLevel::parse`] names, plus
    /// `off`, `0` or `false` for [`ObsLevel::Off`]. `None` for anything
    /// else, which [`ObsLevel::parse`] would silently read as off.
    pub fn parse_strict(value: &str) -> Option<ObsLevel> {
        match value.trim().to_ascii_lowercase().as_str() {
            "json" => Some(ObsLevel::Json),
            "text" | "1" | "on" | "true" => Some(ObsLevel::Text),
            "off" | "0" | "false" => Some(ObsLevel::Off),
            _ => None,
        }
    }

    /// Reads the level from the `MHE_OBS` environment variable
    /// ([`ObsLevel::Off`] when unset). This is the single place in the
    /// workspace where `MHE_OBS` is parsed.
    pub fn from_env() -> ObsLevel {
        match std::env::var("MHE_OBS") {
            Ok(v) => ObsLevel::parse(&v),
            Err(_) => ObsLevel::Off,
        }
    }

    /// Whether probes record at this level.
    pub fn is_enabled(self) -> bool {
        self != ObsLevel::Off
    }
}

impl fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObsLevel::Off => "off",
            ObsLevel::Text => "text",
            ObsLevel::Json => "json",
        })
    }
}

/// Sentinel for "not yet initialised from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

/// The process-global level. Initialised lazily from `MHE_OBS` on first
/// read; [`set_level`] stores directly.
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_from_u8(v: u8) -> ObsLevel {
    match v {
        1 => ObsLevel::Text,
        2 => ObsLevel::Json,
        _ => ObsLevel::Off,
    }
}

#[cold]
fn init_level_from_env() -> ObsLevel {
    let l = ObsLevel::from_env();
    // A racing initialiser computes the same value; last store wins.
    LEVEL.store(l as u8, Ordering::Relaxed);
    l
}

/// The current observability level (initialising from `MHE_OBS` on first
/// use).
pub fn level() -> ObsLevel {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => init_level_from_env(),
        v => level_from_u8(v),
    }
}

/// Overrides the observability level for the whole process.
pub fn set_level(level: ObsLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether probes currently record. This is the guard every probe runs
/// first: one relaxed atomic load and a branch.
#[inline]
pub fn enabled() -> bool {
    match LEVEL.load(Ordering::Relaxed) {
        0 => false,
        LEVEL_UNSET => init_level_from_env().is_enabled(),
        _ => true,
    }
}

/// A pipeline stage the probes attribute work to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Block-frequency profiling of a program (`mhe-workload`).
    Profile,
    /// Compiling/scheduling a program for a machine (`mhe-vliw`).
    Compile,
    /// Address-trace generation, plain or dilated (`mhe-trace`).
    TraceGen,
    /// Encoding traces to `.mtr` frames or `din` text (`mhe-trace`).
    Encode,
    /// Decoding traces from `.mtr` frames or `din` text (`mhe-trace`).
    Decode,
    /// Single-pass and direct cache simulation (`mhe-cache`).
    Simulate,
    /// AHH trace-parameter modeling (`mhe-model`).
    Model,
    /// Analytic miss estimation — Lemma 1 / Eq. 4.12 / Eq. 4.15
    /// (`mhe-core`).
    Estimate,
    /// Design-space walking and per-design fan-out (`mhe-spacewalk`).
    Walk,
    /// Evaluation-cache persistence (`mhe-spacewalk`).
    Db,
    /// Distributed-walk coordination and shard evaluation
    /// (`mhe-spacewalk` fleet).
    Fleet,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 11] = [
        Phase::Profile,
        Phase::Compile,
        Phase::TraceGen,
        Phase::Encode,
        Phase::Decode,
        Phase::Simulate,
        Phase::Model,
        Phase::Estimate,
        Phase::Walk,
        Phase::Db,
        Phase::Fleet,
    ];

    /// The phase's snake_case report name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Profile => "profile",
            Phase::Compile => "compile",
            Phase::TraceGen => "trace_gen",
            Phase::Encode => "encode",
            Phase::Decode => "decode",
            Phase::Simulate => "simulate",
            Phase::Model => "model",
            Phase::Estimate => "estimate",
            Phase::Walk => "walk",
            Phase::Db => "db",
            Phase::Fleet => "fleet",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named scalar counter, reported alongside the phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Counter {
    /// Evaluation-cache lookups answered from memory.
    DbHit,
    /// Evaluation-cache lookups that had to compute.
    DbMiss,
    /// Bytes written to or read from persistent metric databases.
    DbPersistBytes,
    /// Heuristic-walk waves processed.
    WalkWaves,
    /// Designs evaluated across all heuristic waves.
    WalkWaveDesigns,
    /// Largest Pareto frontier observed during a walk (high-water mark).
    WalkFrontierPeak,
    /// Worker panics caught and isolated by a parallel sweep.
    WorkerPanic,
    /// Task attempts retried after an isolated worker panic.
    TaskRetry,
    /// Faults fired by the deterministic fault-injection harness.
    FaultInjected,
    /// Crash-safe checkpoint saves of the evaluation cache.
    CheckpointSave,
    /// Shard leases granted by a fleet coordinator.
    ShardLease,
    /// Shards reclaimed from dead or stalled workers and reassigned.
    ShardSteal,
    /// Evaluated points merged by a fleet coordinator.
    FleetPoints,
    /// Warm daemon sessions evicted by the TTL/LRU bound.
    SessionEvict,
    /// Trace chunks (`.mtr` frames) a sampled build's second pass
    /// decoded to copy out its representative windows.
    PassBChunks,
    /// Trace chunks a sampled build's second pass skipped: no window
    /// needed them.
    PassBSkipped,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 16] = [
        Counter::DbHit,
        Counter::DbMiss,
        Counter::DbPersistBytes,
        Counter::WalkWaves,
        Counter::WalkWaveDesigns,
        Counter::WalkFrontierPeak,
        Counter::WorkerPanic,
        Counter::TaskRetry,
        Counter::FaultInjected,
        Counter::CheckpointSave,
        Counter::ShardLease,
        Counter::ShardSteal,
        Counter::FleetPoints,
        Counter::SessionEvict,
        Counter::PassBChunks,
        Counter::PassBSkipped,
    ];

    /// The counter's snake_case report name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DbHit => "db_hit",
            Counter::DbMiss => "db_miss",
            Counter::DbPersistBytes => "db_persist_bytes",
            Counter::WalkWaves => "walk_waves",
            Counter::WalkWaveDesigns => "walk_wave_designs",
            Counter::WalkFrontierPeak => "walk_frontier_peak",
            Counter::WorkerPanic => "worker_panic",
            Counter::TaskRetry => "task_retry",
            Counter::FaultInjected => "fault_injected",
            Counter::CheckpointSave => "checkpoint_save",
            Counter::ShardLease => "shard_lease",
            Counter::ShardSteal => "shard_steal",
            Counter::FleetPoints => "fleet_points",
            Counter::SessionEvict => "session_evict",
            Counter::PassBChunks => "pass_b_chunks",
            Counter::PassBSkipped => "pass_b_skipped",
        }
    }
}

const PHASES: usize = Phase::ALL.len();
const COUNTERS: usize = Counter::ALL.len();

/// One phase's atomic accumulators.
#[derive(Debug)]
struct PhaseCell {
    spans: AtomicU64,
    busy_ns: AtomicU64,
    wall_ns: AtomicU64,
    events: AtomicU64,
    bytes: AtomicU64,
}

impl PhaseCell {
    const fn new() -> Self {
        Self {
            spans: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            events: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const PHASE_CELL_ZERO: PhaseCell = PhaseCell::new();
#[allow(clippy::declare_interior_mutable_const)]
const COUNTER_ZERO: AtomicU64 = AtomicU64::new(0);

static CELLS: [PhaseCell; PHASES] = [PHASE_CELL_ZERO; PHASES];
static COUNTER_CELLS: [AtomicU64; COUNTERS] = [COUNTER_ZERO; COUNTERS];

fn cell(phase: Phase) -> &'static PhaseCell {
    &CELLS[phase as usize]
}

/// Records events (addresses, accesses, designs…) against a phase.
#[inline]
pub fn add_events(phase: Phase, n: u64) {
    if enabled() {
        cell(phase).events.fetch_add(n, Ordering::Relaxed);
    }
}

/// Records bytes moved (encoded, decoded, persisted) against a phase.
#[inline]
pub fn add_bytes(phase: Phase, n: u64) {
    if enabled() {
        cell(phase).bytes.fetch_add(n, Ordering::Relaxed);
    }
}

/// Records already-measured busy time against a phase (the span-free
/// probe for callers that keep their own clocks, e.g. per-worker busy
/// accounting in the parallel sweep).
#[inline]
pub fn add_busy(phase: Phase, d: Duration) {
    if enabled() {
        let c = cell(phase);
        c.busy_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        c.spans.fetch_add(1, Ordering::Relaxed);
    }
}

/// Bumps a named counter.
#[inline]
pub fn count(counter: Counter, n: u64) {
    if enabled() {
        COUNTER_CELLS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises a named counter to `v` if it is below (high-water mark).
#[inline]
pub fn record_max(counter: Counter, v: u64) {
    if enabled() {
        COUNTER_CELLS[counter as usize].fetch_max(v, Ordering::Relaxed);
    }
}

/// Zeroes every phase and counter accumulator. Intended for
/// single-purpose binaries that measure several configurations in one
/// process (e.g. the `obs_overhead` bench bin); racing probes may leak a
/// few events across the reset.
pub fn reset() {
    for c in &CELLS {
        c.spans.store(0, Ordering::Relaxed);
        c.busy_ns.store(0, Ordering::Relaxed);
        c.wall_ns.store(0, Ordering::Relaxed);
        c.events.store(0, Ordering::Relaxed);
        c.bytes.store(0, Ordering::Relaxed);
    }
    for c in &COUNTER_CELLS {
        c.store(0, Ordering::Relaxed);
    }
}

/// An RAII busy-time span: created by [`span`], it adds its lifetime to
/// the phase's busy time (and span count) on drop. When observability is
/// off the constructor is a branch and the drop a no-op.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            add_busy_raw(self.phase, start.elapsed());
        }
    }
}

fn add_busy_raw(phase: Phase, d: Duration) {
    let c = cell(phase);
    c.busy_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    c.spans.fetch_add(1, Ordering::Relaxed);
}

/// Starts a busy-time span for `phase`.
#[inline]
pub fn span(phase: Phase) -> Span {
    Span { phase, start: if enabled() { Some(Instant::now()) } else { None } }
}

/// An RAII wall-time span: like [`Span`] but charged to the phase's wall
/// clock, used around parallel fan-outs whose per-worker busy time is
/// recorded separately (wall < busy ⇒ overlap; efficiency = busy / (wall
/// × threads)).
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct WallSpan {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            cell(self.phase)
                .wall_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Starts a wall-time span for `phase`.
#[inline]
pub fn wall_span(phase: Phase) -> WallSpan {
    WallSpan { phase, start: if enabled() { Some(Instant::now()) } else { None } }
}

/// A point-in-time copy of every accumulator, used to scope a
/// [`RunReport`] to one region of execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    phases: [[u64; 5]; PHASES],
    counters: [u64; COUNTERS],
}

impl Snapshot {
    /// The zero snapshot (process start).
    pub fn zero() -> Self {
        Self { phases: [[0; 5]; PHASES], counters: [0; COUNTERS] }
    }

    /// Captures the current accumulator values.
    pub fn now() -> Self {
        let mut s = Self::zero();
        for (i, c) in CELLS.iter().enumerate() {
            s.phases[i] = [
                c.spans.load(Ordering::Relaxed),
                c.busy_ns.load(Ordering::Relaxed),
                c.wall_ns.load(Ordering::Relaxed),
                c.events.load(Ordering::Relaxed),
                c.bytes.load(Ordering::Relaxed),
            ];
        }
        for (i, c) in COUNTER_CELLS.iter().enumerate() {
            s.counters[i] = c.load(Ordering::Relaxed);
        }
        s
    }
}

/// One phase's aggregated numbers inside a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// Report name of the phase (see [`Phase::name`]).
    pub phase: &'static str,
    /// Completed spans (simulation passes, codec frames, fan-out rounds…).
    pub spans: u64,
    /// Summed busy time across all spans and workers, in nanoseconds.
    pub busy_ns: u64,
    /// Wall time of the phase's enclosing regions, in nanoseconds
    /// (0 when no wall span was recorded).
    pub wall_ns: u64,
    /// Events processed (addresses, accesses, designs…).
    pub events: u64,
    /// Bytes moved (encoded, decoded, persisted).
    pub bytes: u64,
}

impl PhaseStats {
    fn is_empty(&self) -> bool {
        self.spans == 0
            && self.busy_ns == 0
            && self.wall_ns == 0
            && self.events == 0
            && self.bytes == 0
    }

    /// The denominator throughput rates divide by: wall time when a wall
    /// span was recorded (parallel phases), busy time otherwise.
    fn rate_ns(&self) -> u64 {
        if self.wall_ns > 0 {
            self.wall_ns
        } else {
            self.busy_ns
        }
    }

    /// Events per second; 0 when no time was recorded.
    pub fn events_per_sec(&self) -> f64 {
        per_sec(self.events, self.rate_ns())
    }

    /// Bytes per second; 0 when no time was recorded.
    pub fn bytes_per_sec(&self) -> f64 {
        per_sec(self.bytes, self.rate_ns())
    }

    /// Spans per second (e.g. simulation passes per second); 0 when no
    /// time was recorded.
    pub fn spans_per_sec(&self) -> f64 {
        per_sec(self.spans, self.rate_ns())
    }

    /// Parallel efficiency of the phase: busy time divided by wall time ×
    /// `threads`. `None` when no wall span was recorded. 1.0 means every
    /// worker was busy the whole phase; lower means idle workers.
    pub fn parallel_efficiency(&self, threads: usize) -> Option<f64> {
        if self.wall_ns == 0 || threads == 0 {
            None
        } else {
            Some(self.busy_ns as f64 / (self.wall_ns as f64 * threads as f64))
        }
    }
}

fn per_sec(n: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        n as f64 / (ns as f64 / 1e9)
    }
}

/// Schema version of the line-JSON report format. Bump when a field is
/// added, renamed, or removed; the golden test in `tests/` pins the
/// rendering for this version.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// The aggregated picture of one run (or run region): every non-empty
/// phase plus every non-zero counter, labelled.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// What was run (binary or operation name).
    pub label: String,
    /// Worker threads the run was configured with (0 = unknown).
    pub threads: usize,
    /// Non-empty phases, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStats>,
    /// Non-zero counters, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
}

impl RunReport {
    /// Builds a report of everything recorded since `before`.
    pub fn since(label: impl Into<String>, threads: usize, before: &Snapshot) -> Self {
        let now = Snapshot::now();
        let mut phases = Vec::new();
        for (i, p) in Phase::ALL.iter().enumerate() {
            let d: Vec<u64> =
                (0..5).map(|j| now.phases[i][j].saturating_sub(before.phases[i][j])).collect();
            let stats = PhaseStats {
                phase: p.name(),
                spans: d[0],
                busy_ns: d[1],
                wall_ns: d[2],
                events: d[3],
                bytes: d[4],
            };
            if !stats.is_empty() {
                phases.push(stats);
            }
        }
        let mut counters = Vec::new();
        for (i, c) in Counter::ALL.iter().enumerate() {
            let v = now.counters[i].saturating_sub(before.counters[i]);
            if v > 0 {
                counters.push((c.name(), v));
            }
        }
        Self { label: label.into(), threads, phases, counters }
    }

    /// Builds a report of everything recorded since process start.
    pub fn capture(label: impl Into<String>, threads: usize) -> Self {
        Self::since(label, threads, &Snapshot::zero())
    }

    /// Renders the report as one line of JSON (the `MHE_OBS=json` sink
    /// format). The schema is pinned by [`REPORT_SCHEMA_VERSION`] and a
    /// golden test:
    ///
    /// ```json
    /// {"v":1,"report":"<label>","threads":N,
    ///  "phases":[{"phase":"simulate","spans":..,"busy_ns":..,"wall_ns":..,
    ///             "events":..,"bytes":..,"events_per_s":..,"bytes_per_s":..,
    ///             "efficiency":..}, ...],
    ///  "counters":{"db_hit":..,...}}
    /// ```
    ///
    /// `efficiency` is `null` for phases without a wall span.
    pub fn to_json_line(&self) -> String {
        use fmt::Write;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"v\":{REPORT_SCHEMA_VERSION},\"report\":{},\"threads\":{}",
            json_string(&self.label),
            self.threads
        );
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"spans\":{},\"busy_ns\":{},\"wall_ns\":{},\
                 \"events\":{},\"bytes\":{},\"events_per_s\":{:.1},\"bytes_per_s\":{:.1},\
                 \"efficiency\":{}}}",
                p.phase,
                p.spans,
                p.busy_ns,
                p.wall_ns,
                p.events,
                p.bytes,
                p.events_per_sec(),
                p.bytes_per_sec(),
                match p.parallel_efficiency(self.threads) {
                    Some(e) => format!("{e:.3}"),
                    None => "null".to_string(),
                },
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("}}");
        out
    }

    /// Emits the report to stderr according to the current [`level`]:
    /// nothing when off, [`fmt::Display`] text per phase when text, one
    /// [`RunReport::to_json_line`] line when json.
    pub fn emit(&self) {
        match level() {
            ObsLevel::Off => {}
            ObsLevel::Text => eprintln!("{self}"),
            ObsLevel::Json => eprintln!("{}", self.to_json_line()),
        }
    }
}

/// Escapes a string as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[obs] {} (threads = {})", self.label, self.threads)?;
        for p in &self.phases {
            write!(
                f,
                "[obs]   {:<9} {:>7} spans  busy {:>9.3}s",
                p.phase,
                p.spans,
                p.busy_ns as f64 / 1e9,
            )?;
            if p.wall_ns > 0 {
                write!(f, "  wall {:>9.3}s", p.wall_ns as f64 / 1e9)?;
                if let Some(e) = p.parallel_efficiency(self.threads) {
                    write!(f, "  eff {:>5.1}%", e * 100.0)?;
                }
            }
            if p.events > 0 {
                write!(f, "  {} events ({:.2} M/s)", p.events, p.events_per_sec() / 1e6)?;
            }
            if p.bytes > 0 {
                write!(f, "  {} bytes ({:.1} MB/s)", p.bytes, p.bytes_per_sec() / 1e6)?;
            }
            writeln!(f)?;
        }
        for (name, v) in &self.counters {
            writeln!(f, "[obs]   {name:<22} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests mutating the global level/registry take this lock so the
    /// default multi-threaded test harness cannot interleave them.
    static GLOBAL: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn level_parsing_covers_the_documented_values() {
        assert_eq!(ObsLevel::parse("json"), ObsLevel::Json);
        assert_eq!(ObsLevel::parse("JSON "), ObsLevel::Json);
        for v in ["text", "1", "on", "true", "TEXT"] {
            assert_eq!(ObsLevel::parse(v), ObsLevel::Text, "{v}");
        }
        for v in ["", "0", "off", "false", "none", "garbage"] {
            assert_eq!(ObsLevel::parse(v), ObsLevel::Off, "{v}");
        }
        assert_eq!(ObsLevel::Json.to_string(), "json");
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = locked();
        set_level(ObsLevel::Off);
        let before = Snapshot::now();
        {
            let _s = span(Phase::Simulate);
            let _w = wall_span(Phase::Simulate);
            add_events(Phase::Simulate, 10);
            add_bytes(Phase::Encode, 10);
            add_busy(Phase::Model, Duration::from_millis(1));
            count(Counter::DbHit, 5);
            record_max(Counter::WalkFrontierPeak, 9);
        }
        let r = RunReport::since("off", 1, &before);
        assert!(r.phases.is_empty(), "{r:?}");
        assert!(r.counters.is_empty(), "{r:?}");
    }

    #[test]
    fn spans_and_counters_accumulate_and_delta() {
        let _g = locked();
        set_level(ObsLevel::Text);
        let before = Snapshot::now();
        {
            let _s = span(Phase::Decode);
            add_events(Phase::Decode, 100);
            add_bytes(Phase::Decode, 800);
        }
        add_busy(Phase::Simulate, Duration::from_micros(50));
        count(Counter::DbMiss, 3);
        record_max(Counter::WalkFrontierPeak, 7);
        record_max(Counter::WalkFrontierPeak, 4); // lower: must not regress
        let r = RunReport::since("test", 2, &before);
        set_level(ObsLevel::Off);

        let decode = r.phases.iter().find(|p| p.phase == "decode").expect("decode phase");
        assert_eq!(decode.spans, 1);
        assert_eq!(decode.events, 100);
        assert_eq!(decode.bytes, 800);
        assert!(decode.busy_ns > 0);
        let sim = r.phases.iter().find(|p| p.phase == "simulate").expect("simulate phase");
        assert!(sim.busy_ns >= 50_000);
        assert!(r.counters.contains(&("db_miss", 3)));
        assert!(r.counters.iter().any(|&(n, v)| n == "walk_frontier_peak" && v >= 7));
    }

    #[test]
    fn wall_spans_feed_parallel_efficiency() {
        let stats = PhaseStats {
            phase: "simulate",
            spans: 4,
            busy_ns: 8_000,
            wall_ns: 2_000,
            events: 0,
            bytes: 0,
        };
        // 8000 busy over 2000 wall on 4 threads: perfectly parallel.
        assert!((stats.parallel_efficiency(4).unwrap() - 1.0).abs() < 1e-12);
        assert!((stats.parallel_efficiency(8).unwrap() - 0.5).abs() < 1e-12);
        let serial = PhaseStats { wall_ns: 0, ..stats };
        assert_eq!(serial.parallel_efficiency(4), None);
    }

    #[test]
    fn rates_divide_by_wall_when_present_else_busy() {
        let p = PhaseStats {
            phase: "decode",
            spans: 2,
            busy_ns: 1_000_000_000,
            wall_ns: 0,
            events: 5_000,
            bytes: 2_000,
        };
        assert!((p.events_per_sec() - 5_000.0).abs() < 1e-6);
        assert!((p.bytes_per_sec() - 2_000.0).abs() < 1e-6);
        assert!((p.spans_per_sec() - 2.0).abs() < 1e-9);
        let par = PhaseStats { wall_ns: 500_000_000, ..p };
        assert!((par.events_per_sec() - 10_000.0).abs() < 1e-6);
        let zero = PhaseStats { busy_ns: 0, wall_ns: 0, ..p };
        assert_eq!(zero.events_per_sec(), 0.0);
    }

    #[test]
    fn text_rendering_names_phases_and_counters() {
        let r = RunReport {
            label: "demo".into(),
            threads: 4,
            phases: vec![PhaseStats {
                phase: "simulate",
                spans: 3,
                busy_ns: 4_000_000,
                wall_ns: 1_000_000,
                events: 123,
                bytes: 0,
            }],
            counters: vec![("db_hit", 17)],
        };
        let text = r.to_string();
        assert!(text.contains("demo"), "{text}");
        assert!(text.contains("simulate"), "{text}");
        assert!(text.contains("eff 100.0%"), "{text}");
        assert!(text.contains("db_hit"), "{text}");
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn emit_respects_off_level() {
        let _g = locked();
        set_level(ObsLevel::Off);
        // Nothing to assert on stderr here; this just exercises the
        // no-op path for coverage and must not panic.
        RunReport::capture("noop", 1).emit();
    }
}
