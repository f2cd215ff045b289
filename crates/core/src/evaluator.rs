//! The memory-hierarchy evaluator: measure once on the reference
//! processor, estimate everywhere else.
//!
//! [`ReferenceEvaluation`] packages the paper's whole efficiency story for
//! one application:
//!
//! 1. the application is compiled for the *reference* processor and its
//!    traces generated once;
//! 2. each stream's AHH trace parameters are measured in a single
//!    simulation-like pass (`TraceModeler`);
//! 3. every cache configuration in the design space — expanded with the
//!    neighbouring power-of-two line sizes that dilation interpolation
//!    needs — is simulated with the single-pass simulator, one pass per
//!    distinct line size;
//! 4. miss counts for *any* processor in the design space are then produced
//!    analytically from its text dilation, with no further simulation
//!    ([`ReferenceEvaluation::estimate_icache_misses`],
//!    [`ReferenceEvaluation::estimate_ucache_misses`],
//!    [`ReferenceEvaluation::dcache_misses`]).
//!
//! The module also provides the ground-truth helpers ([`actual_misses`],
//! [`dilated_misses`]) used to validate the model (Tables 2/4, Figures
//! 6/7).
//!
//! One measurement serves every trace source. The generated reference
//! trace ([`ReferenceEvaluation::build`]) and a captured `.mtr` or `.din`
//! file ([`ReferenceEvaluation::replay_file`]; written by
//! [`ReferenceEvaluation::capture_mtr`] and
//! [`ReferenceEvaluation::capture_din`]) both stream chunk by chunk
//! through the same fan-out of *stateful* modelers and single-pass
//! simulators on a scoped-thread worker pool ([`crate::parallel`]), so no
//! route ever holds the whole trace in memory. Every task sees the whole
//! stream in order, so miss counts are bit-identical for any chunk size,
//! worker count, or source; [`EvalConfig::threads`] and the `MHE_THREADS`
//! environment variable control the pool size, and
//! [`ReferenceEvaluation::metrics`] reports where the time went
//! ([`crate::metrics::ReplayMetrics`] adds decode throughput and the
//! on-disk compression ratio for files).

use crate::error::MheError;
use crate::icache::estimate_icache_misses;
use crate::metrics::{EvalMetrics, PassMetrics, ReplayMetrics, SamplingMetrics};
use crate::parallel::ParallelSweep;
use crate::system::profile_cycles;
use crate::ucache::estimate_ucache_misses;
use mhe_cache::{Cache, CacheConfig, Policy, SinglePassSim};
use mhe_model::ahh::UniqueLineModel;
use mhe_model::params::{TraceParams, UnifiedParams, I_GRANULE, U_GRANULE};
use mhe_model::TraceModeler;
use mhe_sampling::{
    RepWindow, SamplePlan, SamplePlanner, SampledSim, SamplingConfig, WindowExtractor,
};
use mhe_trace::codec::write_mtr;
use mhe_trace::io::{read_din_iter_named, write_din};
use mhe_trace::stats::din_text_bytes;
use mhe_trace::{
    Access, CodecStats, DilatedTraceGenerator, StreamKind, TraceGenerator, TraceReader,
};
use mhe_vliw::compile::{text_dilation, Compiled};
use mhe_vliw::Mdes;
use mhe_workload::exec::BlockFrequencies;
use mhe_workload::ir::Program;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufReader, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Knobs of the reference evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Dynamic window: number of basic-block events per trace.
    pub events: usize,
    /// Seed for execution (branch decisions, random data patterns).
    pub seed: u64,
    /// Granule size for instruction-trace parameters.
    pub i_granule: usize,
    /// Granule size for unified-trace parameters.
    pub u_granule: usize,
    /// Largest dilation the evaluation must support (determines how many
    /// smaller power-of-two line sizes are pre-simulated).
    pub max_dilation: f64,
    /// Which `u(L)` formula the estimators use.
    pub model: UniqueLineModel,
    /// Worker threads for the measurement fan-out; `0` means automatic
    /// (`MHE_THREADS`, else available parallelism). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// Accesses per chunk when streaming a trace through the measurement
    /// tasks: the generated trace of [`ReferenceEvaluation::build`] and
    /// `.din` replay (`.mtr` replay uses the file's own frame size).
    /// Results are bit-identical for every value.
    pub chunk_accesses: usize,
    /// Default replacement policy. [`ReferenceEvaluation::for_benchmark`]
    /// applies it to every supplied cache configuration that still
    /// carries the unmarked default (`Policy::Lru`); configurations with
    /// an explicit non-LRU policy are left alone. The lower-level
    /// constructors ([`ReferenceEvaluation::build`] and friends) honour
    /// each configuration's own `policy` field and ignore this knob.
    pub policy: Policy,
    /// When set, the whole measurement runs through interval sampling
    /// (split → signatures → k-means → representatives) instead of full
    /// simulation: miss counts become weighted estimates, AHH trace
    /// parameters stay exact (the modelers still see every access), and
    /// [`EvalMetrics::sampling`] records coverage and the error
    /// heuristic. `None` (the default) is exact full simulation.
    pub sampling: Option<SamplingConfig>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            events: 400_000,
            seed: 0xC0FF_EE01,
            i_granule: I_GRANULE,
            u_granule: U_GRANULE,
            max_dilation: 4.0,
            model: UniqueLineModel::RunBased,
            threads: 0,
            chunk_accesses: 1 << 16,
            policy: Policy::Lru,
            sampling: None,
        }
    }
}

impl EvalConfig {
    /// Starts a validating builder — the recommended way to construct a
    /// configuration. Direct struct-literal construction stays possible
    /// for backwards compatibility but performs no validation; prefer
    ///
    /// ```
    /// use mhe_core::evaluator::EvalConfig;
    /// let cfg = EvalConfig::builder().events(50_000).threads(2).build().unwrap();
    /// assert_eq!(cfg.events, 50_000);
    /// ```
    pub fn builder() -> EvalConfigBuilder {
        EvalConfigBuilder { config: EvalConfig::default(), obs: None }
    }

    /// The effective worker count (resolves `threads == 0`).
    pub fn worker_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            crate::parallel::worker_threads()
        }
    }

    /// Validates the configuration's invariants (what
    /// [`EvalConfigBuilder::build`] enforces).
    ///
    /// # Errors
    ///
    /// [`MheError::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), MheError> {
        let bad = |field: &'static str, requirement: &'static str| {
            Err(MheError::InvalidConfig { field, requirement })
        };
        if self.events == 0 {
            return bad("events", "must be positive");
        }
        if self.i_granule == 0 {
            return bad("i_granule", "must be positive");
        }
        if self.u_granule == 0 {
            return bad("u_granule", "must be positive");
        }
        if !self.max_dilation.is_finite() || self.max_dilation < 1.0 {
            return bad("max_dilation", "must be finite and at least 1");
        }
        if self.chunk_accesses == 0 {
            return bad("chunk_accesses", "must be positive");
        }
        if let Some(sampling) = &self.sampling {
            if let Err((field, requirement)) = sampling.validate() {
                return bad(field, requirement);
            }
        }
        Ok(())
    }
}

/// Validating builder for [`EvalConfig`], started by
/// [`EvalConfig::builder`].
///
/// Every setter has the field's name; [`EvalConfigBuilder::build`]
/// validates the combination and returns a typed
/// [`MheError::InvalidConfig`] instead of panicking downstream. The
/// builder is also where observability is selected for the process:
/// [`EvalConfigBuilder::obs`] overrides the `MHE_OBS` environment
/// variable.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfigBuilder {
    config: EvalConfig,
    obs: Option<mhe_obs::ObsLevel>,
}

impl EvalConfigBuilder {
    /// Dynamic window: number of basic-block events per trace.
    pub fn events(mut self, events: usize) -> Self {
        self.config.events = events;
        self
    }

    /// Seed for execution (branch decisions, random data patterns).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Granule size for instruction-trace parameters.
    pub fn i_granule(mut self, granule: usize) -> Self {
        self.config.i_granule = granule;
        self
    }

    /// Granule size for unified-trace parameters.
    pub fn u_granule(mut self, granule: usize) -> Self {
        self.config.u_granule = granule;
        self
    }

    /// Largest dilation the evaluation must support.
    pub fn max_dilation(mut self, d: f64) -> Self {
        self.config.max_dilation = d;
        self
    }

    /// Which `u(L)` formula the estimators use.
    pub fn model(mut self, model: UniqueLineModel) -> Self {
        self.config.model = model;
        self
    }

    /// Worker threads for every fan-out; `0` means automatic
    /// (`MHE_THREADS`, else available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Accesses per chunk when streaming a trace through the measurement.
    pub fn chunk_accesses(mut self, chunk: usize) -> Self {
        self.config.chunk_accesses = chunk;
        self
    }

    /// Default replacement policy, applied by
    /// [`ReferenceEvaluation::for_benchmark`] to configurations that
    /// don't state one explicitly.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Routes the measurement through interval sampling: only one
    /// representative interval per cluster is simulated, with miss
    /// counts scaled back by cluster weights.
    ///
    /// ```
    /// use mhe_core::evaluator::EvalConfig;
    /// use mhe_core::SamplingConfig;
    /// let cfg = EvalConfig::builder()
    ///     .sampling(SamplingConfig { interval_accesses: 4096, clusters: 8, ..Default::default() })
    ///     .build()
    ///     .unwrap();
    /// assert!(cfg.sampling.is_some());
    /// ```
    pub fn sampling(mut self, sampling: SamplingConfig) -> Self {
        self.config.sampling = Some(sampling);
        self
    }

    /// Selects the process-wide observability level when the
    /// configuration is built, overriding `MHE_OBS`. Reporting never
    /// affects results: miss counts are bit-identical at every level.
    pub fn obs(mut self, level: mhe_obs::ObsLevel) -> Self {
        self.obs = Some(level);
        self
    }

    /// Validates and produces the configuration (applying the
    /// [`EvalConfigBuilder::obs`] override, if any).
    ///
    /// # Errors
    ///
    /// [`MheError::InvalidConfig`] naming the first offending field.
    pub fn build(self) -> Result<EvalConfig, MheError> {
        self.config.validate()?;
        if let Some(level) = self.obs {
            mhe_obs::set_level(level);
        }
        Ok(self.config)
    }
}

/// Measured state of one application on the reference processor, ready to
/// answer miss queries for any processor in the design space.
///
/// The program, layout profile, and reference compilation are held behind
/// [`Arc`]s: a built evaluation is `Send + Sync` (asserted at compile
/// time below) and designed to be shared — wrap it in an `Arc` (see
/// [`ReferenceEvaluation::into_shared`]) and any number of walker or
/// service threads can answer metric queries from the same warm state.
#[derive(Debug)]
pub struct ReferenceEvaluation {
    config: EvalConfig,
    program: Arc<Program>,
    freq: Arc<BlockFrequencies>,
    reference: Arc<Compiled>,
    iparams: TraceParams,
    uparams: UnifiedParams,
    imeasured: HashMap<CacheConfig, u64>,
    dmeasured: HashMap<CacheConfig, u64>,
    umeasured: HashMap<CacheConfig, u64>,
    metrics: EvalMetrics,
    /// Block execution counts of the evaluation's own `(seed, events)`
    /// window, profiled on first use: every target's compute cycles are
    /// this profile dotted with its schedule lengths.
    window: OnceLock<BlockFrequencies>,
    /// One cell per distinct target machine, so each is compiled once per
    /// evaluation. The map lock is held only to find a cell, never while
    /// compiling.
    targets: Mutex<HashMap<Mdes, Arc<OnceLock<TargetFacts>>>>,
}

/// What the walk needs to know about one target processor: computed once
/// per evaluation by [`ReferenceEvaluation::target_facts`], which keeps
/// these two numbers and drops the compilation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetFacts {
    /// Text dilation relative to the reference compilation (the paper's
    /// `d`).
    pub dilation: f64,
    /// Compute cycles over the evaluation's window: Σ over blocks of
    /// execution count × schedule length.
    pub cycles: u64,
}

// The service layer multiplexes concurrent clients onto one shared
// evaluation; losing either bound must fail the build, not the daemon.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReferenceEvaluation>()
};

/// One stateful unit of the measurement fan-out, fed one trace chunk at a
/// time across many [`ParallelSweep::try_for_each_mut_in`] rounds: the
/// joint AHH modeler pass, one single-pass simulator per family, or the
/// sampling planner. The modeler and the planner read the raw chunk, the
/// simulators its [`ChunkStreams`] split.
enum StreamTask {
    Model { modeler: Box<TraceModeler>, wall: Duration },
    Sim { kind: StreamKind, sim: SinglePassSim, configs: Vec<CacheConfig>, wall: Duration },
    Plan { planner: Box<SamplePlanner>, wall: Duration },
}

/// The addresses of one pass A chunk's instruction and data streams,
/// split once per chunk so that no simulator filters every access. Only
/// the exact route's simulators read it; the modelers and the planner
/// read the chunk itself. One value serves a whole measurement:
/// [`ChunkStreams::split`] refills a single buffer of one chunk's length,
/// instruction addresses first.
struct ChunkStreams {
    addrs: Vec<u64>,
    /// Instruction addresses at the front of `addrs`.
    insts: usize,
}

impl ChunkStreams {
    fn with_capacity(accesses: usize) -> Self {
        Self { addrs: Vec::with_capacity(accesses), insts: 0 }
    }

    fn split(&mut self, chunk: &[Access]) {
        // Instruction addresses fill the buffer from the front and data
        // addresses from the back. Every access is written at both ends,
        // and only the end that matches its kind advances, so no branch
        // depends on the kind: a write the other end does not keep lands
        // in the unfilled middle. The data part, filled backwards, is then
        // turned around into trace order.
        self.addrs.resize(chunk.len(), 0);
        let (mut front, mut back) = (0, chunk.len());
        for a in chunk {
            let inst = StreamKind::Instruction.admits(a.kind);
            self.addrs[front] = a.addr;
            self.addrs[back - 1] = a.addr;
            front += usize::from(inst);
            back -= usize::from(!inst);
        }
        self.addrs[front..].reverse();
        self.insts = front;
    }

    fn inst(&self) -> &[u64] {
        &self.addrs[..self.insts]
    }

    fn data(&self) -> &[u64] {
        &self.addrs[self.insts..]
    }
}

impl StreamTask {
    /// Feeds `chunk`; `streams` holds its split on the exact route, the
    /// one whose task list has simulators (see [`measure`]).
    fn feed(&mut self, chunk: &[Access], streams: Option<&ChunkStreams>) {
        let start = Instant::now();
        match self {
            StreamTask::Model { modeler, wall } => {
                modeler.feed(chunk);
                *wall += start.elapsed();
            }
            StreamTask::Sim { kind, sim, wall, .. } => {
                let streams = streams.expect("pass A splits every chunk it simulates");
                match kind {
                    StreamKind::Instruction => sim.run(streams.inst().iter().copied()),
                    StreamKind::Data => sim.run(streams.data().iter().copied()),
                    StreamKind::Unified => sim.run(chunk.iter().map(|a| a.addr)),
                }
                *wall += start.elapsed();
            }
            StreamTask::Plan { planner, wall } => {
                planner.feed(chunk);
                *wall += start.elapsed();
            }
        }
    }
}

/// Every (stream, line size, policy) family of configurations — the unit
/// one simulator covers — in deterministic `BTreeMap` order: the
/// instruction space (expanded with the line sizes dilation interpolation
/// needs), then the data space, then the unified space.
fn families(
    config: &EvalConfig,
    icaches: &[CacheConfig],
    dcaches: &[CacheConfig],
    ucaches: &[CacheConfig],
) -> Vec<(StreamKind, Vec<CacheConfig>)> {
    let expanded = expand_line_sizes(icaches, config.max_dilation);
    let mut out = Vec::new();
    for (kind, configs) in [
        (StreamKind::Instruction, &expanded[..]),
        (StreamKind::Data, dcaches),
        (StreamKind::Unified, ucaches),
    ] {
        let mut by_family: BTreeMap<(u32, Policy), Vec<CacheConfig>> = BTreeMap::new();
        for &c in configs {
            by_family.entry((c.line_words, c.policy)).or_default().push(c);
        }
        out.extend(by_family.into_values().map(|group| (kind, group)));
    }
    out
}

/// The measured miss grids and one [`PassMetrics`] per family, in family
/// order.
#[derive(Default)]
struct Grids {
    imeasured: HashMap<CacheConfig, u64>,
    dmeasured: HashMap<CacheConfig, u64>,
    umeasured: HashMap<CacheConfig, u64>,
    passes: Vec<PassMetrics>,
}

impl Grids {
    fn record(
        &mut self,
        kind: StreamKind,
        rows: impl IntoIterator<Item = (CacheConfig, u64)>,
        pass: PassMetrics,
    ) {
        let map = match kind {
            StreamKind::Instruction => &mut self.imeasured,
            StreamKind::Data => &mut self.dmeasured,
            StreamKind::Unified => &mut self.umeasured,
        };
        map.extend(rows);
        self.passes.push(pass);
    }
}

/// Everything the measurement fan-out produces, before assembly into a
/// [`ReferenceEvaluation`].
struct StreamOutcome {
    threads: usize,
    iparams: TraceParams,
    uparams: UnifiedParams,
    grids: Grids,
    trace_len: u64,
    chunks: u64,
    /// Chunks the sampled route's pass B decoded and skipped (0 on the
    /// exact route).
    pass_b_chunks: u64,
    pass_b_skipped: u64,
    decode_wall: Duration,
    sim_wall: Duration,
    model_wall: Duration,
    sampling: Option<SamplingMetrics>,
    replay: Option<ReplayMetrics>,
}

/// Estimates one family from the sampled route's plan and windows.
fn run_sampled_task(
    kind: StreamKind,
    configs: &[CacheConfig],
    plan: &SamplePlan,
    windows: &[RepWindow],
) -> (Vec<(CacheConfig, u64)>, PassMetrics) {
    let start = Instant::now();
    let line = configs[0].line_words;
    let mut set_counts: Vec<u32> = configs.iter().map(|c| c.sets).collect();
    set_counts.sort_unstable();
    set_counts.dedup();
    let max_assoc = configs.iter().map(|c| c.assoc).max().unwrap_or(1);
    let sim =
        SampledSim::measure(configs[0].policy, line, &set_counts, max_assoc, kind, plan, windows);
    let rows = configs.iter().map(|&c| (c, sim.misses(c.sets, c.assoc))).collect();
    let pass = PassMetrics {
        stream: kind,
        line_words: line,
        policy: configs[0].policy,
        configs: configs.len(),
        addresses: sim.sim_accesses(),
        wall: start.elapsed(),
    };
    (rows, pass)
}

/// A trace the measurement reads in chunks: pass A streams all of it;
/// the sampled route's pass B then copies out the representative
/// windows.
trait TwoPass {
    /// Pass A: the next chunk of the whole trace, in order; `Ok(None)`
    /// at its end.
    fn next_chunk(&mut self) -> io::Result<Option<Vec<Access>>>;

    /// Pass B: feeds `windows` the chunks that hold window accesses;
    /// returns how many chunks it decoded.
    fn fill(&mut self, windows: &mut WindowExtractor) -> io::Result<u64>;
}

/// A source that cannot seek: pass B streams a fresh copy of the trace
/// from `reopen` and stops once the last window is complete.
struct Restream<A, R> {
    pass_a: A,
    reopen: R,
}

impl<A, R, B> TwoPass for Restream<A, R>
where
    A: FnMut() -> io::Result<Option<Vec<Access>>>,
    R: FnMut() -> io::Result<B>,
    B: FnMut() -> io::Result<Option<Vec<Access>>>,
{
    fn next_chunk(&mut self) -> io::Result<Option<Vec<Access>>> {
        (self.pass_a)()
    }

    fn fill(&mut self, windows: &mut WindowExtractor) -> io::Result<u64> {
        let mut next = (self.reopen)()?;
        let mut decoded = 0;
        while windows.accesses() < windows.end() {
            let Some(chunk) = next()? else { break };
            decoded += 1;
            windows.feed(&chunk);
        }
        Ok(decoded)
    }
}

/// An `.mtr` file: pass A indexes its frames, pass B seeks to and
/// decodes only the frames that overlap a window.
struct MtrTwoPass<'p> {
    path: &'p Path,
    reader: TraceReader<BufReader<File>>,
}

impl TwoPass for MtrTwoPass<'_> {
    fn next_chunk(&mut self) -> io::Result<Option<Vec<Access>>> {
        self.reader.next_frame()
    }

    fn fill(&mut self, windows: &mut WindowExtractor) -> io::Result<u64> {
        let mut seeker = TraceReader::new(BufReader::new(File::open(self.path)?))?;
        let mut decoded = 0;
        for entry in self.reader.index() {
            if windows.wants(entry.first, entry.end()) {
                windows.feed_at(entry.first, &seeker.read_frame_at(entry)?);
                decoded += 1;
            }
        }
        Ok(decoded)
    }
}

/// The next `size` accesses parsed from `din` text (fewer at its end);
/// `Ok(None)` once it is exhausted.
fn din_chunk(
    lines: &mut impl Iterator<Item = io::Result<Access>>,
    size: usize,
) -> io::Result<Option<Vec<Access>>> {
    let chunk = lines.take(size).collect::<io::Result<Vec<Access>>>()?;
    Ok((!chunk.is_empty()).then_some(chunk))
}

/// Measures the reference trace `source` yields — the one measurement
/// every route shares.
///
/// Pass A streams the whole trace once, chunk by chunk, through stateful
/// tasks on the worker pool: one [`TraceModeler`] (both exact AHH
/// modelers in one pass over the raw chunk), plus either one
/// [`SinglePassSim`] per family, reading the chunk's [`ChunkStreams`]
/// split (exact route), or the sampling planner (sampled route, when
/// [`EvalConfig::sampling`] is set). Every task sees the whole stream in
/// order and is deterministic, so the outcome is bit-identical for any
/// chunk size and worker count.
///
/// The sampled route then runs pass B ([`TwoPass::fill`]): it copies out
/// each representative's warm-up and body, bounded by `clusters ×
/// (interval + warmup)` accesses of memory, decoding only the chunks that
/// hold them. One [`SampledSim`] per family then fans out over those
/// windows; results merge in family order, so sampled estimates are
/// bit-identical for any thread count, chunking, or repetition too.
fn measure(
    config: &EvalConfig,
    icaches: &[CacheConfig],
    dcaches: &[CacheConfig],
    ucaches: &[CacheConfig],
    source: &mut dyn TwoPass,
) -> io::Result<StreamOutcome> {
    let families = families(config, icaches, dcaches, ucaches);
    // Only the exact route splits its chunks: its pass A simulators read
    // the split. The modelers and the sampled route's planner read the
    // chunk itself. The buffer is allocated here, before the simulators'
    // tables, and freed after the last chunk: allocated at the first chunk
    // and freed at the end, it stayed resident as a hole in the heap
    // (`fleet-2`'s peak RSS +7%, against +3% this way).
    let split = config.sampling.is_none();
    let mut streams = ChunkStreams::with_capacity(if split { config.chunk_accesses } else { 0 });
    let mut tasks = vec![StreamTask::Model {
        modeler: Box::new(TraceModeler::new(config.i_granule, config.u_granule)),
        wall: Duration::ZERO,
    }];
    match config.sampling {
        Some(sampling) => tasks.push(StreamTask::Plan {
            planner: Box::new(SamplePlanner::new(sampling)),
            wall: Duration::ZERO,
        }),
        None => tasks.extend(families.iter().map(|(kind, group)| StreamTask::Sim {
            kind: *kind,
            sim: SinglePassSim::for_configs(group),
            configs: group.clone(),
            wall: Duration::ZERO,
        })),
    }

    // --- Pass A. No retries here: stream tasks are stateful, so re-running
    // a task that panicked mid-chunk could double-feed accesses. A panic
    // in this sweep surfaces as a structured error instead. ---
    let sweep = ParallelSweep::with_threads(config.worker_threads())
        .with_retry(crate::env::RetryPolicy::NONE)
        .with_label("measure");
    let mut trace_len = 0u64;
    let mut chunks = 0u64;
    let mut decode_wall = Duration::ZERO;
    let mut sim_wall = Duration::ZERO;
    loop {
        let decode_start = Instant::now();
        let chunk = source.next_chunk()?;
        decode_wall += decode_start.elapsed();
        let Some(chunk) = chunk else { break };
        if chunk.is_empty() {
            continue;
        }
        trace_len += chunk.len() as u64;
        chunks += 1;
        let sim_start = Instant::now();
        if split {
            streams.split(&chunk);
        }
        sweep
            .try_for_each_mut_in(Some(mhe_obs::Phase::Simulate), &mut tasks, |t| {
                t.feed(&chunk, split.then_some(&streams));
                Ok(())
            })
            .map_err(|e| io::Error::other(e.error.to_string()))?;
        sim_wall += sim_start.elapsed();
    }

    drop(streams);

    // --- Finish every task, in task order (so metrics are deterministic
    // too). ---
    let mut params = None;
    let mut plan = None;
    let mut model_wall = Duration::ZERO;
    let mut grids = Grids::default();
    for task in tasks {
        match task {
            StreamTask::Model { modeler, wall } => {
                params = Some(modeler.finish());
                model_wall += wall;
            }
            StreamTask::Plan { planner, wall } => {
                plan = Some(planner.finish());
                model_wall += wall;
            }
            StreamTask::Sim { kind, sim, configs, wall } => {
                let pass = PassMetrics {
                    stream: kind,
                    line_words: sim.line_words(),
                    policy: sim.policy(),
                    configs: configs.len(),
                    addresses: sim.accesses(),
                    wall,
                };
                grids.record(kind, configs.iter().map(|&c| (c, sim.misses(c.sets, c.assoc))), pass);
            }
        }
    }

    let mut pass_b_chunks = 0;
    let mut pass_b_skipped = 0;
    let mut sampling = None;
    if let Some(plan) = plan {
        // --- Pass B: copy out the representative windows (single-threaded;
        // it is a pure range intersection + memcpy). ---
        let mut extractor = WindowExtractor::new(&plan);
        let decode_start = Instant::now();
        pass_b_chunks = source.fill(&mut extractor)?;
        decode_wall += decode_start.elapsed();
        pass_b_skipped = chunks.saturating_sub(pass_b_chunks);
        mhe_obs::count(mhe_obs::Counter::PassBChunks, pass_b_chunks);
        mhe_obs::count(mhe_obs::Counter::PassBSkipped, pass_b_skipped);
        let windows = extractor.finish();

        // --- One sampled estimator per family. ---
        let sim_start = Instant::now();
        let results = sweep.map_in(Some(mhe_obs::Phase::Simulate), families, |(kind, group)| {
            (kind, run_sampled_task(kind, &group, &plan, &windows))
        });
        sim_wall += sim_start.elapsed();
        for (kind, (rows, pass)) in results {
            grids.record(kind, rows, pass);
        }
        sampling = Some(SamplingMetrics {
            intervals: plan.intervals().len() as u64,
            clusters: plan.clusters().len() as u64,
            representative_accesses: plan.representative_accesses(),
            total_accesses: plan.total_accesses(),
            error_bound: plan.error_bound(),
        });
    }
    let (iparams, uparams) = params.expect("modeler task ran");
    Ok(StreamOutcome {
        threads: sweep.threads(),
        iparams,
        uparams,
        grids,
        trace_len,
        chunks,
        pass_b_chunks,
        pass_b_skipped,
        decode_wall,
        sim_wall,
        model_wall,
        sampling,
        replay: None,
    })
}

impl ReferenceEvaluation {
    /// Compiles `program` for the reference machine, measures trace
    /// parameters, and simulates the given cache design spaces on the
    /// reference trace.
    ///
    /// The trace is generated in chunks of [`EvalConfig::chunk_accesses`]
    /// and streamed through the measurement, so it never lives in memory
    /// whole. Instruction-cache configurations are automatically expanded
    /// with the smaller power-of-two line sizes required to interpolate up
    /// to `config.max_dilation`.
    pub fn build(
        program: Program,
        reference_mdes: &Mdes,
        config: EvalConfig,
        icaches: &[CacheConfig],
        dcaches: &[CacheConfig],
        ucaches: &[CacheConfig],
    ) -> Self {
        Self::measure_reference(program, reference_mdes, config, |program, reference| {
            // The generator is deterministic: the sampled route's pass B
            // simply runs it again, up to the end of the last window.
            let chunk_size = config.chunk_accesses.max(1);
            let pass = || {
                let mut trace = TraceGenerator::new(program, reference, config.seed)
                    .with_event_limit(config.events);
                move || -> io::Result<Option<Vec<Access>>> {
                    let _obs = mhe_obs::span(mhe_obs::Phase::TraceGen);
                    let chunk: Vec<Access> = trace.by_ref().take(chunk_size).collect();
                    Ok((!chunk.is_empty()).then_some(chunk))
                }
            };
            let mut source = Restream { pass_a: pass(), reopen: || Ok(pass()) };
            measure(&config, icaches, dcaches, ucaches, &mut source)
        })
        .unwrap_or_else(|e| panic!("reference measurement failed: {e}"))
    }

    /// Profiles and compiles `program` for the reference machine, then
    /// assembles the evaluation from what `measure_trace` measures on
    /// that compilation's trace.
    fn measure_reference(
        program: Program,
        reference_mdes: &Mdes,
        config: EvalConfig,
        measure_trace: impl FnOnce(&Program, &Compiled) -> io::Result<StreamOutcome>,
    ) -> io::Result<Self> {
        let build_start = Instant::now();
        let freq = BlockFrequencies::profile(&program, config.seed, 200_000);
        let reference = Compiled::build(&program, reference_mdes, Some(&freq));
        let outcome = measure_trace(&program, &reference)?;
        let metrics = EvalMetrics {
            threads: outcome.threads,
            trace_len: outcome.trace_len,
            trace_wall: outcome.decode_wall,
            model_wall: outcome.model_wall,
            sim_wall: outcome.sim_wall,
            build_wall: build_start.elapsed(),
            passes: outcome.grids.passes,
            replay: outcome.replay,
            sampling: outcome.sampling,
        };
        Ok(Self {
            config,
            program: Arc::new(program),
            freq: Arc::new(freq),
            reference: Arc::new(reference),
            iparams: outcome.iparams,
            uparams: outcome.uparams,
            imeasured: outcome.grids.imeasured,
            dmeasured: outcome.grids.dmeasured,
            umeasured: outcome.grids.umeasured,
            metrics,
            window: OnceLock::new(),
            targets: Mutex::default(),
        })
    }

    /// Replays a captured trace file as the reference trace.
    ///
    /// `.mtr` files are decoded frame by frame (each frame is one chunk);
    /// `.din` text is parsed in chunks of [`EvalConfig::chunk_accesses`].
    /// Either way the file streams through the measurement in bounded
    /// memory, and the resulting evaluation is bit-identical to
    /// [`ReferenceEvaluation::build`] on the same trace.
    /// [`EvalMetrics::replay`] records bytes read, decode throughput, and
    /// the compression ratio relative to `din` text.
    ///
    /// # Errors
    ///
    /// Propagates I/O and decode errors; rejects file extensions other
    /// than `mtr` or `din` with [`io::ErrorKind::InvalidInput`].
    pub fn replay_file(
        program: Program,
        reference_mdes: &Mdes,
        config: EvalConfig,
        path: impl AsRef<Path>,
        icaches: &[CacheConfig],
        dcaches: &[CacheConfig],
        ucaches: &[CacheConfig],
    ) -> io::Result<Self> {
        let path = path.as_ref();
        Self::measure_reference(program, reference_mdes, config, |_, _| {
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            let chunk_size = config.chunk_accesses.max(1);
            let open_din = || -> io::Result<_> {
                Ok(read_din_iter_named(
                    BufReader::new(File::open(path)?),
                    path.display().to_string(),
                ))
            };
            let (mut outcome, bytes_read, din_bytes) = match ext {
                "mtr" => {
                    // The index lets the sampled route's pass B seek to
                    // the frames that hold the windows.
                    let reader = TraceReader::new(BufReader::new(File::open(path)?))?.with_index();
                    let mut source = MtrTwoPass { path, reader };
                    let outcome = measure(&config, icaches, dcaches, ucaches, &mut source)?;
                    let stats = source.reader.stats();
                    (outcome, stats.bytes, stats.din_bytes)
                }
                "din" => {
                    // Pass A's `din`-text size of what it parsed (the
                    // `.mtr` reader counts its own).
                    let mut din_bytes = 0u64;
                    let outcome = {
                        let mut lines = open_din()?;
                        let mut source = Restream {
                            pass_a: || {
                                let chunk = din_chunk(&mut lines, chunk_size)?;
                                if let Some(chunk) = &chunk {
                                    din_bytes += din_text_bytes(chunk.iter().copied());
                                }
                                Ok(chunk)
                            },
                            reopen: || {
                                let mut lines = open_din()?;
                                Ok(move || din_chunk(&mut lines, chunk_size))
                            },
                        };
                        measure(&config, icaches, dcaches, ucaches, &mut source)?
                    };
                    // din is the uncompressed baseline: what we read is
                    // the text itself.
                    (outcome, din_bytes, din_bytes)
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("unknown trace extension {other:?} (expected mtr or din)"),
                    ));
                }
            };
            outcome.replay = Some(ReplayMetrics {
                bytes_read,
                accesses: outcome.trace_len,
                din_bytes,
                chunks: outcome.chunks,
                pass_b_chunks: outcome.pass_b_chunks,
                pass_b_skipped: outcome.pass_b_skipped,
                decode_wall: outcome.decode_wall,
            });
            Ok(outcome)
        })
    }

    /// Convenience: build for a benchmark with the paper's cache spaces.
    ///
    /// Applies [`EvalConfig::policy`] to every configuration that still
    /// carries the unmarked LRU default, so a whole evaluation can be
    /// switched to FIFO (say) with one builder call; configurations with
    /// an explicit non-LRU policy keep it.
    pub fn for_benchmark(
        benchmark: mhe_workload::Benchmark,
        reference_mdes: &Mdes,
        config: EvalConfig,
        icaches: &[CacheConfig],
        dcaches: &[CacheConfig],
        ucaches: &[CacheConfig],
    ) -> Self {
        let stamp = |cs: &[CacheConfig]| -> Vec<CacheConfig> {
            cs.iter()
                .map(|&c| if c.policy == Policy::Lru { c.with_policy(config.policy) } else { c })
                .collect()
        };
        Self::build(
            benchmark.generate(),
            reference_mdes,
            config,
            &stamp(icaches),
            &stamp(dcaches),
            &stamp(ucaches),
        )
    }

    /// The evaluation's configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// The application program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A shared handle to the application program, for consumers that
    /// outlive this borrow (service sessions, spawned workers).
    pub fn shared_program(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    /// The reference compilation.
    pub fn reference(&self) -> &Compiled {
        &self.reference
    }

    /// A shared handle to the reference compilation.
    pub fn shared_reference(&self) -> Arc<Compiled> {
        Arc::clone(&self.reference)
    }

    /// Wraps the evaluation for sharing across threads. Sugar for
    /// `Arc::new`, named so call sites document the ownership transfer:
    /// once shared, the thread count can no longer be overridden — decide
    /// it at construction time.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Instruction-trace AHH parameters.
    pub fn iparams(&self) -> &TraceParams {
        &self.iparams
    }

    /// Unified-trace AHH parameters (instruction and data components).
    pub fn uparams(&self) -> &UnifiedParams {
        &self.uparams
    }

    /// Text dilation of a target machine relative to the reference.
    ///
    /// Reads [`ReferenceEvaluation::target_facts`], so the target is
    /// compiled at most once per evaluation, with the same layout profile
    /// as the reference so that `dilation_of(reference) == 1` exactly.
    pub fn dilation_of(&self, target: &Mdes) -> f64 {
        self.target_facts(target).dilation
    }

    /// The target's dilation and compute cycles, computed on first use
    /// and remembered for the evaluation's lifetime.
    ///
    /// The first call for a machine compiles it (as
    /// [`ReferenceEvaluation::compile_target`] does) and dots its schedule
    /// lengths with the window's block profile, itself built once on the
    /// first call for any machine. Concurrent first calls for one machine
    /// compile it once; the rest wait for that result. Later calls only
    /// look the facts up.
    pub fn target_facts(&self, target: &Mdes) -> TargetFacts {
        let cell = {
            let mut targets = self.targets.lock().unwrap_or_else(PoisonError::into_inner);
            match targets.get(target) {
                Some(cell) => Arc::clone(cell),
                None => Arc::clone(targets.entry(target.clone()).or_default()),
            }
        };
        *cell.get_or_init(|| {
            let compiled = self.compile_target(target);
            let window = self.window.get_or_init(|| {
                BlockFrequencies::profile(&self.program, self.config.seed, self.config.events)
            });
            TargetFacts {
                dilation: text_dilation(&self.reference, &compiled),
                cycles: profile_cycles(window, &compiled),
            }
        })
    }

    /// Compiles the program for a target machine with the evaluation's
    /// layout profile. Every call compiles afresh; callers that need only
    /// the dilation or the cycles read [`ReferenceEvaluation::target_facts`].
    pub fn compile_target(&self, target: &Mdes) -> Compiled {
        Compiled::build(&self.program, target, Some(self.freq.as_ref()))
    }

    /// Where the build's time went (trace, modelers, simulation fan-out).
    pub fn metrics(&self) -> &EvalMetrics {
        &self.metrics
    }

    /// The reference trace, regenerated on demand as a stream.
    ///
    /// Trace generation is deterministic, so this is exactly the access
    /// sequence the evaluation measured; capturing it and replaying the
    /// file reproduces the evaluation bit for bit.
    pub fn reference_trace(&self) -> impl Iterator<Item = Access> + '_ {
        TraceGenerator::new(&self.program, &self.reference, self.config.seed)
            .with_event_limit(self.config.events)
    }

    /// Captures the reference trace as a compact `.mtr` binary stream,
    /// returning the codec's size accounting.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn capture_mtr<W: Write>(&self, w: W) -> io::Result<CodecStats> {
        write_mtr(w, self.reference_trace())
    }

    /// Captures the reference trace as classic `din` text.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn capture_din<W: Write>(&self, w: W) -> io::Result<()> {
        write_din(w, self.reference_trace())
    }

    /// All measured instruction-cache miss counts (including the expanded
    /// line sizes).
    pub fn imeasured(&self) -> &HashMap<CacheConfig, u64> {
        &self.imeasured
    }

    /// All measured data-cache miss counts.
    pub fn dmeasured(&self) -> &HashMap<CacheConfig, u64> {
        &self.dmeasured
    }

    /// All measured unified-cache miss counts.
    pub fn umeasured(&self) -> &HashMap<CacheConfig, u64> {
        &self.umeasured
    }

    /// Measured reference-trace misses of an instruction cache, if
    /// simulated.
    pub fn icache_misses_measured(&self, config: CacheConfig) -> Option<u64> {
        self.imeasured.get(&config).copied()
    }

    /// Measured reference-trace misses of a unified cache, if simulated.
    pub fn ucache_misses_measured(&self, config: CacheConfig) -> Option<u64> {
        self.umeasured.get(&config).copied()
    }

    /// Estimated instruction-cache misses under dilation `d`
    /// (Lemma 1 + Eq. 4.12).
    ///
    /// # Errors
    ///
    /// Returns [`MheError::MissingSimulation`] if the required neighbouring
    /// line sizes were not in the simulated space (build with a larger
    /// `max_dilation`).
    pub fn estimate_icache_misses(&self, config: CacheConfig, d: f64) -> Result<f64, MheError> {
        let _obs = mhe_obs::span(mhe_obs::Phase::Estimate);
        mhe_obs::add_events(mhe_obs::Phase::Estimate, 1);
        let table = |cfg: CacheConfig| self.imeasured.get(&cfg).copied();
        estimate_icache_misses(&self.iparams, &table, config, d, self.config.model)
    }

    /// Estimated unified-cache misses under dilation `d` (Eq. 4.15).
    ///
    /// # Errors
    ///
    /// Returns [`MheError::MissingSimulation`] if the configuration was not
    /// simulated.
    pub fn estimate_ucache_misses(&self, config: CacheConfig, d: f64) -> Result<f64, MheError> {
        let _obs = mhe_obs::span(mhe_obs::Phase::Estimate);
        mhe_obs::add_events(mhe_obs::Phase::Estimate, 1);
        let measured = self
            .umeasured
            .get(&config)
            .copied()
            .ok_or(MheError::MissingSimulation { stream: StreamKind::Unified, config })?;
        Ok(estimate_ucache_misses(&self.uparams, measured, config, d, self.config.model))
    }

    /// Data-cache misses for *any* processor (Eq. 4.1: the data trace is
    /// assumed unchanged, so the reference measurement is the answer).
    ///
    /// # Errors
    ///
    /// Returns [`MheError::MissingSimulation`] if the configuration was not
    /// simulated.
    pub fn dcache_misses(&self, config: CacheConfig) -> Result<u64, MheError> {
        let _obs = mhe_obs::span(mhe_obs::Phase::Estimate);
        mhe_obs::add_events(mhe_obs::Phase::Estimate, 1);
        self.dmeasured
            .get(&config)
            .copied()
            .ok_or(MheError::MissingSimulation { stream: StreamKind::Data, config })
    }
}

/// Adds, for every instruction-cache configuration, the smaller
/// power-of-two line sizes needed to interpolate contracted lines down to
/// `L / max_dilation`.
fn expand_line_sizes(configs: &[CacheConfig], max_dilation: f64) -> Vec<CacheConfig> {
    let mut out: Vec<CacheConfig> = Vec::new();
    for &c in configs {
        let min_line = (f64::from(c.line_words) / max_dilation).floor().max(1.0) as u32;
        let mut l = c.line_words;
        loop {
            out.push(c.with_line_words(l));
            if l <= min_line || l == 1 {
                break;
            }
            l /= 2;
        }
        // One step upward as well: dilations slightly below 1 occur when a
        // target's code is *denser* than the reference's (e.g. the same
        // width without speculation), and then L/d exceeds L.
        out.push(c.with_line_words(c.line_words * 2));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Ground truth: simulates `config` on the *actual* trace of a target
/// compilation (the paper's "Actual" columns).
pub fn actual_misses(
    program: &Program,
    target: &Compiled,
    eval: &EvalConfig,
    kind: StreamKind,
    config: CacheConfig,
) -> u64 {
    let mut cache = Cache::new(config);
    for a in
        TraceGenerator::new(program, target, eval.seed).with_event_limit(eval.events).stream(kind)
    {
        cache.access(a.addr);
    }
    cache.stats().misses
}

/// Ground truth for the model's step 3: simulates `config` on the
/// reference trace *dilated by `d`* (the paper's "Dilated" columns).
pub fn dilated_misses(
    program: &Program,
    reference: &Compiled,
    d: f64,
    eval: &EvalConfig,
    kind: StreamKind,
    config: CacheConfig,
) -> u64 {
    let mut cache = Cache::new(config);
    for a in DilatedTraceGenerator::new(program, reference, d, eval.seed)
        .with_event_limit(eval.events)
        .stream(kind)
    {
        cache.access(a.addr);
    }
    cache.stats().misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhe_trace::AccessKind;
    use mhe_vliw::mdes::ProcessorKind;
    use mhe_workload::Benchmark;

    fn small_eval() -> ReferenceEvaluation {
        let cfg = EvalConfig { events: 60_000, ..EvalConfig::default() };
        ReferenceEvaluation::for_benchmark(
            Benchmark::Unepic,
            &ProcessorKind::P1111.mdes(),
            cfg,
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
        )
    }

    #[test]
    fn build_measures_all_spaces() {
        let e = small_eval();
        let ic = CacheConfig::from_bytes(1024, 1, 32);
        assert!(e.icache_misses_measured(ic).is_some());
        assert!(e.dcache_misses(CacheConfig::from_bytes(1024, 1, 32)).is_ok());
        assert!(e.ucache_misses_measured(CacheConfig::from_bytes(16 * 1024, 2, 64)).is_some());
        // Expanded line sizes present: 32B cache with max_dilation 4 needs
        // 16B and 8B variants too.
        assert!(e.icache_misses_measured(CacheConfig::new(32, 1, 4)).is_some());
        assert!(e.icache_misses_measured(CacheConfig::new(32, 1, 2)).is_some());
    }

    #[test]
    fn unit_dilation_estimate_equals_measurement() {
        let e = small_eval();
        let ic = CacheConfig::from_bytes(1024, 1, 32);
        let est = e.estimate_icache_misses(ic, 1.0).unwrap();
        let measured = e.icache_misses_measured(ic).unwrap() as f64;
        assert!((est - measured).abs() < 1e-6);
        let uc = CacheConfig::from_bytes(16 * 1024, 2, 64);
        let est_u = e.estimate_ucache_misses(uc, 1.0).unwrap();
        let measured_u = e.ucache_misses_measured(uc).unwrap() as f64;
        assert!((est_u - measured_u).abs() < 1e-6);
    }

    #[test]
    fn icache_estimates_grow_with_dilation() {
        let e = small_eval();
        let ic = CacheConfig::from_bytes(1024, 1, 32);
        let m1 = e.estimate_icache_misses(ic, 1.0).unwrap();
        let m2 = e.estimate_icache_misses(ic, 2.0).unwrap();
        let m3 = e.estimate_icache_misses(ic, 3.0).unwrap();
        assert!(m2 > m1 * 1.05, "d=2 should clearly exceed d=1: {m1} -> {m2}");
        assert!(m3 > m2, "{m2} -> {m3}");
    }

    #[test]
    fn estimate_tracks_dilated_simulation() {
        // The model's step-3 accuracy claim, on a small instance: estimated
        // misses track the simulated dilated-trace misses.
        let e = small_eval();
        let ic = CacheConfig::from_bytes(1024, 1, 32);
        let mut worst = 0.0f64;
        let mut total = 0.0;
        let ds = [1.5, 2.0, 2.5];
        for d in ds {
            let est = e.estimate_icache_misses(ic, d).unwrap();
            let sim = dilated_misses(
                e.program(),
                e.reference(),
                d,
                e.config(),
                StreamKind::Instruction,
                ic,
            ) as f64;
            let rel = (est - sim).abs() / sim;
            worst = worst.max(rel);
            total += rel;
        }
        // Paper-comparable accuracy: Table 4 shows per-point errors of this
        // order; require the average to be clearly informative and no
        // single point to be wildly off.
        let mean = total / ds.len() as f64;
        assert!(mean < 0.30, "mean error {:.1}%", mean * 100.0);
        assert!(worst < 0.50, "worst error {:.1}%", worst * 100.0);
    }

    #[test]
    fn dilation_of_reference_is_one() {
        let e = small_eval();
        let d = e.dilation_of(&ProcessorKind::P1111.mdes());
        assert!((d - 1.0).abs() < 1e-12);
        assert!(e.dilation_of(&ProcessorKind::P6332.mdes()) > 2.0);
    }

    #[test]
    fn missing_config_errors_cleanly() {
        let e = small_eval();
        let unknown = CacheConfig::from_bytes(4096, 4, 16);
        assert!(e.estimate_ucache_misses(unknown, 1.5).is_err());
        assert!(e.dcache_misses(unknown).is_err());
    }

    #[test]
    fn replay_mtr_file_matches_build() {
        let e = small_eval();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mhe_eval_unit_{}.mtr", std::process::id()));
        let stats = e.capture_mtr(std::fs::File::create(&path).unwrap()).unwrap();
        assert!(stats.compression_ratio() > 1.0);
        let r = ReferenceEvaluation::replay_file(
            e.program().clone(),
            &ProcessorKind::P1111.mdes(),
            *e.config(),
            &path,
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(r.imeasured(), e.imeasured());
        assert_eq!(r.dmeasured(), e.dmeasured());
        assert_eq!(r.umeasured(), e.umeasured());
        let replay = r.metrics().replay.expect("file replay records metrics");
        assert_eq!(replay.accesses, e.metrics().trace_len);
        assert_eq!(replay.bytes_read, stats.bytes);
        assert!(replay.chunks > 0);
        assert!(replay.compression_ratio() > 1.0);
    }

    #[test]
    fn replay_rejects_unknown_extension() {
        let e = small_eval();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mhe_eval_unit_{}.txt", std::process::id()));
        std::fs::write(&path, b"not a trace").unwrap();
        let err = ReferenceEvaluation::replay_file(
            e.program().clone(),
            &ProcessorKind::P1111.mdes(),
            *e.config(),
            &path,
            &[],
            &[],
            &[],
        )
        .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn builder_validates_each_field() {
        let cfg = EvalConfig::builder()
            .events(1234)
            .seed(9)
            .threads(3)
            .chunk_accesses(512)
            .max_dilation(2.5)
            .build()
            .unwrap();
        assert_eq!(cfg.events, 1234);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.chunk_accesses, 512);
        assert_eq!(cfg.max_dilation, 2.5);

        let field = |r: Result<EvalConfig, MheError>| match r {
            Err(MheError::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        assert_eq!(field(EvalConfig::builder().events(0).build()), "events");
        assert_eq!(field(EvalConfig::builder().i_granule(0).build()), "i_granule");
        assert_eq!(field(EvalConfig::builder().u_granule(0).build()), "u_granule");
        assert_eq!(field(EvalConfig::builder().max_dilation(0.5).build()), "max_dilation");
        assert_eq!(field(EvalConfig::builder().max_dilation(f64::NAN).build()), "max_dilation");
        assert_eq!(field(EvalConfig::builder().chunk_accesses(0).build()), "chunk_accesses");
    }

    #[test]
    fn default_config_is_valid() {
        EvalConfig::default().validate().unwrap();
        assert_eq!(EvalConfig::builder().build().unwrap(), EvalConfig::default());
    }

    /// A sampling config that degenerates to exact full simulation: one
    /// cluster whose single interval is the whole trace, no warm-up.
    fn degenerate_sampling() -> SamplingConfig {
        SamplingConfig {
            interval_accesses: usize::MAX,
            clusters: 1,
            warmup: 0,
            ..SamplingConfig::default()
        }
    }

    #[test]
    fn degenerate_sampled_build_is_exact() {
        let e = small_eval();
        let cfg = EvalConfig {
            events: 60_000,
            sampling: Some(degenerate_sampling()),
            ..EvalConfig::default()
        };
        let s = ReferenceEvaluation::for_benchmark(
            Benchmark::Unepic,
            &ProcessorKind::P1111.mdes(),
            cfg,
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
        );
        assert_eq!(s.imeasured(), e.imeasured());
        assert_eq!(s.dmeasured(), e.dmeasured());
        assert_eq!(s.umeasured(), e.umeasured());
        let sm = s.metrics().sampling.expect("sampled build records metrics");
        assert_eq!(sm.intervals, 1);
        assert_eq!(sm.clusters, 1);
        assert_eq!(sm.total_accesses, s.metrics().trace_len);
        assert_eq!(sm.error_bound, 0.0);
        assert!(e.metrics().sampling.is_none(), "exact build has no sampling metrics");
    }

    #[test]
    fn sampled_build_approximates_exact() {
        let e = small_eval();
        let cfg = EvalConfig {
            events: 60_000,
            sampling: Some(SamplingConfig::default()),
            ..EvalConfig::default()
        };
        let s = ReferenceEvaluation::for_benchmark(
            Benchmark::Unepic,
            &ProcessorKind::P1111.mdes(),
            cfg,
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
        );
        let sm = s.metrics().sampling.expect("sampled build records metrics");
        assert!(sm.intervals > sm.clusters);
        assert!(sm.representative_accesses < sm.total_accesses);
        for (grid, exact_grid) in [(s.imeasured(), e.imeasured()), (s.dmeasured(), e.dmeasured())] {
            for (c, exact) in exact_grid {
                let approx = grid[c];
                let denom = (*exact).max(1) as f64;
                let rel = (approx as f64 - *exact as f64).abs() / denom;
                assert!(rel < 0.10, "{c:?}: sampled {approx} vs exact {exact} ({rel:.3})");
            }
        }
    }

    #[test]
    fn sampled_replay_matches_sampled_build() {
        let e = small_eval();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mhe_eval_sampled_{}.mtr", std::process::id()));
        e.capture_mtr(std::fs::File::create(&path).unwrap()).unwrap();
        let cfg = EvalConfig {
            events: 60_000,
            sampling: Some(degenerate_sampling()),
            ..EvalConfig::default()
        };
        let r = ReferenceEvaluation::replay_file(
            e.program().clone(),
            &ProcessorKind::P1111.mdes(),
            cfg,
            &path,
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(1024, 1, 32)],
            &[CacheConfig::from_bytes(16 * 1024, 2, 64)],
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(r.imeasured(), e.imeasured());
        assert_eq!(r.dmeasured(), e.dmeasured());
        assert_eq!(r.umeasured(), e.umeasured());
        assert!(r.metrics().replay.is_some());
        assert!(r.metrics().sampling.is_some());
    }

    #[test]
    fn builder_validates_sampling_fields() {
        let field = |r: Result<EvalConfig, MheError>| match r {
            Err(MheError::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        let zero_interval = SamplingConfig { interval_accesses: 0, ..SamplingConfig::default() };
        assert_eq!(
            field(EvalConfig::builder().sampling(zero_interval).build()),
            "sampling.interval_accesses"
        );
        let zero_clusters = SamplingConfig { clusters: 0, ..SamplingConfig::default() };
        assert_eq!(
            field(EvalConfig::builder().sampling(zero_clusters).build()),
            "sampling.clusters"
        );
        let ok = EvalConfig::builder().sampling(SamplingConfig::default()).build().unwrap();
        assert_eq!(ok.sampling, Some(SamplingConfig::default()));
    }

    #[test]
    fn chunk_split_keeps_each_stream_in_trace_order() {
        let chunk = [
            Access::load(10),
            Access::inst(1),
            Access::inst(2),
            Access::store(11),
            Access::load(12),
            Access::inst(3),
        ];
        let mut streams = ChunkStreams::with_capacity(2);
        for part in [&chunk[..], &chunk[..1], &chunk[1..3], &chunk[..]] {
            streams.split(part);
            let want = |keep: fn(&Access) -> bool| -> Vec<u64> {
                part.iter().filter(|a| keep(a)).map(|a| a.addr).collect()
            };
            assert_eq!(streams.inst(), want(|a| a.kind == AccessKind::Inst));
            assert_eq!(streams.data(), want(|a| a.kind != AccessKind::Inst));
        }
    }

    #[test]
    fn expand_line_sizes_covers_dilation_range() {
        let base = CacheConfig::from_bytes(1024, 1, 32); // 8-word lines
        let out = expand_line_sizes(&[base], 4.0);
        let lines: Vec<u32> = out.iter().map(|c| c.line_words).collect();
        assert!(lines.contains(&8));
        assert!(lines.contains(&4));
        assert!(lines.contains(&2));
        assert!(!lines.contains(&1), "dilation 4 on 8-word lines stops at 2");
    }
}
