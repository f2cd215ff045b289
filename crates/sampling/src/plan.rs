//! From a streamed trace to a sampling plan, and back over the trace to
//! the representative windows.
//!
//! Pass A ([`SamplePlanner`]) runs over the whole trace once, splitting
//! it into intervals and computing signatures — O(#intervals) memory.
//! The finished [`SamplePlan`] clusters the signatures and names one
//! representative interval per cluster. Pass B ([`WindowExtractor`])
//! keeps only each representative's warm-up prefix and body —
//! O(clusters × (interval + warmup)) memory, independent of trace
//! length — and reads only what it keeps: a source that can seek hands
//! it just the chunks that overlap a window
//! ([`WindowExtractor::wants`], [`WindowExtractor::feed_at`]); one that
//! cannot re-streams from the start and stops at
//! [`WindowExtractor::end`]. Both passes accept arbitrary chunking and
//! produce identical results for identical traces.

use crate::kmeans::kmeans;
use crate::signature::{ProbeCounts, Signature, SignatureProbe};
use crate::SamplingConfig;
use mhe_trace::{Access, StreamKind};

/// One interval of the trace, as recorded by pass A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalInfo {
    /// Global access index of the interval's first access.
    pub start: u64,
    /// Interval length in accesses (the final interval may be short).
    pub len: u64,
    /// Access-kind counts `[inst, load, store]`.
    pub kinds: [u64; 3],
    /// Raw probe counters (kind counts + per-probe, per-kind misses),
    /// the control variate for the sampled estimator's ratio correction.
    pub counts: ProbeCounts,
    /// Cluster this interval was assigned to.
    pub cluster: u32,
}

/// One cluster of intervals and its chosen representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterInfo {
    /// Interval index of the representative (closest to the centroid).
    pub representative: u32,
    /// Number of member intervals.
    pub intervals: u64,
    /// Total accesses across member intervals.
    pub accesses: u64,
    /// Summed access-kind counts `[inst, load, store]` of the members.
    pub kinds: [u64; 3],
    /// Summed raw probe counters of the members.
    pub counts: ProbeCounts,
}

/// The finished sampling plan: interval table, clusters, weights.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePlan {
    config: SamplingConfig,
    intervals: Vec<IntervalInfo>,
    clusters: Vec<ClusterInfo>,
    total_accesses: u64,
    dispersion: f64,
}

impl SamplePlan {
    /// The configuration the plan was built with.
    pub fn config(&self) -> SamplingConfig {
        self.config
    }

    /// The interval table, in trace order.
    pub fn intervals(&self) -> &[IntervalInfo] {
        &self.intervals
    }

    /// The clusters, indexed by cluster id.
    pub fn clusters(&self) -> &[ClusterInfo] {
        &self.clusters
    }

    /// Exact total accesses of the unified trace.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Exact total accesses admitted by `stream` — the denominator for
    /// sampled miss ratios (the trace was measured, not sampled).
    pub fn stream_accesses(&self, stream: StreamKind) -> u64 {
        let [i, l, s] = self.intervals.iter().fold([0u64; 3], |acc, iv| {
            [acc[0] + iv.kinds[0], acc[1] + iv.kinds[1], acc[2] + iv.kinds[2]]
        });
        match stream {
            StreamKind::Instruction => i,
            StreamKind::Data => l + s,
            StreamKind::Unified => i + l + s,
        }
    }

    /// Unified accesses that will actually be simulated: warm-up plus
    /// body of every representative window.
    pub fn representative_accesses(&self) -> u64 {
        self.clusters
            .iter()
            .map(|c| {
                let iv = self.intervals[c.representative as usize];
                let warm = (self.config.warmup as u64).min(iv.start);
                warm + iv.len
            })
            .sum()
    }

    /// Fraction of the trace fed to a simulator (representative over
    /// total accesses); the speedup story is `1 / coverage()`.
    pub fn coverage(&self) -> f64 {
        if self.total_accesses == 0 {
            return 0.0;
        }
        self.representative_accesses() as f64 / self.total_accesses as f64
    }

    /// Mean Euclidean distance from each interval's signature to its
    /// cluster representative's signature — a *heuristic* indicator of
    /// sampling error (0 when every interval is represented exactly,
    /// e.g. the degenerate one-cluster-whole-trace plan). The accuracy
    /// harness pins the *measured* error; this number only ranks plans.
    pub fn error_bound(&self) -> f64 {
        self.dispersion
    }
}

/// Pass A: split, sign, and (on [`SamplePlanner::finish`]) cluster.
#[derive(Debug, Clone)]
pub struct SamplePlanner {
    config: SamplingConfig,
    probe: SignatureProbe,
    signatures: Vec<Signature>,
    intervals: Vec<IntervalInfo>,
    total: u64,
}

impl SamplePlanner {
    /// Creates a planner.
    ///
    /// # Panics
    ///
    /// If `config` fails [`SamplingConfig::validate`].
    pub fn new(config: SamplingConfig) -> Self {
        if let Err((field, req)) = config.validate() {
            panic!("invalid sampling config: {field} {req}");
        }
        Self {
            config,
            probe: SignatureProbe::new(),
            signatures: Vec::new(),
            intervals: Vec::new(),
            total: 0,
        }
    }

    fn close_interval(&mut self) {
        let (sig, counts) = self.probe.finish();
        let len = counts.len();
        self.signatures.push(sig);
        self.intervals.push(IntervalInfo {
            start: self.total - len,
            len,
            kinds: counts.kinds,
            counts,
            cluster: 0,
        });
    }

    /// Feeds one chunk of the trace (any chunking yields the same plan).
    ///
    /// The chunk is walked one interval-sized slice at a time, so the
    /// per-access loop checks no interval boundary.
    pub fn feed(&mut self, mut chunk: &[Access]) {
        while !chunk.is_empty() {
            let room = self.config.interval_accesses - self.probe.len() as usize;
            let (slice, rest) = chunk.split_at(room.min(chunk.len()));
            self.probe.observe_all(slice);
            self.total += slice.len() as u64;
            if slice.len() == room {
                self.close_interval();
            }
            chunk = rest;
        }
    }

    /// Total accesses fed so far.
    pub fn accesses(&self) -> u64 {
        self.total
    }

    /// Closes the final partial interval, clusters the signatures, and
    /// returns the plan.
    pub fn finish(mut self) -> SamplePlan {
        if !self.probe.is_empty() {
            self.close_interval();
        }
        let clustering = kmeans(&self.signatures, self.config.clusters, self.config.seed);
        let mut clusters: Vec<ClusterInfo> = clustering
            .representatives
            .iter()
            .map(|&rep| ClusterInfo {
                representative: rep,
                intervals: 0,
                accesses: 0,
                kinds: [0; 3],
                counts: ProbeCounts::default(),
            })
            .collect();
        for (iv, &a) in self.intervals.iter_mut().zip(&clustering.assignment) {
            iv.cluster = a;
            let c = &mut clusters[a as usize];
            c.intervals += 1;
            c.accesses += iv.len;
            for (k, n) in c.kinds.iter_mut().zip(iv.kinds) {
                *k += n;
            }
            c.counts.add(&iv.counts);
        }
        // Dispersion: mean distance of each signature to its cluster's
        // representative signature (fixed interval order — deterministic).
        let dispersion = if self.signatures.is_empty() {
            0.0
        } else {
            let sum: f64 = self
                .signatures
                .iter()
                .zip(&clustering.assignment)
                .map(|(sig, &a)| {
                    let rep = clusters[a as usize].representative as usize;
                    sig.distance2(&self.signatures[rep]).sqrt()
                })
                .sum();
            sum / self.signatures.len() as f64
        };
        SamplePlan {
            config: self.config,
            intervals: self.intervals,
            clusters,
            total_accesses: self.total,
            dispersion,
        }
    }
}

/// A representative interval with its warm-up prefix, materialized by
/// pass B.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepWindow {
    /// Cluster this window represents.
    pub cluster: u32,
    /// Warm-up accesses (simulated, not counted). Clipped at trace
    /// start, so it may be shorter than `config.warmup` — and it may be
    /// *longer than the representative interval itself* when warmup >
    /// interval_accesses; both are fine.
    pub warmup: Vec<Access>,
    /// The representative interval's own accesses (counted).
    pub body: Vec<Access>,
}

#[derive(Debug, Clone, Copy)]
struct WindowSpec {
    warm_start: u64,
    body_start: u64,
    end: u64,
}

/// Pass B: keep only the representative windows of the trace.
#[derive(Debug, Clone)]
pub struct WindowExtractor {
    specs: Vec<WindowSpec>,
    windows: Vec<RepWindow>,
    pos: u64,
}

impl WindowExtractor {
    /// Prepares extraction for every cluster of `plan`, in cluster
    /// order.
    pub fn new(plan: &SamplePlan) -> Self {
        let warmup = plan.config().warmup as u64;
        let mut specs = Vec::with_capacity(plan.clusters().len());
        let mut windows = Vec::with_capacity(plan.clusters().len());
        for (cluster, c) in plan.clusters().iter().enumerate() {
            let iv = plan.intervals()[c.representative as usize];
            let warm_start = iv.start.saturating_sub(warmup);
            specs.push(WindowSpec { warm_start, body_start: iv.start, end: iv.start + iv.len });
            windows.push(RepWindow {
                cluster: cluster as u32,
                warmup: Vec::with_capacity((iv.start - warm_start) as usize),
                body: Vec::with_capacity(iv.len as usize),
            });
        }
        Self { specs, windows, pos: 0 }
    }

    /// Feeds the next chunk of a sequential pass; O(clusters) range
    /// intersections per chunk.
    pub fn feed(&mut self, chunk: &[Access]) {
        self.feed_at(self.pos, chunk);
    }

    /// Feeds a chunk whose first access has global index `first`.
    /// Chunks must arrive in trace order without overlap; a gap between
    /// them must hold no access that [`WindowExtractor::wants`].
    pub fn feed_at(&mut self, first: u64, chunk: &[Access]) {
        debug_assert!(first >= self.pos, "chunks must arrive in trace order");
        let lo = first;
        let hi = lo + chunk.len() as u64;
        for (spec, win) in self.specs.iter().zip(self.windows.iter_mut()) {
            let warm_lo = spec.warm_start.max(lo);
            let warm_hi = spec.body_start.min(hi);
            if warm_lo < warm_hi {
                win.warmup
                    .extend_from_slice(&chunk[(warm_lo - lo) as usize..(warm_hi - lo) as usize]);
            }
            let body_lo = spec.body_start.max(lo);
            let body_hi = spec.end.min(hi);
            if body_lo < body_hi {
                win.body
                    .extend_from_slice(&chunk[(body_lo - lo) as usize..(body_hi - lo) as usize]);
            }
        }
        self.pos = hi;
    }

    /// Whether any window needs an access with global index in
    /// `lo..hi`.
    pub fn wants(&self, lo: u64, hi: u64) -> bool {
        self.specs.iter().any(|s| s.warm_start < hi && lo < s.end)
    }

    /// One past the last access any window needs (0 for an empty plan):
    /// a sequential pass is complete once it has fed this many.
    pub fn end(&self) -> u64 {
        self.specs.iter().map(|s| s.end).max().unwrap_or(0)
    }

    /// One past the global index of the last access fed so far.
    pub fn accesses(&self) -> u64 {
        self.pos
    }

    /// Returns the materialized windows, in cluster order.
    pub fn finish(self) -> Vec<RepWindow> {
        self.windows
    }
}

/// One-shot plan construction from an in-memory trace (tests, bench).
pub fn plan_trace(trace: &[Access], config: SamplingConfig) -> (SamplePlan, Vec<RepWindow>) {
    let mut planner = SamplePlanner::new(config);
    planner.feed(trace);
    let plan = planner.finish();
    let mut ex = WindowExtractor::new(&plan);
    ex.feed(trace);
    let windows = ex.finish();
    (plan, windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(interval: usize, clusters: usize, warmup: usize) -> SamplingConfig {
        SamplingConfig { interval_accesses: interval, clusters, warmup, ..Default::default() }
    }

    fn phased_trace(n: u64) -> Vec<Access> {
        // Alternating loop/stream phases with a sprinkle of data refs.
        (0..n)
            .map(|i| {
                let phase = (i / 1024) % 2;
                if i % 7 == 0 {
                    Access::load(10_000 + i % 512)
                } else if phase == 0 {
                    Access::inst(i % 256)
                } else {
                    Access::inst(i * 32)
                }
            })
            .collect()
    }

    #[test]
    fn intervals_partition_the_trace() {
        let t = phased_trace(10_000);
        let (plan, _) = plan_trace(&t, cfg(1024, 4, 256));
        let mut pos = 0u64;
        for iv in plan.intervals() {
            assert_eq!(iv.start, pos);
            pos += iv.len;
        }
        assert_eq!(pos, t.len() as u64);
        assert_eq!(plan.total_accesses(), t.len() as u64);
    }

    #[test]
    fn kind_totals_are_exact() {
        let t = phased_trace(10_000);
        let (plan, _) = plan_trace(&t, cfg(1024, 4, 256));
        let loads = t.iter().filter(|a| a.kind == mhe_trace::AccessKind::Load).count() as u64;
        assert_eq!(plan.stream_accesses(StreamKind::Data), loads);
        assert_eq!(plan.stream_accesses(StreamKind::Unified), t.len() as u64);
        assert_eq!(plan.stream_accesses(StreamKind::Instruction) + loads, plan.total_accesses());
    }

    #[test]
    fn cluster_weights_cover_every_interval_once() {
        let t = phased_trace(20_000);
        let (plan, _) = plan_trace(&t, cfg(2048, 3, 512));
        let from_clusters: u64 = plan.clusters().iter().map(|c| c.accesses).sum();
        assert_eq!(from_clusters, plan.total_accesses());
        let members: u64 = plan.clusters().iter().map(|c| c.intervals).sum();
        assert_eq!(members, plan.intervals().len() as u64);
    }

    #[test]
    fn windows_match_the_trace_content() {
        let t = phased_trace(20_000);
        let (plan, windows) = plan_trace(&t, cfg(2048, 3, 512));
        assert_eq!(windows.len(), plan.clusters().len());
        for (c, w) in plan.clusters().iter().zip(&windows) {
            let iv = plan.intervals()[c.representative as usize];
            let warm_start = iv.start.saturating_sub(512);
            assert_eq!(w.warmup.as_slice(), &t[warm_start as usize..iv.start as usize]);
            assert_eq!(w.body.as_slice(), &t[iv.start as usize..(iv.start + iv.len) as usize]);
        }
    }

    #[test]
    fn chunked_and_whole_extraction_agree() {
        let t = phased_trace(15_000);
        let (plan, whole) = plan_trace(&t, cfg(1024, 5, 300));
        let mut ex = WindowExtractor::new(&plan);
        for chunk in t.chunks(97) {
            ex.feed(chunk);
        }
        assert_eq!(ex.finish(), whole);
    }

    #[test]
    fn feeding_only_wanted_chunks_extracts_the_same_windows() {
        let t = phased_trace(30_000);
        let (plan, whole) = plan_trace(&t, cfg(1024, 4, 700));
        let mut ex = WindowExtractor::new(&plan);
        let mut fed = 0;
        for (i, chunk) in t.chunks(331).enumerate() {
            let first = (i * 331) as u64;
            if ex.wants(first, first + chunk.len() as u64) {
                ex.feed_at(first, chunk);
                fed += 1;
            }
        }
        assert!(fed < t.len().div_ceil(331), "a 4-cluster plan skips chunks");
        assert!(ex.accesses() <= ex.end());
        assert_eq!(ex.finish(), whole);

        // A sequential pass may stop at `end`.
        let mut ex = WindowExtractor::new(&plan);
        for chunk in t.chunks(331) {
            if ex.accesses() >= ex.end() {
                break;
            }
            ex.feed(chunk);
        }
        assert_eq!(ex.finish(), whole);
    }

    #[test]
    fn chunked_and_whole_planning_agree() {
        let t = phased_trace(15_000);
        let mut planner = SamplePlanner::new(cfg(1024, 5, 300));
        for chunk in t.chunks(131) {
            planner.feed(chunk);
        }
        let chunked = planner.finish();
        let (whole, _) = plan_trace(&t, cfg(1024, 5, 300));
        assert_eq!(chunked, whole);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random chunk cuts give the plan of one `feed`: empty chunks
        /// (repeated cuts), chunks spanning several intervals (short
        /// intervals) and a final partial interval (lengths that are no
        /// multiple of the interval), and one access per chunk.
        #[test]
        fn any_chunking_plans_as_one_feed(
            len in 0u64..5000,
            interval in 1usize..600,
            cuts in proptest::collection::vec(0u64..5000, 0..10),
        ) {
            let t = phased_trace(len);
            let config = cfg(interval, 4, 100);
            let (whole, _) = plan_trace(&t, config);

            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len) as usize).collect();
            cuts.extend([0, t.len()]);
            cuts.sort_unstable();
            let mut chunked = SamplePlanner::new(config);
            for pair in cuts.windows(2) {
                chunked.feed(&t[pair[0]..pair[1]]);
            }
            proptest::prop_assert_eq!(chunked.finish(), whole.clone());

            let mut singles = SamplePlanner::new(config);
            t.chunks(1).for_each(|a| singles.feed(a));
            proptest::prop_assert_eq!(singles.finish(), whole);
        }
    }

    #[test]
    fn empty_trace_yields_an_empty_plan() {
        let (plan, windows) = plan_trace(&[], cfg(1024, 4, 256));
        assert!(plan.intervals().is_empty());
        assert!(plan.clusters().is_empty());
        assert!(windows.is_empty());
        assert_eq!(plan.total_accesses(), 0);
        assert_eq!(plan.coverage(), 0.0);
        assert_eq!(plan.error_bound(), 0.0);
    }

    #[test]
    fn degenerate_plan_has_zero_error_bound_and_full_coverage() {
        let t = phased_trace(5000);
        let (plan, windows) = plan_trace(&t, cfg(5000, 1, 0));
        assert_eq!(plan.clusters().len(), 1);
        assert_eq!(plan.error_bound(), 0.0);
        assert_eq!(plan.coverage(), 1.0);
        assert_eq!(windows[0].body.as_slice(), t.as_slice());
        assert!(windows[0].warmup.is_empty());
    }
}
