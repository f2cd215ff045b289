//! The sampled counterpart of `SinglePassSim`.
//!
//! [`SampledSim::measure`] consumes a [`SamplePlan`] plus the
//! materialized representative windows and answers the same
//! `misses(sets, assoc)` grid queries as the exact simulator — but it
//! only ever feeds representative accesses to an engine.
//!
//! **Phase 1 — stale-state window replay.** Representative windows run
//! in *trace order* through one shared `SinglePassSim` per family, which
//! simulates every grid point exactly over the windows: each window
//! simulates its warm-up prefix (state only), snapshots the grid, then
//! simulates its body and records the per-(sets, assoc) miss *delta*.
//! Because the engine is shared, every window inherits the cache state
//! earlier windows left behind (Conte-style stale state) instead of
//! starting cold.
//!
//! **Phase 2 — blended estimate.** Two estimators combine:
//!
//! * *Cluster-weight fallback* (always computed): each representative's
//!   miss delta × its cluster weight × a probe-miss ratio correction
//!   (the cluster's per-access probe-miss rate over the
//!   representative's, at the capacity-nearest probe of the ladder;
//!   the factor stays 1 below `MIN_CORRECTION_MISSES` (16 misses) to
//!   avoid amplifying small-count noise).
//! * *Per-point ridge regression* (with ≥ [`MIN_REGRESSION_REPS`]
//!   representatives and at least one unsimulated interval): a fit
//!   from each representative's pass-A probe counters (stream length
//!   plus the per-size probe-miss ladder, all exact integers) to its
//!   measured miss delta predicts every non-simulated interval;
//!   simulated intervals contribute their measured misses, the rest
//!   their predictions, and the sum is clamped to the stream length.
//!
//! The two err with largely independent signs — the final estimate is
//! their 50/50 blend, tighter than either alone across the benchmark
//! suite (see `tests/sampling_accuracy.rs` for the pinned budgets).
//!
//! Features are per-stream: an instruction-cache estimate uses
//! instruction-only probe counters, a data-cache one load+store
//! counters, a unified one the shared-array counters — all recorded
//! exactly by pass A. Every accumulation runs in fixed interval order,
//! so the estimate is a pure function of (plan, windows) and
//! bit-identical on every run and thread count.
use crate::plan::{RepWindow, SamplePlan};
use crate::signature::{ProbeCounts, PROBE_LINES, PROBE_LINE_WORDS};
use mhe_cache::{Policy, SinglePassSim};
use mhe_trace::StreamKind;

/// Minimum probe misses the representative must show before the ratio
/// correction is trusted; below this the factor stays 1 (pure
/// cluster-weight scaling) rather than amplify small-count noise.
const MIN_CORRECTION_MISSES: u64 = 16;

/// Minimum simulated representatives before the per-point regression
/// estimator is used; below this the cluster-weight fallback runs.
pub const MIN_REGRESSION_REPS: usize = 8;

/// Regression feature count: intercept, stream length, and one
/// probe-miss count per probe size.
const NF: usize = 2 + PROBE_LINES.len();

/// Solves `a x = b` by Gauss-Jordan elimination with partial pivoting
/// (deterministic; the ridge term keeps `a` well conditioned).
fn solve(mut a: [[f64; NF]; NF], mut b: [f64; NF]) -> [f64; NF] {
    for col in 0..NF {
        let mut piv = col;
        for r in col + 1..NF {
            if a[r][col].abs() > a[piv][col].abs() {
                piv = r;
            }
        }
        a.swap(col, piv);
        b.swap(col, piv);
        let d = a[col][col];
        if d.abs() < 1e-30 {
            continue;
        }
        let pivot = a[col];
        for r in 0..NF {
            if r == col {
                continue;
            }
            let f = a[r][col] / d;
            for (x, &p) in a[r].iter_mut().zip(&pivot).skip(col) {
                *x -= f * p;
            }
            b[r] -= f * b[col];
        }
    }
    let mut out = [0.0; NF];
    for (i, o) in out.iter_mut().enumerate() {
        *o = if a[i][i].abs() < 1e-30 { 0.0 } else { b[i] / a[i][i] };
    }
    out
}

/// Per-grid-point ridge fit over the simulated representatives:
/// normal equations from (features, delta) pairs, a relative ridge
/// term on the diagonal, then [`solve`].
fn fit_point(rows: &[RepRow], point: usize) -> [f64; NF] {
    let mut a = [[0.0f64; NF]; NF];
    let mut b = [0.0f64; NF];
    for row in rows {
        let x = &row.features;
        for i in 0..NF {
            b[i] += x[i] * row.deltas[point];
            for j in 0..NF {
                a[i][j] += x[i] * x[j];
            }
        }
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += 1e-6 * row[i] + 1e-9;
    }
    solve(a, b)
}

/// One simulated representative: its features and per-point deltas.
struct RepRow {
    /// Interval index of the representative (marks it as simulated).
    interval: usize,
    /// Cluster-weight fallback scale (cluster stream accesses over
    /// body stream accesses).
    weight: f64,
    /// Ratio-correction factors per probe size (fallback path).
    factors: [f64; PROBE_LINES.len()],
    /// Regression features: `[1, stream_len, probe_misses...]`.
    features: [f64; NF],
    /// Measured miss deltas in final grid layout.
    deltas: Vec<f64>,
}

/// Index of the probe whose capacity (in words) is nearest
/// `capacity_words` on a log scale (ties take the smaller probe).
fn probe_for(capacity_words: u64) -> usize {
    let target = (capacity_words.max(1) as f64).log2();
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, &lines) in PROBE_LINES.iter().enumerate() {
        let cap = (lines as u64 * u64::from(PROBE_LINE_WORDS)) as f64;
        let d = (cap.log2() - target).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Weighted-miss grid estimator over one stream of the trace.
#[derive(Debug, Clone)]
pub struct SampledSim {
    policy: Policy,
    line_words: u32,
    set_counts: Vec<u32>,
    max_assoc: u32,
    /// `grid[set_index * max_assoc + (assoc-1)]` = weighted miss estimate.
    grid: Vec<f64>,
    accesses: u64,
    sim_accesses: u64,
    covered_weight: f64,
}

impl SampledSim {
    /// Runs the sampled measurement for `stream` over the given grid.
    ///
    /// `set_counts` follows the same convention as `SinglePassSim`:
    /// every count is evaluated at associativities `1..=max_assoc`.
    /// Windows must be the ones extracted for `plan` (cluster order).
    ///
    /// # Panics
    ///
    /// If the windows do not match the plan's clusters, or on any grid
    /// `SinglePassSim::new_with_policy` rejects.
    pub fn measure(
        policy: Policy,
        line_words: u32,
        set_counts: &[u32],
        max_assoc: u32,
        stream: StreamKind,
        plan: &SamplePlan,
        windows: &[RepWindow],
    ) -> Self {
        assert_eq!(windows.len(), plan.clusters().len(), "windows must match the plan's clusters");
        let stream_count = |kinds: &[u64; 3]| -> u64 {
            match stream {
                StreamKind::Instruction => kinds[0],
                StreamKind::Data => kinds[1] + kinds[2],
                StreamKind::Unified => kinds[0] + kinds[1] + kinds[2],
            }
        };
        let probe_count = |counts: &ProbeCounts, p: usize| match stream {
            StreamKind::Instruction => counts.probe_misses[p][0],
            StreamKind::Data => counts.probe_misses[p][1] + counts.probe_misses[p][2],
            StreamKind::Unified => counts.probe_misses_unified[p],
        };
        let features = |counts: &ProbeCounts| {
            let mut x = [0.0f64; NF];
            x[0] = 1.0;
            x[1] = stream_count(&counts.kinds) as f64;
            for (p, f) in x[2..].iter_mut().enumerate() {
                *f = probe_count(counts, p) as f64;
            }
            x
        };

        let points = set_counts.len() * max_assoc as usize;
        let mut sim_accesses = 0u64;
        let mut covered = 0u64;
        let total = plan.stream_accesses(stream);

        // Phase 1: simulate every representative window, recording its
        // per-point miss deltas plus the fallback weights/factors.
        //
        // Windows are replayed in *trace order* through one shared engine
        // ("stale-state" warming, Conte et al.): each window inherits the
        // cache state left by earlier windows of the same trace on top of
        // its own warm-up run, instead of starting from an empty cache.
        // A cold start overestimates misses on caches large enough that
        // blocks survive across the sampled gaps; stale state restores
        // most of that footprint at zero extra simulation cost.
        let mut order: Vec<usize> = (0..plan.clusters().len()).collect();
        order.sort_by_key(|&i| plan.intervals()[plan.clusters()[i].representative as usize].start);
        let mut sim = SinglePassSim::new_with_policy(policy, line_words, set_counts, max_assoc);
        let mut rows: Vec<RepRow> = Vec::with_capacity(windows.len());
        for i in order {
            let (c, w) = (&plan.clusters()[i], &windows[i]);
            let cluster_accesses = stream_count(&c.kinds);
            if cluster_accesses == 0 {
                continue;
            }
            let warm: Vec<u64> =
                w.warmup.iter().filter(|a| stream.admits(a.kind)).map(|a| a.addr).collect();
            let body: Vec<u64> =
                w.body.iter().filter(|a| stream.admits(a.kind)).map(|a| a.addr).collect();
            if body.is_empty() {
                // The representative holds no accesses of this stream
                // even though the cluster does: nothing to train on or
                // scale. The shortfall shows up in `covered_fraction`.
                continue;
            }
            let weight = cluster_accesses as f64 / body.len() as f64;
            covered += cluster_accesses;
            sim_accesses += (warm.len() + body.len()) as u64;

            // Ratio correction per probe size: cluster probe-miss rate
            // over representative probe-miss rate, for this stream.
            let rep_iv = plan.intervals()[c.representative as usize];
            let mut factors = [1.0f64; PROBE_LINES.len()];
            for (p, f) in factors.iter_mut().enumerate() {
                let cpm = probe_count(&c.counts, p);
                let rpm = probe_count(&rep_iv.counts, p);
                if rpm >= MIN_CORRECTION_MISSES && cpm > 0 {
                    let cluster_rate = cpm as f64 / cluster_accesses as f64;
                    let rep_rate = rpm as f64 / body.len() as f64;
                    *f = cluster_rate / rep_rate;
                }
            }

            sim.run(warm.iter().copied());
            let base: Vec<u64> = grid_points(set_counts, max_assoc)
                .map(|(sets, assoc)| sim.misses(sets, assoc))
                .collect();
            sim.run(body.iter().copied());
            let deltas = grid_points(set_counts, max_assoc)
                .zip(base)
                .map(|((sets, assoc), before)| (sim.misses(sets, assoc) - before) as f64)
                .collect();
            rows.push(RepRow {
                interval: c.representative as usize,
                weight,
                factors,
                features: features(&rep_iv.counts),
                deltas,
            });
        }

        // Phase 2: extrapolate to the full trace. The cluster-weight
        // estimate (locally adaptive, per-cluster ratio correction) is
        // always computed; with enough representatives the regression
        // estimate (global fit, residuals cancel in the sum) is averaged
        // in. The two err with largely independent — often opposite —
        // signs on sparse-miss points, so the blend beats either alone.
        let mut fallback = vec![0.0f64; points];
        for row in &rows {
            for (point, (sets, assoc)) in grid_points(set_counts, max_assoc).enumerate() {
                let factor = row.factors
                    [probe_for(u64::from(sets) * u64::from(assoc) * u64::from(line_words))];
                fallback[point] += row.weight * factor * row.deltas[point];
            }
        }
        let mut grid = fallback;
        if rows.len() >= MIN_REGRESSION_REPS && plan.intervals().len() > rows.len() {
            let mut simulated = vec![false; plan.intervals().len()];
            for row in &rows {
                simulated[row.interval] = true;
            }
            for (point, g) in grid.iter_mut().enumerate() {
                let beta = fit_point(&rows, point);
                let mut sum = 0.0f64;
                for row in &rows {
                    sum += row.deltas[point];
                }
                for (iv, &is_rep) in plan.intervals().iter().zip(&simulated) {
                    if is_rep {
                        continue;
                    }
                    let len = stream_count(&iv.kinds);
                    if len == 0 {
                        continue;
                    }
                    let x = features(&iv.counts);
                    // Unclamped: per-interval prediction noise must be
                    // allowed to cancel in the sum (flooring negatives
                    // would bias sparse-miss points upward).
                    sum += beta.iter().zip(x).map(|(b, f)| b * f).sum::<f64>();
                }
                let regression = sum.clamp(0.0, total as f64);
                *g = 0.5 * (*g + regression);
            }
        }
        Self {
            policy,
            line_words,
            set_counts: set_counts.to_vec(),
            max_assoc,
            grid,
            accesses: total,
            sim_accesses,
            covered_weight: if total == 0 { 1.0 } else { covered as f64 / total as f64 },
        }
    }

    /// Raw (unrounded) weighted miss estimate at one grid point.
    ///
    /// # Panics
    ///
    /// If `sets` is not one of the measured set counts or `assoc` is out
    /// of range — the same contract as `SinglePassSim::misses`.
    pub fn misses_estimate(&self, sets: u32, assoc: u32) -> f64 {
        assert!(assoc >= 1 && assoc <= self.max_assoc, "assoc {assoc} out of range");
        let si = grid_index(&self.set_counts, sets);
        self.grid[si * self.max_assoc as usize + (assoc - 1) as usize]
    }

    /// The estimate rounded to a whole miss count — the oracle-shaped
    /// answer. Exact (bit-for-bit vs full simulation) for degenerate
    /// plans.
    pub fn misses(&self, sets: u32, assoc: u32) -> u64 {
        self.misses_estimate(sets, assoc).round() as u64
    }

    /// Sampled miss ratio: estimate over the *exact* stream length.
    pub fn miss_ratio(&self, sets: u32, assoc: u32) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.misses_estimate(sets, assoc) / self.accesses as f64
    }

    /// Exact number of accesses in the sampled stream (pass-A count —
    /// the miss-ratio denominator), not the number simulated.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses actually fed to engines (warm-up plus bodies).
    pub fn sim_accesses(&self) -> u64 {
        self.sim_accesses
    }

    /// Fraction of stream accesses whose cluster had a usable
    /// representative (1.0 in practice; below 1.0 only when a cluster's
    /// representative contains no accesses of this stream).
    pub fn covered_fraction(&self) -> f64 {
        self.covered_weight
    }

    /// The replacement policy measured.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Line size in words.
    pub fn line_words(&self) -> u32 {
        self.line_words
    }

    /// The measured set counts.
    pub fn set_counts(&self) -> &[u32] {
        &self.set_counts
    }

    /// Maximum associativity of the grid.
    pub fn max_assoc(&self) -> u32 {
        self.max_assoc
    }
}

/// Every `(sets, assoc)` point of the grid, in grid layout order.
fn grid_points(set_counts: &[u32], max_assoc: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
    set_counts.iter().flat_map(move |&sets| (1..=max_assoc).map(move |assoc| (sets, assoc)))
}

fn grid_index(set_counts: &[u32], sets: u32) -> usize {
    set_counts
        .iter()
        .position(|&s| s == sets)
        .unwrap_or_else(|| panic!("set count {sets} was not measured"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_trace;
    use crate::SamplingConfig;
    use mhe_trace::Access;

    const SETS: [u32; 3] = [8, 32, 64];
    const MAX_ASSOC: u32 = 4;
    const LINE: u32 = 8;

    fn trace(n: u64) -> Vec<Access> {
        (0..n)
            .map(|i| {
                let phase = (i / 700) % 3;
                match (i % 5, phase) {
                    (0, _) => Access::load(50_000 + (i * 3) % 900),
                    (_, 0) => Access::inst(i % 300),
                    (_, 1) => Access::inst((i * 11) % 4096),
                    _ => Access::inst(i * 8),
                }
            })
            .collect()
    }

    fn exact_grid(t: &[Access], stream: StreamKind, policy: Policy) -> Vec<u64> {
        let mut sim = SinglePassSim::new_with_policy(policy, LINE, &SETS, MAX_ASSOC);
        sim.run(t.iter().filter(|a| stream.admits(a.kind)).map(|a| a.addr));
        let mut out = Vec::new();
        for &s in &SETS {
            for a in 1..=MAX_ASSOC {
                out.push(sim.misses(s, a));
            }
        }
        out
    }

    fn sampled_grid(sim: &SampledSim) -> Vec<u64> {
        let mut out = Vec::new();
        for &s in &SETS {
            for a in 1..=MAX_ASSOC {
                out.push(sim.misses(s, a));
            }
        }
        out
    }

    fn degenerate_cfg(len: usize) -> SamplingConfig {
        SamplingConfig { interval_accesses: len, clusters: 1, warmup: 0, ..Default::default() }
    }

    #[test]
    fn degenerate_plan_reproduces_full_simulation_bit_for_bit() {
        let t = trace(6000);
        let (plan, windows) = plan_trace(&t, degenerate_cfg(t.len()));
        for stream in [StreamKind::Instruction, StreamKind::Data, StreamKind::Unified] {
            for policy in [Policy::Lru, Policy::Fifo] {
                let sim =
                    SampledSim::measure(policy, LINE, &SETS, MAX_ASSOC, stream, &plan, &windows);
                let exact = exact_grid(&t, stream, policy);
                assert_eq!(sampled_grid(&sim), exact, "{stream:?}/{policy:?}");
                assert_eq!(sim.covered_fraction(), 1.0);
            }
        }
    }

    #[test]
    fn empty_trace_yields_zero_everywhere() {
        let (plan, windows) = plan_trace(&[], SamplingConfig::default());
        let sim = SampledSim::measure(
            Policy::Lru,
            LINE,
            &SETS,
            MAX_ASSOC,
            StreamKind::Unified,
            &plan,
            &windows,
        );
        assert_eq!(sim.accesses(), 0);
        assert_eq!(sim.sim_accesses(), 0);
        assert_eq!(sim.misses(64, 2), 0);
        assert_eq!(sim.miss_ratio(64, 2), 0.0);
    }

    #[test]
    fn trace_shorter_than_one_interval_still_measures() {
        let t = trace(100);
        let cfg = SamplingConfig { interval_accesses: 8192, clusters: 4, ..Default::default() };
        let (plan, windows) = plan_trace(&t, cfg);
        assert_eq!(plan.intervals().len(), 1);
        let sim = SampledSim::measure(
            Policy::Lru,
            LINE,
            &SETS,
            MAX_ASSOC,
            StreamKind::Unified,
            &plan,
            &windows,
        );
        // One partial interval, one cluster, weight 1 — exact again.
        let exact = exact_grid(&t, StreamKind::Unified, Policy::Lru);
        assert_eq!(sampled_grid(&sim), exact);
    }

    #[test]
    fn warmup_longer_than_interval_is_clipped_and_harmless() {
        let t = trace(5000);
        let cfg = SamplingConfig {
            interval_accesses: 500,
            clusters: 3,
            warmup: 2000, // 4× the interval length
            ..Default::default()
        };
        let (plan, windows) = plan_trace(&t, cfg);
        for w in &windows {
            assert!(w.warmup.len() <= 2000);
            assert!(w.body.len() <= 500);
        }
        let sim = SampledSim::measure(
            Policy::Lru,
            LINE,
            &SETS,
            MAX_ASSOC,
            StreamKind::Unified,
            &plan,
            &windows,
        );
        let exact = exact_grid(&t, StreamKind::Unified, Policy::Lru);
        for (i, &s) in SETS.iter().enumerate() {
            for a in 1..=MAX_ASSOC {
                let e = exact[i * MAX_ASSOC as usize + (a - 1) as usize] as f64;
                let got = sim.misses_estimate(s, a);
                let rel = (got - e).abs() / e.max(1.0);
                assert!(rel < 0.35, "sets={s} assoc={a}: est {got:.0} vs exact {e:.0}");
            }
        }
    }

    #[test]
    fn identical_intervals_collapse_to_one_cluster_and_stay_exact_per_interval() {
        // 8 identical intervals: one cluster, weight 8; the estimate is
        // 8 × the representative's misses.
        let period: Vec<Access> = (0..1024u64).map(|i| Access::inst((i * 3) % 700)).collect();
        let t: Vec<Access> = period.iter().cycle().take(8 * 1024).copied().collect();
        let cfg = SamplingConfig {
            interval_accesses: 1024,
            clusters: 4,
            warmup: 0,
            ..Default::default()
        };
        let (plan, windows) = plan_trace(&t, cfg);
        assert_eq!(plan.clusters().len(), 1, "identical intervals must collapse");
        assert_eq!(plan.clusters()[0].intervals, 8);
        let sim = SampledSim::measure(
            Policy::Lru,
            LINE,
            &SETS,
            MAX_ASSOC,
            StreamKind::Unified,
            &plan,
            &windows,
        );
        let mut one = SinglePassSim::new(LINE, &SETS, MAX_ASSOC);
        one.run(windows[0].body.iter().map(|a| a.addr));
        for &s in &SETS {
            for a in 1..=MAX_ASSOC {
                assert_eq!(sim.misses_estimate(s, a), 8.0 * one.misses(s, a) as f64);
            }
        }
    }

    #[test]
    fn measurement_is_deterministic() {
        let t = trace(30_000);
        let cfg = SamplingConfig { interval_accesses: 2048, clusters: 6, ..Default::default() };
        let (plan, windows) = plan_trace(&t, cfg);
        let a = SampledSim::measure(
            Policy::Lru,
            LINE,
            &SETS,
            MAX_ASSOC,
            StreamKind::Unified,
            &plan,
            &windows,
        );
        let b = SampledSim::measure(
            Policy::Lru,
            LINE,
            &SETS,
            MAX_ASSOC,
            StreamKind::Unified,
            &plan,
            &windows,
        );
        for &s in &SETS {
            for assoc in 1..=MAX_ASSOC {
                assert_eq!(
                    a.misses_estimate(s, assoc).to_bits(),
                    b.misses_estimate(s, assoc).to_bits()
                );
            }
        }
    }

    /// Enough clusters for the ridge regression plus more intervals than
    /// representatives: the blended estimator (regression averaged with
    /// the cluster-weight fallback) must engage and stay close to exact.
    #[test]
    fn blended_estimator_engages_and_stays_accurate() {
        let t = trace(120_000);
        let cfg = SamplingConfig {
            interval_accesses: 1024,
            clusters: 16,
            warmup: 2048,
            ..Default::default()
        };
        let (plan, windows) = plan_trace(&t, cfg);
        // Preconditions of the regression branch in `measure`.
        assert!(windows.len() >= MIN_REGRESSION_REPS, "regression needs enough representatives");
        assert!(
            plan.intervals().len() > windows.len(),
            "regression only extrapolates when some intervals are unsimulated"
        );
        for policy in [Policy::Lru, Policy::Fifo] {
            for stream in [StreamKind::Instruction, StreamKind::Data, StreamKind::Unified] {
                let sim =
                    SampledSim::measure(policy, LINE, &SETS, MAX_ASSOC, stream, &plan, &windows);
                let exact = exact_grid(&t, stream, policy);
                let accesses = t.iter().filter(|a| stream.admits(a.kind)).count() as f64;
                for (point, (&got, &want)) in sampled_grid(&sim).iter().zip(&exact).enumerate() {
                    let diff = (got as f64 - want as f64).abs();
                    // Miss-ratio error everywhere; relative error only on
                    // points dense enough for it to be meaningful.
                    let ratio_err = diff / accesses;
                    assert!(
                        ratio_err < 0.01,
                        "{stream:?}/{policy:?} point {point}: sampled {got} vs exact {want} \
                         (miss-ratio err {ratio_err:.4})"
                    );
                    if want >= 1000 {
                        let rel = diff / want as f64;
                        assert!(
                            rel < 0.15,
                            "{stream:?}/{policy:?} point {point}: sampled {got} vs exact {want} \
                             ({rel:.3})"
                        );
                    }
                }
            }
        }
    }
}
