//! The LRU stack-distance engine: one pass, every capacity.
//!
//! Mattson's stack algorithm — the other half of the Cheetah simulator's
//! repertoire (Sugumar & Abraham) — reduces a trace to its global
//! (fully-associative) LRU stack-distance histogram. [`ReuseHistogram`]
//! maintains it exactly, in O(log n) per access, with the classic
//! marker-array + Fenwick-tree formulation.
//!
//! The histogram answers two kinds of question:
//!
//! * **Fully-associative capacity curves, exactly.** A reference at
//!   distance `d` hits a fully-associative LRU cache of `C` lines iff
//!   `d < C`, so `expected_misses(1, C)` is the exact miss count at every
//!   capacity from one pass.
//! * **Set-associative caches, analytically.** Following Ling et al.
//!   (*Fast Modeling L2 Cache Reuse Distance Histograms*), a reference
//!   with global reuse distance `d` lands in a set where, under the usual
//!   uniform-mapping assumption, the number of intervening distinct
//!   blocks that share its set is binomial `B(d, 1/S)`. The reference
//!   hits iff fewer than `A` of them do:
//!
//!   ```text
//!   P_hit(d, S, A) = Σ_{k=0}^{A-1} C(d, k) (1/S)^k (1 - 1/S)^(d-k)
//!   ```
//!
//!   One histogram therefore answers *every* (sets, assoc) point of an
//!   evaluation grid. With one set it is exact; with many it is an
//!   estimate that rests on the uniform-mapping assumption, so the
//!   sampled grid does not use it and simulates every set count.
//!
//! ```
//! use mhe_cache::ReuseHistogram;
//! let mut h = ReuseHistogram::new(4); // 4-word lines
//! // Touch lines 0,1,2 then re-touch line 0 (two other lines in between).
//! for addr in [0u64, 4, 8, 0] {
//!     h.observe(addr);
//! }
//! assert_eq!(h.expected_misses(1, 2), 4.0); // 2 lines: the re-touch misses
//! assert_eq!(h.expected_misses(1, 3), 3.0); // 3 lines: it hits
//! ```

use std::collections::HashMap;

/// Fenwick (binary indexed) tree over marker bits, growable.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// Appends one zero-valued position. A Fenwick node covers the
    /// range `(i & (i+1))..=i`, so the new node must be seeded with the
    /// sum its range already holds — plain `resize(.., 0)` would break
    /// the invariant.
    fn push_zero(&mut self) {
        let i = self.tree.len();
        let lo = i & (i + 1);
        let val = if lo == i {
            0
        } else {
            self.prefix(i - 1) - if lo == 0 { 0 } else { self.prefix(lo - 1) }
        };
        self.tree.push(val as u32);
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + i64::from(delta)) as u32;
            i |= i + 1;
        }
    }

    /// Sum of positions `0..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        let mut sum = 0u64;
        loop {
            sum += u64::from(self.tree[i]);
            let parent = (i & (i + 1)).wrapping_sub(1);
            if parent == usize::MAX {
                break;
            }
            i = parent;
        }
        sum
    }
}

/// Exact global LRU stack-distance histogram of a line-address stream.
#[derive(Debug, Clone)]
pub struct ReuseHistogram {
    line_words: u64,
    /// block -> marker position of its most recent access.
    last: HashMap<u64, usize>,
    marks: Fenwick,
    time: usize,
    /// `hist[d]` = number of references at stack distance `d` (distinct
    /// other blocks touched since the previous access to the block).
    hist: Vec<u64>,
    cold: u64,
    accesses: u64,
}

impl ReuseHistogram {
    /// Creates an empty histogram for `line_words`-word cache lines.
    pub fn new(line_words: u32) -> Self {
        Self {
            line_words: u64::from(line_words),
            last: HashMap::new(),
            marks: Fenwick::default(),
            time: 0,
            hist: Vec::new(),
            cold: 0,
            accesses: 0,
        }
    }

    /// Observes one word-address reference.
    pub fn observe(&mut self, addr: u64) {
        let block = addr / self.line_words;
        self.marks.push_zero();
        match self.last.insert(block, self.time) {
            Some(prev) => {
                // Distinct blocks since the previous access = markers
                // strictly after `prev` (each live block has exactly one
                // marker, at its latest access; `prefix` is inclusive of
                // the marker at `prev` itself).
                let d = self.last.len() as u64 - self.marks.prefix(prev);
                let d = d as usize;
                if self.hist.len() <= d {
                    self.hist.resize(d + 1, 0);
                }
                self.hist[d] += 1;
                self.marks.add(prev, -1);
            }
            None => self.cold += 1,
        }
        self.marks.add(self.time, 1);
        self.time += 1;
        self.accesses += 1;
    }

    /// Accesses observed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Cold (first-reference) accesses so far.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// The raw distance histogram observed so far: entry `d` counts
    /// re-references with `d` distinct other lines touched since the
    /// previous reference to the same line (they hit every
    /// fully-associative cache of more than `d` lines).
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// Expected LRU misses over the whole observed stream, for a
    /// `sets × assoc` cache with this histogram's line size.
    ///
    /// Cold references always miss; a reuse at distance `d` misses with
    /// probability `1 - P_hit(d, sets, assoc)` under uniform set
    /// mapping. Distances below `assoc` can never miss.
    pub fn expected_misses(&self, sets: u32, assoc: u32) -> f64 {
        let mut misses = self.cold as f64;
        for (d, &n) in self.hist.iter().enumerate() {
            if n > 0 {
                misses += n as f64 * p_miss(d as u64, sets, assoc);
            }
        }
        misses
    }
}

/// `1 - P_hit(d, S, A)`: binomial tail computed iteratively in O(A).
fn p_miss(d: u64, sets: u32, assoc: u32) -> f64 {
    if d < u64::from(assoc) {
        return 0.0; // even adversarial mapping cannot evict it
    }
    if sets <= 1 {
        return 1.0; // fully shared set: d >= assoc distinct blocks evict
    }
    let s = f64::from(sets);
    let q = 1.0 - 1.0 / s;
    // term_0 = q^d; term_{k+1} = term_k * (d-k) / ((k+1) (S-1)).
    let mut term = q.powi(d as i32);
    let mut p_hit = term;
    for k in 0..u64::from(assoc) - 1 {
        term *= (d - k) as f64 / ((k + 1) as f64 * (s - 1.0));
        p_hit += term;
    }
    (1.0 - p_hit).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use crate::{CacheConfig, SinglePassSim};

    fn mixed_trace(n: usize) -> Vec<u64> {
        let mut x = 0x12345u64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(3) {
                    (i as u64) % 512
                } else {
                    (x >> 30) % 2048
                }
            })
            .collect()
    }

    fn histogram_of(line_words: u32, trace: &[u64]) -> ReuseHistogram {
        let mut h = ReuseHistogram::new(line_words);
        for &a in trace {
            h.observe(a);
        }
        h
    }

    #[test]
    fn fully_associative_expectation_is_exact() {
        // With sets=1 the binomial model degenerates to the exact LRU
        // stack rule (miss iff distance >= assoc), so it matches direct
        // simulation at every capacity.
        let cyclic: Vec<u64> = (0..4000u64).map(|i| (i * 37) % 256).collect();
        for (line_words, trace) in [(1, cyclic), (4, mixed_trace(20_000))] {
            let h = histogram_of(line_words, &trace);
            for cap in [1u32, 2, 8, 32, 64, 128, 512] {
                let config = CacheConfig::new(1, cap, line_words);
                let direct = simulate(config, trace.iter().copied());
                assert_eq!(h.expected_misses(1, cap), direct.misses as f64, "{config:?}");
            }
        }
    }

    #[test]
    fn misses_monotone_in_capacity() {
        let h = histogram_of(1, &mixed_trace(10_000));
        let mut prev = f64::INFINITY;
        for cap in 1..200 {
            let m = h.expected_misses(1, cap);
            assert!(m <= prev, "capacity {cap}: {m} > {prev}");
            prev = m;
        }
    }

    #[test]
    fn cold_misses_are_the_floor() {
        let h = histogram_of(1, &mixed_trace(10_000));
        assert_eq!(h.expected_misses(1, u32::MAX), h.cold() as f64);
    }

    #[test]
    fn histogram_accounts_for_every_access() {
        let h = histogram_of(2, &mixed_trace(5_000));
        assert_eq!(h.histogram().iter().sum::<u64>() + h.cold(), h.accesses());
    }

    #[test]
    fn minimal_capacity_for_a_target_miss_rate_agrees_with_simulation() {
        let trace = mixed_trace(20_000);
        let h = histogram_of(1, &trace);
        let direct_rate = |cap: u32| {
            simulate(CacheConfig::new(1, cap, 1), trace.iter().copied()).misses as f64
                / trace.len() as f64
        };
        let mut found = 0;
        for target in [0.5, 0.2, 0.1] {
            let limit = h.histogram().len() as u32 + 1;
            let Some(cap) =
                (1..=limit).find(|&cap| h.expected_misses(1, cap) / h.accesses() as f64 <= target)
            else {
                continue;
            };
            found += 1;
            assert!(direct_rate(cap) <= target + 1e-12, "cap {cap} misses {target}");
            if cap > 1 {
                assert!(direct_rate(cap - 1) > target, "cap {cap} not minimal for {target}");
            }
        }
        assert!(found > 0, "some target must be reachable");
        // Pure streaming: every access is cold, so no capacity reaches 50%.
        let streaming = histogram_of(1, &(0..1000u64).collect::<Vec<_>>());
        assert_eq!(streaming.cold(), 1000);
        assert_eq!(streaming.expected_misses(1, u32::MAX), 1000.0);
    }

    #[test]
    fn distances_of_a_cyclic_scan_are_exact() {
        // Scanning 0..B cyclically: every non-cold access has distance
        // B-1 (all other blocks touched in between).
        let mut h = ReuseHistogram::new(1);
        for i in 0..300u64 {
            h.observe(i % 30);
        }
        assert_eq!(h.cold(), 30);
        assert_eq!(h.histogram()[29], 270);
        assert_eq!(h.histogram().iter().sum::<u64>(), 270);
    }

    #[test]
    fn many_set_expectation_tracks_simulation() {
        // The binomial approximation should land within a few percent of
        // exact simulation once sets are plentiful.
        let addrs: Vec<u64> =
            (0..60_000u64).map(|i| ((i * 17) ^ (i >> 3).wrapping_mul(7919)) % 100_000).collect();
        let mut h = ReuseHistogram::new(8);
        let mut sim = SinglePassSim::new(8, &[512], 4);
        for &a in &addrs {
            h.observe(a);
            sim.access(a);
        }
        for assoc in 1..=4u32 {
            let exact = sim.misses(512, assoc) as f64;
            let est = h.expected_misses(512, assoc);
            let rel = (est - exact).abs() / exact.max(1.0);
            assert!(rel < 0.05, "assoc={assoc}: est={est:.1} exact={exact:.1} rel={rel:.4}");
        }
    }

    #[test]
    fn p_miss_boundaries() {
        assert_eq!(p_miss(0, 64, 1), 0.0);
        assert_eq!(p_miss(3, 64, 4), 0.0);
        assert_eq!(p_miss(4, 1, 4), 1.0);
        let p = p_miss(100, 64, 2);
        assert!(p > 0.0 && p < 1.0);
    }
}
