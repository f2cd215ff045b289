//! Direct set-associative cache simulation under any replacement policy.
//!
//! [`Cache`] is the plain, one-configuration-at-a-time simulator: it serves
//! as the correctness oracle for the single-pass simulator and simulates
//! the ground-truth traces the dilation model is validated against. The
//! replacement policy is taken from [`CacheConfig::policy`]; each set runs
//! its own [`crate::policy::SetEngine`].

use crate::config::CacheConfig;
use crate::policy::{ReplacementPolicy, SetEngine};
use mhe_trace::{Access, StreamKind};

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissStats {
    /// Total references.
    pub accesses: u64,
    /// References that missed.
    pub misses: u64,
}

impl MissStats {
    /// Miss rate in `[0, 1]`; 0 for an empty trace.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hits.
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }
}

/// A set-associative cache simulator (any [`crate::Policy`]).
///
/// # Examples
///
/// ```
/// use mhe_cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(2, 1, 1));
/// assert!(!c.access(0)); // cold miss
/// assert!(c.access(0));  // hit
/// assert!(!c.access(2)); // maps to set 0, evicts line 0
/// assert!(!c.access(0)); // conflict miss
/// assert_eq!(c.stats().misses, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(config.line_words)`: a word address shifted right by it is
    /// its block.
    line_shift: u32,
    /// `config.sets - 1`: a block masked by it is its set.
    set_mask: u64,
    /// Per-set replacement engines, indexed by set.
    sets: Vec<SetEngine>,
    stats: MissStats,
}

impl Cache {
    /// Creates an empty cache running `config.policy`.
    ///
    /// # Panics
    ///
    /// Panics if `config.sets` or `config.line_words` is not a power of
    /// two ([`CacheConfig`]'s fields are public, so [`CacheConfig::new`]'s
    /// checks may have been bypassed).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets {} must be a power of two", config.sets);
        assert!(
            config.line_words.is_power_of_two(),
            "line size {} words must be a power of two",
            config.line_words
        );
        Self {
            line_shift: config.line_words.trailing_zeros(),
            set_mask: u64::from(config.sets - 1),
            sets: (0..u64::from(config.sets))
                .map(|i| config.policy.new_set(config.assoc, i))
                .collect(),
            config,
            stats: MissStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// References a word address; returns whether it hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let block = addr >> self.line_shift;
        let set = &mut self.sets[(block & self.set_mask) as usize];
        if set.lookup(block) {
            true
        } else {
            self.stats.misses += 1;
            set.insert(block);
            false
        }
    }

    /// Runs a whole trace through the cache.
    pub fn run(&mut self, trace: impl IntoIterator<Item = u64>) -> MissStats {
        for addr in trace {
            self.access(addr);
        }
        self.stats
    }

    /// Feeds a chunk of an access stream, admitting only the references
    /// that belong to `stream`.
    ///
    /// State carries across calls, so captured traces can be replayed
    /// chunk by chunk; chunking never changes the resulting statistics.
    pub fn run_stream(
        &mut self,
        stream: StreamKind,
        chunk: impl IntoIterator<Item = Access>,
    ) -> MissStats {
        for a in chunk {
            if stream.admits(a.kind) {
                self.access(a.addr);
            }
        }
        self.stats
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MissStats {
        self.stats
    }

    /// Whether a word's line is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        self.sets[(block & self.set_mask) as usize].contains(block)
    }

    /// Clears contents and statistics; a random policy's victim stream
    /// rewinds, so a reset cache replays a trace identically.
    pub fn reset(&mut self) {
        self.sets.iter_mut().for_each(ReplacementPolicy::clear);
        self.stats = MissStats::default();
    }
}

/// Simulates one configuration over a trace, starting cold.
///
/// Convenience for experiments; equivalent to `Cache::new(cfg).run(trace)`.
pub fn simulate(config: CacheConfig, trace: impl IntoIterator<Item = u64>) -> MissStats {
    Cache::new(config).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_a_hand_built_non_power_of_two_geometry() {
        // The fields are public, so `CacheConfig::new`'s checks can be
        // skipped; the shift and mask would then pick wrong sets.
        let _ = Cache::new(CacheConfig { sets: 6, ..CacheConfig::new(4, 1, 4) });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_a_hand_built_non_power_of_two_line() {
        let _ = Cache::new(CacheConfig { line_words: 3, ..CacheConfig::new(4, 1, 4) });
    }

    #[test]
    fn cold_start_all_misses() {
        let mut c = Cache::new(CacheConfig::new(4, 2, 4));
        let misses = (0..32).map(|i| c.access(i * 4)).filter(|h| !h).count();
        assert_eq!(misses, 32);
    }

    #[test]
    fn spatial_locality_within_line_hits() {
        let mut c = Cache::new(CacheConfig::new(4, 1, 8));
        assert!(!c.access(16)); // miss loads words 16..24
        for w in 17..24 {
            assert!(c.access(w), "word {w} should hit");
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(CacheConfig::new(1, 2, 1));
        c.access(0);
        c.access(1);
        c.access(0); // 0 now MRU; LRU is 1
        assert!(!c.access(2)); // evicts 1
        assert!(c.access(0));
        assert!(!c.access(1));
    }

    #[test]
    fn full_associativity_has_no_conflicts() {
        // 1 set x 8 ways: 8 distinct lines all fit.
        let mut c = Cache::new(CacheConfig::new(1, 8, 1));
        for i in 0..8 {
            c.access(i);
        }
        for i in 0..8 {
            assert!(c.access(i), "line {i} should be resident");
        }
        assert_eq!(c.stats().misses, 8);
    }

    #[test]
    fn full_associativity_is_policy_independent_below_capacity() {
        // Until capacity is exceeded no policy ever evicts, so a fully
        // associative cache shows compulsory misses only — identically
        // for LRU, FIFO, PLRU, and random.
        for policy in crate::Policy::all() {
            let mut c = Cache::new(CacheConfig::new(1, 8, 1).with_policy(policy));
            for round in 0..3 {
                for i in 0..8 {
                    assert_eq!(c.access(i), round > 0, "{policy}: line {i} round {round}");
                }
            }
            assert_eq!(c.stats().misses, 8, "{policy}: compulsory misses only");
        }
    }

    #[test]
    fn higher_associativity_never_more_misses_on_loops() {
        // LRU inclusion property: for the same sets/line, misses are
        // monotonically non-increasing in associativity.
        let trace: Vec<u64> = (0..10_000u64).map(|i| (i * 37) % 512).collect();
        let mut prev = u64::MAX;
        for assoc in [1, 2, 4, 8] {
            let s = simulate(CacheConfig::new(16, assoc, 2), trace.iter().copied());
            assert!(s.misses <= prev, "assoc {assoc}: {} > {prev}", s.misses);
            prev = s.misses;
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cache::new(CacheConfig::new(2, 1, 1));
        c.access(0);
        c.access(1);
        c.reset();
        assert_eq!(c.stats(), MissStats::default());
        assert!(!c.contains(0));
    }

    #[test]
    fn run_stream_matches_filtered_run() {
        let accesses: Vec<Access> = (0..5_000u64)
            .map(|i| match i % 3 {
                0 => Access::inst((i * 37) % 512),
                1 => Access::load((i * 13) % 900),
                _ => Access::store((i * 7) % 300),
            })
            .collect();
        for stream in [StreamKind::Instruction, StreamKind::Data, StreamKind::Unified] {
            let direct = simulate(
                CacheConfig::new(8, 2, 4),
                accesses.iter().filter(|a| stream.admits(a.kind)).map(|a| a.addr),
            );
            let mut chunked = Cache::new(CacheConfig::new(8, 2, 4));
            for chunk in accesses.chunks(123) {
                chunked.run_stream(stream, chunk.iter().copied());
            }
            assert_eq!(chunked.stats(), direct, "{stream:?}");
        }
    }

    #[test]
    fn zero_length_trace_is_identity_for_every_policy() {
        for p in crate::Policy::all() {
            let s = simulate(CacheConfig::new(4, 2, 2).with_policy(p), std::iter::empty());
            assert_eq!(s, MissStats::default(), "{p}");
        }
    }

    #[test]
    fn random_policy_reset_replays_identically() {
        let trace: Vec<u64> = (0..20_000u64).map(|i| (i.wrapping_mul(48271)) % 4096).collect();
        let cfg = CacheConfig::new(8, 4, 2).with_policy(crate::Policy::Random(99));
        let mut c = Cache::new(cfg);
        let first = c.run(trace.iter().copied());
        c.reset();
        let second = c.run(trace.iter().copied());
        assert_eq!(first, second, "reset must rewind the victim stream");
        // And a fresh instance agrees too (no hidden global state).
        assert_eq!(simulate(cfg, trace.iter().copied()), first);
    }

    #[test]
    fn single_set_cache_works_for_every_policy() {
        // One set, 4 ways: a working set of 4 lines fits under any
        // policy, so only the 4 compulsory misses remain.
        let trace: Vec<u64> = (0..50u64).map(|i| i % 4).collect();
        for p in crate::Policy::all() {
            let s = simulate(CacheConfig::new(1, 4, 1).with_policy(p), trace.iter().copied());
            assert_eq!(s.misses, 4, "{p}");
        }
    }

    #[test]
    fn miss_rate_bounds() {
        let s = MissStats { accesses: 10, misses: 3 };
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
        assert_eq!(s.hits(), 7);
        assert_eq!(MissStats::default().miss_rate(), 0.0);
    }
}
