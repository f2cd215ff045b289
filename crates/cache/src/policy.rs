//! Replacement policies and the per-set engines that implement them.
//!
//! A [`Policy`] names *which* line a set evicts on a miss; a
//! [`ReplacementPolicy`] engine is the stateful per-set machine that
//! answers lookups and picks victims. Both simulators in this crate —
//! the direct oracle [`crate::sim::Cache`] and the fallback path of
//! [`crate::single_pass::SinglePassSim`] — drive the *same* engines via
//! [`Policy::new_set`], so a policy cannot mean different things in
//! different simulators.
//!
//! Four policies are provided:
//!
//! * [`Policy::Lru`] — true least-recently-used (the paper's baseline);
//! * [`Policy::Fifo`] — first-in-first-out: hits do not refresh a line;
//! * [`Policy::PlruTree`] — tree pseudo-LRU, the common hardware
//!   approximation (one bit per internal tree node);
//! * [`Policy::Random`]`(seed)` — uniformly random victim from a seeded
//!   per-set generator, deterministic across runs and threads.
//!
//! Determinism contract: an engine's behaviour is a pure function of the
//! policy, the set geometry, the set index, and the access sequence.
//! Nothing depends on wall-clock, global RNG state, or thread identity,
//! which is what lets the evaluator fan simulations out across threads
//! and still produce bit-identical results.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// Seed used when a random policy is requested without an explicit seed
/// (e.g. `--policy random`).
pub const DEFAULT_RANDOM_SEED: u64 = 0x5EED_CAFE;

/// A cache replacement policy.
///
/// `Policy` is `Copy` and rides inside [`crate::CacheConfig`], so two
/// configurations with the same geometry but different policies compare
/// unequal, hash differently, and key distinct entries in measured-miss
/// tables and the on-disk evaluation cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Policy {
    /// Least-recently-used: a hit moves the line to MRU.
    #[default]
    Lru,
    /// First-in-first-out: victims leave in insertion order; hits do not
    /// change the queue.
    Fifo,
    /// Tree pseudo-LRU: one direction bit per internal node of a binary
    /// tree over the ways. For non-power-of-two associativity the victim
    /// leaf is clamped to the last real way (deterministic, documented
    /// in DESIGN.md §13).
    PlruTree,
    /// Random victim selection from a per-set deterministic generator
    /// seeded with this value.
    Random(u64),
}

impl Policy {
    /// Whether the single-pass simulator has a native (one-structure)
    /// formulation for this policy: LRU via Mattson stacks, FIFO via
    /// bounded insertion rings. Other policies fall back to
    /// per-configuration direct simulation inside the same pass.
    pub fn single_pass_native(self) -> bool {
        matches!(self, Policy::Lru | Policy::Fifo)
    }

    /// Builds the per-set replacement engine for a set of `assoc` ways.
    ///
    /// `set_index` individualizes the random stream per set so striped
    /// address patterns don't see correlated victims.
    pub fn new_set(self, assoc: u32, set_index: u64) -> SetEngine {
        match self {
            Policy::Lru => SetEngine::Lru(LruSet::new(assoc)),
            Policy::Fifo => SetEngine::Fifo(FifoSet::new(assoc)),
            Policy::PlruTree => SetEngine::Plru(PlruSet::new(assoc)),
            Policy::Random(seed) => SetEngine::Random(RandomSet::new(assoc, seed, set_index)),
        }
    }

    /// All stock policies, with the default random seed — handy for
    /// differential tests that must cover every variant.
    pub fn all() -> [Policy; 4] {
        [Policy::Lru, Policy::Fifo, Policy::PlruTree, Policy::Random(DEFAULT_RANDOM_SEED)]
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Lru => write!(f, "lru"),
            Policy::Fifo => write!(f, "fifo"),
            Policy::PlruTree => write!(f, "plru"),
            Policy::Random(seed) => write!(f, "random:{seed:#x}"),
        }
    }
}

impl FromStr for Policy {
    type Err = String;

    /// Parses `lru`, `fifo`, `plru`, `random`, or `random:SEED` where
    /// `SEED` is decimal or `0x`-prefixed hex.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "lru" => Ok(Policy::Lru),
            "fifo" => Ok(Policy::Fifo),
            "plru" => Ok(Policy::PlruTree),
            "random" => Ok(Policy::Random(DEFAULT_RANDOM_SEED)),
            other => match other.strip_prefix("random:") {
                Some(seed) => {
                    let parsed = match seed.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => seed.parse(),
                    };
                    parsed
                        .map(Policy::Random)
                        .map_err(|_| format!("bad random seed {seed:?} in policy {other:?}"))
                }
                None => Err(format!(
                    "unknown policy {other:?} (expected lru, fifo, plru, random[:SEED])"
                )),
            },
        }
    }
}

/// The per-set state machine behind one cache set.
///
/// `lookup` answers a reference (updating recency state on a hit);
/// `insert` admits a missed block, evicting a victim from a full set.
pub trait ReplacementPolicy {
    /// References `block`; returns whether it was resident. A hit may
    /// update replacement state (LRU recency, PLRU direction bits).
    fn lookup(&mut self, block: u64) -> bool;

    /// Inserts `block` after a miss, evicting a victim if the set is
    /// full. Callers must only insert blocks that just missed.
    fn insert(&mut self, block: u64);

    /// Residency probe that never perturbs replacement state.
    fn contains(&self, block: u64) -> bool;

    /// Number of resident lines.
    fn resident(&self) -> usize;

    /// Empties the set and rewinds internal state (the random stream
    /// restarts, so a cleared engine replays identically).
    fn clear(&mut self);
}

/// True-LRU set: a recency-ordered vector, MRU first.
#[derive(Debug, Clone)]
pub struct LruSet {
    cap: usize,
    ways: Vec<u64>,
}

impl LruSet {
    fn new(assoc: u32) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        Self { cap: assoc as usize, ways: Vec::with_capacity(assoc as usize) }
    }
}

impl ReplacementPolicy for LruSet {
    fn lookup(&mut self, block: u64) -> bool {
        if let Some(pos) = self.ways.iter().position(|&b| b == block) {
            self.ways[..=pos].rotate_right(1);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, block: u64) {
        if self.ways.len() == self.cap {
            self.ways.pop();
        }
        self.ways.insert(0, block);
    }

    fn contains(&self, block: u64) -> bool {
        self.ways.contains(&block)
    }

    fn resident(&self) -> usize {
        self.ways.len()
    }

    fn clear(&mut self) {
        self.ways.clear();
    }
}

/// FIFO set: a queue in insertion order; hits don't touch it.
#[derive(Debug, Clone)]
pub struct FifoSet {
    cap: usize,
    ways: VecDeque<u64>,
}

impl FifoSet {
    fn new(assoc: u32) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        Self { cap: assoc as usize, ways: VecDeque::with_capacity(assoc as usize) }
    }
}

impl ReplacementPolicy for FifoSet {
    fn lookup(&mut self, block: u64) -> bool {
        self.ways.contains(&block)
    }

    fn insert(&mut self, block: u64) {
        if self.ways.len() == self.cap {
            self.ways.pop_front();
        }
        self.ways.push_back(block);
    }

    fn contains(&self, block: u64) -> bool {
        self.ways.contains(&block)
    }

    fn resident(&self) -> usize {
        self.ways.len()
    }

    fn clear(&mut self) {
        self.ways.clear();
    }
}

/// Tree pseudo-LRU set.
///
/// One direction bit per internal node of a binary tree whose leaves are
/// the ways (padded to the next power of two). An access flips every
/// node on its path to point *away* from the accessed way; the victim is
/// found by following the bits from the root. Ways fill in index order
/// before any eviction happens; with a non-power-of-two way count the
/// victim leaf is clamped to the last real way.
#[derive(Debug, Clone)]
pub struct PlruSet {
    cap: usize,
    /// Leaf count: `cap` rounded up to a power of two.
    leaves: usize,
    /// Direction bits, heap-indexed from 1 (bit set = victim on the
    /// right). Bit 0 is unused.
    bits: u64,
    /// `ways[i]` is the block in way `i`; ways fill front to back.
    ways: Vec<u64>,
}

impl PlruSet {
    fn new(assoc: u32) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        assert!(assoc <= 64, "tree PLRU supports at most 64 ways");
        let cap = assoc as usize;
        Self { cap, leaves: cap.next_power_of_two(), bits: 0, ways: Vec::with_capacity(cap) }
    }

    /// Points every node on `way`'s root path away from it.
    fn touch(&mut self, way: usize) {
        let (mut lo, mut hi, mut node) = (0usize, self.leaves, 1usize);
        while hi - lo > 1 {
            let mid = usize::midpoint(lo, hi);
            let right = way >= mid;
            if right {
                self.bits &= !(1u64 << node); // protect right: victim left
                lo = mid;
            } else {
                self.bits |= 1u64 << node; // protect left: victim right
                hi = mid;
            }
            node = 2 * node + usize::from(right);
        }
    }

    /// Follows the direction bits from the root to the victim way.
    fn victim(&self) -> usize {
        let (mut lo, mut hi, mut node) = (0usize, self.leaves, 1usize);
        while hi - lo > 1 {
            let mid = usize::midpoint(lo, hi);
            let right = (self.bits >> node) & 1 == 1;
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
            node = 2 * node + usize::from(right);
        }
        // Padding leaves (non-power-of-two associativity) clamp to the
        // last real way.
        lo.min(self.cap - 1)
    }
}

impl ReplacementPolicy for PlruSet {
    fn lookup(&mut self, block: u64) -> bool {
        if let Some(way) = self.ways.iter().position(|&b| b == block) {
            self.touch(way);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, block: u64) {
        let way = if self.ways.len() < self.cap {
            self.ways.push(block);
            self.ways.len() - 1
        } else {
            let way = self.victim();
            self.ways[way] = block;
            way
        };
        self.touch(way);
    }

    fn contains(&self, block: u64) -> bool {
        self.ways.contains(&block)
    }

    fn resident(&self) -> usize {
        self.ways.len()
    }

    fn clear(&mut self) {
        self.ways.clear();
        self.bits = 0;
    }
}

/// Random-replacement set with a private SplitMix64 stream.
///
/// The stream is seeded from `(policy seed, set index)`, so every
/// instance of the same configuration — on any thread, in any process —
/// draws the same victim sequence. [`ReplacementPolicy::clear`] rewinds
/// the stream to its initial state.
#[derive(Debug, Clone)]
pub struct RandomSet {
    cap: usize,
    ways: Vec<u64>,
    /// Initial stream state, restored by `clear`.
    seed_state: u64,
    state: u64,
}

impl RandomSet {
    fn new(assoc: u32, seed: u64, set_index: u64) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        // Decorrelate per-set streams: finalize (seed, set) through one
        // SplitMix64 round.
        let mut s = seed ^ (set_index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        s = splitmix64(&mut s);
        Self {
            cap: assoc as usize,
            ways: Vec::with_capacity(assoc as usize),
            seed_state: s,
            state: s,
        }
    }
}

/// One SplitMix64 step: advances `state` and returns the output word.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ReplacementPolicy for RandomSet {
    fn lookup(&mut self, block: u64) -> bool {
        self.ways.contains(&block)
    }

    fn insert(&mut self, block: u64) {
        if self.ways.len() < self.cap {
            self.ways.push(block);
        } else {
            // Draw only on evictions so hit-heavy traces don't desync
            // the stream between otherwise-identical runs.
            let way = (splitmix64(&mut self.state) % self.cap as u64) as usize;
            self.ways[way] = block;
        }
    }

    fn contains(&self, block: u64) -> bool {
        self.ways.contains(&block)
    }

    fn resident(&self) -> usize {
        self.ways.len()
    }

    fn clear(&mut self) {
        self.ways.clear();
        self.state = self.seed_state;
    }
}

/// Enum dispatch over the concrete set engines.
///
/// An enum (rather than `Box<dyn ReplacementPolicy>`) keeps sets
/// `Clone + Send + Sync` for the parallel fan-out and avoids a heap
/// allocation per set.
#[derive(Debug, Clone)]
pub enum SetEngine {
    /// True LRU.
    Lru(LruSet),
    /// FIFO.
    Fifo(FifoSet),
    /// Tree pseudo-LRU.
    Plru(PlruSet),
    /// Seeded random.
    Random(RandomSet),
}

impl ReplacementPolicy for SetEngine {
    fn lookup(&mut self, block: u64) -> bool {
        match self {
            SetEngine::Lru(s) => s.lookup(block),
            SetEngine::Fifo(s) => s.lookup(block),
            SetEngine::Plru(s) => s.lookup(block),
            SetEngine::Random(s) => s.lookup(block),
        }
    }

    fn insert(&mut self, block: u64) {
        match self {
            SetEngine::Lru(s) => s.insert(block),
            SetEngine::Fifo(s) => s.insert(block),
            SetEngine::Plru(s) => s.insert(block),
            SetEngine::Random(s) => s.insert(block),
        }
    }

    fn contains(&self, block: u64) -> bool {
        match self {
            SetEngine::Lru(s) => s.contains(block),
            SetEngine::Fifo(s) => s.contains(block),
            SetEngine::Plru(s) => s.contains(block),
            SetEngine::Random(s) => s.contains(block),
        }
    }

    fn resident(&self) -> usize {
        match self {
            SetEngine::Lru(s) => s.resident(),
            SetEngine::Fifo(s) => s.resident(),
            SetEngine::Plru(s) => s.resident(),
            SetEngine::Random(s) => s.resident(),
        }
    }

    fn clear(&mut self) {
        match self {
            SetEngine::Lru(s) => s.clear(),
            SetEngine::Fifo(s) => s.clear(),
            SetEngine::Plru(s) => s.clear(),
            SetEngine::Random(s) => s.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(engine: &mut SetEngine, blocks: &[u64]) -> u64 {
        let mut misses = 0;
        for &b in blocks {
            if !engine.lookup(b) {
                misses += 1;
                engine.insert(b);
            }
        }
        misses
    }

    #[test]
    fn display_fromstr_roundtrip() {
        for p in
            [Policy::Lru, Policy::Fifo, Policy::PlruTree, Policy::Random(7), Policy::Random(0xAB)]
        {
            let s = p.to_string();
            assert_eq!(s.parse::<Policy>().unwrap(), p, "roundtrip {s}");
        }
        assert_eq!("random".parse::<Policy>().unwrap(), Policy::Random(DEFAULT_RANDOM_SEED));
        assert_eq!("random:12".parse::<Policy>().unwrap(), Policy::Random(12));
        assert_eq!("random:0x1f".parse::<Policy>().unwrap(), Policy::Random(0x1f));
        assert!("mru".parse::<Policy>().is_err());
        assert!("random:zz".parse::<Policy>().is_err());
    }

    #[test]
    fn assoc_one_every_policy_is_direct_mapped() {
        // With a single way there is nothing to choose: all policies
        // must produce identical miss counts on any trace.
        let blocks: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 13).collect();
        let baseline = drive(&mut Policy::Lru.new_set(1, 0), &blocks);
        for p in Policy::all() {
            let mut e = p.new_set(1, 0);
            assert_eq!(drive(&mut e, &blocks), baseline, "{p}");
            assert_eq!(e.resident(), 1);
        }
    }

    #[test]
    fn lru_and_fifo_diverge_on_refresh() {
        // 2 ways: A B A C — LRU protects the re-referenced A (evicts B);
        // FIFO evicts A, the oldest insertion.
        for (p, a_resident) in [(Policy::Lru, true), (Policy::Fifo, false)] {
            let mut e = p.new_set(2, 0);
            drive(&mut e, &[10, 20, 10, 30]);
            assert_eq!(e.contains(10), a_resident, "{p}");
        }
    }

    #[test]
    fn plru_single_access_path_protects_accessed_way() {
        // 4 ways filled with 0..4 (touch order leaves way 3 most
        // protected); accessing way 0 then inserting must not evict 0.
        let mut e = Policy::PlruTree.new_set(4, 0);
        for b in 0..4u64 {
            e.insert(b);
        }
        assert!(e.lookup(0));
        e.insert(99);
        assert!(e.contains(0), "PLRU must not evict the just-touched way");
        assert!(e.contains(99));
        let gone = (1..4u64).filter(|&b| !e.contains(b)).count();
        assert_eq!(gone, 1, "a full set evicts exactly one old resident");
        assert_eq!(e.resident(), 4);
    }

    #[test]
    fn plru_non_power_of_two_assoc_is_deterministic() {
        let run = || {
            let mut e = Policy::PlruTree.new_set(3, 5);
            let blocks: Vec<u64> = (0..200u64).map(|i| (i * 31) % 9).collect();
            let m = drive(&mut e, &blocks);
            (m, (0..9u64).filter(|&b| e.contains(b)).collect::<Vec<_>>())
        };
        assert_eq!(run(), run());
        assert_eq!(run().1.len(), 3);
    }

    #[test]
    fn random_streams_are_deterministic_and_rewound_by_clear() {
        let blocks: Vec<u64> = (0..1000u64).map(|i| (i * 2654435761) % 23).collect();
        let mut a = Policy::Random(42).new_set(4, 9);
        let mut b = Policy::Random(42).new_set(4, 9);
        let misses = drive(&mut a, &blocks);
        assert_eq!(misses, drive(&mut b, &blocks), "identical instances must agree");
        let first: Vec<u64> = (0..23u64).filter(|&x| a.contains(x)).collect();
        a.clear();
        assert_eq!(a.resident(), 0);
        assert_eq!(drive(&mut a, &blocks), misses, "clear must replay identically");
        let again: Vec<u64> = (0..23u64).filter(|&x| a.contains(x)).collect();
        assert_eq!(first, again, "clear must rewind the random stream");
    }

    #[test]
    fn random_streams_differ_across_sets_and_seeds() {
        // Not a hard guarantee for every seed pair, but these
        // particular streams must be decorrelated.
        let blocks: Vec<u64> = (0..400u64).map(|i| (i * 7) % 11).collect();
        let contents = |seed: u64, set: u64| {
            let mut e = Policy::Random(seed).new_set(2, set);
            drive(&mut e, &blocks);
            (0..11u64).filter(|&x| e.contains(x)).collect::<Vec<_>>()
        };
        assert!(
            contents(1, 0) != contents(1, 1) || contents(2, 0) != contents(2, 1),
            "per-set streams should decorrelate"
        );
    }

    #[test]
    fn insert_evicts_exactly_one_resident_for_every_policy() {
        for p in Policy::all() {
            let mut e = p.new_set(2, 0);
            e.insert(1);
            e.insert(2);
            assert!(e.contains(1) && e.contains(2), "{p}: a set with room evicts nothing");
            e.insert(3);
            assert!(e.contains(3), "{p}");
            let gone = [1u64, 2].iter().filter(|&&b| !e.contains(b)).count();
            assert_eq!(gone, 1, "{p}: a full set evicts exactly one old resident");
            assert_eq!(e.resident(), 2);
        }
    }

    #[test]
    fn single_pass_native_flags() {
        assert!(Policy::Lru.single_pass_native());
        assert!(Policy::Fifo.single_pass_native());
        assert!(!Policy::PlruTree.single_pass_native());
        assert!(!Policy::Random(0).single_pass_native());
    }
}
