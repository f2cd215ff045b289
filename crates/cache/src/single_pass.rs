//! Single-pass multi-configuration cache simulation (the Cheetah role).
//!
//! For a fixed line size and replacement policy, one pass over the address
//! trace yields exact miss counts for a grid of caches `C(S, A, L)`: `S`
//! from a set of power-of-two set counts and, at each `S`, a set of
//! associativities. [`SinglePassSim::new`] covers every `A` up to a
//! maximum at every `S`; [`SinglePassSim::for_configs`] covers exactly the
//! configurations it is given. Each engine keeps one table per set count,
//! in ascending set-count order:
//!
//! * **LRU** — Mattson stack inclusion: within a set, a reference at stack
//!   depth `p` hits every cache of associativity `> p`, so one truncated
//!   stack per set covers the whole associativity axis. The stacks of one
//!   set count live in one flat `sets × D` table, and every table of the
//!   simulator has the same depth `D`: the largest covered associativity,
//!   rounded up to a power of two. A deeper stack only adds information,
//!   and a cache of associativity `A` still sums the hits at depths
//!   below `A`, so counts stay exact. Every call that feeds references
//!   ([`SinglePassSim::run`] and its kin) picks the kernel once, by `D`,
//!   not per table visit. For `D ∈ {1, 2, 4, 8}` it is const-generic
//!   and, past the set-refinement stop below, free of data-dependent
//!   branches: it compares all `D` ways of the row, masked by the set's
//!   fill count, takes the first match as the hit depth (`D` on a miss),
//!   moves the ways above it down one by selects, stores the block on
//!   top and counts a miss in a spare depth-`D` slot. Deeper stacks keep
//!   a scan that stops at the hit.
//! * **FIFO** — bounded insertion rings, in the spirit of DEW (Haque et
//!   al.): FIFO has no stack inclusion, but hits never reorder the queue,
//!   so each covered `(set, assoc)` cache is simulated by a ring of
//!   exactly `assoc` slots and a head that the next miss overwrites. The
//!   rings of a set sit side by side, one per covered associativity, so a
//!   reference scans at most `assoc` slots per ring. Memory is `sets × ΣA`
//!   words per set count (`ΣA` summing the covered associativities, so
//!   `A(A+1)/2` on a full grid up to `A`), whatever the trace's footprint.
//! * **Fallback** (PLRU, random) — no single-pass formulation exists, so
//!   the same pass feeds one direct [`crate::policy::SetEngine`] grid per
//!   covered configuration. Costs scale with the number of configurations
//!   rather than line sizes, but the API — and the evaluator above it —
//!   stays uniform.
//!
//! **Set refinement.** With bit-selection indexing and power-of-two set
//! counts, each set of a `2S`-set cache sees a subsequence of the
//! references that reach its image set at `S` sets. So if a reference's
//! block is the last block referenced in its set at `S` sets, it is the
//! last one in its set at every larger set count too. Such a reference
//! hits in every covered cache of those set counts and changes no state
//! under any policy: it is already LRU's MRU, FIFO hits never mutate the
//! queue, PLRU's touch is idempotent, and random draws only on eviction.
//! [`SinglePassSim::access`] therefore walks the tables from the smallest
//! set count up and stops at the first one where the block is its set's
//! last block, counting the stop on that table; a table's misses count
//! the stops of that table and every smaller one as hits. Sequential
//! instruction fetch makes such references common: at wide lines the
//! last block repeats even in a one-set cache, and a loop whose blocks
//! fall in distinct sets stops a few set counts up. An LRU table reads
//! the last block from its stacks' MRU slot; FIFO and fallback tables
//! keep it per set.
//!
//! Empty ways are never compared: every table keeps per-set (LRU) or
//! per-ring (FIFO) fill counts, and the last block of a set that saw no
//! reference yet is `None`, so every `u64` is a valid block id.
//!
//! This is the paper's first efficiency pillar: "the number of simulations
//! is reduced from the total number of caches in the design space to the
//! number of distinct cache line sizes".

use crate::config::CacheConfig;
use crate::policy::{Policy, ReplacementPolicy, SetEngine};
use crate::sim::MissStats;
use mhe_trace::{Access, StreamKind};
use std::collections::BTreeMap;

/// Single-pass simulator for a family of configurations sharing a line
/// size and replacement policy.
///
/// # Examples
///
/// ```
/// use mhe_cache::single_pass::SinglePassSim;
/// let mut sim = SinglePassSim::new(8, &[16, 32, 64], 4);
/// for addr in (0..10_000u64).map(|i| (i * 17) % 4096) {
///     sim.access(addr);
/// }
/// // Misses for any covered (sets, assoc) pair are now available:
/// let m_dm = sim.misses(32, 1);
/// let m_2w = sim.misses(32, 2);
/// assert!(m_2w <= m_dm);
/// ```
#[derive(Debug, Clone)]
pub struct SinglePassSim {
    line_words: u32,
    max_assoc: u32,
    /// Covered set counts, ascending; the engine keeps one table per entry.
    set_counts: Vec<u32>,
    /// Covered associativities per set count, ascending.
    assocs: Vec<Vec<u32>>,
    /// `stops[t]` = references whose walk stopped at table `t` because
    /// their block was its set's last block there (see the module docs).
    stops: Vec<u64>,
    policy: Policy,
    engine: Engine,
    accesses: u64,
}

/// One engine per policy family; each variant holds one table per set
/// count (parallel to `set_counts`).
#[derive(Debug, Clone)]
enum Engine {
    /// LRU stack inclusion.
    Stack(Vec<StackTable>),
    /// FIFO insertion rings.
    Rings(Vec<RingTable>),
    /// Per-configuration direct simulation (PLRU, random).
    Direct(Vec<DirectTable>),
}

/// Feeds each block to `tables` from the smallest set count up, stopping
/// at the first table where `access` reports it is its set's last block
/// (the table is then unchanged). Returns the number of blocks fed.
///
/// `access` is the table kernel, passed as a function so that each engine,
/// and each fixed LRU depth, compiles into its own copy of the loop.
fn refine<T>(
    tables: &mut [T],
    assocs: &[Vec<u32>],
    stops: &mut [u64],
    blocks: impl Iterator<Item = u64>,
    mut access: impl FnMut(&mut T, u64, &[u32]) -> bool,
) -> u64 {
    let mut fed = 0;
    for block in blocks {
        fed += 1;
        for ((table, assocs), stops) in tables.iter_mut().zip(assocs).zip(stops.iter_mut()) {
            if access(table, block, assocs) {
                *stops += 1;
                break;
            }
        }
    }
    fed
}

#[derive(Debug, Clone)]
struct StackTable {
    /// `sets - 1`: the set index of a block is `block & mask`.
    mask: u64,
    /// Ways per stack: the family's largest covered associativity,
    /// rounded up to a power of two, the same in every table.
    depth: usize,
    /// Per-set LRU stacks, row-major `[set][depth]`, MRU first; only the
    /// first `fill[set]` ways are valid.
    ways: Vec<u64>,
    /// Valid ways per set.
    fill: Vec<u32>,
    /// `hits_at_depth[d]` = hits at stack depth `d`, so a cache with
    /// associativity `A` hits `sum(hits_at_depth[..A])` plus the stops.
    /// Depth 0 is the set's last block, so those hits are stops and
    /// `hits_at_depth[0]` stays 0. A spare last slot, at depth `depth`,
    /// counts the misses of the fixed-depth kernel, so that it counts a
    /// hit and a miss with one increment.
    hits_at_depth: Vec<u64>,
}

impl StackTable {
    fn new(sets: u32, depth: usize) -> Self {
        Self {
            mask: u64::from(sets) - 1,
            depth,
            ways: vec![0; sets as usize * depth],
            fill: vec![0; sets as usize],
            hits_at_depth: vec![0; depth + 1],
        }
    }

    /// The kernel for a stack of exactly `D` ways: after the MRU check
    /// (the set-refinement stop), no branch depends on the data. The hit
    /// depth comes from comparing all `D` ways, masked by the fill count
    /// (`D` on a miss); the ways above it move down one by selects, and
    /// the block goes on top.
    #[inline]
    fn access_fixed<const D: usize>(&mut self, block: u64, _assocs: &[u32]) -> bool {
        let si = (block & self.mask) as usize;
        let row: &mut [u64; D] =
            (&mut self.ways[si * D..][..D]).try_into().expect("a row is D ways");
        let len = self.fill[si] as usize;
        // The MRU way holds the set's last block.
        if len > 0 && row[0] == block {
            return true;
        }
        let mut matches = 0u32;
        for (i, &way) in row.iter().enumerate() {
            matches |= u32::from(way == block) << i;
        }
        // Bit `D` stands for "not found": a miss shifts the whole row.
        let valid = (1u32 << len) - 1;
        let pos = ((matches & valid) | (1 << D)).trailing_zeros() as usize;
        self.hits_at_depth[pos] += 1;
        let old = *row;
        for i in 1..D {
            row[i] = if i <= pos { old[i - 1] } else { old[i] };
        }
        row[0] = block;
        self.fill[si] = (len + usize::from(pos == D)).min(D) as u32;
        false
    }

    /// The kernel for stacks deeper than 8 ways, with the depth read at
    /// run time. It stays a scan with an early exit: a compare-and-select
    /// row does all of its ways' work on every reference, which pays at
    /// up to 8 ways but grows with the depth, while no grid of the
    /// paper's spaces asks for more than 8 ways.
    #[inline]
    fn access_deep(&mut self, block: u64, _assocs: &[u32]) -> bool {
        let depth = self.depth;
        let si = (block & self.mask) as usize;
        let fill = &mut self.fill[si];
        let len = *fill as usize;
        if len > 0 && self.ways[si * depth] == block {
            return true;
        }
        let row = &mut self.ways[si * depth..][..depth];
        match row[..len].iter().position(|&b| b == block) {
            Some(pos) => {
                self.hits_at_depth[pos] += 1;
                row[..=pos].rotate_right(1);
            }
            None => {
                row.copy_within(..len.min(depth - 1), 1);
                row[0] = block;
                if len < depth {
                    *fill += 1;
                }
            }
        }
        false
    }
}

/// FIFO rings: the associativity-`a` FIFO set is a ring of `a` slots; a
/// miss overwrites the slot at the ring's head, which holds the oldest
/// block once the ring is full.
#[derive(Debug, Clone)]
struct RingTable {
    /// `sets - 1`: the set index of a block is `block & mask`.
    mask: u64,
    /// Slots per set: the sum of the covered associativities.
    width: usize,
    /// Last block referenced in each set (`None` before the first).
    last: Vec<Option<u64>>,
    /// Ring slots, `width` per set; the rings of the covered
    /// associativities sit side by side in ascending order.
    slots: Vec<u64>,
    /// Fill count and head per ring, row-major `[set][ring]`.
    rings: Vec<Ring>,
    /// `hits[r]` = hits of ring `r`'s cache, besides the stops.
    hits: Vec<u64>,
}

impl RingTable {
    fn new(sets: u32, assocs: &[u32]) -> Self {
        let sets = sets as usize;
        let width = assocs.iter().map(|&a| a as usize).sum();
        Self {
            mask: sets as u64 - 1,
            width,
            last: vec![None; sets],
            slots: vec![0; sets * width],
            rings: vec![Ring::default(); sets * assocs.len()],
            hits: vec![0; assocs.len()],
        }
    }
}

impl RingTable {
    #[inline]
    fn access(&mut self, block: u64, assocs: &[u32]) -> bool {
        let si = (block & self.mask) as usize;
        if self.last[si] == Some(block) {
            return true;
        }
        self.last[si] = Some(block);
        let row = &mut self.slots[si * self.width..][..self.width];
        let rings = &mut self.rings[si * assocs.len()..][..assocs.len()];
        let mut start = 0;
        for ((ring, hits), &assoc) in rings.iter_mut().zip(&mut self.hits).zip(assocs) {
            let assoc = assoc as usize;
            let ways = &mut row[start..start + assoc];
            start += assoc;
            // A full scan without early exit: where (and whether) the
            // block sits varies from ring to ring, so an early-exit scan
            // mispredicts.
            let found = ways[..ring.len as usize].iter().fold(false, |f, &b| f | (b == block));
            if found {
                *hits += 1;
            } else {
                ways[ring.head as usize] = block;
                ring.head = if ring.head as usize + 1 == assoc { 0 } else { ring.head + 1 };
                if (ring.len as usize) < assoc {
                    ring.len += 1;
                }
            }
        }
        false
    }
}

/// One FIFO ring's state: its first `len` slots are valid, and the next
/// insertion goes to slot `head` (equal to `len` until the ring is full).
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    len: u32,
    head: u32,
}

/// Fallback: direct per-set engines for one set count, one lane per
/// covered associativity.
#[derive(Debug, Clone)]
struct DirectTable {
    /// `sets - 1`: the set index of a block is `block & mask`.
    mask: u64,
    /// Last block referenced in each set (`None` before the first).
    last: Vec<Option<u64>>,
    /// One lane per covered associativity, in ascending order.
    lanes: Vec<DirectLane>,
}

#[derive(Debug, Clone)]
struct DirectLane {
    engines: Vec<SetEngine>,
    misses: u64,
}

impl DirectTable {
    fn new(policy: Policy, sets: u32, assocs: &[u32]) -> Self {
        Self {
            mask: u64::from(sets) - 1,
            last: vec![None; sets as usize],
            lanes: assocs
                .iter()
                .map(|&a| DirectLane {
                    engines: (0..u64::from(sets)).map(|i| policy.new_set(a, i)).collect(),
                    misses: 0,
                })
                .collect(),
        }
    }
}

impl DirectTable {
    #[inline]
    fn access(&mut self, block: u64, _assocs: &[u32]) -> bool {
        let si = (block & self.mask) as usize;
        if self.last[si] == Some(block) {
            return true;
        }
        self.last[si] = Some(block);
        for lane in &mut self.lanes {
            let set = &mut lane.engines[si];
            if !set.lookup(block) {
                lane.misses += 1;
                set.insert(block);
            }
        }
        false
    }
}

impl SinglePassSim {
    /// Creates an LRU simulator covering every `(sets, assoc)` with
    /// `sets ∈ set_counts` and `1 <= assoc <= max_assoc`, for the given line
    /// size in words.
    ///
    /// # Panics
    ///
    /// Panics if `line_words` or any set count is not a power of two, if
    /// `set_counts` is empty, or if `max_assoc == 0`.
    pub fn new(line_words: u32, set_counts: &[u32], max_assoc: u32) -> Self {
        Self::new_with_policy(Policy::Lru, line_words, set_counts, max_assoc)
    }

    /// Creates a simulator for the given replacement policy.
    ///
    /// LRU and FIFO use native single-pass engines; PLRU and random fall
    /// back to per-configuration direct simulation behind the same API
    /// (see [`Policy::single_pass_native`]).
    ///
    /// # Panics
    ///
    /// Panics as for [`SinglePassSim::new`].
    pub fn new_with_policy(
        policy: Policy,
        line_words: u32,
        set_counts: &[u32],
        max_assoc: u32,
    ) -> Self {
        assert!(!set_counts.is_empty(), "need at least one set count");
        assert!(max_assoc >= 1, "max associativity must be at least 1");
        let grid = set_counts.iter().map(|&s| (s, (1..=max_assoc).collect())).collect();
        Self::with_grid(policy, line_words, grid)
    }

    /// Convenience: a simulator covering exactly the `(sets, assoc)`
    /// points of a [`CacheConfig`] family, and no others.
    ///
    /// All `configs` must share `line_words` and `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the line sizes or policies disagree.
    pub fn for_configs(configs: &[CacheConfig]) -> Self {
        assert!(!configs.is_empty(), "need at least one configuration");
        let line = configs[0].line_words;
        assert!(
            configs.iter().all(|c| c.line_words == line),
            "single-pass simulation requires a common line size"
        );
        let policy = configs[0].policy;
        assert!(
            configs.iter().all(|c| c.policy == policy),
            "single-pass simulation requires a common replacement policy"
        );
        let mut grid: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for c in configs {
            grid.entry(c.sets).or_default().push(c.assoc);
        }
        Self::with_grid(policy, line, grid)
    }

    /// The one constructor: `grid` maps each covered set count to its
    /// covered associativities.
    fn with_grid(policy: Policy, line_words: u32, grid: BTreeMap<u32, Vec<u32>>) -> Self {
        assert!(line_words.is_power_of_two(), "line size must be a power of two");
        let (set_counts, assocs): (Vec<u32>, Vec<Vec<u32>>) = grid
            .into_iter()
            .map(|(s, mut a)| {
                assert!(s.is_power_of_two(), "set count {s} must be a power of two");
                a.sort_unstable();
                a.dedup();
                assert!(a[0] >= 1, "associativity must be at least 1");
                (s, a)
            })
            .unzip();
        let max_assoc =
            assocs.iter().map(|a| a[a.len() - 1]).max().expect("at least one set count");
        let tables = set_counts.iter().zip(&assocs);
        let engine = match policy {
            Policy::Lru => {
                let depth = (max_assoc as usize).next_power_of_two();
                Engine::Stack(tables.map(|(&s, _)| StackTable::new(s, depth)).collect())
            }
            Policy::Fifo => Engine::Rings(tables.map(|(&s, a)| RingTable::new(s, a)).collect()),
            Policy::PlruTree | Policy::Random(_) => {
                Engine::Direct(tables.map(|(&s, a)| DirectTable::new(policy, s, a)).collect())
            }
        };
        Self {
            line_words,
            max_assoc,
            stops: vec![0; set_counts.len()],
            set_counts,
            assocs,
            policy,
            engine,
            accesses: 0,
        }
    }

    /// References a word address in every covered configuration.
    pub fn access(&mut self, addr: u64) {
        self.feed(std::iter::once(addr));
    }

    /// Runs a whole trace.
    pub fn run(&mut self, trace: impl IntoIterator<Item = u64>) {
        // Events only: busy/wall time for the simulate phase is recorded
        // by the fan-out that drives the simulators (`mhe-core`'s
        // parallel sweep), so nesting never double-counts time.
        let fed = self.feed(trace);
        mhe_obs::add_events(mhe_obs::Phase::Simulate, fed);
    }

    /// Feeds a chunk of an access stream, admitting only the references
    /// that belong to `stream`.
    ///
    /// The simulator is stateful across calls, so an arbitrarily long
    /// trace can be replayed chunk by chunk in bounded memory; feeding
    /// the same accesses in the same order yields bit-identical miss
    /// counts no matter how the stream is chunked.
    pub fn run_stream(&mut self, stream: StreamKind, chunk: impl IntoIterator<Item = Access>) {
        // Events only, as in `run`: the driving fan-out owns the timing.
        let fed = self.feed(chunk.into_iter().filter(|a| stream.admits(a.kind)).map(|a| a.addr));
        mhe_obs::add_events(mhe_obs::Phase::Simulate, fed);
    }

    /// The kernel loop, compiled into the caller with the engine chosen
    /// once per call. Returns the number of references fed.
    fn feed(&mut self, addrs: impl IntoIterator<Item = u64>) -> u64 {
        // A shift: the line size is a power of two.
        let shift = self.line_words.trailing_zeros();
        let blocks = addrs.into_iter().map(|a| a >> shift);
        let (assocs, stops) = (&self.assocs, &mut self.stops);
        // The engine, and for LRU the stack depth, is chosen here, once
        // per call: each arm compiles its own copy of the loop.
        let fed = match &mut self.engine {
            Engine::Stack(tables) => match tables[0].depth {
                1 => refine(tables, assocs, stops, blocks, StackTable::access_fixed::<1>),
                2 => refine(tables, assocs, stops, blocks, StackTable::access_fixed::<2>),
                4 => refine(tables, assocs, stops, blocks, StackTable::access_fixed::<4>),
                8 => refine(tables, assocs, stops, blocks, StackTable::access_fixed::<8>),
                _ => refine(tables, assocs, stops, blocks, StackTable::access_deep),
            },
            Engine::Rings(tables) => refine(tables, assocs, stops, blocks, RingTable::access),
            Engine::Direct(tables) => refine(tables, assocs, stops, blocks, DirectTable::access),
        };
        self.accesses += fed;
        fed
    }

    /// Total references seen.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Line size in words.
    pub fn line_words(&self) -> u32 {
        self.line_words
    }

    /// Covered set counts (sorted).
    pub fn set_counts(&self) -> &[u32] {
        &self.set_counts
    }

    /// Maximum covered associativity.
    pub fn max_assoc(&self) -> u32 {
        self.max_assoc
    }

    /// The replacement policy every covered configuration runs.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Whether this simulator uses a native single-pass engine (LRU
    /// stacks, FIFO rings) rather than the per-configuration direct
    /// fallback.
    pub fn single_pass_native(&self) -> bool {
        self.policy.single_pass_native()
    }

    /// Miss count for `C(sets, assoc, line)` under this policy.
    ///
    /// # Panics
    ///
    /// Panics if `(sets, assoc)` was not covered: a simulator built by
    /// [`SinglePassSim::for_configs`] covers only the configurations it
    /// was given.
    pub fn misses(&self, sets: u32, assoc: u32) -> u64 {
        let (ti, ai) = self
            .set_counts
            .binary_search(&sets)
            .ok()
            .and_then(|ti| Some((ti, self.assocs[ti].binary_search(&assoc).ok()?)))
            .unwrap_or_else(|| panic!("(sets, assoc) = ({sets}, {assoc}) not covered"));
        let stopped: u64 = self.stops[..=ti].iter().sum();
        match &self.engine {
            Engine::Stack(tables) => {
                let hits: u64 = tables[ti].hits_at_depth[..assoc as usize].iter().sum();
                self.accesses - stopped - hits
            }
            Engine::Rings(tables) => self.accesses - stopped - tables[ti].hits[ai],
            Engine::Direct(tables) => tables[ti].lanes[ai].misses,
        }
    }

    /// Statistics for `C(sets, assoc, line)`.
    ///
    /// # Panics
    ///
    /// Panics as for [`SinglePassSim::misses`].
    pub fn stats(&self, sets: u32, assoc: u32) -> MissStats {
        MissStats { accesses: self.accesses, misses: self.misses(sets, assoc) }
    }

    /// Enumerates all covered `(config, stats)` pairs, by set count and
    /// then associativity (configs carry the simulator's policy).
    pub fn all_results(&self) -> Vec<(CacheConfig, MissStats)> {
        let mut out = Vec::new();
        for (&s, assocs) in self.set_counts.iter().zip(&self.assocs) {
            for &a in assocs {
                out.push((
                    CacheConfig::new(s, a, self.line_words).with_policy(self.policy),
                    self.stats(s, a),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;

    fn pseudo_trace(n: usize, seed: u64) -> Vec<u64> {
        // Mix of streaming and hot-set accesses.
        let mut x = seed;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if x.is_multiple_of(3) {
                    (i as u64) % 2048
                } else {
                    (x >> 33) % 1024
                }
            })
            .collect()
    }

    #[test]
    fn matches_direct_simulation_exactly() {
        let trace = pseudo_trace(50_000, 42);
        let mut sp = SinglePassSim::new(4, &[8, 16, 32, 64], 4);
        sp.run(trace.iter().copied());
        for &sets in &[8u32, 16, 32, 64] {
            for assoc in 1..=4 {
                let direct = simulate(CacheConfig::new(sets, assoc, 4), trace.iter().copied());
                assert_eq!(sp.misses(sets, assoc), direct.misses, "mismatch at S={sets} A={assoc}");
            }
        }
    }

    #[test]
    fn misses_monotone_in_associativity() {
        let trace = pseudo_trace(20_000, 7);
        let mut sp = SinglePassSim::new(8, &[16, 64], 8);
        sp.run(trace.iter().copied());
        for &s in &[16u32, 64] {
            for a in 1..8 {
                assert!(sp.misses(s, a + 1) <= sp.misses(s, a));
            }
        }
    }

    #[test]
    fn all_results_covers_grid() {
        let mut sp = SinglePassSim::new(4, &[8, 16], 3);
        sp.run(0..1000u64);
        let results = sp.all_results();
        assert_eq!(results.len(), 2 * 3);
        for (cfg, st) in results {
            assert_eq!(st.accesses, 1000);
            assert_eq!(cfg.line_words, 4);
        }
    }

    #[test]
    fn for_configs_requires_common_line() {
        let a = CacheConfig::new(8, 1, 4);
        let b = CacheConfig::new(16, 2, 4);
        let sp = SinglePassSim::for_configs(&[a, b]);
        assert_eq!(sp.set_counts(), &[8, 16]);
        assert_eq!(sp.max_assoc(), 2);
    }

    #[test]
    #[should_panic(expected = "common line size")]
    fn for_configs_rejects_mixed_lines() {
        let a = CacheConfig::new(8, 1, 4);
        let b = CacheConfig::new(8, 1, 8);
        let _ = SinglePassSim::for_configs(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "common replacement policy")]
    fn for_configs_rejects_mixed_policies() {
        let a = CacheConfig::new(8, 1, 4);
        let b = CacheConfig::new(16, 1, 4).with_policy(Policy::Fifo);
        let _ = SinglePassSim::for_configs(&[a, b]);
    }

    #[test]
    fn every_policy_matches_direct_simulation_exactly() {
        let trace = pseudo_trace(30_000, 1234);
        for p in Policy::all() {
            let mut sp = SinglePassSim::new_with_policy(p, 4, &[8, 16, 64], 4);
            sp.run(trace.iter().copied());
            assert_eq!(sp.policy(), p);
            for &sets in &[8u32, 16, 64] {
                for assoc in 1..=4 {
                    let cfg = CacheConfig::new(sets, assoc, 4).with_policy(p);
                    let direct = simulate(cfg, trace.iter().copied());
                    assert_eq!(sp.misses(sets, assoc), direct.misses, "{p} S={sets} A={assoc}");
                }
            }
        }
    }

    #[test]
    fn fifo_rings_show_belady_anomaly() {
        // The classic Belady sequence: FIFO with 4 frames misses MORE
        // than with 3. The rings must reproduce non-monotone
        // associativity behaviour exactly (stacks could not).
        let trace: Vec<u64> = [1u64, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5].to_vec();
        let mut sp = SinglePassSim::new_with_policy(Policy::Fifo, 1, &[1], 4);
        sp.run(trace.iter().copied());
        assert_eq!(sp.misses(1, 3), 9);
        assert_eq!(sp.misses(1, 4), 10, "Belady's anomaly");
    }

    #[test]
    fn repeated_blocks_change_no_miss_count() {
        // Each address k times in a row: every repeat after the first hits
        // in every cache and changes no state, so the grid is the
        // original trace's while the access count grows k-fold.
        let trace = pseudo_trace(5_000, 99);
        for p in Policy::all() {
            let mut once = SinglePassSim::new_with_policy(p, 2, &[1, 4, 16], 4);
            once.run(trace.iter().copied());
            for k in [2usize, 3] {
                let mut repeated = SinglePassSim::new_with_policy(p, 2, &[1, 4, 16], 4);
                repeated.run(trace.iter().flat_map(|&a| std::iter::repeat_n(a, k)));
                assert_eq!(repeated.accesses(), k as u64 * once.accesses(), "{p} k={k}");
                for &s in &[1u32, 4, 16] {
                    for a in 1..=4 {
                        assert_eq!(
                            repeated.misses(s, a),
                            once.misses(s, a),
                            "{p} k={k} S={s} A={a}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_loop_stops_at_the_first_set_count_where_its_block_is_last() {
        // 40 distinct blocks in a loop. At 64 sets each sits alone in its
        // set, so from the second lap on every reference is its set's
        // last block there; at 8 sets (five blocks a set) and at 1 set it
        // never is.
        const LAPS: u64 = 10;
        let trace: Vec<u64> = (0..LAPS).flat_map(|_| 0..40u64).collect();
        for p in Policy::all() {
            let mut sp = SinglePassSim::new_with_policy(p, 1, &[1, 8, 64], 8);
            sp.run(trace.iter().copied());
            assert_eq!(sp.stops, [0, 0, 40 * (LAPS - 1)], "{p}");
            for &sets in &[1u32, 8, 64] {
                for assoc in 1..=8 {
                    let cfg = CacheConfig::new(sets, assoc, 1).with_policy(p);
                    let direct = simulate(cfg, trace.iter().copied());
                    assert_eq!(sp.misses(sets, assoc), direct.misses, "{p} S={sets} A={assoc}");
                }
            }
        }
    }

    #[test]
    fn policy_run_stream_is_chunk_invariant() {
        let trace: Vec<Access> = pseudo_trace(10_000, 77)
            .into_iter()
            .enumerate()
            .map(|(i, a)| if i % 2 == 0 { Access::inst(a) } else { Access::load(a) })
            .collect();
        for p in Policy::all() {
            let mut whole = SinglePassSim::new_with_policy(p, 4, &[16, 64], 4);
            whole.run_stream(StreamKind::Instruction, trace.iter().copied());
            let mut chunked = SinglePassSim::new_with_policy(p, 4, &[16, 64], 4);
            for chunk in trace.chunks(97) {
                chunked.run_stream(StreamKind::Instruction, chunk.iter().copied());
            }
            for &s in &[16u32, 64] {
                for a in 1..=4 {
                    assert_eq!(chunked.misses(s, a), whole.misses(s, a), "{p} S={s} A={a}");
                }
            }
        }
    }

    #[test]
    fn all_results_carry_the_policy() {
        let mut sp = SinglePassSim::new_with_policy(Policy::PlruTree, 4, &[8], 2);
        sp.run(0..500u64);
        assert!(!sp.single_pass_native());
        for (cfg, _) in sp.all_results() {
            assert_eq!(cfg.policy, Policy::PlruTree);
        }
    }

    #[test]
    fn sequential_trace_miss_count_is_line_count() {
        // Streaming 4096 words with 8-word lines: 512 compulsory misses,
        // regardless of cache size, when nothing is revisited.
        let mut sp = SinglePassSim::new(8, &[32, 256], 2);
        sp.run(0..4096u64);
        assert_eq!(sp.misses(32, 1), 512);
        assert_eq!(sp.misses(256, 2), 512);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn querying_uncovered_sets_panics() {
        let sp = SinglePassSim::new(4, &[8], 2);
        let _ = sp.misses(16, 1);
    }

    #[test]
    fn run_stream_filters_and_is_chunk_invariant() {
        let trace: Vec<Access> = pseudo_trace(30_000, 11)
            .into_iter()
            .enumerate()
            .map(|(i, a)| match i % 3 {
                0 => Access::inst(a),
                1 => Access::load(a),
                _ => Access::store(a),
            })
            .collect();
        for stream in [StreamKind::Instruction, StreamKind::Data, StreamKind::Unified] {
            let mut whole = SinglePassSim::new(4, &[16, 64], 4);
            whole.run_stream(stream, trace.iter().copied());
            for chunk_size in [1usize, 7, 1024, 30_000] {
                let mut chunked = SinglePassSim::new(4, &[16, 64], 4);
                for chunk in trace.chunks(chunk_size) {
                    chunked.run_stream(stream, chunk.iter().copied());
                }
                assert_eq!(chunked.accesses(), whole.accesses());
                for &s in &[16u32, 64] {
                    for a in 1..=4 {
                        assert_eq!(
                            chunked.misses(s, a),
                            whole.misses(s, a),
                            "{stream:?} S={s} A={a} chunk={chunk_size}"
                        );
                    }
                }
            }
        }
    }
}
