//! Single-pass multi-configuration cache simulation (the Cheetah role).
//!
//! For a fixed line size and replacement policy, one pass over the address
//! trace yields exact miss counts for *every* cache `C(S, A, L)` with `S`
//! in a set of power-of-two set counts and `A` up to a maximum
//! associativity. Three engines implement the pass:
//!
//! * **LRU** — Mattson stack inclusion: within a set, a reference at stack
//!   depth `p` hits every cache of associativity `> p`, so one truncated
//!   stack per set covers the whole associativity axis. The stacks of one
//!   set count live in one flat `sets × max_assoc` table: a hit rotates
//!   the prefix down to its depth, a miss shifts the row and stores the
//!   block at the top.
//! * **FIFO** — bounded insertion rings, in the spirit of DEW (Haque et
//!   al.): FIFO has no stack inclusion, but hits never reorder the queue,
//!   so each `(set, assoc)` cache is simulated by a ring of exactly `assoc`
//!   slots and a head that the next miss overwrites. All rings of a set
//!   sit side by side (`A(A+1)/2` slots for `A = max_assoc`), so a
//!   reference scans at most `A` slots per associativity. Memory is
//!   `sets × A(A+1)/2` words per set count, whatever the trace's
//!   footprint.
//! * **Fallback** (PLRU, random) — no single-pass formulation exists, so
//!   the same pass feeds one direct [`crate::policy::SetEngine`] grid per
//!   covered configuration. Costs scale with the number of configurations
//!   rather than line sizes, but the API — and the evaluator above it —
//!   stays uniform.
//!
//! In front of every engine sits a **repeat filter**: a reference to the
//! block the simulator admitted last is counted and dropped. That block
//! was just touched, so it hits in every covered cache, and the hit
//! changes no state under any policy (it is already LRU's MRU, FIFO hits
//! never mutate the queue, PLRU's touch is idempotent, and random draws
//! only on eviction). Sequential instruction fetch makes such repeats
//! common at wide lines.
//!
//! Empty ways are never compared: every table keeps per-set (LRU) or
//! per-ring (FIFO) fill counts, so every `u64` is a valid block id.
//!
//! This is the paper's first efficiency pillar: "the number of simulations
//! is reduced from the total number of caches in the design space to the
//! number of distinct cache line sizes".

use crate::config::CacheConfig;
use crate::policy::{Policy, ReplacementPolicy, SetEngine};
use crate::sim::MissStats;
use mhe_trace::{Access, StreamKind};

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
    set_counts: Vec<u32>,
    policy: Policy,
    engine: Engine,
    accesses: u64,
    /// Block of the last reference the engines saw.
    last_block: Option<u64>,
    /// References to `last_block` again: hits everywhere that the
    /// engines never see.
    repeats: u64,
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

#[derive(Debug, Clone)]
struct StackTable {
    /// `sets - 1`: the set index of a block is `block & mask`.
    mask: u64,
    /// Per-set LRU stacks, row-major `[set][depth]` with `max_assoc` ways
    /// per row, MRU first; only the first `fill[set]` ways are valid.
    ways: Vec<u64>,
    /// Valid ways per set.
    fill: Vec<u32>,
    /// `hits_at_depth[d]` = hits at stack depth `d` (so a cache with
    /// associativity `A` hits `sum(hits_at_depth[..A])`).
    hits_at_depth: Vec<u64>,
}

/// FIFO rings: the associativity-`l + 1` FIFO set is a ring of `l + 1`
/// slots (lane `l`); a miss overwrites the slot at the ring's head, which
/// holds the oldest block once the ring is full.
#[derive(Debug, Clone)]
struct RingTable {
    /// `sets - 1`: the set index of a block is `block & mask`.
    mask: u64,
    /// Ring slots, `A(A+1)/2` per set; lane `l`'s ring starts at offset
    /// `l(l+1)/2` of its set's row.
    slots: Vec<u64>,
    /// Fill count and head per ring, row-major `[set][lane]`.
    rings: Vec<Ring>,
    /// `hits[l]` = hits of the associativity-`l + 1` cache.
    hits: Vec<u64>,
}

/// One FIFO ring's state: its first `len` slots are valid, and the next
/// insertion goes to slot `head` (equal to `len` until the ring is full).
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    len: u32,
    head: u32,
}

/// Fallback: a full grid of direct per-set engines for one set count.
#[derive(Debug, Clone)]
struct DirectTable {
    /// `sets - 1`: the set index of a block is `block & mask`.
    mask: u64,
    /// `lanes[a - 1]` simulates associativity `a`.
    lanes: Vec<DirectLane>,
}

#[derive(Debug, Clone)]
struct DirectLane {
    engines: Vec<SetEngine>,
    misses: u64,
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
        assert!(line_words.is_power_of_two(), "line size must be a power of two");
        assert!(!set_counts.is_empty(), "need at least one set count");
        assert!(max_assoc >= 1, "max associativity must be at least 1");
        let mut counts = set_counts.to_vec();
        counts.sort_unstable();
        counts.dedup();
        for &s in &counts {
            assert!(s.is_power_of_two(), "set count {s} must be a power of two");
        }
        let assoc = max_assoc as usize;
        let engine = match policy {
            Policy::Lru => Engine::Stack(
                counts
                    .iter()
                    .map(|&s| StackTable {
                        mask: u64::from(s) - 1,
                        ways: vec![0; s as usize * assoc],
                        fill: vec![0; s as usize],
                        hits_at_depth: vec![0; assoc],
                    })
                    .collect(),
            ),
            Policy::Fifo => Engine::Rings(
                counts
                    .iter()
                    .map(|&s| RingTable {
                        mask: u64::from(s) - 1,
                        slots: vec![0; s as usize * ring_slots(assoc)],
                        rings: vec![Ring::default(); s as usize * assoc],
                        hits: vec![0; assoc],
                    })
                    .collect(),
            ),
            Policy::PlruTree | Policy::Random(_) => Engine::Direct(
                counts
                    .iter()
                    .map(|&s| DirectTable {
                        mask: u64::from(s) - 1,
                        lanes: (1..=max_assoc)
                            .map(|a| DirectLane {
                                engines: (0..u64::from(s)).map(|i| policy.new_set(a, i)).collect(),
                                misses: 0,
                            })
                            .collect(),
                    })
                    .collect(),
            ),
        };
        Self {
            line_words,
            max_assoc,
            set_counts: counts,
            policy,
            engine,
            accesses: 0,
            last_block: None,
            repeats: 0,
        }
    }

    /// Convenience: a simulator covering a whole [`CacheConfig`] family.
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
        let sets: Vec<u32> = configs.iter().map(|c| c.sets).collect();
        let max_assoc = configs.iter().map(|c| c.assoc).max().unwrap();
        Self::new_with_policy(policy, line, &sets, max_assoc)
    }

    /// References a word address in every covered configuration.
    pub fn access(&mut self, addr: u64) {
        self.accesses += 1;
        let block = addr / u64::from(self.line_words);
        if self.last_block == Some(block) {
            self.repeats += 1;
            return;
        }
        self.last_block = Some(block);
        let max_assoc = self.max_assoc as usize;
        match &mut self.engine {
            Engine::Stack(tables) => {
                for table in tables {
                    let si = (block & table.mask) as usize;
                    let row = &mut table.ways[si * max_assoc..][..max_assoc];
                    let fill = &mut table.fill[si];
                    let len = *fill as usize;
                    match row[..len].iter().position(|&b| b == block) {
                        Some(pos) => {
                            table.hits_at_depth[pos] += 1;
                            row[..=pos].rotate_right(1);
                        }
                        None => {
                            row.copy_within(..len.min(max_assoc - 1), 1);
                            row[0] = block;
                            if len < max_assoc {
                                *fill += 1;
                            }
                        }
                    }
                }
            }
            Engine::Rings(tables) => {
                let width = ring_slots(max_assoc);
                for table in tables {
                    let si = (block & table.mask) as usize;
                    let row = &mut table.slots[si * width..][..width];
                    let rings = &mut table.rings[si * max_assoc..][..max_assoc];
                    let mut start = 0;
                    for (lane, (ring, hits)) in rings.iter_mut().zip(&mut table.hits).enumerate() {
                        let ways = &mut row[start..=start + lane];
                        start += lane + 1;
                        // A full scan without early exit: where (and whether)
                        // the block sits varies from lane to lane, so an
                        // early-exit scan mispredicts.
                        let found =
                            ways[..ring.len as usize].iter().fold(false, |f, &b| f | (b == block));
                        if found {
                            *hits += 1;
                        } else {
                            ways[ring.head as usize] = block;
                            ring.head = if ring.head as usize == lane { 0 } else { ring.head + 1 };
                            if ring.len as usize <= lane {
                                ring.len += 1;
                            }
                        }
                    }
                }
            }
            Engine::Direct(tables) => {
                for table in tables {
                    let si = (block & table.mask) as usize;
                    for lane in &mut table.lanes {
                        let set = &mut lane.engines[si];
                        if !set.lookup(block) {
                            lane.misses += 1;
                            set.insert(block);
                        }
                    }
                }
            }
        }
    }

    /// Runs a whole trace.
    pub fn run(&mut self, trace: impl IntoIterator<Item = u64>) {
        // Events only: busy/wall time for the simulate phase is recorded
        // by the fan-out that drives the simulators (`mhe-core`'s
        // parallel sweep), so nesting never double-counts time.
        let before = self.accesses;
        for addr in trace {
            self.access(addr);
        }
        mhe_obs::add_events(mhe_obs::Phase::Simulate, self.accesses - before);
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
        let before = self.accesses;
        for a in chunk {
            if stream.admits(a.kind) {
                self.access(a.addr);
            }
        }
        mhe_obs::add_events(mhe_obs::Phase::Simulate, self.accesses - before);
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
    /// Panics if `sets` was not covered or `assoc > max_assoc`.
    pub fn misses(&self, sets: u32, assoc: u32) -> u64 {
        assert!(assoc >= 1 && assoc <= self.max_assoc, "assoc {assoc} not covered");
        let ti = self
            .set_counts
            .iter()
            .position(|&s| s == sets)
            .unwrap_or_else(|| panic!("set count {sets} not covered"));
        match &self.engine {
            Engine::Stack(tables) => {
                let hits: u64 = tables[ti].hits_at_depth[..assoc as usize].iter().sum();
                self.accesses - self.repeats - hits
            }
            Engine::Rings(tables) => {
                self.accesses - self.repeats - tables[ti].hits[assoc as usize - 1]
            }
            Engine::Direct(tables) => tables[ti].lanes[assoc as usize - 1].misses,
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

    /// Enumerates all covered `(config, stats)` pairs (configs carry the
    /// simulator's policy).
    pub fn all_results(&self) -> Vec<(CacheConfig, MissStats)> {
        let mut out = Vec::new();
        for &s in &self.set_counts {
            for a in 1..=self.max_assoc {
                out.push((
                    CacheConfig::new(s, a, self.line_words).with_policy(self.policy),
                    self.stats(s, a),
                ));
            }
        }
        out
    }
}

/// Slots of one set's FIFO rings: one ring of `l + 1` slots per lane `l`
/// below `max_assoc`.
fn ring_slots(max_assoc: usize) -> usize {
    max_assoc * (max_assoc + 1) / 2
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
