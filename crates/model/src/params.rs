//! Trace parameters and the granule-based trace modeler.
//!
//! The AHH model characterizes a trace by three parameters derived in a
//! single simulation-like pass (the paper's `TraceModeler`):
//!
//! * `u(1)` — average unique word references per time granule,
//! * `p1` — average fraction of unique references that are isolated
//!   (no neighbouring reference in the granule),
//! * `lav` — average run length (consecutive-address runs of length ≥ 2).
//!
//! [`ITraceModeler`] processes a single-component trace;
//! [`UTraceModeler`] separates the instruction and data components of a
//! unified trace (only the instruction component dilates);
//! [`TraceModeler`] runs both over a unified trace in one pass. Default
//! granule sizes follow the paper: 10,000 references for the instruction
//! trace and 200,000 for the unified trace.

use mhe_trace::{Access, AccessKind};

/// Default granule size for instruction traces (paper §5.2).
pub const I_GRANULE: usize = 10_000;

/// Default granule size for unified traces (paper §5.2).
pub const U_GRANULE: usize = 200_000;

/// The three basic AHH parameters of one trace component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParams {
    /// Average unique references per granule, `u(1)`.
    pub u1: f64,
    /// Average isolated-reference fraction, `p1`.
    pub p1: f64,
    /// Average run length, `lav` (≥ 2 when any run exists).
    pub lav: f64,
}

impl TraceParams {
    /// The derived run-transition parameter `p2` (Eq. 4.4):
    /// `p2 = (lav − (1 + p1)) / (lav − 1)`.
    ///
    /// Degenerates to 0 when `lav <= 1` (no runs at all).
    pub fn p2(&self) -> f64 {
        if self.lav <= 1.0 + 1e-9 {
            0.0
        } else {
            (self.lav - (1.0 + self.p1)) / (self.lav - 1.0)
        }
    }

    /// Measures parameters over a word-address stream with the given
    /// granule size.
    ///
    /// Trailing partial granules (fewer than `granule` references) are
    /// discarded, as partial windows bias `u(1)` low.
    ///
    /// # Panics
    ///
    /// Panics if `granule == 0`.
    pub fn measure(trace: impl IntoIterator<Item = u64>, granule: usize) -> TraceParams {
        let mut m = ITraceModeler::new(granule);
        for a in trace {
            m.process(a);
        }
        m.finish()
    }
}

/// Per-granule run statistics of a granule's unique addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct GranuleStats {
    /// Unique references.
    pub unique: u64,
    /// Isolated (singular) references.
    pub isolated: u64,
    /// Runs of length ≥ 2.
    pub runs: u64,
    /// Total length of those runs.
    pub run_len: u64,
}

/// Words of address space one [`Page`] covers: one 64-byte line of bits.
const PAGE_WORDS: u64 = 512;

/// Marks no page: page keys are `addr / PAGE_WORDS < 2^55`.
const NO_PAGE: u64 = u64::MAX;

/// The bits of one touched page: bit `a % PAGE_WORDS` is set when
/// address `a` was referenced this granule.
#[derive(Debug, Clone, Copy)]
struct Page {
    key: u64,
    bits: [u64; (PAGE_WORDS / 64) as usize],
}

/// The distinct addresses of one granule, collected as they arrive.
///
/// A paged bitmap: each bit is one word address. The pages a granule
/// touches sit in `pages`, found through an open-addressing `index` of
/// page keys with a last-page shortcut. References arrive as runs of
/// consecutive addresses (one reference is a run of one); runs that
/// touch or overlap gather in a pending run, which is set a word mask
/// at a time. At the end of a granule only the touched pages are
/// sorted, and the run statistics come from the bits: a set bit starts
/// a run when its left neighbour is clear, and is isolated when its
/// right neighbour is clear too.
/// The pages are then dropped from the pool, whose capacity is kept.
#[derive(Debug, Clone)]
struct GranuleSet {
    pages: Vec<Page>,
    /// `slot + 1` of each indexed page (0 = empty); at most half full.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the hash keeps the top bits.
    shift: u32,
    /// The page the last run was set in, and its slot.
    last_key: u64,
    last_slot: usize,
    /// The pending run: `run_len` addresses from `run_lo` on, not yet
    /// in the bitmap.
    run_lo: u64,
    run_len: u64,
    references: u64,
}

impl GranuleSet {
    const MIN_INDEX: usize = 1 << 6;

    fn new() -> Self {
        Self {
            pages: Vec::new(),
            index: vec![0; Self::MIN_INDEX],
            shift: 64 - Self::MIN_INDEX.trailing_zeros(),
            last_key: NO_PAGE,
            last_slot: 0,
            run_lo: 0,
            run_len: 0,
            references: 0,
        }
    }

    /// Fibonacci hashing: neighbouring pages scatter across the index.
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Records `len` references to the consecutive addresses `lo`,
    /// `lo + 1`, … `lo + len - 1`, which must not wrap past `u64::MAX`.
    /// One reference is a run of one.
    #[inline]
    fn insert_run(&mut self, lo: u64, len: u64) {
        debug_assert!(len > 0 && lo.checked_add(len - 1).is_some(), "run {lo} + {len} wraps");
        self.references += len;
        let offset = lo.wrapping_sub(self.run_lo);
        if offset < self.run_len {
            // Starts inside the pending run: only its tail may be new.
            // A repeat writes nothing, so the next reference's load of
            // `run_len` does not wait on a store.
            if offset + len > self.run_len {
                self.run_len = offset + len;
            }
            return;
        }
        // Starts right after the pending run, unless that wrapped to 0.
        if offset == self.run_len && lo != 0 {
            self.run_len += len;
            return;
        }
        self.flush_run();
        (self.run_lo, self.run_len) = (lo, len);
    }

    /// Sets the pending run's bits, a word mask at a time.
    fn flush_run(&mut self) {
        if self.run_len == 0 {
            return;
        }
        let (mut lo, hi) = (self.run_lo, self.run_lo + (self.run_len - 1));
        self.run_len = 0;
        loop {
            let word_end = lo | 63;
            let top = word_end.min(hi);
            let mask = (u64::MAX >> (63 - (top - lo))) << (lo & 63);
            let slot = self.page_slot(lo / PAGE_WORDS);
            self.pages[slot].bits[((lo % PAGE_WORDS) / 64) as usize] |= mask;
            if top == hi {
                return;
            }
            lo = word_end + 1;
        }
    }

    /// The slot of page `key`, added (all clear) on its first touch.
    #[inline]
    fn page_slot(&mut self, key: u64) -> usize {
        if key == self.last_key {
            return self.last_slot;
        }
        let mask = self.index.len() - 1;
        let mut i = self.home(key);
        let slot = loop {
            match self.index[i] {
                0 => break self.add_page(key, i),
                entry if self.pages[entry as usize - 1].key == key => break entry as usize - 1,
                _ => i = (i + 1) & mask,
            }
        };
        (self.last_key, self.last_slot) = (key, slot);
        slot
    }

    /// Adds page `key` at the empty index entry `i`.
    fn add_page(&mut self, key: u64, i: usize) -> usize {
        let slot = self.pages.len();
        if slot == self.pages.capacity() {
            // The pool keeps its capacity across granules, so it grows
            // rarely; a quarter at a time keeps its slack small.
            self.pages.reserve_exact((slot / 4).max(64));
        }
        self.pages.push(Page { key, bits: [0; (PAGE_WORDS / 64) as usize] });
        self.index[i] = u32::try_from(slot + 1).expect("fewer than 2^32 pages per granule");
        if self.pages.len() * 2 > self.index.len() {
            self.grow_index();
        }
        slot
    }

    /// Doubles the index and re-enters every page.
    fn grow_index(&mut self) {
        let len = self.index.len() * 2;
        self.index = vec![0; len];
        self.shift = 64 - len.trailing_zeros();
        let mask = len - 1;
        for slot in 0..self.pages.len() {
            let mut i = self.home(self.pages[slot].key);
            while self.index[i] != 0 {
                i = (i + 1) & mask;
            }
            self.index[i] = slot as u32 + 1;
        }
    }

    /// Empties the index of this granule's pages: entry by entry when
    /// they are few, with one fill otherwise.
    fn clear_index(&mut self) {
        if self.pages.len() * 8 > self.index.len() {
            self.index.fill(0);
            return;
        }
        let mask = self.index.len() - 1;
        for slot in 0..self.pages.len() {
            // Every page is still indexed, so its probe finds it even
            // past entries already cleared.
            let mut i = self.home(self.pages[slot].key);
            while self.index[i] as usize != slot + 1 {
                i = (i + 1) & mask;
            }
            self.index[i] = 0;
        }
    }

    /// Analyzes the granule collected so far and starts the next one.
    /// Reports the granule's raw reference count to `mhe-obs`.
    fn finish_granule(&mut self) -> GranuleStats {
        let _obs = mhe_obs::span(mhe_obs::Phase::Model);
        mhe_obs::add_events(mhe_obs::Phase::Model, self.references);
        self.flush_run();
        self.clear_index();
        self.pages.sort_unstable_by_key(|p| p.key);
        let (mut unique, mut starts, mut isolated) = (0u64, 0u64, 0u64);
        // Bit 63 of the word below the current one, as bit 0.
        let mut carry = 0u64;
        for (p, page) in self.pages.iter().enumerate() {
            if p == 0 || self.pages[p - 1].key + 1 != page.key {
                carry = 0;
            }
            let above = match self.pages.get(p + 1) {
                Some(next) if next.key == page.key + 1 => next.bits[0],
                _ => 0,
            };
            for (w, &x) in page.bits.iter().enumerate() {
                let next = page.bits.get(w + 1).copied().unwrap_or(above);
                let left = x << 1 | carry;
                let right = x >> 1 | next << 63;
                let start = x & !left;
                unique += u64::from(x.count_ones());
                starts += u64::from(start.count_ones());
                isolated += u64::from((start & !right).count_ones());
                carry = x >> 63;
            }
        }
        self.pages.clear();
        self.last_key = NO_PAGE;
        self.references = 0;
        GranuleStats { unique, isolated, runs: starts - isolated, run_len: unique - isolated }
    }
}

/// Accumulates per-granule averages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ParamAccum {
    granules: u64,
    u1_sum: f64,
    p1_sum: f64,
    lav_sum: f64,
}

impl ParamAccum {
    pub(crate) fn add(&mut self, g: GranuleStats) {
        if g.unique == 0 {
            return;
        }
        self.granules += 1;
        self.u1_sum += g.unique as f64;
        self.p1_sum += g.isolated as f64 / g.unique as f64;
        // A granule with no run of length >= 2 contributes lav = 1.
        let lav = if g.runs > 0 { g.run_len as f64 / g.runs as f64 } else { 1.0 };
        self.lav_sum += lav;
    }

    pub(crate) fn finish(&self) -> TraceParams {
        if self.granules == 0 {
            // Degenerate (empty trace): harmless neutral parameters.
            return TraceParams { u1: 0.0, p1: 1.0, lav: 1.0 };
        }
        let n = self.granules as f64;
        TraceParams { u1: self.u1_sum / n, p1: self.p1_sum / n, lav: self.lav_sum / n }
    }

    pub(crate) fn granules(&self) -> u64 {
        self.granules
    }
}

/// Streaming modeler for a single-component trace (the paper's
/// `ItraceModeler`).
#[derive(Debug, Clone)]
pub struct ITraceModeler {
    granule: usize,
    seen: usize,
    addrs: GranuleSet,
    accum: ParamAccum,
}

impl ITraceModeler {
    /// Creates a modeler with the given granule size.
    ///
    /// # Panics
    ///
    /// Panics if `granule == 0`.
    pub fn new(granule: usize) -> Self {
        assert!(granule > 0, "granule size must be positive");
        Self { granule, seen: 0, addrs: GranuleSet::new(), accum: ParamAccum::default() }
    }

    /// Processes one reference.
    pub fn process(&mut self, addr: u64) {
        self.process_run(addr, 1);
    }

    /// Processes a run of `len` references to `lo`, `lo + 1`, …, which
    /// must fit in what is left of the granule ([`Self::room`]).
    #[inline]
    fn process_run(&mut self, lo: u64, len: usize) {
        self.addrs.insert_run(lo, len as u64);
        self.seen += len;
        if self.seen == self.granule {
            self.accum.add(self.addrs.finish_granule());
            self.seen = 0;
        }
    }

    /// References left before the current granule ends.
    fn room(&self) -> usize {
        self.granule - self.seen
    }

    /// Number of complete granules processed so far.
    pub fn granules(&self) -> u64 {
        self.accum.granules()
    }

    /// Finishes, returning the averaged parameters (discarding any trailing
    /// partial granule).
    pub fn finish(self) -> TraceParams {
        self.accum.finish()
    }
}

/// Parameters of a unified trace: instruction and data components measured
/// separately (only the instruction component dilates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnifiedParams {
    /// Instruction-component parameters (`uI(1)`, `p1I`, `lavI`).
    pub inst: TraceParams,
    /// Data-component parameters (`uD(1)`, `p1D`, `lavD`).
    pub data: TraceParams,
}

/// Streaming modeler for a unified trace (the paper's `UtraceModeler`):
/// granule boundaries fall every `granule` *total* references, but the
/// instruction and data addresses are collected and analyzed separately.
#[derive(Debug, Clone)]
pub struct UTraceModeler {
    granule: usize,
    seen: usize,
    iaddrs: GranuleSet,
    daddrs: GranuleSet,
    iaccum: ParamAccum,
    daccum: ParamAccum,
}

impl UTraceModeler {
    /// Creates a modeler with the given granule size (total references).
    ///
    /// # Panics
    ///
    /// Panics if `granule == 0`.
    pub fn new(granule: usize) -> Self {
        assert!(granule > 0, "granule size must be positive");
        Self {
            granule,
            seen: 0,
            iaddrs: GranuleSet::new(),
            daddrs: GranuleSet::new(),
            iaccum: ParamAccum::default(),
            daccum: ParamAccum::default(),
        }
    }

    /// Processes one access.
    pub fn process(&mut self, access: Access) {
        match access.kind {
            AccessKind::Inst => self.iaddrs.insert_run(access.addr, 1),
            AccessKind::Load | AccessKind::Store => self.daddrs.insert_run(access.addr, 1),
        }
        self.advance(1);
    }

    /// Counts `n` accesses already inserted, which must fit in what is
    /// left of the granule ([`Self::room`]), and ends the granule when
    /// they fill it. Always inlined: left to the compiler, it stayed a
    /// call in `process`, the per-reference path.
    #[inline(always)]
    fn advance(&mut self, n: usize) {
        self.seen += n;
        if self.seen == self.granule {
            self.iaccum.add(self.iaddrs.finish_granule());
            self.daccum.add(self.daddrs.finish_granule());
            self.seen = 0;
        }
    }

    /// Accesses left before the current granule ends.
    fn room(&self) -> usize {
        self.granule - self.seen
    }

    /// Measures a whole access stream.
    pub fn measure(trace: impl IntoIterator<Item = Access>, granule: usize) -> UnifiedParams {
        let mut m = Self::new(granule);
        for a in trace {
            m.process(a);
        }
        m.finish()
    }

    /// Finishes, returning both components' parameters.
    pub fn finish(self) -> UnifiedParams {
        UnifiedParams { inst: self.iaccum.finish(), data: self.daccum.finish() }
    }
}

/// Both modelers of the paper's `TraceModeler` step in one pass over a
/// unified trace: an [`ITraceModeler`] over its instruction references
/// and a [`UTraceModeler`] over all of it.
///
/// Each chunk is walked once. Consecutive instruction references to
/// consecutive addresses gather into a run, cut where either modeler's
/// granule ends or the address wraps past `u64::MAX`; the run goes into
/// both instruction granule sets at once, and each data reference into
/// the unified modeler's data set. A granule set keeps the addresses, not
/// their order, so the parameters are bit-identical to feeding the two
/// modelers one reference at a time, for any chunking.
#[derive(Debug, Clone)]
pub struct TraceModeler {
    inst: ITraceModeler,
    unified: UTraceModeler,
}

impl TraceModeler {
    /// Creates the pass with the instruction modeler's granule
    /// (instruction references) and the unified modeler's (all accesses).
    ///
    /// # Panics
    ///
    /// Panics if either granule is 0.
    pub fn new(i_granule: usize, u_granule: usize) -> Self {
        Self { inst: ITraceModeler::new(i_granule), unified: UTraceModeler::new(u_granule) }
    }

    /// Processes the next accesses of the trace.
    pub fn feed(&mut self, chunk: &[Access]) {
        let mut rest = chunk;
        while !rest.is_empty() {
            let (part, tail) = rest.split_at(rest.len().min(self.unified.room()));
            self.feed_within_unified_granule(part);
            self.unified.advance(part.len());
            rest = tail;
        }
    }

    /// Inserts `part`, which ends at or before the unified granule does.
    fn feed_within_unified_granule(&mut self, part: &[Access]) {
        let mut next = 0;
        while let Some(&Access { addr: lo, kind }) = part.get(next) {
            next += 1;
            if kind != AccessKind::Inst {
                self.unified.daddrs.insert_run(lo, 1);
                continue;
            }
            // The run grows while the next instruction address follows
            // on without wrapping to 0, up to the instruction granule.
            let room = self.inst.room();
            let mut len = 1;
            while len < room {
                match part.get(next) {
                    Some(&Access { addr, kind: AccessKind::Inst })
                        if addr == lo.wrapping_add(len as u64) && addr != 0 =>
                    {
                        len += 1;
                        next += 1;
                    }
                    _ => break,
                }
            }
            self.unified.iaddrs.insert_run(lo, len as u64);
            self.inst.process_run(lo, len);
        }
    }

    /// Finishes, returning the instruction trace's parameters and the
    /// unified trace's (trailing partial granules discarded).
    pub fn finish(self) -> (TraceParams, UnifiedParams) {
        (self.inst.finish(), self.unified.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-everything granule analysis: the reference the modelers
    /// must match bit for bit.
    fn reference_stats(refs: &[u64]) -> GranuleStats {
        let mut addrs = refs.to_vec();
        addrs.sort_unstable();
        addrs.dedup();
        let mut stats = GranuleStats { unique: addrs.len() as u64, ..Default::default() };
        let mut i = 0;
        while i < addrs.len() {
            let mut j = i + 1;
            while j < addrs.len() && addrs[j] == addrs[j - 1] + 1 {
                j += 1;
            }
            let len = (j - i) as u64;
            if len == 1 {
                stats.isolated += 1;
            } else {
                stats.runs += 1;
                stats.run_len += len;
            }
            i = j;
        }
        stats
    }

    fn dedup_stats(mut set: GranuleSet, refs: &[u64]) -> GranuleStats {
        for &a in refs {
            set.insert_run(a, 1);
        }
        assert_eq!(set.references, refs.len() as u64, "Phase::Model counts raw references");
        set.finish_granule()
    }

    /// Reference `ITraceModeler`: sort every complete granule.
    fn reference_iparams(trace: &[u64], granule: usize) -> TraceParams {
        let mut accum = ParamAccum::default();
        for g in trace.chunks_exact(granule) {
            accum.add(reference_stats(g));
        }
        accum.finish()
    }

    /// Reference `UTraceModeler`: sort every complete granule's
    /// instruction and data components.
    fn reference_uparams(trace: &[Access], granule: usize) -> UnifiedParams {
        let (mut iaccum, mut daccum) = (ParamAccum::default(), ParamAccum::default());
        for g in trace.chunks_exact(granule) {
            let (i, d): (Vec<Access>, Vec<Access>) =
                g.iter().partition(|a| a.kind == AccessKind::Inst);
            iaccum.add(reference_stats(&i.iter().map(|a| a.addr).collect::<Vec<_>>()));
            daccum.add(reference_stats(&d.iter().map(|a| a.addr).collect::<Vec<_>>()));
        }
        UnifiedParams { inst: iaccum.finish(), data: daccum.finish() }
    }

    fn bits(p: TraceParams) -> [u64; 3] {
        [p.u1.to_bits(), p.p1.to_bits(), p.lav.to_bits()]
    }

    /// Addresses with duplicates, runs and both extremes of the space.
    fn addr() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..48,
            4000u64..4400,
            Just(0u64),
            Just(u64::MAX),
            Just(u64::MAX - 1),
            0u64..u64::MAX,
        ]
    }

    fn access() -> impl Strategy<Value = Access> {
        (addr(), 0u8..3).prop_map(|(a, k)| match k {
            0 => Access::inst(a),
            1 => Access::load(a),
            _ => Access::store(a),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn dedup_granules_match_sorting_everything(
            refs in prop::collection::vec(addr(), 0..3000),
        ) {
            prop_assert_eq!(dedup_stats(GranuleSet::new(), &refs), reference_stats(&refs));
        }

        #[test]
        fn dedup_imodeler_is_bit_identical(
            trace in prop::collection::vec(addr(), 0..2500),
            granule in 1usize..700,
        ) {
            let mut m = ITraceModeler::new(granule);
            for &a in &trace {
                m.process(a);
            }
            prop_assert_eq!(bits(m.finish()), bits(reference_iparams(&trace, granule)));
        }

        #[test]
        fn dedup_umodeler_is_bit_identical(
            trace in prop::collection::vec(access(), 0..2500),
            granule in 1usize..700,
        ) {
            let got = UTraceModeler::measure(trace.iter().copied(), granule);
            let want = reference_uparams(&trace, granule);
            prop_assert_eq!(bits(got.inst), bits(want.inst));
            prop_assert_eq!(bits(got.data), bits(want.data));
        }

        #[test]
        fn inserted_runs_match_sorting_everything(
            runs in prop::collection::vec((addr(), 1u64..1200), 0..40),
        ) {
            // Each run as one insertion, clipped where it would wrap.
            let (mut set, mut refs) = (GranuleSet::new(), Vec::new());
            for (lo, len) in runs {
                let len = len.min((u64::MAX - lo).saturating_add(1));
                set.insert_run(lo, len);
                refs.extend((0..len).map(|k| lo + k));
            }
            prop_assert_eq!(set.references, refs.len() as u64);
            prop_assert_eq!(set.finish_granule(), reference_stats(&refs));
        }

        #[test]
        fn dedup_runs_across_pages_match_sorting_everything(
            runs in prop::collection::vec((page_edge(), 1u64..1200, 0u64..3), 0..40),
        ) {
            // Runs that start near a page edge and may span several
            // pages, each walked forward, backward or twice.
            let mut refs = Vec::new();
            for (lo, len, order) in runs {
                let run = (0..len).map(|k| lo.saturating_add(k));
                match order {
                    0 => refs.extend(run),
                    1 => refs.extend(run.rev()),
                    _ => refs.extend(run.clone().chain(run)),
                }
            }
            prop_assert_eq!(dedup_stats(GranuleSet::new(), &refs), reference_stats(&refs));
        }
    }

    /// A few words either side of a page edge, at both ends of the
    /// address space and in between.
    fn page_edge() -> impl Strategy<Value = u64> {
        let page = prop_oneof![
            Just(0u64),
            Just(1u64),
            Just(7u64),
            Just(1u64 << 40),
            Just((u64::MAX >> 9) - 3),
        ];
        (page, 0u64..3, 0u64..6).prop_map(|(page, k, off): (u64, u64, u64)| {
            ((page + k) * PAGE_WORDS).wrapping_add(off).wrapping_sub(3)
        })
    }

    #[test]
    fn granule_of_one_and_both_ends_of_the_address_space() {
        let trace: Vec<u64> = vec![0, u64::MAX, 0, 7, 7, u64::MAX - 1];
        let mut m = ITraceModeler::new(1);
        trace.iter().for_each(|&a| m.process(a));
        assert_eq!(bits(m.finish()), bits(reference_iparams(&trace, 1)));
        // u64::MAX and 0 are not neighbours: no run wraps around.
        let edges = [u64::MAX - 2, u64::MAX - 1, u64::MAX, 0, 1, 3];
        let g = dedup_stats(GranuleSet::new(), &edges);
        assert_eq!(g, reference_stats(&edges));
        assert_eq!((g.unique, g.isolated, g.runs, g.run_len), (6, 1, 2, 5));
    }

    #[test]
    fn a_run_crossing_pages_and_granules_is_cut_at_the_granule() {
        // One long run over three pages, cut by granules of 700: each
        // granule holds one run, and the bitmap starts clear each time.
        let trace: Vec<u64> = (PAGE_WORDS - 100..4 * PAGE_WORDS).collect();
        let mut m = ITraceModeler::new(700);
        trace.iter().for_each(|&a| m.process(a));
        assert_eq!(m.granules(), 2);
        let p = m.finish();
        assert_eq!(bits(p), bits(reference_iparams(&trace, 700)));
        assert_eq!((p.u1, p.p1, p.lav), (700.0, 0.0, 700.0));
    }

    #[test]
    fn interleaved_inst_and_data_runs_stay_apart() {
        // Both components stream through the same addresses, interleaved
        // one by one: each keeps its own run.
        let mut trace = Vec::new();
        for i in 0..3000u64 {
            trace.push(Access::inst(i * 2 % 1500));
            trace.push(if i % 3 == 0 { Access::store(i / 2) } else { Access::load(i / 2) });
        }
        let got = UTraceModeler::measure(trace.iter().copied(), 1000);
        let want = reference_uparams(&trace, 1000);
        assert_eq!(bits(got.inst), bits(want.inst));
        assert_eq!(bits(got.data), bits(want.data));
        assert!(want.data.p1 < 0.01, "the data component streams: {:?}", want.data);
    }

    #[test]
    fn many_granules_reuse_the_pages_bit_identically() {
        // 400 granules, each with a different mix of loops, strides and
        // scattered words, so the pool and index shrink and regrow.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let trace: Vec<u64> = (0..400 * 250u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match (i / 250) % 4 {
                    0 => 4096 + i % 97,
                    1 => (i % 250) * 3,
                    2 => x >> (x % 64),
                    _ => x % 5000,
                }
            })
            .collect();
        let mut m = ITraceModeler::new(250);
        trace.iter().for_each(|&a| m.process(a));
        assert_eq!(m.granules(), 400);
        assert_eq!(bits(m.finish()), bits(reference_iparams(&trace, 250)));
    }

    #[test]
    fn granule_analysis_identifies_runs_and_isolates() {
        let g = reference_stats(&[10, 11, 12, 20, 30, 31, 12, 11]);
        assert_eq!(g, dedup_stats(GranuleSet::new(), &[10, 11, 12, 20, 30, 31, 12, 11]));
        assert_eq!(g.unique, 6);
        assert_eq!(g.isolated, 1); // 20
        assert_eq!(g.runs, 2); // 10-12 and 30-31
        assert_eq!(g.run_len, 5);
    }

    #[test]
    fn all_isolated_gives_p1_one() {
        let trace: Vec<u64> = (0..10_000u64).map(|i| i * 10).collect();
        let p = TraceParams::measure(trace, 1000);
        assert!((p.p1 - 1.0).abs() < 1e-12);
        assert_eq!(p.lav, 1.0);
        assert_eq!(p.p2(), 0.0);
    }

    #[test]
    fn pure_streaming_gives_p1_zero_and_long_runs() {
        let trace: Vec<u64> = (0..10_000u64).collect();
        let p = TraceParams::measure(trace, 1000);
        assert!(p.p1 < 1e-12);
        // Each granule is one run of 1000 consecutive addresses.
        assert!((p.lav - 1000.0).abs() < 1e-9);
        assert!((p.u1 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_addresses_do_not_inflate_u1() {
        let trace: Vec<u64> = (0..1000u64).map(|i| i % 10).collect();
        let p = TraceParams::measure(trace, 1000);
        assert!((p.u1 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn p2_matches_formula() {
        let p = TraceParams { u1: 100.0, p1: 0.2, lav: 5.0 };
        let expect = (5.0 - 1.2) / 4.0;
        assert!((p.p2() - expect).abs() < 1e-12);
    }

    #[test]
    fn partial_trailing_granule_is_discarded() {
        let mut m = ITraceModeler::new(100);
        for a in 0..250u64 {
            m.process(a);
        }
        assert_eq!(m.granules(), 2);
    }

    #[test]
    fn unified_modeler_separates_components() {
        use mhe_trace::Access;
        let mut trace = Vec::new();
        for i in 0..500u64 {
            trace.push(Access::inst(i)); // streaming instructions
            trace.push(Access::load(10_000 + i * 7)); // isolated data
        }
        let p = UTraceModeler::measure(trace, 1000);
        assert!(p.inst.p1 < 0.02, "instructions stream: p1 {}", p.inst.p1);
        assert!(p.data.p1 > 0.98, "data isolated: p1 {}", p.data.p1);
        assert!((p.inst.u1 - 500.0).abs() < 1.0);
        assert!((p.data.u1 - 500.0).abs() < 1.0);
    }

    #[test]
    fn empty_trace_degenerates_gracefully() {
        let p = TraceParams::measure(std::iter::empty(), 100);
        assert_eq!(p.u1, 0.0);
        assert_eq!(p.p2(), 0.0);
    }
}
