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
//! unified trace (only the instruction component dilates). Default granule
//! sizes follow the paper: 10,000 references for the instruction trace and
//! 200,000 for the unified trace.

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

/// Per-granule run statistics over a sorted unique-address set.
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

/// Run statistics of one granule's unique addresses, which `addrs`
/// holds exactly once each; sorts them in place. `references` is the
/// granule's raw reference count, reported to `mhe-obs`.
fn analyze_unique(addrs: &mut [u64], references: u64) -> GranuleStats {
    let _obs = mhe_obs::span(mhe_obs::Phase::Model);
    mhe_obs::add_events(mhe_obs::Phase::Model, references);
    addrs.sort_unstable();
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

/// One slot of a [`GranuleSet`]: an address, live while its stamp is the
/// set's current generation.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    addr: u64,
    stamp: u32,
}

/// The distinct addresses of one granule, collected as they arrive.
///
/// An open-addressing hash set whose slots carry a generation stamp:
/// starting the next granule bumps the generation, which empties every
/// slot at once without touching the table. The table grows with the
/// granule's *unique* count (kept at most half full), not with its
/// reference count, so a modeler sorts only the unique addresses.
#[derive(Debug, Clone)]
struct GranuleSet {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps the top bits.
    shift: u32,
    stamp: u32,
    unique: Vec<u64>,
    references: u64,
}

impl GranuleSet {
    const MIN_SLOTS: usize = 1 << 10;

    fn new() -> Self {
        Self {
            slots: vec![Slot::default(); Self::MIN_SLOTS],
            shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
            stamp: 1,
            unique: Vec::new(),
            references: 0,
        }
    }

    /// Fibonacci hashing: sequential addresses scatter across the table.
    fn home(&self, addr: u64) -> usize {
        (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Records one reference.
    #[inline]
    fn insert(&mut self, addr: u64) {
        self.references += 1;
        let mask = self.slots.len() - 1;
        let mut i = self.home(addr);
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.stamp {
                *slot = Slot { addr, stamp: self.stamp };
                self.unique.push(addr);
                if self.unique.len() * 2 > self.slots.len() {
                    self.grow();
                }
                return;
            }
            if slot.addr == addr {
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table and re-inserts this granule's addresses.
    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        self.slots = vec![Slot::default(); len];
        self.shift = 64 - len.trailing_zeros();
        self.stamp = 1;
        let mask = len - 1;
        for k in 0..self.unique.len() {
            let addr = self.unique[k];
            let mut i = self.home(addr);
            while self.slots[i].stamp == self.stamp {
                i = (i + 1) & mask;
            }
            self.slots[i] = Slot { addr, stamp: self.stamp };
        }
    }

    /// Analyzes the granule collected so far and starts the next one.
    fn finish_granule(&mut self) -> GranuleStats {
        let stats = analyze_unique(&mut self.unique, self.references);
        self.unique.clear();
        self.references = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // The generation wrapped: slots stamped long ago would look
            // live again, so empty the table for real once.
            self.slots.fill(Slot::default());
            self.stamp = 1;
        }
        stats
    }

    /// Jumps the generation to `stamp`, so tests can force a wrap.
    #[cfg(test)]
    fn with_stamp(mut self, stamp: u32) -> Self {
        self.stamp = stamp;
        self
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
        self.addrs.insert(addr);
        self.seen += 1;
        if self.seen == self.granule {
            self.accum.add(self.addrs.finish_granule());
            self.seen = 0;
        }
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
            AccessKind::Inst => self.iaddrs.insert(access.addr),
            AccessKind::Load | AccessKind::Store => self.daddrs.insert(access.addr),
        }
        self.seen += 1;
        if self.seen == self.granule {
            self.iaccum.add(self.iaddrs.finish_granule());
            self.daccum.add(self.daddrs.finish_granule());
            self.seen = 0;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-everything granule analysis the dedup set replaced: the
    /// reference the modelers must match bit for bit.
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
            set.insert(a);
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
        fn dedup_survives_a_generation_wrap(
            trace in prop::collection::vec(addr(), 0..400),
            granule in 1usize..40,
            before_wrap in 0u32..6,
        ) {
            // Stale slots from before the wrap must not read as live.
            let mut m = ITraceModeler {
                addrs: GranuleSet::new().with_stamp(u32::MAX - before_wrap),
                ..ITraceModeler::new(granule)
            };
            for &a in &trace {
                m.process(a);
            }
            prop_assert_eq!(bits(m.finish()), bits(reference_iparams(&trace, granule)));
        }
    }

    #[test]
    fn granule_of_one_and_wrap_with_growth() {
        let trace: Vec<u64> = vec![0, u64::MAX, 0, 7, 7, u64::MAX - 1];
        let mut m = ITraceModeler::new(1);
        trace.iter().for_each(|&a| m.process(a));
        assert_eq!(bits(m.finish()), bits(reference_iparams(&trace, 1)));
        // Grow the table first (growth restarts the generation), then
        // wrap the generation with stale slots from the grown table.
        let granule = |g: u64| -> Vec<u64> { (0..3000).map(|i| (i * 7 + g) % 2500).collect() };
        let mut set = GranuleSet::new();
        assert_eq!(dedup_stats(set.clone(), &granule(0)), reference_stats(&granule(0)));
        granule(0).iter().for_each(|&a| set.insert(a));
        set.finish_granule();
        assert!(set.slots.len() > GranuleSet::MIN_SLOTS);
        let mut set = set.with_stamp(u32::MAX - 1);
        for g in 1..5 {
            let refs = granule(g);
            refs.iter().for_each(|&a| set.insert(a));
            assert_eq!(set.finish_granule(), reference_stats(&refs), "granule {g}");
        }
        assert_eq!(set.stamp, 3, "the generation wrapped once");
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
