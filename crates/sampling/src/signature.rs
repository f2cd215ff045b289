//! Cheap per-interval signatures.
//!
//! A signature summarizes one interval with a handful of numbers that
//! are fast to compute (a few array lookups per access, no hashing) yet
//! correlate with the interval's cache behaviour:
//!
//! * the **access-kind mix** — fractions of instruction fetches, loads
//!   and stores. Permutation-stable: reordering the accesses of an
//!   interval cannot change them.
//! * the **probe miss profile** — miss ratios of a ladder of small
//!   direct-mapped probe filters ([`PROBE_LINES`] lines each, line size
//!   [`PROBE_LINE_WORDS`] words), reset at every interval boundary so a
//!   signature depends only on the interval's own contents. The ladder
//!   approximates the interval's reuse-distance profile: an interval
//!   that misses even in the largest probe is streaming; one that hits
//!   everywhere is a tight loop.
//!
//! Signatures are points in a fixed-dimension feature space
//! ([`Signature::DIM`]); the k-means stage clusters them by squared
//! Euclidean distance.

use mhe_trace::{Access, AccessKind};

/// Line size of every probe filter, in words (32-byte lines).
pub const PROBE_LINE_WORDS: u32 = 8;

/// Direct-mapped probe sizes, in lines (powers of two; 512 B..128 KiB).
/// Ascending: [`SignatureProbe::observe`] relies on it to count a
/// ladder's misses as the depth of its first hit.
pub const PROBE_LINES: [usize; 5] = [16, 64, 256, 1024, 4096];

const _: () = {
    let mut i = 1;
    while i < PROBE_LINES.len() {
        assert!(PROBE_LINES[i - 1] < PROBE_LINES[i] && PROBE_LINES[i].is_power_of_two());
        i += 1;
    }
};

const EMPTY: u64 = u64::MAX;

/// Per-interval raw counters behind a [`Signature`]: access-kind counts
/// and, for every probe size, per-kind miss counts. The sampled
/// estimator uses these as a control variate (ratio correction), so
/// they are kept exact rather than rounded through feature ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeCounts {
    /// Access-kind counts `[inst, load, store]`.
    pub kinds: [u64; 3],
    /// Per-stream probe misses `[inst, load, store]`, per probe size.
    /// Instruction accesses probe a private tag array and loads/stores
    /// another, so each stream's counts are free of cross-stream
    /// interference — that is what makes them usable as a ratio
    /// corrector for split-cache estimates.
    pub probe_misses: [[u64; 3]; PROBE_LINES.len()],
    /// Probe misses of the *shared* (unified) tag array, per probe
    /// size: all accesses contend in one array, mirroring a unified
    /// cache. Also the miss-profile slice of the [`Signature`].
    pub probe_misses_unified: [u64; PROBE_LINES.len()],
}

impl ProbeCounts {
    /// Total accesses of the interval.
    pub fn len(&self) -> u64 {
        self.kinds.iter().sum()
    }

    /// Whether the interval recorded no access.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds another interval's counters (used for per-cluster totals).
    pub fn add(&mut self, other: &ProbeCounts) {
        for (k, n) in self.kinds.iter_mut().zip(other.kinds) {
            *k += n;
        }
        for (m, o) in self.probe_misses.iter_mut().zip(other.probe_misses) {
            for (k, n) in m.iter_mut().zip(o) {
                *k += n;
            }
        }
        for (m, n) in self.probe_misses_unified.iter_mut().zip(other.probe_misses_unified) {
            *m += n;
        }
    }
}

/// A per-interval feature vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signature {
    features: [f64; Signature::DIM],
}

impl Signature {
    /// Feature-space dimensionality: three kind fractions plus one miss
    /// ratio per probe size.
    pub const DIM: usize = 3 + PROBE_LINES.len();

    /// Builds a signature from raw per-interval counters.
    fn from_counts(kinds: [u64; 3], probe_misses: [u64; PROBE_LINES.len()], len: u64) -> Self {
        let mut features = [0.0; Signature::DIM];
        if len > 0 {
            let n = len as f64;
            for (f, k) in features.iter_mut().zip(kinds) {
                *f = k as f64 / n;
            }
            for (f, m) in features[3..].iter_mut().zip(probe_misses) {
                *f = m as f64 / n;
            }
        }
        Self { features }
    }

    /// Rebuilds a signature from a raw feature vector (k-means centroid
    /// means live in the same space as real signatures).
    pub(crate) fn from_features(features: [f64; Signature::DIM]) -> Self {
        Self { features }
    }

    /// The raw feature vector.
    pub fn features(&self) -> &[f64; Signature::DIM] {
        &self.features
    }

    /// The access-kind mix `[inst, load, store]` fractions — the
    /// permutation-stable slice of the feature vector.
    pub fn kind_mix(&self) -> [f64; 3] {
        [self.features[0], self.features[1], self.features[2]]
    }

    /// Squared Euclidean distance to another signature.
    pub fn distance2(&self, other: &Self) -> f64 {
        self.features
            .iter()
            .zip(other.features.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }
}

/// Filter lines of one ladder: every probe size, end to end.
const LADDER_LINES: usize = {
    let mut sum = 0;
    let mut i = 0;
    while i < PROBE_LINES.len() {
        sum += PROBE_LINES[i];
        i += 1;
    }
    sum
};

/// Start of each probe filter in a ladder's flat tag array.
const LADDER_OFFSETS: [usize; PROBE_LINES.len()] = {
    let mut offsets = [0; PROBE_LINES.len()];
    let mut i = 1;
    while i < PROBE_LINES.len() {
        offsets[i] = offsets[i - 1] + PROBE_LINES[i - 1];
        i += 1;
    }
    offsets
};

/// One ladder's tag arrays, smallest filter first, at [`LADDER_OFFSETS`].
type Ladder = Box<[u64; LADDER_LINES]>;

/// Accesses per ladder depth (0 = hit in the smallest filter,
/// `PROBE_LINES.len()` = missed in every filter).
type DepthHistogram = [u64; PROBE_LINES.len() + 1];

/// Streaming signature computer: observe every access of an interval,
/// then [`SignatureProbe::finish`] the interval and move to the next.
///
/// Probe tag arrays are allocated once and recycled across intervals.
#[derive(Debug, Clone)]
pub struct SignatureProbe {
    /// Shared (unified) ladder.
    unified: Ladder,
    /// Split ladders: `[0]` instruction-only, `[1]` data-only.
    split: [Ladder; 2],
    /// Accesses of the current interval per unified-ladder depth.
    unified_depths: DepthHistogram,
    /// Accesses of the current interval per kind `[inst, load, store]`
    /// and split-ladder depth.
    split_depths: [DepthHistogram; 3],
    len: u64,
}

impl Default for SignatureProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SignatureProbe {
    /// Creates a probe with empty filters.
    pub fn new() -> Self {
        let fresh = || Box::new([EMPTY; LADDER_LINES]);
        Self {
            unified: fresh(),
            split: [fresh(), fresh()],
            unified_depths: DepthHistogram::default(),
            split_depths: [DepthHistogram::default(); 3],
            len: 0,
        }
    }

    /// Observes one access of the current interval, in two ladders: the
    /// shared one and the access's side of the split one.
    ///
    /// Each ladder's filters share a line size, are indexed by mask and
    /// are reset together, so a smaller filter's content is always
    /// contained in every larger one (set-refinement inclusion): a hit
    /// at one size is a hit at all larger sizes, and the filters that
    /// miss an access are a prefix of the ladder. Only the smallest
    /// filter is branched on. Past a miss there, the other filters are
    /// probed and written without a branch, and the misses summed: a
    /// filter at or past the first hit already holds the block, so
    /// writing it there changes nothing. The miss count is the access's
    /// depth; the probe counts accesses per depth, and
    /// [`SignatureProbe::finish`] turns the histogram into per-size
    /// miss counts exactly equal to probing every filter.
    #[inline]
    pub fn observe(&mut self, access: Access) {
        self.observe_all(std::slice::from_ref(&access));
    }

    /// [`SignatureProbe::observe`] for every access of `accesses`, in
    /// order; the planner calls it once per interval slice.
    pub fn observe_all(&mut self, accesses: &[Access]) {
        let Self { unified, split, unified_depths, split_depths, len } = self;
        *len += accesses.len() as u64;
        for a in accesses {
            let kind = match a.kind {
                AccessKind::Inst => 0,
                AccessKind::Load => 1,
                AccessKind::Store => 2,
            };
            let block = a.addr / u64::from(PROBE_LINE_WORDS);
            unified_depths[ladder_depth(unified, block)] += 1;
            split_depths[kind][ladder_depth(&mut split[usize::from(kind != 0)], block)] += 1;
        }
    }

    /// Accesses observed since the last [`SignatureProbe::finish`].
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no access has been observed in the current interval.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Closes the current interval: returns its signature and raw
    /// counters, and resets all filters for the next interval.
    pub fn finish(&mut self) -> (Signature, ProbeCounts) {
        // An access of depth d missed filters 0..d: a filter's misses are
        // the accesses deeper than it.
        let misses = |depths: &DepthHistogram| {
            let mut out = [0u64; PROBE_LINES.len()];
            let mut deeper = 0;
            for size in (0..PROBE_LINES.len()).rev() {
                deeper += depths[size + 1];
                out[size] = deeper;
            }
            out
        };
        // Each access is in one split histogram: their totals are the kind
        // counts.
        let mut counts = ProbeCounts {
            kinds: self.split_depths.map(|depths| depths.iter().sum()),
            probe_misses_unified: misses(&self.unified_depths),
            ..ProbeCounts::default()
        };
        for (kind, depths) in self.split_depths.iter().enumerate() {
            for (size, m) in misses(depths).into_iter().enumerate() {
                counts.probe_misses[size][kind] = m;
            }
        }
        let sig = Signature::from_counts(counts.kinds, counts.probe_misses_unified, self.len);
        for ladder in std::iter::once(&mut self.unified).chain(&mut self.split) {
            ladder.fill(EMPTY);
        }
        self.unified_depths = DepthHistogram::default();
        self.split_depths = [DepthHistogram::default(); 3];
        self.len = 0;
        (sig, counts)
    }
}

/// Looks `block` up in every filter of one ladder and installs it there;
/// returns how many filters missed, which is the depth of its first hit
/// (see [`SignatureProbe::observe`]).
#[inline(always)]
fn ladder_depth(ladder: &mut [u64; LADDER_LINES], block: u64) -> usize {
    // Probe sizes are powers of two: index by mask.
    let slot =
        |size: usize| LADDER_OFFSETS[size] + (block & (PROBE_LINES[size] as u64 - 1)) as usize;
    let first = slot(0);
    if ladder[first] == block {
        return 0;
    }
    ladder[first] = block;
    let mut depth = 1;
    for size in 1..PROBE_LINES.len() {
        let tag = &mut ladder[slot(size)];
        depth += usize::from(*tag != block);
        *tag = block;
    }
    depth
}

/// Signature of a whole in-memory interval (convenience for tests).
pub fn signature_of(interval: &[Access]) -> Signature {
    let mut probe = SignatureProbe::new();
    probe.observe_all(interval);
    probe.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-ladder probe `observe` replaced: every filter of every
    /// ladder looked up on every access. The reference the early exit
    /// must match.
    fn full_ladder_counts(interval: &[Access]) -> ProbeCounts {
        let fresh = || PROBE_LINES.map(|n| vec![EMPTY; n]);
        let mut unified = fresh();
        let mut split = [fresh(), fresh()];
        let mut counts = ProbeCounts::default();
        let lookup = |tags: &mut Vec<u64>, block: u64| {
            let slot = (block % tags.len() as u64) as usize;
            let miss = tags[slot] != block;
            tags[slot] = block;
            u64::from(miss)
        };
        for a in interval {
            let kind = match a.kind {
                AccessKind::Inst => 0,
                AccessKind::Load => 1,
                AccessKind::Store => 2,
            };
            counts.kinds[kind] += 1;
            let block = a.addr / 8;
            for size in 0..PROBE_LINES.len() {
                counts.probe_misses_unified[size] += lookup(&mut unified[size], block);
                counts.probe_misses[size][kind] +=
                    lookup(&mut split[usize::from(kind != 0)][size], block);
            }
        }
        counts
    }

    /// Mixed-kind accesses over a footprint that straddles every probe
    /// size, plus far jumps and the extremes of the address space.
    fn access() -> impl Strategy<Value = Access> {
        let addr =
            prop_oneof![0u64..512, 0u64..40_000, 0u64..600_000, Just(u64::MAX), 0u64..u64::MAX,];
        (addr, 0u8..3).prop_map(|(a, k)| match k {
            0 => Access::inst(a),
            1 => Access::load(a),
            _ => Access::store(a),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One recycled probe over ragged intervals counts exactly what a
        /// fresh full-ladder probe counts for each interval.
        #[test]
        fn early_exit_matches_the_full_ladder(
            trace in prop::collection::vec(access(), 0..4000),
            cuts in prop::collection::vec(0usize..4000, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(trace.len())).collect();
            cuts.push(trace.len());
            cuts.sort_unstable();
            let mut probe = SignatureProbe::new();
            let mut lo = 0;
            for hi in cuts {
                let interval = &trace[lo..hi];
                interval.iter().for_each(|&a| probe.observe(a));
                let (_, counts) = probe.finish();
                prop_assert_eq!(counts, full_ladder_counts(interval));
                lo = hi;
            }
        }
    }

    #[test]
    fn early_exit_matches_the_full_ladder_on_loops_and_streams() {
        for stride in [1u64, 7, 64, 129, 1024, 4097] {
            let interval: Vec<Access> = (0..20_000u64)
                .map(|i| {
                    let a = (i * stride) % 300_000;
                    if i % 5 == 0 {
                        Access::store(a)
                    } else {
                        Access::inst(a % 70_000)
                    }
                })
                .collect();
            let mut probe = SignatureProbe::new();
            interval.iter().for_each(|&a| probe.observe(a));
            assert_eq!(probe.finish().1, full_ladder_counts(&interval), "stride {stride}");
        }
    }

    #[test]
    fn kind_mix_sums_to_one_on_nonempty_intervals() {
        let iv: Vec<Access> =
            (0..300).map(|i| if i % 3 == 0 { Access::load(i) } else { Access::inst(i) }).collect();
        let sig = signature_of(&iv);
        let mix = sig.kind_mix();
        assert!((mix.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((mix[1] - 100.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn empty_interval_is_the_zero_vector() {
        let sig = signature_of(&[]);
        assert!(sig.features().iter().all(|&f| f == 0.0));
    }

    #[test]
    fn tight_loop_beats_streaming_in_every_probe() {
        let loop_iv: Vec<Access> = (0..4096u64).map(|i| Access::inst(i % 64)).collect();
        let stream_iv: Vec<Access> = (0..4096u64).map(|i| Access::inst(i * 1024)).collect();
        let l = signature_of(&loop_iv);
        let s = signature_of(&stream_iv);
        for i in 3..Signature::DIM {
            assert!(
                l.features()[i] < s.features()[i],
                "probe {i}: loop miss ratio must be below streaming"
            );
        }
    }

    #[test]
    fn probes_reset_between_intervals() {
        let mut probe = SignatureProbe::new();
        let iv: Vec<Access> = (0..512u64).map(Access::inst).collect();
        for &a in &iv {
            probe.observe(a);
        }
        let (first, counts) = probe.finish();
        assert_eq!(counts.kinds, [512, 0, 0]);
        assert_eq!(counts.len(), 512);
        for &a in &iv {
            probe.observe(a);
        }
        let (second, _) = probe.finish();
        assert_eq!(first, second, "signatures must not leak state across intervals");
    }

    #[test]
    fn distance_is_zero_iff_identical_features() {
        let a = signature_of(&(0..256u64).map(Access::inst).collect::<Vec<_>>());
        let b = signature_of(&(0..256u64).map(|i| Access::inst(i + 1_000_000)).collect::<Vec<_>>());
        assert_eq!(a.distance2(&a), 0.0);
        assert!(a.distance2(&b) >= 0.0);
    }
}
