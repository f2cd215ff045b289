//! Seeded input generation.
//!
//! `--seed` alone decides every input: the spec texts, the trace seeds
//! and the daemon's request order. The program only ever sees the
//! generated spec text, the trace seed and (for replay) the captured
//! `.mtr` file. Seeds move values, not sizes: the benchmark program, the
//! trace window and the grid shapes are fixed per workload so that runs
//! at different seeds do the same amount of work.

use mhe::vliw::ProcessorKind;
use mhe::workload::Benchmark;

/// SplitMix64: small, seedable, and independent of the program's own
/// random-number code, so a change there cannot change the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Workload sizes: the full benchmark, or the tiny `--smoke` variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `exact-walk` window in block events.
    pub exact_events: usize,
    /// `sampled-replay` window in block events.
    pub sampled_events: usize,
    /// `daemon-mix` hot-set window.
    pub hot_events: usize,
    /// `daemon-mix` cold-spec window (each cold spec adds a little).
    pub cold_events: usize,
    /// `fleet-2` window.
    pub fleet_events: usize,
    /// Set-up rounds of the workloads whose set-up is a whole build
    /// (`exact-walk`, `sampled-replay`, `fleet-2`); `setup_s` is their
    /// median.
    pub build_setups: usize,
    /// Set-up rounds of `daemon-mix`, whose set-up is much cheaper.
    pub daemon_setups: usize,
}

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        exact_events: 1_000_000,
        sampled_events: 2_000_000,
        hot_events: 50_000,
        cold_events: 10_000,
        fleet_events: 2_000_000,
        build_setups: 2,
        daemon_setups: 5,
    };

    /// Tiny inputs that exercise every path in seconds.
    pub const SMOKE: Sizes = Sizes {
        exact_events: 20_000,
        sampled_events: 60_000,
        hot_events: 10_000,
        cold_events: 5_000,
        fleet_events: 20_000,
        build_setups: 1,
        daemon_setups: 1,
    };
}

/// A batch input: spec text plus the trace seed of the evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchInput {
    /// Spec file text.
    pub spec_text: String,
    /// `EvalConfig::seed` (branch decisions and data patterns).
    pub trace_seed: u64,
}

/// The paper's exploration axes (six processors, 19,200 systems).
fn paper_space(benchmark: Benchmark, events: usize, l1: u64, l2: u64, policies: &str) -> String {
    format!(
        "[processors]\nkinds = 1111 2111 3221 4221 6332 custom9\n\n\
         [processor.custom9]\nunits = 4 2 2 1\nregs = 64 64\npredication = on\n\n\
         [icache]\nsizes_kb = 1 2 4 8 16\nassocs = 1 2\nline_bytes = 16 32\nports = 1\n\n\
         [dcache]\nsizes_kb = 1 2 4 8 16\nassocs = 1 2\nline_bytes = 16 32\nports = 1\n\n\
         [ucache]\nsizes_kb = 16 32 64 128\nassocs = 2 4\nline_bytes = 64\nports = 1\n{policies}\n\
         [eval]\nbenchmark = {}\nevents = {events}\nl1_miss = {l1}\nl2_miss = {l2}\n",
        benchmark.name()
    )
}

fn penalties(rng: &mut Rng) -> (u64, u64) {
    (8 + rng.below(5), 40 + rng.below(21))
}

/// `exact-walk`: the paper space plus FIFO on the unified cache, over
/// ghostscript.
pub fn exact_walk(seed: u64, sizes: Sizes) -> BatchInput {
    let mut rng = Rng::new(seed, 1);
    let (l1, l2) = penalties(&mut rng);
    BatchInput {
        spec_text: paper_space(
            Benchmark::Ghostscript,
            sizes.exact_events,
            l1,
            l2,
            "policies = lru fifo\n",
        ),
        trace_seed: rng.next_u64(),
    }
}

/// `sampled-replay`: the paper space (LRU) over gcc.
pub fn sampled_replay(seed: u64, sizes: Sizes) -> BatchInput {
    let mut rng = Rng::new(seed, 2);
    let (l1, l2) = penalties(&mut rng);
    BatchInput {
        spec_text: paper_space(Benchmark::Gcc, sizes.sampled_events, l1, l2, ""),
        trace_seed: rng.next_u64(),
    }
}

/// `fleet-2`: four processors whose cycle simulations the fleet spreads.
pub fn fleet(seed: u64, sizes: Sizes) -> BatchInput {
    let mut rng = Rng::new(seed, 3);
    let (l1, l2) = penalties(&mut rng);
    BatchInput {
        spec_text: format!(
            "[processors]\nkinds = 1111 2111 3221 4221\n\n\
             [icache]\nsizes_kb = 1 2 4 8\nassocs = 1 2\nline_bytes = 32\nports = 1\n\n\
             [dcache]\nsizes_kb = 1 4\nassocs = 1\nline_bytes = 32\nports = 1\n\n\
             [ucache]\nsizes_kb = 16 64\nassocs = 2\nline_bytes = 64\nports = 1\n\n\
             [eval]\nbenchmark = {}\nevents = {}\nl1_miss = {l1}\nl2_miss = {l2}\n",
            Benchmark::Unepic.name(),
            sizes.fleet_events
        ),
        trace_seed: rng.next_u64(),
    }
}

/// Hot-set size of `daemon-mix`.
pub const HOT_SPECS: usize = 4;
/// Cold specs per daemon client; each client cycles through its own.
pub const COLD_PER_CLIENT: usize = 4;
/// Daemon client connections (closed loop, one request in flight each).
pub const CLIENTS: usize = 2;
/// One request in this many is cold.
pub const COLD_EVERY: u64 = 25;

/// One daemon spec: unepic with seeded geometry of a fixed shape, so
/// every hot spec costs about the same to walk.
fn daemon_spec(rng: &mut Rng, events: usize, index: u64) -> String {
    let mut targets = ProcessorKind::TARGETS;
    rng.shuffle(&mut targets);
    let kinds: Vec<&str> =
        std::iter::once("1111").chain(targets[..3].iter().map(|k| k.name())).collect();
    let run = |rng: &mut Rng, values: &[u64], len: usize| -> String {
        let start = rng.below((values.len() - len + 1) as u64) as usize;
        values[start..start + len].iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
    };
    let isizes = run(rng, &[1, 2, 4, 8, 16, 32], 4);
    let dsizes = run(rng, &[1, 2, 4, 8, 16], 3);
    let usizes = run(rng, &[16, 32, 64, 128], 2);
    // The index keeps every spec text distinct whatever the draws.
    let (l1, l2) = (8 + rng.below(5), 40 + 8 * index + rng.below(8));
    format!(
        "[processors]\nkinds = {}\n\n\
         [icache]\nsizes_kb = {isizes}\nassocs = 1 2\nline_bytes = 32\nports = 1\n\n\
         [dcache]\nsizes_kb = {dsizes}\nassocs = 1 2\nline_bytes = 32\nports = 1\n\n\
         [ucache]\nsizes_kb = {usizes}\nassocs = 2 4\nline_bytes = 64\nports = 1\n\n\
         [eval]\nbenchmark = {}\nevents = {events}\nl1_miss = {l1}\nl2_miss = {l2}\n",
        kinds.join(" "),
        Benchmark::Unepic.name()
    )
}

/// The daemon's specs: the hot set, then every client's cold pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonInput {
    /// Specs primed during set-up and requested warm.
    pub hot: Vec<String>,
    /// Specs requested cold; client `c` owns
    /// `cold[c * COLD_PER_CLIENT..(c + 1) * COLD_PER_CLIENT]`. Each has
    /// its own window, so it shares no session or metric cache with any
    /// other spec.
    pub cold: Vec<String>,
}

/// `daemon-mix` specs.
pub fn daemon(seed: u64, sizes: Sizes) -> DaemonInput {
    let mut rng = Rng::new(seed, 4);
    let hot = (0..HOT_SPECS as u64).map(|i| daemon_spec(&mut rng, sizes.hot_events, i)).collect();
    let cold = (0..(CLIENTS * COLD_PER_CLIENT) as u64)
        .map(|i| daemon_spec(&mut rng, sizes.cold_events + 100 * i as usize, i))
        .collect();
    DaemonInput { hot, cold }
}

/// Which spec a daemon request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Index into [`DaemonInput::hot`].
    Hot(usize),
    /// Index into [`DaemonInput::cold`].
    Cold(usize),
}

/// One client's endless, seeded request sequence: the hot set in a
/// seeded order, with every [`COLD_EVERY`]th request (from a seeded
/// offset) naming the client's next cold spec.
#[derive(Debug, Clone)]
pub struct RequestPlan {
    client: usize,
    order: [usize; HOT_SPECS],
    offset: u64,
    issued: u64,
    hot_issued: usize,
    cold_issued: usize,
}

impl RequestPlan {
    /// The plan of `client` at `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        let mut rng = Rng::new(seed, 100 + client as u64);
        let mut order = [0, 1, 2, 3];
        rng.shuffle(&mut order);
        // The clients' cold requests interleave evenly instead of landing
        // together, so at most one session build runs at a time and the
        // process's peak memory does not depend on how they happen to
        // line up.
        let stagger = client as u64 * COLD_EVERY / CLIENTS as u64;
        let offset = (Rng::new(seed, 99).below(COLD_EVERY) + stagger) % COLD_EVERY;
        RequestPlan { client, order, offset, issued: 0, hot_issued: 0, cold_issued: 0 }
    }
}

impl Iterator for RequestPlan {
    type Item = Pick;

    fn next(&mut self) -> Option<Pick> {
        self.issued += 1;
        if (self.issued + self.offset).is_multiple_of(COLD_EVERY) {
            let pick = self.client * COLD_PER_CLIENT + self.cold_issued % COLD_PER_CLIENT;
            self.cold_issued += 1;
            return Some(Pick::Cold(pick));
        }
        let pick = self.order[self.hot_issued % HOT_SPECS];
        self.hot_issued += 1;
        Some(Pick::Hot(pick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhe::spacewalk::spec::Spec;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let s = Sizes::FULL;
        assert_eq!(exact_walk(1, s), exact_walk(1, s));
        assert_eq!(sampled_replay(1, s), sampled_replay(1, s));
        assert_eq!(fleet(1, s), fleet(1, s));
        assert_eq!(daemon(1, s), daemon(1, s));
        let plan: Vec<Pick> = RequestPlan::new(1, 0).take(500).collect();
        assert_eq!(plan, RequestPlan::new(1, 0).take(500).collect::<Vec<_>>());
        assert_ne!(exact_walk(1, s), exact_walk(2, s));
        assert_ne!(sampled_replay(1, s), sampled_replay(2, s));
        assert_ne!(daemon(1, s), daemon(2, s));
        assert_ne!(plan, RequestPlan::new(2, 0).take(500).collect::<Vec<_>>());
    }

    #[test]
    fn generated_specs_parse_with_fixed_shapes() {
        for seed in 1..20 {
            let shape = |text: &str| {
                let spec = Spec::parse(text).expect("generated spec parses");
                (spec.events, spec.space.combinations())
            };
            assert_eq!(
                shape(&exact_walk(seed, Sizes::FULL).spec_text),
                (1_000_000, 6 * 20 * 20 * 16)
            );
            assert_eq!(shape(&sampled_replay(seed, Sizes::FULL).spec_text).1, 6 * 20 * 20 * 8);
            assert_eq!(shape(&fleet(seed, Sizes::SMOKE).spec_text), (20_000, 4 * 8 * 2 * 2));
            let d = daemon(seed, Sizes::FULL);
            let mut texts: Vec<&String> = d.hot.iter().chain(&d.cold).collect();
            for text in &texts {
                assert_eq!(shape(text).1, 4 * 8 * 6 * 4);
            }
            texts.sort();
            texts.dedup();
            assert_eq!(texts.len(), HOT_SPECS + CLIENTS * COLD_PER_CLIENT, "specs are distinct");
        }
    }

    #[test]
    fn request_plan_cycles_the_hot_set_and_owns_its_cold_pool() {
        for client in 0..CLIENTS {
            let plan: Vec<Pick> =
                RequestPlan::new(9, client).take(COLD_EVERY as usize * 8).collect();
            let cold: Vec<usize> = plan
                .iter()
                .filter_map(|p| if let Pick::Cold(i) = p { Some(*i) } else { None })
                .collect();
            assert_eq!(cold.len(), 8);
            let own = client * COLD_PER_CLIENT..(client + 1) * COLD_PER_CLIENT;
            assert!(cold.iter().all(|i| own.contains(i)));
            assert_eq!(cold[..COLD_PER_CLIENT], cold[COLD_PER_CLIENT..]);
            let hot: Vec<usize> = plan
                .iter()
                .filter_map(|p| if let Pick::Hot(i) = p { Some(*i) } else { None })
                .collect();
            for window in hot.windows(HOT_SPECS) {
                let mut w = window.to_vec();
                w.sort_unstable();
                assert_eq!(w, [0, 1, 2, 3], "every hot spec recurs within four requests");
            }
        }
    }
}
