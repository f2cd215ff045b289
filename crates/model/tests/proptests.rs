//! Property tests for the AHH model: monotonicity, the equivalence of the
//! two collision computations, interpolation identities, and the joint
//! modeler pass against the two per-reference modelers.

use mhe_model::ahh::{
    collisions, collisions_primary, collisions_tail, interpolate_linear_in, unique_lines,
    UniqueLineModel,
};
use mhe_model::params::{ITraceModeler, TraceModeler, TraceParams, UTraceModeler};
use mhe_trace::{Access, AccessKind};
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = TraceParams> {
    (10.0f64..100_000.0, 0.0f64..1.0, 1.0f64..64.0).prop_map(|(u1, p1, lav)| TraceParams {
        u1,
        p1,
        lav,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unique_lines_monotone_decreasing_in_l(p in params_strategy()) {
        for model in [UniqueLineModel::RunBased, UniqueLineModel::PrintedAhh] {
            let mut prev = f64::INFINITY;
            for l in [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0] {
                let u = unique_lines(&p, l, model);
                prop_assert!(u <= prev + 1e-9, "{:?}: u({}) = {} > {}", model, l, u, prev);
                prop_assert!(u > 0.0);
                prev = u;
            }
        }
    }

    #[test]
    fn unique_lines_at_one_is_u1(p in params_strategy()) {
        for model in [UniqueLineModel::RunBased, UniqueLineModel::PrintedAhh] {
            let u = unique_lines(&p, 1.0, model);
            prop_assert!((u - p.u1).abs() < 1e-6 * p.u1, "{:?}: {} != {}", model, u, p.u1);
        }
    }

    #[test]
    fn collision_methods_agree(
        u in 1.0f64..50_000.0,
        sets_pow in 1u32..12,
        assoc in 1u32..9,
    ) {
        let sets = 1u32 << sets_pow;
        let p = collisions_primary(u, sets, assoc);
        let t = collisions_tail(u, sets, assoc);
        // Primary loses digits when the result is tiny; only compare where
        // it is numerically meaningful.
        if p > 1e-6 * u {
            let rel = (p - t).abs() / p.max(t);
            prop_assert!(rel < 1e-4, "u={} S={} A={}: primary {} vs tail {}", u, sets, assoc, p, t);
        }
    }

    #[test]
    fn collisions_bounded_by_u(
        u in 0.0f64..50_000.0,
        sets_pow in 0u32..12,
        assoc in 1u32..9,
    ) {
        let c = collisions(u, 1 << sets_pow, assoc);
        prop_assert!(c >= 0.0);
        prop_assert!(c <= u + 1e-6, "Coll {} exceeds u {}", c, u);
    }

    #[test]
    fn collisions_monotone_in_geometry(
        u in 100.0f64..20_000.0,
        sets_pow in 2u32..10,
        assoc in 1u32..6,
    ) {
        let sets = 1u32 << sets_pow;
        let c = collisions(u, sets, assoc);
        prop_assert!(collisions(u, sets * 2, assoc) <= c + 1e-6);
        prop_assert!(collisions(u, sets, assoc + 1) <= c + 1e-6);
        prop_assert!(collisions(u * 1.1, sets, assoc) + 1e-6 >= c);
    }

    #[test]
    fn interpolation_reproduces_linear_functions(
        a in -100.0f64..100.0,
        b in -1000.0f64..1000.0,
        g1 in -100.0f64..100.0,
        g2 in -100.0f64..100.0,
        g in -100.0f64..100.0,
    ) {
        prop_assume!((g1 - g2).abs() > 1e-3);
        let f = |x: f64| a * x + b;
        let v = interpolate_linear_in(f(g1), g1, f(g2), g2, g);
        let scale = f(g).abs().max(1.0);
        prop_assert!((v - f(g)).abs() < 1e-6 * scale, "{} vs {}", v, f(g));
    }

    #[test]
    fn measured_params_are_well_formed(seed in 0u64..1000) {
        // Any deterministic pseudo-trace yields sane parameters.
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let trace: Vec<u64> = (0..5000u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 2 == 0 { i % 700 } else { (x >> 20) % 4096 }
            })
            .collect();
        let p = TraceParams::measure(trace, 1000);
        prop_assert!(p.u1 > 0.0 && p.u1 <= 1000.0);
        prop_assert!((0.0..=1.0).contains(&p.p1));
        prop_assert!(p.lav >= 1.0);
        prop_assert!(p.p2() <= 1.0);
    }
}

/// Addresses with both ends of the address space and neighbours of each
/// other.
fn joint_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just(u64::MAX - 40),
        0u64..64,
        4000u64..4400,
        0u64..u64::MAX,
    ]
}

/// One piece of a unified trace: a sequential instruction run of `len`
/// from `lo`, wrapping past `u64::MAX` when it gets there, with a data
/// access after every `data_every`-th instruction (none when 0), or one
/// lone data access.
fn piece() -> impl Strategy<Value = Vec<Access>> {
    let run =
        (joint_addr(), 1u64..700, 0u64..4, joint_addr()).prop_map(|(lo, len, data_every, data)| {
            let mut out = Vec::new();
            for k in 0..len {
                out.push(Access::inst(lo.wrapping_add(k)));
                if data_every > 0 && k % data_every == 0 {
                    let addr = data.wrapping_add(k);
                    out.push(if k % 2 == 0 { Access::load(addr) } else { Access::store(addr) });
                }
            }
            out
        });
    prop_oneof![run, joint_addr().prop_map(|a| vec![Access::store(a)])]
}

/// A chunk length: often empty or one access.
fn chunk_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1usize), 0usize..500]
}

fn bits(p: TraceParams) -> [u64; 3] {
    [p.u1.to_bits(), p.p1.to_bits(), p.lav.to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The joint pass is the two per-reference modelers, bit for bit:
    /// instruction runs that cross either granule boundary or wrap past
    /// `u64::MAX`, fed in arbitrary chunks (empty and one-access ones
    /// included).
    #[test]
    fn joint_pass_matches_the_per_reference_modelers(
        pieces in prop::collection::vec(piece(), 0..12),
        i_granule in 1usize..400,
        u_granule in 1usize..1500,
        cuts in prop::collection::vec(chunk_len(), 0..24),
    ) {
        let trace: Vec<Access> = pieces.concat();
        let mut imodel = ITraceModeler::new(i_granule);
        let mut umodel = UTraceModeler::new(u_granule);
        for &a in &trace {
            if a.kind == AccessKind::Inst {
                imodel.process(a.addr);
            }
            umodel.process(a);
        }
        let mut joint = TraceModeler::new(i_granule, u_granule);
        let mut rest = &trace[..];
        for cut in cuts {
            let (chunk, tail) = rest.split_at(cut.min(rest.len()));
            joint.feed(chunk);
            rest = tail;
        }
        joint.feed(rest);
        let (iparams, uparams) = joint.finish();
        let (want_i, want_u) = (imodel.finish(), umodel.finish());
        prop_assert_eq!(bits(iparams), bits(want_i));
        prop_assert_eq!(bits(uparams.inst), bits(want_u.inst));
        prop_assert_eq!(bits(uparams.data), bits(want_u.data));
    }
}
