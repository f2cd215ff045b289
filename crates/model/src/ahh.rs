//! The AHH analytic cache model (Agarwal, Horowitz, Hennessy 1989), as used
//! by the paper.
//!
//! From the three basic trace parameters (`u(1)`, `p1`, `lav`) the model
//! derives, for any cache `C(S, A, L)`:
//!
//! * `u(L)` — the average number of unique cache lines per granule
//!   ([`unique_lines`]; see DESIGN.md on the printed-formula ambiguity),
//! * `P(L, a)` — the probability that `a` lines map to one set (binomial),
//! * `Coll(S, A, L)` — expected collisions per granule ([`collisions`]),
//!   computed by the paper's primary closed form with an automatic
//!   switch to the stable monotone tail series when cancellation bites.

use crate::math::ln_binom_pmf;
use crate::params::TraceParams;

/// Which `u(L)` formula to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UniqueLineModel {
    /// Physically-derived run-based model (default; validated against
    /// empirical unique-line counts):
    /// `u(L) = u(1)·[p1 + (1−p1)·(1/lav)·(1 + (lav−1)/L)]`.
    #[default]
    RunBased,
    /// The formula as printed in the paper (Eq. 4.5), read with the
    /// normalization that makes it decreasing in `L`:
    /// `u(L) = u(1)·(1 + p1·L − p2) / (L·(1 + p1 − p2))`.
    PrintedAhh,
}

/// Average unique cache lines per granule for line size `line_words`.
///
/// Both models satisfy `u(1) = u1` exactly and decrease monotonically in
/// the line size.
///
/// # Panics
///
/// Panics if `line_words <= 0`.
///
/// # Examples
///
/// ```
/// use mhe_model::{ahh::{unique_lines, UniqueLineModel}, params::TraceParams};
/// let p = TraceParams { u1: 1000.0, p1: 0.2, lav: 8.0 };
/// let u1 = unique_lines(&p, 1.0, UniqueLineModel::RunBased);
/// let u8 = unique_lines(&p, 8.0, UniqueLineModel::RunBased);
/// assert!((u1 - 1000.0).abs() < 1e-9);
/// assert!(u8 < u1);
/// ```
pub fn unique_lines(params: &TraceParams, line_words: f64, model: UniqueLineModel) -> f64 {
    assert!(line_words > 0.0, "line size must be positive, got {line_words}");
    let TraceParams { u1, p1, lav } = *params;
    if u1 <= 0.0 {
        return 0.0;
    }
    let lav = lav.max(1.0);
    match model {
        UniqueLineModel::RunBased => {
            // Isolated refs occupy one line each; a run of length lav with
            // random alignment covers 1 + (lav-1)/L lines.
            u1 * (p1 + (1.0 - p1) / lav * (1.0 + (lav - 1.0) / line_words))
        }
        UniqueLineModel::PrintedAhh => {
            // Literal form: u1·(1 + p1·L − p2) / (L·(1 + p1 − p2)). With
            // p2 from Eq. 4.4 this reduces algebraically to the p1-free
            // expression below, which stays finite as p1 → 0 (pure
            // streaming traces) where the literal form is 0/0.
            u1 * (line_words * (lav - 1.0) + 1.0) / (line_words * lav)
        }
    }
}

/// Expected collisions per granule, `Coll(S, A, L)` (Eqs. 4.6/4.8), given
/// the unique-line count `u = u(L)`.
///
/// Follows the paper's implementation strategy: the primary closed form
/// `u − Σ_{a≤A} S·a·P(a)` is used when numerically safe, otherwise the
/// "initial segment of an infinite monotonically decreasing series" — the
/// exact tail `Σ_{a>A} S·a·P(a)` — is summed in log space.
///
/// # Panics
///
/// Panics if `sets == 0` or `assoc == 0`.
pub fn collisions(u: f64, sets: u32, assoc: u32) -> f64 {
    assert!(sets >= 1, "sets must be positive");
    assert!(assoc >= 1, "associativity must be positive");
    if u <= f64::from(assoc) {
        // Even a worst-case mapping cannot overflow any set.
        return 0.0;
    }
    if sets == 1 {
        // Fully associative: every line lands in the single set.
        return u;
    }
    let primary = collisions_primary(u, sets, assoc);
    // Cancellation guard: the primary form subtracts two ~u-sized numbers.
    if primary > 1e-6 * u {
        primary
    } else {
        collisions_tail(u, sets, assoc)
    }
}

/// Primary closed form: `u − Σ_{a=0..A} S·a·P(a)`.
pub fn collisions_primary(u: f64, sets: u32, assoc: u32) -> f64 {
    let p = 1.0 / f64::from(sets);
    let mut held = 0.0;
    let amax = f64::from(assoc).min(u.floor());
    let mut a = 1.0;
    while a <= amax {
        held += a * ln_binom_pmf(u, a, p).exp();
        a += 1.0;
    }
    (u - f64::from(sets) * held).max(0.0)
}

/// Stable tail series: `Σ_{a=A+1..} S·a·P(a)`, summed in log space so the
/// left tail below the binomial mode cannot underflow to zero.
pub fn collisions_tail(u: f64, sets: u32, assoc: u32) -> f64 {
    let s = f64::from(sets);
    let p = 1.0 / s;
    let mode = u * p;
    let sigma = (u * p * (1.0 - p)).sqrt();
    let amax = (mode + 40.0 * sigma + 50.0).min(u.floor());
    let a0 = f64::from(assoc) + 1.0;
    if a0 > amax {
        return 0.0;
    }
    // Walk a from A+1 upward with the multiplicative pmf recurrence in log
    // space: ln P(a+1) = ln P(a) + ln((u-a)/(a+1)) + ln(p/(1-p)).
    let ln_odds = (p / (1.0 - p)).ln();
    let mut ln_p = ln_binom_pmf(u, a0, p);
    let mut acc = 0.0;
    let mut a = a0;
    loop {
        let term = (ln_p + (s * a).ln()).exp();
        acc += term;
        // Past the mode, terms decrease geometrically; stop when negligible.
        if a > mode && term < 1e-15 * (acc + 1e-300) {
            break;
        }
        if a + 1.0 > amax {
            break;
        }
        ln_p += ((u - a) / (a + 1.0)).ln() + ln_odds;
        a += 1.0;
    }
    acc
}

/// Lemma 2: given `f` linear in `g`, and two known points
/// `(g(x1), f(x1))`, `(g(x2), f(x2))`, evaluates `f` at a point with
/// basis value `g`.
///
/// Falls back to the mean of `f1, f2` when `g1 == g2` (degenerate basis).
pub fn interpolate_linear_in(f1: f64, g1: f64, f2: f64, g2: f64, g: f64) -> f64 {
    let dg = g1 - g2;
    if dg.abs() < 1e-12 * (g1.abs() + g2.abs() + 1e-300) {
        return 0.5 * (f1 + f2);
    }
    let a = (f1 - f2) / dg;
    let b = (f2 * g1 - f1 * g2) / dg;
    a * g + b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TraceParams {
        TraceParams { u1: 2000.0, p1: 0.15, lav: 12.0 }
    }

    #[test]
    fn unique_lines_decreasing_in_l_for_both_models() {
        for model in [UniqueLineModel::RunBased, UniqueLineModel::PrintedAhh] {
            let mut prev = f64::INFINITY;
            for l in [1.0, 2.0, 4.0, 7.3, 8.0, 16.0, 64.0] {
                let u = unique_lines(&params(), l, model);
                assert!(u < prev, "{model:?}: u({l}) = {u} not decreasing");
                assert!(u > 0.0);
                prev = u;
            }
        }
    }

    #[test]
    fn unique_lines_at_one_word_is_u1() {
        for model in [UniqueLineModel::RunBased, UniqueLineModel::PrintedAhh] {
            let u = unique_lines(&params(), 1.0, model);
            assert!((u - 2000.0).abs() < 1e-9, "{model:?}");
        }
    }

    #[test]
    fn run_based_matches_exact_enumeration() {
        // A synthetic granule: 100 runs of exactly 12 words plus 30 isolated
        // words -> u1 = 1230, p1 = 30/1230, lav = 12. For L dividing the
        // run structure, compare against direct line counting averaged over
        // alignments.
        let p = TraceParams { u1: 1230.0, p1: 30.0 / 1230.0, lav: 12.0 };
        for l in [2.0f64, 4.0, 8.0] {
            let predicted = unique_lines(&p, l, UniqueLineModel::RunBased);
            // Expected lines: isolated -> 1 each; run of 12 with random
            // alignment -> 1 + 11/L.
            let expect = 30.0 + 100.0 * (1.0 + 11.0 / l);
            assert!(
                (predicted - expect).abs() < 1e-9,
                "L={l}: predicted {predicted}, expected {expect}"
            );
        }
    }

    #[test]
    fn collisions_zero_when_cache_ample() {
        // 10 lines into 1024 sets x 4 ways: collisions vanish.
        let c = collisions(10.0, 1024, 4);
        assert!(c < 1e-6, "got {c}");
    }

    #[test]
    fn collisions_saturate_when_cache_tiny() {
        // u >> S*A: almost every line collides.
        let u = 10_000.0;
        let c = collisions(u, 16, 1);
        assert!(c > 0.95 * u, "got {c}");
        assert!(c <= u);
    }

    #[test]
    fn primary_and_tail_agree_in_stable_regime() {
        for (u, s, a) in [(5000.0, 64, 2), (800.0, 32, 1), (20_000.0, 256, 4)] {
            let p = collisions_primary(u, s, a);
            let t = collisions_tail(u, s, a);
            let rel = (p - t).abs() / t.max(1e-12);
            assert!(rel < 1e-6, "u={u} S={s} A={a}: primary {p}, tail {t}");
        }
    }

    #[test]
    fn tail_is_stable_where_primary_cancels() {
        // Large cache relative to footprint: primary form loses all digits,
        // tail remains positive and sensible.
        let u = 300.0;
        let (s, a) = (4096, 8);
        let t = collisions_tail(u, s, a);
        assert!((0.0..1.0).contains(&t), "tail {t}");
        let auto = collisions(u, s, a);
        assert!((auto - t).abs() <= 1e-9_f64.max(1e-6 * t));
    }

    #[test]
    fn collisions_monotone_in_assoc_and_sets() {
        let u = 4000.0;
        let mut prev = f64::INFINITY;
        for a in [1u32, 2, 4, 8] {
            let c = collisions(u, 128, a);
            assert!(c <= prev);
            prev = c;
        }
        prev = f64::INFINITY;
        for s in [64u32, 128, 256, 512] {
            let c = collisions(u, s, 2);
            assert!(c <= prev);
            prev = c;
        }
    }

    #[test]
    fn collisions_match_monte_carlo() {
        // Throw u = 600 lines uniformly into S = 64 sets and count lines in
        // sets holding more than A = 2; compare with the model.
        let (u, s, a) = (600u64, 64u64, 2u64);
        let trials = 4000;
        let mut total = 0u64;
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..trials {
            let mut counts = vec![0u64; s as usize];
            for _ in 0..u {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                counts[(x % s) as usize] += 1;
            }
            total += counts.iter().filter(|&&c| c > a).copied().sum::<u64>();
        }
        let mc = total as f64 / trials as f64;
        let model = collisions(u as f64, s as u32, a as u32);
        let rel = (mc - model).abs() / model;
        assert!(rel < 0.03, "Monte Carlo {mc} vs model {model}");
    }

    #[test]
    fn interpolation_hits_endpoints_and_midpoint() {
        // f = 3g + 7.
        let g1 = 2.0;
        let g2 = 10.0;
        let f = |g: f64| 3.0 * g + 7.0;
        assert!((interpolate_linear_in(f(g1), g1, f(g2), g2, g1) - f(g1)).abs() < 1e-12);
        assert!((interpolate_linear_in(f(g1), g1, f(g2), g2, g2) - f(g2)).abs() < 1e-12);
        assert!((interpolate_linear_in(f(g1), g1, f(g2), g2, 6.0) - f(6.0)).abs() < 1e-12);
    }

    #[test]
    fn interpolation_degenerate_basis_returns_mean() {
        let v = interpolate_linear_in(4.0, 5.0, 8.0, 5.0, 5.0);
        assert!((v - 6.0).abs() < 1e-12);
    }

    #[test]
    fn fully_associative_special_case() {
        assert_eq!(collisions(100.0, 1, 8), 100.0);
        assert_eq!(collisions(4.0, 1, 8), 0.0);
    }
}
