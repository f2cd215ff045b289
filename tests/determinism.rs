//! Bit-determinism of the parallel evaluation engine.
//!
//! The contract from DESIGN.md ("Parallel evaluation"): parallelism must
//! be invisible to results. A [`ReferenceEvaluation`] built with any
//! worker count yields the same measured miss maps and, therefore, the
//! same analytic estimates — bit-identical, not merely close.

use mhe::prelude::*;

const EVENTS: usize = 30_000;

fn spaces() -> (Vec<CacheConfig>, Vec<CacheConfig>, Vec<CacheConfig>) {
    // Several line sizes per stream so the build fans out many single-pass
    // simulations — the interesting case for scheduling.
    let icaches = vec![
        CacheConfig::from_bytes(1024, 1, 16),
        CacheConfig::from_bytes(1024, 1, 32),
        CacheConfig::from_bytes(16 * 1024, 2, 32),
        CacheConfig::from_bytes(16 * 1024, 2, 64),
    ];
    let dcaches = vec![CacheConfig::from_bytes(1024, 1, 32), CacheConfig::from_bytes(4096, 2, 16)];
    let ucaches =
        vec![CacheConfig::from_bytes(16 * 1024, 2, 64), CacheConfig::from_bytes(128 * 1024, 4, 32)];
    (icaches, dcaches, ucaches)
}

fn build(threads: usize) -> ReferenceEvaluation {
    build_chunked(threads, EvalConfig::default().chunk_accesses)
}

fn build_chunked(threads: usize, chunk_accesses: usize) -> ReferenceEvaluation {
    let (ic, dc, uc) = spaces();
    ReferenceEvaluation::for_benchmark(
        Benchmark::Epic,
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: EVENTS, threads, chunk_accesses, ..EvalConfig::default() },
        &ic,
        &dc,
        &uc,
    )
}

#[test]
fn measured_maps_identical_across_thread_counts() {
    // The generated trace streams through the build in chunks, so the
    // chunk size must be just as invisible as the worker count; a small
    // odd size splits basic blocks and granules across chunks.
    let one = build(1);
    for threads in [1, 2, 8] {
        for chunk in [977, 1 << 16] {
            let many = build_chunked(threads, chunk);
            let tag = format!("{threads} threads, {chunk}-access chunks");
            assert_eq!(one.imeasured(), many.imeasured(), "imeasured @ {tag}");
            assert_eq!(one.dmeasured(), many.dmeasured(), "dmeasured @ {tag}");
            assert_eq!(one.umeasured(), many.umeasured(), "umeasured @ {tag}");
            assert_eq!(one.iparams(), many.iparams(), "iparams @ {tag}");
            assert_eq!(one.uparams(), many.uparams(), "uparams @ {tag}");
        }
    }
}

#[test]
fn estimates_identical_across_thread_counts() {
    let (ic, _, uc) = spaces();
    let one = build(1);
    let two = build(2);
    let eight = build(8);
    for d in [1.0, 1.37, 2.0, 3.25] {
        for &cfg in &ic {
            let a = one.estimate_icache_misses(cfg, d).unwrap();
            let b = two.estimate_icache_misses(cfg, d).unwrap();
            let c = eight.estimate_icache_misses(cfg, d).unwrap();
            // Bit-identical: the same measured integers feed the same
            // float pipeline, so even the rounding is reproduced.
            assert_eq!(a.to_bits(), b.to_bits(), "icache {cfg} @ d={d}");
            assert_eq!(a.to_bits(), c.to_bits(), "icache {cfg} @ d={d}");
        }
        for &cfg in &uc {
            let a = one.estimate_ucache_misses(cfg, d).unwrap();
            let b = two.estimate_ucache_misses(cfg, d).unwrap();
            let c = eight.estimate_ucache_misses(cfg, d).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "ucache {cfg} @ d={d}");
            assert_eq!(a.to_bits(), c.to_bits(), "ucache {cfg} @ d={d}");
        }
    }
}

#[test]
fn metrics_reflect_thread_count_and_work() {
    let (ic, dc, uc) = spaces();
    let eval = build(3);
    let m = eval.metrics();
    assert_eq!(m.threads, 3);
    assert!(m.trace_len > 0);
    // One pass per distinct (stream, line size). The instruction space is
    // expanded with contracted lines (Lemma 1 anchors), so it has at least
    // its three requested line sizes; data {16,32} and unified {32,64} are
    // measured as-is, two passes each.
    let by_stream = |s| m.passes.iter().filter(|p| p.stream == s).count();
    assert!(by_stream(StreamKind::Instruction) >= 3);
    assert_eq!(by_stream(StreamKind::Data), 2);
    assert_eq!(by_stream(StreamKind::Unified), 2);
    let mut keys: Vec<_> =
        m.passes.iter().map(|p| (format!("{:?}", p.stream), p.line_words)).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), m.passes.len(), "one pass per (stream, line)");
    assert!(m.simulated_configs() >= ic.len() + dc.len() + uc.len());
    assert!(m.simulated_addresses() > 0);
    assert!(m.build_wall >= m.sim_wall);
}

#[test]
fn explicit_threads_match_env_default_result() {
    // threads: 0 resolves to the environment default; whatever it is, the
    // numbers must equal the single-thread build's.
    let auto = build(0);
    let one = build(1);
    assert_eq!(auto.imeasured(), one.imeasured());
    assert_eq!(auto.umeasured(), one.umeasured());
    assert!(auto.metrics().threads >= 1);
}
