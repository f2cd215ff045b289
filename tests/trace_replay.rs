//! Differential test: captured-trace replay reproduces the evaluation
//! built from the generated trace bit for bit.
//!
//! For every benchmark, the reference trace is captured to a compact
//! `.mtr` file and replayed through [`ReferenceEvaluation::replay_file`]
//! at 1 and 8 worker threads. The replayed evaluation must agree with the
//! generated build exactly — identical measured miss maps and
//! bit-identical dilated estimates — and the binary capture must be at
//! least 4x smaller than the equivalent `din` text. A second test checks
//! the `din` replay path and that the chunk size is invisible to results.
//! A third checks the sampled route: its second pass decodes only the
//! `.mtr` frames that hold representative windows, yet the result equals
//! the generated sampled build and the sampled `din` replay bit for bit.

use mhe::prelude::*;
use mhe::trace::TraceWriter;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

const EVENTS: usize = 10_000;

fn spaces() -> (Vec<CacheConfig>, Vec<CacheConfig>, Vec<CacheConfig>) {
    (
        vec![CacheConfig::from_bytes(1024, 1, 32), CacheConfig::from_bytes(16 * 1024, 2, 32)],
        vec![CacheConfig::from_bytes(1024, 1, 32)],
        vec![CacheConfig::from_bytes(16 * 1024, 2, 64)],
    )
}

fn config(threads: usize, chunk_accesses: usize) -> EvalConfig {
    EvalConfig { events: EVENTS, threads, chunk_accesses, ..EvalConfig::default() }
}

fn build_generated(b: Benchmark) -> ReferenceEvaluation {
    let (ic, dc, uc) = spaces();
    ReferenceEvaluation::build(
        b.generate(),
        &ProcessorKind::P1111.mdes(),
        config(1, 1 << 16),
        &ic,
        &dc,
        &uc,
    )
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mhe_replay_test_{}_{name}", std::process::id()))
}

/// The full bit-identity contract: measured maps equal as integers,
/// estimates equal to the last mantissa bit.
fn assert_identical(mem: &ReferenceEvaluation, rep: &ReferenceEvaluation, tag: &str) {
    assert_eq!(mem.imeasured(), rep.imeasured(), "imeasured {tag}");
    assert_eq!(mem.dmeasured(), rep.dmeasured(), "dmeasured {tag}");
    assert_eq!(mem.umeasured(), rep.umeasured(), "umeasured {tag}");
    let (ic, _, uc) = spaces();
    for d in [1.0, 1.6, 2.0, 3.0] {
        for &cfg in &ic {
            let a = mem.estimate_icache_misses(cfg, d).unwrap();
            let b = rep.estimate_icache_misses(cfg, d).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "icache {cfg} @ d={d} {tag}");
        }
        for &cfg in &uc {
            let a = mem.estimate_ucache_misses(cfg, d).unwrap();
            let b = rep.estimate_ucache_misses(cfg, d).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "ucache {cfg} @ d={d} {tag}");
        }
    }
}

#[test]
fn mtr_replay_is_bit_identical_for_every_benchmark() {
    let (ic, dc, uc) = spaces();
    for b in Benchmark::ALL {
        let name = b.name();
        let mem = build_generated(b);
        let path = temp_path(&format!("{}.mtr", name.replace('.', "_")));
        let stats = mem.capture_mtr(BufWriter::new(File::create(&path).unwrap())).unwrap();
        assert_eq!(stats.accesses, mem.metrics().trace_len, "{name}: captured whole trace");
        assert!(
            stats.compression_ratio() >= 4.0,
            "{name}: .mtr only {:.2}x smaller than din",
            stats.compression_ratio()
        );
        for threads in [1, 8] {
            let rep = ReferenceEvaluation::replay_file(
                b.generate(),
                &ProcessorKind::P1111.mdes(),
                config(threads, 1 << 16),
                &path,
                &ic,
                &dc,
                &uc,
            )
            .unwrap();
            assert_identical(&mem, &rep, &format!("[{name} mtr @ {threads} threads]"));
            let replay = rep.metrics().replay.expect("file replay records metrics");
            assert_eq!(replay.accesses, mem.metrics().trace_len, "{name}");
            assert_eq!(replay.bytes_read, stats.bytes, "{name}");
            assert!(replay.chunks > 0, "{name}");
            assert!(
                replay.compression_ratio() >= 4.0,
                "{name}: replay reports {:.2}x",
                replay.compression_ratio()
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn din_replay_matches_and_chunk_size_is_invisible() {
    let b = Benchmark::Unepic;
    let mem = build_generated(b);
    let path = temp_path("unepic.din");
    mem.capture_din(File::create(&path).unwrap()).unwrap();
    let (ic, dc, uc) = spaces();
    // A prime chunk size exercises ragged frame boundaries; the default
    // must give the same bits.
    for chunk_accesses in [977, 1 << 16] {
        let rep = ReferenceEvaluation::replay_file(
            b.generate(),
            &ProcessorKind::P1111.mdes(),
            config(2, chunk_accesses),
            &path,
            &ic,
            &dc,
            &uc,
        )
        .unwrap();
        assert_identical(&mem, &rep, &format!("[din chunk={chunk_accesses}]"));
        let replay = rep.metrics().replay.expect("file replay records metrics");
        // din is the uncompressed baseline, so its ratio is exactly 1.
        assert_eq!(replay.bytes_read, replay.din_bytes);
        assert_eq!(replay.accesses, mem.metrics().trace_len);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sampled_mtr_replay_skips_frames_and_stays_bit_identical() {
    let b = Benchmark::Unepic;
    let (ic, dc, uc) = spaces();
    let sampling = SamplingConfig {
        interval_accesses: 4096,
        clusters: 8,
        warmup: 4096,
        ..SamplingConfig::default()
    };
    let sampled = |threads: usize| EvalConfig {
        events: 6 * EVENTS,
        sampling: Some(sampling),
        ..config(threads, 1 << 16)
    };
    let mem = ReferenceEvaluation::build(
        b.generate(),
        &ProcessorKind::P1111.mdes(),
        sampled(1),
        &ic,
        &dc,
        &uc,
    );
    let sm = mem.metrics().sampling.expect("sampled build records metrics");
    assert!(sm.representative_accesses * 2 < sm.total_accesses, "a plan that can skip: {sm}");

    // Frames of a prime size so windows straddle frame boundaries.
    let mtr = temp_path("sampled_skip.mtr");
    let mut w =
        TraceWriter::with_frame_accesses(BufWriter::new(File::create(&mtr).unwrap()), 977).unwrap();
    w.write_all(mem.reference_trace()).unwrap();
    let written = w.finish().unwrap();
    assert_eq!(written.accesses, sm.total_accesses);
    let din = temp_path("sampled_skip.din");
    mem.capture_din(File::create(&din).unwrap()).unwrap();

    for threads in [1, 2] {
        let replay = |path: &PathBuf| {
            ReferenceEvaluation::replay_file(
                b.generate(),
                &ProcessorKind::P1111.mdes(),
                sampled(threads),
                path,
                &ic,
                &dc,
                &uc,
            )
            .unwrap()
        };
        let from_mtr = replay(&mtr);
        let from_din = replay(&din);
        assert_identical(&mem, &from_mtr, &format!("[sampled mtr @ {threads} threads]"));
        assert_identical(&from_din, &from_mtr, &format!("[sampled din/mtr @ {threads} threads]"));
        assert_eq!(from_mtr.metrics().sampling, mem.metrics().sampling, "{threads} threads");
        assert_eq!(from_din.metrics().sampling, mem.metrics().sampling, "{threads} threads");

        let r = from_mtr.metrics().replay.expect("file replay records metrics");
        assert_eq!(r.chunks, written.frames, "pass A decodes every frame");
        assert_eq!(r.pass_b_chunks + r.pass_b_skipped, r.chunks);
        assert!(
            r.pass_b_chunks > 0 && r.pass_b_chunks < r.chunks,
            "pass B decoded {} of {} frames",
            r.pass_b_chunks,
            r.chunks
        );
        assert_eq!(r.bytes_read, written.bytes, "bytes_read counts pass A only");
        assert_eq!(r.din_bytes, written.din_bytes);
        let d = from_din.metrics().replay.expect("file replay records metrics");
        assert_eq!(d.din_bytes, r.din_bytes, "both formats report the same din size");
        assert!(d.pass_b_chunks <= d.chunks);
    }
    std::fs::remove_file(&mtr).ok();
    std::fs::remove_file(&din).ok();
}
