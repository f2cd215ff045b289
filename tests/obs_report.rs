//! The run-report contract: the line-JSON schema is pinned word for word
//! (version 1), and a real evaluation + walk records every phase the
//! report promises.
//!
//! The obs level is process-global; the one test that enables it does all
//! its recording itself and restores `Off` before returning (this file is
//! its own test binary, so no other test races on the level).

use mhe::obs::{ObsLevel, Phase, PhaseStats, RunReport, Snapshot, REPORT_SCHEMA_VERSION};
use mhe::prelude::*;
use mhe::spacewalk::walker;
use std::io::BufWriter;

/// Golden rendering of a hand-built report: pins field names, order,
/// number formatting, and the null efficiency of wall-less phases for
/// schema version 1. Changing any of it must bump
/// [`REPORT_SCHEMA_VERSION`] and this string.
#[test]
fn json_line_schema_is_golden() {
    assert_eq!(REPORT_SCHEMA_VERSION, 1);
    let report = RunReport {
        label: "golden \"run\"".to_string(),
        threads: 4,
        phases: vec![
            PhaseStats {
                phase: Phase::Simulate.name(),
                spans: 2,
                busy_ns: 4_000_000_000,
                wall_ns: 1_000_000_000,
                events: 1_000_000,
                bytes: 0,
            },
            PhaseStats {
                phase: Phase::Decode.name(),
                spans: 8,
                busy_ns: 500_000_000,
                wall_ns: 0,
                events: 250_000,
                bytes: 2_000_000,
            },
        ],
        counters: vec![("db_hit", 10), ("db_miss", 3)],
    };
    let golden = concat!(
        "{\"v\":1,\"report\":\"golden \\\"run\\\"\",\"threads\":4,\"phases\":[",
        "{\"phase\":\"simulate\",\"spans\":2,\"busy_ns\":4000000000,",
        "\"wall_ns\":1000000000,\"events\":1000000,\"bytes\":0,",
        "\"events_per_s\":1000000.0,\"bytes_per_s\":0.0,\"efficiency\":1.000},",
        "{\"phase\":\"decode\",\"spans\":8,\"busy_ns\":500000000,\"wall_ns\":0,",
        "\"events\":250000,\"bytes\":2000000,\"events_per_s\":500000.0,",
        "\"bytes_per_s\":4000000.0,\"efficiency\":null}",
        "],\"counters\":{\"db_hit\":10,\"db_miss\":3}}",
    );
    assert_eq!(report.to_json_line(), golden);
}

#[test]
fn evaluation_and_walk_record_every_promised_phase() {
    mhe::obs::set_level(ObsLevel::Json);
    let before = Snapshot::now();

    let space = SystemSpace {
        processors: vec![ProcessorKind::P1111.mdes()],
        icache: CacheSpace {
            sizes_bytes: vec![1 << 10, 4 << 10],
            assocs: vec![1],
            line_bytes: vec![32],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
        dcache: CacheSpace {
            sizes_bytes: vec![1 << 10],
            assocs: vec![1],
            line_bytes: vec![32],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
        ucache: CacheSpace {
            sizes_bytes: vec![16 << 10],
            assocs: vec![2],
            line_bytes: vec![64],
            ports: vec![1],
            policies: vec![Policy::Lru],
        },
    };
    let cfg = EvalConfig::builder().events(20_000).build().expect("valid config");
    let eval = walker::prepare_evaluation(
        Benchmark::Unepic.generate(),
        &ProcessorKind::P1111.mdes(),
        cfg,
        &space,
    );
    // The build generates its trace chunk by chunk inside the measurement
    // loop; that time is trace generation, not simulation. (Taken before
    // `capture_mtr`, which generates the trace again.)
    let built = RunReport::since("build", cfg.worker_threads(), &before);
    let gen = built.phases.iter().find(|p| p.phase == Phase::TraceGen.name());
    assert!(gen.is_some_and(|p| p.busy_ns > 0 && p.events > 0), "build phases: {:?}", built.phases);
    // Round-trip the reference trace through the codec so the encode and
    // decode phases record, exactly as `trace_replay` does with files.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("mhe_obs_report_{}.mtr", std::process::id()));
    eval.capture_mtr(BufWriter::new(std::fs::File::create(&path).unwrap())).unwrap();
    let replayed = ReferenceEvaluation::replay_file(
        Benchmark::Unepic.generate(),
        &ProcessorKind::P1111.mdes(),
        cfg,
        &path,
        &space.icache.configs(),
        &space.dcache.configs(),
        &space.ucache.configs(),
    )
    .expect("replay of a just-captured trace");
    assert_eq!(eval.imeasured(), replayed.imeasured());
    // A sampled replay of the same file counts its second pass.
    let sampling = SamplingConfig { interval_accesses: 2048, clusters: 2, ..Default::default() };
    let sampled = ReferenceEvaluation::replay_file(
        Benchmark::Unepic.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { sampling: Some(sampling), ..cfg },
        &path,
        &space.icache.configs(),
        &space.dcache.configs(),
        &space.ucache.configs(),
    )
    .expect("sampled replay of a just-captured trace");
    let pass_b = sampled.metrics().replay.expect("file replay records metrics");
    std::fs::remove_file(&path).ok();

    let db = EvaluationCache::new();
    walker::walk_system(&eval, &space, Penalties::default(), &db).expect("walk succeeds");

    let report = RunReport::since("obs_report_test", cfg.worker_threads(), &before);
    mhe::obs::set_level(ObsLevel::Off);
    mhe::obs::reset();

    let recorded: Vec<&str> = report.phases.iter().map(|p| p.phase).collect();
    for phase in [
        Phase::TraceGen,
        Phase::Encode,
        Phase::Decode,
        Phase::Simulate,
        Phase::Estimate,
        Phase::Walk,
    ] {
        assert!(
            recorded.contains(&phase.name()),
            "phase {:?} missing from report; recorded: {recorded:?}",
            phase.name()
        );
    }
    assert!(
        report.counters.iter().any(|(name, _)| *name == "db_hit" || *name == "db_miss"),
        "cache-db counters missing: {:?}",
        report.counters
    );
    for (counter, n) in
        [("pass_b_chunks", pass_b.pass_b_chunks), ("pass_b_skipped", pass_b.pass_b_skipped)]
    {
        let recorded = report.counters.iter().find(|(name, _)| *name == counter).map_or(0, |c| c.1);
        assert_eq!(recorded, n, "{counter}: {:?}", report.counters);
    }
    assert!(pass_b.pass_b_chunks > 0, "{pass_b}");

    // The emitted line is valid for the pinned schema prefix and names
    // every recorded phase.
    let line = report.to_json_line();
    assert!(line.starts_with("{\"v\":1,\"report\":\"obs_report_test\""), "{line}");
    for p in &recorded {
        assert!(line.contains(&format!("\"phase\":\"{p}\"")), "{line}");
    }
}
