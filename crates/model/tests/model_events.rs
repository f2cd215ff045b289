//! The modelers report raw references to `mhe-obs`, not unique ones.
//!
//! `ITraceModeler` and `UTraceModeler` collect each granule's distinct
//! addresses before analyzing it, but the `model` phase's event count is
//! the number of references the complete granules held — what an
//! operator reads as modeler throughput. This file holds a single test,
//! so no other test in the process records into the global registry
//! while it measures.

use mhe_model::params::{ITraceModeler, UTraceModeler};
use mhe_obs::{ObsLevel, Phase, RunReport, Snapshot};
use mhe_trace::Access;

fn model_events(before: &Snapshot) -> u64 {
    let report = RunReport::since("model", 1, before);
    report.phases.iter().find(|p| p.phase == Phase::Model.name()).map_or(0, |p| p.events)
}

#[test]
fn model_phase_counts_raw_references_of_complete_granules() {
    mhe_obs::set_level(ObsLevel::Text);
    // Heavy reuse: 25,000 references over 300 distinct addresses.
    let trace: Vec<u64> = (0..25_000u64).map(|i| (i * 37) % 300).collect();
    let before = Snapshot::now();
    let mut m = ITraceModeler::new(1000);
    trace.iter().for_each(|&a| m.process(a));
    assert_eq!(m.granules(), 25);
    let _ = m.finish();
    assert_eq!(model_events(&before), 25_000);

    // Unified: both components of every complete granule, and nothing
    // of the trailing partial one.
    let unified: Vec<Access> = trace
        .iter()
        .enumerate()
        .map(|(i, &a)| if i % 3 == 0 { Access::load(a) } else { Access::inst(a) })
        .collect();
    let before = Snapshot::now();
    let _ = UTraceModeler::measure(unified.iter().copied(), 4096);
    assert_eq!(model_events(&before), 6 * 4096);
    mhe_obs::set_level(ObsLevel::Off);
}
