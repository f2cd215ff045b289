//! The modelers report raw references to `mhe-obs`, not unique ones.
//!
//! `ITraceModeler`, `UTraceModeler` and their joint pass `TraceModeler`
//! collect each granule's distinct addresses before analyzing it, but the
//! `model` phase's event count is the number of references the complete
//! granules held — what an operator reads as modeler throughput. This
//! file holds a single test, so no other test in the process records
//! into the global registry while it measures.

use mhe_model::params::{ITraceModeler, TraceModeler, UTraceModeler};
use mhe_obs::{ObsLevel, Phase, RunReport, Snapshot};
use mhe_trace::{Access, AccessKind};

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

    // The joint pass counts what the two modelers count one reference at
    // a time: the instruction references of complete instruction
    // granules plus every reference of complete unified ones.
    let before = Snapshot::now();
    let mut imodel = ITraceModeler::new(1000);
    let mut umodel = UTraceModeler::new(4096);
    for &a in &unified {
        if a.kind == AccessKind::Inst {
            imodel.process(a.addr);
        }
        umodel.process(a);
    }
    let _ = (imodel.finish(), umodel.finish());
    let per_reference = model_events(&before);
    assert_eq!(per_reference, 16 * 1000 + 6 * 4096);
    let before = Snapshot::now();
    let mut joint = TraceModeler::new(1000, 4096);
    unified.chunks(777).for_each(|chunk| joint.feed(chunk));
    let _ = joint.finish();
    assert_eq!(model_events(&before), per_reference);
    mhe_obs::set_level(ObsLevel::Off);
}
