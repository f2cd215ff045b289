//! The metric catalogue and the three output formats: aligned text for
//! people, TSV for `compare`, and the one-line JSON result.

use std::fmt::Write as _;

/// A metric a user of the system would see, with the bound by which it
/// may worsen (as a share of the parent's median) before a change counts
/// as a regression. `BENCHMARK.json` lists the same entries; the README
/// shows the calibration the bounds come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// End-to-end metrics, reported by every workload from the untraced run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "latency_iqm_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", higher_is_better: false, bound: 0.16 },
];

/// Per-layer metrics (name, unit, higher is better), reported by every
/// workload from the traced run. Layer names follow the crates; they
/// carry no bound.
pub const PER_LAYER: [(&str, &str, bool); 48] = [
    ("workload.profile_s", "s", false),
    ("vliw.compile_s", "s", false),
    ("trace.gen_s", "s", false),
    ("trace.gen_accesses_per_s", "1/s", true),
    ("trace.decode_s", "s", false),
    ("trace.decode_mb_per_s", "MB/s", true),
    ("cache.grid_sim_s", "s", false),
    ("cache.family_addresses", "count", false),
    ("cache.addresses_per_s", "1/s", true),
    ("cache.passes", "count", false),
    ("cache.exact_grid_sim_s", "s", false),
    ("sampling.plan_s", "s", false),
    ("sampling.extract_s", "s", false),
    ("sampling.sim_s", "s", false),
    ("sampling.intervals", "count", false),
    ("sampling.clusters", "count", false),
    ("sampling.coverage", "ratio", false),
    ("sampling.max_miss_ratio_error", "ratio", false),
    ("model.modeler_s", "s", false),
    ("core.build_s", "s", false),
    ("core.build_other_s", "s", false),
    ("core.exact_build_s", "s", false),
    ("core.proc_cycles_s", "s", false),
    ("core.estimate_s", "s", false),
    ("core.estimates", "count", false),
    ("spacewalk.walk.warm_s", "s", false),
    ("spacewalk.walk.designs", "count", false),
    ("spacewalk.walk.frontier_rows", "count", false),
    ("spacewalk.walk.db_hit_ratio", "ratio", true),
    ("spacewalk.render_s", "s", false),
    ("spacewalk.service.respond_warm_ms", "ms", false),
    ("spacewalk.service.respond_cold_ms", "ms", false),
    ("spacewalk.service.sessions_built", "count", false),
    ("spacewalk.service.evictions", "count", false),
    ("spacewalk.service.rejected", "count", false),
    ("spacewalk.proto.codec_us", "us", false),
    ("spacewalk.proto.response_bytes", "bytes", false),
    ("spacewalk.proto.transport_ms", "ms", false),
    ("spacewalk.proto.point_frame_us", "us", false),
    ("spacewalk.fleet.plan_items", "count", false),
    ("spacewalk.fleet.serial_eval_s", "s", false),
    ("spacewalk.fleet.coordinator_s", "s", false),
    ("spacewalk.fleet.overhead_us_per_point", "us", false),
    ("spacewalk.fleet.steals", "count", false),
    ("spacewalk.fleet.duplicates", "count", false),
    ("spacewalk.fleet.worker_balance", "ratio", true),
    ("unattributed_ratio", "ratio", false),
    ("trace_overhead_ratio", "ratio", false),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Whether a larger value of a catalogued metric is better.
pub fn higher_is_better(name: &str) -> Option<bool> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.higher_is_better))
        .chain(PER_LAYER.iter().map(|&(n, _, h)| (n, h)))
        .find(|(n, _)| *n == name)
        .map(|(_, h)| h)
}

/// The regression bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound)
}

/// One measured number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The number, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: usize,
}

/// Named values in the order they were produced.
pub type Values = Vec<(&'static str, Value)>;

/// Aligned text lines, one per value.
pub fn render_text(workload: &str, values: &Values) -> String {
    let mut out = String::new();
    for (name, v) in values {
        let _ = writeln!(
            out,
            "{workload:<15} {name:<40} {:>18.6} {:<6} n={}",
            v.value, v.unit, v.samples
        );
    }
    out
}

/// TSV rows `workload metric value unit samples`, the format `compare`
/// reads.
pub fn render_tsv(workload: &str, values: &Values) -> String {
    let mut out = String::new();
    for (name, v) in values {
        let _ = writeln!(out, "{workload}\t{name}\t{}\t{}\t{}", v.value, v.unit, v.samples);
    }
    out
}

/// The one-line result: `metrics` holds the catalogue entries named in
/// `names`, in that order.
pub fn render_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[&str],
    values: &Values,
) -> String {
    let mut metrics = Vec::new();
    for name in names {
        // A value that is not finite has no JSON spelling; leaving it out
        // makes the run incorrect instead of the line unparseable.
        let found = values.iter().find(|(n, v)| n == name && v.value.is_finite());
        if let Some((_, v)) = found {
            metrics
                .push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", v.value, v.unit));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|l| l.0)).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'), "{n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_bounds() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(manifest) else { return };
        let flat: String = text.split_whitespace().collect();
        for m in END_TO_END {
            let better = if m.higher_is_better { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
                m.name, m.unit, m.bound
            );
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, higher) in PER_LAYER {
            let better = if higher { "higher" } else { "lower" };
            let entry =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_line_carries_exactly_the_named_metrics() {
        let v = |value| Value { value, unit: "ms", samples: 3 };
        let values: Values = vec![("a", v(1.25)), ("b", v(2.0)), ("extra", v(9.0))];
        assert_eq!(
            render_json(true, 4, 0, &["a", "b"], &values),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        assert_eq!(render_tsv("w", &values[..1].to_vec()), "w\ta\t1.25\tms\t3\n");
    }
}
