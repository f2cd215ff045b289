//! Observability for the evaluation engine: where the time goes and how
//! fast addresses move through the simulators.
//!
//! [`ReferenceEvaluation::build`](crate::evaluator::ReferenceEvaluation::build)
//! fills an [`EvalMetrics`] as it runs; the bench binaries print it so the
//! effect of `MHE_THREADS` is visible (sims/second, parallel efficiency).
//!
//! These structs are the evaluator's *local* accounting; the
//! workspace-wide story is `mhe-obs`'s [`RunReport`], and
//! [`EvalMetrics::run_report`] folds an evaluation's numbers into that
//! one schema so every surface (bench bins, the spacewalker CLI, this
//! evaluator) reports the same way.

use mhe_cache::Policy;
use mhe_obs::{PhaseStats, RunReport};
use mhe_trace::StreamKind;
use std::time::Duration;

/// Cost of one single-pass simulation over one stream at one line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassMetrics {
    /// Which stream the pass simulated.
    pub stream: StreamKind,
    /// The pass's common line size in words.
    pub line_words: u32,
    /// The pass's common replacement policy, which tells apart two passes
    /// over one stream at one line size.
    pub policy: Policy,
    /// Number of cache configurations covered by the pass.
    pub configs: usize,
    /// Addresses simulated.
    pub addresses: u64,
    /// Wall time of the pass on its worker thread.
    pub wall: Duration,
}

impl PassMetrics {
    /// Addresses simulated per second within this pass.
    pub fn addresses_per_second(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.addresses as f64 / self.wall.as_secs_f64()
        }
    }
}

/// Accounting of a trace replayed from disk (the `.mtr`/`.din` path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayMetrics {
    /// Encoded bytes consumed from the trace file (including headers).
    pub bytes_read: u64,
    /// Accesses decoded from the file.
    pub accesses: u64,
    /// Size of the same access stream as `din` text, for the compression
    /// ratio.
    pub din_bytes: u64,
    /// Chunks the stream was replayed in (`.mtr` frames, or `din` chunks
    /// of `EvalConfig::chunk_accesses`).
    pub chunks: u64,
    /// Chunks a sampled replay's second pass decoded to copy out the
    /// representative windows; 0 for an exact replay.
    pub pass_b_chunks: u64,
    /// Chunks a sampled replay's second pass skipped because no window
    /// needed them; 0 for an exact replay.
    pub pass_b_skipped: u64,
    /// Wall time spent reading and decoding (excludes simulation).
    pub decode_wall: Duration,
}

impl ReplayMetrics {
    /// How many times smaller the file is than the equivalent `din` text;
    /// 0 when nothing was read.
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_read == 0 {
            0.0
        } else {
            self.din_bytes as f64 / self.bytes_read as f64
        }
    }

    /// Accesses decoded per second; 0 for an instantaneous decode.
    pub fn decode_accesses_per_second(&self) -> f64 {
        if self.decode_wall.is_zero() {
            0.0
        } else {
            self.accesses as f64 / self.decode_wall.as_secs_f64()
        }
    }

    /// Encoded megabytes decoded per second; 0 for an instantaneous
    /// decode.
    pub fn decode_mb_per_second(&self) -> f64 {
        if self.decode_wall.is_zero() {
            0.0
        } else {
            self.bytes_read as f64 / 1e6 / self.decode_wall.as_secs_f64()
        }
    }
}

impl std::fmt::Display for ReplayMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay {} accs from {} B in {} chunks ({:.2}x smaller than din, \
             {:.2} Maddr/s / {:.1} MB/s decode)",
            self.accesses,
            self.bytes_read,
            self.chunks,
            self.compression_ratio(),
            self.decode_accesses_per_second() / 1e6,
            self.decode_mb_per_second(),
        )?;
        if self.pass_b_chunks + self.pass_b_skipped > 0 {
            write!(
                f,
                ", pass B decoded {} of {} chunks",
                self.pass_b_chunks,
                self.pass_b_chunks + self.pass_b_skipped
            )?;
        }
        Ok(())
    }
}

/// Accounting of a sampled measurement (present when
/// `EvalConfig::sampling` routed the build through interval sampling).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SamplingMetrics {
    /// Intervals the trace was split into.
    pub intervals: u64,
    /// Clusters (= representative intervals simulated).
    pub clusters: u64,
    /// Accesses actually fed to engines: warm-up plus representative
    /// bodies, unified stream.
    pub representative_accesses: u64,
    /// Exact unified trace length (every access was *seen* by pass A;
    /// only representatives were *simulated*).
    pub total_accesses: u64,
    /// Clustering-dispersion error heuristic (`SamplePlan::error_bound`):
    /// 0 means every interval is represented exactly; larger values mean
    /// the clusters are more heterogeneous. The accuracy harness pins
    /// the measured error — this field only ranks plans.
    pub error_bound: f64,
}

impl SamplingMetrics {
    /// Fraction of the trace simulated; the replay-speedup story is its
    /// reciprocal.
    pub fn coverage(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.representative_accesses as f64 / self.total_accesses as f64
        }
    }
}

impl std::fmt::Display for SamplingMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sampled {} of {} accs ({:.1}% coverage, {} intervals -> {} clusters, \
             error bound {:.4})",
            self.representative_accesses,
            self.total_accesses,
            self.coverage() * 100.0,
            self.intervals,
            self.clusters,
            self.error_bound,
        )
    }
}

/// End-to-end accounting of one [`ReferenceEvaluation::build`] call.
///
/// [`ReferenceEvaluation::build`]: crate::evaluator::ReferenceEvaluation::build
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalMetrics {
    /// Worker threads the measurement fan-out used.
    pub threads: usize,
    /// Length of the unified reference trace, in accesses.
    pub trace_len: u64,
    /// Wall time spent producing the reference trace's chunks: generating
    /// them, or decoding them from a captured file.
    pub trace_wall: Duration,
    /// Wall time of the two trace-parameter modeler passes.
    pub model_wall: Duration,
    /// Wall time of the whole simulation fan-out (not the per-pass sum).
    pub sim_wall: Duration,
    /// Wall time of the whole build.
    pub build_wall: Duration,
    /// One entry per single-pass simulation.
    pub passes: Vec<PassMetrics>,
    /// Present when the trace was replayed from a captured file instead
    /// of generated.
    pub replay: Option<ReplayMetrics>,
    /// Present when the measurement ran through interval sampling.
    pub sampling: Option<SamplingMetrics>,
}

impl EvalMetrics {
    /// Total addresses pushed through single-pass simulators.
    pub fn simulated_addresses(&self) -> u64 {
        self.passes.iter().map(|p| p.addresses).sum()
    }

    /// Total cache configurations measured.
    pub fn simulated_configs(&self) -> usize {
        self.passes.iter().map(|p| p.configs).sum()
    }

    /// Sum of per-pass wall times — the serial cost of the same work.
    pub fn cpu_sim_time(&self) -> Duration {
        self.passes.iter().map(|p| p.wall).sum()
    }

    /// Single-pass simulations completed per wall-clock second.
    pub fn sims_per_second(&self) -> f64 {
        if self.sim_wall.is_zero() {
            0.0
        } else {
            self.passes.len() as f64 / self.sim_wall.as_secs_f64()
        }
    }

    /// Addresses simulated per wall-clock second across all passes.
    pub fn addresses_per_second(&self) -> f64 {
        if self.sim_wall.is_zero() {
            0.0
        } else {
            self.simulated_addresses() as f64 / self.sim_wall.as_secs_f64()
        }
    }

    /// Ratio of the serial cost of all fan-out tasks (modeler + simulation
    /// passes) to the fan-out's wall time (1.0 = no overlap).
    pub fn parallel_speedup(&self) -> f64 {
        if self.sim_wall.is_zero() {
            1.0
        } else {
            (self.cpu_sim_time() + self.model_wall).as_secs_f64() / self.sim_wall.as_secs_f64()
        }
    }

    /// Folds this evaluation's accounting into the workspace-wide
    /// [`RunReport`] schema: trace generation (or file decode, when the
    /// trace was replayed), the modeler passes, and the simulation
    /// fan-out each become one phase, so `EvalMetrics` renders exactly
    /// like the live `mhe-obs` registry does.
    pub fn run_report(&self, label: impl Into<String>) -> RunReport {
        let ns = |d: Duration| d.as_nanos() as u64;
        let mut phases = Vec::new();
        if self.replay.is_none() && (self.trace_len > 0 || !self.trace_wall.is_zero()) {
            phases.push(PhaseStats {
                phase: mhe_obs::Phase::TraceGen.name(),
                spans: 1,
                busy_ns: ns(self.trace_wall),
                wall_ns: 0,
                events: self.trace_len,
                bytes: 0,
            });
        }
        if let Some(replay) = &self.replay {
            phases.push(PhaseStats {
                phase: mhe_obs::Phase::Decode.name(),
                spans: replay.chunks,
                busy_ns: ns(replay.decode_wall),
                wall_ns: 0,
                events: replay.accesses,
                bytes: replay.bytes_read,
            });
        }
        if !self.passes.is_empty() || !self.sim_wall.is_zero() {
            phases.push(PhaseStats {
                phase: mhe_obs::Phase::Simulate.name(),
                spans: self.passes.len() as u64,
                busy_ns: ns(self.cpu_sim_time() + self.model_wall),
                wall_ns: ns(self.sim_wall),
                events: self.simulated_addresses(),
                bytes: 0,
            });
        }
        if !self.model_wall.is_zero() {
            phases.push(PhaseStats {
                phase: mhe_obs::Phase::Model.name(),
                spans: 2,
                busy_ns: ns(self.model_wall),
                wall_ns: 0,
                events: 0,
                bytes: 0,
            });
        }
        let mut counters = Vec::new();
        if let Some(replay) = self.replay.filter(|r| r.pass_b_chunks + r.pass_b_skipped > 0) {
            counters.push((mhe_obs::Counter::PassBChunks.name(), replay.pass_b_chunks));
            counters.push((mhe_obs::Counter::PassBSkipped.name(), replay.pass_b_skipped));
        }
        RunReport { label: label.into(), threads: self.threads, phases, counters }
    }
}

impl std::fmt::Display for EvalMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace {} refs in {:.3}s; {} passes / {} configs / {} addrs in {:.3}s wall \
             ({:.2} Maddr/s, {:.1} sims/s, {} threads, overlap {:.2}x); build {:.3}s",
            self.trace_len,
            self.trace_wall.as_secs_f64(),
            self.passes.len(),
            self.simulated_configs(),
            self.simulated_addresses(),
            self.sim_wall.as_secs_f64(),
            self.addresses_per_second() / 1e6,
            self.sims_per_second(),
            self.threads,
            self.parallel_speedup(),
            self.build_wall.as_secs_f64(),
        )?;
        if let Some(replay) = &self.replay {
            write!(f, "; {replay}")?;
        }
        if let Some(sampling) = &self.sampling {
            write!(f, "; {sampling}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(stream: StreamKind, line: u32, configs: usize, addrs: u64, ms: u64) -> PassMetrics {
        PassMetrics {
            stream,
            line_words: line,
            policy: Policy::Lru,
            configs,
            addresses: addrs,
            wall: Duration::from_millis(ms),
        }
    }

    #[test]
    fn aggregates_sum_over_passes() {
        let m = EvalMetrics {
            threads: 4,
            trace_len: 1000,
            sim_wall: Duration::from_millis(100),
            passes: vec![
                pass(StreamKind::Instruction, 8, 3, 600, 80),
                pass(StreamKind::Data, 8, 1, 400, 40),
            ],
            ..EvalMetrics::default()
        };
        assert_eq!(m.simulated_addresses(), 1000);
        assert_eq!(m.simulated_configs(), 4);
        assert_eq!(m.cpu_sim_time(), Duration::from_millis(120));
        assert!((m.parallel_speedup() - 1.2).abs() < 1e-9);
        assert!((m.sims_per_second() - 20.0).abs() < 1e-9);
        assert!((m.addresses_per_second() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_wall_times_do_not_divide_by_zero() {
        let m = EvalMetrics::default();
        assert_eq!(m.sims_per_second(), 0.0);
        assert_eq!(m.addresses_per_second(), 0.0);
        assert_eq!(m.parallel_speedup(), 1.0);
        let p = pass(StreamKind::Unified, 16, 2, 0, 0);
        assert_eq!(p.addresses_per_second(), 0.0);
    }

    #[test]
    fn display_mentions_threads_and_passes() {
        let m = EvalMetrics {
            threads: 8,
            passes: vec![pass(StreamKind::Instruction, 4, 2, 100, 10)],
            ..EvalMetrics::default()
        };
        let s = format!("{m}");
        assert!(s.contains("8 threads"), "{s}");
        assert!(s.contains("1 passes"), "{s}");
        assert!(!s.contains("replay"), "generated traces must not report replay: {s}");
    }

    #[test]
    fn replay_metrics_ratios_and_throughput() {
        let r = ReplayMetrics {
            bytes_read: 1_000,
            accesses: 500,
            din_bytes: 8_000,
            chunks: 4,
            decode_wall: Duration::from_millis(100),
            ..Default::default()
        };
        assert!((r.compression_ratio() - 8.0).abs() < 1e-9);
        assert!((r.decode_accesses_per_second() - 5_000.0).abs() < 1e-6);
        assert!((r.decode_mb_per_second() - 0.01).abs() < 1e-9);
        let zero = ReplayMetrics::default();
        assert_eq!(zero.compression_ratio(), 0.0);
        assert_eq!(zero.decode_accesses_per_second(), 0.0);
        assert_eq!(zero.decode_mb_per_second(), 0.0);
    }

    #[test]
    fn run_report_folds_phases() {
        let m = EvalMetrics {
            threads: 4,
            trace_len: 1000,
            trace_wall: Duration::from_millis(5),
            model_wall: Duration::from_millis(3),
            sim_wall: Duration::from_millis(100),
            passes: vec![pass(StreamKind::Instruction, 8, 3, 600, 80)],
            ..EvalMetrics::default()
        };
        let r = m.run_report("eval");
        assert_eq!(r.threads, 4);
        let names: Vec<&str> = r.phases.iter().map(|p| p.phase).collect();
        assert_eq!(names, vec!["trace_gen", "simulate", "model"]);
        let sim = &r.phases[1];
        assert_eq!(sim.events, 600);
        assert_eq!(sim.spans, 1);
        assert!(sim.parallel_efficiency(4).is_some());
        assert!(r.to_json_line().contains("\"phase\":\"simulate\""));

        let replayed = EvalMetrics {
            replay: Some(ReplayMetrics {
                bytes_read: 10,
                accesses: 2,
                chunks: 1,
                decode_wall: Duration::from_millis(1),
                ..Default::default()
            }),
            ..m
        };
        let r = replayed.run_report("replay");
        let names: Vec<&str> = r.phases.iter().map(|p| p.phase).collect();
        assert_eq!(names, vec!["decode", "simulate", "model"]);
        assert!(r.counters.is_empty(), "an exact replay has no second pass");

        let sampled = EvalMetrics {
            replay: replayed.replay.map(|r| ReplayMetrics {
                pass_b_chunks: 3,
                pass_b_skipped: 9,
                ..r
            }),
            ..replayed
        };
        let r = sampled.run_report("sampled");
        assert_eq!(r.counters, vec![("pass_b_chunks", 3), ("pass_b_skipped", 9)]);
        assert!(r.to_json_line().contains("\"pass_b_skipped\":9"), "{}", r.to_json_line());
        assert!(format!("{sampled}").contains("pass B decoded 3 of 12 chunks"), "{sampled}");
    }

    #[test]
    fn display_appends_replay_when_present() {
        let m = EvalMetrics {
            replay: Some(ReplayMetrics { bytes_read: 10, accesses: 2, ..Default::default() }),
            ..EvalMetrics::default()
        };
        let s = format!("{m}");
        assert!(s.contains("replay 2 accs from 10 B"), "{s}");
    }
}
