//! The distributed walk's work plan and deterministic shard partition.
//!
//! A fleet does not distribute frontiers — it distributes the *metric
//! evaluations* that make frontiers cheap. The plan enumerates exactly
//! the [`MetricKey`] set a batch [`crate::walker::walk_system`] would
//! resolve for the same evaluation and space, pairing each key with the
//! recipe to compute its value. Workers evaluate plan items; the
//! coordinator merges the resulting `(key, value)` points into one
//! [`crate::cache_db::EvaluationCache`]; the final frontier then falls
//! out of an ordinary serial walk over the fully-warm cache — which is
//! what makes the distributed result bit-identical to a single-process
//! run by construction, at any worker count.
//!
//! Sharding must be stable across processes, builds, and platforms
//! (workers and coordinator partition independently and must agree), so
//! it hashes the key's canonical cache-db byte encoding with FNV-1a
//! rather than relying on `DefaultHasher`, whose algorithm is
//! unspecified.

use crate::cache_db::{self, MetricKey};
use crate::cost::CacheDesign;
use crate::space::SystemSpace;
use mhe_core::evaluator::ReferenceEvaluation;
use mhe_core::MheError;
use mhe_vliw::Mdes;
use std::collections::HashSet;
use std::io;
use std::sync::Arc;

/// The recipe for one metric value, mirroring the closures the batch
/// walkers pass to the evaluation cache.
#[derive(Debug, Clone)]
pub enum Task {
    /// The target processor's compute cycles, read from the evaluation's
    /// target memo.
    ProcCycles {
        /// The processor.
        proc: Mdes,
    },
    /// Estimate instruction-cache misses at a text dilation.
    Icache {
        /// The cache design.
        design: CacheDesign,
        /// The exact (unquantized) text dilation.
        dilation: f64,
    },
    /// Count data-cache misses (dilation-independent).
    Dcache {
        /// The cache design.
        design: CacheDesign,
    },
    /// Estimate unified-cache misses at a text dilation.
    Ucache {
        /// The cache design.
        design: CacheDesign,
        /// The exact (unquantized) text dilation.
        dilation: f64,
    },
}

/// One unit of distributable work: a cache-db key plus its recipe.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// The evaluation-cache key the result is stored under.
    pub key: MetricKey,
    /// How to compute the value.
    pub task: Task,
}

/// Enumerates the exact key set a batch walk would resolve: per-processor
/// cycle counts, the dilation-independent data-cache designs, and the
/// instruction/unified designs at every *distinct* processor dilation
/// (deduplicated by key, as the shared cache would).
pub fn work_plan(eval: &ReferenceEvaluation, space: &SystemSpace) -> Vec<WorkItem> {
    let app: Arc<str> = Arc::from(eval.program().name.as_str());
    let mut seen: HashSet<MetricKey> = HashSet::new();
    let mut plan = Vec::new();
    let mut push = |plan: &mut Vec<WorkItem>, key: MetricKey, task: Task| {
        if seen.insert(key.clone()) {
            plan.push(WorkItem { key, task });
        }
    };
    for proc in &space.processors {
        push(
            &mut plan,
            MetricKey::proc_cycles(&app, &proc.name),
            Task::ProcCycles { proc: proc.clone() },
        );
    }
    for design in space.dcache.enumerate() {
        push(&mut plan, MetricKey::dcache(&app, design), Task::Dcache { design });
    }
    for proc in &space.processors {
        let dilation = eval.dilation_of(proc);
        for design in space.icache.enumerate() {
            push(
                &mut plan,
                MetricKey::icache(&app, design, dilation),
                Task::Icache { design, dilation },
            );
        }
        for design in space.ucache.enumerate() {
            push(
                &mut plan,
                MetricKey::ucache(&app, design, dilation),
                Task::Ucache { design, dilation },
            );
        }
    }
    plan
}

/// Computes one plan item, exactly as the corresponding batch walker
/// closure would.
///
/// # Errors
///
/// Propagates the walker-level [`MheError`] (e.g. a dilation outside the
/// pre-simulated space).
pub fn evaluate_item(eval: &ReferenceEvaluation, item: &WorkItem) -> Result<f64, MheError> {
    match &item.task {
        Task::ProcCycles { proc } => Ok(eval.target_facts(proc).cycles as f64),
        Task::Icache { design, dilation } => eval.estimate_icache_misses(design.config, *dilation),
        Task::Dcache { design } => eval.dcache_misses(design.config).map(|m| m as f64),
        Task::Ucache { design, dilation } => eval.estimate_ucache_misses(design.config, *dilation),
    }
}

/// FNV-1a accumulator presented as a writer, so the key's canonical
/// cache-db encoding can be hashed without allocating.
struct FnvWriter(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl io::Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The shard a key belongs to: FNV-1a over the key's canonical byte
/// encoding, reduced modulo `shard_count`. Stable across processes,
/// platforms, and Rust versions — every fleet member partitions the key
/// space identically.
pub fn shard_of(key: &MetricKey, shard_count: u32) -> u32 {
    let mut h = FnvWriter(FNV_OFFSET);
    // Writing into the in-memory accumulator cannot fail.
    let _ = cache_db::write_key(&mut h, key);
    (h.0 % u64::from(shard_count.max(1))) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhe_cache::CacheConfig;

    fn key(bytes: u64) -> MetricKey {
        let app: Arc<str> = Arc::from("unepic");
        MetricKey::icache(
            &app,
            CacheDesign::single_ported(CacheConfig::from_bytes(bytes, 1, 32)),
            1.25,
        )
    }

    /// Golden pins: the shard partition is part of the fleet protocol.
    /// If these move, coordinator and workers from different builds
    /// would partition the space differently.
    #[test]
    fn shard_hash_is_pinned() {
        let app: Arc<str> = Arc::from("unepic");
        assert_eq!(shard_of(&key(1024), 32), 30);
        assert_eq!(shard_of(&key(4096), 32), 15);
        assert_eq!(shard_of(&MetricKey::proc_cycles(&app, "3221"), 32), 2);
        // Modulo 1 degenerates to a single shard; 0 is clamped to 1.
        assert_eq!(shard_of(&key(1024), 1), 0);
        assert_eq!(shard_of(&key(1024), 0), 0);
    }

    #[test]
    fn shard_is_stable_across_calls_and_spreads() {
        let spread: HashSet<u32> = (0..10).map(|i| shard_of(&key(1024 << i), 16)).collect();
        assert!(spread.len() > 3, "10 keys landed on {} shards", spread.len());
        for i in 0..10 {
            assert_eq!(shard_of(&key(1024 << i), 16), shard_of(&key(1024 << i), 16));
        }
    }
}
