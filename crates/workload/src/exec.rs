//! Execution engine: interprets a [`Program`] into a basic-block event
//! trace.
//!
//! This plays the role of the paper's emulator + execution engine: it
//! produces the *event trace* — the dynamic sequence of basic blocks — that
//! is independent of any particular processor's instruction format or code
//! layout. Branch directions are drawn from a seeded generator, so the block
//! sequence is a pure function of `(program, seed)`; in particular it is
//! identical for every processor in the design space, which is the paper's
//! step-1 modeling assumption.

use crate::ir::{BlockId, ProcId, Program, Terminator};
use crate::rng::Xoshiro256;

/// One event: a basic block entered at a given call depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockEvent {
    /// Procedure containing the block.
    pub proc: ProcId,
    /// Block within the procedure.
    pub block: BlockId,
    /// Call depth at the time of execution (entry procedure = 0).
    pub depth: u32,
}

/// Streaming interpreter producing an endless [`BlockEvent`] sequence.
///
/// When the program `Exit`s, the executor transparently restarts it (with the
/// branch-decision generator carrying on), modeling an application processing
/// successive input buffers. Use [`Iterator::take`] to bound the trace.
///
/// # Examples
///
/// ```
/// use mhe_workload::{Benchmark, exec::Executor};
/// let program = Benchmark::Unepic.generate();
/// let events: Vec<_> = Executor::new(&program, 42).take(1000).collect();
/// assert_eq!(events.len(), 1000);
/// assert_eq!(events[0].depth, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Executor<'p> {
    program: &'p Program,
    rng: Xoshiro256,
    /// Return continuations: (procedure, block to resume at).
    stack: Vec<(ProcId, BlockId)>,
    cur: (ProcId, BlockId),
    /// Number of completed program runs (restarts after `Exit`).
    runs: u64,
}

/// Safety cap on call depth; the generator's DAG call graph keeps real depth
/// far below this.
const MAX_DEPTH: usize = 4096;

impl<'p> Executor<'p> {
    /// Creates an executor positioned at the program entry.
    pub fn new(program: &'p Program, seed: u64) -> Self {
        Self {
            program,
            rng: Xoshiro256::seed_from(seed),
            stack: Vec::new(),
            cur: (program.entry, BlockId(0)),
            runs: 0,
        }
    }

    /// Number of completed program runs so far.
    pub fn completed_runs(&self) -> u64 {
        self.runs
    }

    fn advance(&mut self) {
        let (proc, block) = self.cur;
        let term = &self.program.block(proc, block).terminator;
        match *term {
            Terminator::Jump { target } => {
                self.cur = (proc, target);
            }
            Terminator::Branch { taken, fall, p_taken } => {
                self.cur = (proc, if self.rng.chance(p_taken) { taken } else { fall });
            }
            Terminator::Call { callee, ret } => {
                if self.stack.len() >= MAX_DEPTH {
                    // Degenerate recursion guard: skip the call.
                    self.cur = (proc, ret);
                } else {
                    self.stack.push((proc, ret));
                    self.cur = (callee, BlockId(0));
                }
            }
            Terminator::Return => {
                if let Some(ret) = self.stack.pop() {
                    self.cur = ret;
                } else {
                    // Return from the entry procedure acts as Exit.
                    self.restart();
                }
            }
            Terminator::Exit => {
                self.restart();
            }
        }
    }

    fn restart(&mut self) {
        self.runs += 1;
        self.stack.clear();
        self.cur = (self.program.entry, BlockId(0));
    }
}

impl Iterator for Executor<'_> {
    type Item = BlockEvent;

    fn next(&mut self) -> Option<BlockEvent> {
        let event =
            BlockEvent { proc: self.cur.0, block: self.cur.1, depth: self.stack.len() as u32 };
        self.advance();
        Some(event)
    }
}

/// Dynamic execution counts of every basic block.
///
/// Indexable as `counts[proc][block]`. Used for profile-guided code layout in
/// the linker and for the *dynamic* dilation distribution of Figure 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockFrequencies {
    counts: Vec<Vec<u64>>,
    total: u64,
}

impl BlockFrequencies {
    /// Profiles `program` for `events` block events starting from `seed`.
    pub fn profile(program: &Program, seed: u64, events: usize) -> Self {
        let _obs = mhe_obs::span(mhe_obs::Phase::Profile);
        let mut counts: Vec<Vec<u64>> =
            program.procedures.iter().map(|p| vec![0u64; p.blocks.len()]).collect();
        for ev in Executor::new(program, seed).take(events) {
            counts[ev.proc.0 as usize][ev.block.0 as usize] += 1;
        }
        mhe_obs::add_events(mhe_obs::Phase::Profile, events as u64);
        Self { counts, total: events as u64 }
    }

    /// Execution count of a block.
    pub fn count(&self, proc: ProcId, block: BlockId) -> u64 {
        self.counts[proc.0 as usize][block.0 as usize]
    }

    /// Total events profiled.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total execution count of a procedure.
    pub fn proc_count(&self, proc: ProcId) -> u64 {
        self.counts[proc.0 as usize].iter().sum()
    }

    /// Σ over blocks of execution count × `weight(proc, block)`: a
    /// per-block cost summed over the profiled window, equal to summing
    /// it once per executed event.
    pub fn weighted_total(&self, weight: impl Fn(ProcId, BlockId) -> u64) -> u64 {
        let mut total = 0;
        for (p, blocks) in self.counts.iter().enumerate() {
            for (b, &n) in blocks.iter().enumerate().filter(|&(_, &n)| n > 0) {
                total += n * weight(ProcId(p as u32), BlockId(b as u32));
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;

    #[test]
    fn executor_is_deterministic() {
        let p = Benchmark::Epic.generate();
        let a: Vec<_> = Executor::new(&p, 7).take(5000).collect();
        let b: Vec<_> = Executor::new(&p, 7).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = Benchmark::Epic.generate();
        let a: Vec<_> = Executor::new(&p, 1).take(5000).collect();
        let b: Vec<_> = Executor::new(&p, 2).take(5000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn trace_starts_at_entry() {
        let p = Benchmark::Gcc.generate();
        let first = Executor::new(&p, 3).next().unwrap();
        assert_eq!(first.proc, p.entry);
        assert_eq!(first.block, BlockId(0));
        assert_eq!(first.depth, 0);
    }

    #[test]
    fn depth_changes_are_single_steps() {
        let p = Benchmark::Vortex.generate();
        let events: Vec<_> = Executor::new(&p, 11).take(20_000).collect();
        for w in events.windows(2) {
            let d0 = i64::from(w[0].depth);
            let d1 = i64::from(w[1].depth);
            assert!((d0 - d1).abs() <= 1 || w[1].depth == 0, "depth jumped from {d0} to {d1}");
        }
    }

    #[test]
    fn executor_restarts_after_exit() {
        let p = Benchmark::Unepic.generate();
        let mut ex = Executor::new(&p, 5);
        // Drive long enough to see at least one restart.
        for _ in 0..2_000_000 {
            ex.next();
            if ex.completed_runs() > 0 {
                break;
            }
        }
        assert!(ex.completed_runs() > 0, "program never completed a run");
    }

    #[test]
    fn block_references_are_valid() {
        let p = Benchmark::Rasta.generate();
        for ev in Executor::new(&p, 13).take(50_000) {
            let proc = p.proc(ev.proc);
            assert!((ev.block.0 as usize) < proc.blocks.len());
        }
    }

    #[test]
    fn frequencies_sum_to_total() {
        let p = Benchmark::Epic.generate();
        let n = 30_000;
        let f = BlockFrequencies::profile(&p, 17, n);
        let sum: u64 = (0..p.procedures.len()).map(|i| f.proc_count(ProcId(i as u32))).sum();
        assert_eq!(sum, n as u64);
        assert_eq!(f.total(), n as u64);
        assert_eq!(f.weighted_total(|_, _| 1), n as u64);
        // A per-block weight summed per event equals the weighted counts.
        let weight = |proc: ProcId, block: BlockId| u64::from(proc.0 * 7 + block.0 % 5);
        let per_event: u64 = Executor::new(&p, 17).take(n).map(|e| weight(e.proc, e.block)).sum();
        assert_eq!(f.weighted_total(weight), per_event);
    }

    #[test]
    fn execution_reaches_many_procedures() {
        let p = Benchmark::Gcc.generate();
        let f = BlockFrequencies::profile(&p, 19, 200_000);
        let reached =
            (0..p.procedures.len()).filter(|&i| f.proc_count(ProcId(i as u32)) > 0).count();
        assert!(
            reached > p.procedures.len() / 4,
            "only {reached}/{} procedures reached",
            p.procedures.len()
        );
    }
}
