//! Deterministic fault injection for robustness testing.
//!
//! Long design-space sweeps must survive the failures that real storage
//! and real worker pools produce: flipped bits, truncated files, short
//! reads, full disks, and panicking tasks. This module makes every one of
//! those failures *reproducible*: a [`FaultPlan`] is an explicit schedule
//! of faults (parsed from text or derived from a seed), and the
//! [`FaultyReader`]/[`FaultyWriter`] adapters apply its I/O faults at
//! exact byte offsets, so a failing test case is a value you can paste
//! into a regression test — not a flaky coincidence.
//!
//! Two consumption models:
//!
//! - **Explicit**: tests wrap a reader/writer in [`FaultyReader`] /
//!   [`FaultyWriter`] with a plan of their choosing.
//! - **Ambient**: setting `MHE_FAULT_PLAN` (same syntax as
//!   [`FaultPlan::parse`]) arms a process-wide plan whose
//!   [`Fault::PanicTask`] entries fire inside `ParallelSweep::try_map`
//!   and `try_map_in` via [`maybe_panic_task`], proving panics are isolated without
//!   touching production code. Tests arm programmatically with [`arm`],
//!   which returns a disarm-on-drop guard.
//!
//! Worker-panic faults are **one-shot** — a task index panics on its
//! first attempt only — so a [`crate::env::RetryPolicy`] with retries can
//! demonstrably recover from them. Every fired fault increments the
//! `fault_injected` observability counter.
//!
//! ```
//! use mhe_core::fault::{Fault, FaultPlan, FaultyReader};
//! use std::io::Read;
//!
//! let data = vec![0u8; 16];
//! let plan = FaultPlan::new(vec![Fault::BitFlip { byte: 3, mask: 0x01 }]);
//! let mut out = Vec::new();
//! FaultyReader::new(data.as_slice(), &plan).read_to_end(&mut out).unwrap();
//! assert_eq!(out[3], 0x01);
//! ```

use mhe_workload::rng::SplitMix64;
use std::io::{ErrorKind, Read, Result as IoResult, Write};
use std::sync::{Mutex, OnceLock};

/// Offsets a seed before it seeds the generator of [`FaultPlan::seeded`]
/// and [`FaultPlan::seeded_net`] (the golden-ratio increment; the plans
/// each seed yields are pinned by a golden test).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// XOR `mask` into the byte at stream offset `byte` (read or write).
    BitFlip {
        /// Stream offset of the corrupted byte.
        byte: u64,
        /// Which bits to flip (must be non-zero to have any effect).
        mask: u8,
    },
    /// End the stream at offset `at`: reads see EOF, writes silently drop
    /// the tail (a torn write, as when a process dies mid-save).
    Truncate {
        /// Offset after which no byte is transferred.
        at: u64,
    },
    /// One-shot short read: the first read crossing offset `at` returns
    /// only the bytes up to `at`. Legal under the [`Read`] contract —
    /// correct consumers must retry, broken ones mis-decode.
    ShortRead {
        /// The offset the shortened read stops at.
        at: u64,
    },
    /// The disk fills at offset `at`: any write reaching it fails with
    /// [`ErrorKind::StorageFull`], persistently.
    Enospc {
        /// First unwritable offset.
        at: u64,
    },
    /// Panic the sweep task with this index (0-based, one-shot).
    PanicTask {
        /// The task index to kill on its first attempt.
        task: u64,
    },
    /// Drop the `frame`-th protocol frame written by this process
    /// (0-based, one-shot): the peer never sees it, as when a connection
    /// dies between frames.
    DropFrame {
        /// Index of the frame to drop, counted across all connections.
        frame: u64,
    },
    /// Write the `frame`-th protocol frame twice (one-shot): a duplicate
    /// delivery, as a retransmitting middlebox would produce.
    DupFrame {
        /// Index of the frame to duplicate.
        frame: u64,
    },
    /// Write only the first half of the `frame`-th protocol frame, then
    /// stop (one-shot): a mid-frame connection tear.
    TruncFrame {
        /// Index of the frame to truncate.
        frame: u64,
    },
    /// Sleep before writing the `frame`-th protocol frame (one-shot):
    /// network latency/head-of-line blocking at an exact, reproducible
    /// point.
    DelayFrame {
        /// Index of the frame to delay.
        frame: u64,
        /// How long to stall the write, in milliseconds.
        millis: u64,
    },
}

impl Fault {
    /// Whether this fault acts on stream bytes (the [`FaultyReader`] /
    /// [`FaultyWriter`] kinds) rather than on sweep tasks or frames.
    fn acts_on_bytes(self) -> bool {
        matches!(
            self,
            Fault::BitFlip { .. }
                | Fault::Truncate { .. }
                | Fault::ShortRead { .. }
                | Fault::Enospc { .. }
        )
    }
}

/// A deterministic schedule of faults.
///
/// The text syntax (used by `MHE_FAULT_PLAN`) is a comma-separated list:
///
/// ```text
/// flip@BYTE:MASK , truncate@AT , short@AT , enospc@AT , panic@TASK ,
/// drop@FRAME , dup@FRAME , trunc@FRAME , delay@FRAME:MILLIS
/// ```
///
/// e.g. `MHE_FAULT_PLAN=panic@3,panic@11` kills sweep tasks 3 and 11 on
/// their first attempts, and `MHE_FAULT_PLAN=drop@2` swallows the third
/// protocol frame the process writes. Offsets are decimal; `MASK`
/// accepts `0x` hex.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan firing exactly the given faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        Self { faults }
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Parses the `MHE_FAULT_PLAN` syntax. Returns `None` if any entry is
    /// malformed (a fault plan must be exact or absent — a half-parsed
    /// plan would silently test less than intended).
    pub fn parse(text: &str) -> Option<FaultPlan> {
        let mut faults = Vec::new();
        for entry in text.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, arg) = entry.split_once('@')?;
            let fault = match kind.trim() {
                "flip" => {
                    let (byte, mask) = arg.split_once(':')?;
                    let mask = mask.trim();
                    let mask = match mask.strip_prefix("0x") {
                        Some(hex) => u8::from_str_radix(hex, 16).ok()?,
                        None => mask.parse().ok()?,
                    };
                    Fault::BitFlip { byte: byte.trim().parse().ok()?, mask }
                }
                "truncate" => Fault::Truncate { at: arg.trim().parse().ok()? },
                "short" => Fault::ShortRead { at: arg.trim().parse().ok()? },
                "enospc" => Fault::Enospc { at: arg.trim().parse().ok()? },
                "panic" => Fault::PanicTask { task: arg.trim().parse().ok()? },
                "drop" => Fault::DropFrame { frame: arg.trim().parse().ok()? },
                "dup" => Fault::DupFrame { frame: arg.trim().parse().ok()? },
                "trunc" => Fault::TruncFrame { frame: arg.trim().parse().ok()? },
                "delay" => {
                    let (frame, millis) = arg.split_once(':')?;
                    Fault::DelayFrame {
                        frame: frame.trim().parse().ok()?,
                        millis: millis.trim().parse().ok()?,
                    }
                }
                _ => return None,
            };
            faults.push(fault);
        }
        (!faults.is_empty()).then_some(FaultPlan { faults })
    }

    /// A single-fault plan derived deterministically from `seed`, aimed at
    /// a stream of `domain` bytes (or `domain` tasks for panics). The same
    /// seed always yields the same fault, so a failing seed is a
    /// reproducible test case.
    pub fn seeded(seed: u64, domain: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed.wrapping_add(GOLDEN));
        let domain = domain.max(1);
        let at = rng.next_u64() % domain;
        let fault = match rng.next_u64() % 5 {
            0 => Fault::BitFlip { byte: at, mask: (1 << (rng.next_u64() % 8)) as u8 },
            1 => Fault::Truncate { at },
            2 => Fault::ShortRead { at },
            3 => Fault::Enospc { at },
            _ => Fault::PanicTask { task: at },
        };
        FaultPlan { faults: vec![fault] }
    }

    /// A single-*network*-fault plan derived deterministically from
    /// `seed`, aimed at a stream of `frames` protocol frames. Same
    /// contract as [`FaultPlan::seeded`]: one seed, one reproducible
    /// fault — here a frame drop, duplicate, truncation, or a short
    /// (bounded, ≤ 50 ms) delay.
    pub fn seeded_net(seed: u64, frames: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed.wrapping_add(GOLDEN));
        let frame = rng.next_u64() % frames.max(1);
        let fault = match rng.next_u64() % 4 {
            0 => Fault::DropFrame { frame },
            1 => Fault::DupFrame { frame },
            2 => Fault::TruncFrame { frame },
            _ => Fault::DelayFrame { frame, millis: 1 + rng.next_u64() % 50 },
        };
        FaultPlan { faults: vec![fault] }
    }
}

/// What an armed plan decided about one outgoing protocol frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Write the frame normally (no armed plan, or no fault for it).
    Deliver,
    /// Swallow the frame entirely.
    Drop,
    /// Write the frame twice.
    Duplicate,
    /// Write only the first half of the frame, then stop.
    Truncate,
    /// Sleep this long, then write the frame normally.
    Delay(std::time::Duration),
}

/// A process-wide armed plan with per-fault fired flags and the running
/// count of protocol frames the process has written since arming.
#[derive(Debug)]
struct ActivePlan {
    plan: FaultPlan,
    fired: Vec<bool>,
    frames_seen: u64,
}

fn armed() -> &'static Mutex<Option<ActivePlan>> {
    static ARMED: OnceLock<Mutex<Option<ActivePlan>>> = OnceLock::new();
    ARMED.get_or_init(|| {
        // First touch arms the ambient plan from MHE_FAULT_PLAN, if set.
        let plan = std::env::var("MHE_FAULT_PLAN").ok().and_then(|v| FaultPlan::parse(&v));
        Mutex::new(plan.map(ActivePlan::new))
    })
}

/// Disarms the ambient plan when dropped; returned by [`arm`].
#[derive(Debug)]
pub struct ArmGuard {
    _private: (),
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        if let Ok(mut slot) = armed().lock() {
            *slot = None;
        }
    }
}

/// Arms `plan` process-wide (replacing any previous plan, including one
/// from `MHE_FAULT_PLAN`) until the returned guard drops.
///
/// Tests arming plans must serialize on their own lock: the plan is
/// global, so two concurrently armed tests would see each other's faults.
#[must_use = "the plan disarms when the guard drops"]
pub fn arm(plan: FaultPlan) -> ArmGuard {
    if let Ok(mut slot) = armed().lock() {
        *slot = Some(ActivePlan::new(plan));
    }
    ArmGuard { _private: () }
}

/// The lock tests must hold while a plan is armed.
///
/// The armed plan is process-global and `cargo test` runs tests on
/// parallel threads, so any test calling [`arm`] must serialize on this
/// lock for the guard's whole lifetime — otherwise one test's faults
/// fire inside another's sweeps.
pub fn injection_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

impl ActivePlan {
    fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.faults.len()];
        Self { plan, fired, frames_seen: 0 }
    }

    /// Fires the first unfired fault that `pick` maps to an outcome: marks
    /// it fired and counts it under `fault_injected`.
    fn fire<T>(&mut self, pick: impl Fn(Fault) -> Option<T>) -> Option<T> {
        let mut unfired = self.plan.faults.iter().zip(&mut self.fired).filter(|(_, f)| !**f);
        let (fired, outcome) = unfired.find_map(|(&fault, fired)| Some((fired, pick(fault)?)))?;
        note_fired(fired);
        Some(outcome)
    }
}

/// Runs `f` on the armed plan; `None` when no plan is armed.
fn with_armed<T>(f: impl FnOnce(&mut ActivePlan) -> Option<T>) -> Option<T> {
    armed().lock().ok()?.as_mut().and_then(f)
}

/// Fires a scheduled [`Fault::PanicTask`] for `task`, at most once.
///
/// Called by `ParallelSweep::try_map`/`try_map_in` at each task boundary; a
/// no-op unless a plan is armed and schedules this index. The panic
/// message names the injection so it can never be mistaken for a real
/// defect.
pub fn maybe_panic_task(task: u64) {
    let fired =
        with_armed(|active| active.fire(|f| (f == Fault::PanicTask { task }).then_some(())));
    if fired.is_some() {
        panic!("injected fault: worker panic in task {task}");
    }
}

/// Decides the fate of the next outgoing protocol frame.
///
/// Called by the wire layer before every frame write. Each call consumes
/// one index from the armed plan's process-wide frame counter; a
/// scheduled frame fault ([`Fault::DropFrame`] and friends) matching that
/// index fires at most once and increments the `fault_injected` counter.
/// With no plan armed this is one mutex lock and returns
/// [`FrameFate::Deliver`].
pub fn next_frame_fate() -> FrameFate {
    with_armed(|active| {
        let idx = active.frames_seen;
        active.frames_seen += 1;
        active.fire(|fault| match fault {
            Fault::DropFrame { frame } if frame == idx => Some(FrameFate::Drop),
            Fault::DupFrame { frame } if frame == idx => Some(FrameFate::Duplicate),
            Fault::TruncFrame { frame } if frame == idx => Some(FrameFate::Truncate),
            Fault::DelayFrame { frame, millis } if frame == idx => {
                Some(FrameFate::Delay(std::time::Duration::from_millis(millis)))
            }
            _ => None,
        })
    })
    .unwrap_or(FrameFate::Deliver)
}

/// Marks a byte fault fired, counting its first firing under
/// `fault_injected`.
fn note_fired(fired: &mut bool) {
    if !std::mem::replace(fired, true) {
        mhe_obs::count(mhe_obs::Counter::FaultInjected, 1);
    }
}

/// Per-adapter fault state: the plan's I/O faults with fired flags.
#[derive(Debug)]
struct IoFaults {
    faults: Vec<(Fault, bool)>,
    pos: u64,
}

impl IoFaults {
    fn new(plan: &FaultPlan) -> Self {
        let faults =
            plan.faults.iter().filter(|f| f.acts_on_bytes()).map(|&f| (f, false)).collect();
        Self { faults, pos: 0 }
    }

    /// How many of `len` bytes a read at the current offset may return,
    /// honouring truncation (persistent EOF) and one-shot short reads.
    fn clamp_read(&mut self, len: usize) -> usize {
        let mut allowed = len as u64;
        let pos = self.pos;
        for (fault, fired) in &mut self.faults {
            match *fault {
                Fault::Truncate { at } => {
                    let cap = at.saturating_sub(pos);
                    if cap < allowed {
                        allowed = cap;
                        note_fired(fired);
                    }
                }
                Fault::ShortRead { at } if !*fired && pos < at && pos + allowed > at => {
                    allowed = at - pos;
                    note_fired(fired);
                }
                _ => {}
            }
        }
        allowed as usize
    }

    /// Applies scheduled bit flips to the `n` bytes of `buf` that were
    /// just transferred at the pre-advance offset, then advances.
    fn corrupt_and_advance(&mut self, buf: &mut [u8], n: usize) {
        let start = self.pos;
        for (fault, fired) in &mut self.faults {
            if let Fault::BitFlip { byte, mask } = *fault {
                if !*fired && byte >= start && byte < start + n as u64 {
                    buf[(byte - start) as usize] ^= mask;
                    note_fired(fired);
                }
            }
        }
        self.pos = start + n as u64;
    }
}

/// A [`Read`] adapter that injects a [`FaultPlan`]'s I/O faults at exact
/// byte offsets: bit flips corrupt the data in flight, truncation forces
/// early EOF, short reads under-fill the buffer once.
#[derive(Debug)]
pub struct FaultyReader<R: Read> {
    inner: R,
    state: IoFaults,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner`, injecting `plan`'s I/O faults (panic faults are
    /// ignored — they belong to the sweep engine).
    pub fn new(inner: R, plan: &FaultPlan) -> Self {
        Self { inner, state: IoFaults::new(plan) }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> IoResult<usize> {
        let allowed = self.state.clamp_read(buf.len());
        if allowed == 0 && !buf.is_empty() {
            return Ok(0); // injected EOF (truncation)
        }
        let n = self.inner.read(&mut buf[..allowed])?;
        self.state.corrupt_and_advance(buf, n);
        Ok(n)
    }
}

/// A [`Write`] adapter that injects a [`FaultPlan`]'s I/O faults: bit
/// flips corrupt outgoing bytes, truncation silently drops the tail (a
/// torn write), ENOSPC fails with [`ErrorKind::StorageFull`].
#[derive(Debug)]
pub struct FaultyWriter<W: Write> {
    inner: W,
    state: IoFaults,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner`, injecting `plan`'s I/O faults (panic faults are
    /// ignored — they belong to the sweep engine).
    pub fn new(inner: W, plan: &FaultPlan) -> Self {
        Self { inner, state: IoFaults::new(plan) }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> IoResult<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let pos = self.state.pos;
        // ENOSPC: a hard error at the boundary; the bytes before it land
        // as a partial write first, exactly as a real full disk behaves.
        let mut accept = buf.len() as u64;
        for (fault, fired) in &mut self.state.faults {
            if let Fault::Enospc { at } = *fault {
                if pos >= at {
                    *fired = true;
                    mhe_obs::count(mhe_obs::Counter::FaultInjected, 1);
                    return Err(std::io::Error::new(
                        ErrorKind::StorageFull,
                        format!("injected fault: ENOSPC at byte {at}"),
                    ));
                }
                accept = accept.min(at - pos);
            }
        }
        // Torn write: accepted bytes at/after the truncation offset are
        // reported written but never persisted, as when a process dies
        // mid-save.
        let mut keep = accept;
        for (fault, fired) in &mut self.state.faults {
            if let Fault::Truncate { at } = *fault {
                let cap = at.saturating_sub(pos);
                if cap < keep {
                    keep = cap;
                    note_fired(fired);
                }
            }
        }
        if keep > 0 {
            let mut chunk = buf[..keep as usize].to_vec();
            self.state.corrupt_and_advance(&mut chunk, keep as usize);
            self.inner.write_all(&chunk)?;
        }
        self.state.pos = pos + accept;
        Ok(accept as usize)
    }

    fn flush(&mut self) -> IoResult<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_syntax() {
        let plan = FaultPlan::parse("flip@100:0x01, truncate@512, short@64, enospc@4096, panic@3")
            .unwrap();
        assert_eq!(
            plan.faults(),
            &[
                Fault::BitFlip { byte: 100, mask: 0x01 },
                Fault::Truncate { at: 512 },
                Fault::ShortRead { at: 64 },
                Fault::Enospc { at: 4096 },
                Fault::PanicTask { task: 3 },
            ]
        );
        assert_eq!(FaultPlan::parse("flip@8:255").unwrap().faults().len(), 1);
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("panic@x").is_none());
        assert!(FaultPlan::parse("meteor@7").is_none());
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::seeded(seed, 1000), FaultPlan::seeded(seed, 1000));
        }
        // The generator covers every fault kind within a modest seed range.
        let kinds: std::collections::HashSet<u8> = (0..64)
            .map(|s| match FaultPlan::seeded(s, 1000).faults()[0] {
                Fault::BitFlip { .. } => 0,
                Fault::Truncate { .. } => 1,
                Fault::ShortRead { .. } => 2,
                Fault::Enospc { .. } => 3,
                Fault::PanicTask { .. } => 4,
                _ => u8::MAX,
            })
            .collect();
        assert_eq!(kinds.len(), 5);
        assert!(!kinds.contains(&u8::MAX), "seeded() must not emit frame faults");
    }

    #[test]
    fn reader_flips_exactly_the_scheduled_bit() {
        let data = vec![0u8; 32];
        let plan = FaultPlan::new(vec![Fault::BitFlip { byte: 17, mask: 0x40 }]);
        let mut out = Vec::new();
        FaultyReader::new(data.as_slice(), &plan).read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 32);
        for (i, b) in out.iter().enumerate() {
            assert_eq!(*b, if i == 17 { 0x40 } else { 0 }, "byte {i}");
        }
    }

    #[test]
    fn reader_truncates_at_the_scheduled_offset() {
        let data = vec![7u8; 100];
        let plan = FaultPlan::new(vec![Fault::Truncate { at: 40 }]);
        let mut out = Vec::new();
        FaultyReader::new(data.as_slice(), &plan).read_to_end(&mut out).unwrap();
        assert_eq!(out, vec![7u8; 40]);
    }

    #[test]
    fn reader_short_read_is_one_shot_and_lossless() {
        let data: Vec<u8> = (0..100u8).collect();
        let plan = FaultPlan::new(vec![Fault::ShortRead { at: 33 }]);
        let mut r = FaultyReader::new(data.as_slice(), &plan);
        let mut buf = [0u8; 64];
        let n = r.read(&mut buf).unwrap();
        assert_eq!(n, 33, "first read crossing the offset is shortened");
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!([&buf[..n], &rest[..]].concat(), data, "no data is lost");
    }

    #[test]
    fn writer_fails_with_storage_full_at_the_scheduled_offset() {
        let plan = FaultPlan::new(vec![Fault::Enospc { at: 10 }]);
        let mut w = FaultyWriter::new(Vec::new(), &plan);
        assert_eq!(w.write(&[0u8; 8]).unwrap(), 8);
        // The next write crosses byte 10: the first 2 bytes land, then
        // the following attempt is full.
        let err = w.write_all(&[0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(w.into_inner().len(), 10);
    }

    #[test]
    fn writer_torn_write_drops_the_tail_silently() {
        let plan = FaultPlan::new(vec![Fault::Truncate { at: 6 }]);
        let mut w = FaultyWriter::new(Vec::new(), &plan);
        w.write_all(&[1u8; 4]).unwrap();
        w.write_all(&[2u8; 4]).unwrap();
        w.write_all(&[3u8; 4]).unwrap();
        assert_eq!(w.into_inner(), vec![1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn writer_flips_outgoing_bytes() {
        let plan = FaultPlan::new(vec![Fault::BitFlip { byte: 5, mask: 0xFF }]);
        let mut w = FaultyWriter::new(Vec::new(), &plan);
        w.write_all(&[0u8; 10]).unwrap();
        let out = w.into_inner();
        assert_eq!(out[5], 0xFF);
        assert_eq!(out.iter().filter(|&&b| b != 0).count(), 1);
    }

    #[test]
    fn panic_faults_do_not_touch_io_adapters() {
        let plan = FaultPlan::new(vec![Fault::PanicTask { task: 0 }]);
        let data = vec![9u8; 16];
        let mut out = Vec::new();
        FaultyReader::new(data.as_slice(), &plan).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn parse_accepts_the_frame_fault_syntax() {
        let plan = FaultPlan::parse("drop@2, dup@0, trunc@7, delay@3:25").unwrap();
        assert_eq!(
            plan.faults(),
            &[
                Fault::DropFrame { frame: 2 },
                Fault::DupFrame { frame: 0 },
                Fault::TruncFrame { frame: 7 },
                Fault::DelayFrame { frame: 3, millis: 25 },
            ]
        );
        assert!(FaultPlan::parse("delay@3").is_none(), "delay requires :MILLIS");
        assert!(FaultPlan::parse("drop@x").is_none());
        assert!(FaultPlan::parse("trunc@").is_none());
    }

    #[test]
    fn seeded_net_plans_are_deterministic_and_cover_every_frame_fault() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::seeded_net(seed, 100), FaultPlan::seeded_net(seed, 100));
        }
        let kinds: std::collections::HashSet<u8> = (0..64)
            .map(|s| match FaultPlan::seeded_net(s, 100).faults()[0] {
                Fault::DropFrame { .. } => 0,
                Fault::DupFrame { .. } => 1,
                Fault::TruncFrame { .. } => 2,
                Fault::DelayFrame { .. } => 3,
                _ => u8::MAX,
            })
            .collect();
        assert_eq!(kinds.len(), 4);
        assert!(!kinds.contains(&u8::MAX), "seeded_net() emits only frame faults");
    }

    #[test]
    fn frame_faults_do_not_touch_io_adapters() {
        let plan = FaultPlan::new(vec![
            Fault::DropFrame { frame: 0 },
            Fault::TruncFrame { frame: 0 },
            Fault::DupFrame { frame: 0 },
            Fault::DelayFrame { frame: 0, millis: 1 },
        ]);
        let data = vec![9u8; 16];
        let mut out = Vec::new();
        FaultyReader::new(data.as_slice(), &plan).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        let mut w = FaultyWriter::new(Vec::new(), &plan);
        w.write_all(&data).unwrap();
        assert_eq!(w.into_inner(), data);
    }

    #[test]
    fn next_frame_fate_fires_each_scheduled_fault_once() {
        let _lock = injection_lock().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _guard = arm(FaultPlan::new(vec![
            Fault::DropFrame { frame: 1 },
            Fault::DelayFrame { frame: 3, millis: 25 },
        ]));
        assert_eq!(next_frame_fate(), FrameFate::Deliver); // frame 0
        assert_eq!(next_frame_fate(), FrameFate::Drop); // frame 1
        assert_eq!(next_frame_fate(), FrameFate::Deliver); // frame 2
        assert_eq!(next_frame_fate(), FrameFate::Delay(std::time::Duration::from_millis(25))); // frame 3
        assert_eq!(next_frame_fate(), FrameFate::Deliver); // frame 4
    }

    #[test]
    fn next_frame_fate_is_deliver_without_an_armed_plan() {
        let _lock = injection_lock().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for _ in 0..4 {
            assert_eq!(next_frame_fate(), FrameFate::Deliver);
        }
    }
}
