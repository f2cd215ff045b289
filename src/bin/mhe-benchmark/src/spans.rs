//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions; nothing inside the program is
//! instrumented. They stay in memory and are written as JSON lines when
//! the run ends.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the merged list.
    pub id: usize,
    /// The span open when this one started, if any.
    pub parent: Option<usize>,
    /// What was timed (a layer call or a pipeline step).
    pub name: &'static str,
    /// The operation (repetition or request) this span belongs to.
    pub op: u64,
    /// Recording thread (daemon clients record on their own threads).
    pub thread: usize,
    /// Offset from the run's origin.
    pub start: Duration,
    /// Offset from the run's origin.
    pub end: Duration,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans on one thread. A disabled recorder still runs the timed
/// closures but stores nothing, so untraced operations pay no recording
/// cost beyond a branch.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    thread: usize,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose offsets count from `origin`.
    pub fn new(origin: Instant, thread: usize) -> Self {
        Recorder { origin, thread, enabled: true, spans: Vec::new(), open: Vec::new() }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span that later spans nest under; close it with
    /// [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op,
            thread: self.thread,
            start,
            end: start,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Recorder::enter`].
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
            self.open.retain(|&o| o != id);
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, renumbering ids so they stay
/// unique and parents keep pointing at the same spans.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let offset = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(Duration, Duration)>, lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Time each span's direct children cover, by span id.
pub fn child_cover(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans.iter().zip(children).map(|(s, kids)| covered(kids, s.start, s.end)).collect()
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    spans.iter().zip(child_cover(spans)).map(|(s, c)| s.duration().saturating_sub(c)).collect()
}

/// Share of the wall time of the spans named `top` that no child span
/// covers, pooled over all of them (0 when there are none).
pub fn unattributed_ratio(spans: &[Span], top: &str) -> f64 {
    let cover = child_cover(spans);
    let (mut wall, mut bare) = (0.0, 0.0);
    for (s, c) in spans.iter().zip(cover) {
        if s.name == top {
            wall += s.duration().as_secs_f64();
            bare += s.duration().saturating_sub(c).as_secs_f64();
        }
    }
    if wall > 0.0 {
        bare / wall
    } else {
        0.0
    }
}

/// Writes `spans` as one JSON object per line.
pub fn write_json_lines(w: &mut impl Write, workload: &str, spans: &[Span]) -> io::Result<()> {
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
             \"op\":{},\"thread\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.id,
            s.name,
            s.op,
            s.thread,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            own.as_secs_f64() * 1e6,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, ms: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            thread: 0,
            start: Duration::from_millis(ms.0),
            end: Duration::from_millis(ms.1),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "op", (0, 100)),
            span(1, Some(0), "build", (10, 60)),
            // Overlaps `build` (another thread's view): counted once.
            span(2, Some(0), "walk", (50, 90)),
            span(3, Some(1), "inner", (20, 30)),
            // Sticks out of its parent: only the inside part counts.
            span(4, Some(0), "tail", (95, 120)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_millis(100 - 80 - 5));
        assert_eq!(own[1], Duration::from_millis(40));
        assert_eq!(own[2], Duration::from_millis(40));
        assert_eq!(own[3], Duration::from_millis(10));
        let ratio = unattributed_ratio(&spans, "op");
        assert!((ratio - 0.15).abs() < 1e-12, "{ratio}");
        assert_eq!(unattributed_ratio(&spans, "missing"), 0.0);
    }

    #[test]
    fn recorder_nests_and_merge_keeps_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 0);
        let op = a.enter("op", 1);
        a.time("walk", 1, || ());
        a.exit(op);
        a.set_enabled(false);
        a.time("ignored", 2, || ());
        let mut b = Recorder::new(origin, 1);
        let op = b.enter("op", 7);
        b.time("render", 7, || ());
        b.exit(op);
        let merged = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[1].parent, Some(0));
        assert_eq!(merged[2].parent, None);
        assert_eq!((merged[3].id, merged[3].parent, merged[3].thread), (3, Some(2), 1));
        let mut out = Vec::new();
        write_json_lines(&mut out, "w", &merged).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().nth(3).unwrap().contains("\"parent\":2,\"name\":\"render\""));
    }
}
