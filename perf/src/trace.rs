//! In-memory span recorder.
//!
//! A span is one timed call into a layer: a name (`layer.operation`), a
//! start and end on the recorder's clock, the span that caused it, and
//! the trace it belongs to (every span of one request or one sweep cell
//! shares a trace id). Spans stay in memory while the workload runs and
//! are written out as JSON lines when the run ends.
//!
//! A disabled recorder keeps nothing: [`Tracer::span`] calls straight
//! through, so the untraced run measures the program, not the recorder.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Trace id shared by every span of one request or cell.
    pub trace: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Small per-process id of the recording thread.
    pub thread: u64,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer part of the name (before the first dot).
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The recorder. Shared by reference across worker threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A recorder that keeps spans.
    #[must_use]
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A recorder that keeps nothing.
    #[must_use]
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id, to pass as the parent of spans it opens; with the recorder off
    /// it receives 0.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        trace: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.push(name, id, parent, trace, start, Instant::now());
        out
    }

    /// Records a span measured by the caller (for intervals known only
    /// afterwards, such as a request timed from its scheduled send).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(name, id, parent, trace, start, end);
        }
    }

    fn push(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            id,
            parent,
            trace,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            thread: thread_id(),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(span);
    }

    /// Every span recorded so far, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"thread\":{}}}",
                s.id,
                s.parent,
                s.trace,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns.get(&s.id).copied().unwrap_or(0),
                s.thread
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Durations in nanoseconds of every span named `name`.
#[must_use]
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Busy share (Σ cell time ÷ (threads × sweep wall)) and median tail (ms
/// from the first worker running out of cells to the sweep's end) over
/// every span named `sweep_name`.
#[must_use]
pub fn sweep_shape(spans: &[Span], sweep_name: &str, threads: usize) -> (f64, f64) {
    let mut busy = Vec::new();
    let mut tails = Vec::new();
    for sweep in spans.iter().filter(|s| s.name == sweep_name) {
        let cells: Vec<&Span> = spans.iter().filter(|s| s.parent == sweep.id).collect();
        if cells.is_empty() {
            continue;
        }
        let work: u64 = cells.iter().map(|c| c.dur_ns()).sum();
        busy.push(work as f64 / (threads.max(1) as f64 * sweep.dur_ns().max(1) as f64));
        let mut last_end: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for c in &cells {
            let e = last_end.entry(c.thread).or_insert(0);
            *e = (*e).max(c.end_ns);
        }
        let first_idle = if last_end.len() < threads {
            sweep.start_ns
        } else {
            last_end.values().copied().min().unwrap_or(sweep.end_ns)
        };
        tails.push(sweep.end_ns.saturating_sub(first_idle) as f64 / 1e6);
    }
    (crate::stats::median(&busy), crate::stats::median(&tails))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "t.x",
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 120),
            span(5, 2, 10, 20),
        ];
        let st = self_times(&spans);
        // Children of 1 cover [10,50) and [90,100): 50 ns.
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&5], 10);
    }

    #[test]
    fn sweep_shape_reports_busy_share_and_straggler_tail() {
        let mut cells = vec![span(1, 0, 0, 100)];
        cells[0].name = "exec.sweep";
        for (id, thread, start, end) in [(2, 1, 0, 50), (3, 2, 0, 60), (4, 1, 50, 100)] {
            let mut c = span(id, 1, start, end);
            c.thread = thread;
            cells.push(c);
        }
        let (busy, tail_ms) = sweep_shape(&cells, "exec.sweep", 2);
        assert!((busy - 160.0 / 200.0).abs() < 1e-12);
        // Thread 2 ran out of cells at 60 ns; the sweep ended at 100 ns.
        assert!((tail_ms - 40.0 / 1e6).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Tracer::off();
        let v = t.span("a.b", 0, 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::on();
        t.span("a.outer", 0, 9, |outer| {
            t.span("b.inner", outer, 9, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "b.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "a.outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.trace, 9);
        assert_eq!(inner.layer(), "b");
    }
}
