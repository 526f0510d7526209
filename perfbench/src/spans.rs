//! In-memory spans recorded around the benchmark's calls into perfvar.
//!
//! A span has a name (the layer and call), a start and an end on one
//! monotonic clock, the span that caused it and the op or request it
//! belongs to. Spans are kept in memory while the benchmark runs and
//! written out once at exit; a disabled [`Tracer`] records nothing.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Identifier, unique within one tracer (never 0).
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Layer and call, e.g. `analysis.outofcore.analyze_path`.
    pub name: &'static str,
    /// The op or request the span belongs to.
    pub op: u64,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch (`>= start`).
    pub end: u64,
    /// Whether the traced call returned an error or a wrong output.
    pub failed: bool,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A span that has been opened and not yet closed.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    op: u64,
    start: u64,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> Option<u32> {
        (self.id != 0).then_some(self.id)
    }
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and otherwise costs a
    /// branch per call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. On a disabled tracer the result is inert.
    pub fn open(&self, name: &'static str, parent: Option<u32>, op: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                name,
                op,
                start: 0,
            };
        }
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            op,
            start: self.now(),
        }
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, open: Open, failed: bool) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            start: open.start,
            end: self.now(),
            failed,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Runs `f` inside a span; the span is marked failed when `f` errs.
    pub fn call<T, E>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let open = self.open(name, parent, op);
        let out = f();
        self.close(open, out.is_err());
        out
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"failed\":{}}}",
                s.id, s.name, s.op, s.start, s.end, s.failed
            )?;
        }
        Ok(())
    }
}

/// Self time of `span`: its duration minus the part of its interval that
/// its direct children cover. Overlapping children (parallel calls) count
/// once; a child reaching outside the parent is clipped to it.
pub fn self_time(span: &Span, spans: &[Span]) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start;
    for (start, end) in children {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    span.duration() - covered
}

/// Spans of `spans` that descend from `root` (itself included).
pub fn subtree<'a>(root: &Span, spans: &'a [Span]) -> Vec<&'a Span> {
    let mut ids = vec![root.id];
    let mut out = Vec::new();
    let mut i = 0;
    while i < ids.len() {
        let id = ids[i];
        for s in spans.iter().filter(|s| s.id == id || s.parent == Some(id)) {
            if s.id == id {
                out.push(s);
            } else {
                ids.push(s.id);
            }
        }
        i += 1;
    }
    out
}
