//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, op)`; spans of one op share its
//! op id. Spans stay in memory and are written out once, when the run
//! ends. A disabled tracer records nothing and costs one branch.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dsmatch::engine::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Offsets from the tracer's epoch, seconds.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing, with times measured
    /// from `epoch` (share one epoch across threads).
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, spans: RefCell::default(), open: RefCell::default() }
    }

    /// An empty tracer with the same switch and epoch, for another thread.
    pub fn child(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Run `f` inside a span named `name` belonging to op `op`.
    pub fn span<R>(&self, name: &str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let start = self.epoch.elapsed().as_secs_f64();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name: name.to_string(), start, end: start, parent, op });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Record a span measured elsewhere (a client-side request interval).
    pub fn record(&self, name: &str, op: u64, start: Instant, end: Instant) {
        if self.on {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
            let parent = self.open.borrow().last().copied();
            let span = Span { name: name.to_string(), start: at(start), end: at(end), parent, op };
            self.spans.borrow_mut().push(span);
        }
    }

    /// Move another tracer's spans (e.g. a client thread's) into this one.
    pub fn absorb(&self, other: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        spans.extend(other.spans.into_inner().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Write every span as one JSON line each (times in microseconds).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let line = Json::obj(vec![
                ("name", Json::from(s.name.as_str())),
                ("start_us", Json::Num(s.start * 1e6)),
                ("end_us", Json::Num(s.end * 1e6)),
                ("parent", Json::opt(s.parent)),
                ("op", Json::from(s.op)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true, Instant::now());
        t.span("outer", 1, || t.span("inner", 1, || ()));
        assert_eq!(t.len(), 2);
        let spans = t.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end - spans[0].start >= spans[1].end - spans[1].start);

        let off = Tracer::new(false, Instant::now());
        off.span("x", 0, || ());
        assert_eq!(off.len(), 0);
    }
}
