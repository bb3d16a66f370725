//! In-memory span recorder for the traced run.
//!
//! The benchmark times each layer from the outside: every call it makes
//! into a layer is wrapped in a span that records name, start, end,
//! parent, rank and step. Spans stay in memory and are written once, when
//! the run ends. One recorder lives on each rank thread, so recording
//! takes no lock.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
    pub rank: usize,
    /// Step the span belongs to (the step being computed).
    pub step: u64,
    /// Which world call of the run recorded it.
    pub call: usize,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    rank: usize,
    call: usize,
    step: Cell<u64>,
    stack: RefCell<Vec<usize>>,
    spans: RefCell<Vec<SpanRec>>,
}

pub struct Guard<'a> {
    rec: &'a Recorder,
    idx: usize,
}

impl Recorder {
    pub fn new(origin: Instant, rank: usize, call: usize) -> Self {
        Recorder {
            origin,
            rank,
            call,
            step: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn set_step(&self, step: u64) {
        self.step.set(step);
    }

    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        spans.push(SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.borrow().last().copied(),
            rank: self.rank,
            step: self.step.get(),
            call: self.call,
        });
        self.stack.borrow_mut().push(idx);
        Guard { rec: self, idx }
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans.into_inner()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        self.rec.spans.borrow_mut()[self.idx].end_ns = end;
        let popped = self.rec.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.idx), "spans close in nesting order");
    }
}

/// All spans of a run, one list per (call, rank) recorder; parent indices
/// refer into the same list.
#[derive(Default)]
pub struct Trace {
    pub lists: Vec<Vec<SpanRec>>,
}

impl Trace {
    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration (ns) of spans called `name`, per rank.
    pub fn total_ns_by_rank(&self, name: &str) -> HashMap<usize, u64> {
        let mut out = HashMap::new();
        for s in self.iter().filter(|s| s.name == name) {
            *out.entry(s.rank).or_insert(0) += s.dur_ns();
        }
        out
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.total_ns_by_rank(name).values().sum()
    }

    /// Summed self time (ns) of spans called `name`: each span's duration
    /// minus the time its child spans cover. Children of one span run on
    /// the same thread one after another, so their durations add up.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut total = 0u64;
        for list in &self.lists {
            let mut child_ns = vec![0u64; list.len()];
            for s in list {
                if let Some(p) = s.parent {
                    child_ns[p] += s.dur_ns();
                }
            }
            for (i, s) in list.iter().enumerate() {
                if s.name == name {
                    total += s.dur_ns().saturating_sub(child_ns[i]);
                }
            }
        }
        total
    }

    fn iter(&self) -> impl Iterator<Item = &SpanRec> {
        self.lists.iter().flatten()
    }

    /// Write one JSON object per span, one per line. `id` and `parent`
    /// index the spans of one (call, rank) pair.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lists.iter().flat_map(|l| l.iter().enumerate()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"call\": {}, \"rank\": {}, \"id\": {id}, \"parent\": {parent}, \
                 \"name\": \"{}\", \"step\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.call, s.rank, s.name, s.step, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
