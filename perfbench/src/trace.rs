//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Each client thread owns a [`Tracer`]. A span records its name, start,
//! end, parent span and operation id; spans of one operation share the
//! id. Nothing is written while the workload runs: [`write_tsv`] writes
//! the merged spans when the run ends. A span's self time is its
//! duration minus the durations of its direct children (children of one
//! span never overlap: they are opened and closed on one thread's stack).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer's span list.
    pub parent: Option<u32>,
    pub op: u64,
    pub thread: u32,
    pub ok: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    thread: u32,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer whose timestamps count from `base` (shared by every
    /// thread of a run, so spans of different threads line up).
    pub fn new(base: Instant, thread: u32) -> Tracer {
        Tracer {
            base,
            thread,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Start a new operation: spans opened from now on carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: (self.thread as u64) << 48 | self.op,
            thread: self.thread,
            ok: true,
        });
        self.stack.push(idx as u32);
        idx
    }

    fn exit(&mut self, idx: usize, ok: bool) {
        let end = self.now_ns();
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.ok = ok;
    }

    /// Run `f` inside a span; an `Err` marks the span failed.
    pub fn span<T, E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> Result<T, E>,
    ) -> Result<T, E> {
        let idx = self.enter(name);
        let out = f(self);
        self.exit(idx, out.is_ok());
        out
    }

    /// Run an infallible `f` inside a span.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.enter(name);
        let out = f(self);
        self.exit(idx, true);
        out
    }

    /// Duration of the most recently closed span named `name`, in
    /// microseconds.
    pub fn last_us(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
    }

    /// Summed durations (µs) of the direct children of the most recently
    /// opened span named `name`.
    pub fn children_us_of_last(&self, name: &str) -> f64 {
        let Some(idx) = self.spans.iter().rposition(|s| s.name == name) else {
            return 0.0;
        };
        self.spans[idx + 1..]
            .iter()
            .filter(|s| s.parent == Some(idx as u32))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .sum()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans of every thread of a run, with self times computed.
#[derive(Debug, Default)]
pub struct SpanTable {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl SpanTable {
    /// Merge per-thread span lists. Parent indices stay relative to each
    /// thread's list, so self times are computed per list before merging.
    pub fn new(per_thread: Vec<Vec<Span>>) -> SpanTable {
        let mut table = SpanTable::default();
        for spans in per_thread {
            let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
            for s in &spans {
                if let Some(p) = s.parent {
                    self_ns[p as usize] = self_ns[p as usize].saturating_sub(s.dur_ns());
                }
            }
            table.spans.extend(spans);
            table.self_ns.extend(self_ns);
        }
        table
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times (µs) of the spans named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect()
    }

    /// Durations (µs) of the spans named `name`.
    pub fn dur_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    pub fn errors(&self, name: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name && !s.ok)
            .count()
    }

    /// Sum of self times (µs) of every span that starts inside one of the
    /// `windows` (`[start_ns, end_ns)` on the run's clock).
    pub fn self_sum_in(&self, windows: &[(u64, u64)]) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| {
                windows
                    .iter()
                    .any(|(a, b)| s.start_ns >= *a && s.start_ns < *b)
            })
            .map(|(_, ns)| *ns as f64 / 1e3)
            .sum()
    }
}

/// Write every span as one tab-separated line: name, start, end (ns on the
/// run's clock), parent index, operation id, thread, ok.
pub fn write_tsv(path: &Path, table: &SpanTable) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\top\tthread\tok")?;
    for s in table.spans() {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.op, s.thread, s.ok
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.begin_op();
        t.timed("op", |t| {
            t.timed("a", |t| {
                t.timed("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            let r: Result<(), ()> = t.span("c", |_| Err(()));
            assert!(r.is_err());
        });
        let table = SpanTable::new(vec![t.into_spans()]);
        let op = table.dur_us("op")[0];
        let total_self: f64 = ["op", "a", "b", "c"]
            .iter()
            .map(|n| table.self_us(n)[0])
            .sum();
        assert!((total_self - op).abs() < 1e-6, "{total_self} vs {op}");
        assert!(table.self_us("b")[0] >= 2000.0);
        assert_eq!(table.errors("c"), 1);
        assert_eq!(table.calls("a"), 1);
    }
}
