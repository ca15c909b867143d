//! In-memory spans and counts recorded around the benchmark's own calls
//! into each layer; the program itself is not instrumented.
//!
//! A disabled tracer reads no clock and stores nothing, so the untraced
//! runs that give the end-to-end metrics pay nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// One timed call into a layer.  The layer is the span name up to its
/// first `.`.
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    /// The operation the span belongs to; `None` during set-up.
    pub op: Option<u64>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One count taken at a layer boundary (rounds, messages, advice bits, …).
pub struct Count {
    pub name: &'static str,
    pub workload: &'static str,
    pub op: Option<u64>,
    pub value: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    workload: &'static str,
    op: Option<u64>,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            workload: "",
            op: None,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans and counts that follow; `op: None` marks set-up.
    pub fn at(&mut self, workload: &'static str, op: Option<u64>) {
        self.workload = workload;
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            workload: self.workload,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push(Count {
                name,
                workload: self.workload,
                op: self.op,
                value,
            });
        }
    }

    /// Durations in ms of the operation spans named `name` in `workload`.
    pub fn op_ms(&self, workload: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.workload == workload && s.name == name && s.op.is_some())
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Values of the counts named `name` taken by operations of `workload`
    /// whose id lies in `ops`.
    pub fn window(&self, workload: &str, name: &str, ops: Range<u64>) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| {
                c.workload == workload && c.name == name && c.op.is_some_and(|op| ops.contains(&op))
            })
            .map(|c| c.value)
            .collect()
    }

    /// The latest count named `name` in `workload`, for end-of-run totals.
    pub fn last(&self, workload: &str, name: &str) -> Option<f64> {
        self.counts
            .iter()
            .rev()
            .find(|c| c.workload == workload && c.name == name)
            .map(|c| c.value)
    }

    /// Self time per `(workload, layer)` in ms, over operation spans only:
    /// each span's duration minus the part its children cover.
    pub fn self_ms(&self) -> BTreeMap<(&'static str, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            if s.op.is_some() {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                *out.entry((s.workload, layer)).or_insert(0.0) +=
                    s.ns().saturating_sub(children) as f64 / 1e6;
            }
        }
        out
    }

    /// Every span and count as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let op = |op: Option<u64>| op.map_or("null".to_string(), |o| o.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":{i},"name":"{}","workload":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name,
                s.workload,
                op(s.op),
                s.start_ns,
                s.end_ns
            );
        }
        for c in &self.counts {
            let _ = writeln!(
                out,
                r#"{{"count":"{}","workload":"{}","op":{},"value":{}}}"#,
                c.name,
                c.workload,
                op(c.op),
                c.value
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.at("w", Some(0));
        tr.span("op", |tr| {
            tr.span("graph.generate", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        let self_ms = tr.self_ms();
        assert!(self_ms[&("w", "graph")] >= 2.0);
        assert!(self_ms[&("w", "op")] < self_ms[&("w", "graph")]);

        let mut off = Tracer::new(false);
        off.span("op", |tr| tr.count("c", 1.0));
        assert!(off.spans.is_empty() && off.counts.is_empty());
    }
}
