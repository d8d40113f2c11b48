//! In-memory spans taken around calls into the program's layers.
//!
//! Spans are recorded by the benchmark itself, at the public boundary of each
//! layer; nothing inside the program is instrumented.  They stay in memory
//! while the workload runs and are written out once it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `identification`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The session (or fleet run) the span belongs to.
    pub session: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub calls: usize,
    /// Summed span durations, milliseconds.
    pub busy_ms: f64,
    /// Summed durations minus the time covered by child spans, milliseconds.
    pub self_ms: f64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, session: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            session,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        session: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, session);
        let result = f();
        self.close(id);
        result
    }

    /// Every span, in the order opened.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the durations of its direct children.
    #[must_use]
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.ms();
            }
        }
        own
    }

    /// Spans whose children cover more than the span itself (beyond clock
    /// rounding): children plus self time must account for every span.
    #[must_use]
    pub fn overfull_spans(&self) -> usize {
        self.self_ms().iter().filter(|&&ms| ms < -1e-6).count()
    }

    /// Aggregates spans by name, in order of first appearance.
    #[must_use]
    pub fn layers(&self) -> Vec<Layer> {
        let own = self.self_ms();
        let mut layers: Vec<Layer> = Vec::new();
        for (span, self_ms) in self.spans.iter().zip(own) {
            let index = match layers.iter().position(|l| l.name == span.name) {
                Some(i) => i,
                None => {
                    layers.push(Layer {
                        name: span.name,
                        calls: 0,
                        busy_ms: 0.0,
                        self_ms: 0.0,
                    });
                    layers.len() - 1
                }
            };
            let layer = &mut layers[index];
            layer.calls += 1;
            layer.busy_ms += span.ms();
            layer.self_ms += self_ms;
        }
        layers
    }

    /// Summed durations of root spans: the traced workload's total.
    #[must_use]
    pub fn root_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ms)
            .sum()
    }

    /// The per-layer table: calls, busy time, self time and share of the
    /// traced workload.
    #[must_use]
    pub fn table(&self) -> String {
        let total = self.root_ms().max(f64::MIN_POSITIVE);
        let mut out = format!(
            "{:<18} {:>8} {:>12} {:>12} {:>7}\n",
            "layer", "calls", "busy ms", "self ms", "share"
        );
        for layer in self.layers() {
            let _ = writeln!(
                out,
                "{:<18} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
                layer.name,
                layer.calls,
                layer.busy_ms,
                layer.self_ms,
                100.0 * layer.busy_ms / total
            );
        }
        out
    }

    /// The spans as one JSON document.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"session\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.session
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut trace = Trace::new();
        trace.spans = vec![
            span("session", 0, 10_000_000, None),
            span("transfer", 1_000_000, 7_000_000, Some(0)),
            span("decode", 2_000_000, 5_000_000, Some(1)),
            span("score", 8_000_000, 9_000_000, Some(0)),
        ];
        let own = trace.self_ms();
        assert_eq!(own, vec![3.0, 3.0, 3.0, 1.0]);
        assert_eq!(trace.overfull_spans(), 0);
        assert_eq!(trace.root_ms(), 10.0);
        let layers = trace.layers();
        assert_eq!(layers.len(), 4);
        assert_eq!((layers[1].name, layers[1].calls), ("transfer", 1));
        assert_eq!(layers[1].busy_ms, 6.0);
        assert!(trace.table().contains("transfer"));
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut trace = Trace::new();
        let root = trace.open("session", None, 7);
        let value = trace.record("identification", Some(root), 7, || 41 + 1);
        trace.close(root);
        assert_eq!(value, 42);
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.overfull_spans(), 0);
        let json = trace.to_json("paper_mix", 3);
        assert!(json.starts_with("{\"workload\":\"paper_mix\",\"seed\":3,"));
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));
    }
}
