//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer (spans
//! inside the libraries are a later change), kept in memory, and written as
//! JSON lines when the run ends. A disabled recorder makes `enter`/`exit`
//! return at once, so the same driving loop runs traced and untraced and the
//! difference between the two is the tracing overhead.

// dkg-lint R6 audits every file under src/bin/ as a crate root.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dkg_arith::ops;

use crate::json::Json;

/// Handle returned by [`Recorder::enter`]; pass it back to `exit`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

const NO_SPAN: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// The call.
    pub name: &'static str,
    /// The node whose endpoint was called (0 when there is none).
    pub node: u64,
    /// The operation (DKG, epoch, request, restore) this span belongs to:
    /// spans of one operation share it.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Group operations performed inside the span (children included).
    pub group_ops: u64,
    /// Bytes the call handled, where that means something.
    pub bytes: u64,
    /// A standalone span repeats work on captured inputs to price it in
    /// isolation (the codec probe); it is not part of the operation.
    pub standalone: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing a `(layer, name)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    /// Summed durations, children included.
    pub busy_ns: u64,
    /// Summed durations minus the part covered by child spans.
    pub self_ns: u64,
    pub group_ops: u64,
    pub bytes: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str, node: u64) -> SpanId {
        self.enter_as(layer, name, node, false)
    }

    /// Enters a span that prices work in isolation (see [`Span::standalone`]).
    pub fn enter_standalone(
        &mut self,
        layer: &'static str,
        name: &'static str,
        node: u64,
    ) -> SpanId {
        self.enter_as(layer, name, node, true)
    }

    fn enter_as(
        &mut self,
        layer: &'static str,
        name: &'static str,
        node: u64,
        standalone: bool,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(NO_SPAN);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            layer,
            name,
            node,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            // Holds the counter reading at entry until `exit` turns it into
            // the span's own count.
            group_ops: ops::snapshot().total(),
            bytes: 0,
            standalone,
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        self.exit_with_bytes(id, 0);
    }

    pub fn exit_with_bytes(&mut self, id: SpanId, bytes: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must nest");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        span.group_ops = ops::snapshot().total() - span.group_ops;
        span.bytes = bytes;
    }

    /// Per `(layer, name)` totals with self times: a span's self time is its
    /// duration minus the durations of the spans it directly caused.
    pub fn aggregate(&self) -> BTreeMap<(&'static str, &'static str), Aggregate> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<(&'static str, &'static str), Aggregate> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry((span.layer, span.name)).or_default();
            entry.count += 1;
            entry.busy_ns += span.duration_ns();
            entry.self_ns += span.duration_ns() - children;
            entry.group_ops += span.group_ops;
            entry.bytes += span.bytes;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::Str(workload.to_string())),
                ("op", Json::Num(f64::from(span.op))),
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("layer", Json::Str(span.layer.to_string())),
                ("name", Json::Str(span.name.to_string())),
                ("node", Json::Num(span.node as f64)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("group_ops", Json::Num(span.group_ops as f64)),
                ("bytes", Json::Num(span.bytes as f64)),
                ("standalone", Json::Bool(span.standalone)),
            ]);
            writeln!(file, "{}", line.encode())?;
        }
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            layer: "layer",
            name,
            node: 0,
            op: 0,
            start_ns,
            end_ns,
            group_ops: 0,
            bytes: 0,
            standalone: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut recorder = Recorder::new(true);
        // root 0..100 ─ a 10..40 ─ c 20..30
        //             └ a 50..90
        recorder.spans = vec![
            span(None, "root", 0, 100),
            span(Some(0), "a", 10, 40),
            span(Some(1), "c", 20, 30),
            span(Some(0), "a", 50, 90),
        ];
        let totals = recorder.aggregate();
        let root = totals[&("layer", "root")];
        assert_eq!((root.count, root.busy_ns, root.self_ns), (1, 100, 30));
        let a = totals[&("layer", "a")];
        assert_eq!((a.count, a.busy_ns, a.self_ns), (2, 70, 60));
        let c = totals[&("layer", "c")];
        assert_eq!((c.busy_ns, c.self_ns), (10, 10));
        // Self times of a tree sum to the root's duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn recorder_nests_and_counts_group_ops() {
        use dkg_arith::{GroupElement, PrimeField, Scalar};
        let _ = GroupElement::commit(&Scalar::one());
        let mut recorder = Recorder::new(true);
        let outer = recorder.enter("a", "outer", 1);
        let inner = recorder.enter_standalone("b", "inner", 2);
        let _ = GroupElement::generator().mul(&Scalar::from_u64(12345));
        recorder.exit_with_bytes(inner, 33);
        recorder.exit(outer);
        let spans = recorder.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].standalone && !spans[0].standalone);
        assert!(spans[1].group_ops > 0);
        assert_eq!(spans[0].group_ops, spans[1].group_ops);
        assert_eq!(spans[1].bytes, 33);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut recorder = Recorder::new(false);
        let id = recorder.enter("a", "b", 0);
        recorder.exit(id);
        assert!(recorder.spans().is_empty());
        assert!(!recorder.enabled());
    }
}
