//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory; written as JSON lines when the workload ends.
//!
//! One line per span:
//! `{"op":3,"id":17,"parent":15,"name":"model.fit","start_ns":…,"end_ns":…}`.
//! `op` is the request the span belongs to, `parent` the span that caused
//! it (`null` for the op's root). A span's self time is its duration minus
//! the part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with one clock origin. A disabled trace records
/// nothing and reads no clock, so untraced runs drive the same code.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Trace {
            enabled: false,
            ..Trace::new()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Trace::end`] and for children's
    /// `parent`.
    pub fn begin(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in milliseconds (0 when
    /// disabled).
    pub fn end(&mut self, id: usize) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Run `f` under a span; returns its result and the span's duration in
    /// milliseconds.
    pub fn span<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(op, name, parent);
        let out = f();
        (out, self.end(id))
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// An empty trace on the same clock, for another thread to record into;
    /// [`Trace::absorb`] brings its spans back.
    pub fn fork(&self) -> Trace {
        Trace {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Append another thread's spans: ids are re-based, clocks aligned, and
    /// the other trace's root spans become children of `parent`.
    pub fn absorb(&mut self, other: Trace, parent: Option<usize>) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(parent),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Self time of span `id` in nanoseconds: its duration minus the union
    /// of its children's intervals (clipped to the span).
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| {
                (
                    c.start_ns.clamp(span.start_ns, span.end_ns),
                    c.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration_ns() - covered
    }

    /// Per op from `first_op` on, the summed duration (ms) of the spans
    /// called `name`, in op order. Ops without such a span are left out.
    pub fn per_op_ms(&self, name: &str, first_op: u64) -> Vec<f64> {
        let mut by_op = std::collections::BTreeMap::<u64, u64>::new();
        let wanted = |s: &&Span| s.name == name && s.op >= first_op;
        for span in self.spans.iter().filter(wanted) {
            *by_op.entry(span.op).or_default() += span.duration_ns();
        }
        by_op.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"op\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Trace {
        Trace {
            enabled: true,
            origin: Instant::now(),
            spans,
        }
    }

    fn span(op: u64, name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            op,
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let trace = fixed(vec![
            span(0, "parent", None, 100, 1100),
            span(0, "a", Some(0), 200, 500),
            // overlaps `a`: only 500..600 is new cover
            span(0, "b", Some(0), 400, 600),
            // sticks out past the parent: clipped to 1000..1100
            span(0, "c", Some(0), 1000, 1300),
            // a grandchild covers nothing of the parent directly
            span(0, "d", Some(1), 250, 300),
        ]);
        assert_eq!(trace.self_ns(0), 1000 - 300 - 100 - 100);
        assert_eq!(trace.self_ns(1), 300 - 50);
        assert_eq!(trace.self_ns(4), 50);
    }

    #[test]
    fn per_op_sums_repeated_spans() {
        let trace = fixed(vec![
            span(1, "scan", None, 0, 2_000_000),
            span(1, "scan", None, 0, 1_000_000),
            span(2, "scan", None, 0, 500_000),
            span(2, "fit", None, 0, 9_000_000),
        ]);
        assert_eq!(trace.per_op_ms("scan", 0), vec![3.0, 0.5]);
        assert_eq!(trace.per_op_ms("scan", 2), vec![0.5]);
        assert_eq!(trace.per_op_ms("nothing", 0), Vec::<f64>::new());
    }

    #[test]
    fn absorbed_spans_keep_their_nesting_under_the_given_parent() {
        let mut main = Trace::new();
        let replay = main.begin(3, "replay", None);
        let mut other = main.fork();
        let outer = other.begin(3, "outer", None);
        other.span(3, "inner", Some(outer), || ());
        other.end(outer);
        main.absorb(other, Some(replay));
        main.end(replay);
        let spans = main.spans();
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].parent, Some(replay));
        assert_eq!(spans[2].parent, Some(1));
        // concurrent children are covered once: the parent's self time is
        // what no child covers
        assert!(main.self_ns(replay) <= spans[0].duration_ns() - spans[1].duration_ns());
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut trace = Trace::disabled();
        let root = trace.begin(1, "op", None);
        let (value, ms) = trace.span(1, "child", Some(root), || 5);
        assert_eq!((value, ms, trace.end(root)), (5, 0.0, 0.0));
        assert!(trace.spans().is_empty());
    }

    #[test]
    fn recorded_spans_nest_and_serialise() {
        let mut trace = Trace::new();
        let root = trace.begin(7, "op", None);
        let (value, ms) = trace.span(7, "child", Some(root), || 21 * 2);
        trace.end(root);
        assert_eq!(value, 42);
        assert!(ms >= 0.0);
        let spans = trace.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        trace.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"op\":7,\"id\":0,\"parent\":null,\"name\":\"op\""));
        assert!(lines[1].contains("\"parent\":0"));
    }
}
