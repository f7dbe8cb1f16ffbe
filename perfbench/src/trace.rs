//! The benchmark's own in-memory spans.
//!
//! A span is recorded around each call the benchmark makes into a layer
//! of the stack: its name (`layer.what`), start, end, parent span and the
//! id of the request or operation it belongs to. Spans stay in memory
//! and are written out as JSON lines when the run ends. A layer's self
//! time is the sum, over its spans, of each span's duration minus the
//! part of it that its child spans cover.
//!
//! A disabled tracer records nothing; every call is a branch on one
//! flag, so the untraced run pays no more than that.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; `NONE` for "no span" (disabled tracer or a
/// root's parent).
pub type SpanId = usize;

/// "No span".
pub const NONE: SpanId = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Request or operation id shared by all spans of one request.
    pub req: u64,
    /// Parent span, or [`NONE`].
    pub parent: SpanId,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; `u64::MAX` while open.
    pub end_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: u64::MAX,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` now. Spans close innermost first.
    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[id].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.begin(name, req);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records a span whose bounds were measured by the caller (for
    /// example, from a request's due time to its reply).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let self_ns = self_times(&self.spans);
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *out.entry(span.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Self time per layer (the name up to its first `.`), in seconds.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (name, s) in self.self_seconds_by_name() {
            let layer = name.split('.').next().unwrap_or(name).to_string();
            *out.entry(layer).or_insert(0.0) += s;
        }
        out
    }

    /// Total duration of the root spans (no parent), in seconds.
    #[cfg(test)]
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NONE)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Self time of the root spans: the part of each root that no child
    /// span explains, in seconds.
    pub fn root_self_seconds(&self) -> f64 {
        self.spans
            .iter()
            .zip(self_times(&self.spans))
            .filter(|(s, _)| s.parent == NONE)
            .map(|(_, ns)| ns as f64 * 1e-9)
            .sum()
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The spans as JSON lines: `{"id","parent","req","name","start_ns","end_ns"}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of each span, in nanoseconds: its interval, clipped to its
/// parent's, minus the union of its children's clipped intervals. The
/// self times of a tree therefore add up to its root's duration.
///
/// Parents must precede their children in `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut clipped: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for s in spans {
        let (mut lo, mut hi) = (s.start_ns, s.end_ns.max(s.start_ns));
        if s.parent != NONE {
            let (plo, phi) = clipped[s.parent];
            lo = lo.clamp(plo, phi);
            hi = hi.clamp(lo, phi);
        }
        clipped.push((lo, hi));
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (s, &c) in spans.iter().zip(&clipped) {
        if s.parent != NONE {
            children[s.parent].push(c);
        }
    }
    clipped
        .iter()
        .zip(children.iter_mut())
        .map(|(&(lo, hi), kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = lo;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (hi - lo) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.root", NONE, 0, 100),
            span("qp.a", 0, 10, 40),
            // Overlaps the first child: the union counts 10..50 once.
            span("qp.b", 0, 30, 50),
            span("sparse.d", 1, 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 10]);
    }

    #[test]
    fn spans_are_clipped_to_their_parents() {
        let spans = vec![
            span("bench.root", NONE, 0, 100),
            span("qp.a", 0, 10, 40),
            // Sticks out past the parent: clipped at 100, and so is its
            // own self time.
            span("net.c", 0, 90, 120),
            // A grandchild past its clipped parent counts nothing.
            span("serve.e", 2, 110, 130),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![60, 30, 10, 0]);
        assert_eq!(
            t.iter().sum::<u64>(),
            100,
            "a tree's self times add up to its root"
        );
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.span("bench.root", 1, |t| {
            t.span("qp.setup", 1, |t| {
                t.span("sparse.factor", 1, |_| std::hint::black_box(1 + 1));
            });
            t.span("qp.solve", 1, |_| ());
        });
        let by_layer = t.self_seconds_by_layer();
        let total: f64 = by_layer.values().sum();
        assert!((total - t.root_seconds()).abs() < 1e-12);
        assert_eq!(
            by_layer.keys().cloned().collect::<Vec<_>>(),
            vec!["bench", "qp", "sparse"]
        );
        assert_eq!(t.spans()[2].parent, 1);
        assert_eq!(t.durations("qp.solve").len(), 1);
        assert_eq!(t.to_json_lines().lines().count(), 4);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("bench.root", 0);
        assert_eq!(id, NONE);
        t.end(id);
        let now = Instant::now();
        assert_eq!(t.record("net.x", 0, NONE, now, now), NONE);
        assert!(t.spans().is_empty());
        assert_eq!(t.root_seconds(), 0.0);
    }
}
