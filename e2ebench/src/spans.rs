//! In-memory spans for the traced run: one span per call into a layer,
//! nested under the span of the operation that made the call, written out
//! when the run ends.

use ocelotl::format::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that made this call; `None` for an operation span.
    pub parent: Option<u64>,
    /// Id of the operation span this span belongs to.
    pub op: u64,
    /// Kind of that operation (`cold_open`, `slider_move`, ...).
    pub kind: &'static str,
    /// Layer call (`io.hash`, `dp.solve`, ...) or the kind, for an
    /// operation span.
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Where a new span hangs: its operation and its parent.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    op: u64,
    parent: u64,
    kind: &'static str,
}

/// Collects spans from any thread.
pub struct Tracer {
    base: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Run `f` as one operation of kind `kind`.
    pub fn op<T>(&self, kind: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Ctx {
            op: id,
            parent: id,
            kind,
        });
        let end = Instant::now();
        self.push(Span {
            id,
            parent: None,
            op: id,
            kind,
            name: kind.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Run `f` as a call into layer `name`, a child of `ctx`.
    pub fn span<T>(&self, ctx: Ctx, name: &str, f: impl FnOnce(Ctx) -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Ctx { parent: id, ..ctx });
        let end = Instant::now();
        self.push(Span {
            id,
            parent: Some(ctx.parent),
            op: ctx.op,
            kind: ctx.kind,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Record a child of `ctx` whose interval was measured elsewhere.
    pub fn record(&self, ctx: Ctx, name: &str, start: Instant, end: Instant) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: Some(ctx.parent),
            op: ctx.op,
            kind: ctx.kind,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Per operation of `kind`: the summed duration of its spans named
/// `name`, in milliseconds (operations without such a span are skipped).
pub fn per_op_sum(spans: &[Span], kind: &str, name: &str) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.kind == kind && s.parent.is_some() && s.name == name {
            *sums.entry(s.op).or_default() += s.ms();
        }
    }
    sums.into_values().collect()
}

/// Durations of the operation spans of `kind`, in milliseconds.
pub fn op_ms(spans: &[Span], kind: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.kind == kind)
        .map(Span::ms)
        .collect()
}

/// Self time of each operation span of `kind`: its duration minus the
/// part its direct children cover, in milliseconds.
pub fn op_self_ms(spans: &[Span], kind: &str) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.kind == kind)
        .map(|s| {
            let mut cover = children.remove(&s.id).unwrap_or_default();
            cover.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ms() - covered as f64 / 1e6
        })
        .collect()
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let int = |n: u64| Json::Int(n as i64);
        let fields = [
            ("id", int(s.id)),
            ("parent", s.parent.map_or(Json::Null, int)),
            ("op", int(s.op)),
            ("kind", Json::Str(s.kind.to_string())),
            ("name", Json::Str(s.name.clone())),
            ("start_ns", int(s.start_ns)),
            ("end_ns", int(s.end_ns)),
        ];
        let line = Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).to_vec());
        out.push_str(&line.encode());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_spans_nest_under_their_operation() {
        let t = Tracer::new();
        t.op("demo", |ctx| {
            t.span(ctx, "a", |ctx| t.span(ctx, "a.inner", |_| ()));
            t.span(ctx, "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        let op = spans.iter().find(|s| s.parent.is_none()).expect("op span");
        let a = spans.iter().find(|s| s.name == "a").expect("a");
        let inner = spans.iter().find(|s| s.name == "a.inner").expect("inner");
        assert_eq!(a.parent, Some(op.id));
        assert_eq!(inner.parent, Some(a.id));
        assert!(spans.iter().all(|s| s.op == op.id));
        let self_ms = op_self_ms(&spans, "demo")[0];
        assert!(self_ms >= 0.0 && self_ms < op.ms());
        assert_eq!(per_op_sum(&spans, "demo", "b").len(), 1);
    }

    #[test]
    fn every_span_is_one_json_line() {
        let t = Tracer::new();
        t.op("demo", |ctx| t.span(ctx, "a \"quoted\"", |_| ()));
        let spans = t.spans();
        let text = to_jsonl(&spans);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), spans.len());
        for (line, span) in lines.iter().zip(&spans) {
            let json = Json::parse(line).expect("a span line parses");
            assert_eq!(json.get("name"), Some(&Json::Str(span.name.clone())));
            let parent = span.parent.map_or(Json::Null, |p| Json::Int(p as i64));
            assert_eq!(json.get("parent"), Some(&parent));
        }
    }
}
