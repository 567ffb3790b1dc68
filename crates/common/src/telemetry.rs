//! Query-lifecycle telemetry: span trees, metrics, and exporters.
//!
//! AdaptDB's value proposition is *where time goes* — repartitioning
//! cost amortized against hyper-join savings — so this module gives
//! every query a structured timeline instead of flat end-of-run
//! counters:
//!
//! * [`Tracer`] / [`Trace`] / [`Span`] — a tree of named, timestamped
//!   spans (plan → scan → map-spill → fetch → probe …). Timestamps are
//!   **explicit microseconds supplied by the caller**: this crate sits
//!   below the simulated clock, so the layers that own a
//!   `SimClock` convert their I/O tallies into simulated microseconds
//!   and pass them down. Because the simulated clocks are
//!   deterministic, traces are bit-reproducible and CI-checkable.
//! * [`Histogram`] — log-bucketed latency/size histograms with exact
//!   `count`/`sum`/`min`/`max` (so means stay exact) and bucketed
//!   quantiles at O(log range) memory, replacing sorted-`Vec`
//!   percentile math in the server and bench paths.
//! * Exporters — [`chrome_trace_json`] renders traces in the Chrome
//!   trace-event format (loadable in `chrome://tracing` / Perfetto),
//!   and [`Journal`] accumulates JSON-lines events for maintenance /
//!   adaptation decisions.
//!
//! Accounting rule: telemetry is **observational only**. Recording a
//! span never charges any simulated clock; with tracing disabled the
//! execution layers skip these calls entirely, so every existing stat
//! is bit-identical whether tracing is on or off.

use std::collections::BTreeMap;
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Geometric growth factor between bucket boundaries: 2^(1/8), i.e. a
/// relative bucket width of ≈ 9%. Eight buckets per octave keeps a
/// nine-decade value range under ~250 buckets.
const BUCKET_GROWTH: f64 = 1.090_507_732_665_257_7;

/// A log-bucketed histogram.
///
/// Bucket `i` (an integer, possibly negative) covers the half-open
/// value interval `[G^i, G^(i+1))` with `G = 2^(1/8)`. Non-positive
/// values land in a dedicated underflow bucket whose representative
/// value is `0.0`. `count`, `sum`, `min` and `max` are tracked exactly,
/// so [`Histogram::mean`] has no quantization error; only quantiles are
/// bucketed, with error bounded by one bucket width (≈ 9% relative).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Count of non-positive samples (representative value 0).
    underflow: u64,
    /// Sparse bucket index → sample count.
    buckets: BTreeMap<i32, u64>,
}

/// Bucket index of a positive value: `floor(log_G(v))`.
fn bucket_index(v: f64) -> i32 {
    (v.ln() / BUCKET_GROWTH.ln()).floor() as i32
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
        if v <= 0.0 || !v.is_finite() {
            self.underflow += 1;
        } else {
            *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bucketed quantile estimate using the nearest-rank convention:
    /// the returned value is the **upper bound** of the bucket holding
    /// the sample of rank `ceil(q · count)`, clamped to the exact
    /// `max`. The true nearest-rank value lies in the same bucket, so
    /// the error is at most one bucket width (≈ 9% relative).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if rank <= seen {
            return 0.0;
        }
        for (&idx, &n) in &self.buckets {
            seen += n;
            if rank <= seen {
                let hi = BUCKET_GROWTH.powi(idx + 1);
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// The half-open bucket interval `[lo, hi)` a positive value falls
    /// into — exposed so tests can assert the ≤ 1-bucket-width error
    /// bound of [`Histogram::quantile`] directly.
    pub fn bucket_bounds(v: f64) -> (f64, f64) {
        if v <= 0.0 {
            return (0.0, 0.0);
        }
        let idx = bucket_index(v);
        (BUCKET_GROWTH.powi(idx), BUCKET_GROWTH.powi(idx + 1))
    }

    /// Merge another histogram into this one. Counts and sums add;
    /// min/max take the extremes; bucket tallies add per index, so a
    /// merge is exactly equivalent to recording the other histogram's
    /// samples here (order-independent).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.underflow += other.underflow;
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }
}

// ---------------------------------------------------------------------------
// Spans and traces
// ---------------------------------------------------------------------------

/// Identifier of a span within one [`Trace`] (dense, starting at 0).
pub type SpanId = u32;

/// A typed span/journal attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Signed integer attribute (counts, block totals, depths).
    Int(i64),
    /// Floating-point attribute (seconds, fractions, estimates).
    Float(f64),
    /// String attribute (table names, strategies, decisions).
    Str(String),
}

impl AttrValue {
    /// Render as a JSON value fragment (deterministic formatting).
    pub fn to_json(&self) -> String {
        match self {
            AttrValue::Int(v) => v.to_string(),
            AttrValue::Float(v) => fmt_f64(*v),
            AttrValue::Str(s) => json_string(s),
        }
    }
}

/// One named, timestamped interval in a query's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dense id within the owning trace.
    pub id: SpanId,
    /// Parent span, or `None` for a root.
    pub parent: Option<SpanId>,
    /// Phase name (see the span taxonomy in `docs/ARCHITECTURE.md`).
    pub name: String,
    /// Start timestamp in simulated microseconds.
    pub start_us: u64,
    /// End timestamp in simulated microseconds (`== start_us` until the
    /// span is ended).
    pub end_us: u64,
    /// Attributes, in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl Span {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A finished span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, ordered by id (creation order).
    pub spans: Vec<Span>,
}

/// Collects spans for one trace. Thread-safe: parallel phases may
/// record spans concurrently (parenting is explicit, not stack-based,
/// precisely so that concurrency cannot corrupt the tree shape).
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer with no spans.
    pub fn new() -> Self {
        Tracer::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Start a span at `at_us` under `parent` and return its id.
    pub fn start(&self, name: impl Into<String>, parent: Option<SpanId>, at_us: u64) -> SpanId {
        let mut g = self.lock();
        let id = g.len() as SpanId;
        g.push(Span {
            id,
            parent,
            name: name.into(),
            start_us: at_us,
            end_us: at_us,
            attrs: Vec::new(),
        });
        id
    }

    /// End a span at `at_us`. Ending twice keeps the later timestamp.
    pub fn end(&self, id: SpanId, at_us: u64) {
        let mut g = self.lock();
        if let Some(s) = g.get_mut(id as usize) {
            s.end_us = s.end_us.max(at_us);
        }
    }

    /// Attach an attribute to a span.
    pub fn attr(&self, id: SpanId, key: &str, value: AttrValue) {
        let mut g = self.lock();
        if let Some(s) = g.get_mut(id as usize) {
            s.attrs.push((key.to_string(), value));
        }
    }

    /// Attach an integer attribute.
    pub fn attr_i(&self, id: SpanId, key: &str, v: i64) {
        self.attr(id, key, AttrValue::Int(v));
    }

    /// Attach a float attribute.
    pub fn attr_f(&self, id: SpanId, key: &str, v: f64) {
        self.attr(id, key, AttrValue::Float(v));
    }

    /// Attach a string attribute.
    pub fn attr_s(&self, id: SpanId, key: &str, v: &str) {
        self.attr(id, key, AttrValue::Str(v.to_string()));
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Copy the spans out as a [`Trace`].
    pub fn snapshot(&self) -> Trace {
        Trace { spans: self.lock().clone() }
    }

    /// Consume the tracer, yielding its [`Trace`].
    pub fn finish(self) -> Trace {
        Trace { spans: self.spans.into_inner().unwrap_or_else(|e| e.into_inner()) }
    }
}

impl Trace {
    /// Root spans (no parent), in creation order.
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Children of `id`, in creation order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Find the first span with the given name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Sum of root-span durations, in microseconds. For a per-query
    /// trace with a single `query` root this is the query's simulated
    /// runtime.
    pub fn root_duration_us(&self) -> u64 {
        self.roots().map(|s| s.duration_us()).sum()
    }

    /// Render the span tree as indented text: one line per span with
    /// `[start..end]` in simulated milliseconds, duration, and attrs.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let roots: Vec<SpanId> = self.roots().map(|s| s.id).collect();
        for r in roots {
            self.render_into(r, 0, &mut out);
        }
        out
    }

    fn render_into(&self, id: SpanId, depth: usize, out: &mut String) {
        let s = &self.spans[id as usize];
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{} [{:.3}ms..{:.3}ms] dur={:.3}ms",
            s.name,
            s.start_us as f64 / 1000.0,
            s.end_us as f64 / 1000.0,
            s.duration_us() as f64 / 1000.0
        ));
        for (k, v) in &s.attrs {
            match v {
                AttrValue::Int(x) => out.push_str(&format!(" {k}={x}")),
                AttrValue::Float(x) => out.push_str(&format!(" {k}={x:.4}")),
                AttrValue::Str(x) => out.push_str(&format!(" {k}={x}")),
            }
        }
        out.push('\n');
        let kids: Vec<SpanId> = self.children(id).map(|s| s.id).collect();
        for k in kids {
            self.render_into(k, depth + 1, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Render one span as a Chrome trace-event "complete" (`ph: "X"`)
/// object. `ts`/`dur` are microseconds per the format spec.
fn chrome_event(span: &Span, pid: u32) -> String {
    let mut args = String::new();
    args.push_str(&format!("\"span_id\": {}", span.id));
    if let Some(p) = span.parent {
        args.push_str(&format!(", \"parent\": {p}"));
    }
    for (k, v) in &span.attrs {
        args.push_str(&format!(", {}: {}", json_string(k), v.to_json()));
    }
    format!(
        "{{\"name\": {}, \"cat\": \"adaptdb\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
         \"pid\": {pid}, \"tid\": 1, \"args\": {{{args}}}}}",
        json_string(&span.name),
        span.start_us,
        span.duration_us(),
    )
}

/// Render a set of traces as one Chrome trace-event JSON document
/// (loadable in `chrome://tracing` or Perfetto). Each `(pid, trace)`
/// pair becomes one "process" in the viewer; spans keep creation
/// order within a trace, so output is byte-deterministic.
pub fn chrome_trace_json(parts: &[(u32, &Trace)]) -> String {
    let mut events = Vec::new();
    for (pid, trace) in parts {
        for span in &trace.spans {
            events.push(chrome_event(span, *pid));
        }
        events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 1, \
             \"args\": {{\"name\": {}}}}}",
            json_string(&format!("trace-{pid}"))
        ));
    }
    format!("{{\"traceEvents\": [\n  {}\n], \"displayTimeUnit\": \"ms\"}}\n", events.join(",\n  "))
}

// ---------------------------------------------------------------------------
// JSON-lines event journal
// ---------------------------------------------------------------------------

/// One journal record: a timestamped, typed event with attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Timestamp in simulated microseconds (maintenance clock).
    pub ts_us: u64,
    /// Event kind (`"adaptation"`, `"snapshot-swap"`, `"gc"`, …).
    pub kind: String,
    /// Attributes, in insertion order.
    pub fields: Vec<(String, AttrValue)>,
}

impl JournalEvent {
    /// Render as one JSON object (one JSONL line, without newline).
    pub fn to_json(&self) -> String {
        let mut out =
            format!("{{\"ts_us\": {}, \"event\": {}", self.ts_us, json_string(&self.kind));
        for (k, v) in &self.fields {
            out.push_str(&format!(", {}: {}", json_string(k), v.to_json()));
        }
        out.push('}');
        out
    }
}

/// An append-only, thread-safe event log rendered as JSON lines.
///
/// The server's maintenance loop journals every adaptation decision
/// here: which tree was adapted, predicted vs realized cost, blocks
/// GC'd, work deferred by pacing.
#[derive(Debug, Default)]
pub struct Journal {
    events: Mutex<Vec<JournalEvent>>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Append an event.
    pub fn event(&self, ts_us: u64, kind: &str, fields: Vec<(String, AttrValue)>) {
        let mut g = self.events.lock().unwrap_or_else(|e| e.into_inner());
        g.push(JournalEvent { ts_us, kind: kind.to_string(), fields });
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the events out.
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Render all events as JSON lines (one object per line).
    pub fn to_jsonl(&self) -> String {
        let g = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for e in g.iter() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

/// Deterministic float formatting for exported JSON: integers render
/// without a fraction, everything else with six decimals.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Escape and quote a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_mean_and_extremes() {
        let mut h = Histogram::new();
        for v in [3.0, 1.0, 4.0, 1.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 14.0);
        assert_eq!(h.mean(), 2.8);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn histogram_quantile_within_one_bucket() {
        let mut h = Histogram::new();
        let mut samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let est = h.quantile(q);
            let (lo, hi) = Histogram::bucket_bounds(exact);
            assert!(est >= exact, "q={q}: est {est} below exact {exact}");
            assert!(est - exact <= hi - lo + 1e-9, "q={q}: est {est} vs exact {exact}");
        }
    }

    #[test]
    fn histogram_zero_and_negative_underflow() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(10.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.quantile(1.0) <= 10.0 + 1e-9);
        assert_eq!(h.min(), -3.0);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..100 {
            let v = (i * 7 % 50) as f64 + 0.5;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn span_tree_shape_and_durations() {
        let t = Tracer::new();
        let root = t.start("query", None, 0);
        let scan = t.start("scan", Some(root), 100);
        t.attr_i(scan, "blocks", 7);
        t.end(scan, 400);
        t.end(root, 500);
        let trace = t.finish();
        assert_eq!(trace.roots().count(), 1);
        assert_eq!(trace.children(root).count(), 1);
        assert_eq!(trace.root_duration_us(), 500);
        assert_eq!(trace.find("scan").unwrap().attr("blocks"), Some(&AttrValue::Int(7)));
        let tree = trace.render_tree();
        assert!(tree.contains("query"));
        assert!(tree.contains("  scan"));
    }

    #[test]
    fn chrome_export_is_valid_shape_and_deterministic() {
        let build = || {
            let t = Tracer::new();
            let root = t.start("query", None, 0);
            let s = t.start("scan", Some(root), 10);
            t.attr_s(s, "table", "orders\"x");
            t.end(s, 20);
            t.end(root, 30);
            t.finish()
        };
        let a = build();
        let b = build();
        let ja = chrome_trace_json(&[(1, &a)]);
        let jb = chrome_trace_json(&[(1, &b)]);
        assert_eq!(ja, jb, "identical runs must serialize byte-identically");
        assert!(ja.starts_with("{\"traceEvents\": ["));
        assert!(ja.contains("\"ph\": \"X\""));
        assert!(ja.contains("\\\"x"));
    }

    #[test]
    fn journal_jsonl() {
        let j = Journal::new();
        j.event(5, "gc", vec![("blocks".to_string(), AttrValue::Int(3))]);
        j.event(9, "adaptation", vec![("table".to_string(), AttrValue::Str("l".into()))]);
        let out = j.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"ts_us\": 5, \"event\": \"gc\", \"blocks\": 3}");
        assert!(lines[1].contains("\"event\": \"adaptation\""));
    }
}
