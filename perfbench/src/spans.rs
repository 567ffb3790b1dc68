//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans stay in memory during the run and are
//! written out once at the end.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the operation (query, lookup, append) the span belongs to.
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.start(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span measured elsewhere (e.g. a queue wait the server
    /// reports), ending now.
    pub fn record(&mut self, name: &'static str, op: usize, parent: Option<usize>, dur_ns: u64) {
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub(dur_ns);
        self.spans.push(Span { name, op, parent, start_ns, end_ns });
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Total milliseconds across spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
