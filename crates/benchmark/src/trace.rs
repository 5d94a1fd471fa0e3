//! In-memory spans recorded by the layer replay around each call into a
//! layer, written out once at the end as `out/trace-<workload>.json`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded call (or, for `items > 1` loops, one pass over calls).
#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    /// The source batch that caused the span (`u32::MAX`: none).
    batch: u32,
    /// Units of work inside: tuples, messages, queries — per span name.
    items: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
pub struct Open(u32);

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Work items summed over them.
    pub items: u64,
    /// Nanoseconds inside, children included.
    pub total_ns: u64,
    /// Nanoseconds inside minus the part direct children cover.
    pub self_ns: u64,
}

/// The span recorder. Names are interned in first-use order.
pub struct Tracer {
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
    origin: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Tracer {
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
            origin: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, batch: u32) -> Open {
        let name = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        } as u16;
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            batch,
            items: 0,
            start_ns,
            end_ns: start_ns,
        });
        Open(id)
    }

    /// Closes `open` (the innermost open span), crediting it `items`.
    pub fn end(&mut self, open: Open, items: usize) {
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close innermost first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.items = items as u32;
    }

    /// Per-name totals with self times.
    pub fn layers(&self) -> Vec<(&'static str, Layer)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut layers = vec![Layer::default(); self.names.len()];
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let l = &mut layers[s.name as usize];
            let total = s.end_ns - s.start_ns;
            l.calls += 1;
            l.items += s.items as u64;
            l.total_ns += total;
            l.self_ns += total.saturating_sub(*children);
        }
        self.names.iter().copied().zip(layers).collect()
    }

    /// Writes every span plus the per-name totals. Spans are rows of
    /// `[name index, parent id, batch id, items, start ns, end ns]`; a
    /// span's id is its row index, `-1` stands for "none".
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u32| if v == u32::MAX { -1 } else { v as i64 };
        writeln!(out, "{{\"workload\": \"{workload}\",")?;
        writeln!(
            out,
            "\"columns\": [\"name\", \"parent\", \"batch\", \"items\", \"start_ns\", \"end_ns\"],"
        )?;
        let names: Vec<String> = self.names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(out, "\"names\": [{}],", names.join(", "))?;
        writeln!(out, "\"layers\": {{")?;
        let layers = self.layers();
        for (i, (name, l)) in layers.iter().enumerate() {
            let comma = if i + 1 < layers.len() { "," } else { "" };
            writeln!(
                out,
                "  \"{name}\": {{\"calls\": {}, \"items\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                l.calls, l.items, l.total_ns, l.self_ns
            )?;
        }
        writeln!(out, "}},\n\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "[{},{},{},{},{},{}]{comma}",
                s.name,
                opt(s.parent),
                opt(s.batch),
                s.items,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
