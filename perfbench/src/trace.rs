//! Spans recorded around calls into each layer's public functions, kept
//! in memory and written out once at the end of a traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The operation (request or workflow) the span belongs to.
    pub op: u64,
}

/// A span recorder. When off, [`Tracer::enter`] and [`Tracer::exit`] do
/// nothing, so the same code path measures the untraced baseline.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let idx = self.stack.pop().expect("exit without enter") as usize;
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span (for leaf calls that record nothing else).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }
}

/// Per-layer totals: calls and summed self time (ns).
#[derive(Default, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
}

impl Layer {
    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.calls.max(1) as f64
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals (clipped to it), summed per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let dur = s.end_ns - s.start_ns;
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.self_ns += dur - covered.min(dur);
    }
    out
}

/// Writes every span as one tab-separated line:
/// `op  name  start_ns  end_ns  parent` (parent `-` for a root).
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "# op\tname\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        if s.parent == NO_PARENT {
            writeln!(out, "{}\t{}\t{}\t{}\t-", s.op, s.name, s.start_ns, s.end_ns)?;
        } else {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.parent
            )?;
        }
    }
    out.flush()
}
