//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, and what they add up to: folded stacks,
//! self time per layer and the share of wall time the layers explain.
//!
//! A span's name is `<module>.<what>`; the module part (`kernel`,
//! `core`, `workloads`, `dse`, `serve`) is the layer it is billed to.
//! Spans are kept until the run ends and summarised once.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

use crate::Run;

/// One timed call: name, start and end on the run's clock, the span
/// that caused it, and the run/point/request id it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
    /// Threads this span's children ran on (1 unless opened with
    /// [`Tracer::enter_wide`]).
    pub width: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread; spans measured on other threads are
/// added with [`Tracer::record`]. A tracer made with [`Tracer::off`]
/// records nothing, so traced and untraced passes run the same code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        self.enter_wide(name, id, 1)
    }

    /// [`Tracer::enter`] for a span whose children run on `width`
    /// threads at once.
    pub fn enter_wide(&mut self, name: &'static str, id: u64, width: u32) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
            width,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        assert_eq!(self.open.pop(), Some(idx), "spans close in LIFO order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Renames span `idx`, for spans classed only once they end.
    pub fn rename(&mut self, idx: usize, name: &'static str) {
        if self.on {
            self.spans[idx].name = name;
        }
    }

    /// Times `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name, id);
        let r = f();
        self.exit(s);
        r
    }

    /// Adds a span measured elsewhere (another thread) on this
    /// tracer's clock, under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: usize,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            id,
            width: 1,
        });
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Spans named `name`: how many, and their total nanoseconds.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.ns()))
    }

    /// Mean microseconds of the spans named `name`; 0 when none ran.
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.total(name) {
            (0, _) => 0.0,
            (n, t) => t as f64 / n as f64 / 1e3,
        }
    }

    /// Self time per span, folded stacks and layer shares. Root spans
    /// are the benchmark's own passes; their self time is the part no
    /// layer explains. A root whose children ran in parallel counts its
    /// wall time once per thread.
    pub fn summarise(&self) -> Summary {
        let mut child_ns = vec![0_u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        let mut roots: BTreeMap<&'static str, std::collections::BTreeSet<u64>> = BTreeMap::new();
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut capacity_ns = 0.0;
        let mut explained_ns = 0_u64;
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.ns().saturating_sub(child_ns[i]);
            *folded.entry(self.stack(i)).or_default() += self_ns;
            if s.parent.is_none() {
                roots.entry(s.name).or_default().insert(s.id);
                capacity_ns += s.ns() as f64 * f64::from(s.width);
            } else {
                explained_ns += self_ns;
                let module = s.name.split('.').next().unwrap_or(s.name);
                *layers.entry(module).or_default() += self_ns;
            }
        }
        let coverage_pct = if capacity_ns > 0.0 {
            explained_ns as f64 / capacity_ns * 100.0
        } else {
            0.0
        };
        Summary {
            roots: roots.into_iter().map(|(n, ids)| (n, ids.len())).collect(),
            folded,
            layers,
            explained_ns,
            capacity_ns,
            coverage_pct,
        }
    }

    fn stack(&self, mut i: usize) -> String {
        let mut names = vec![self.spans[i].name];
        while let Some(p) = self.spans[i].parent {
            names.push(self.spans[p].name);
            i = p;
        }
        names.reverse();
        names.join(";")
    }
}

/// What a traced run's spans add up to.
#[derive(Debug)]
pub struct Summary {
    /// Root span name → distinct run/point/request ids under it.
    pub roots: Vec<(&'static str, usize)>,
    /// `a;b;c` stack → self nanoseconds.
    pub folded: BTreeMap<String, u64>,
    /// Layer (span-name module) → self nanoseconds.
    pub layers: BTreeMap<&'static str, u64>,
    pub explained_ns: u64,
    pub capacity_ns: f64,
    /// Σ layer self time ÷ (root wall time × threads), in percent.
    pub coverage_pct: f64,
}

impl Summary {
    /// Folded stacks (`a;b;c N`, N in microseconds of self time) and the
    /// per-layer self-time table, as printable lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, ids) in &self.roots {
            let _ = writeln!(out, "# traced {name}: {ids} ids");
        }
        out.push_str("# folded stacks (self time, us)\n");
        for (stack, ns) in &self.folded {
            let _ = writeln!(out, "{stack} {}", ns / 1000);
        }
        out.push_str("# layer self time\n");
        for (layer, ns) in &self.layers {
            let _ = writeln!(
                out,
                "#   {layer:<10} {:>12.3} ms {:>6.2} %",
                *ns as f64 / 1e6,
                *ns as f64 / self.capacity_ns.max(1.0) * 100.0
            );
        }
        let _ = writeln!(
            out,
            "#   {:<10} {:>12.3} ms {:>6.2} %  (benchmark glue and untraced work)",
            "unexplained",
            (self.capacity_ns - self.explained_ns as f64).max(0.0) / 1e6,
            100.0 - self.coverage_pct
        );
        out
    }
}

/// Puts the tracing metrics and the folded stacks on `run`.
/// `overhead_note` says which traced and untraced walls were compared.
pub fn finish(run: &mut Run, tr: &Tracer, overhead_pct: f64, overhead_note: &str) {
    let summary = tr.summarise();
    run.put("trace.overhead_pct", overhead_pct, "%", overhead_note);
    run.put(
        "trace.coverage_pct",
        summary.coverage_pct,
        "%",
        "sum of layer self time / (root wall x threads)",
    );
    run.put(
        "trace.gap_pct",
        100.0 - summary.coverage_pct,
        "%",
        "unexplained share",
    );
    let spans = tr.spans.len();
    run.put(
        "trace.spans",
        spans as f64,
        "count",
        "kept in memory until the end",
    );
    run.text.push_str(&summary.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_folds_by_stack() {
        let mut t = Tracer::new();
        let root = t.enter("bench.pass", 0);
        let base = t.now_ns();
        t.record("core.session_build", 0, base, base + 1_000, root);
        t.record("kernel.run", 0, base + 1_000, base + 4_000, root);
        t.spans[root].start_ns = base;
        t.exit(root);
        t.spans[root].end_ns = base + 5_000;
        let s = t.summarise();
        assert_eq!(s.folded["bench.pass"], 1_000);
        assert_eq!(s.folded["bench.pass;kernel.run"], 3_000);
        assert_eq!(s.layers["core"], 1_000);
        assert!((s.coverage_pct - 80.0).abs() < 1e-9);
        assert_eq!(t.total("kernel.run"), (1, 3_000));
    }
}
