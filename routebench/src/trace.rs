//! In-memory spans for the traced run.
//!
//! Every call into a layer that the traced run times becomes a span (name,
//! start, end, parent). Calls made once per engine step are far too many to
//! keep one by one, so they are folded into per-name aggregates (calls and
//! total time) instead. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

/// Calls folded into one record: how often and how long in total.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub calls: u64,
    pub total_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggregates: BTreeMap<&'static str, Aggregate>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds `calls` calls taking `total` in all to the aggregate `name`.
    pub fn aggregate(&mut self, name: &'static str, calls: u64, total: Duration) {
        let a = self.aggregates.entry(name).or_default();
        a.calls += calls;
        a.total_ns += total.as_nanos() as u64;
    }

    /// Total seconds of spans named `name` plus the aggregate of that name.
    pub fn seconds(&self, name: &str) -> f64 {
        let spans: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        let agg = self.aggregates.get(name).map_or(0, |a| a.total_ns);
        (spans + agg) as f64 * 1e-9
    }

    /// Mean nanoseconds per call of the aggregate `name` (0 when unused).
    pub fn ns_per_call(&self, name: &str) -> f64 {
        match self.aggregates.get(name) {
            Some(a) if a.calls > 0 => a.total_ns as f64 / a.calls as f64,
            _ => 0.0,
        }
    }

    /// Seconds covered by top-level spans and aggregates: the time the
    /// trace attributes to some layer. Nested spans are inside their
    /// parent's time and are not counted again.
    pub fn attributed_s(&self) -> f64 {
        let spans: u64 =
            self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns - s.start_ns).sum();
        let aggs: u64 = self.aggregates.values().map(|a| a.total_ns).sum();
        (spans + aggs) as f64 * 1e-9
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.end_ns - s.start_ns;
        }
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = self.spans[p].name;
                *out.entry(parent).or_default() -= s.end_ns - s.start_ns;
            }
        }
        for (name, a) in &self.aggregates {
            *out.entry(name).or_default() += a.total_ns;
        }
        out
    }

    /// Writes every span, every aggregate and the self time per name as
    /// one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "\n  " } else { ",\n  " };
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("],\n\"aggregates\": {");
        for (i, (name, a)) in self.aggregates.iter().enumerate() {
            let sep = if i == 0 { "\n  " } else { ",\n  " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"calls\": {}, \"total_ns\": {}}}",
                a.calls, a.total_ns
            );
        }
        out.push_str("},\n\"self_ns\": {");
        for (i, (name, ns)) in self.self_ns().iter().enumerate() {
            let sep = if i == 0 { "\n  " } else { ",\n  " };
            let _ = write!(out, "{sep}\"{name}\": {ns}");
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let own = tr.self_ns();
        let outer = tr.spans[0].end_ns - tr.spans[0].start_ns;
        let inner = tr.spans[1].end_ns - tr.spans[1].start_ns;
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(own["outer"], outer - inner);
        assert_eq!(own["inner"], inner);
        assert_eq!(tr.attributed_s(), outer as f64 * 1e-9);
    }
}
