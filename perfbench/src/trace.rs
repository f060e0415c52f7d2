//! Benchmark-owned spans.
//!
//! The traced run wraps each call into a layer's public entry point in a
//! span: name, start, end, parent, and the id of the request or job it
//! belongs to. Spans stay in memory until the run ends, then go to a
//! JSON-lines file. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer entry point, e.g. `core.timing`.
    pub name: &'static str,
    /// Request or job id shared by every span of one unit of work.
    pub unit: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// An in-memory span recorder. A disabled tracer runs the same closures
/// without recording, which gives the untraced baseline for the
/// tracing-overhead figure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for unit `unit`; spans opened
    /// inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in input order: its duration minus the union
/// of its children's intervals, clipped to the parent's own interval.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStat {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl NameStat {
    /// Mean duration per span, ns (0 for no spans).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Aggregates spans by name.
#[must_use]
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += self_ns;
    }
    out
}

/// Durations (ns) of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// Writes spans as JSON lines, one object per span with its self time.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.unit, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            unit: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Overlapping children count once: [10, 50) covers 40 ns.
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            // A child running past its parent is clipped at 100.
            span("c", Some(0), 90, 120),
            // A grandchild is its own parent's business, not root's.
            span("d", Some(1), 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![50, 18, 30, 30, 2]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration_and_never_negative() {
        let spans = vec![span("root", None, 5, 10), span("kid", Some(0), 0, 20)];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn tracer_nests_spans_and_aggregates_by_name() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1) + t.span("inner", 7, |_| 2)
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.unit == 7 && s.end_ns >= s.start_ns));
        let stats = by_name(spans);
        assert_eq!(stats["inner"].count, 2);
        let outer = stats["outer"];
        assert_eq!(outer.self_ns + stats["inner"].total_ns, outer.total_ns);
    }

    #[test]
    fn disabled_tracer_runs_closures_without_recording() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |t| t.span("y", 0, |_| 5)), 5);
        assert!(t.spans().is_empty());
    }
}
