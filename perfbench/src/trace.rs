//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer: name, start,
//! end, parent, and a request id for serve round trips. Calls that
//! happen millions of times (policy `allocate_into`, stream `next`) are
//! not stored one span each: their calls and time are summed onto the
//! enclosing span. Self time is a span's duration minus its direct
//! children and its summed calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// High-frequency calls made inside one span, summed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summed {
    /// Layer metric prefix the calls belong to (`core.allocate`, …).
    pub name: &'static str,
    /// Calls made.
    pub calls: u64,
    /// Time spent in them.
    pub ns: u64,
}

/// One recorded span (times in ns since the tracer's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric prefix (`sim.run`, `workload.materialize`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Serve request id, for round-trip spans.
    pub request: Option<u64>,
    /// Calls summed onto this span instead of stored one span each.
    pub summed: Vec<Summed>,
}

impl Span {
    /// Wall duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Calls and self time accumulated under one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans (or summed calls) recorded under the name.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl SelfTime {
    /// Self time in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        ns_to_secs(self.self_ns)
    }
}

/// Convert a nanosecond count to seconds.
#[must_use]
pub fn ns_to_secs(ns: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let ns = ns as f64;
    ns * 1e-9
}

/// The recorder: spans in memory, an explicit stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.push(name, start_ns, None)
    }

    fn push(&mut self, name: &'static str, start_ns: u64, request: Option<u64>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            summed: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    ///
    /// # Panics
    /// Panics when `id` is not the innermost open span (a bug in the
    /// benchmark's own nesting).
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Record a closed span measured by the caller (a client round trip
    /// timed with its own `Instant`s), under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos())
                .expect("run shorter than 584 years")
        };
        let (start_ns, end_ns) = (ns(start), ns(end));
        let id = self.push(name, start_ns, Some(request));
        self.open.pop();
        self.spans[id].end_ns = end_ns;
    }

    /// Attach summed high-frequency calls to span `id`.
    pub fn add_summed(&mut self, id: usize, summed: Summed) {
        self.spans[id].summed.push(summed);
    }

    /// Calls and self time per name. A span's self time is its duration
    /// minus its direct children's durations and its summed calls; each
    /// summed entry counts as its own name with all of its time as self.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let summed: u64 = span.summed.iter().map(|s| s.ns).sum();
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_ns += span.duration_ns().saturating_sub(children + summed);
            for s in &span.summed {
                let entry = out.entry(s.name).or_default();
                entry.calls += s.calls;
                entry.self_ns += s.ns;
            }
        }
        out
    }

    /// The spans as JSON lines: `{"id","name","start_ns","end_ns",
    /// "parent","request","summed":[{"name","calls","ns"}]}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let summed: Vec<String> = s
                .summed
                .iter()
                .map(|x| {
                    format!(
                        "{{\"name\":\"{}\",\"calls\":{},\"ns\":{}}}",
                        x.name, x.calls, x.ns
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"request\":{},\"summed\":[{}]}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                summed.join(",")
            );
        }
        out
    }
}

/// Write the spans of a traced run to `.bench_trace/<workload>.jsonl`.
pub fn write_trace(tracer: &Tracer, workload: &str) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{workload}.jsonl"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so self-time arithmetic can be
    /// checked exactly.
    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
            summed: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_summed_calls() {
        let mut root = span("phase", 0, 1000, None);
        root.summed.clear();
        let mut run = span("sim.run", 100, 700, Some(0));
        run.summed.push(Summed {
            name: "core.allocate",
            calls: 40,
            ns: 250,
        });
        let build = span("core.policy_build", 50, 100, Some(0));
        // A grandchild only reduces its own parent's self time.
        let inner = span("workload.materialize", 150, 200, Some(1));
        let t = fixed(vec![root, run, build, inner]);
        let st = t.self_times();
        assert_eq!(st["phase"].self_ns, 1000 - 600 - 50);
        assert_eq!(st["sim.run"].self_ns, 600 - 50 - 250);
        assert_eq!(
            st["core.allocate"],
            SelfTime {
                calls: 40,
                self_ns: 250
            }
        );
        assert_eq!(st["core.policy_build"].self_ns, 50);
        assert_eq!(st["workload.materialize"].self_ns, 50);
        // Self times partition the root's duration.
        let total: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn live_spans_nest_and_partition_their_root() {
        let mut t = Tracer::new();
        t.span("phase", |t| {
            t.span("a", |t| t.span("b", |_| std::hint::black_box(1 + 1)));
            let start = Instant::now();
            t.record("serve.request", start, Instant::now(), 7);
        });
        let spans = &t.spans;
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[3].request, Some(7));
        let total: u64 = t.self_times().values().map(|s| s.self_ns).sum();
        assert_eq!(total, spans[0].duration_ns());
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn out_of_order_exit_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let _inner = t.enter("inner");
        t.exit(outer);
    }
}
