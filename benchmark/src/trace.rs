//! Spans recorded by the benchmark's own code around each call it makes
//! into a layer's public API: `{name, start, end, parent, request}`. Kept
//! in memory while the run measures and written out at exit. A layer's
//! *self* time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded recorder: spans nest by call order, so the innermost
/// open span is the parent of the next one entered.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, its duration minus its direct children's durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Per span name, one value per request: the self time of that
    /// request's spans of that name, summed. A request that never entered
    /// the layer counts as 0, so a layer most requests skip has a p50 of 0.
    pub fn self_ns_per_request(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let self_ns = self.self_times_ns();
        let mut per_request: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(&self_ns) {
            *per_request
                .entry(span.request)
                .or_default()
                .entry(span.name)
                .or_insert(0) += own;
        }
        let names: Vec<&'static str> = {
            let mut n: Vec<_> = self.spans.iter().map(|s| s.name).collect();
            n.sort_unstable();
            n.dedup();
            n
        };
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for by_name in per_request.values() {
            for name in &names {
                out.entry(name)
                    .or_default()
                    .push(by_name.get(name).copied().unwrap_or(0) as f64);
            }
        }
        out
    }

    /// One JSON object per line: `{"id","name","start","end","parent","req"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            // Children run inside their parent, so this never underflows
            // for spans the recorder produced; saturate for hand-built ones.
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, request: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = [
            span("query", 0, 100, None, 1),
            span("plan", 5, 15, Some(0), 1),
            span("lookup", 20, 70, Some(0), 1),
            span("store", 30, 50, Some(2), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 10, 30, 20]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_call_order_and_groups_by_request() {
        let mut t = Tracer::new();
        for request in 0..3u64 {
            t.span("query", request, |t| {
                t.span("plan", request, |_| ());
                if request > 0 {
                    t.span("lookup", request, |t| t.span("store", request, |_| ()));
                }
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3 + 3 + 2 + 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let store = spans.iter().position(|s| s.name == "store").unwrap();
        let lookup = spans[store].parent.unwrap() as usize;
        assert_eq!(spans[lookup].name, "lookup");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let per_request = t.self_ns_per_request();
        assert_eq!(per_request["query"].len(), 3);
        // Request 0 never entered `lookup`: it counts as zero, not as absent.
        assert_eq!(per_request["lookup"].len(), 3);
        assert_eq!(per_request["lookup"][0], 0.0);
        let total: f64 = per_request.values().flatten().sum();
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!(total, roots as f64);
    }
}
