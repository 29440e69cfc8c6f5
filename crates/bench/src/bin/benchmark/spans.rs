//! In-memory spans around the layer calls the benchmark makes, written out
//! as Chrome `trace_event` JSON at the end of a traced run.
//!
//! A span records its name, start and end, the span open around it, the
//! request it belongs to (a sweep point label or a run id), and how many
//! items (references, points, events) it processed. A layer's self time is
//! its duration minus the part of that interval its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    req: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    items: u64,
}

/// Span recorder. A disabled tracer runs the wrapped work and records
/// nothing, so untraced measurements go through the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Sets recording on or off for the spans that follow (a traced run
    /// alternates traced and untraced operations to price the tracing).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `work` inside a span named `name` for request `req` that
    /// processed `items` items.
    pub fn span<R>(
        &mut self,
        name: &str,
        req: &str,
        items: u64,
        work: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return work(self);
        }
        let start = Instant::now();
        let id = self.record(name, req, start, start, items);
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
        out
    }

    /// Records a span whose bounds were measured elsewhere under the
    /// innermost open span, and returns its index.
    fn record(&mut self, name: &str, req: &str, start: Instant, end: Instant, items: u64) -> usize {
        let span = Span {
            name: name.to_owned(),
            req: req.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            items,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records `children` as consecutive spans under a new parent span
    /// covering all of them: `marks` are the boundaries, so child `i` runs
    /// from `marks[i]` to `marks[i + 1]`.
    pub fn record_phases(&mut self, parent: &str, req: &str, children: &[&str], marks: &[Instant]) {
        if !self.on || marks.len() != children.len() + 1 {
            return;
        }
        let id = self.record(parent, req, marks[0], marks[marks.len() - 1], 1);
        self.open.push(id);
        for (i, child) in children.iter().enumerate() {
            self.record(child, req, marks[i], marks[i + 1], 1);
        }
        self.open.pop();
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Summed self time (ns) and items over the spans named `name` whose
    /// request passes `req`.
    pub fn total(&self, name: &str, req: impl Fn(&str) -> bool) -> (u64, u64) {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name && req(&s.req))
            .fold((0, 0), |(ns, items), (s, own)| (ns + own, items + s.items))
    }

    /// Self nanoseconds per item over the spans named `name` whose request
    /// passes `req` (0 when they processed nothing).
    pub fn ns_per_item(&self, name: &str, req: impl Fn(&str) -> bool) -> f64 {
        let (ns, items) = self.total(name, req);
        if items == 0 {
            0.0
        } else {
            ns as f64 / items as f64
        }
    }

    /// The spans as Chrome `trace_event` JSON (complete events, µs), which
    /// Perfetto and `chrome://tracing` open directly.
    pub fn chrome_json(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{},\
                 \"items\":{},\"self_us\":{:.3}}}}}",
                json_str(&s.name),
                json_str(s.name.split('.').next().unwrap_or("")),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                json_str(&s.req),
                s.items,
                own as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialise")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(base: Instant, ns: u64) -> Instant {
        base + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let b = t.epoch;
        let root = t.record("root", "r", at(b, 0), at(b, 100), 1);
        t.open.push(root);
        // Two overlapping children cover [10, 50); a third [60, 70).
        t.record("a", "r", at(b, 10), at(b, 40), 1);
        let c = t.record("b", "r", at(b, 30), at(b, 50), 1);
        t.record("c", "r", at(b, 60), at(b, 70), 1);
        t.open.pop();
        // A grandchild is subtracted from its own parent only.
        t.open.push(c);
        t.record("d", "r", at(b, 35), at(b, 45), 1);
        t.open.pop();
        let selfs = t.self_times();
        assert_eq!(selfs[root], 100 - 40 - 10);
        assert_eq!(selfs[c], 20 - 10);
        assert_eq!(selfs[4], 10);
        assert_eq!(t.total("b", |_| true), (10, 1));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Tracer::new(true);
        let b = t.epoch;
        let root = t.record("root", "r", at(b, 100), at(b, 200), 1);
        t.open.push(root);
        t.record("early", "r", at(b, 50), at(b, 150), 1);
        t.open.pop();
        assert_eq!(t.self_times()[root], 50);
    }

    #[test]
    fn nested_closures_record_parents_and_chrome_json_lists_every_span() {
        let mut t = Tracer::new(true);
        t.span("outer", "p1", 2, |t| t.span("inner", "p1", 7, |_| ()));
        t.set_enabled(false);
        t.span("skipped", "p2", 1, |_| ());
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.ns_per_item("missing", |_| true), 0.0);
        let json = t.chrome_json();
        let parsed = serde_json::parse_value(&json).expect("valid JSON");
        let Some(serde::Value::Array(events)) = parsed.get("traceEvents") else {
            panic!("traceEvents array")
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph"), Some(&serde::Value::Str("X".into())));
    }

    #[test]
    fn phases_tile_their_parent() {
        let mut t = Tracer::new(true);
        let b = t.epoch;
        let marks = [at(b, 0), at(b, 5), at(b, 30)];
        t.record_phases("run", "id", &["ack", "wait"], &marks);
        let selfs = t.self_times();
        assert_eq!(selfs, vec![0, 5, 25]);
    }
}
