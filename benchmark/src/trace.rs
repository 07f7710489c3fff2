//! In-memory spans around the calls into each layer, written out when
//! the traced cycle ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::json_str;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the list entry this span belongs to.
    pub job: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, job: u32, parent: Option<u32>) -> u32 {
        let now = self.now_ns();
        self.add(name, job, parent, now, now)
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span whose ends were timed elsewhere.
    pub fn add(
        &mut self,
        name: &'static str,
        job: u32,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Record spans whose durations were timed elsewhere, laid end to end
    /// from `start_ns`; returns where the last one ends.
    pub fn add_sequence(
        &mut self,
        job: u32,
        parent: Option<u32>,
        start_ns: u64,
        parts: &[(&'static str, std::time::Duration)],
    ) -> u64 {
        parts.iter().fold(start_ns, |at, &(name, took)| {
            let end = at + took.as_nanos() as u64;
            self.add(name, job, parent, at, end);
            end
        })
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        job: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, job, parent);
        let r = f();
        self.end(id);
        r
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {}, \"job\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                json_str(s.name),
                s.job,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push(']');
        out
    }
}

/// Each span's self time in ns, in span order.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            // Only the part of the child inside its parent counts.
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Per span name: `(summed self time in ns, span count)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Share of the root spans' time that their descendants account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        if s.parent.is_none() {
            total += s.end_ns - s.start_ns;
            uncovered += own;
        }
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - uncovered as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 40, 90),
            span("a.inner", Some(1), 20, 25),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], (20, 1));
        assert_eq!(t["a"], (25, 1));
        assert_eq!(t["a.inner"], (5, 1));
        assert_eq!(t["b"], (50, 1));
        // Self times of a tree sum to its root's duration.
        assert_eq!(t.values().map(|v| v.0).sum::<u64>(), 100);
        assert!((coverage(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn a_child_outliving_its_parent_counts_only_inside_it() {
        let spans = vec![span("job", None, 0, 100), span("late", Some(0), 90, 130)];
        let t = self_times(&spans);
        assert_eq!(t["job"], (90, 1));
        assert_eq!(t["late"], (40, 1));
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = vec![
            span("job", None, 0, 10),
            span("x", Some(0), 0, 4),
            span("job", None, 10, 30),
            span("x", Some(2), 12, 18),
        ];
        let t = self_times(&spans);
        assert_eq!(t["x"], (10, 2));
        assert_eq!(t["job"], (20, 2));
    }

    #[test]
    fn a_sequence_is_laid_end_to_end() {
        use std::time::Duration;
        let mut t = Tracer::new();
        let root = t.add("job", 0, None, 100, 100);
        let end = t.add_sequence(
            0,
            Some(root),
            100,
            &[
                ("a", Duration::from_nanos(30)),
                ("b", Duration::from_nanos(5)),
            ],
        );
        assert_eq!(end, 135);
        assert_eq!((t.spans[1].start_ns, t.spans[1].end_ns), (100, 130));
        assert_eq!(
            (t.spans[2].name, t.spans[2].start_ns, t.spans[2].end_ns),
            ("b", 130, 135)
        );
        assert_eq!(t.spans[2].parent, Some(0));
    }

    #[test]
    fn tracer_nests_and_serializes() {
        let mut t = Tracer::new();
        let root = t.begin("job", 3, None);
        t.span("child", 3, Some(root), || std::hint::black_box(1 + 1));
        t.end(root);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let json = t.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\": \"child\""));
        assert!(json.contains("\"parent\": null"));
    }
}
