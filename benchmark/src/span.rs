//! Spans recorded by the benchmark's own code around its calls into each
//! layer. Kept in memory, written when the run ends. Nothing outside
//! `benchmark/` carries a timer; spans inside the engine are a later change.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for the `run` root.
    pub parent: Option<usize>,
    /// Which thread of the load generator recorded it (0 = the driver).
    pub thread: u32,
}

impl Span {
    /// The `run` span every other span of a run descends from; index 0.
    pub fn root(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "run",
            start_ns,
            end_ns,
            parent: None,
            thread: 0,
        }
    }

    /// A span of the driver thread directly under `run`.
    pub fn under_root(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: Some(0),
            thread: 0,
        }
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span log. Threads record into their own recorder against a
/// shared epoch and the driver merges them after joining, so recording
/// never synchronizes.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Recorder {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(&mut self, name: &'static str, start_ns: u64, parent: Option<usize>) -> usize {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    /// Appends another thread's spans; their parents must already be
    /// expressed as indices into `self` (client threads parent to `run`).
    pub fn merge(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children on different threads may overlap
/// each other, so the cover is the union of their intervals).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times and call count per span name, in first-seen order.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += own;
                row.2 += 1;
            }
            None => rows.push((span.name, own, 1)),
        }
    }
    rows
}

pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    by_name(spans)
        .iter()
        .find(|row| row.0 == name)
        .map_or(0, |row| row.1)
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// `trace_<workload>.json`: a per-name summary, then every span as
/// `[index, parent or -1, thread, name, start_ns, end_ns]`.
pub fn to_json(workload: &str, run_id: &str, spans: &[Span]) -> String {
    let mut s = String::with_capacity(64 * spans.len() + 1024);
    s.push_str(&format!(
        "{{\"workload\": \"{workload}\", \"run\": \"{run_id}\", \"summary\": ["
    ));
    for (i, (name, own, calls)) in by_name(spans).iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        s.push_str(&format!(
            "{comma}{{\"name\": \"{name}\", \"calls\": {calls}, \"self_ns\": {own}}}"
        ));
    }
    s.push_str("],\n\"columns\": [\"index\", \"parent\", \"thread\", \"name\", \"start_ns\", \"end_ns\"],\n\"spans\": [\n");
    for (i, span) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let parent = span.parent.map_or(-1, |p| p as i64);
        s.push_str(&format!(
            "[{i},{parent},{},\"{}\",{},{}]{comma}\n",
            span.thread, span.name, span.start_ns, span.end_ns
        ));
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, thread: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 0, 100, None, 0),
            span("push_chunk", 10, 30, Some(0), 0),
            span("drain", 30, 40, Some(0), 0),
            // Two client threads overlapping each other and the driver's spans.
            span("send_chunk", 20, 60, Some(0), 1),
            span("send_chunk", 50, 80, Some(0), 2),
            // A grandchild only reduces its own parent.
            span("retry", 12, 18, Some(1), 0),
            // A child reaching past its parent is clipped to it.
            span("finish", 90, 120, Some(0), 0),
        ];
        let own = self_times_ns(&spans);
        // run: covered [10,80) ∪ [90,100) = 80 → self 20.
        assert_eq!(own[0], 20);
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 10);
        assert_eq!(own[5], 6);
        assert_eq!(self_ns(&spans, "send_chunk"), 40 + 30);
        let rows = by_name(&spans);
        assert_eq!(rows[0], ("run", 20, 1));
        assert_eq!(rows.iter().find(|r| r.0 == "send_chunk").unwrap().2, 2);
        assert_eq!(durations_ms(&spans, "drain"), vec![10.0 / 1e6]);
        let json = crate::json::parse(&to_json("w", "w-traced-1", &spans)).unwrap();
        assert_eq!(
            json.get("spans").unwrap().as_array().unwrap().len(),
            spans.len()
        );
    }
}
