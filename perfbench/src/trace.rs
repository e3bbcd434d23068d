//! In-memory span recording for traced runs.
//!
//! A span is one call the benchmark made into a layer: its name, the
//! operation it served, its start and end, and the span that caused it.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. A span's self time is its duration minus the durations of
//! its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans of one thread of work, timed against a shared epoch.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.epoch.elapsed();
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        (out, self.spans.len() - 1)
    }

    /// Records an already measured span.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
    }

    /// Appends another recorder's spans, keeping parent links intact.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time and call count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, u64)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration();
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let entry = out.entry(span.name).or_default();
            entry.0 += span.duration().saturating_sub(children);
            entry.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        rec.push("parent", 0, None, at(0), at(10));
        rec.push("child", 0, Some(0), at(1), at(4));
        rec.push("child", 0, Some(0), at(5), at(7));
        let mut other = Recorder::new(epoch);
        other.push("parent", 1, None, at(10), at(12));
        rec.absorb(other);
        let t = rec.self_times();
        assert_eq!(t["parent"], (Duration::from_millis(7), 2));
        assert_eq!(t["child"], (Duration::from_millis(5), 2));
    }
}
