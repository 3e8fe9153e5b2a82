//! The benchmark's own spans: recorded around calls into each layer from
//! outside the program, kept in memory, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: usize = usize::MAX;

/// One timed interval. `parent` indexes the log the span sits in.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    /// Request the span belongs to; spans of one request share it.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log with one time origin.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: usize, req: u64) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span from two instants already taken.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        req: u64,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    }

    /// Runs `f` inside a span and returns its result.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req);
        out
    }

    /// Appends another log's spans, keeping their parent links intact.
    /// Both logs must have been started together for the times to line up.
    pub fn absorb(&mut self, other: SpanLog) {
        let shift = self.spans.len();
        let skew = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s.start_ns += skew;
            s.end_ns += skew;
            s
        }));
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Appends the log to `path`, one JSON object per line, with each
    /// span's self time beside its duration.
    pub fn write_jsonl(&self, path: &Path, section: &str) -> std::io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"section\":\"{section}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent];
            // Only the part inside the parent's interval counts.
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("request", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 40, 70, 0),
            span("inner", 45, 50, 2),
        ];
        assert_eq!(self_times_ns(&spans), [50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span("request", 100, 200, NO_PARENT),
            span("a", 110, 150, 0),
            span("b", 140, 160, 0),
            span("late", 190, 250, 0),
        ];
        // Covered: 110..160 and 190..200.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn within_records_parent_and_request() {
        let mut log = SpanLog::new();
        let root = log.open("request", NO_PARENT, 7);
        let got = log.within("child", root, 7, || 41 + 1);
        log.close(root);
        assert_eq!(got, 42);
        assert_eq!(log.spans[1].parent, root);
        assert_eq!(log.spans[1].req, 7);
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        assert_eq!(log.durations_us("child").len(), 1);
    }
}
