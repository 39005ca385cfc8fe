//! Benchmark-side spans around calls into the simulator's layers.
//!
//! A span is a name, a start, an end and the span that encloses it.
//! Times are the process's CPU time (see [`crate::stats::process_cpu_ns`]),
//! so a layer's self time is the CPU time spent in it, on every thread.
//! Spans stay in memory while the benchmark runs and are written out
//! once at exit. With recording off, [`Spans::begin`] and
//! [`Spans::end`] do nothing, so untraced passes pay for nothing but a
//! branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span; times are nanoseconds of process CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (`None` when recording is off).
#[must_use]
pub struct Open(Option<usize>);

pub struct Spans {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = crate::stats::process_cpu_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = crate::stats::process_cpu_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in reverse order");
        }
    }

    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the most recently opened root span named `name`.
    pub fn last_root(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .rposition(|s| s.parent.is_none() && s.name == name)
    }

    /// Self time, in seconds, of every span under root `root` (the
    /// root included), summed by name. A span's self time is its
    /// duration minus the durations of its direct children.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        let mut self_s = BTreeMap::new();
        let mut child_s = vec![0.0f64; self.spans.len()];
        // Parents always precede their children, so one forward walk
        // marks the subtree and a backward walk settles children first.
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                inside[i] = inside[p];
            }
        }
        for (i, s) in self.spans.iter().enumerate().skip(root).rev() {
            if !inside[i] {
                continue;
            }
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
            *self_s.entry(s.name).or_insert(0.0) += s.secs() - child_s[i];
        }
        self_s
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut spans = Spans::new(true);
        let root = spans.begin("pass");
        let a = spans.begin("a");
        let b = spans.begin("b");
        std::hint::black_box((0..1000).sum::<u64>());
        spans.end(b);
        spans.end(a);
        let c = spans.begin("a");
        spans.end(c);
        spans.end(root);
        let idx = spans.last_root("pass").expect("root recorded");
        let times = spans.self_times(idx);
        let total: f64 = times.values().sum();
        assert!((total - spans.all()[idx].secs()).abs() < 1e-12);
        assert_eq!(times.len(), 3);
    }

    #[test]
    fn recording_off_records_nothing() {
        let mut spans = Spans::new(false);
        let open = spans.begin("x");
        spans.end(open);
        assert!(spans.all().is_empty());
    }
}
