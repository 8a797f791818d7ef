//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the program's layers from
//! the benchmark's own code. Calls that happen inside a layer (stream
//! events pulled while the windowed graph is built, the timeline fold run
//! by its tap) are recorded as aggregated children of the span that was
//! open when they ran. A span's self time is its duration minus the
//! time its direct children cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Offset of the span start from the recorder's epoch.
    pub start: Duration,
    pub duration: Duration,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
}

/// Records spans when enabled; every method is a cheap no-op otherwise, so
/// the check pass can run the same pipeline untraced.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|&(i, _)| i),
            start: now - self.epoch,
            duration: Duration::ZERO,
            calls: 1,
        });
        self.open.push((idx, now));
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let (idx, started) = self.open.pop().expect("close() matches an open()");
        self.spans[idx].duration = started.elapsed();
    }

    /// Closes every open span — after a call panicked inside one.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.close();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Adds time measured inside a layer call as one aggregated child of
    /// the innermost open span. The time was spread over the parent's
    /// interval, so the child is given the parent's start.
    pub fn add(&mut self, name: &str, duration: Duration, calls: u64) {
        if !self.enabled {
            return;
        }
        let start = self.open.last().map_or(Duration::ZERO, |&(i, _)| self.spans[i].start);
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|&(i, _)| i),
            start,
            duration,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its direct children cover.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration);
            }
        }
        own
    }

    /// Per-name self time in seconds of the spans recorded since `from`.
    pub fn self_seconds_since(&self, from: usize) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()).skip(from) {
            *out.entry(span.name.clone()).or_insert(0.0) += own.as_secs_f64();
        }
        out
    }

    /// Durations in seconds of every span named `name` since `from`.
    pub fn durations_since(&self, from: usize, name: &str) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration.as_secs_f64())
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {:?}, \"parent\": {parent}, \"start_s\": {}, \"duration_s\": {}, \"self_s\": {}, \"calls\": {}}}\n",
                s.name,
                s.start.as_secs_f64(),
                s.duration.as_secs_f64(),
                own.as_secs_f64(),
                s.calls
            ));
        }
        out
    }
}
