//! Layer spans recorded from the benchmark's own code.
//!
//! Every call the benchmark makes into a crate's public API runs inside
//! [`Tracer::span`]. A tracer always keeps per-name time totals and the
//! window from the first root span's start to the last root span's end,
//! less the time spent in [`Tracer::aside`] (the run's wall time); a
//! recording tracer also keeps every span — name, start, end and parent —
//! for the traced run's span file.

use serde_json::{json, Value};
use std::time::Instant;

/// One recorded span; times are seconds since the tracer was created.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// Times layer calls; records them as spans when `record` is set.
pub struct Tracer {
    record: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    depth: usize,
    totals: Vec<(&'static str, f64, u64)>,
    window: Option<(f64, f64)>,
    root_busy: f64,
    aside: f64,
}

impl Tracer {
    /// A tracer that times layers; `record` additionally keeps spans.
    pub fn new(record: bool) -> Tracer {
        Tracer {
            record,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            totals: Vec::new(),
            window: None,
            root_busy: 0.0,
            aside: 0.0,
        }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` as the span `name`, nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = self.now();
        let index = self.record.then(|| {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start,
                end: start,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        let end = self.now();
        if let Some(i) = index {
            self.spans[i].end = end;
            self.open.pop();
        }
        match self.totals.iter_mut().find(|(n, _, _)| *n == name) {
            Some(total) => {
                total.1 += end - start;
                total.2 += 1;
            }
            None => self.totals.push((name, end - start, 1)),
        }
        if self.depth == 0 {
            let first = self.window.map_or(start, |(s, _)| s);
            self.window = Some((first, end));
            self.root_busy += end - start;
        }
        out
    }

    /// Runs `f` outside the measured window: the output checks, between
    /// two root spans. Its time counts toward neither wall nor any span.
    pub fn aside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.aside += self.now() - start;
        out
    }

    /// Total seconds spent in spans named `name` (0 when none ran).
    pub fn total(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |t| t.1)
    }

    /// Seconds from the first root span's start to the last root span's
    /// end, less the time spent aside.
    pub fn wall(&self) -> f64 {
        self.window.map_or(0.0, |(s, e)| e - s - self.aside)
    }

    /// Seconds from the first root span's start to now, less the time
    /// spent aside.
    pub fn since_first(&self) -> f64 {
        self.window
            .map_or(0.0, |(s, _)| self.now() - s - self.aside)
    }

    /// Seconds of [`Self::wall`] no root span covers: time the benchmark
    /// spent between layer calls.
    pub fn unattributed(&self) -> f64 {
        (self.wall() - self.root_busy).max(0.0)
    }

    /// Durations of every recorded span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The recorded spans as JSON: one object per span with its id, the
    /// id of its parent, its name and its start and end in seconds.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_s": s.start,
                    "end_s": s.end,
                })
            })
            .collect();
        Value::Array(spans)
    }
}
