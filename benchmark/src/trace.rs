//! The harness's own spans: one per call into a crate's public
//! function, kept in memory and written out as Chrome-trace JSON when
//! the run ends. Nothing inside the crates is instrumented here.

use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span (index into the tracer's list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One span: a named interval caused by `parent`, on behalf of `job`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.prepare`.
    pub name: &'static str,
    /// Job the span belongs to (spans of one job share it).
    pub job: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: f64,
    /// End, microseconds since the tracer's epoch (`NaN` while open).
    pub end_us: f64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span recorder shared by the harness threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a harness thread panicked mid-span")
    }

    /// `t` on this tracer's clock: microseconds since its epoch.
    pub fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, job: u64) -> SpanId {
        let start_us = self.us(Instant::now());
        let mut spans = self.lock();
        spans.push(Span {
            name,
            job,
            parent,
            start_us,
            end_us: f64::NAN,
        });
        SpanId(spans.len() - 1)
    }

    /// Closes an open span now and returns its duration in milliseconds.
    pub fn close(&self, id: SpanId) -> f64 {
        let end_us = self.us(Instant::now());
        let mut spans = self.lock();
        spans[id.0].end_us = end_us;
        spans[id.0].dur_us() / 1e3
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval whose length something else measured (the
    /// program's own `SolveStats` timers, a reply's `wall_us`),
    /// anchored at `start_us` on this tracer's clock.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        start_us: f64,
        dur_us: f64,
    ) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            job,
            parent,
            start_us,
            end_us: start_us + dur_us,
        });
        SpanId(spans.len() - 1)
    }

    /// Start of a recorded span on this tracer's clock.
    pub fn start_us(&self, id: SpanId) -> f64 {
        self.lock()[id.0].start_us
    }

    /// A copy of every span in recording order, so that a [`SpanId`]
    /// indexes it. A span still open has a `NaN` end.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name && !s.end_us.is_nan())
            .map(|s| s.dur_us() / 1e3)
            .collect()
    }

    /// Self times (ms) of every closed span called `name`: what the
    /// spans it caused leave unaccounted for.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        (0..spans.len())
            .filter(|&i| spans[i].name == name && !spans[i].end_us.is_nan())
            .map(|i| self_time_us(&spans, i) / 1e3)
            .collect()
    }

    /// Number of closed spans.
    pub fn closed(&self) -> usize {
        self.lock().iter().filter(|s| !s.end_us.is_nan()).count()
    }

    /// The whole recording as a Chrome-trace document (`chrome://tracing`
    /// or <https://ui.perfetto.dev>): complete events, one track per job.
    pub fn chrome_json(&self) -> String {
        let spans = self.lock();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (i, s) in spans.iter().enumerate() {
            if s.end_us.is_nan() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p.0 as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{}}}}}",
                s.name,
                s.start_us,
                s.dur_us(),
                s.job,
                s.job
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A span's self time (µs): its duration minus the part of its interval
/// that its direct children cover. Overlapping children (parallel
/// workers) are counted once, and a child is clipped to its parent.
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(SpanId(id)) && !s.end_us.is_nan())
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.partial_cmp(b).expect("finite span bounds"));
    let mut covered = 0.0;
    let mut reach = me.start_us;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_us() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: "t",
            job: 0,
            parent: parent.map(SpanId),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = vec![
            span(None, 0.0, 100.0),
            // Two overlapping children cover [10, 50]; a third [70, 80].
            span(Some(0), 10.0, 40.0),
            span(Some(0), 30.0, 50.0),
            span(Some(0), 70.0, 80.0),
            // A grandchild does not count against the root.
            span(Some(1), 12.0, 20.0),
            // A child leaking past its parent is clipped to it.
            span(Some(0), 95.0, 130.0),
        ];
        assert_eq!(self_time_us(&spans, 0), 100.0 - 40.0 - 10.0 - 5.0);
        assert_eq!(self_time_us(&spans, 1), 30.0 - 8.0);
        assert_eq!(self_time_us(&spans, 3), 10.0);
    }

    #[test]
    fn open_close_nest_and_export() {
        let tr = Tracer::new();
        let job = tr.open("job", None, 7);
        let got = tr.time("core.prepare", Some(job), 7, || 41 + 1);
        assert_eq!(got, 42);
        let still_open = tr.open("never.closed", Some(job), 7);
        assert!(tr.close(job) >= 0.0);
        let spans = tr.spans();
        assert_eq!((spans.len(), tr.closed()), (3, 2));
        assert_eq!(tr.self_times_ms("job").len(), 1);
        assert_eq!(spans[1].parent, Some(job));
        assert!(self_time_us(&spans, 0) <= spans[0].dur_us());
        assert_eq!(tr.durations_ms("core.prepare").len(), 1);
        let json = tr.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"core.prepare\"") && json.contains("\"tid\":7"));
        assert!(!json.contains("never.closed"));
        let _ = still_open;
    }
}
