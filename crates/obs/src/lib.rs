//! Observability substrate for the MATEX stack: typed spans over
//! monotonic clocks, counters, gauges, and mergeable log-linear latency
//! histograms, exported as a Prometheus-style text page and a
//! Chrome-trace (`chrome://tracing` / Perfetto) JSON timeline.
//!
//! The paper's whole argument is a cost decomposition — factorization
//! vs Krylov subspace generation (`T_H`) vs evaluation (`T_e`, Sec.
//! 3.4) — and this crate makes that split a first-class, queryable
//! signal at every layer: solver stage spans, per-node distribution
//! spans, engine queue-wait vs run spans with cache hit-path labels,
//! store I/O timing, and service-side frame-flush latency.
//!
//! # Design rules
//!
//! * **Disabled is free.** An [`Obs`] handle is an `Option<Arc>` — the
//!   default handle is disarmed and every event costs exactly one
//!   branch, allocates nothing, and never touches a clock. The solver
//!   hot paths are proven allocation-free under a disabled handle by
//!   the counting-allocator harness in `matex-core`.
//! * **Numerics are untouchable.** Instrumentation observes times and
//!   counts; it never participates in a computation. Enabled and
//!   disabled runs produce bitwise-identical waveforms.
//! * **Deterministic aggregation.** Histogram buckets are a pure
//!   function of the scheme constants ([`hist::bucket_upper_ns`]), and
//!   merging is element-wise addition — commutative and associative —
//!   so per-thread histograms merge to identical quantiles in any
//!   order, and tests pin exact outputs.
//! * **Lock-light.** Histograms record through atomics; counters,
//!   gauges, and completed spans take one short registry lock each —
//!   on job-grained paths only, never inside numeric kernels.
//!
//! # Example
//!
//! ```
//! use matex_obs::Obs;
//! use std::time::Duration;
//!
//! let obs = Obs::enabled();
//! {
//!     let mut span = matex_obs::span!(obs, "engine.run", 7);
//!     span.label("hit", "warm");
//!     // ... the traced work ...
//! } // span records on drop
//! obs.add("engine_completed_total", 1);
//! obs.observe("engine_job_seconds", Duration::from_millis(3));
//!
//! let page = obs.prometheus_text();
//! assert!(page.contains("matex_engine_completed_total 1"));
//! let trace = obs.chrome_trace_json();
//! assert!(trace.contains("\"engine.run\""));
//!
//! // The default handle is disarmed: every call is a no-op branch.
//! let off = Obs::default();
//! assert!(!off.is_enabled());
//! off.add("never_recorded_total", 1);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod export;
pub mod hist;

pub use export::lint_prometheus;
pub use hist::{Hist, HistSnapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A completed span, ready for the Chrome-trace exporter.
#[derive(Debug, Clone)]
pub(crate) struct SpanEvent {
    pub(crate) site: &'static str,
    pub(crate) job: u64,
    pub(crate) tid: u64,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
    pub(crate) labels: Vec<(&'static str, String)>,
}

/// Trace thread ids: small, stable per OS thread, assigned on first use.
fn trace_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// The shared recording core behind an enabled [`Obs`] handle.
///
/// All aggregation keys are `(metric name, rendered label set)` pairs in
/// ordered maps, so exports are deterministic byte streams for a given
/// set of recorded values.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub(crate) counters: Mutex<BTreeMap<(&'static str, String), u64>>,
    pub(crate) gauges: Mutex<BTreeMap<(&'static str, String), i64>>,
    pub(crate) hists: Mutex<BTreeMap<(&'static str, String), Arc<Hist>>>,
    pub(crate) spans: Mutex<Vec<SpanEvent>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder; its epoch (trace time zero) is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The recorder's monotonic epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn add(&self, name: &'static str, labels: String, v: u64) {
        let mut c = self.counters.lock().expect("obs counters");
        *c.entry((name, labels)).or_insert(0) += v;
    }

    fn gauge_set(&self, name: &'static str, labels: String, v: i64) {
        let mut g = self.gauges.lock().expect("obs gauges");
        g.insert((name, labels), v);
    }

    /// The atomic histogram for `(name, labels)`, creating it on first
    /// use. Callers on warm paths should hold the returned `Arc` and
    /// record through it without re-looking it up.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Hist> {
        let key = (name, render_labels(labels));
        let mut h = self.hists.lock().expect("obs hists");
        Arc::clone(h.entry(key).or_insert_with(|| Arc::new(Hist::new())))
    }

    fn observe_ns(&self, name: &'static str, labels: &[(&'static str, &str)], ns: u64) {
        self.histogram(name, labels).record_ns(ns);
    }

    fn push_span(&self, ev: SpanEvent) {
        self.spans.lock().expect("obs spans").push(ev);
    }

    /// Merged snapshot of every histogram named `name`, across all its
    /// label sets (deterministic: label sets merge in ordered-map
    /// order, and merging is commutative anyway).
    pub fn histogram_snapshot(&self, name: &str) -> HistSnapshot {
        let h = self.hists.lock().expect("obs hists");
        let mut merged = HistSnapshot::new();
        for ((n, _), hist) in h.iter() {
            if *n == name {
                merged.merge(&hist.snapshot());
            }
        }
        merged
    }

    /// Number of completed spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("obs spans").len()
    }
}

/// Renders a label slice to its canonical exposition fragment:
/// `k1="v1",k2="v2"` with keys in sorted order.
fn render_labels(labels: &[(&'static str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        // Escape per the exposition format.
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// The cheap, cloneable observability handle threaded through every
/// layer's options (mirroring the `FaultHook` idiom). Disabled — the
/// default — it is a `None` and every event is one branch. Enabled, it
/// shares one [`Recorder`] and carries a default job tag for spans.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Recorder>>,
    job: u64,
}

impl Obs {
    /// The disarmed handle (same as `Obs::default()`).
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// A handle over a fresh [`Recorder`].
    pub fn enabled() -> Obs {
        #[cfg(feature = "off")]
        {
            Obs::default()
        }
        #[cfg(not(feature = "off"))]
        {
            Obs {
                inner: Some(Arc::new(Recorder::new())),
                job: 0,
            }
        }
    }

    /// Whether events are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shared recorder, when enabled.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.inner.as_ref()
    }

    /// A clone carrying `job` as the default span tag — hand this to
    /// per-job workers so every span they open is attributed.
    pub fn tagged(&self, job: u64) -> Obs {
        Obs {
            inner: self.inner.clone(),
            job,
        }
    }

    /// The handle's default job tag.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Opens a span at `site` tagged with the handle's job id. Records
    /// on drop. Disabled: returns an inert guard, no clock, no
    /// allocation.
    #[inline]
    pub fn span(&self, site: &'static str) -> Span {
        self.span_for(site, self.job)
    }

    /// Opens a span with an explicit job id.
    #[inline]
    pub fn span_for(&self, site: &'static str, job: u64) -> Span {
        Span {
            inner: self.inner.as_ref().map(|rec| SpanInner {
                rec: Arc::clone(rec),
                site,
                job,
                start: Instant::now(),
                labels: Vec::new(),
            }),
        }
    }

    /// Records a span whose interval was measured externally (e.g. a
    /// queue wait that started on another thread): `start` is when it
    /// began, `dur` how long it lasted.
    pub fn record_span(
        &self,
        site: &'static str,
        job: u64,
        start: Instant,
        dur: Duration,
        labels: &[(&'static str, &str)],
    ) {
        if let Some(rec) = &self.inner {
            let start_ns = start
                .saturating_duration_since(rec.epoch)
                .as_nanos()
                .min(u64::MAX as u128) as u64;
            rec.push_span(SpanEvent {
                site,
                job,
                tid: trace_tid(),
                start_ns,
                dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
                labels: labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect(),
            });
        }
    }

    /// Increments counter `name` by `v`.
    #[inline]
    pub fn add(&self, name: &'static str, v: u64) {
        if let Some(rec) = &self.inner {
            rec.add(name, String::new(), v);
        }
    }

    /// Increments a labeled counter.
    #[inline]
    pub fn add_labeled(&self, name: &'static str, labels: &[(&'static str, &str)], v: u64) {
        if let Some(rec) = &self.inner {
            rec.add(name, render_labels(labels), v);
        }
    }

    /// Sets gauge `name` to `v`.
    #[inline]
    pub fn gauge(&self, name: &'static str, v: i64) {
        if let Some(rec) = &self.inner {
            rec.gauge_set(name, String::new(), v);
        }
    }

    /// Records a duration into histogram `name`.
    #[inline]
    pub fn observe(&self, name: &'static str, d: Duration) {
        self.observe_labeled(name, &[], d);
    }

    /// Records a duration into a labeled histogram.
    #[inline]
    pub fn observe_labeled(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        d: Duration,
    ) {
        if let Some(rec) = &self.inner {
            rec.observe_ns(name, labels, d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Merged (p50, p90, p99) in seconds of every histogram named
    /// `name`, across label sets. All zeros when disabled or empty.
    pub fn quantiles(&self, name: &str) -> (f64, f64, f64) {
        match &self.inner {
            Some(rec) => rec.histogram_snapshot(name).percentiles(),
            None => (0.0, 0.0, 0.0),
        }
    }

    /// The Prometheus-style text exposition page. Disabled handles
    /// return a comment-only page (still lint-clean).
    pub fn prometheus_text(&self) -> String {
        match &self.inner {
            Some(rec) => export::prometheus_text(rec),
            None => "# matex-obs: disabled\n".to_string(),
        }
    }

    /// The Chrome-trace-format JSON timeline (open in `chrome://tracing`
    /// or <https://ui.perfetto.dev>). Disabled handles return an empty
    /// trace.
    pub fn chrome_trace_json(&self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":{}}}",
            self.chrome_trace_events()
        )
    }

    /// Just the JSON array of trace events — the mergeable core of
    /// [`Obs::chrome_trace_json`] (concatenate arrays from several
    /// recorders to build one timeline).
    pub fn chrome_trace_events(&self) -> String {
        match &self.inner {
            Some(rec) => export::chrome_trace_events(rec),
            None => "[]".to_string(),
        }
    }
}

/// RAII span guard: measures from construction to drop on the monotonic
/// clock, then records. Inert (and allocation-free) when the handle was
/// disabled.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    rec: Arc<Recorder>,
    site: &'static str,
    job: u64,
    start: Instant,
    labels: Vec<(&'static str, String)>,
}

impl Span {
    /// Attaches (or overwrites) a label — e.g. the cache hit path,
    /// known only at completion.
    pub fn label(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(inner) = &mut self.inner {
            let value = value.into();
            match inner.labels.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = value,
                None => inner.labels.push((key, value)),
            }
        }
    }

    /// Whether this guard records anything on drop.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur = inner.start.elapsed();
            let start_ns = inner
                .start
                .saturating_duration_since(inner.rec.epoch)
                .as_nanos()
                .min(u64::MAX as u128) as u64;
            inner.rec.push_span(SpanEvent {
                site: inner.site,
                job: inner.job,
                tid: trace_tid(),
                start_ns,
                dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
                labels: inner.labels,
            });
        }
    }
}

/// Opens an RAII span: `span!(obs, "site")` uses the handle's job tag,
/// `span!(obs, "site", job_id)` tags explicitly.
#[macro_export]
macro_rules! span {
    ($obs:expr, $site:expr) => {
        $obs.span($site)
    };
    ($obs:expr, $site:expr, $job:expr) => {
        $obs.span_for($site, $job)
    };
}

// Compile the crate README's code blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::default();
        assert!(!obs.is_enabled());
        obs.add("a_total", 1);
        obs.observe("b_seconds", Duration::from_millis(1));
        obs.gauge("c", 3);
        let span = obs.span("site");
        assert!(!span.is_armed());
        drop(span);
        assert_eq!(obs.quantiles("b_seconds"), (0.0, 0.0, 0.0));
        assert_eq!(obs.prometheus_text(), "# matex-obs: disabled\n");
        assert_eq!(obs.chrome_trace_events(), "[]");
    }

    #[test]
    fn spans_record_on_drop_with_labels() {
        let obs = Obs::enabled().tagged(42);
        {
            let mut s = span!(obs, "engine.run");
            s.label("hit", "warm");
            s.label("hit", "whatif"); // overwrite, not duplicate
        }
        {
            let _s = span!(obs, "solver.dc", 43);
        }
        let rec = obs.recorder().unwrap();
        assert_eq!(rec.span_count(), 2);
        let trace = obs.chrome_trace_json();
        assert!(trace.contains("\"engine.run\""));
        assert!(trace.contains("\"hit\":\"whatif\""));
        assert!(!trace.contains("\"warm\""));
        assert!(trace.contains("\"job\":43"));
    }

    #[test]
    fn counters_and_gauges_aggregate_by_label_set() {
        let obs = Obs::enabled();
        obs.add_labeled("jobs_total", &[("hit", "warm")], 2);
        obs.add_labeled("jobs_total", &[("hit", "warm")], 3);
        obs.add_labeled("jobs_total", &[("hit", "cold")], 1);
        obs.gauge("depth", 7);
        obs.gauge("depth", 4); // gauges overwrite
        let page = obs.prometheus_text();
        assert!(page.contains("matex_jobs_total{hit=\"warm\"} 5"));
        assert!(page.contains("matex_jobs_total{hit=\"cold\"} 1"));
        assert!(page.contains("matex_depth 4"));
    }

    #[test]
    fn quantiles_merge_across_label_sets() {
        let obs = Obs::enabled();
        for _ in 0..90 {
            obs.observe_labeled(
                "job_seconds",
                &[("hit", "warm")],
                Duration::from_nanos(1000),
            );
        }
        for _ in 0..10 {
            obs.observe_labeled("job_seconds", &[("hit", "cold")], Duration::from_millis(1));
        }
        let (p50, p90, p99) = obs.quantiles("job_seconds");
        assert_eq!(p50, 1023.0 / 1e9);
        assert_eq!(p90, 1023.0 / 1e9);
        assert_eq!(p99, 1_048_575.0 / 1e9);
    }

    #[test]
    fn tagged_handles_share_the_recorder() {
        let obs = Obs::enabled();
        let t = obs.tagged(9);
        t.add("shared_total", 1);
        assert!(obs.prometheus_text().contains("matex_shared_total 1"));
        assert_eq!(t.job(), 9);
        assert_eq!(obs.job(), 0);
    }

    #[test]
    fn external_interval_spans_record() {
        let obs = Obs::enabled();
        let start = Instant::now();
        obs.record_span(
            "engine.queue",
            5,
            start,
            Duration::from_micros(250),
            &[("class", "high")],
        );
        let trace = obs.chrome_trace_json();
        assert!(trace.contains("\"engine.queue\""));
        assert!(trace.contains("\"class\":\"high\""));
    }
}
