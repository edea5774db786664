//! Metric names, the result lines, the driver's JSON and `compare`.
//!
//! Every number leaves the program twice: as a text line
//! `workload metric value unit n=… q1=… q3=…`, and — for the metrics
//! `BENCHMARK.json` lists — inside the one-line JSON object the driver
//! reads. [`END_TO_END`] and [`PER_LAYER`] are those lists; a test holds
//! them equal to `BENCHMARK.json`.

use crate::stats::{median, percentile, run_spread, tail_percentile, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The six workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "cold_factor",
    "march_dense",
    "dist_pg",
    "serve_warm",
    "serve_stream",
    "serve_churn",
];

/// Direction and regression bound of a listed metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only; layer metrics carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// What a user of the system sees, measured with tracing off.
///
/// The benchmark driver refuses a benchmark whose run-to-run spread
/// exceeds a metric's bound and then rejects later changes by that bound,
/// so a bound has to sit above what the host does to an unchanged
/// binary. On the sandbox this was sized on, one binary at one seed moves
/// by up to 25% within an hour on the CPU-bound workloads (README, "Host
/// noise"), which is why the time metrics carry the driver's maximum and
/// not the 10%/15%/10% the issue names; `compare` reports `unresolved`
/// wherever the runs' own spread is wider than the bound.
pub const END_TO_END: &[MetricDef] = &[
    e2e("job_p50_ms", "ms", false, 0.25),
    e2e("job_p95_ms", "ms", false, 0.25),
    e2e("jobs_per_s", "1/s", true, 0.25),
    e2e("max_err_v", "V", false, 0.10),
    e2e("peak_rss_mb", "MB", false, 0.15),
    e2e("setup_s", "s", false, 0.25),
];

/// The layer ledger, measured in the traced run on the workload's first
/// circuit (and, for the `serve.*`/`dist.*` rows of a workload that *is*
/// a serve or distributed workload, on the workload itself).
pub const PER_LAYER: &[MetricDef] = &[
    layer("circuit.parse_ms", "ms", false),
    layer("circuit.assemble_ms", "ms", false),
    layer("circuit.n", "count", false),
    layer("circuit.nnz", "count", false),
    layer("sparse.analyze_ms", "ms", false),
    layer("sparse.factor_ms", "ms", false),
    layer("sparse.refactor_ms", "ms", false),
    layer("sparse.fill_ratio", "ratio", false),
    layer("sparse.solve_us", "us", false),
    layer("sparse.matvec_us", "us", false),
    layer("krylov.basis_ms", "ms", false),
    layer("krylov.basis_dim", "count", false),
    layer("krylov.bases", "count", false),
    layer("krylov.dim_avg", "count", false),
    layer("krylov.subst_pairs", "count", false),
    layer("krylov.weights_us", "us", false),
    layer("krylov.combine_us", "us", false),
    layer("dense.expm_us", "us", false),
    layer("dense.ladder_us", "us", false),
    layer("par.dispatch_us", "us", false),
    layer("par.dot_us.w1", "us", false),
    layer("par.dot_us.w2", "us", false),
    layer("core.prepare_ms", "ms", false),
    layer("core.dc_ms", "ms", false),
    layer("core.march_ms", "ms", false),
    layer("core.expm_ms", "ms", false),
    layer("core.combine_ms", "ms", false),
    layer("core.steps", "count", false),
    layer("core.rejected_steps", "count", false),
    layer("core.substeps", "count", false),
    layer("core.expm_evals", "count", false),
    layer("core.correct_ms", "ms", false),
    layer("core.coverage", "ratio", true),
    layer("dist.plan_ms", "ms", false),
    layer("dist.groups", "count", false),
    layer("dist.analyze_ms", "ms", false),
    layer("dist.makespan_ms", "ms", false),
    layer("dist.node_wall_sum_ms", "ms", false),
    layer("dist.parallel_eff", "ratio", true),
    layer("dist.superpose_ms", "ms", false),
    layer("dist.lpt_proxy_err", "ratio", false),
    layer("dist.node_retries", "count", false),
    layer("dist.speedup_vs_mono", "ratio", true),
    layer("waveform.group_ms", "ms", false),
    layer("waveform.frame_encode_us", "us", false),
    layer("waveform.frame_decode_us", "us", false),
    layer("waveform.frame_bytes", "B", false),
    layer("store.write_ms", "ms", false),
    layer("store.read_ms", "ms", false),
    layer("store.bytes", "B", false),
    layer("store.hits", "count", true),
    layer("store.writes", "count", false),
    layer("store.io_errors", "count", false),
    layer("serve.ack_ms", "ms", false),
    layer("serve.wait_ms", "ms", false),
    layer("serve.stream_ms", "ms", false),
    layer("serve.engine_run_ms", "ms", false),
    layer("serve.queue_ms", "ms", false),
    layer("serve.engine_job_ms.cold", "ms", false),
    layer("serve.engine_job_ms.cache", "ms", false),
    layer("serve.engine_job_ms.whatif", "ms", false),
    layer("serve.engine_job_ms.store", "ms", false),
    layer("serve.wire_overhead_ms", "ms", false),
    layer("serve.bytes_per_job", "B", false),
    layer("serve.warm_rate", "ratio", true),
    layer("serve.whatif_hits", "count", true),
    layer("serve.evictions", "count", false),
    layer("serve.rejected", "count", false),
    layer("serve.retries", "count", false),
    layer("serve.json_parse_us", "us", false),
    layer("obs.overhead_pct", "%", false),
    layer("obs.spans_per_job", "count", false),
];

/// One reported number with the sample behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// The value (a median for timings).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and single readings).
    pub n: usize,
    /// First quartile of the run's own samples; equals `value` when
    /// `n` is 1.
    pub q1: f64,
    /// Third quartile, likewise.
    pub q3: f64,
}

impl Value {
    /// A single reading or an exact count.
    pub fn scalar(name: &str, value: f64, unit: &'static str) -> Value {
        Value {
            name: name.to_string(),
            value,
            unit,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// The median of `samples`, with the sample's quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample: a metric nothing was measured for is a
    /// harness bug, not a zero.
    pub fn median_of(name: &str, samples: &[f64], unit: &'static str) -> Value {
        assert!(!samples.is_empty(), "no samples for {name}");
        let s = Summary::of(samples);
        Value {
            name: name.to_string(),
            value: s.p50,
            unit,
            n: s.n,
            q1: s.q1,
            q3: s.q3,
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Jobs attempted in the measured part.
    pub attempted: u64,
    /// Jobs that failed, were rejected, or returned a wrong waveform.
    pub failed: u64,
    /// Every value, listed metrics and extras alike.
    pub values: Vec<Value>,
    /// Free-form `# …` lines: sample counts, the percentile read, paths.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Adds a value.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Adds a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// The job-time metrics of an untraced run — `job_p50_ms`,
    /// `job_p95_ms`, `jobs_per_s`, `fail_share` — from every job's time
    /// and the wall they took together. A workload's job count is fixed,
    /// so the tail is read at the same percentile ([`tail_percentile`])
    /// by every run of every commit; a note says which. Set
    /// `attempted`/`failed` first.
    pub fn push_job_times(&mut self, ms: &[f64], wall_s: f64) {
        let tail_pct = tail_percentile(ms.len());
        self.note(format!(
            "jobs={} job_p95_ms read at p{tail_pct:.1} (the most {} jobs support)",
            ms.len(),
            ms.len()
        ));
        self.push(Value::median_of("job_p50_ms", ms, "ms"));
        self.push(Value {
            value: percentile(ms, tail_pct),
            ..Value::median_of("job_p95_ms", ms, "ms")
        });
        self.push(Value::scalar("jobs_per_s", ms.len() as f64 / wall_s, "1/s"));
        self.push(Value::scalar("fail_share", self.fail_share(), "ratio"));
    }

    /// `(failed + rejected + wrong waveforms) / attempted`.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The text lines: notes, then one `workload metric value unit …`
    /// line per value.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {workload} {n}");
        }
        for v in &self.values {
            let _ = writeln!(
                out,
                "{workload} {} {} {} n={} q1={} q3={}",
                v.name, v.value, v.unit, v.n, v.q1, v.q3
            );
        }
        out
    }

    /// The one-line JSON object of the driver's contract, holding
    /// exactly the metrics of `defs`.
    ///
    /// # Errors
    ///
    /// Names a listed metric that was not measured, has the wrong unit,
    /// or is not a finite number.
    pub fn driver_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = self
                .values
                .iter()
                .find(|v| v.name == d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if v.unit != d.unit {
                return Err(format!(
                    "metric {} has unit {}, not {}",
                    d.name, v.unit, d.unit
                ));
            }
            if !v.value.is_finite() {
                return Err(format!("metric {} is {}", d.name, v.value));
            }
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                d.name,
                v.value,
                d.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Every run's value of one metric of one workload, with its unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Runs {
    /// One value per run, in file order.
    pub values: Vec<f64>,
    /// Unit.
    pub unit: String,
}

impl Runs {
    /// Median over the runs.
    pub fn median(&self) -> f64 {
        median(&self.values)
    }
}

/// Parses the `workload metric value unit n= q1= q3=` lines of a report
/// (comment and malformed lines are skipped), keyed by
/// `(workload, metric)`. A report may hold any number of runs of a
/// workload — `all --runs K` writes K, and reports can be concatenated —
/// and each repeated line is one more run.
pub fn parse_report(text: &str) -> BTreeMap<(String, String), Runs> {
    let mut out: BTreeMap<(String, String), Runs> = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 7 || f[0].starts_with('#') {
            continue;
        }
        let Ok(value) = f[2].parse::<f64>() else {
            continue;
        };
        let runs = out.entry((f[0].to_string(), f[1].to_string())).or_default();
        runs.values.push(value);
        runs.unit = f[3].to_string();
    }
    out
}

/// How much worse `b` is than `a`, as a share of `a` (negative when `b`
/// is better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let rel = (b - a) / a.abs();
    if def.higher_is_better {
        -rel
    } else {
        rel
    }
}

/// A table cell: six decimals, or four significant digits in scientific
/// notation where six decimals would print zeros (`max_err_v`).
fn cell(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

fn percent(spread: Option<f64>) -> String {
    spread.map_or_else(|| "?".to_string(), |s| format!("{:.1}%", 100.0 * s))
}

/// The `compare` table: one row per (workload, end-to-end metric) with
/// each side's median over its runs, the delta, the bound, each side's
/// run-to-run spread ([`run_spread`]) and a verdict, each workload
/// followed by the layer metrics whose medians moved by more than 5%, so
/// that a saving can be located. The verdict is `unresolved` when either
/// side's spread exceeds the metric's bound or is unknown (fewer than
/// four runs), `worse` when `b`'s median is worse than `a`'s by more than
/// the bound, else `ok`.
pub fn compare(a: &str, b: &str) -> String {
    let (ra, rb) = (parse_report(a), parse_report(b));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<12} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "a", "b", "delta", "bound", "spread_a", "spread_b"
    );
    for w in WORKLOADS {
        for d in END_TO_END {
            let key = (w.to_string(), d.name.to_string());
            let (Some(la), Some(lb)) = (ra.get(&key), rb.get(&key)) else {
                continue;
            };
            let (ma, mb) = (la.median(), lb.median());
            let (sa, sb) = (run_spread(&la.values), run_spread(&lb.values));
            let resolved = [sa, sb].iter().all(|s| s.is_some_and(|s| s <= d.bound));
            let verdict = if !resolved {
                "unresolved"
            } else if worsening(d, ma, mb) > d.bound {
                "worse"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{w:<13} {:<12} {:>14} {:>14} {:>+7.1}% {:>5.0}% {:>8} {:>8}  {verdict}",
                d.name,
                cell(ma),
                cell(mb),
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                100.0 * d.bound,
                percent(sa),
                percent(sb)
            );
        }
        let fails = |r: &BTreeMap<(String, String), Runs>| {
            r.get(&(w.to_string(), "fail_share".to_string()))
                .map(|l| l.values.iter().copied().fold(0.0, f64::max))
        };
        if let (Some(fa), Some(fb)) = (fails(&ra), fails(&rb)) {
            let verdict = if fb > fa { "worse" } else { "ok" };
            let _ = writeln!(
                out,
                "{w:<13} {:<12} {fa:>14.6} {fb:>14.6} {:>8} {:>6} {:>8} {:>8}  {verdict}",
                "fail_share", "", "any", "", ""
            );
        }
        for ((rw, metric), la) in ra.range((w.to_string(), String::new())..) {
            if rw != w {
                break;
            }
            let Some(lb) = rb.get(&(rw.clone(), metric.clone())) else {
                continue;
            };
            let (ma, mb) = (la.median(), lb.median());
            let is_layer = PER_LAYER.iter().any(|d| d.name == metric) || metric.contains(".phase_");
            if !is_layer || ma == 0.0 {
                continue;
            }
            let rel = (mb - ma) / ma.abs();
            if rel.abs() > 0.05 {
                let _ = writeln!(
                    out,
                    "  {metric:<24} {:>14} {:>14} {:>+7.1}%  {}",
                    cell(ma),
                    cell(mb),
                    100.0 * rel,
                    la.unit
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listed_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        // The driver's contract: a bound is at most 0.25, and `setup_s`
        // carries the largest.
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound > 0.0 && d.bound <= setup.bound && setup.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str, next: &str| {
            let at = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[at..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |e| at + e);
            text[at..end].to_string()
        };
        for (key, next, defs) in [
            ("end_to_end", "per_layer", END_TO_END),
            ("per_layer", "\u{0}", PER_LAYER),
        ] {
            let sec = section(key, next);
            assert_eq!(sec.matches("\"name\"").count(), defs.len(), "{key} length");
            let mut at = 0;
            for d in defs {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    d.name, d.unit
                );
                if key == "end_to_end" {
                    entry.push_str(&format!(", \"bound\": {}", d.bound));
                }
                entry.push('}');
                let found = sec[at..]
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{entry} in order"));
                at += found + entry.len();
            }
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
    }

    fn result() -> RunResult {
        let mut r = RunResult {
            attempted: 20,
            failed: 1,
            ..RunResult::default()
        };
        r.push(Value::median_of("job_p50_ms", &[3.0, 1.0, 2.0], "ms"));
        r.push(Value::scalar("setup_s", 0.25, "s"));
        r.note("seed=7");
        r
    }

    #[test]
    fn driver_json_holds_exactly_the_listed_metrics() {
        let r = result();
        let defs = [
            e2e("job_p50_ms", "ms", false, 0.1),
            e2e("setup_s", "s", false, 0.25),
        ];
        assert_eq!(
            r.driver_json(&defs).unwrap(),
            "{\"correct\": false, \"attempted\": 20, \"failed\": 1, \"metrics\": \
             {\"job_p50_ms\": {\"value\": 2, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let missing = [e2e("jobs_per_s", "1/s", true, 0.1)];
        assert!(r.driver_json(&missing).unwrap_err().contains("jobs_per_s"));
        let wrong_unit = [e2e("setup_s", "ms", false, 0.25)];
        assert!(r.driver_json(&wrong_unit).is_err());
        assert_eq!(r.fail_share(), 0.05);
    }

    #[test]
    fn lines_round_trip_through_the_report_parser() {
        let text = result().lines("cold_factor");
        assert!(text.starts_with("# cold_factor seed=7\n"));
        // Two runs in one report: each repeated line is one more run.
        let parsed = parse_report(&(text.clone() + &text));
        let p50 = &parsed[&("cold_factor".to_string(), "job_p50_ms".to_string())];
        assert_eq!(p50.values, [2.0, 2.0]);
        assert_eq!(p50.unit, "ms");
    }

    #[test]
    fn job_times_read_the_tail_the_job_count_supports() {
        let mut r = RunResult {
            attempted: 40,
            ..RunResult::default()
        };
        let ms: Vec<f64> = (1..=40).map(f64::from).collect();
        r.push_job_times(&ms, 2.0);
        let get = |n: &str| r.values.iter().find(|v| v.name == n).unwrap().value;
        assert_eq!(get("job_p50_ms"), 20.5);
        // 40 jobs: ten beyond p75.
        assert_eq!(get("job_p95_ms"), 30.25);
        assert_eq!(get("jobs_per_s"), 20.0);
        assert!(r.notes[0].contains("read at p75.0"), "{:?}", r.notes);
    }

    #[test]
    fn compare_gives_ok_worse_and_unresolved() {
        // Five runs a side; `jitter` spreads a side's runs around `v`.
        let runs = |m: &str, v: f64, jitter: f64| -> String {
            (0..5)
                .map(|k| {
                    let x = v * (1.0 + jitter * (f64::from(k) - 2.0));
                    format!("cold_factor {m} {x} ms n=15 q1={x} q3={x}\n")
                })
                .collect()
        };
        let a = runs("job_p50_ms", 100.0, 0.01)
            + &runs("job_p95_ms", 120.0, 0.01)
            + &runs("setup_s", 5.0, 0.02)
            + &runs("sparse.factor_ms", 60.0, 0.0)
            + &runs("fail_share", 0.0, 0.0);
        let b = runs("job_p50_ms", 130.0, 0.01)
            + &runs("job_p95_ms", 121.0, 0.2)
            + &runs("setup_s", 5.5, 0.02)
            + &runs("sparse.factor_ms", 90.0, 0.0)
            + "cold_factor fail_share 0.01 ratio n=1 q1=0 q3=0\n";
        let table = compare(&a, &b);
        let row = |m: &str| {
            table
                .lines()
                .find(|l| l.split_whitespace().nth(1) == Some(m))
                .unwrap_or_else(|| panic!("{m} row in\n{table}"))
                .to_string()
        };
        assert!(row("job_p50_ms").ends_with("worse"), "{table}");
        assert!(row("job_p95_ms").ends_with("unresolved"), "{table}");
        assert!(row("setup_s").ends_with("ok"), "{table}");
        assert!(row("fail_share").ends_with("worse"), "{table}");
        assert!(
            table.contains("sparse.factor_ms") && table.contains("+50.0%"),
            "{table}"
        );
        // One run a side says nothing about spread: every verdict on a
        // timing stays open.
        let once = |v: f64| format!("cold_factor job_p50_ms {v} ms n=15 q1={v} q3={v}\n");
        assert!(compare(&once(100.0), &once(101.0)).contains("unresolved"));
    }
}
