//! `matex-benchmark`: six named workloads, end-to-end metrics and a
//! per-layer ledger for the MATEX stack, measured from outside the
//! crates. See `README.md` for what each name means.
//!
//! ```text
//! matex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! matex-benchmark all [--seed <n>] [--seconds <s>] [--runs <k>]
//! matex-benchmark compare <a> <b>
//! ```

mod inputs;
mod ledger;
mod report;
mod serve;
mod solver;
mod stats;
mod trace;
mod traced;
mod wire;

use report::{RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  matex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  matex-benchmark all [--seed <n>] [--seconds <s>] [--runs <k>]
  matex-benchmark compare <a> <b>
workloads: cold_factor march_dense dist_pg serve_warm serve_stream serve_churn";

/// Exit code of a workload that was skipped because the host has fewer
/// hardware threads than the workload's parallel width.
const EXIT_SKIPPED: u8 = 3;

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `all` only: untraced runs per workload (`compare` wants four or
    /// more a side to tell a change from the runs' own spread).
    runs: usize,
}

/// Parses `--key value` pairs; unknown keys and missing values are
/// errors.
fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.push((key.to_string(), v.clone()));
    }
    Ok(out)
}

fn parse_run_args(args: &[String], need_workload: bool) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: solver::NOMINAL_SECONDS,
        trace: false,
        runs: 1,
    };
    for (k, v) in parse_flags(args)? {
        match k.as_str() {
            "workload" => run.workload = v,
            "seed" => run.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?,
            "seconds" => {
                run.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(run.seconds.is_finite() && run.seconds > 0.0 && run.seconds <= 60.0) {
                    return Err(format!("--seconds must lie in (0, 60], got {v}"));
                }
            }
            "trace" => {
                run.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "runs" if !need_workload => {
                run.runs = v.parse().map_err(|_| format!("bad --runs {v:?}"))?;
                if run.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    if need_workload && !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(run)
}

/// The package directory: where `out/` lives. `cargo run` exports it at
/// run time; a binary started by hand falls back to where it was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn first_line_of(cmd: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What every result records about where it was measured.
fn hygiene(run: &RunArgs) -> String {
    let dir = package_dir();
    format!(
        "host_threads={} seed={} seconds={} trace={} commit={} rustc={:?}",
        host_threads(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        first_line_of("git", &["rev-parse", "HEAD"], &dir),
        first_line_of("rustc", &["-V"], &dir),
    )
}

/// Runs one workload in this process and prints its lines and, last,
/// the driver's JSON object.
fn run_one(run: &RunArgs) -> Result<ExitCode, String> {
    let w = run.workload.as_str();
    let parallel = solver::shape(w).is_none_or(|sh| sh.distributed);
    if parallel && host_threads() < solver::WIDTH {
        println!(
            "{w} skipped host_threads={} < width {}",
            host_threads(),
            solver::WIDTH
        );
        return Ok(ExitCode::from(EXIT_SKIPPED));
    }
    let out_dir = package_dir().join("out");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = run_in(run, &out_dir, &scratch);
    // Whatever happened, leave no scratch behind.
    let _ = std::fs::remove_dir_all(&scratch);
    let mut result = result?;
    result.notes.insert(0, hygiene(run));
    print!("{}", result.lines(w));
    let defs = if run.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result.driver_json(defs)?);
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_in(run: &RunArgs, out_dir: &Path, scratch: &Path) -> Result<RunResult, String> {
    let w = run.workload.as_str();
    if run.trace {
        let (mut result, tracer) = traced::run_traced(w, run.seed, run.seconds, scratch)?;
        let path = out_dir.join(format!("trace-{w}-{}.json", run.seed));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        result.note(format!("chrome_trace={}", path.display()));
        return Ok(result);
    }
    match solver::shape(w) {
        Some(sh) => solver::run_untraced(w, &sh, run.seed, run.seconds),
        None => serve::run_untraced(w, run.seed, run.seconds, scratch),
    }
}

/// `all`: `--runs` complete sets (one by default) of every workload
/// untraced for the end-to-end metrics, then every workload once traced
/// for the ledger — each run in its own child process, so that
/// `peak_rss_mb` is per workload. The children's lines are echoed and
/// kept in `out/report-<seed>.txt`, the file `compare` reads.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let base = parse_run_args(args, false)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = package_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let mut report = String::new();
    let mut bad = false;
    let modes = std::iter::repeat_n("0", base.runs).chain(["1"]);
    for trace in modes {
        for w in WORKLOADS {
            let child = Command::new(&exe)
                .args(["--workload", w, "--seed", &base.seed.to_string()])
                .args(["--seconds", &base.seconds.to_string(), "--trace", trace])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&child.stdout);
            print!("{text}");
            report.push_str(&text);
            match child.status.code() {
                Some(0) => {}
                Some(code) if code == i32::from(EXIT_SKIPPED) => {}
                code => {
                    bad = true;
                    eprintln!("{w} --trace {trace} exited with {code:?}");
                }
            }
        }
    }
    let path = out_dir.join(format!("report-{}.txt", base.seed));
    std::fs::write(&path, &report).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# report={}", path.display());
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two report files (each may hold several runs)".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    print!("{}", report::compare(&read(a)?, &read(b)?));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some(_) => parse_run_args(&args, true).and_then(|run| run_one(&run)),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("matex-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse_in_any_order() {
        let run = parse_run_args(
            &strings(&[
                "--trace",
                "1",
                "--seconds",
                "7",
                "--workload",
                "dist_pg",
                "--seed",
                "42",
            ]),
            true,
        )
        .unwrap();
        assert_eq!(
            run,
            RunArgs {
                workload: "dist_pg".into(),
                seed: 42,
                seconds: 7.0,
                trace: true,
                runs: 1
            }
        );
        assert!(parse_run_args(&strings(&["--workload", "nope"]), true).is_err());
        assert!(parse_run_args(&strings(&["--seed"]), false).is_err());
        assert!(parse_run_args(&strings(&["--trace", "2"]), false).is_err());
        assert!(parse_run_args(&strings(&["--seconds", "0"]), false).is_err());
        assert!(parse_run_args(&strings(&["--bogus", "1"]), false).is_err());
        assert_eq!(parse_run_args(&[], false).unwrap().seconds, 10.0);
        // `--runs` belongs to `all`.
        assert_eq!(
            parse_run_args(&strings(&["--runs", "5"]), false)
                .unwrap()
                .runs,
            5
        );
        assert!(parse_run_args(&strings(&["--runs", "5", "--workload", "dist_pg"]), true).is_err());
        assert!(parse_run_args(&strings(&["--runs", "0"]), false).is_err());
    }
}
