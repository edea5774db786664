//! Benchmark harness for the MATEX paper reproduction.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper (see DESIGN.md §4 for the index). This library holds the
//! shared pieces: the workload suite standing in for the IBM power-grid
//! benchmarks, stiff-mesh construction for Table 1, wall-clock helpers
//! and a plain-text table printer.
//!
//! Scale is controlled by the `MATEX_BENCH_SCALE` environment variable:
//! `ci` (default) finishes in minutes on a laptop; `paper` approaches the
//! paper's node counts (hundreds of thousands of unknowns) and takes
//! correspondingly longer.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use matex_circuit::ibmpg::load_ibmpg_netlist;
use matex_circuit::{CircuitError, MnaSystem, PdnBuilder, RcMeshBuilder};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Benchmark scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small grids; the whole suite runs in minutes.
    Ci,
    /// Paper-approaching node counts.
    Paper,
}

impl Scale {
    /// Reads `MATEX_BENCH_SCALE` (defaults to `ci`).
    pub fn from_env() -> Scale {
        match std::env::var("MATEX_BENCH_SCALE").as_deref() {
            Ok("paper") | Ok("PAPER") => Scale::Paper,
            _ => Scale::Ci,
        }
    }
}

/// One workload of the IBM-like suite.
#[derive(Debug, Clone)]
pub struct PgCase {
    /// Case name (`ibmpg1t`-like naming; the real name when a vendored
    /// benchmark file backs the case).
    pub name: String,
    /// The configured synthetic grid builder (the stand-in, and the
    /// fallback when no benchmark file is vendored).
    pub builder: PdnBuilder,
    /// Transient window (seconds) matching the paper's 10 ns runs.
    pub window: f64,
    /// A real `ibmpg<i>t` netlist backing this case, when found under
    /// `MATEX_PG_DIR` at `paper` scale.
    pub netlist_path: Option<PathBuf>,
}

impl PgCase {
    /// Builds the case's system: parses the vendored IBM netlist when
    /// one backs the case, the synthetic grid otherwise.
    ///
    /// # Errors
    ///
    /// Propagates parse/assembly failures from either path.
    pub fn build(&self) -> Result<MnaSystem, CircuitError> {
        match &self.netlist_path {
            Some(path) => {
                let parsed = load_ibmpg_netlist(path)?;
                MnaSystem::assemble(&parsed.netlist)
            }
            None => self.builder.build(),
        }
    }
}

/// Locates a vendored `ibmpg<i>t` netlist in `dir`, trying the common
/// extensions the suite is distributed with.
fn find_ibmpg_netlist(dir: &Path, index: usize) -> Option<PathBuf> {
    for ext in ["spice", "sp", "ckt", "net"] {
        let path = dir.join(format!("ibmpg{index}t.{ext}"));
        if path.is_file() {
            return Some(path);
        }
    }
    None
}

/// The six-grid suite standing in for `ibmpg1t…ibmpg6t`.
///
/// Node counts grow monotonically like the originals; each case has
/// thousands of pulse loads sharing ~`features` bump shapes, which is the
/// structure Table 3's "Group #" column counts.
///
/// At `paper` scale, setting `MATEX_PG_DIR` to a directory containing
/// the real (non-redistributable) `ibmpg1t…ibmpg6t` netlists swaps each
/// found case over to the vendored file ([`PgCase::build`] then parses
/// it); missing files fall back to the synthetic stand-in with a logged
/// notice, so the suite runs usefully either way.
pub fn pg_suite(scale: Scale) -> Vec<PgCase> {
    let window = 1e-8;
    let (dims, load_div, features): (&[usize], usize, usize) = match scale {
        Scale::Ci => (&[20, 28, 36, 44, 52, 60], 4, 8),
        Scale::Paper => (&[90, 130, 180, 220, 260, 320], 2, 32),
    };
    let pg_dir: Option<PathBuf> = match (scale, std::env::var_os("MATEX_PG_DIR")) {
        (Scale::Paper, Some(dir)) => Some(PathBuf::from(dir)),
        (Scale::Paper, None) => {
            eprintln!(
                "pg_suite: MATEX_PG_DIR not set — paper scale runs synthetic stand-ins \
                 (point it at the ibmpg1t…6t netlists to run the real benchmarks)"
            );
            None
        }
        _ => None,
    };
    dims.iter()
        .enumerate()
        .map(|(i, &d)| {
            let mut builder = PdnBuilder::new(d, d)
                .num_loads((d * d / load_div).max(8))
                .num_features(features)
                .window(window)
                .cap_spread(30.0)
                .seed(1000 + i as u64);
            // The larger IBM cases are RLC grids: give pg4t–pg6t package
            // inductance (C becomes singular — the regularization-free
            // path of Sec. 3.3.3 is then load-bearing).
            if i >= 3 {
                builder = builder.pad_inductance(1e-11);
            }
            let netlist_path = pg_dir.as_deref().and_then(|dir| {
                let found = find_ibmpg_netlist(dir, i + 1);
                if found.is_none() {
                    eprintln!(
                        "pg_suite: ibmpg{}t not found under {} — using the synthetic stand-in",
                        i + 1,
                        dir.display()
                    );
                }
                found
            });
            PgCase {
                name: if netlist_path.is_some() {
                    format!("ibmpg{}t", i + 1)
                } else {
                    format!("pg{}t", i + 1)
                },
                builder,
                window,
                netlist_path,
            }
        })
        .collect()
}

/// Table-1-style stiff RC mesh for a target stiffness ratio.
///
/// The achieved stiffness of `−C⁻¹G` (measurable with
/// `matex_core::measure_stiffness` for small meshes) tracks the requested
/// cap ratio times the mesh's intrinsic spread.
pub fn stiff_rc_case(stiffness_ratio: f64, scale: Scale) -> RcMeshBuilder {
    let n = match scale {
        Scale::Ci => 12,
        Scale::Paper => 20,
    };
    RcMeshBuilder::new(n, n)
        .stiffness_ratio(stiffness_ratio)
        .segment_resistance(1.0)
        .node_capacitance(1e-15)
}

/// Times a closure, returning `(result, wall_time)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Formats a `Duration` in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A minimal fixed-width table printer for paper-style output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "table row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (c, h) in self.header.iter().enumerate() {
            width[c] = width[c].max(h.len());
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:>w$}", cell, w = width[c]));
                if c + 1 < ncol {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Ratio of two durations as a "Spdp"-style string (`12.3X`).
pub fn speedup(baseline: Duration, improved: Duration) -> String {
    let r = baseline.as_secs_f64() / improved.as_secs_f64().max(1e-12);
    format!("{r:.1}X")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_six_growing_cases() {
        let suite = pg_suite(Scale::Ci);
        assert_eq!(suite.len(), 6);
        let dims: Vec<usize> = suite.iter().map(|c| c.build().unwrap().dim()).collect();
        for w in dims.windows(2) {
            assert!(w[1] > w[0], "suite must grow: {dims:?}");
        }
    }

    #[test]
    fn netlist_backed_case_parses_the_vendored_file() {
        // Simulate a vendored ibmpg directory with a tiny valid netlist;
        // the helper must find it by the conventional name and build()
        // must parse it instead of the synthetic stand-in.
        let dir = std::env::temp_dir().join(format!("matex_pg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ibmpg1t.spice");
        std::fs::write(
            &path,
            "* tiny stand-in\n\
             i1 0 n1_0_0 PULSE(0 1m 0.1n 50p 200p 50p)\n\
             r1 n1_0_0 0 1k\n\
             c1 n1_0_0 0 10f\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(find_ibmpg_netlist(&dir, 1), Some(path.clone()));
        assert_eq!(find_ibmpg_netlist(&dir, 2), None);
        let mut case = pg_suite(Scale::Ci).remove(0);
        let synthetic_dim = case.build().unwrap().dim();
        case.netlist_path = Some(path);
        let real = case.build().unwrap();
        assert_eq!(real.dim(), 1);
        assert_ne!(real.dim(), synthetic_dim);
        // A broken vendored file surfaces as an error, not a fallback.
        case.netlist_path = Some(dir.join("ibmpg9t.spice"));
        assert!(case.build().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("a  bb"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "table row width mismatch")]
    fn table_rejects_a_row_of_the_wrong_width() {
        Table::new(&["a", "bb"]).row(vec!["1".into()]);
    }

    #[test]
    fn table_pads_every_column_to_its_widest_cell() {
        let mut t = Table::new(&["case", "t"]);
        t.row(vec!["pg1".into(), "12.345".into()]);
        t.row(vec!["ibmpg6t".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "   case       t");
        assert_eq!(lines[1], "-".repeat(15));
        assert_eq!(lines[2], "    pg1  12.345");
        assert_eq!(lines[3], "ibmpg6t       1");
    }

    #[test]
    fn secs_prints_three_decimals() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(secs(Duration::from_micros(250)), "0.000");
    }

    #[test]
    fn speedup_format() {
        assert_eq!(
            speedup(Duration::from_secs(10), Duration::from_secs(2)),
            "5.0X"
        );
    }

    #[test]
    fn scale_default_is_ci() {
        // Cannot mutate the environment safely in tests; just check the
        // default path.
        assert_eq!(Scale::from_env(), Scale::Ci);
    }
}
