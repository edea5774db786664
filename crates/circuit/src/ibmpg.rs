//! IBM power-grid benchmark interoperability.
//!
//! The paper evaluates on the IBM PG transient benchmarks (`ibmpg1t` …
//! `ibmpg6t`, Nassif ASPDAC'08), which are distributed as SPICE-dialect
//! netlists with geometric node names (`n<layer>_<x>_<y>`) plus reference
//! solution files. The benchmark files themselves are not redistributable,
//! so this repo ships:
//!
//! * [`load_ibmpg_netlist`] — parses a real benchmark file if the user has
//!   one (the dialect is covered by [`crate::parse_netlist`]),
//! * [`PgNodeName`] — the geometric node-name convention,
//! * [`Solution`] — a simple TSV waveform container with read/write and
//!   error metrics, standing in for the vendor `.solution` files (Table 3
//!   reports Max./Avg. error against exactly such reference data).

use crate::{CircuitError, ParsedCircuit};
use std::path::Path;

/// A parsed IBM-style geometric node name `n<layer>_<x>_<y>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PgNodeName {
    /// Metal layer index.
    pub layer: u32,
    /// X coordinate.
    pub x: u64,
    /// Y coordinate.
    pub y: u64,
}

impl PgNodeName {
    /// Parses `n<layer>_<x>_<y>` (case-insensitive).
    ///
    /// Returns `None` for names that do not follow the convention.
    ///
    /// # Example
    ///
    /// ```
    /// use matex_circuit::ibmpg::PgNodeName;
    ///
    /// let n = PgNodeName::parse("n1_12270_11754").unwrap();
    /// assert_eq!((n.layer, n.x, n.y), (1, 12270, 11754));
    /// assert!(PgNodeName::parse("vdd").is_none());
    /// ```
    pub fn parse(name: &str) -> Option<PgNodeName> {
        let lower = name.to_ascii_lowercase();
        let rest = lower.strip_prefix('n')?;
        let mut parts = rest.split('_');
        let layer = parts.next()?.parse().ok()?;
        let x = parts.next()?.parse().ok()?;
        let y = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(PgNodeName { layer, x, y })
    }
}

/// Loads an IBM power-grid benchmark netlist from a file.
///
/// # Errors
///
/// * [`CircuitError::Parse`] for syntax errors (with line numbers),
/// * [`CircuitError::InvalidNetlist`] if the file cannot be read.
pub fn load_ibmpg_netlist(path: &Path) -> Result<ParsedCircuit, CircuitError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        CircuitError::InvalidNetlist(format!("cannot read {}: {e}", path.display()))
    })?;
    crate::parse_netlist(&text)
}

/// A set of named waveforms sampled on a common time axis.
///
/// Serialized as TSV: header `time\t<name>...`, one row per sample. This
/// stands in for the IBM `.solution` reference files when computing the
/// Max./Avg. error columns of Table 3.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Solution {
    /// Sample times, seconds (strictly increasing).
    pub times: Vec<f64>,
    /// Waveform names (node names).
    pub names: Vec<String>,
    /// `data[k][i]` = value of waveform `k` at `times[i]`.
    pub data: Vec<Vec<f64>>,
}

impl Solution {
    /// Creates a solution container.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNetlist`] when shapes disagree.
    pub fn new(
        times: Vec<f64>,
        names: Vec<String>,
        data: Vec<Vec<f64>>,
    ) -> Result<Self, CircuitError> {
        if names.len() != data.len() {
            return Err(CircuitError::InvalidNetlist(
                "solution: names/data length mismatch".into(),
            ));
        }
        for (k, series) in data.iter().enumerate() {
            if series.len() != times.len() {
                return Err(CircuitError::InvalidNetlist(format!(
                    "solution: series {k} has {} samples, expected {}",
                    series.len(),
                    times.len()
                )));
            }
        }
        Ok(Solution { times, names, data })
    }

    /// Serializes to TSV.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("time");
        for n in &self.names {
            out.push('\t');
            out.push_str(n);
        }
        out.push('\n');
        for (i, &t) in self.times.iter().enumerate() {
            out.push_str(&format!("{t:.15e}"));
            for series in &self.data {
                out.push_str(&format!("\t{:.15e}", series[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the TSV produced by [`Solution::to_tsv`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Parse`] with line numbers on malformed
    /// input, including a time or value that is not a finite number
    /// (`NaN`, `inf`), and [`CircuitError::InvalidNetlist`] for
    /// inconsistent shapes ([`Solution::new`]).
    pub fn from_tsv(text: &str) -> Result<Solution, CircuitError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(CircuitError::Parse {
            line: 1,
            message: "empty solution file".into(),
        })?;
        let mut cols = header.split('\t');
        if cols.next() != Some("time") {
            return Err(CircuitError::Parse {
                line: 1,
                message: "header must start with 'time'".into(),
            });
        }
        let names: Vec<String> = cols.map(|s| s.to_string()).collect();
        let mut times = Vec::new();
        let mut data: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        for (idx, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split('\t');
            // Field `col` (0: the time) as a finite number.
            let mut finite = |col: usize| {
                let what = || match col {
                    0 => "time value".to_string(),
                    k => format!("value for column {k}"),
                };
                let field = fields.next().ok_or_else(|| CircuitError::Parse {
                    line: idx + 1,
                    message: format!("missing {}", what()),
                })?;
                match field.parse::<f64>() {
                    Ok(v) if v.is_finite() => Ok(v),
                    _ => Err(CircuitError::Parse {
                        line: idx + 1,
                        message: format!("bad {}: {field:?} is not a finite number", what()),
                    }),
                }
            };
            times.push(finite(0)?);
            for (k, series) in data.iter_mut().enumerate() {
                series.push(finite(k + 1)?);
            }
        }
        Solution::new(times, names, data)
    }

    /// Maximum and average absolute difference against a reference
    /// solution on the shared time axis (series matched by name).
    ///
    /// These are the `Max. Err` / `Avg. Err` columns of Table 3.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNetlist`] when the time axes differ,
    /// no series names are shared, or a shared sample differs by a NaN
    /// or an infinity (which has no error figure, and must not read as
    /// a small one).
    pub fn error_vs(&self, reference: &Solution) -> Result<(f64, f64), CircuitError> {
        if self.times.len() != reference.times.len() {
            return Err(CircuitError::InvalidNetlist(format!(
                "time axes differ: {} vs {} samples",
                self.times.len(),
                reference.times.len()
            )));
        }
        let mut max_err = 0.0_f64;
        let mut sum = 0.0_f64;
        let mut count = 0usize;
        let mut matched = 0usize;
        for (k, name) in self.names.iter().enumerate() {
            let Some(rk) = reference.names.iter().position(|n| n == name) else {
                continue;
            };
            matched += 1;
            for ((a, b), t) in self.data[k]
                .iter()
                .zip(&reference.data[rk])
                .zip(&self.times)
            {
                let e = (a - b).abs();
                if !e.is_finite() {
                    return Err(CircuitError::InvalidNetlist(format!(
                        "solution: series {name} differs by {e} at t = {t:e}"
                    )));
                }
                max_err = max_err.max(e);
                sum += e;
                count += 1;
            }
        }
        if matched == 0 {
            return Err(CircuitError::InvalidNetlist(
                "no shared series names between solutions".into(),
            ));
        }
        Ok((max_err, sum / count.max(1) as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_name_parsing() {
        assert_eq!(
            PgNodeName::parse("N2_100_200"),
            Some(PgNodeName {
                layer: 2,
                x: 100,
                y: 200
            })
        );
        assert!(PgNodeName::parse("n2_100").is_none());
        assert!(PgNodeName::parse("x1_2_3").is_none());
        assert!(PgNodeName::parse("n1_2_3_4").is_none());
    }

    #[test]
    fn tsv_roundtrip() {
        let s = Solution::new(
            vec![0.0, 1e-11, 2e-11],
            vec!["n1_0_0".into(), "n1_1_0".into()],
            vec![vec![1.8, 1.79, 1.78], vec![1.8, 1.795, 1.79]],
        )
        .unwrap();
        let text = s.to_tsv();
        let back = Solution::from_tsv(&text).unwrap();
        assert_eq!(back.names, s.names);
        assert_eq!(back.times.len(), 3);
        for (a, b) in back.data[1].iter().zip(&s.data[1]) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn error_metrics() {
        let a = Solution::new(vec![0.0, 1.0], vec!["x".into()], vec![vec![1.0, 2.0]]).unwrap();
        let b = Solution::new(vec![0.0, 1.0], vec!["x".into()], vec![vec![1.1, 2.05]]).unwrap();
        let (max, avg) = a.error_vs(&b).unwrap();
        assert!((max - 0.1).abs() < 1e-12);
        assert!((avg - 0.075).abs() < 1e-12);
    }

    #[test]
    fn error_requires_shared_names() {
        let a = Solution::new(vec![0.0], vec!["x".into()], vec![vec![1.0]]).unwrap();
        let b = Solution::new(vec![0.0], vec!["y".into()], vec![vec![1.0]]).unwrap();
        assert!(a.error_vs(&b).is_err());
    }

    #[test]
    fn shape_validation() {
        assert!(Solution::new(vec![0.0], vec!["x".into()], vec![]).is_err());
        assert!(Solution::new(vec![0.0], vec!["x".into()], vec![vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn malformed_tsv_rejected() {
        assert!(Solution::from_tsv("").is_err());
        assert!(Solution::from_tsv("wrong\theader\n").is_err());
        assert!(Solution::from_tsv("time\tx\nnot_a_number\t1\n").is_err());
        assert!(Solution::from_tsv("time\tx\n0.0\n").is_err()); // missing col
    }

    #[test]
    fn non_finite_times_and_values_are_parse_errors() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "1e999"] {
            for text in [
                format!("time\tx\n{bad}\t1\n"),
                format!("time\tx\n0\t{bad}\n"),
            ] {
                let got = Solution::from_tsv(&text);
                assert!(
                    matches!(got, Err(CircuitError::Parse { line: 2, .. })),
                    "{text:?} gave {got:?}"
                );
            }
        }
    }

    #[test]
    fn a_non_finite_difference_is_an_error_not_a_small_one() {
        let a = Solution::new(vec![0.0, 1.0], vec!["x".into()], vec![vec![1.0, 2.0]]).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let b = Solution::new(vec![0.0, 1.0], vec!["x".into()], vec![vec![bad, 2.0]]).unwrap();
            assert!(
                matches!(a.error_vs(&b), Err(CircuitError::InvalidNetlist(_))),
                "{bad} read as {:?}",
                a.error_vs(&b)
            );
            assert!(b.error_vs(&a).is_err());
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_an_encoded_solution_is_ok_or_typed() {
        let s = Solution::new(
            vec![0.0, 1e-11, 2e-11, 3.5e-11],
            vec!["n1_0_0".into(), "vdd".into(), "n2_10_20".into()],
            vec![
                vec![1.8, 1.79, 1.78, 1.781],
                vec![1.8, 1.8, 1.8, 1.8],
                vec![-0.0, 1e-300, -2.5e7, 0.5],
            ],
        )
        .unwrap();
        let bytes = s.to_tsv().into_bytes();
        let mut mutants = 0usize;
        let mut check = |candidate: &[u8]| {
            let Ok(text) = std::str::from_utf8(candidate) else {
                return;
            };
            mutants += 1;
            let got = std::panic::catch_unwind(|| Solution::from_tsv(text));
            match got {
                Ok(Ok(back)) => {
                    assert!(back.times.iter().all(|t| t.is_finite()), "{text:?}");
                    assert!(
                        back.data.iter().flatten().all(|v| v.is_finite()),
                        "{text:?}"
                    );
                    assert_eq!(back.names.len(), back.data.len());
                    assert!(back.data.iter().all(|d| d.len() == back.times.len()));
                }
                Ok(Err(_)) => {}
                Err(_) => panic!("from_tsv panicked on {text:?}"),
            }
        };
        for len in 0..=bytes.len() {
            check(&bytes[..len]);
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                check(&m);
            }
        }
        assert!(mutants > bytes.len() * 5, "only {mutants} UTF-8 mutants");
    }
}
