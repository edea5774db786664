//! SPICE-subset netlist parser.
//!
//! Supports the element and directive subset that power-grid benchmarks
//! use (the IBM PG suite is distributed in this dialect):
//!
//! ```text
//! * comment
//! Rname n1 n2 value
//! Cname n1 n2 value
//! Lname n1 n2 value
//! Vname n+ n- value
//! Iname n+ n- PULSE(v1 v2 td tr tf pw [per])
//! Iname n+ n- PWL(t1 v1 t2 v2 ...)
//! .tran tstep tstop
//! .end
//! ```
//!
//! * values accept engineering suffixes (`f p n u m k meg g t`) and
//!   trailing unit letters (`10pF`),
//! * `+` at line start continues the previous line,
//! * text after `$` or `;` is a comment,
//! * node `0`, `gnd`, `gnd!` are ground,
//! * unknown dot-directives are collected, not rejected.

use crate::{CircuitError, Netlist};
use matex_waveform::{Pulse, Pwl, Waveform};

/// Transient-analysis request from a `.tran` directive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranSpec {
    /// Suggested (fixed) time step, seconds.
    pub step: f64,
    /// End time, seconds.
    pub stop: f64,
}

/// A parsed netlist plus any analysis directives.
#[derive(Debug, Clone)]
pub struct ParsedCircuit {
    /// The circuit.
    pub netlist: Netlist,
    /// `.tran` request, if present.
    pub tran: Option<TranSpec>,
    /// Unrecognized dot-directives (verbatim), for diagnostics.
    pub other_directives: Vec<String>,
}

/// Parses a SPICE-subset netlist from text.
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] with a 1-based line number for any
/// malformed element line, value, or waveform.
///
/// # Example
///
/// ```
/// use matex_circuit::parse_netlist;
///
/// # fn main() -> Result<(), matex_circuit::CircuitError> {
/// let text = "\
/// * tiny divider
/// v1 in 0 1.8
/// r1 in out 1k
/// r2 out 0 1k
/// .tran 10p 1n
/// .end";
/// let parsed = parse_netlist(text)?;
/// assert_eq!(parsed.netlist.num_elements(), 3);
/// assert_eq!(parsed.tran.unwrap().stop, 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn parse_netlist(text: &str) -> Result<ParsedCircuit, CircuitError> {
    let mut netlist = Netlist::new();
    let mut tran = None;
    let mut other_directives = Vec::new();

    // Logical lines: physical lines with '+' continuations folded in,
    // remembering the first physical line number of each.
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let mut line = raw;
        if let Some(pos) = line.find(['$', ';']) {
            line = &line[..pos];
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('+') {
            match logical.last_mut() {
                Some((_, prev)) => {
                    prev.push(' ');
                    prev.push_str(rest.trim());
                }
                None => {
                    return Err(CircuitError::Parse {
                        line: line_no,
                        message: "continuation line with nothing to continue".into(),
                    })
                }
            }
        } else {
            logical.push((line_no, trimmed.to_string()));
        }
    }

    for (line_no, line) in logical {
        let perr = |message: String| CircuitError::Parse {
            line: line_no,
            message,
        };
        let lower = line.to_ascii_lowercase();
        if lower.starts_with('.') {
            let toks: Vec<&str> = lower.split_whitespace().collect();
            match toks[0] {
                ".end" => break,
                ".tran" => {
                    if toks.len() < 3 {
                        return Err(perr(".tran requires step and stop times".into()));
                    }
                    let step = parse_value(toks[1]).map_err(&perr)?;
                    let stop = parse_value(toks[2]).map_err(&perr)?;
                    if step <= 0.0 || stop <= 0.0 {
                        return Err(perr(".tran times must be positive".into()));
                    }
                    tran = Some(TranSpec { step, stop });
                }
                ".op" | ".print" | ".plot" | ".option" | ".options" => {
                    other_directives.push(line.clone());
                }
                _ => other_directives.push(line.clone()),
            }
            continue;
        }

        // Element line. Split on whitespace but keep parenthesized
        // argument groups intact.
        let toks = tokenize_element_line(&lower);
        if toks.len() < 4 {
            return Err(perr(format!(
                "element line needs 4+ fields, got {}",
                toks.len()
            )));
        }
        let kind = lower.chars().next().expect("nonempty");
        let name = toks[0].clone();
        let n1 = netlist.node(&toks[1]);
        let n2 = netlist.node(&toks[2]);
        let rest = &toks[3..];
        match kind {
            'r' => {
                let v = parse_value(&rest[0]).map_err(&perr)?;
                netlist
                    .add_resistor(&name, n1, n2, v)
                    .map_err(|e| perr(e.to_string()))?;
            }
            'c' => {
                let v = parse_value(&rest[0]).map_err(&perr)?;
                netlist
                    .add_capacitor(&name, n1, n2, v)
                    .map_err(|e| perr(e.to_string()))?;
            }
            'l' => {
                let v = parse_value(&rest[0]).map_err(&perr)?;
                netlist
                    .add_inductor(&name, n1, n2, v)
                    .map_err(|e| perr(e.to_string()))?;
            }
            'v' => {
                let w = parse_waveform(rest).map_err(&perr)?;
                netlist
                    .add_vsource(&name, n1, n2, w)
                    .map_err(|e| perr(e.to_string()))?;
            }
            'i' => {
                let w = parse_waveform(rest).map_err(&perr)?;
                // SPICE convention: positive current flows from n+ through
                // the source to n-.
                netlist
                    .add_isource(&name, n1, n2, w)
                    .map_err(|e| perr(e.to_string()))?;
            }
            other => {
                return Err(perr(format!("unsupported element type '{other}'")));
            }
        }
    }
    Ok(ParsedCircuit {
        netlist,
        tran,
        other_directives,
    })
}

/// Splits an element line into tokens, merging `name(arg arg ...)` groups
/// into a single token and tolerating spaces around parentheses.
fn tokenize_element_line(line: &str) -> Vec<String> {
    let mut toks: Vec<String> = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in line.chars() {
        match ch {
            '(' => {
                depth += 1;
                cur.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            c if c.is_whitespace() && depth == 0 => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    toks
}

/// Parses a source specification: a plain value, `PULSE(...)`, or
/// `PWL(...)`.
fn parse_waveform(toks: &[String]) -> Result<Waveform, String> {
    let joined = toks.join(" ");
    let spec = joined.trim();
    if let Some(args) = strip_func(spec, "pulse") {
        let vals = parse_value_list(&args)?;
        if vals.len() < 6 {
            return Err(format!(
                "pulse needs at least 6 arguments (v1 v2 td tr tf pw), got {}",
                vals.len()
            ));
        }
        // SPICE order: V1 V2 TD TR TF PW [PER]
        let (v1, v2, td, tr, tf, pw) = (vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]);
        let pulse = match vals.get(6) {
            Some(&per) => Pulse::periodic(v1, v2, td, tr, pw, tf, per),
            None => Pulse::new(v1, v2, td, tr, pw, tf),
        }
        .map_err(|e| e.to_string())?;
        return Ok(Waveform::Pulse(pulse));
    }
    if let Some(args) = strip_func(spec, "pwl") {
        let vals = parse_value_list(&args)?;
        if vals.len() < 2 || vals.len() % 2 != 0 {
            return Err("pwl needs an even number of arguments (t v pairs)".into());
        }
        let pts: Vec<(f64, f64)> = vals.chunks(2).map(|p| (p[0], p[1])).collect();
        return Ok(Waveform::Pwl(Pwl::new(pts).map_err(|e| e.to_string())?));
    }
    // Optional leading "dc" keyword.
    let spec = spec.strip_prefix("dc ").unwrap_or(spec).trim();
    let v = parse_value(spec)?;
    Ok(Waveform::Dc(v))
}

/// If `spec` is `name(args)`, returns the argument text.
fn strip_func(spec: &str, name: &str) -> Option<String> {
    let s = spec.trim();
    if !s.starts_with(name) {
        return None;
    }
    let rest = s[name.len()..].trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.to_string())
}

fn parse_value_list(s: &str) -> Result<Vec<f64>, String> {
    s.split([' ', ',', '\t'])
        .filter(|t| !t.is_empty())
        .map(parse_value)
        .collect()
}

/// Parses a SPICE number with engineering suffix and optional trailing
/// unit letters: `1.2k`, `10p`, `3meg`, `2.5e-9`, `100mV`.
///
/// # Errors
///
/// Returns a description of the malformed token.
pub fn parse_value(tok: &str) -> Result<f64, String> {
    let t = tok.trim().to_ascii_lowercase();
    if t.is_empty() {
        return Err("empty value".into());
    }
    // Longest numeric prefix (digits, sign, dot, exponent).
    let bytes = t.as_bytes();
    let mut end = 0usize;
    let mut seen_e = false;
    while end < bytes.len() {
        let c = bytes[end] as char;
        let ok = c.is_ascii_digit()
            || c == '.'
            || ((c == '+' || c == '-') && (end == 0 || bytes[end - 1] == b'e'))
            || (c == 'e' && !seen_e && end > 0 && {
                // 'e' counts as exponent only if followed by digit or sign.
                let next = bytes.get(end + 1).map(|&b| b as char);
                matches!(next, Some(c2) if c2.is_ascii_digit() || c2 == '+' || c2 == '-')
            });
        if !ok {
            break;
        }
        if c == 'e' {
            seen_e = true;
        }
        end += 1;
    }
    if end == 0 {
        return Err(format!("'{tok}' is not a number"));
    }
    let base: f64 = t[..end]
        .parse()
        .map_err(|_| format!("'{tok}' has a malformed numeric part"))?;
    let suffix = &t[end..];
    let mult = match suffix {
        "" => 1.0,
        s if s.starts_with("meg") => 1e6,
        s if s.starts_with("mil") => 25.4e-6,
        s => match s.chars().next().expect("nonempty suffix") {
            't' => 1e12,
            'g' => 1e9,
            'k' => 1e3,
            'm' => 1e-3,
            'u' => 1e-6,
            'n' => 1e-9,
            'p' => 1e-12,
            'f' => 1e-15,
            // A bare unit letter like "v" or "a": no scaling.
            'a' | 'v' | 'o' | 'h' | 's' => 1.0,
            other => return Err(format!("unknown suffix '{other}' in '{tok}'")),
        },
    };
    Ok(base * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(1e-300)
    }

    #[test]
    fn value_suffixes() {
        assert!(close(parse_value("1.5k").unwrap(), 1500.0));
        assert!(close(parse_value("10p").unwrap(), 1e-11));
        assert!(close(parse_value("3meg").unwrap(), 3e6));
        assert!(close(parse_value("2.5e-9").unwrap(), 2.5e-9));
        assert!(close(parse_value("100m").unwrap(), 0.1));
        assert!(close(parse_value("10pf").unwrap(), 1e-11));
        assert!(close(parse_value("1.8v").unwrap(), 1.8));
        assert!(close(parse_value("-3n").unwrap(), -3e-9));
        assert!(close(parse_value("1e3").unwrap(), 1000.0));
        assert!(parse_value("abc").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn parses_divider() {
        let text = "v1 in 0 1.8\nr1 in out 1k\nr2 out gnd 1k\n.end\n";
        let p = parse_netlist(text).unwrap();
        assert_eq!(p.netlist.num_nodes(), 2);
        assert_eq!(p.netlist.num_elements(), 3);
    }

    #[test]
    fn parses_pulse_source_spice_order() {
        // PULSE(V1 V2 TD TR TF PW PER): TF comes before PW.
        let text = "i1 0 a PULSE(0 1m 1n 0.1n 0.2n 2n 10n)\nr1 a 0 1\n";
        let p = parse_netlist(text).unwrap();
        let (_, _, w) = p.netlist.sources().next().unwrap();
        match w {
            Waveform::Pulse(pl) => {
                assert!(close(pl.t_delay, 1e-9));
                assert!(close(pl.t_rise, 1e-10));
                assert!(close(pl.t_fall, 2e-10));
                assert!(close(pl.t_width, 2e-9));
                assert!(close(pl.t_period.unwrap(), 1e-8));
            }
            other => panic!("expected pulse, got {other:?}"),
        }
    }

    #[test]
    fn parses_pwl_and_continuation() {
        let text = "i1 0 a PWL(0 0\n+ 1n 1m 2n 0)\nr1 a 0 1\n";
        let p = parse_netlist(text).unwrap();
        let (_, _, w) = p.netlist.sources().next().unwrap();
        match w {
            Waveform::Pwl(pw) => assert_eq!(pw.points().len(), 3),
            other => panic!("expected pwl, got {other:?}"),
        }
    }

    #[test]
    fn tran_directive() {
        let text = "r1 a 0 1\n.tran 10p 1n\n";
        let p = parse_netlist(text).unwrap();
        let t = p.tran.unwrap();
        assert_eq!(t.step, 1e-11);
        assert_eq!(t.stop, 1e-9);
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "* header\n\nr1 a 0 1 $ trailing comment\n* another\nr2 a 0 2 ; also\n";
        let p = parse_netlist(text).unwrap();
        assert_eq!(p.netlist.num_elements(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "r1 a 0 1\nrbad a 0\n";
        match parse_netlist(text) {
            Err(CircuitError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_element_type_rejected() {
        let text = "q1 a b c model\n";
        assert!(parse_netlist(text).is_err());
    }

    #[test]
    fn stops_at_end_directive() {
        let text = "r1 a 0 1\n.end\nr2 a 0 broken-not-parsed\n";
        let p = parse_netlist(text).unwrap();
        assert_eq!(p.netlist.num_elements(), 1);
    }

    #[test]
    fn dc_keyword_accepted() {
        let text = "v1 a 0 dc 2.5\nr1 a 0 1\n";
        let p = parse_netlist(text).unwrap();
        let (_, _, w) = p.netlist.sources().next().unwrap();
        assert_eq!(w.value(0.0), 2.5);
    }

    #[test]
    fn ibm_style_node_names() {
        let text = "r1 n1_123_456 n1_123_789 0.02\nv1 n1_123_456 0 1.8\n";
        let mut nl = parse_netlist(text).unwrap().netlist;
        assert_eq!(nl.num_nodes(), 2);
        // Both names were already interned: looking one up adds nothing.
        let n = nl.node("N1_123_456");
        assert_eq!(nl.node_name(n), "n1_123_456");
        assert_eq!(nl.num_nodes(), 2);
    }
}
