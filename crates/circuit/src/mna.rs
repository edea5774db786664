//! Modified nodal analysis (MNA) assembly.
//!
//! Produces the system of the paper's Eq. (1):
//!
//! ```text
//! C x'(t) = -G x(t) + B u(t)
//! ```
//!
//! with unknowns `x = [node voltages | inductor currents | vsource
//! currents]` and one input column per independent source.

use crate::{CircuitError, Element, Netlist, SourceKind};
use matex_sparse::{CooMatrix, CsrMatrix, SparseCol};
use matex_waveform::{Fnv64, Waveform};
use std::sync::{Arc, OnceLock};

/// Metadata for one input (one column of `B`).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceInfo {
    /// Instance name from the netlist.
    pub name: String,
    /// Voltage or current source.
    pub kind: SourceKind,
    /// The source waveform.
    pub waveform: Waveform,
}

/// The assembled MNA system `C x' = -G x + B u(t)`.
///
/// # Example
///
/// ```
/// use matex_circuit::{Netlist, MnaSystem};
/// use matex_waveform::Waveform;
///
/// # fn main() -> Result<(), matex_circuit::CircuitError> {
/// let mut nl = Netlist::new();
/// let a = nl.node("a");
/// nl.add_isource("i1", Netlist::ground(), a, Waveform::Dc(1e-3))?;
/// nl.add_resistor("r1", a, Netlist::ground(), 1000.0)?;
/// nl.add_capacitor("c1", a, Netlist::ground(), 1e-12)?;
/// let sys = MnaSystem::assemble(&nl)?;
/// assert_eq!(sys.dim(), 1);
/// assert_eq!(sys.g().get(0, 0), 1e-3); // 1/R
/// assert_eq!(sys.c().get(0, 0), 1e-12);
/// # Ok(())
/// # }
/// ```
///
/// The matrices and row names sit behind [`Arc`]s, so the scenario
/// copies ([`MnaSystem::with_scaled_sources`] and friends) share
/// whatever they leave unchanged, and the two matrix fingerprints are
/// memoized (see [`MnaSystem::pattern_fingerprint`]).
#[derive(Debug, Clone)]
pub struct MnaSystem {
    g: Arc<CsrMatrix>,
    c: Arc<CsrMatrix>,
    b: Arc<CsrMatrix>,
    sources: Vec<SourceInfo>,
    num_nodes: usize,
    num_inductors: usize,
    num_vsources: usize,
    row_names: Arc<[String]>,
    /// [`MnaSystem::pattern_fingerprint`], computed on first use.
    pattern_fp: OnceLock<u64>,
    /// [`MnaSystem::value_fingerprint`], computed on first use.
    value_fp: OnceLock<u64>,
}

impl MnaSystem {
    /// Assembles the MNA system from a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNetlist`] for an empty netlist
    /// (nothing to simulate).
    pub fn assemble(netlist: &Netlist) -> Result<Self, CircuitError> {
        let nv = netlist.num_nodes();
        if nv == 0 {
            return Err(CircuitError::InvalidNetlist(
                "netlist has no non-ground nodes".into(),
            ));
        }
        let mut nl_count = 0usize;
        let mut vs_count = 0usize;
        for e in netlist.elements() {
            match e {
                Element::Inductor { .. } => nl_count += 1,
                Element::VSource { .. } => vs_count += 1,
                _ => {}
            }
        }
        let dim = nv + nl_count + vs_count;
        let num_sources = netlist.num_sources();
        let mut g = CooMatrix::with_capacity(dim, dim, 4 * netlist.num_elements());
        let mut c = CooMatrix::with_capacity(dim, dim, 4 * netlist.num_elements());
        let mut b = CooMatrix::with_capacity(dim, num_sources, 2 * num_sources);
        let mut sources = Vec::with_capacity(num_sources);
        let mut row_names: Vec<String> = netlist.node_names().map(|s| s.to_string()).collect();

        let mut l_row = nv; // next inductor branch row
        let mut v_row = nv + nl_count; // next vsource branch row
        let mut src_col = 0usize;

        for e in netlist.elements() {
            match e {
                Element::Resistor { a, b: nb, ohms, .. } => {
                    let gval = 1.0 / ohms;
                    stamp_conductance(&mut g, a.mna_index(), nb.mna_index(), gval);
                }
                Element::Capacitor {
                    a, b: nb, farads, ..
                } => {
                    stamp_conductance(&mut c, a.mna_index(), nb.mna_index(), *farads);
                }
                Element::Inductor {
                    a,
                    b: nb,
                    henries,
                    name,
                } => {
                    let row = l_row;
                    l_row += 1;
                    row_names.push(format!("i({name})"));
                    // KCL: branch current leaves `a`, enters `b`.
                    if let Some(ia) = a.mna_index() {
                        g.push(ia, row, 1.0);
                    }
                    if let Some(ib) = nb.mna_index() {
                        g.push(ib, row, -1.0);
                    }
                    // Branch: L di/dt = v_a - v_b  →  C[row,row] = L,
                    // G[row, a] = -1, G[row, b] = +1.
                    c.push(row, row, *henries);
                    if let Some(ia) = a.mna_index() {
                        g.push(row, ia, -1.0);
                    }
                    if let Some(ib) = nb.mna_index() {
                        g.push(row, ib, 1.0);
                    }
                }
                Element::VSource {
                    pos,
                    neg,
                    waveform,
                    name,
                } => {
                    let row = v_row;
                    v_row += 1;
                    row_names.push(format!("i({name})"));
                    // KCL: branch current leaves `pos`, enters `neg`.
                    if let Some(ip) = pos.mna_index() {
                        g.push(ip, row, 1.0);
                    }
                    if let Some(in_) = neg.mna_index() {
                        g.push(in_, row, -1.0);
                    }
                    // Branch: v_pos - v_neg = E(t)  →  G[row, pos] = 1,
                    // G[row, neg] = -1, B[row, col] = 1.
                    if let Some(ip) = pos.mna_index() {
                        g.push(row, ip, 1.0);
                    }
                    if let Some(in_) = neg.mna_index() {
                        g.push(row, in_, -1.0);
                    }
                    b.push(row, src_col, 1.0);
                    sources.push(SourceInfo {
                        name: name.clone(),
                        kind: SourceKind::Voltage,
                        waveform: waveform.clone(),
                    });
                    src_col += 1;
                }
                Element::ISource {
                    from,
                    to,
                    waveform,
                    name,
                } => {
                    // Injection: -u at `from`, +u at `to`.
                    if let Some(i) = from.mna_index() {
                        b.push(i, src_col, -1.0);
                    }
                    if let Some(i) = to.mna_index() {
                        b.push(i, src_col, 1.0);
                    }
                    sources.push(SourceInfo {
                        name: name.clone(),
                        kind: SourceKind::Current,
                        waveform: waveform.clone(),
                    });
                    src_col += 1;
                }
            }
        }
        Ok(MnaSystem {
            g: Arc::new(g.to_csr()),
            c: Arc::new(c.to_csr()),
            b: Arc::new(b.to_csr()),
            sources,
            num_nodes: nv,
            num_inductors: nl_count,
            num_vsources: vs_count,
            row_names: row_names.into(),
            pattern_fp: OnceLock::new(),
            value_fp: OnceLock::new(),
        })
    }

    /// System dimension (nodes + inductor currents + vsource currents).
    pub fn dim(&self) -> usize {
        self.num_nodes + self.num_inductors + self.num_vsources
    }

    /// Number of non-ground node unknowns.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of inductor branch unknowns.
    pub fn num_inductors(&self) -> usize {
        self.num_inductors
    }

    /// Number of voltage-source branch unknowns.
    pub fn num_vsources(&self) -> usize {
        self.num_vsources
    }

    /// The conductance matrix `G`.
    pub fn g(&self) -> &CsrMatrix {
        &self.g
    }

    /// The capacitance/inductance matrix `C`.
    pub fn c(&self) -> &CsrMatrix {
        &self.c
    }

    /// The input selector matrix `B` (`dim × num_sources`).
    pub fn b(&self) -> &CsrMatrix {
        &self.b
    }

    /// Per-column source metadata.
    pub fn sources(&self) -> &[SourceInfo] {
        &self.sources
    }

    /// Number of independent sources (columns of `B`).
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// The waveforms in column order (cloned).
    pub fn source_waveforms(&self) -> Vec<Waveform> {
        self.sources.iter().map(|s| s.waveform.clone()).collect()
    }

    /// Evaluates the full input vector `u(t)`.
    pub fn input_at(&self, t: f64) -> Vec<f64> {
        self.sources.iter().map(|s| s.waveform.value(t)).collect()
    }

    /// Allocation-free variant of [`MnaSystem::input_at`].
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != num_sources()`.
    pub fn input_into(&self, t: f64, u: &mut [f64]) {
        assert_eq!(u.len(), self.sources.len(), "input_into: u length mismatch");
        for (slot, s) in u.iter_mut().zip(&self.sources) {
            *slot = s.waveform.value(t);
        }
    }

    /// Evaluates `u(t)` into `u` with only the listed source columns
    /// active; all other entries are zero. This is the superposition mask
    /// used by distributed MATEX subtasks.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != num_sources()`.
    pub fn input_masked_into(&self, t: f64, members: &[usize], u: &mut [f64]) {
        assert_eq!(
            u.len(),
            self.sources.len(),
            "input_masked_into: u length mismatch"
        );
        u.fill(0.0);
        for &m in members {
            u[m] = self.sources[m].waveform.value(t);
        }
    }

    /// Computes `B u(t)` into a dense right-hand-side vector.
    pub fn bu_at(&self, t: f64) -> Vec<f64> {
        self.b.matvec(&self.input_at(t))
    }

    /// Human-readable name of an unknown (node name or `i(branch)`).
    ///
    /// # Panics
    ///
    /// Panics if `row >= dim()`.
    pub fn row_name(&self, row: usize) -> &str {
        &self.row_names[row]
    }

    /// Row index of the node with the given (lower-case) name, if any.
    pub fn node_row(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.row_names[..self.num_nodes]
            .iter()
            .position(|n| *n == lower)
    }

    /// Rows of `C` that are entirely zero (structurally singular part).
    ///
    /// Nonempty for circuits with cap-less nodes or voltage sources; the
    /// paper's MEXP variant requires regularization in that case, while
    /// I-MATEX / R-MATEX do not (Sec. 3.3.3).
    pub fn zero_c_rows(&self) -> Vec<usize> {
        (0..self.dim())
            .filter(|&r| self.c.row_values(r).iter().all(|&v| v == 0.0))
            .collect()
    }

    /// Canonical fingerprint of the MNA *sparsity structure*: dimensions
    /// plus the nonzero patterns of `G`, `C`, and `B`.
    ///
    /// Two systems with equal pattern fingerprints admit the same
    /// symbolic LU analyses and solve schedules — this is the cache key
    /// a scenario engine uses to amortize structural work across jobs
    /// whose element *values* or source waveforms differ.
    ///
    /// Memoized: hashed on first use (never by
    /// [`MnaSystem::assemble`]) and kept for the life of the system.
    /// The scenario copies inherit it — every copy keeps the pattern —
    /// so a warm service job hashes nothing.
    pub fn pattern_fingerprint(&self) -> u64 {
        *self.pattern_fp.get_or_init(|| {
            let mut h = Fnv64::new();
            h.write_usize(self.num_nodes);
            h.write_usize(self.num_inductors);
            h.write_usize(self.num_vsources);
            h.write_usize(self.sources.len());
            for m in [&*self.g, &*self.c, &*self.b] {
                hash_pattern(m, &mut h);
            }
            h.finish()
        })
    }

    /// Fingerprint of structure *and* numeric content of `G`, `C`, `B`
    /// (bit patterns of every stored value on top of
    /// [`MnaSystem::pattern_fingerprint`]). Source waveforms are **not**
    /// included — factorizations and DC matrices depend only on the
    /// matrices, so scenario overrides that rescale or swap waveforms
    /// keep this fingerprint (see [`MnaSystem::source_fingerprint`]).
    ///
    /// Memoized like the pattern fingerprint.
    /// [`MnaSystem::with_source_waveforms`] and
    /// [`MnaSystem::with_scaled_sources`] inherit it;
    /// [`MnaSystem::with_cap_scaled`] and
    /// [`MnaSystem::with_conductance_delta`] change a value, so their
    /// copies hash theirs afresh on first use.
    pub fn value_fingerprint(&self) -> u64 {
        *self.value_fp.get_or_init(|| {
            let mut h = Fnv64::new();
            h.write_u64(self.pattern_fingerprint());
            for m in [&*self.g, &*self.c, &*self.b] {
                for r in 0..m.nrows() {
                    h.write_f64s(m.row_values(r));
                }
            }
            h.finish()
        })
    }

    /// Fingerprint of the input side: every source's kind and waveform
    /// parameters, in column order. Together with
    /// [`MnaSystem::value_fingerprint`] this identifies a transient
    /// problem completely (up to the analysis spec).
    pub fn source_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(self.sources.len());
        for s in &self.sources {
            h.write_u8(match s.kind {
                SourceKind::Voltage => 0,
                SourceKind::Current => 1,
            });
            s.waveform.fingerprint(&mut h);
        }
        h.finish()
    }

    /// A copy of this system with the source waveforms replaced, column
    /// by column. Matrices, source kinds, and names are untouched, so
    /// the structural and value fingerprints are preserved — the
    /// scenario-override primitive of the service layer. Only the
    /// sources are copied: the matrices and row names are shared, and
    /// both fingerprints are computed here (once, on `self`) and
    /// inherited.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNetlist`] when the waveform count
    /// differs from [`MnaSystem::num_sources`].
    pub fn with_source_waveforms(&self, waveforms: Vec<Waveform>) -> Result<Self, CircuitError> {
        if waveforms.len() != self.sources.len() {
            return Err(CircuitError::InvalidNetlist(format!(
                "waveform rebind: {} waveforms for {} sources",
                waveforms.len(),
                self.sources.len()
            )));
        }
        // Hashed once, here, so that the copy inherits both keys.
        self.value_fingerprint();
        let mut out = self.clone();
        for (s, w) in out.sources.iter_mut().zip(waveforms) {
            s.waveform = w;
        }
        Ok(out)
    }

    /// A copy of this system with every source waveform scaled by `k`
    /// ([`Waveform::scaled`]): the uniform load-scaling scenario. Shares
    /// the matrices and inherits both fingerprints, as
    /// [`MnaSystem::with_source_waveforms`] does.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNetlist`] when `k` is not finite.
    pub fn with_scaled_sources(&self, k: f64) -> Result<Self, CircuitError> {
        let scaled: Result<Vec<Waveform>, _> =
            self.sources.iter().map(|s| s.waveform.scaled(k)).collect();
        let scaled = scaled
            .map_err(|e| CircuitError::InvalidNetlist(format!("source scaling failed: {e}")))?;
        self.with_source_waveforms(scaled)
    }

    /// A copy of this system with the ground capacitance at `row`
    /// scaled by `factor` — the "tune/add a decap at this node" what-if
    /// edit. Only the `C[row, row]` diagonal changes, so the sparsity
    /// pattern (and [`MnaSystem::pattern_fingerprint`], inherited) is
    /// preserved while [`MnaSystem::value_fingerprint`] changes (the
    /// copy hashes its own on first use). `G`, `B` and the row names
    /// are shared; `C` is copied.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNetlist`] when `factor` is not a
    /// positive finite number, `row` is not a node row, or the node has
    /// no stored capacitance to scale.
    pub fn with_cap_scaled(&self, row: usize, factor: f64) -> Result<Self, CircuitError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(CircuitError::InvalidNetlist(format!(
                "cap scale factor must be positive and finite, got {factor}"
            )));
        }
        if row >= self.num_nodes {
            return Err(CircuitError::InvalidNetlist(format!(
                "cap edit row {row} is not a node row (nodes: {})",
                self.num_nodes
            )));
        }
        let mut out = self.value_edit();
        match csr_entry_mut(Arc::make_mut(&mut out.c), row, row) {
            Some(v) if *v != 0.0 => *v *= factor,
            _ => {
                return Err(CircuitError::InvalidNetlist(format!(
                    "node row {row} has no capacitance to scale"
                )))
            }
        }
        Ok(out)
    }

    /// A copy of this system with `dg` added to the conductance between
    /// node rows `a` and `b` (ground when `None`) — the "change one R"
    /// what-if edit. All four stamp entries must already exist in `G`'s
    /// pattern, so the fingerprinted structure is preserved (the pattern
    /// fingerprint is inherited, the value fingerprint hashed afresh).
    /// `C`, `B` and the row names are shared; `G` is copied.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidNetlist`] when `dg` is not
    /// finite, a row is out of range, or a stamp entry is absent from
    /// the pattern.
    pub fn with_conductance_delta(
        &self,
        a: Option<usize>,
        b: Option<usize>,
        dg: f64,
    ) -> Result<Self, CircuitError> {
        if !dg.is_finite() {
            return Err(CircuitError::InvalidNetlist(format!(
                "conductance delta must be finite, got {dg}"
            )));
        }
        for r in [a, b].into_iter().flatten() {
            if r >= self.num_nodes {
                return Err(CircuitError::InvalidNetlist(format!(
                    "conductance edit row {r} is not a node row (nodes: {})",
                    self.num_nodes
                )));
            }
        }
        let mut out = self.value_edit();
        let g = Arc::make_mut(&mut out.g);
        let mut bump = |r: usize, c: usize, v: f64| match csr_entry_mut(g, r, c) {
            Some(e) => {
                *e += v;
                Ok(())
            }
            None => Err(CircuitError::InvalidNetlist(format!(
                "G has no stored entry at ({r}, {c}) to edit"
            ))),
        };
        if let Some(i) = a {
            bump(i, i, dg)?;
        }
        if let Some(j) = b {
            bump(j, j, dg)?;
        }
        if let (Some(i), Some(j)) = (a, b) {
            bump(i, j, -dg)?;
            bump(j, i, -dg)?;
        }
        Ok(out)
    }

    /// A copy about to have a matrix value edited: it shares every
    /// matrix (the edit copies the one it writes through
    /// [`Arc::make_mut`]), inherits the pattern fingerprint (hashed here
    /// if it was not yet) and hashes its value fingerprint afresh.
    fn value_edit(&self) -> MnaSystem {
        self.pattern_fingerprint();
        let mut out = self.clone();
        out.value_fp = OnceLock::new();
        out
    }

    /// The sparse value edit set turning `base` into `self`, for the
    /// Sherman–Morrison–Woodbury what-if fast path.
    ///
    /// Guarded by the existing fingerprints: returns `None` when the
    /// sparsity patterns differ ([`MnaSystem::pattern_fingerprint`]
    /// mismatch — a structural change cannot be a value edit), and
    /// short-circuits to an empty diff when the value fingerprints
    /// match. Otherwise walks the shared `G`/`C` patterns once and
    /// records per-row deltas (`self − base`), so the edit's rank is
    /// the number of **touched rows** (stamp structure), not the number
    /// of changed entries. `B` differences are deliberately ignored:
    /// `B` is never factored, so they need no correction.
    pub fn value_diff(&self, base: &MnaSystem) -> Option<ValueDiff> {
        if self.dim() != base.dim() || self.pattern_fingerprint() != base.pattern_fingerprint() {
            return None;
        }
        let dim = self.dim();
        if self.value_fingerprint() == base.value_fingerprint() {
            return Some(ValueDiff {
                dim,
                g_rows: Vec::new(),
                c_rows: Vec::new(),
            });
        }
        let g_rows = diff_rows(&self.g, &base.g)?;
        let c_rows = diff_rows(&self.c, &base.c)?;
        Some(ValueDiff {
            dim,
            g_rows,
            c_rows,
        })
    }
}

/// Mutable access to a stored CSR entry, if present in the pattern.
fn csr_entry_mut(m: &mut CsrMatrix, r: usize, c: usize) -> Option<&mut f64> {
    let pos = m.row_indices(r).iter().position(|&cc| cc == c)?;
    Some(&mut m.row_values_mut(r)[pos])
}

/// Per-row value deltas `new − base` over a shared pattern, ascending
/// row order, each row's entries in stored (ascending column) order.
/// `None` when the patterns turn out to differ after all (fingerprint
/// collision safety net).
fn diff_rows(new: &CsrMatrix, base: &CsrMatrix) -> Option<Vec<(usize, SparseCol)>> {
    let mut rows = Vec::new();
    for r in 0..new.nrows() {
        let (ni, nv) = (new.row_indices(r), new.row_values(r));
        let (bi, bv) = (base.row_indices(r), base.row_values(r));
        if ni != bi {
            return None;
        }
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for ((&c, &a), &b) in ni.iter().zip(nv).zip(bv) {
            if a.to_bits() != b.to_bits() {
                let d = a - b;
                if d != 0.0 {
                    entries.push((c, d));
                }
            }
        }
        if !entries.is_empty() {
            rows.push((r, entries));
        }
    }
    Some(rows)
}

/// A sparse value edit set between two same-pattern [`MnaSystem`]s
/// (produced by [`MnaSystem::value_diff`]): per-row deltas of `G` and
/// `C`, exposed as the `U`/`V` column pairs of a rank-`k` update
/// `A' = A + U·Vᵀ` with `k` = touched-row count.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueDiff {
    dim: usize,
    /// Touched rows of `ΔG` with their delta entries, ascending.
    g_rows: Vec<(usize, SparseCol)>,
    /// Touched rows of `ΔC` with their delta entries, ascending.
    c_rows: Vec<(usize, SparseCol)>,
}

/// The `U`/`V` column pairs of a rank-`k` edit `A' = A + U·Vᵀ`, in the
/// form [`matex_sparse::SmwUpdate::build`] consumes.
pub(crate) type UpdateCols = (Vec<SparseCol>, Vec<SparseCol>);

impl ValueDiff {
    /// Dimension of the differed systems.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows touched in `G`.
    pub fn rank_g(&self) -> usize {
        self.g_rows.len()
    }

    /// Number of rows touched in `C`.
    pub fn rank_c(&self) -> usize {
        self.c_rows.len()
    }

    /// Rank of the widest correction any solver path needs: the number
    /// of rows touched in `G` *or* `C` (their union — the shifted
    /// system `C + γG` inherits every touched row).
    pub fn rank(&self) -> usize {
        let (mut i, mut j, mut count) = (0, 0, 0);
        while i < self.g_rows.len() || j < self.c_rows.len() {
            let gr = self.g_rows.get(i).map(|e| e.0).unwrap_or(usize::MAX);
            let cr = self.c_rows.get(j).map(|e| e.0).unwrap_or(usize::MAX);
            if gr <= cr {
                i += 1;
            }
            if cr <= gr {
                j += 1;
            }
            count += 1;
        }
        count
    }

    /// The edit columns for `G_new = G_base + U·Vᵀ`: `U` holds one unit
    /// column per touched row, `V` the matching delta rows.
    pub fn g_update(&self) -> UpdateCols {
        rows_to_update(&self.g_rows)
    }

    /// The edit columns for `C_new = C_base + U·Vᵀ`.
    pub fn c_update(&self) -> UpdateCols {
        rows_to_update(&self.c_rows)
    }

    /// The edit columns for the shifted system
    /// `(C + γG)_new = (C + γG)_base + U·Vᵀ`: touched rows are the
    /// union of both matrices' touched rows, each delta row
    /// `ΔC[r, :] + γ·ΔG[r, :]`.
    pub fn shifted_update(&self, gamma: f64) -> UpdateCols {
        rows_to_update(&merge_touched(&self.c_rows, &self.g_rows, 1.0, gamma))
    }
}

/// Turns per-row deltas into SMW `U`/`V` columns: `U[:, k] = e_{row_k}`,
/// `V[:, k] = delta_row_kᵀ`.
fn rows_to_update(rows: &[(usize, SparseCol)]) -> UpdateCols {
    let u = rows.iter().map(|&(r, _)| vec![(r, 1.0)]).collect();
    let v = rows.iter().map(|(_, entries)| entries.clone()).collect();
    (u, v)
}

/// Merges two per-row delta sets into `alpha·first + beta·second`,
/// ascending rows, each row's entries merged in ascending column order.
fn merge_touched(
    first: &[(usize, SparseCol)],
    second: &[(usize, SparseCol)],
    alpha: f64,
    beta: f64,
) -> Vec<(usize, Vec<(usize, f64)>)> {
    let mut out: Vec<(usize, Vec<(usize, f64)>)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < first.len() || j < second.len() {
        let take_first = j >= second.len() || (i < first.len() && first[i].0 <= second[j].0);
        let take_second = i >= first.len() || (j < second.len() && second[j].0 <= first[i].0);
        let row = if take_first { first[i].0 } else { second[j].0 };
        let mut entries: Vec<(usize, f64)> = Vec::new();
        let empty: Vec<(usize, f64)> = Vec::new();
        let fe = if take_first { &first[i].1 } else { &empty };
        let se = if take_second { &second[j].1 } else { &empty };
        let (mut p, mut q) = (0, 0);
        while p < fe.len() || q < se.len() {
            let fc = fe.get(p).map(|e| e.0).unwrap_or(usize::MAX);
            let sc = se.get(q).map(|e| e.0).unwrap_or(usize::MAX);
            let (col, val) = if fc < sc {
                p += 1;
                (fc, alpha * fe[p - 1].1)
            } else if sc < fc {
                q += 1;
                (sc, beta * se[q - 1].1)
            } else {
                p += 1;
                q += 1;
                (fc, alpha * fe[p - 1].1 + beta * se[q - 1].1)
            };
            if val != 0.0 {
                entries.push((col, val));
            }
        }
        if take_first {
            i += 1;
        }
        if take_second {
            j += 1;
        }
        if !entries.is_empty() {
            out.push((row, entries));
        }
    }
    out
}

/// Feeds a CSR matrix's shape and nonzero pattern into a hasher.
fn hash_pattern(m: &CsrMatrix, h: &mut Fnv64) {
    h.write_usize(m.nrows());
    h.write_usize(m.ncols());
    h.write_usizes(m.indptr());
    for r in 0..m.nrows() {
        h.write_usizes(m.row_indices(r));
    }
}

/// Symmetric two-terminal stamp into a COO matrix.
fn stamp_conductance(m: &mut CooMatrix, a: Option<usize>, b: Option<usize>, val: f64) {
    if let Some(i) = a {
        m.push(i, i, val);
    }
    if let Some(j) = b {
        m.push(j, j, val);
    }
    if let (Some(i), Some(j)) = (a, b) {
        m.push(i, j, -val);
        m.push(j, i, -val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;
    use matex_sparse::{LuOptions, SparseLu};

    #[test]
    fn voltage_divider_dc() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let out = nl.node("out");
        nl.add_vsource("vs", vdd, Netlist::ground(), Waveform::Dc(1.8))
            .unwrap();
        nl.add_resistor("r1", vdd, out, 100.0).unwrap();
        nl.add_resistor("r2", out, Netlist::ground(), 100.0)
            .unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        assert_eq!(sys.dim(), 3);
        // Solve G x = B u(0).
        let lu = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let x = lu.solve(&sys.bu_at(0.0));
        let out_row = sys.node_row("out").unwrap();
        let vdd_row = sys.node_row("vdd").unwrap();
        assert!((x[vdd_row] - 1.8).abs() < 1e-12);
        assert!((x[out_row] - 0.9).abs() < 1e-12);
        // Source current = -9 mA (flows out of + terminal).
        assert!((x[2] + 0.009).abs() < 1e-12);
    }

    #[test]
    fn current_source_direction() {
        // 1 mA pushed from ground into node a with 1 kΩ to ground: +1 V.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_isource("i1", Netlist::ground(), a, Waveform::Dc(1e-3))
            .unwrap();
        nl.add_resistor("r1", a, Netlist::ground(), 1000.0).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let lu = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let x = lu.solve(&sys.bu_at(0.0));
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inductor_is_dc_short() {
        // V source -> R -> L -> ground: at DC the inductor row forces
        // v_mid = 0 ... actually v_a - v_b = 0 across the inductor.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let m = nl.node("m");
        nl.add_vsource("v", a, Netlist::ground(), Waveform::Dc(1.0))
            .unwrap();
        nl.add_resistor("r", a, m, 50.0).unwrap();
        nl.add_inductor("l", m, Netlist::ground(), 1e-9).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        assert_eq!(sys.dim(), 4); // 2 nodes + 1 inductor + 1 vsource
        let lu = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let x = lu.solve(&sys.bu_at(0.0));
        let m_row = sys.node_row("m").unwrap();
        assert!(x[m_row].abs() < 1e-12, "inductor should short m to ground");
        // Current through the inductor = 1/50 A.
        let il_row = sys.num_nodes(); // first branch row
        assert!((x[il_row] - 0.02).abs() < 1e-12);
    }

    #[test]
    fn masked_input_zeroes_others() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_isource("i1", Netlist::ground(), a, Waveform::Dc(1.0))
            .unwrap();
        nl.add_isource("i2", Netlist::ground(), a, Waveform::Dc(2.0))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 1.0).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        assert_eq!(sys.input_at(0.0), vec![1.0, 2.0]);
        let mut u = vec![7.0; 2];
        sys.input_masked_into(0.0, &[1], &mut u);
        assert_eq!(u, vec![0.0, 2.0]);
    }

    #[test]
    fn zero_c_rows_reported() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_capacitor("c", a, Netlist::ground(), 1e-12).unwrap();
        nl.add_resistor("r", a, b, 1.0).unwrap();
        nl.add_resistor("r2", b, Netlist::ground(), 1.0).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        // Node b has no capacitor: its C row is empty.
        assert_eq!(sys.zero_c_rows(), vec![1]);
    }

    #[test]
    fn empty_netlist_rejected() {
        let nl = Netlist::new();
        assert!(MnaSystem::assemble(&nl).is_err());
    }

    #[test]
    fn fingerprints_separate_structure_values_and_sources() {
        let build = |ohms: f64, amps: f64| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            nl.add_isource("i1", Netlist::ground(), a, Waveform::Dc(amps))
                .unwrap();
            nl.add_resistor("r1", a, Netlist::ground(), ohms).unwrap();
            nl.add_capacitor("c1", a, Netlist::ground(), 1e-12).unwrap();
            MnaSystem::assemble(&nl).unwrap()
        };
        let base = build(1000.0, 1e-3);
        let same = build(1000.0, 1e-3);
        assert_eq!(base.pattern_fingerprint(), same.pattern_fingerprint());
        assert_eq!(base.value_fingerprint(), same.value_fingerprint());
        assert_eq!(base.source_fingerprint(), same.source_fingerprint());
        // Different element value: same pattern, different values.
        let revalued = build(500.0, 1e-3);
        assert_eq!(base.pattern_fingerprint(), revalued.pattern_fingerprint());
        assert_ne!(base.value_fingerprint(), revalued.value_fingerprint());
        // Different waveform: matrices identical, sources differ.
        let redriven = build(1000.0, 2e-3);
        assert_eq!(base.value_fingerprint(), redriven.value_fingerprint());
        assert_ne!(base.source_fingerprint(), redriven.source_fingerprint());
    }

    #[test]
    fn scenario_rebind_preserves_matrix_fingerprints() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_isource("i1", Netlist::ground(), a, Waveform::Dc(1e-3))
            .unwrap();
        nl.add_resistor("r1", a, Netlist::ground(), 1000.0).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let scaled = sys.with_scaled_sources(2.0).unwrap();
        assert_eq!(sys.value_fingerprint(), scaled.value_fingerprint());
        assert_ne!(sys.source_fingerprint(), scaled.source_fingerprint());
        assert_eq!(scaled.input_at(0.0), vec![2e-3]);
        // Rebind validates the column count.
        assert!(sys.with_source_waveforms(vec![]).is_err());
        let swapped = sys.with_source_waveforms(vec![Waveform::Dc(5.0)]).unwrap();
        assert_eq!(swapped.input_at(0.0), vec![5.0]);
        assert!(sys.with_scaled_sources(f64::INFINITY).is_err());
    }

    #[test]
    fn row_names_cover_branches() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_vsource("vs", a, Netlist::ground(), Waveform::Dc(1.0))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 1.0).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        assert_eq!(sys.row_name(0), "a");
        assert_eq!(sys.row_name(1), "i(vs)");
    }

    /// Applies `U·Vᵀ` (from a [`ValueDiff`] update) to a dense vector:
    /// `out += U (Vᵀ x)`.
    fn apply_update(u: &[Vec<(usize, f64)>], v: &[Vec<(usize, f64)>], x: &[f64], out: &mut [f64]) {
        for (ucol, vcol) in u.iter().zip(v) {
            let dot: f64 = vcol.iter().map(|&(r, val)| val * x[r]).sum();
            for &(r, val) in ucol {
                out[r] += val * dot;
            }
        }
    }

    fn pdn_pair() -> (MnaSystem, MnaSystem) {
        let base = crate::PdnBuilder::new(6, 6)
            .num_loads(4)
            .seed(77)
            .build()
            .unwrap();
        let variant = base.with_cap_scaled(7, 3.0).unwrap();
        (base, variant)
    }

    #[test]
    fn value_diff_no_change_short_circuits() {
        let (base, _) = pdn_pair();
        let diff = base.value_diff(&base).expect("same system diffs");
        assert_eq!(diff.rank(), 0);
        // Source overrides keep the matrices identical too.
        let scaled = base.with_scaled_sources(1.5).unwrap();
        assert_eq!(scaled.value_diff(&base).unwrap().rank(), 0);
    }

    #[test]
    fn value_diff_decap_add_is_rank_one() {
        let (base, variant) = pdn_pair();
        assert_eq!(base.pattern_fingerprint(), variant.pattern_fingerprint());
        assert_ne!(base.value_fingerprint(), variant.value_fingerprint());
        let diff = variant.value_diff(&base).expect("same pattern diffs");
        assert_eq!(diff.rank_g(), 0, "cap edit must not touch G");
        assert_eq!(diff.rank_c(), 1);
        assert_eq!(diff.rank(), 1);
        // C_variant = C_base + U·Vᵀ exactly.
        let n = base.dim();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let (u, v) = diff.c_update();
        let mut got = base.c().matvec(&x);
        apply_update(&u, &v, &x, &mut got);
        let want = variant.c().matvec(&x);
        for (p, q) in got.iter().zip(&want) {
            assert!((p - q).abs() <= 1e-18, "{p} vs {q}");
        }
    }

    #[test]
    fn value_diff_single_r_change_has_stamp_rank() {
        let base = crate::PdnBuilder::new(6, 6)
            .num_loads(4)
            .seed(78)
            .build()
            .unwrap();
        // Change one wire resistor: both endpoint rows touched → rank 2,
        // not 4 (the number of changed entries).
        let a = base
            .node_row(&crate::PdnBuilder::node_name(1, 1, 1))
            .unwrap();
        let b = base
            .node_row(&crate::PdnBuilder::node_name(1, 2, 1))
            .unwrap();
        let variant = base.with_conductance_delta(Some(a), Some(b), 0.7).unwrap();
        let diff = variant.value_diff(&base).expect("same pattern diffs");
        assert_eq!(diff.rank_g(), 2);
        assert_eq!(diff.rank_c(), 0);
        assert_eq!(diff.rank(), 2);
        let n = base.dim();
        let x: Vec<f64> = (0..n).map(|i| 0.5 - (i % 3) as f64).collect();
        let (u, v) = diff.g_update();
        let mut got = base.g().matvec(&x);
        apply_update(&u, &v, &x, &mut got);
        let want = variant.g().matvec(&x);
        for (p, q) in got.iter().zip(&want) {
            assert!((p - q).abs() <= 1e-12, "{p} vs {q}");
        }
        // The shifted-system update combines ΔC + γΔG over the union.
        let gamma = 1e-10;
        let (us, vs) = diff.shifted_update(gamma);
        assert_eq!(us.len(), 2);
        let shift_base =
            matex_sparse::CsrMatrix::linear_combination(1.0, base.c(), gamma, base.g()).unwrap();
        let shift_new =
            matex_sparse::CsrMatrix::linear_combination(1.0, variant.c(), gamma, variant.g())
                .unwrap();
        let mut got = shift_base.matvec(&x);
        apply_update(&us, &vs, &x, &mut got);
        let want = shift_new.matvec(&x);
        for (p, q) in got.iter().zip(&want) {
            assert!((p - q).abs() <= 1e-18, "{p} vs {q}");
        }
    }

    #[test]
    fn value_diff_rejects_structural_changes() {
        let (base, _) = pdn_pair();
        let other = crate::PdnBuilder::new(7, 6)
            .num_loads(4)
            .seed(77)
            .build()
            .unwrap();
        assert!(base.value_diff(&other).is_none());
    }

    #[test]
    fn edit_helpers_validate_input() {
        let (base, _) = pdn_pair();
        assert!(base.with_cap_scaled(7, 0.0).is_err());
        assert!(base.with_cap_scaled(base.dim() + 1, 2.0).is_err());
        assert!(base
            .with_conductance_delta(Some(0), Some(1), f64::NAN)
            .is_err());
        // Nodes 0 and 5 are not pattern-adjacent on a 6-wide grid row.
        assert!(base.with_conductance_delta(Some(0), Some(5), 0.1).is_err());
    }
}
