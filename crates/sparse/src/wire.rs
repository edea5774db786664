//! Binary wire codec for persisted factorization artifacts.
//!
//! The artifact store (`matex-store`) persists analyses and factors
//! across process restarts, so the byte format here is a *contract*:
//! little-endian fixed-width fields, length-prefixed vectors, and a
//! `usize ↔ u64` mapping that keeps the in-memory sentinel
//! `usize::MAX` (unpivoted markers) stable as `u64::MAX`. Every decode
//! is total — malformed input yields [`WireError`], never a panic —
//! because the store treats any decode failure as a cache miss.
//!
//! Encoding is value-preserving down to the bit: `f64`s round-trip via
//! [`f64::to_bits`], so a decoded factorization replays *bitwise
//! identically* to the factorization that was encoded.
//!
//! # Example
//!
//! ```
//! use matex_sparse::{WireReader, WireWriter};
//!
//! let mut w = WireWriter::new();
//! w.u64(7);
//! w.f64s(&[1.5, -0.25]);
//! let bytes = w.into_bytes();
//!
//! let mut r = WireReader::new(&bytes);
//! assert_eq!(r.u64().unwrap(), 7);
//! assert_eq!(r.f64s().unwrap(), vec![1.5, -0.25]);
//! assert!(r.is_empty());
//! ```

use crate::{CsrMatrix, LuOptions, OrderingKind, Permutation, SparseLu};

/// A wire decode failure. The store maps any variant to a cache miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field it promised.
    Truncated,
    /// The bytes decoded to a structurally invalid value.
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire record truncated"),
            WireError::Invalid(m) => write!(f, "invalid wire record: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian record builder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`, preserving the `usize::MAX` sentinel
    /// (unpivoted markers) as `u64::MAX`.
    pub fn usize(&mut self, v: usize) {
        if v == usize::MAX {
            self.u64(u64::MAX);
        } else {
            self.u64(v as u64);
        }
    }

    /// Appends an `f64` by bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed `usize` vector.
    pub fn usizes(&mut self, v: &[usize]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.usize(x);
        }
    }

    /// Appends a length-prefixed `f64` vector (bit patterns).
    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Finishes the record.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a wire record; every read is bounds-checked.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` (the `u64::MAX` sentinel maps back to
    /// `usize::MAX`).
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        if v == u64::MAX {
            return Ok(usize::MAX);
        }
        usize::try_from(v).map_err(|_| WireError::Invalid(format!("index {v} overflows usize")))
    }

    /// Reads a length prefix, refusing lengths the remaining buffer
    /// cannot possibly hold (`elem_size` bytes each) — so a corrupted
    /// prefix cannot trigger a huge allocation.
    fn vec_len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let len = self.usize()?;
        if len == usize::MAX
            || len
                .checked_mul(elem_size)
                .is_none_or(|b| b > self.remaining())
        {
            return Err(WireError::Invalid(format!(
                "vector length {len} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let len = self.vec_len(8)?;
        (0..len).map(|_| self.usize()).collect()
    }

    /// Reads a length-prefixed `f64` vector (bit patterns).
    pub fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let len = self.vec_len(8)?;
        (0..len).map(|_| self.f64()).collect()
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

impl OrderingKind {
    /// Stable wire tag for the ordering.
    pub fn wire_tag(self) -> u8 {
        match self {
            OrderingKind::Amd => 0,
            OrderingKind::Rcm => 1,
            OrderingKind::Natural => 2,
        }
    }

    /// Inverse of [`OrderingKind::wire_tag`].
    ///
    /// # Errors
    ///
    /// [`WireError::Invalid`] for an unknown tag.
    pub fn from_wire_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(OrderingKind::Amd),
            1 => Ok(OrderingKind::Rcm),
            2 => Ok(OrderingKind::Natural),
            t => Err(WireError::Invalid(format!("unknown ordering tag {t}"))),
        }
    }
}

impl LuOptions {
    /// Appends the options to `w`.
    pub fn wire_encode(&self, w: &mut WireWriter) {
        w.u8(self.ordering.wire_tag());
        w.f64(self.pivot_threshold);
        w.u8(self.equilibrate as u8);
        w.f64(self.pivot_tol);
    }

    /// Decodes options previously written by
    /// [`LuOptions::wire_encode`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or an unknown ordering tag.
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LuOptions {
            ordering: OrderingKind::from_wire_tag(r.u8()?)?,
            pivot_threshold: r.f64()?,
            equilibrate: r.u8()? != 0,
            pivot_tol: r.f64()?,
        })
    }
}

impl Permutation {
    /// Appends the permutation vector to `w`.
    pub fn wire_encode(&self, w: &mut WireWriter) {
        w.usizes(self.as_slice());
    }

    /// Decodes and re-validates a permutation.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or a non-bijective vector.
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Permutation::from_vec(r.usizes()?).map_err(|e| WireError::Invalid(e.to_string()))
    }
}

impl CsrMatrix {
    /// Appends the matrix (structure + values) to `w`.
    pub fn wire_encode(&self, w: &mut WireWriter) {
        w.usize(self.nrows());
        w.usize(self.ncols());
        w.usizes(self.indptr());
        w.u64(self.nnz() as u64);
        for r in 0..self.nrows() {
            for &c in self.row_indices(r) {
                w.usize(c);
            }
        }
        for r in 0..self.nrows() {
            for &v in self.row_values(r) {
                w.f64(v);
            }
        }
    }

    /// Decodes and structurally re-validates a matrix.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or an invalid CSR structure.
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nrows = r.usize()?;
        let ncols = r.usize()?;
        let indptr = r.usizes()?;
        let nnz = r.vec_len(16)?;
        let indices = (0..nnz).map(|_| r.usize()).collect::<Result<Vec<_>, _>>()?;
        let values = (0..nnz).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
        CsrMatrix::from_raw_parts(nrows, ncols, indptr, indices, values)
            .map_err(|e| WireError::Invalid(e.to_string()))
    }
}

impl SparseLu {
    /// Appends the numeric factors to `w`.
    pub fn wire_encode(&self, w: &mut WireWriter) {
        w.usize(self.n);
        w.usizes(&self.l_colptr);
        w.usizes(&self.l_rowidx);
        w.f64s(&self.l_values);
        w.usizes(&self.u_colptr);
        w.usizes(&self.u_rowidx);
        w.f64s(&self.u_values);
        w.usizes(&self.pinv);
        self.q.wire_encode(w);
        w.f64s(&self.rscale);
        w.f64s(&self.cscale);
    }

    /// Decodes factors previously written by
    /// [`SparseLu::wire_encode`]. The solve paths index through these
    /// vectors, so the decoded shapes are sanity-checked against `n`.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or inconsistent shapes.
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.usize()?;
        let lu = SparseLu {
            n,
            l_colptr: r.usizes()?,
            l_rowidx: r.usizes()?,
            l_values: r.f64s()?,
            u_colptr: r.usizes()?,
            u_rowidx: r.usizes()?,
            u_values: r.f64s()?,
            pinv: r.usizes()?,
            q: Permutation::wire_decode(r)?,
            rscale: r.f64s()?,
            cscale: r.f64s()?,
        };
        check_factor_shapes(&lu)?;
        Ok(lu)
    }
}

/// Shape validation for a decoded [`SparseLu`]: every index the solve
/// kernels will follow must land in bounds.
fn check_factor_shapes(lu: &SparseLu) -> Result<(), WireError> {
    let n = lu.n;
    let bad = |m: &str| Err(WireError::Invalid(m.to_string()));
    // Lengths first: `n` is bounded by a decoded vector before any
    // `n + 1` is formed.
    if lu.q.len() != n || lu.pinv.len() != n || lu.rscale.len() != n || lu.cscale.len() != n {
        return bad("factor permutation/scaling vectors have the wrong length");
    }
    if lu.l_colptr.len() != n + 1 || lu.u_colptr.len() != n + 1 {
        return bad("factor column pointers have the wrong length");
    }
    for (colptr, rowidx, values, name) in [
        (&lu.l_colptr, &lu.l_rowidx, &lu.l_values, "L"),
        (&lu.u_colptr, &lu.u_rowidx, &lu.u_values, "U"),
    ] {
        if rowidx.len() != values.len() {
            return bad("factor index/value lengths disagree");
        }
        // Every column holds at least its diagonal (L's unit first
        // entry, U's pivot last), so the pointers rise strictly.
        if colptr[0] != 0 || colptr.windows(2).any(|p| p[0] >= p[1]) || colptr[n] != rowidx.len() {
            return Err(WireError::Invalid(format!(
                "{name} column pointers are not strictly increasing over the entries"
            )));
        }
        if rowidx.iter().any(|&i| i >= n) {
            return Err(WireError::Invalid(format!("{name} row index out of range")));
        }
    }
    // A complete factorization pivots every row exactly once.
    if Permutation::from_vec(lu.pinv.clone()).is_err() {
        return bad("pivot permutation is not a permutation");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.0),
                (0, 2, -1.0),
                (1, 1, 3.5),
                (2, 0, -1.0),
                (2, 2, 2.25),
            ],
        )
    }

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.u8(9);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(usize::MAX); // sentinel
        w.f64(-0.0);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), usize::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.f64s(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(r.f64s().is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn corrupt_length_prefix_cannot_demand_a_huge_allocation() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX - 3); // absurd length prefix
        w.u64(0);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.usizes(), Err(WireError::Invalid(_))));
    }

    #[test]
    fn matrix_round_trips_bitwise() {
        let a = sample_matrix();
        let mut w = WireWriter::new();
        a.wire_encode(&mut w);
        let bytes = w.into_bytes();
        let b = CsrMatrix::wire_decode(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.nnz(), b.nnz());
        for row in 0..a.nrows() {
            assert_eq!(a.row_indices(row), b.row_indices(row));
            let (av, bv) = (a.row_values(row), b.row_values(row));
            assert!(av.iter().zip(bv).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn factors_round_trip_and_solve_identically() {
        let a = sample_matrix();
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let mut w = WireWriter::new();
        lu.wire_encode(&mut w);
        let bytes = w.into_bytes();
        let lu2 = SparseLu::wire_decode(&mut WireReader::new(&bytes)).unwrap();
        let x1 = lu.solve(&[1.0, 2.0, 3.0]);
        let x2 = lu2.solve(&[1.0, 2.0, 3.0]);
        assert!(x1.iter().zip(&x2).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn decoded_factor_shapes_are_validated() {
        let a = sample_matrix();
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let mut w = WireWriter::new();
        lu.wire_encode(&mut w);
        let mut bytes = w.into_bytes();
        // Flip a byte inside the L row-index region: decode must reject
        // (or produce an equal-shape factor, never panic).
        let cut = 8 + 8 + 8 * 4; // n + l_colptr prefix + 4 entries
        bytes[cut] ^= 0x80;
        let _ = SparseLu::wire_decode(&mut WireReader::new(&bytes));
    }

    #[test]
    fn options_and_permutations_round_trip() {
        for opts in [
            LuOptions::default(),
            LuOptions {
                pivot_threshold: 1.0,
                ..LuOptions::default()
            },
            LuOptions {
                ordering: OrderingKind::Natural,
                equilibrate: false,
                ..LuOptions::default()
            },
        ] {
            let mut w = WireWriter::new();
            opts.wire_encode(&mut w);
            let bytes = w.into_bytes();
            let back = LuOptions::wire_decode(&mut WireReader::new(&bytes)).unwrap();
            assert_eq!(back, opts);
        }
        let p = Permutation::from_vec(vec![2, 0, 3, 1]).unwrap();
        let mut w = WireWriter::new();
        p.wire_encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            Permutation::wire_decode(&mut WireReader::new(&bytes)).unwrap(),
            p
        );
        // A corrupted permutation is rejected by re-validation.
        let mut w = WireWriter::new();
        w.usizes(&[0, 0, 1]);
        let bytes = w.into_bytes();
        assert!(Permutation::wire_decode(&mut WireReader::new(&bytes)).is_err());
    }

    #[test]
    fn a_sentinel_dimension_is_an_error_not_an_overflow() {
        // 88 bytes: `n` = u64::MAX (the usize::MAX sentinel), then the
        // ten vectors of a factorization, all empty.
        let mut w = WireWriter::new();
        w.u64(u64::MAX);
        for _ in 0..10 {
            w.u64(0);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 88);
        assert!(matches!(
            SparseLu::wire_decode(&mut WireReader::new(&bytes)),
            Err(WireError::Invalid(_))
        ));
        // The same sentinel as a matrix's row count.
        let mut w = WireWriter::new();
        w.u64(u64::MAX); // nrows
        w.u64(0); // ncols
        w.usizes(&[]); // indptr
        w.u64(0); // nnz
        let bytes = w.into_bytes();
        assert!(matches!(
            CsrMatrix::wire_decode(&mut WireReader::new(&bytes)),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn decoded_factors_must_pivot_every_row_and_fill_every_column() {
        let lu = SparseLu::factor(&sample_matrix(), &LuOptions::default()).unwrap();
        assert!(check_factor_shapes(&lu).is_ok());
        for edit in [
            (|f: &mut SparseLu| f.pinv[1] = f.pinv[0]) as fn(&mut SparseLu),
            |f| f.pinv[2] = 3,
            // An empty L column: its pointer repeats the next one.
            |f| f.l_colptr[1] = f.l_colptr[2],
            // An empty U column.
            |f| f.u_colptr[1] = f.u_colptr[0],
            |f| f.u_rowidx[0] = 3,
        ] {
            let mut bad = lu.clone();
            edit(&mut bad);
            assert!(check_factor_shapes(&bad).is_err());
        }
    }
}
