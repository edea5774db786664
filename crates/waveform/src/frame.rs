//! Binary waveform stream frames: the service's only waveform framing.
//!
//! A `stream` response carries each chunk of a waveform as one
//! [`WaveFrame`] record: a little-endian length prefix followed by a
//! fixed header and the raw `f64` bit patterns of the chunk, so every
//! value arrives bit for bit with no decimal printing.
//!
//! Frames deliberately carry no job id, so two clients streaming the
//! same waveform can compare frames byte for byte.
//! [`WaveFrame::feed`] feeds the *decoded* content — header fields and
//! value bits — into an [`Fnv64`], so the hash is a pure function of the
//! waveform chunk.
//!
//! ```text
//! [payload_len: u64 LE]
//!   [frame: u64] [start: u64] [rows: u64] [count: u64]
//!   [times: count × f64 LE]
//!   [series: rows × count × f64 LE]
//! ```
//!
//! # Example
//!
//! ```
//! use matex_waveform::WaveFrame;
//!
//! let frame = WaveFrame {
//!     frame: 0,
//!     start: 0,
//!     times: vec![0.0, 1e-11],
//!     series: vec![vec![1.5, 2.5], vec![-0.5, 0.25]],
//! };
//! let bytes = frame.encode();
//! let (len, rest) = WaveFrame::decode_len(&bytes[..8]).unwrap();
//! assert_eq!(rest, 0);
//! let back = WaveFrame::decode_payload(&bytes[8..8 + len]).unwrap();
//! assert_eq!(back, frame);
//! ```

use crate::Fnv64;

/// A frame decode failure (truncated or inconsistent bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame decode error: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

/// One streamed waveform chunk: `count` output points starting at
/// global point index `start`, for `rows` observed nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveFrame {
    /// Frame index within the stream (0-based).
    pub frame: u64,
    /// Global index of the first point in this chunk.
    pub start: u64,
    /// Output times of the chunk (`count` entries).
    pub times: Vec<f64>,
    /// Per-row values, `rows × count`.
    pub series: Vec<Vec<f64>>,
}

impl WaveFrame {
    /// Points in this chunk.
    pub fn count(&self) -> usize {
        self.times.len()
    }

    /// Observed rows in this chunk.
    pub fn rows(&self) -> usize {
        self.series.len()
    }

    /// Encodes the frame as one length-prefixed binary record.
    pub fn encode(&self) -> Vec<u8> {
        let (rows, count) = (self.rows(), self.count());
        let payload_len = 8 * 4 + 8 * count + 8 * rows * count;
        let mut out = Vec::with_capacity(8 + payload_len);
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());
        out.extend_from_slice(&self.frame.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&(rows as u64).to_le_bytes());
        out.extend_from_slice(&(count as u64).to_le_bytes());
        for &t in &self.times {
            out.extend_from_slice(&t.to_bits().to_le_bytes());
        }
        for row in &self.series {
            debug_assert_eq!(row.len(), count, "ragged frame row");
            for &v in row {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Reads the 8-byte length prefix, returning the payload length and
    /// the leftover byte count of the input (0 when exactly a prefix was
    /// passed).
    ///
    /// # Errors
    ///
    /// [`FrameError`] when fewer than 8 bytes are available or the
    /// length is implausibly large (> 1 GiB — a corrupt prefix must not
    /// trigger a giant read).
    pub fn decode_len(buf: &[u8]) -> Result<(usize, usize), FrameError> {
        if buf.len() < 8 {
            return Err(FrameError("length prefix truncated".into()));
        }
        let len = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
        if len > 1 << 30 {
            return Err(FrameError(format!("implausible frame length {len}")));
        }
        Ok((len as usize, buf.len() - 8))
    }

    /// Decodes a frame payload (the bytes *after* the length prefix).
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the payload size disagrees with its header
    /// (including a header whose promised size overflows), or when a
    /// frame without points claims rows.
    pub fn decode_payload(buf: &[u8]) -> Result<WaveFrame, FrameError> {
        if buf.len() < 32 {
            return Err(FrameError("frame header truncated".into()));
        }
        let u64_at =
            |i: usize| u64::from_le_bytes(buf[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let frame = u64_at(0);
        let start = u64_at(1);
        let (rows, count) = (u64_at(2), u64_at(3));
        // 8 bytes for each of the 4 header words, `count` times and
        // `rows × count` values.
        let expect = rows
            .checked_add(1)
            .and_then(|r| r.checked_mul(count))
            .and_then(|v| v.checked_add(4))
            .and_then(|w| w.checked_mul(8));
        if expect != Some(buf.len() as u64) {
            return Err(FrameError(format!(
                "frame payload is {} bytes, header promises {rows} rows x {count} points",
                buf.len()
            )));
        }
        // Empty rows cost no bytes, so only a frame with points may
        // have them: `rows` then stays below `buf.len() / 8`.
        if count == 0 && rows > 0 {
            return Err(FrameError(format!("frame has {rows} rows but no points")));
        }
        let (rows, count) = (rows as usize, count as usize);
        let f64_at = |i: usize| f64::from_bits(u64_at(i));
        let times: Vec<f64> = (4..4 + count).map(f64_at).collect();
        let series: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                let base = 4 + count + r * count;
                (base..base + count).map(f64_at).collect()
            })
            .collect();
        Ok(WaveFrame {
            frame,
            start,
            times,
            series,
        })
    }

    /// Feeds the canonical content — header fields, then time and value
    /// bit patterns — into a hasher (for stream-wide running hashes).
    pub fn feed(&self, h: &mut Fnv64) {
        h.write_u64(self.frame);
        h.write_u64(self.start);
        h.write_usize(self.rows());
        h.write_usize(self.count());
        h.write_f64s(&self.times);
        for row in &self.series {
            h.write_f64s(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn content_hash(f: &WaveFrame) -> u64 {
        let mut h = Fnv64::new();
        f.feed(&mut h);
        h.finish()
    }

    fn sample() -> WaveFrame {
        WaveFrame {
            frame: 3,
            start: 96,
            times: vec![0.0, -0.0, 1.5e-10],
            series: vec![vec![1.0, 2.0, 3.0], vec![-1.0, f64::MIN_POSITIVE, 0.25]],
        }
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let f = sample();
        let bytes = f.encode();
        let (len, _) = WaveFrame::decode_len(&bytes[..8]).unwrap();
        assert_eq!(8 + len, bytes.len());
        let back = WaveFrame::decode_payload(&bytes[8..]).unwrap();
        assert_eq!(back.frame, f.frame);
        assert_eq!(back.start, f.start);
        assert!(back
            .times
            .iter()
            .zip(&f.times)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        for (br, fr) in back.series.iter().zip(&f.series) {
            assert!(br.iter().zip(fr).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        assert_eq!(content_hash(&back), content_hash(&f));
    }

    #[test]
    fn truncation_and_size_lies_are_errors() {
        let bytes = sample().encode();
        assert!(WaveFrame::decode_len(&bytes[..4]).is_err());
        assert!(WaveFrame::decode_payload(&bytes[8..bytes.len() - 1]).is_err());
        assert!(WaveFrame::decode_payload(&bytes[8..16]).is_err());
        // An absurd length prefix is rejected before any read.
        let huge = (u64::MAX / 2).to_le_bytes();
        assert!(WaveFrame::decode_len(&huge).is_err());
        // Headers whose promised size overflows, or wraps around to
        // the buffer's own size, or that claim rows without points.
        for (rows, count) in [
            (0, 1 << 62),
            (0, u64::MAX - 2),
            (1, 1 << 63),
            (u64::MAX, 1),
            (1 << 61, 1 << 3),
            (1 << 62, 0),
            (u64::MAX, 0),
        ] {
            let mut header = vec![0u8; 32];
            header[16..24].copy_from_slice(&rows.to_le_bytes());
            header[24..32].copy_from_slice(&count.to_le_bytes());
            let mut record = (header.len() as u64).to_le_bytes().to_vec();
            record.extend_from_slice(&header);
            assert_eq!(record.len(), 40);
            let (len, _) = WaveFrame::decode_len(&record[..8]).unwrap();
            assert!(
                WaveFrame::decode_payload(&record[8..8 + len]).is_err(),
                "{rows} rows x {count} points"
            );
        }
    }

    /// Feeds `bytes` through the decoder the way a client reads the
    /// wire; every input must decode or fail with a [`FrameError`],
    /// and a decoded frame holds no more values than its payload has
    /// 8-byte words.
    fn decode_checked(bytes: &[u8]) {
        let Ok((len, _)) = WaveFrame::decode_len(bytes) else {
            return;
        };
        for payload in [bytes.get(8..8 + len), bytes.get(8..)]
            .into_iter()
            .flatten()
        {
            if let Ok(f) = WaveFrame::decode_payload(payload) {
                let values = f.count() * (1 + f.rows());
                assert!(values <= payload.len() / 8, "{values} values");
                assert!(f.rows() <= payload.len() / 8, "{} rows", f.rows());
            }
        }
    }

    #[test]
    fn every_truncation_and_every_bit_flip_decodes_or_errors() {
        let pristine = WaveFrame {
            frame: 5,
            start: 160,
            times: (0..7).map(|i| i as f64 * 2e-11).collect(),
            series: (0..3)
                .map(|r| (0..7).map(|i| (r * 7 + i) as f64 * 0.125).collect())
                .collect(),
        }
        .encode();
        for cut in 0..=pristine.len() {
            decode_checked(&pristine[..cut]);
        }
        for pos in 0..pristine.len() {
            for bit in 0..8 {
                let mut bad = pristine.clone();
                bad[pos] ^= 1 << bit;
                decode_checked(&bad);
            }
        }
    }

    #[test]
    fn content_hash_is_encoding_independent_but_content_sensitive() {
        let f = sample();
        let same = WaveFrame::decode_payload(&f.encode()[8..]).unwrap();
        assert_eq!(content_hash(&f), content_hash(&same));
        let mut other = f.clone();
        other.series[1][2] = 0.250000001;
        assert_ne!(content_hash(&f), content_hash(&other));
        let mut moved = f.clone();
        moved.start += 1;
        assert_ne!(content_hash(&f), content_hash(&moved));
    }
}
