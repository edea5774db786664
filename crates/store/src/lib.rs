//! Disk-backed artifact store: fleet-shared reuse of expensive analyses.
//!
//! The MATEX framework is distributed — an analysis computed once should
//! be reusable by *every* process serving the same circuit, including a
//! restarted service. The in-memory `ArtifactCache` of `matex-serve`
//! dies with its process; an [`ArtifactStore`] persists the four
//! artifact classes the engine caches — [`MatexSymbolic`] analyses,
//! [`MatexSetup`] factor bundles, DC operating points, and
//! [`GroupPlan`] schedules — as versioned, checksummed binary records
//! keyed by the same content fingerprints the cache uses.
//!
//! The store is deliberately boring in the ways that matter:
//!
//! * **Atomic writes.** Records are written to a temp file and
//!   `rename`d into place, so concurrent writers (fleet members sharing
//!   a directory) and crashes can never publish a half-written record.
//! * **Corruption is a miss.** Every load re-verifies magic, schema
//!   version, class, embedded key, and an FNV-64 checksum over the
//!   whole record. Truncated, bit-flipped, or foreign files decode to
//!   `None` — never a panic, never garbage artifacts.
//! * **Versioned.** A bumped [`SCHEMA_VERSION`] silently invalidates
//!   old stores instead of misreading them.
//! * **Bitwise.** The payload codecs (see `matex_sparse::WireWriter`)
//!   round-trip every `f64` by bit pattern, so a run served from the
//!   store is bitwise-identical to the run that populated it.
//!
//! # Example
//!
//! ```
//! use matex_circuit::PdnBuilder;
//! use matex_core::TransientSpec;
//! use matex_dist::plan_groups;
//! use matex_store::{ArtifactStore, PlanStoreKey};
//! use matex_waveform::GroupingStrategy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("matex-store-doc-{}", std::process::id()));
//! let store = ArtifactStore::open(&dir)?;
//!
//! let sys = PdnBuilder::new(6, 6).num_loads(8).window(1e-9).build()?;
//! let spec = TransientSpec::new(0.0, 1e-9, 2e-11)?;
//! let plan = plan_groups(&sys, &spec, GroupingStrategy::ByBumpFeature);
//!
//! let key = PlanStoreKey {
//!     source_fp: 0x1234,
//!     strategy: 0,
//!     t_start_bits: spec.t_start().to_bits(),
//!     t_stop_bits: spec.t_stop().to_bits(),
//! };
//! store.save_plan(&key, &plan)?;
//! // A different process opening the same directory sees the record.
//! let restarted = ArtifactStore::open(&dir)?;
//! let back = restarted.load_plan(&key).expect("persisted plan");
//! assert_eq!(back.num_jobs(), plan.num_jobs());
//! assert_eq!(back.order(), plan.order());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use matex_core::{FaultHook, FaultKind, MatexSetup, MatexSymbolic};
use matex_dist::GroupPlan;
use matex_sparse::{WireReader, WireWriter};
use matex_waveform::Fnv64;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Record generation. Bumping it orphans (skips) every record an
/// older build wrote; old processes likewise skip newer records.
///
/// 2: the AMD ordering changed. Version-1 analyses pin the old pivot
/// order — still valid factorizations, but no longer bitwise what a
/// fresh analysis produces, which the store guarantees.
///
/// 3: setup records lost their two substitution-schedule flag bytes,
/// and setup keys their `scheduled` field.
pub const SCHEMA_VERSION: u32 = 3;

/// Leading magic of every record file.
const MAGIC: &[u8; 4] = b"MXST";

/// The artifact classes the store persists. The tag is part of both the
/// record and its filename, so one directory holds all classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ArtifactClass {
    /// A [`MatexSymbolic`] analysis bundle (pattern-keyed).
    Symbolic = 1,
    /// A [`MatexSetup`] factor bundle (value-keyed).
    Setup = 2,
    /// A DC operating point (value- and source-keyed).
    Dc = 3,
    /// A [`GroupPlan`] schedule (source-keyed).
    Plan = 4,
}

impl ArtifactClass {
    fn label(self) -> &'static str {
        match self {
            ArtifactClass::Symbolic => "symbolic",
            ArtifactClass::Setup => "setup",
            ArtifactClass::Dc => "dc",
            ArtifactClass::Plan => "plan",
        }
    }
}

/// Key of a symbolic analysis: the engine's anchor identity, in memory
/// and on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolicStoreKey {
    /// MNA pattern fingerprint.
    pub pattern_fp: u64,
    /// Krylov variant wire tag.
    pub kind_tag: u8,
    /// γ decade the anchor was analyzed at.
    pub gamma_decade: i32,
}

/// Key of a numeric setup: exact matrix values, variant, γ bits, and —
/// for MEXP, whose effective `C` depends on it — the regularization ε.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetupStoreKey {
    /// System value fingerprint.
    pub value_fp: u64,
    /// Krylov variant wire tag.
    pub kind_tag: u8,
    /// Bit pattern of γ.
    pub gamma_bits: u64,
    /// Bit pattern of the MEXP regularization ε.
    pub regularize_bits: u64,
    /// Ignored: every run uses a setup the same way, so nothing about
    /// it depends on how it will be run. The store leaves it out
    /// of record names and keys; it stays for existing callers, which
    /// should pass `false`.
    pub scheduled: bool,
}

/// Key of a DC operating point: matrix values, sources, start time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DcStoreKey {
    /// System value fingerprint.
    pub value_fp: u64,
    /// Source-waveform fingerprint.
    pub source_fp: u64,
    /// Bit pattern of the window start time.
    pub t_start_bits: u64,
}

/// Key of a group plan: sources, strategy, window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanStoreKey {
    /// Source-waveform fingerprint.
    pub source_fp: u64,
    /// Grouping-strategy tag (the engine's plan-cache convention).
    pub strategy: u64,
    /// Bit pattern of the window start time.
    pub t_start_bits: u64,
    /// Bit pattern of the window stop time.
    pub t_stop_bits: u64,
}

impl SymbolicStoreKey {
    fn fields(&self) -> Vec<u64> {
        vec![
            self.pattern_fp,
            self.kind_tag as u64,
            self.gamma_decade as i64 as u64,
        ]
    }
}

impl SetupStoreKey {
    fn fields(&self) -> Vec<u64> {
        vec![
            self.value_fp,
            self.kind_tag as u64,
            self.gamma_bits,
            self.regularize_bits,
        ]
    }
}

impl DcStoreKey {
    fn fields(&self) -> Vec<u64> {
        vec![self.value_fp, self.source_fp, self.t_start_bits]
    }
}

impl PlanStoreKey {
    fn fields(&self) -> Vec<u64> {
        vec![
            self.source_fp,
            self.strategy,
            self.t_start_bits,
            self.t_stop_bits,
        ]
    }
}

/// Behavioural options of an [`ArtifactStore`].
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// Fault-injection hook consulted at `"store.write"` (once per
    /// record save, before the temp file publishes) and `"store.read"`
    /// (once per record load). Disarmed by default. Both kinds degrade
    /// identically — an injected write dies mid-write like a full disk
    /// or crash, an injected read is a miss like a corrupted record —
    /// so faults exercise exactly the store's real failure contract.
    pub faults: FaultHook,
    /// Observability handle: every record save and load records a
    /// `store.write` / `store.read` span labeled by artifact class and
    /// outcome, plus `store_write_seconds` / `store_read_seconds`
    /// histograms and a `store_io_errors_total` counter. Disabled by
    /// default (one branch per event).
    pub obs: matex_obs::Obs,
}

/// A disk-backed artifact store rooted at one directory.
///
/// Cheap to clone behind an `Arc`; safe to share between processes —
/// all publication is temp-file + atomic rename.
///
/// The store is an accelerator, never a correctness dependency: every
/// I/O failure (real or injected) degrades to compute-through — saves
/// report the error for the caller to ignore, loads miss — and is
/// tallied in [`ArtifactStore::io_errors`].
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    /// Disambiguates temp names within one process.
    temp_seq: AtomicU64,
    /// I/O failures observed (save errors + non-`NotFound` read errors,
    /// real and injected).
    errors: AtomicU64,
    opts: StoreOptions,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens a store with explicit [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> io::Result<ArtifactStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactStore {
            dir,
            temp_seq: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            opts,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// I/O failures absorbed so far (failed saves and unreadable — not
    /// merely absent — records, real and injected).
    pub fn io_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Persists a symbolic analysis bundle.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (callers may treat them as "not stored").
    pub fn save_symbolic(&self, key: &SymbolicStoreKey, sym: &MatexSymbolic) -> io::Result<()> {
        let mut w = WireWriter::new();
        sym.wire_encode(&mut w);
        self.save_raw(ArtifactClass::Symbolic, &key.fields(), &w.into_bytes())
    }

    /// Loads a symbolic analysis bundle; any corruption or mismatch is a
    /// miss.
    pub fn load_symbolic(&self, key: &SymbolicStoreKey) -> Option<MatexSymbolic> {
        let payload = self.load_raw(ArtifactClass::Symbolic, &key.fields())?;
        MatexSymbolic::wire_decode(&mut WireReader::new(&payload)).ok()
    }

    /// Persists an **uncorrected** numeric setup.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for corrected (what-if) setups — their waveforms
    /// are approximate, so persisting them would break the store's
    /// bitwise-restart guarantee — plus any I/O failure.
    pub fn save_setup(&self, key: &SetupStoreKey, setup: &MatexSetup) -> io::Result<()> {
        let mut w = WireWriter::new();
        setup
            .wire_encode(&mut w)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.save_raw(ArtifactClass::Setup, &key.fields(), &w.into_bytes())
    }

    /// Loads a numeric setup; any corruption or mismatch is a miss.
    pub fn load_setup(&self, key: &SetupStoreKey) -> Option<MatexSetup> {
        let payload = self.load_raw(ArtifactClass::Setup, &key.fields())?;
        MatexSetup::wire_decode(&mut WireReader::new(&payload)).ok()
    }

    /// Persists a DC operating point.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_dc(&self, key: &DcStoreKey, dc: &[f64]) -> io::Result<()> {
        let mut w = WireWriter::new();
        w.f64s(dc);
        self.save_raw(ArtifactClass::Dc, &key.fields(), &w.into_bytes())
    }

    /// Loads a DC operating point; any corruption or mismatch is a miss.
    pub fn load_dc(&self, key: &DcStoreKey) -> Option<Vec<f64>> {
        let payload = self.load_raw(ArtifactClass::Dc, &key.fields())?;
        let mut r = WireReader::new(&payload);
        let dc = r.f64s().ok()?;
        r.is_empty().then_some(dc)
    }

    /// Persists a group plan.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a strategy without a stable wire tag, plus any
    /// I/O failure.
    pub fn save_plan(&self, key: &PlanStoreKey, plan: &GroupPlan) -> io::Result<()> {
        let mut w = WireWriter::new();
        plan.wire_encode(&mut w)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.save_raw(ArtifactClass::Plan, &key.fields(), &w.into_bytes())
    }

    /// Loads a group plan; any corruption or mismatch is a miss.
    pub fn load_plan(&self, key: &PlanStoreKey) -> Option<GroupPlan> {
        let payload = self.load_raw(ArtifactClass::Plan, &key.fields())?;
        GroupPlan::wire_decode(&mut WireReader::new(&payload)).ok()
    }

    /// The record path for `(class, key)`: hex key fields in the name,
    /// so one directory listing is human-debuggable.
    fn record_path(&self, class: ArtifactClass, key: &[u64]) -> PathBuf {
        let mut name = String::from(class.label());
        for f in key {
            name.push('-');
            name.push_str(&format!("{f:016x}"));
        }
        name.push_str(".mxst");
        self.dir.join(name)
    }

    /// Assembles a record and publishes it atomically, timing the
    /// attempt when observability is enabled.
    fn save_raw(&self, class: ArtifactClass, key: &[u64], payload: &[u8]) -> io::Result<()> {
        let obs = &self.opts.obs;
        if !obs.is_enabled() {
            return self.save_raw_inner(class, key, payload);
        }
        let t0 = Instant::now();
        let out = self.save_raw_inner(class, key, payload);
        let d = t0.elapsed();
        let ok = if out.is_ok() { "1" } else { "0" };
        obs.record_span(
            "store.write",
            obs.job(),
            t0,
            d,
            &[("class", class.label()), ("ok", ok)],
        );
        obs.observe_labeled("store_write_seconds", &[("class", class.label())], d);
        if out.is_err() {
            obs.add_labeled("store_io_errors_total", &[("op", "write")], 1);
        }
        out
    }

    fn save_raw_inner(&self, class: ArtifactClass, key: &[u64], payload: &[u8]) -> io::Result<()> {
        let mut record = Vec::with_capacity(payload.len() + 64);
        record.extend_from_slice(MAGIC);
        record.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        record.push(class as u8);
        record.push(key.len() as u8);
        for &f in key {
            record.extend_from_slice(&f.to_le_bytes());
        }
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(payload);
        let mut h = Fnv64::new();
        h.write_bytes(&record);
        let checksum = h.finish();
        record.extend_from_slice(&checksum.to_le_bytes());

        // Publish atomically: a unique temp name (pid + in-process
        // sequence number) then rename, so concurrent writers of the
        // same key race to an identical record and readers never see a
        // partial write.
        let temp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let write = match self.opts.faults.check("store.write") {
            // An injected fault dies after a partial write, like a full
            // disk or a crash mid-flush — the worst case the atomic
            // publish path must absorb.
            Some(_) => std::fs::write(&temp, &record[..record.len() / 2])
                .and_then(|()| Err(io::Error::other("injected fault: store.write"))),
            None => std::fs::write(&temp, &record),
        };
        if let Err(e) = write {
            // A failed write must never leave temp debris behind.
            std::fs::remove_file(&temp).ok();
            self.errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let dest = self.record_path(class, key);
        match std::fs::rename(&temp, &dest) {
            Ok(()) => Ok(()),
            Err(e) => {
                std::fs::remove_file(&temp).ok();
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Reads and fully verifies a record, returning its payload. Every
    /// failure mode — absent file, bad magic, foreign schema, class or
    /// key mismatch, truncation, checksum mismatch — is a miss.
    fn load_raw(&self, class: ArtifactClass, key: &[u64]) -> Option<Vec<u8>> {
        let obs = &self.opts.obs;
        if !obs.is_enabled() {
            return self.load_raw_inner(class, key);
        }
        let t0 = Instant::now();
        let errors_before = self.io_errors();
        let out = self.load_raw_inner(class, key);
        let d = t0.elapsed();
        let result = if out.is_some() { "hit" } else { "miss" };
        obs.record_span(
            "store.read",
            obs.job(),
            t0,
            d,
            &[("class", class.label()), ("result", result)],
        );
        obs.observe_labeled("store_read_seconds", &[("class", class.label())], d);
        if self.io_errors() > errors_before {
            obs.add_labeled("store_io_errors_total", &[("op", "read")], 1);
        }
        out
    }

    fn load_raw_inner(&self, class: ArtifactClass, key: &[u64]) -> Option<Vec<u8>> {
        if matches!(
            self.opts.faults.check("store.read"),
            Some(FaultKind::Panic | FaultKind::Error)
        ) {
            // An injected read fault is indistinguishable from an
            // unreadable record: a counted, clean miss.
            self.errors.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let record = match std::fs::read(self.record_path(class, key)) {
            Ok(r) => r,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        // Checksum first: everything else is only meaningful on an
        // intact record.
        if record.len() < MAGIC.len() + 4 + 2 + 8 + 8 {
            return None;
        }
        let (body, tail) = record.split_at(record.len() - 8);
        let mut h = Fnv64::new();
        h.write_bytes(body);
        if h.finish().to_le_bytes() != tail {
            return None;
        }
        let mut r = WireReader::new(body);
        let mut magic = [0u8; 4];
        for m in &mut magic {
            *m = r.u8().ok()?;
        }
        if &magic != MAGIC || r.u32().ok()? != SCHEMA_VERSION {
            return None;
        }
        if r.u8().ok()? != class as u8 || r.u8().ok()? as usize != key.len() {
            return None;
        }
        for &expect in key {
            if r.u64().ok()? != expect {
                return None;
            }
        }
        let payload_len = r.u64().ok()?;
        if payload_len != r.remaining() as u64 {
            return None;
        }
        let mut payload = Vec::with_capacity(payload_len as usize);
        while !r.is_empty() {
            payload.push(r.u8().ok()?);
        }
        Some(payload)
    }
}

// Compile the crate README's code blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::PdnBuilder;
    use matex_core::{MatexOptions, TransientSpec};
    use matex_dist::plan_groups;
    use matex_waveform::GroupingStrategy;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("matex-store-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sys() -> matex_circuit::MnaSystem {
        PdnBuilder::new(6, 6)
            .num_loads(8)
            .num_features(3)
            .window(1e-9)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn setup_round_trips_bitwise_across_reopen() {
        let dir = scratch("setup");
        let sys = sys();
        let opts = MatexOptions::default();
        let symbolic = MatexSymbolic::analyze(&sys, &opts).unwrap();
        let setup = MatexSetup::prepare(&sys, &opts, Some(&symbolic), false).unwrap();
        let key = SetupStoreKey {
            value_fp: 0xAB,
            kind_tag: 2,
            gamma_bits: opts.gamma.to_bits(),
            regularize_bits: opts.regularize_eps.to_bits(),
            scheduled: false,
        };
        let store = ArtifactStore::open(&dir).unwrap();
        store.save_setup(&key, &setup).unwrap();
        let store2 = ArtifactStore::open(&dir).unwrap();
        let back = store2.load_setup(&key).expect("hit");
        // Decoded setups factored nothing...
        assert_eq!(back.factorizations(), 0);
        // ...and solve bitwise like the original.
        let b: Vec<f64> = (0..sys.dim()).map(|i| (i % 5) as f64 - 2.0).collect();
        let (x1, x2) = (setup.solve_g(&b), back.solve_g(&b));
        assert!(x1.iter().zip(&x2).all(|(a, c)| a.to_bits() == c.to_bits()));
        assert_eq!(back.kind(), setup.kind());
        // A different key is a miss, not a collision.
        let other = SetupStoreKey {
            value_fp: 0xAC,
            ..key
        };
        assert!(store2.load_setup(&other).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn symbolic_and_dc_round_trip() {
        let dir = scratch("symdc");
        let store = ArtifactStore::open(&dir).unwrap();
        let sys = sys();
        let opts = MatexOptions::default();
        let sym = MatexSymbolic::analyze(&sys, &opts).unwrap();
        let skey = SymbolicStoreKey {
            pattern_fp: 0x77,
            kind_tag: 2,
            gamma_decade: -10,
        };
        store.save_symbolic(&skey, &sym).unwrap();
        let back = store.load_symbolic(&skey).expect("hit");
        // The decoded analysis replays to the same factors.
        let lu_a = sym.g().refactor(sys.g()).unwrap();
        let lu_b = back.g().refactor(sys.g()).unwrap();
        let b: Vec<f64> = (0..sys.dim()).map(|i| 1.0 + i as f64).collect();
        assert_eq!(lu_a.solve(&b), lu_b.solve(&b));
        assert!(back.shifted().is_some());

        let dkey = DcStoreKey {
            value_fp: 1,
            source_fp: 2,
            t_start_bits: 0.0f64.to_bits(),
        };
        let dc: Vec<f64> = (0..7).map(|i| (i as f64).sin()).collect();
        store.save_dc(&dkey, &dc).unwrap();
        let got = store.load_dc(&dkey).expect("hit");
        assert!(dc.iter().zip(&got).all(|(a, c)| a.to_bits() == c.to_bits()));
        // A negative decade must not collide with a positive one.
        let skey_pos = SymbolicStoreKey {
            gamma_decade: 10,
            ..skey
        };
        assert!(store.load_symbolic(&skey_pos).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_and_every_bit_flip_is_a_clean_miss() {
        let dir = scratch("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = DcStoreKey {
            value_fp: 9,
            source_fp: 8,
            t_start_bits: 7,
        };
        store.save_dc(&key, &[1.25, -2.5, 3.75]).unwrap();
        let path = store.record_path(ArtifactClass::Dc, &key.fields());
        let pristine = std::fs::read(&path).unwrap();
        assert!(store.load_dc(&key).is_some());
        // Truncations at every length.
        for cut in 0..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(store.load_dc(&key).is_none(), "truncated at {cut}");
        }
        // A bit flip in every byte position.
        for pos in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            assert!(store.load_dc(&key).is_none(), "bit flip at {pos}");
        }
        // Restoring the pristine record restores the hit.
        std::fs::write(&path, &pristine).unwrap();
        assert!(store.load_dc(&key).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_schema_versions_are_skipped() {
        let dir = scratch("schema");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = DcStoreKey {
            value_fp: 1,
            source_fp: 1,
            t_start_bits: 1,
        };
        store.save_dc(&key, &[4.0]).unwrap();
        let path = store.record_path(ArtifactClass::Dc, &key.fields());
        let mut record = std::fs::read(&path).unwrap();
        // Change the schema version and re-seal the checksum: a
        // structurally valid record from a *different* store generation,
        // the next one or a past one.
        for foreign in [SCHEMA_VERSION + 1, 2] {
            record[4..8].copy_from_slice(&foreign.to_le_bytes());
            let body_len = record.len() - 8;
            let mut h = Fnv64::new();
            h.write_bytes(&record[..body_len]);
            let sum = h.finish().to_le_bytes();
            record[body_len..].copy_from_slice(&sum);
            std::fs::write(&path, &record).unwrap();
            assert!(store.load_dc(&key).is_none(), "version {foreign}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_never_publish_a_torn_record() {
        let dir = scratch("race");
        let store = std::sync::Arc::new(ArtifactStore::open(&dir).unwrap());
        let key = DcStoreKey {
            value_fp: 5,
            source_fp: 6,
            t_start_bits: 7,
        };
        let payload: Vec<f64> = (0..512).map(|i| (i as f64).sqrt()).collect();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = std::sync::Arc::clone(&store);
            let payload = payload.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    store.save_dc(&key, &payload).unwrap();
                    // Readers interleave with writers: every observed
                    // state is either a miss or the full payload.
                    if let Some(got) = store.load_dc(&key) {
                        assert_eq!(got.len(), payload.len());
                        assert!(got
                            .iter()
                            .zip(&payload)
                            .all(|(a, b)| a.to_bits() == b.to_bits()));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No temp litter survives the races.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_fault_leaves_no_debris_and_reads_as_clean_miss() {
        use matex_core::FaultPlan;
        let dir = scratch("wfault");
        let store = ArtifactStore::open_with(
            &dir,
            StoreOptions {
                faults: FaultHook::new(FaultPlan::new().fail_at(
                    "store.write",
                    0,
                    FaultKind::Error,
                )),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let key = DcStoreKey {
            value_fp: 3,
            source_fp: 4,
            t_start_bits: 5,
        };
        // The first save dies mid-write (a partial temp record)...
        let err = store.save_dc(&key, &[1.0, 2.0]).unwrap_err();
        assert!(err.to_string().contains("store.write"));
        assert_eq!(store.io_errors(), 1);
        // ...but leaves no temp debris behind...
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            leftovers.is_empty(),
            "write fault left debris: {leftovers:?}"
        );
        // ...and the key decodes as a clean miss, not a torn record.
        assert!(store.load_dc(&key).is_none());
        // The fault was one-shot: the retried save publishes and hits.
        store.save_dc(&key, &[1.0, 2.0]).unwrap();
        let got = store.load_dc(&key).expect("hit after retry");
        assert_eq!(got, vec![1.0, 2.0]);
        assert_eq!(store.io_errors(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_read_fault_is_a_counted_miss_then_recovers() {
        use matex_core::FaultPlan;
        let dir = scratch("rfault");
        let key = DcStoreKey {
            value_fp: 6,
            source_fp: 7,
            t_start_bits: 8,
        };
        // Publish through a clean store, then reopen with a read fault
        // armed on the first load only.
        ArtifactStore::open(&dir)
            .unwrap()
            .save_dc(&key, &[9.0])
            .unwrap();
        let store = ArtifactStore::open_with(
            &dir,
            StoreOptions {
                faults: FaultHook::new(FaultPlan::new().fail_at("store.read", 0, FaultKind::Error)),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert!(store.load_dc(&key).is_none(), "injected read must miss");
        assert_eq!(store.io_errors(), 1);
        // The record itself was never harmed: the next read hits.
        assert_eq!(store.load_dc(&key).expect("hit"), vec![9.0]);
        assert_eq!(store.io_errors(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_round_trips_through_the_store() {
        let dir = scratch("plan");
        let store = ArtifactStore::open(&dir).unwrap();
        let sys = sys();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        for (tag, strategy) in [
            (0u64, GroupingStrategy::ByBumpFeature),
            (2, GroupingStrategy::Single),
            (3 + (2u64 << 8), GroupingStrategy::MaxGroups(2)),
        ] {
            let plan = plan_groups(&sys, &spec, strategy);
            let key = PlanStoreKey {
                source_fp: 0xFEED,
                strategy: tag,
                t_start_bits: spec.t_start().to_bits(),
                t_stop_bits: spec.t_stop().to_bits(),
            };
            store.save_plan(&key, &plan).unwrap();
            let back = store.load_plan(&key).expect("hit");
            assert!(back.check(&sys, &spec, strategy).is_ok());
            assert_eq!(back.order(), plan.order());
            assert_eq!(back.num_jobs(), plan.num_jobs());
            assert_eq!(back.gts().as_slice(), plan.gts().as_slice());
            for (a, b) in back.jobs().iter().zip(plan.jobs()) {
                assert_eq!(a.group, b.group);
                assert_eq!(a.members, b.members);
                assert_eq!(a.lts.as_slice(), b.lts.as_slice());
            }
            // A sealed record with a byte after the plan is a miss, as
            // for a DC record.
            let mut w = WireWriter::new();
            plan.wire_encode(&mut w).unwrap();
            let mut payload = w.into_bytes();
            payload.push(0);
            store
                .save_raw(ArtifactClass::Plan, &key.fields(), &payload)
                .unwrap();
            assert!(store.load_plan(&key).is_none(), "strategy {strategy:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
