#![forbid(unsafe_code)]
//! Versioned binary snapshot codec and content-addressed checkpoint cache.
//!
//! The simulator is bit-deterministic (pinned in `crates/bench/tests/determinism.rs`),
//! so a snapshot is a canonical digest of a machine's state, and a
//! rebuilt machine stepped to the same cycle writes the same bytes. This
//! crate supplies the plumbing:
//!
//! * [`Enc`]/[`Dec`] — a little-endian, length-prefixed binary
//!   encoder/decoder pair with no external dependencies, mirroring the
//!   hand-rolled JSON discipline of `equinox-config`.
//! * [`Snap`] — the encoding trait (`snap` writes). Implemented here
//!   for primitives and std containers; stateful simulator components
//!   implement it (or an inherent `snap_state`) in their owning crates.
//!   Nothing decodes simulator state: `System::restore` replays the
//!   build instead.
//! * [`write_snapshot`]/[`read_snapshot`] — a versioned container:
//!   magic `EQSN`, a format version, and a section table of
//!   `(tag, offset, len)` entries, so readers can locate sections
//!   without parsing the whole payload and fail *structurally* (never
//!   panic) on corrupt, truncated, or future-versioned input.
//! * [`fnv1a`] — the 64-bit FNV-1a hash used to content-address cache
//!   entries by canonical spec bytes.
//! * [`CheckpointCache`] — a directory of content-addressed blobs
//!   (finished artifacts, run-metrics cells) with atomic writes.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;

/// Magic bytes opening every snapshot container.
pub(crate) const MAGIC: [u8; 4] = *b"EQSN";
/// Container format version written by this crate.
pub(crate) const VERSION: u16 = 1;

/// Structured decode failure. Reading bytes never panics:
/// every malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The container does not start with [`MAGIC`].
    BadMagic,
    /// The container was written by a newer (or unknown) format version.
    UnsupportedVersion(u16),
    /// The input ended before a declared length was satisfied.
    Truncated,
    /// A section or value decoded cleanly but left unread bytes behind.
    TrailingBytes,
    /// A value decoded but violates an invariant of the receiving
    /// component (wrong shape for the current config, bad enum tag…).
    BadValue(&'static str),
    /// A section tag required by the reader is absent from the table.
    MissingSection(u32),
    /// Filesystem failure while loading/storing a cached blob.
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "snapshot magic mismatch (not an EQSN blob)"),
            SnapError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {VERSION})")
            }
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::TrailingBytes => write!(f, "snapshot has trailing bytes"),
            SnapError::BadValue(what) => write!(f, "snapshot value invalid: {what}"),
            SnapError::MissingSection(tag) => {
                write!(f, "snapshot section {tag:#010x} missing")
            }
            SnapError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Binary encoder: an append-only little-endian byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consumes the encoder, returning the bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` so snapshots are word-size independent.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Floats travel as raw bit patterns: a decode is bit-exact, NaNs
    /// and signed zeros included.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Length-prefixed raw bytes.
    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub(crate) fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Binary decoder over a byte slice; every read is bounds-checked and
/// returns [`SnapError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::BadValue("usize overflow"))
    }

    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadValue("bool tag")),
        }
    }

    /// Length-prefixed raw bytes. The length is validated against the
    /// remaining input *before* any slicing, so a corrupt huge length
    /// fails cleanly instead of attempting a giant allocation.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        self.take(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::BadValue("utf-8 string"))
    }

    /// Asserts the input is fully consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }
}

/// Canonical binary encoding of a value into an [`Enc`].
pub trait Snap {
    /// Appends this value's encoding to `e`.
    fn snap(&self, e: &mut Enc);
}

macro_rules! snap_prim {
    ($t:ty, $put:ident) => {
        impl Snap for $t {
            fn snap(&self, e: &mut Enc) {
                e.$put(*self);
            }
        }
    };
}

snap_prim!(u8, put_u8);
snap_prim!(u16, put_u16);
snap_prim!(u32, put_u32);
snap_prim!(u64, put_u64);
snap_prim!(usize, put_usize);
snap_prim!(f64, put_f64);
snap_prim!(bool, put_bool);

impl Snap for String {
    fn snap(&self, e: &mut Enc) {
        e.put_str(self);
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for v in self {
            v.snap(e);
        }
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, e: &mut Enc) {
        e.put_usize(self.len());
        for v in self {
            v.snap(e);
        }
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, e: &mut Enc) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.snap(e);
            }
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, e: &mut Enc) {
        self.0.snap(e);
        self.1.snap(e);
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, e: &mut Enc) {
        for v in self {
            v.snap(e);
        }
    }
}

/// Assembles a versioned container from `(tag, payload)` sections.
///
/// Layout (all little-endian):
///
/// ```text
/// magic "EQSN" | version u16 | n_sections u32
/// n × (tag u32 | offset u64 | len u64)      -- section table
/// section payloads, concatenated
/// ```
///
/// Offsets are relative to the start of the payload region (the byte
/// right after the table), so the header can be parsed independently.
pub fn write_snapshot(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut e = Enc::new();
    e.buf.extend_from_slice(&MAGIC);
    e.put_u16(VERSION);
    e.put_u32(sections.len() as u32);
    let mut off = 0u64;
    for (tag, payload) in sections {
        e.put_u32(*tag);
        e.put_u64(off);
        e.put_u64(payload.len() as u64);
        off += payload.len() as u64;
    }
    for (_, payload) in sections {
        e.buf.extend_from_slice(payload);
    }
    e.into_bytes()
}

/// Parses a container written by [`write_snapshot`], returning its
/// sections as `(tag, payload)` slices in table order.
///
/// # Errors
///
/// [`SnapError::BadMagic`] / [`SnapError::UnsupportedVersion`] on a
/// foreign or future blob, [`SnapError::Truncated`] when any declared
/// offset/len falls outside the input, [`SnapError::TrailingBytes`]
/// when the payload region is longer than the table accounts for.
pub fn read_snapshot(buf: &[u8]) -> Result<Vec<(u32, &[u8])>, SnapError> {
    let mut d = Dec::new(buf);
    let magic = d.take(4)?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = d.u16()?;
    if version != VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
    let n = d.u32()? as usize;
    if n > d.remaining() / 20 {
        // Each table entry is 20 bytes; a larger count cannot fit.
        return Err(SnapError::Truncated);
    }
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = d.u32()?;
        let off = d.u64()?;
        let len = d.u64()?;
        table.push((tag, off, len));
    }
    let payload = &buf[buf.len() - d.remaining()..];
    let mut out = Vec::with_capacity(n);
    let mut expect_end = 0u64;
    for (tag, off, len) in table {
        let end = off.checked_add(len).ok_or(SnapError::Truncated)?;
        if end > payload.len() as u64 {
            return Err(SnapError::Truncated);
        }
        out.push((tag, &payload[off as usize..end as usize]));
        expect_end = expect_end.max(end);
    }
    if expect_end != payload.len() as u64 {
        return Err(SnapError::TrailingBytes);
    }
    Ok(out)
}

/// Finds a required section by tag in a [`read_snapshot`] result.
pub fn section<'a>(sections: &[(u32, &'a [u8])], tag: u32) -> Result<&'a [u8], SnapError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, s)| *s)
        .ok_or(SnapError::MissingSection(tag))
}

/// 64-bit FNV-1a over `bytes` — the content-address hash for cache
/// keys. Stable, dependency-free, and adequate for cache addressing
/// (collisions only cost a wrong cache hit *within one user's own
/// checkpoint dir*, and keys include full canonical spec text).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A directory of content-addressed blobs: finished artifacts and
/// run-metrics cells, keyed by the [`fnv1a`] hash of their canonical
/// spec bytes.
#[derive(Debug, Clone)]
pub struct CheckpointCache {
    dir: PathBuf,
}

impl CheckpointCache {
    /// Cache rooted at `dir` (created on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointCache { dir: dir.into() }
    }

    /// Path of the blob for (`kind`, `key`): `<dir>/<kind>_<key:016x>`.
    pub fn path(&self, kind: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{kind}_{key:016x}"))
    }

    /// Loads a blob if present; `Ok(None)` on a miss.
    pub fn load(&self, kind: &str, key: u64) -> Result<Option<Vec<u8>>, SnapError> {
        let p = self.path(kind, key);
        match std::fs::read(&p) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SnapError::Io(format!("{}: {e}", p.display()))),
        }
    }

    /// Stores a blob atomically (temp file + rename), creating the
    /// cache dir on demand. Concurrent writers racing on the same key
    /// both write identical bytes (content-addressed), so either rename
    /// winning is fine.
    pub fn store(&self, kind: &str, key: u64, bytes: &[u8]) -> Result<(), SnapError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| SnapError::Io(format!("{}: {e}", self.dir.display())))?;
        let fin = self.path(kind, key);
        let tmp = self.dir.join(format!(
            ".tmp_{kind}_{key:016x}_{}",
            std::process::id()
        ));
        std::fs::write(&tmp, bytes).map_err(|e| SnapError::Io(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &fin).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            SnapError::Io(format!("{}: {e}", fin.display()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        0xabu8.snap(&mut e);
        0x1234u16.snap(&mut e);
        0xdead_beefu32.snap(&mut e);
        0x0123_4567_89ab_cdefu64.snap(&mut e);
        42usize.snap(&mut e);
        (-0.0f64).snap(&mut e);
        f64::NAN.snap(&mut e);
        true.snap(&mut e);
        "héllo".to_string().snap(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert_eq!(d.u16().unwrap(), 0x1234);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(d.usize().unwrap(), 42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        let mut e = Enc::new();
        vec![1u64, 2, 3].snap(&mut e);
        VecDeque::from([(&4u32, &5u64)].map(|(a, b)| (*a, *b))).snap(&mut e);
        Some(7u8).snap(&mut e);
        Option::<u8>::None.snap(&mut e);
        [9u64, 10, 11, 12].snap(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        // Sequences are length-prefixed, options tagged, arrays bare.
        assert_eq!(d.usize().unwrap(), 3);
        assert_eq!([d.u64().unwrap(), d.u64().unwrap(), d.u64().unwrap()], [1, 2, 3]);
        assert_eq!(d.usize().unwrap(), 1);
        assert_eq!((d.u32().unwrap(), d.u64().unwrap()), (4, 5));
        assert_eq!((d.u8().unwrap(), d.u8().unwrap()), (1, 7));
        assert_eq!(d.u8().unwrap(), 0);
        for v in [9, 10, 11, 12] {
            assert_eq!(d.u64().unwrap(), v);
        }
        d.finish().unwrap();
    }

    #[test]
    fn truncated_reads_fail_structurally() {
        let mut e = Enc::new();
        vec![1u64, 2, 3].snap(&mut e);
        let bytes = e.into_bytes();
        let read = |d: &mut Dec| -> Result<Vec<u64>, SnapError> {
            (0..d.usize()?).map(|_| d.u64()).collect()
        };
        assert_eq!(read(&mut Dec::new(&bytes)), Ok(vec![1, 2, 3]));
        for cut in 0..bytes.len() {
            let r = read(&mut Dec::new(&bytes[..cut]));
            assert_eq!(r.unwrap_err(), SnapError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        7u64.snap(&mut e);
        e.put_u8(0);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u64().unwrap();
        assert_eq!(d.finish().unwrap_err(), SnapError::TrailingBytes);
    }

    #[test]
    fn bad_tags_are_bad_values() {
        let mut d = Dec::new(&[2]);
        assert_eq!(d.bool().unwrap_err(), SnapError::BadValue("bool tag"));
    }

    #[test]
    fn container_round_trips_sections() {
        let blob = write_snapshot(&[(1, vec![0xaa, 0xbb]), (2, vec![]), (7, vec![0xcc])]);
        let sections = read_snapshot(&blob).unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(section(&sections, 1).unwrap(), &[0xaa, 0xbb]);
        assert_eq!(section(&sections, 2).unwrap(), &[] as &[u8]);
        assert_eq!(section(&sections, 7).unwrap(), &[0xcc]);
        assert_eq!(section(&sections, 9).unwrap_err(), SnapError::MissingSection(9));
    }

    #[test]
    fn container_rejects_bad_magic() {
        let mut blob = write_snapshot(&[(1, vec![1, 2, 3])]);
        blob[0] = b'X';
        assert_eq!(read_snapshot(&blob).unwrap_err(), SnapError::BadMagic);
    }

    #[test]
    fn container_rejects_future_version() {
        let mut blob = write_snapshot(&[(1, vec![1, 2, 3])]);
        blob[4] = 0xff; // version LE low byte
        assert_eq!(
            read_snapshot(&blob).unwrap_err(),
            SnapError::UnsupportedVersion(0x00ff)
        );
    }

    #[test]
    fn container_rejects_truncation_at_every_cut() {
        let blob = write_snapshot(&[(1, vec![1, 2, 3]), (2, vec![4])]);
        for cut in 0..blob.len() {
            let r = read_snapshot(&blob[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail, got {r:?}");
            assert!(
                matches!(r, Err(SnapError::Truncated) | Err(SnapError::BadMagic)
                    | Err(SnapError::UnsupportedVersion(_)) | Err(SnapError::TrailingBytes)),
                "cut at {cut}: structured error expected"
            );
        }
    }

    #[test]
    fn container_rejects_trailing_garbage() {
        let mut blob = write_snapshot(&[(1, vec![1, 2, 3])]);
        blob.push(0x55);
        assert_eq!(read_snapshot(&blob).unwrap_err(), SnapError::TrailingBytes);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cache_store_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("eqsnap_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CheckpointCache::new(&dir);
        assert_eq!(cache.load("run", 0x1234).unwrap(), None);
        cache.store("run", 0x1234, b"payload").unwrap();
        assert_eq!(cache.load("run", 0x1234).unwrap().as_deref(), Some(&b"payload"[..]));
        // Different kind, same key: distinct blob.
        assert_eq!(cache.load("artifact", 0x1234).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
