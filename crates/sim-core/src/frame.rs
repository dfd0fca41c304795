//! How bytes reach disk: the one owner of file headers, checksums, the
//! bounded little-endian cursor and atomic file replacement.
//!
//! The three binary formats — ECDPSNAP checkpoints ([`crate::snapshot`]),
//! ECDPRSLT result stores (`bench::store`) and ECDPXTRC external traces
//! ([`crate::stream`]) — each open with a [`Header`] and keep only their
//! own payload layout (DESIGN.md, "On-disk formats"). Decoding goes
//! through [`FrameReader`], whose reads are bounds-checked, so hostile
//! or truncated input yields a [`FrameError`], never a panic or an
//! allocation larger than the input.

use std::ffi::OsString;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::MachineConfig;
use crate::prefetcher::Aggressiveness;

/// A structured decode failure.
///
/// Never a panic: every malformed input maps to one of these variants so
/// callers can fall back (a cold run, a quarantined store, a rejected
/// trace file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The input does not start with the expected magic.
    BadMagic,
    /// The container version is not the one this build reads.
    UnsupportedVersion(u32),
    /// The payload schema does not match the one this build reads.
    SchemaMismatch {
        /// Schema this build writes and reads.
        expected: u32,
        /// Schema found in the file.
        found: u32,
    },
    /// The payload checksum does not match the stored CRC-32.
    CrcMismatch,
    /// The input ended before the expected structure was complete.
    Truncated,
    /// A decoded value was structurally invalid (bad enum tag, length
    /// mismatch against the machine configuration, trailing bytes, ...).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::SchemaMismatch { expected, found } => {
                write!(f, "schema {found} != expected {expected}")
            }
            FrameError::CrcMismatch => write!(f, "payload CRC mismatch"),
            FrameError::Truncated => write!(f, "truncated"),
            FrameError::Malformed(msg) => write!(f, "malformed: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A file header: an 8-byte magic, a u32 LE container version and, for
/// formats that version their payload separately, a u32 LE schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Leading magic bytes.
    pub magic: [u8; 8],
    /// Container version: bumped when the framing itself changes.
    pub version: u32,
    /// Payload schema, when the format carries one.
    pub schema: Option<u32>,
}

impl Header {
    /// Encoded size in bytes.
    pub const fn encoded_len(&self) -> usize {
        if self.schema.is_some() {
            16
        } else {
            12
        }
    }

    /// The encoded header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.raw(&self.magic);
        w.u32(self.version);
        if let Some(schema) = self.schema {
            w.u32(schema);
        }
        w.into_bytes()
    }

    /// Consumes a header from `r` and checks it against `self`.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadMagic`], [`FrameError::UnsupportedVersion`] or
    /// [`FrameError::SchemaMismatch`] for the first field that differs,
    /// [`FrameError::Truncated`] when the input ends before it.
    pub fn check(&self, r: &mut FrameReader<'_>) -> Result<(), FrameError> {
        if r.take(8)? != self.magic {
            return Err(FrameError::BadMagic);
        }
        let version = r.u32()?;
        if version != self.version {
            return Err(FrameError::UnsupportedVersion(version));
        }
        if let Some(expected) = self.schema {
            let found = r.u32()?;
            if found != expected {
                return Err(FrameError::SchemaMismatch { expected, found });
            }
        }
        Ok(())
    }
}

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a offset basis: the hash of no bytes.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a loop: folds `bytes` into `hash` with multiplier `prime`.
fn fnv1a_fold(mut hash: u64, prime: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(prime);
    }
    hash
}

/// Folds `bytes` into a running 64-bit FNV-1a `hash` that starts at
/// [`FNV1A_BASIS`]: the content hash behind workload-file provenance and
/// streamed `.xtrc` files.
pub fn fnv1a_update(hash: u64, bytes: &[u8]) -> u64 {
    fnv1a_fold(hash, 0x0000_0100_0000_01b3, bytes)
}

/// FNV-1a-style fingerprint of a machine configuration's `Debug`
/// rendering.
///
/// Stored in every snapshot and checked at fork time: forking under a
/// different configuration would silently desynchronize the restored
/// micro-architectural state from the model, so it is rejected instead.
/// Its multiplier is not the FNV prime (one zero digit too many), but
/// snapshots, result-store keys and the golden files pin fingerprints
/// computed with it, so it stays.
pub fn config_fingerprint(config: &MachineConfig) -> u64 {
    fnv1a_fold(
        FNV1A_BASIS,
        0x1000_0000_01b3,
        format!("{config:?}").as_bytes(),
    )
}

/// Replaces `path` with `bytes` atomically: the bytes go to a temp file
/// `.<name>.tmp-<pid>-<seq>` in the same directory, which is then renamed
/// over `path`, so a reader (or a crash) sees the old file or the new
/// one, never a torn mix. The parent directory is created on demand and
/// the temp file is removed when any step fails.
///
/// # Errors
///
/// Propagates filesystem errors; `path` is unchanged when one occurs.
pub fn atomic_write(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp_name = OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Little-endian byte sink: the encoder behind every header and every
/// `save_state` implementation.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        FrameWriter { buf: Vec::new() }
    }

    /// Appends `b` as is, with no length prefix.
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i16`, little-endian.
    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`, little-endian.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a byte string with a u64 length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.raw(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends an aggressiveness level as its Table 2 index.
    pub fn aggressiveness(&mut self, level: Aggressiveness) {
        self.u8(level.index() as u8);
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounded little-endian cursor: the decoder behind every header and
/// every `load_state` implementation.
///
/// Every read is bounds-checked and returns [`FrameError::Truncated`]
/// past the end, and no read allocates more than the bytes left.
#[derive(Debug)]
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0 }
    }

    /// Reads the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when fewer than `n` bytes are left.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0 or 1 is malformed.
    pub fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(FrameError::Malformed(format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i16`.
    pub fn i16(&mut self) -> Result<i16, FrameError> {
        let b = self.take(2)?;
        Ok(i16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, FrameError> {
        Ok(self.u32()? as i32)
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a u64 length prefix as `usize`, guarding against absurd
    /// values.
    pub fn len_prefix(&mut self) -> Result<usize, FrameError> {
        let n = self.u64()?;
        // A length prefix can never legitimately exceed the bytes left;
        // catching it here turns bit flips into Truncated, not OOM.
        if n > (self.remaining() as u64).max(1 << 32) {
            return Err(FrameError::Truncated);
        }
        usize::try_from(n).map_err(|_| FrameError::Truncated)
    }

    /// Reads a u32 element count of a sequence whose elements each take
    /// at least `elem_bytes` bytes, so a caller may preallocate that many
    /// elements: a count the bytes left cannot hold is
    /// [`FrameError::Truncated`] before anything is allocated.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, FrameError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(FrameError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let n = self.len_prefix()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, FrameError> {
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|_| FrameError::Malformed("non-UTF-8 string".into()))
    }

    /// Reads an aggressiveness level from its Table 2 index.
    pub fn aggressiveness(&mut self) -> Result<Aggressiveness, FrameError> {
        let idx = self.u8()? as usize;
        Aggressiveness::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| FrameError::Malformed(format!("aggressiveness index {idx}")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the reader was fully consumed (trailing bytes are malformed).
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FrameError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    const HEADER: Header = Header {
        magic: *b"TESTMAGC",
        version: 3,
        schema: Some(7),
    };

    #[test]
    fn header_round_trips_and_rejects_each_field() {
        let bytes = HEADER.to_bytes();
        assert_eq!(bytes.len(), HEADER.encoded_len());
        let mut r = FrameReader::new(&bytes);
        HEADER.check(&mut r).unwrap();
        r.finish().unwrap();

        let check = |bytes: &[u8]| HEADER.check(&mut FrameReader::new(bytes));
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(check(&bad), Err(FrameError::BadMagic));
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(check(&bad), Err(FrameError::UnsupportedVersion(99)));
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&8u32.to_le_bytes());
        assert_eq!(
            check(&bad),
            Err(FrameError::SchemaMismatch {
                expected: 7,
                found: 8
            })
        );
        for n in 0..bytes.len() {
            assert!(check(&bytes[..n]).is_err(), "prefix of {n} bytes");
        }

        let unversioned = Header {
            schema: None,
            ..HEADER
        };
        assert_eq!(unversioned.to_bytes(), bytes[..12]);
        assert_eq!(unversioned.encoded_len(), 12);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fnv1a_matches_reference_vectors_and_streams() {
        assert_eq!(fnv1a_update(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        let streamed = fnv1a_update(fnv1a_update(FNV1A_BASIS, b"foo"), b"bar");
        assert_eq!(streamed, fnv1a_update(FNV1A_BASIS, b"foobar"));
    }

    #[test]
    fn config_fingerprint_is_sensitive() {
        let a = MachineConfig::default();
        let mut b = MachineConfig::default();
        b.core.window_size += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a));
    }

    #[test]
    fn writer_reader_primitives_round_trip() {
        let mut w = FrameWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i16(-5);
        w.i32(-6);
        w.i64(-7);
        w.f64(0.1 + 0.2);
        w.bytes(&[1, 2, 3]);
        w.str("héllo");
        w.aggressiveness(Aggressiveness::Moderate);
        let bytes = w.into_bytes();
        let mut r = FrameReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i16().unwrap(), -5);
        assert_eq!(r.i32().unwrap(), -6);
        assert_eq!(r.i64().unwrap(), -7);
        assert_eq!(r.f64().unwrap(), 0.1 + 0.2);
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.aggressiveness().unwrap(), Aggressiveness::Moderate);
        r.finish().unwrap();
        assert!(r.u8().is_err());
    }

    #[test]
    fn count_never_exceeds_the_bytes_left() {
        let mut w = FrameWriter::new();
        w.u32(3);
        w.u32(1);
        w.u32(2);
        w.u32(3);
        let bytes = w.into_bytes();
        assert_eq!(FrameReader::new(&bytes).count(4), Ok(3));
        assert_eq!(
            FrameReader::new(&bytes).count(5),
            Err(FrameError::Truncated)
        );
        let hostile = u32::MAX.to_le_bytes();
        assert_eq!(
            FrameReader::new(&hostile).count(1),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("ecdp-frame-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.json");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, "second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.json"]);
        // A failed replace (the target is a directory) cleans up its temp.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("child")).unwrap();
        assert!(atomic_write(&blocked, b"x").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
