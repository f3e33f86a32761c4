//! The durable-snapshot container format.
//!
//! Long explorations must survive a killed process: the explorer
//! periodically serializes its whole state (interner tables, visited
//! set, pending frontier) into a *snapshot file* and can later resume
//! from it. This module owns the **container** — a hand-rolled,
//! versioned, checksummed binary layout — while the domain crates own
//! what goes *inside* the sections. The format is deliberately
//! dependency-free (std only) and self-validating: every way a file can
//! be damaged (truncation, wrong file, stale version, bit rot) decodes
//! to a typed [`SnapshotError`], never a panic and never a silently
//! wrong resume.
//!
//! ## Layout (version 2)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//! 0       8     magic  b"FX10SNAP"
//! 8       4     format version, u32 LE (currently 2)
//! 12      4     section count, u32 LE
//! 16      ...   sections: { tag u32 LE, len u64 LE, payload }*
//! end-8   8     FNV-1a-64 checksum of every preceding byte, LE
//! ```
//!
//! All integers are little-endian. Sections are length-prefixed so
//! unknown tags can be skipped by future readers; the trailing checksum
//! covers the header and every section, so corruption anywhere in the
//! file is detected. The version changes whenever a section's payload
//! changes meaning: version 2 dropped the explorer's statement section
//! and made tree tag 1 a `(label, tail)` pair, which a version 1 file
//! would otherwise be misread as.

use crate::Fx10Error;
use std::fmt;

/// The 8-byte magic that opens every snapshot file.
pub const MAGIC: [u8; 8] = *b"FX10SNAP";

/// The current container format version.
pub const FORMAT_VERSION: u32 = 2;

/// FNV-1a 64-bit hash — the container checksum (and the fingerprint
/// hash used by snapshot producers). Dependency-free, stable across
/// platforms and runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every way a snapshot file can fail to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file ends before the declared structure does.
    Truncated,
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The container version is one this build cannot read.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch,
    /// A section the reader requires is absent.
    MissingSection(u32),
    /// A section payload is structurally invalid (bad counts, dangling
    /// ids, trailing bytes, …).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::BadMagic => write!(f, "bad magic — not an FX10 snapshot"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "checksum mismatch — snapshot is corrupt"),
            SnapshotError::MissingSection(tag) => write!(f, "required section {tag} is missing"),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for Fx10Error {
    fn from(e: SnapshotError) -> Self {
        Fx10Error::Snapshot {
            message: e.to_string(),
        }
    }
}

/// A growable little-endian byte buffer for one section payload.
#[derive(Debug, Default)]
pub struct SectionBuf {
    bytes: Vec<u8>,
}

impl SectionBuf {
    /// An empty payload buffer.
    pub fn new() -> Self {
        SectionBuf::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit regardless of
    /// the host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Serializes a snapshot: add tagged sections, then [`finish`]
/// (SnapshotWriter::finish) to get the framed, checksummed file bytes.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// A writer with no sections yet.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Appends one section. Tags should be unique; readers look sections
    /// up by tag.
    pub fn add_section(&mut self, tag: u32, payload: SectionBuf) {
        self.sections.push((tag, payload.bytes));
    }

    /// Frames every section and appends the trailing checksum.
    pub fn finish(self) -> Vec<u8> {
        let body: usize = self.sections.iter().map(|(_, p)| 12 + p.len()).sum();
        let mut out = Vec::with_capacity(16 + body + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }
}

/// A parsed snapshot container: validated framing, sections addressable
/// by tag. Payload *contents* are validated by the caller via [`Cursor`].
#[derive(Debug)]
pub struct Snapshot {
    sections: Vec<(u32, Vec<u8>)>,
}

impl Snapshot {
    /// Parses and fully validates the container framing: magic, version,
    /// section walk, trailing checksum.
    pub fn parse(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        // Smallest possible file: magic + version + count + checksum.
        if bytes.len() < 8 + 4 + 4 + 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let body_end = bytes.len() - 8;
        let mut pos = 16usize;
        let mut sections = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            if pos + 12 > body_end {
                return Err(SnapshotError::Truncated);
            }
            let tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
            pos += 12;
            let len: usize = len
                .try_into()
                .map_err(|_| SnapshotError::Malformed("section length overflows".into()))?;
            if body_end - pos < len {
                return Err(SnapshotError::Truncated);
            }
            sections.push((tag, bytes[pos..pos + len].to_vec()));
            pos += len;
        }
        if pos != body_end {
            return Err(SnapshotError::Malformed(
                "trailing bytes after the last section".into(),
            ));
        }
        let declared = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
        if fnv1a64(&bytes[..body_end]) != declared {
            return Err(SnapshotError::ChecksumMismatch);
        }
        Ok(Snapshot { sections })
    }

    /// A cursor over the payload of the section tagged `tag`.
    pub fn section(&self, tag: u32) -> Result<Cursor<'_>, SnapshotError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| Cursor {
                bytes: payload,
                pos: 0,
            })
            .ok_or(SnapshotError::MissingSection(tag))
    }

    /// The section tags present, in file order.
    pub fn tags(&self) -> Vec<u32> {
        self.sections.iter().map(|(t, _)| *t).collect()
    }
}

/// A bounds-checked reader over one section payload. Every read past
/// the end is [`SnapshotError::Truncated`]; [`done`](Cursor::done)
/// rejects trailing bytes so payload lengths are validated exactly.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that
    /// do not fit the host.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        self.get_u64()?
            .try_into()
            .map_err(|_| SnapshotError::Malformed("count overflows usize".into()))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(format!(
                "{} trailing byte(s) in section",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let mut a = SectionBuf::new();
        a.put_u32(7);
        a.put_u64(1 << 40);
        a.put_i64(-3);
        a.put_u8(0xAB);
        w.add_section(1, a);
        let mut b = SectionBuf::new();
        b.put_usize(99);
        w.add_section(2, b);
        w.finish()
    }

    #[test]
    fn roundtrip_reads_back_every_value() {
        let bytes = sample();
        let snap = Snapshot::parse(&bytes).unwrap();
        assert_eq!(snap.tags(), vec![1, 2]);
        let mut c = snap.section(1).unwrap();
        assert_eq!(c.get_u32().unwrap(), 7);
        assert_eq!(c.get_u64().unwrap(), 1 << 40);
        assert_eq!(c.get_i64().unwrap(), -3);
        assert_eq!(c.get_u8().unwrap(), 0xAB);
        c.done().unwrap();
        let mut c = snap.section(2).unwrap();
        assert_eq!(c.get_usize().unwrap(), 99);
        c.done().unwrap();
        assert_eq!(
            snap.section(3).unwrap_err(),
            SnapshotError::MissingSection(3)
        );
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let bytes = SnapshotWriter::new().finish();
        let snap = Snapshot::parse(&bytes).unwrap();
        assert!(snap.tags().is_empty());
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = sample();
        for cut in [0, 5, 12, 17, bytes.len() - 9, bytes.len() - 1] {
            let err = Snapshot::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = sample();
        bytes[0] = b'N';
        assert_eq!(
            Snapshot::parse(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn unsupported_version_is_detected_before_the_checksum() {
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // The checksum is now stale too, but the version verdict must win
        // so the user sees the actionable cause.
        assert_eq!(
            Snapshot::parse(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn bit_rot_is_detected_by_the_checksum() {
        let mut bytes = sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = Snapshot::parse(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::ChecksumMismatch | SnapshotError::Truncated
            ),
            "{err:?}"
        );
        let mut bytes = sample();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(
            Snapshot::parse(&bytes).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
    }

    #[test]
    fn overread_and_trailing_bytes_are_malformed() {
        let mut w = SnapshotWriter::new();
        let mut s = SectionBuf::new();
        s.put_u8(1);
        w.add_section(9, s);
        let bytes = w.finish();
        let snap = Snapshot::parse(&bytes).unwrap();
        let mut c = snap.section(9).unwrap();
        assert_eq!(c.remaining(), 1);
        assert!(c.done().is_err(), "unconsumed byte must be rejected");
        c.get_u8().unwrap();
        c.done().unwrap();
        assert_eq!(c.get_u32().unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn snapshot_error_maps_to_exit_code_2() {
        let e: Fx10Error = SnapshotError::BadMagic.into();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("magic"), "{e}");
    }
}
