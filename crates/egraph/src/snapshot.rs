//! Byte-level primitives for the versioned e-graph snapshot format.
//!
//! A snapshot is the content of a *clean* (rebuilt) e-graph and nothing
//! it can re-derive: the union-find parents, then every class, by
//! ascending id, as its id, its e-nodes and its analysis data. Facts rules
//! derive for each other are e-nodes, so they travel as nodes.
//! `EGraph::restore` derives the rest from the node lists — the memo, the
//! parent lists, the operator index — and starts every class at epoch 0
//! and the clock at 1, so a restored graph can **warm-start** saturation: a cutoff
//! bumped after the restore makes the semi-naive delta exactly what is
//! added after it.
//!
//! ## Wire format
//!
//! Dependency-free little-endian framing (no serde):
//!
//! ```text
//! magic "HBEG" | format version u32 | payload length u64 |
//! payload checksum u64 | payload bytes
//!
//! payload: parents: len, id* | classes: len, (id, nodes: len, node*, data)*
//! ```
//!
//! The payload is written through [`SnapshotWriter`] and read back through
//! [`SnapshotReader`]; both are dumb length-checked cursors — all
//! structural validation happens in `EGraph::restore`. The checksum is a
//! splitmix64 chain over the payload, so corrupted or truncated bytes are
//! rejected with a typed [`SnapshotError`] before any structural parsing
//! runs, and a version bump is rejected by exact match on the header —
//! never a panic, so callers can fall back to a cold compile.
//!
//! [`crate::language::Language::op_key`] values are hashes — stable within
//! one binary but **not across binaries** (or compiler versions) — so no
//! key is ever written: restore calls `op_key()` on the nodes it reads,
//! and a snapshot written by one build restores under another build's key
//! values.
//!
//! Node payloads and analysis data are language-specific, so languages
//! opt in by implementing [`SnapshotNode`] (and [`SnapshotAnalysis`] for
//! their analysis; the trivial `()` analysis is supported out of the box).

use std::fmt;

use crate::egraph::Analysis;
use crate::language::Language;
use crate::unionfind::Id;

/// Leading magic bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HBEG";

/// Current snapshot format version. Bump on any wire-format change;
/// restore rejects every other version with
/// [`SnapshotError::UnsupportedVersion`].
pub const SNAPSHOT_VERSION: u32 = 4;

/// Why snapshot bytes could not be restored. Every variant is a clean,
/// typed rejection — restoring never panics on bad input — so callers can
/// log the reason and fall back to a cold compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the structure it framed.
    Truncated,
    /// The leading magic bytes are not `HBEG`.
    BadMagic,
    /// The header names a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// The frame decoded but the payload violates a structural invariant
    /// (dangling id, cyclic union-find, an e-node listed twice, …).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot bytes are truncated"),
            SnapshotError::BadMagic => write!(f, "not an e-graph snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// splitmix64 — the same mixer the fault plan uses, duplicated here so the
/// checksum does not depend on the `fault-injection` feature. Public as the
/// one step of every stable, process-independent hash chain in the stack
/// ([`payload_checksum`] here, the report cache's canonical program hash in
/// `hardboiled`): `h = splitmix64(h ^ word)`.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Checksum of a payload: a splitmix64 chain over its little-endian
/// 8-byte words (zero-padded tail), seeded with the length so that
/// truncation to a word boundary still changes the sum.
#[must_use]
pub fn payload_checksum(bytes: &[u8]) -> u64 {
    let mut h = splitmix64(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(word));
    }
    h
}

/// Append-only little-endian byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` (two's complement), little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length or count as `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an e-class id.
    pub fn id(&mut self, id: Id) {
        self.u32(id.0);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Length-checked little-endian cursor over snapshot payload bytes.
/// Every read returns [`SnapshotError::Truncated`] instead of slicing out
/// of bounds.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A cursor at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapshotReader { bytes, pos: 0 }
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length or count written by [`SnapshotWriter::len`], bounded
    /// by the bytes remaining so a corrupt length cannot trigger a huge
    /// allocation before the next read fails.
    #[allow(clippy::len_without_is_empty)] // a read, not a container query
    pub fn len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| SnapshotError::Truncated)?;
        // Any structure of `v` elements needs at least one byte each; a
        // length exceeding the tail is corruption or truncation.
        if v > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(v)
    }

    /// Reads an e-class id.
    pub fn id(&mut self) -> Result<Id, SnapshotError> {
        Ok(Id(self.u32()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid UTF-8 string".into()))
    }
}

/// A [`Language`] whose e-nodes can be written to and read from snapshot
/// payloads. Implementations must round-trip exactly:
/// `read_node(write_node(n)) == n` for every node.
pub trait SnapshotNode: Language {
    /// Serializes one e-node (tag + payload + child ids).
    fn write_node(&self, w: &mut SnapshotWriter);

    /// Deserializes one e-node. Child ids are restored verbatim; the
    /// caller validates them against the restored union-find.
    fn read_node(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// An [`Analysis`] whose per-class data can be written to and read from
/// snapshot payloads. Must round-trip exactly (`PartialEq`-equal), since
/// analysis data feeds rule appliers and must not drift across a
/// snapshot/restore cycle.
pub trait SnapshotAnalysis<L: Language>: Analysis<L> {
    /// Serializes one class's analysis data.
    fn write_data(data: &Self::Data, w: &mut SnapshotWriter);

    /// Deserializes one class's analysis data.
    fn read_data(r: &mut SnapshotReader<'_>) -> Result<Self::Data, SnapshotError>;
}

/// The trivial analysis stores nothing.
impl<L: Language> SnapshotAnalysis<L> for () {
    fn write_data((): &Self::Data, _w: &mut SnapshotWriter) {}

    fn read_data(_r: &mut SnapshotReader<'_>) -> Result<Self::Data, SnapshotError> {
        Ok(())
    }
}

/// Frames a payload with magic, version, length and checksum.
#[must_use]
pub fn frame_payload(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload_checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates the frame and returns the payload slice: checks magic,
/// version, length and checksum in that order so each failure mode maps
/// to its own [`SnapshotError`] variant.
pub fn unframe_payload(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < 24 {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload_len = usize::try_from(payload_len).map_err(|_| SnapshotError::Truncated)?;
    let expected_sum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = &bytes[24..];
    if payload.len() != payload_len {
        return Err(SnapshotError::Truncated);
    }
    if payload_checksum(payload) != expected_sum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.len(3);
        w.id(Id(9));
        w.str("amx-B-tile");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.len().unwrap(), 3);
        assert_eq!(r.id().unwrap(), Id(9));
        assert_eq!(r.str().unwrap(), "amx-B-tile");
        assert!(r.is_exhausted());
    }

    #[test]
    fn reader_rejects_overruns() {
        let bytes = [1u8, 2, 3];
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated));
        // A huge length prefix is caught before any allocation.
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.len(), Err(SnapshotError::Truncated));
    }

    #[test]
    fn frame_roundtrip_and_rejections() {
        let payload = b"payload bytes".to_vec();
        let framed = frame_payload(payload.clone());
        assert_eq!(unframe_payload(&framed).unwrap(), payload.as_slice());

        // Bad magic.
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert_eq!(unframe_payload(&bad), Err(SnapshotError::BadMagic));

        // Version bump.
        let mut bumped = framed.clone();
        bumped[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        assert_eq!(
            unframe_payload(&bumped),
            Err(SnapshotError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 1,
                supported: SNAPSHOT_VERSION,
            })
        );

        // Truncation at every prefix length is a typed error, never a panic.
        for cut in 0..framed.len() {
            assert!(unframe_payload(&framed[..cut]).is_err(), "cut at {cut}");
        }

        // Any single flipped payload byte trips the checksum.
        for i in 24..framed.len() {
            let mut flipped = framed.clone();
            flipped[i] ^= 0x40;
            assert_eq!(
                unframe_payload(&flipped),
                Err(SnapshotError::ChecksumMismatch),
                "flip at {i}"
            );
        }
    }

    #[test]
    fn checksum_is_length_sensitive() {
        // Zero-padding the tail must not collide with explicit zeros.
        assert_ne!(payload_checksum(b"abc"), payload_checksum(b"abc\0"));
        assert_ne!(payload_checksum(b""), payload_checksum(b"\0"));
    }
}
