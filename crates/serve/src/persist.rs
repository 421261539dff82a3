//! The versioned, checksummed snapshot format of the result cache.
//!
//! A snapshot is a self-contained byte image of every cached result, written
//! so a restarted server can warm-start instead of recomputing its working
//! set. The format is deliberately dumb — fixed little-endian integers, no
//! compression, one trailing checksum — because the failure mode that
//! matters is *corruption tolerance*: a truncated or bit-flipped snapshot
//! must be detected, reported as a typed [`RestoreError`], and discarded for
//! a clean cold start. Restore never panics on hostile bytes.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "CDSC"
//! 4       4     format version (currently 1)
//! 8       8     entry count N
//! 16      …     N entries, each:
//!                 graph key      u64   (CacheKey::graph)
//!                 options key    u64   (CacheKey::options)
//!                 modularity     u64   (f64 bit pattern — exact)
//!                 stages         u64
//!                 label count L  u64
//!                 labels         L × u32
//! end-8   8     FNV-1a checksum over every byte before it
//! ```
//!
//! Entries are written in least-recently-used-first order, so replaying
//! them through ordinary inserts reproduces the recency order the snapshot
//! captured.

use crate::hash::{CacheKey, Fnv1a};

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CDSC";
/// Current format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// One cached result in portable form.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    /// The content address the result is stored under.
    pub key: CacheKey,
    /// Modularity of the cached partition.
    pub modularity: f64,
    /// Driver stages of the producing run.
    pub stages: usize,
    /// Community labels of the cached partition.
    pub labels: Vec<u32>,
}

/// Why a snapshot could not be restored. Every variant means the same
/// thing operationally: log it, drop the snapshot, cold-start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// Shorter than the fixed header + checksum — nothing to even verify.
    TooShort {
        /// Bytes present.
        len: usize,
    },
    /// The magic bytes are not `CDSC` — not a snapshot at all.
    BadMagic,
    /// A version this build does not read.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the content — truncation past
    /// the header, bit flips, or any other corruption.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum of the bytes actually present.
        computed: u64,
    },
    /// The checksum held but the structure ran off the end of the buffer —
    /// an internally inconsistent snapshot (e.g. a forged length field).
    Truncated {
        /// Entry index being decoded when the buffer ran out.
        entry: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::TooShort { len } => {
                write!(f, "snapshot too short ({len} bytes) to hold a header and checksum")
            }
            RestoreError::BadMagic => write!(f, "snapshot magic bytes missing"),
            RestoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} is not supported (current {SNAPSHOT_VERSION})"
                )
            }
            RestoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ),
            RestoreError::Truncated { entry } => {
                write!(f, "snapshot structure truncated while decoding entry {entry}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Serialises entries into the snapshot byte format described in the
/// module docs.
pub fn encode_snapshot(entries: &[SnapshotEntry]) -> Vec<u8> {
    let payload: usize = entries.iter().map(|e| 40 + e.labels.len() * 4).sum();
    let mut buf = Vec::with_capacity(16 + payload + 8);
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        buf.extend_from_slice(&e.key.graph.to_le_bytes());
        buf.extend_from_slice(&e.key.options.to_le_bytes());
        buf.extend_from_slice(&e.modularity.to_bits().to_le_bytes());
        buf.extend_from_slice(&(e.stages as u64).to_le_bytes());
        buf.extend_from_slice(&(e.labels.len() as u64).to_le_bytes());
        for &l in &e.labels {
            buf.extend_from_slice(&l.to_le_bytes());
        }
    }
    let mut h = Fnv1a::new();
    h.write_bytes(&buf);
    buf.extend_from_slice(&h.finish().to_le_bytes());
    buf
}

/// Reads a little-endian `u64` at `*pos`, or fails as a truncated entry.
fn read_u64(bytes: &[u8], pos: &mut usize, entry: usize) -> Result<u64, RestoreError> {
    let end = pos.checked_add(8).filter(|&e| e <= bytes.len());
    let Some(end) = end else { return Err(RestoreError::Truncated { entry }) };
    let v = u64::from_le_bytes(bytes[*pos..end].try_into().expect("8-byte slice"));
    *pos = end;
    Ok(v)
}

/// Parses and verifies a snapshot. Any defect — wrong magic, unknown
/// version, failed checksum, inconsistent structure — is a typed error;
/// no input can panic this function.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<SnapshotEntry>, RestoreError> {
    if bytes.len() < 24 {
        return Err(RestoreError::TooShort { len: bytes.len() });
    }
    if bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(RestoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if version != SNAPSHOT_VERSION {
        return Err(RestoreError::UnsupportedVersion(version));
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte slice"));
    let computed = {
        let mut h = Fnv1a::new();
        h.write_bytes(body);
        h.finish()
    };
    if stored != computed {
        return Err(RestoreError::ChecksumMismatch { stored, computed });
    }
    let mut pos = 16usize;
    let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    // The checksum already authenticated the bytes, but the structure can
    // still be internally inconsistent; bound the decode by the body length.
    let mut entries = Vec::new();
    for i in 0..count {
        let i = i as usize;
        let graph = read_u64(body, &mut pos, i)?;
        let options = read_u64(body, &mut pos, i)?;
        let modularity = f64::from_bits(read_u64(body, &mut pos, i)?);
        let stages = read_u64(body, &mut pos, i)? as usize;
        let num_labels = read_u64(body, &mut pos, i)? as usize;
        let label_bytes = num_labels
            .checked_mul(4)
            .filter(|b| pos.checked_add(*b).is_some_and(|e| e <= body.len()));
        let Some(label_bytes) = label_bytes else {
            return Err(RestoreError::Truncated { entry: i });
        };
        let labels = body[pos..pos + label_bytes]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        pos += label_bytes;
        entries.push(SnapshotEntry {
            key: CacheKey { graph, options },
            modularity,
            stages,
            labels,
        });
    }
    if pos != body.len() {
        // Trailing garbage inside a checksummed body: count field lied.
        return Err(RestoreError::Truncated { entry: count as usize });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SnapshotEntry> {
        vec![
            SnapshotEntry {
                key: CacheKey { graph: 0xdead_beef, options: 42 },
                modularity: 0.4375,
                stages: 3,
                labels: vec![0, 1, 1, 2, 0],
            },
            SnapshotEntry {
                key: CacheKey { graph: 7, options: 9 },
                modularity: -0.5,
                stages: 1,
                labels: vec![],
            },
        ]
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let entries = sample();
        let bytes = encode_snapshot(&entries);
        let decoded = decode_snapshot(&bytes).expect("clean snapshot decodes");
        assert_eq!(decoded, entries);
        // Re-encoding the decode reproduces the exact bytes.
        assert_eq!(encode_snapshot(&decoded), bytes);
    }

    /// The trailing checksum of `sample()`, computed by the byte-at-a-time
    /// FNV-1a loop: snapshots written before the word-wise hasher must
    /// still verify.
    #[test]
    fn checksum_matches_the_byte_wise_golden() {
        const GOLDEN: u64 = 0xf5ef_0c10_a0ff_d95c;
        let bytes = encode_snapshot(&sample());
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        assert_eq!(u64::from_le_bytes(sum.try_into().unwrap()), GOLDEN);
        // The body under the golden checksum is a snapshot as the byte-wise
        // encoder wrote it, and it decodes.
        let mut old = body.to_vec();
        old.extend_from_slice(&GOLDEN.to_le_bytes());
        assert_eq!(decode_snapshot(&old), Ok(sample()));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let bytes = encode_snapshot(&[]);
        assert_eq!(decode_snapshot(&bytes).expect("empty is valid"), vec![]);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_snapshot(&sample());
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len]).is_err(),
                "a {len}-byte prefix of a {}-byte snapshot must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode_snapshot(&sample());
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert!(decode_snapshot(&flipped).is_err(), "bit flip at byte {i} must be caught");
        }
    }

    #[test]
    fn typed_header_errors() {
        assert_eq!(decode_snapshot(&[]), Err(RestoreError::TooShort { len: 0 }));
        let mut bad_magic = encode_snapshot(&[]);
        bad_magic[0] = b'X';
        assert_eq!(decode_snapshot(&bad_magic), Err(RestoreError::BadMagic));
        // A wrong version with a *recomputed* checksum still refuses.
        let mut wrong_version = encode_snapshot(&[]);
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        let body_len = wrong_version.len() - 8;
        let mut h = Fnv1a::new();
        h.write_bytes(&wrong_version[..body_len]);
        let sum = h.finish().to_le_bytes();
        wrong_version[body_len..].copy_from_slice(&sum);
        assert_eq!(decode_snapshot(&wrong_version), Err(RestoreError::UnsupportedVersion(99)));
    }

    #[test]
    fn forged_count_with_valid_checksum_is_truncated_not_panic() {
        // Claim 1000 entries but provide none, then re-checksum so only the
        // structural bound can catch it.
        let mut bytes = encode_snapshot(&[]);
        bytes[8..16].copy_from_slice(&1000u64.to_le_bytes());
        let body_len = bytes.len() - 8;
        let mut h = Fnv1a::new();
        h.write_bytes(&bytes[..body_len]);
        let sum = h.finish().to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        assert_eq!(decode_snapshot(&bytes), Err(RestoreError::Truncated { entry: 0 }));
    }
}
