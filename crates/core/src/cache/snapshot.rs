//! Suite snapshots (layer 2): a saturated suite e-graph serialized for
//! warm-start, tagged with the exporting session's policy fingerprint.

use std::fmt;

use hb_egraph::snapshot::SnapshotError;

/// A saturated suite e-graph exported by
/// [`Session::compile_ir_suite_exporting`], restorable by a session with
/// the same policy fingerprint via [`Session::compile_ir_suite_warm`].
///
/// The byte form ([`SuiteSnapshot::to_bytes`]) is the fingerprint
/// (little-endian `u64`) followed by the engine's framed snapshot
/// (`hb_egraph::snapshot` — magic, format version, length, checksum, and
/// a payload of the graph's union-find and class contents). Corrupted,
/// truncated or version-mismatched bytes surface as a typed
/// [`SnapshotError`] at restore time, never a panic, and the warm entry
/// point falls back to a cold compile.
///
/// [`Session::compile_ir_suite_exporting`]: crate::session::Session::compile_ir_suite_exporting
/// [`Session::compile_ir_suite_warm`]: crate::session::Session::compile_ir_suite_warm
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteSnapshot {
    pub(crate) engine: Vec<u8>,
    pub(crate) fingerprint: u64,
}

impl SuiteSnapshot {
    /// The exporting session's policy fingerprint (target, batching,
    /// budgets, node limit, the intrinsic and movement prices — see the
    /// module docs in [`super`]).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Serialized size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        8 + self.engine.len()
    }

    /// Serializes the snapshot for storage or transport.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.size_bytes());
        bytes.extend_from_slice(&self.fingerprint.to_le_bytes());
        bytes.extend_from_slice(&self.engine);
        bytes
    }

    /// Deserializes a snapshot previously written by
    /// [`SuiteSnapshot::to_bytes`]. Only the outer framing is checked
    /// here; the engine payload is fully validated (checksum, structure)
    /// when a warm compile restores it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the fingerprint header is
    /// incomplete.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        let mut fingerprint = [0u8; 8];
        fingerprint.copy_from_slice(&bytes[..8]);
        Ok(SuiteSnapshot {
            fingerprint: u64::from_le_bytes(fingerprint),
            engine: bytes[8..].to_vec(),
        })
    }
}

/// Why a warm-start compile fell back to a cold one. Returned alongside
/// the (cold) result by [`Session::compile_ir_suite_warm`] — warm-start
/// degrades, it never fails.
///
/// [`Session::compile_ir_suite_warm`]: crate::session::Session::compile_ir_suite_warm
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmRejection {
    /// The engine snapshot failed validation (corrupted, truncated, or
    /// an unsupported format version).
    Snapshot(SnapshotError),
    /// The snapshot was exported under a different policy fingerprint
    /// (different target, batching mode, budgets, node limit or prices) —
    /// warm-starting it could select different programs.
    PolicyMismatch {
        /// This session's fingerprint.
        expected: u64,
        /// The snapshot's fingerprint.
        found: u64,
    },
}

impl fmt::Display for WarmRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarmRejection::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            WarmRejection::PolicyMismatch { expected, found } => write!(
                f,
                "snapshot policy fingerprint {found:016x} does not match session {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for WarmRejection {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WarmRejection::Snapshot(e) => Some(e),
            WarmRejection::PolicyMismatch { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip_preserves_fingerprint_and_payload() {
        let snap = SuiteSnapshot {
            engine: vec![1, 2, 3, 4, 5],
            fingerprint: 0xdead_beef_cafe_f00d,
        };
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.size_bytes());
        assert_eq!(SuiteSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn truncated_header_is_a_typed_error() {
        assert_eq!(
            SuiteSnapshot::from_bytes(&[1, 2, 3]),
            Err(SnapshotError::Truncated)
        );
    }
}
