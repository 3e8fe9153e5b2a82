//! The error type shared by the engine-facing APIs (hand-rolled
//! `thiserror`-style enum; the build environment has no network access, so
//! no derive crates).

use std::fmt;
use std::io;

/// Everything that can go wrong constructing, persisting or querying the
/// search engine.
#[derive(Debug)]
pub enum EngineError {
    /// An [`crate::FcmConfig`] failed internal consistency checks.
    InvalidConfig(String),
    /// An underlying filesystem / stream error.
    Io(io::Error),
    /// A weight block restored fewer parameters than the model defines —
    /// almost always a config mismatch.
    WeightMismatch { expected: usize, restored: usize },
    /// A snapshot file is malformed, truncated, or from an unknown version.
    Snapshot(String),
    /// A write-ahead-log file is malformed: a record fails its checksum,
    /// the framing is inconsistent, or replay diverges from the recorded
    /// epochs. (A *torn tail* — a final record cut short by a crash — is
    /// not an error; recovery truncates it.)
    Wal(String),
    /// The durable store is inconsistent: no valid manifest, a segment
    /// missing or corrupt, or a manifest referencing state that cannot be
    /// assembled.
    Store(String),
    /// The replication stream is unusable as-is: a shipped frame failed
    /// its checksum, a record arrived out of sequence, the leader's WAL
    /// chain no longer covers a follower's position, or a read-consistency
    /// contract cannot be met by the replica's current epoch. Recoverable
    /// by design — the replication layer responds with retry, resume-from-
    /// offset or a full resync, never a panic.
    Replication(String),
    /// The query kind cannot be served by this engine configuration
    /// (e.g. a raw chart image without a trained extractor).
    UnsupportedQuery(String),
    /// The query contains no extractable lines, so there is nothing to
    /// match against.
    EmptyQuery,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "invalid FCM config: {msg}"),
            EngineError::Io(e) => write!(f, "i/o error: {e}"),
            EngineError::WeightMismatch { expected, restored } => write!(
                f,
                "weight block restored {restored} of {expected} parameters; config mismatch?"
            ),
            EngineError::Snapshot(msg) => write!(f, "bad engine snapshot: {msg}"),
            EngineError::Wal(msg) => write!(f, "bad write-ahead log: {msg}"),
            EngineError::Store(msg) => write!(f, "inconsistent durable store: {msg}"),
            EngineError::Replication(msg) => write!(f, "replication: {msg}"),
            EngineError::UnsupportedQuery(msg) => write!(f, "unsupported query: {msg}"),
            EngineError::EmptyQuery => write!(f, "query has no extractable lines"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for EngineError {
    fn from(e: io::Error) -> Self {
        EngineError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_detail() {
        let e = EngineError::InvalidConfig("p2 (30) must be divisible by 2^beta (4)".into());
        assert!(e.to_string().contains("divisible by 2^beta"));
        let e = EngineError::WeightMismatch {
            expected: 10,
            restored: 3,
        };
        assert!(e.to_string().contains("3 of 10"));
        let e = EngineError::Wal("record 3 checksum mismatch".into());
        assert!(e.to_string().contains("write-ahead log"));
        let e = EngineError::Store("no valid manifest".into());
        assert!(e.to_string().contains("durable store"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: EngineError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, EngineError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
