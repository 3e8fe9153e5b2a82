//! The replication wire format: one [`lcdd_engine::frame`] frame per
//! message.
//!
//! ```text
//! frame "LCDDREPL" v1, payload:
//!   kind u8 (1 record | 2 snapshot | 3 heartbeat)
//!   body    (record: WAL payload bytes — an insert's body is an
//!                    LCDDSEG2 image of the inserted slots |
//!            snapshot: epoch u64 | LCDDSNAP engine snapshot frame |
//!            heartbeat: leader epoch u64)
//! ```
//!
//! A frame that fails its checksum, is cut short or runs long, or names
//! an unknown kind decodes to [`EngineError::Replication`] — the
//! follower's response is quarantine-and-resync, never a panic. The frame
//! checksum is the *transport* integrity layer and covers the kind byte
//! too; record bodies are the leader's WAL payload bytes verbatim, and a
//! snapshot is a whole engine snapshot frame with its own checksum, so
//! corruption that slips past one layer is still caught by the next. Nothing persists
//! these frames, so the layout carries no compatibility promise beyond
//! one leader and its followers running the same build.

use lcdd_engine::frame::{self, Cursor, Put};
use lcdd_fcm::EngineError;

const MAGIC: &[u8; 8] = b"LCDDREPL";
const VERSION: u32 = 1;

/// One replication stream message.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// One WAL record, as [`lcdd_store::WalRecord::encode_payload`]
    /// bytes — appended and applied by the follower without re-encoding.
    Record { payload: Vec<u8> },
    /// A full state transfer — the resync path for a follower that cannot
    /// be caught up record-by-record: the leader's published state as an
    /// engine snapshot ([`lcdd_store::DurableEngine::export_snapshot`]
    /// bytes) and the epoch it was published at, which the snapshot
    /// itself does not carry.
    Snapshot { epoch: u64, snapshot: Vec<u8> },
    /// Leader liveness and progress: the leader's published epoch.
    /// Followers use it to evaluate bounded-staleness read contracts.
    Heartbeat { leader_epoch: u64 },
}

impl Frame {
    /// Serializes the frame (header + checksummed payload).
    pub fn encode(&self) -> Vec<u8> {
        // Snapshot and heartbeat bodies start with an epoch.
        let mut epoch_bytes = Vec::new();
        let (kind, body): (u8, &[u8]) = match self {
            Frame::Record { payload } => (1, payload),
            Frame::Snapshot { epoch, snapshot } => {
                epoch_bytes.put_u64(*epoch);
                (2, snapshot)
            }
            Frame::Heartbeat { leader_epoch } => {
                epoch_bytes.put_u64(*leader_epoch);
                (3, &[])
            }
        };
        let head = frame::head(MAGIC, VERSION, &[&[kind], &epoch_bytes, body]);
        let mut out = Vec::with_capacity(head.len() + 1 + epoch_bytes.len() + body.len());
        out.extend_from_slice(&head);
        out.put_u8(kind);
        out.extend_from_slice(&epoch_bytes);
        out.extend_from_slice(body);
        out
    }

    /// Parses and verifies one encoded frame. Every malformation —
    /// truncation, checksum mismatch, unknown kind, trailing bytes — is
    /// [`EngineError::Replication`] with the detail spelled out.
    pub fn decode(bytes: &[u8]) -> Result<Frame, EngineError> {
        let bad = |e: EngineError| match e {
            EngineError::Store(m) => EngineError::Replication(format!("frame: {m}")),
            other => other,
        };
        let mut cur = Cursor::new(frame::verify(bytes, MAGIC, VERSION).map_err(bad)?);
        let kind = cur.u8().map_err(bad)?;
        match kind {
            1 => Ok(Frame::Record {
                payload: cur.rest().to_vec(),
            }),
            2 => Ok(Frame::Snapshot {
                epoch: cur.u64().map_err(bad)?,
                snapshot: cur.rest().to_vec(),
            }),
            3 => {
                let leader_epoch = cur.u64().map_err(bad)?;
                if cur.remaining() != 0 {
                    return Err(EngineError::Replication(format!(
                        "frame: {} trailing bytes after the heartbeat",
                        cur.remaining()
                    )));
                }
                Ok(Frame::Heartbeat { leader_epoch })
            }
            other => Err(EngineError::Replication(format!(
                "frame: unknown kind {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_kinds() {
        for frame in [
            Frame::Record {
                payload: vec![1, 2, 3, 4, 5],
            },
            Frame::Snapshot {
                epoch: 7,
                snapshot: vec![0; 64],
            },
            Frame::Heartbeat { leader_epoch: 42 },
        ] {
            let enc = frame.encode();
            assert_eq!(Frame::decode(&enc).unwrap(), frame);
        }
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let enc = Frame::Record {
            payload: vec![7; 32],
        }
        .encode();
        // Flip every byte position in turn: decode must error or return a
        // *different* frame, never panic and never silently accept.
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x40;
            match Frame::decode(&bad) {
                Err(EngineError::Replication(_)) => {}
                Err(other) => panic!("unexpected error type: {other}"),
                Ok(f) => assert_ne!(
                    f,
                    Frame::Record {
                        payload: vec![7; 32]
                    },
                    "flip at {i} must not decode to the original"
                ),
            }
        }
        // Truncation at every split point.
        for cut in 0..enc.len() {
            assert!(matches!(
                Frame::decode(&enc[..cut]),
                Err(EngineError::Replication(_))
            ));
        }
    }
}
