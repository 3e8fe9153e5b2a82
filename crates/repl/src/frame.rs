//! The replication wire format: one self-checking frame per message.
//!
//! ```text
//! kind  u8   (1 record | 2 snapshot | 3 heartbeat)
//! len   u32  (payload bytes)
//! hash  u64  (FNV-1a over the payload — same checksum the WAL uses)
//! payload
//! ```
//!
//! A frame that fails its checksum, promises more bytes than it carries,
//! or names an unknown kind decodes to [`EngineError::Replication`] —
//! the follower's response is quarantine-and-resync, never a panic. The
//! checksum is the *transport* integrity layer; record payloads are the
//! leader's WAL payload bytes verbatim, and checkpoint packages keep each
//! file's own frame, so corruption that slips past one layer is still
//! caught by the next.

use lcdd_engine::frame::fnv1a64;
use lcdd_fcm::EngineError;

/// Largest accepted frame payload (matches the WAL's record cap).
const MAX_FRAME_BYTES: usize = 1 << 31;

/// Header bytes before the payload (kind + len + hash).
pub const FRAME_HEADER_LEN: usize = 13;

/// One replication stream message.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// One WAL record, as [`lcdd_store::WalRecord::encode_payload`]
    /// bytes — appended and applied by the follower without re-encoding.
    Record { payload: Vec<u8> },
    /// A full checkpoint transfer, as
    /// [`lcdd_store::CheckpointPackage::to_bytes`] bytes — the resync
    /// path for a follower that cannot be caught up record-by-record.
    Snapshot { package: Vec<u8> },
    /// Leader liveness and progress: the leader's published epoch.
    /// Followers use it to evaluate bounded-staleness read contracts.
    Heartbeat { leader_epoch: u64 },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Record { .. } => 1,
            Frame::Snapshot { .. } => 2,
            Frame::Heartbeat { .. } => 3,
        }
    }

    /// Serializes the frame (header + checksummed payload).
    pub fn encode(&self) -> Vec<u8> {
        let payload: &[u8] = match self {
            Frame::Record { payload } => payload,
            Frame::Snapshot { package } => package,
            Frame::Heartbeat { .. } => &[],
        };
        let hb_bytes;
        let payload = if let Frame::Heartbeat { leader_epoch } = self {
            hb_bytes = leader_epoch.to_le_bytes();
            &hb_bytes[..]
        } else {
            payload
        };
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        out.push(self.kind());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Parses and verifies one encoded frame. Every malformation —
    /// truncation, checksum mismatch, unknown kind, trailing bytes — is
    /// [`EngineError::Replication`] with the detail spelled out.
    pub fn decode(bytes: &[u8]) -> Result<Frame, EngineError> {
        let bad = |m: String| EngineError::Replication(format!("frame: {m}"));
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(bad(format!(
                "{} bytes is shorter than the {FRAME_HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        let kind = bytes[0];
        let len = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(bad(format!("implausible payload length {len}")));
        }
        let expect_hash = u64::from_le_bytes([
            bytes[5], bytes[6], bytes[7], bytes[8], bytes[9], bytes[10], bytes[11], bytes[12],
        ]);
        let body = &bytes[FRAME_HEADER_LEN..];
        if body.len() != len {
            return Err(bad(format!(
                "payload promises {len} bytes, {} present",
                body.len()
            )));
        }
        let got = fnv1a64(body);
        if got != expect_hash {
            return Err(bad(format!(
                "checksum mismatch: expected {expect_hash:#018x}, got {got:#018x}"
            )));
        }
        match kind {
            1 => Ok(Frame::Record {
                payload: body.to_vec(),
            }),
            2 => Ok(Frame::Snapshot {
                package: body.to_vec(),
            }),
            3 => {
                if body.len() != 8 {
                    return Err(bad(format!("heartbeat payload of {} bytes", body.len())));
                }
                Ok(Frame::Heartbeat {
                    leader_epoch: u64::from_le_bytes([
                        body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
                    ]),
                })
            }
            other => Err(bad(format!("unknown kind {other}"))),
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
                package: vec![0; 64],
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
