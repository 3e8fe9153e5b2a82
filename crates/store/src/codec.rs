//! The framed-file container every store file but the WAL uses.
//!
//! A *framed file* is exactly one [`lcdd_engine::frame`] frame — `magic |
//! version | payload_len | FNV-1a | payload` — the envelope engine
//! snapshots carry too, so every store artifact (segment, meta section,
//! manifest) gets total corruption detection: truncation, trailing bytes
//! and bit flips anywhere surface as typed [`EngineError`]s, never a panic
//! and never silently different state. The header layout and its
//! validation, the checksum, and the `Put` / `Cursor` pair that payloads
//! are written and parsed with all live in that module; this one adds
//! only what is the store's own: fault-hooked, fsync-chunked writes and
//! file names in error messages.

use std::io::Write;
use std::path::Path;

use lcdd_engine::frame;
use lcdd_fcm::EngineError;

use crate::fault::{self, FaultHook, FaultPoint};

/// Upper bound on any length or count a payload declares. Headers are
/// untrusted: callers reject larger values before sizing anything by
/// them. Within `usize` on 32-bit targets.
pub(crate) const MAX_PAYLOAD_BYTES: usize = 1 << 31;

/// Writes `payload` to `path` under a checksummed frame. The file is
/// written whole and fsynced; callers needing atomic replacement write to
/// a temp name and rename (see [`crate::manifest`]). The fault hook
/// (`point` names which instrumented operation this write counts as) is
/// consulted *before* any byte lands, so an injected failure is a write
/// that never happened.
pub(crate) fn write_framed(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    payload: &[u8],
    hook: &FaultHook,
    point: FaultPoint,
) -> Result<(), EngineError> {
    write_framed_parts(path, magic, version, &[payload], hook, point).map(|_| ())
}

/// [`write_framed`] for a payload held as consecutive byte runs (a
/// [`lcdd_engine::persist::SegmentImage`]): checksummed and written run
/// by run, never concatenated. Returns the payload length.
pub(crate) fn write_framed_parts(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    parts: &[&[u8]],
    hook: &FaultHook,
    point: FaultPoint,
) -> Result<u64, EngineError> {
    fault::check(hook, point)?;
    let payload_len: u64 = parts.iter().map(|p| p.len() as u64).sum();
    let mut f = std::fs::File::create(path)?;
    f.write_all(&frame::head(magic, version, parts))?;
    for part in parts {
        for chunk in part.chunks(SYNC_CHUNK_BYTES) {
            f.write_all(chunk)?;
            if chunk.len() == SYNC_CHUNK_BYTES {
                f.sync_data()?;
            }
        }
    }
    f.sync_all()?;
    Ok(payload_len)
}

/// A framed write flushes after every run of this many bytes instead of
/// once at the end. Segments are written while writers keep appending to
/// the WAL on the same filesystem, and on a journaling filesystem (ext4
/// `data=ordered`) the WAL's `fdatasync` commits a transaction that must
/// first flush *every* dirty page written since the last commit — a whole
/// 10 MB segment sitting in the page cache turns a 0.4 ms WAL sync into
/// 8–35 ms. Keeping the dirty backlog under 256 KiB bounds that wait
/// (measured on the bench host: WAL sync p95 beside a segment writer
/// 7.8 ms unchunked, 2.5 ms at 1 MiB, 1.1 ms at 256 KiB) for ~0.3 ms of
/// extra sync per chunk, paid off the write path.
const SYNC_CHUNK_BYTES: usize = 256 << 10;

/// Reads and verifies a framed file, returning its payload. Bad magic,
/// version, length (short *or* long) or checksum surface as
/// [`EngineError::Store`] carrying the file name.
pub(crate) fn read_framed(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
) -> Result<Vec<u8>, EngineError> {
    let name = path.display();
    let mut bytes =
        std::fs::read(path).map_err(|e| EngineError::Store(format!("{name}: cannot open: {e}")))?;
    frame::verify(&bytes, magic, version).map_err(frame::context(&name))?;
    bytes.drain(..frame::HEAD_LEN);
    Ok(bytes)
}

/// Best-effort directory fsync (required on some filesystems for renames
/// and new files to be durable; a failure is not actionable here).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(f) = std::fs::File::open(dir) {
        let _ = f.sync_all();
    }
}
