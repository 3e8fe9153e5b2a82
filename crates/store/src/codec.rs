//! Little-endian primitive codecs and the framed-file container every
//! store file uses.
//!
//! A *framed file* is `magic (8 bytes) | version u32 | payload_len u64 |
//! payload_hash u64 (FNV-1a) | payload` — the same envelope `LCDDSNP2`
//! snapshots carry, so every store artifact (segment, meta section,
//! manifest) gets total corruption detection: truncation and bit flips
//! anywhere surface as typed [`EngineError`]s, never a panic and never
//! silently different state.
//!
//! These primitives deliberately do *not* reuse the `lcdd_engine`
//! snapshot codec helpers: those operate on `impl Read` and classify
//! failures as `Io`/`Snapshot`, while store files want slice-bounded
//! reads with offset-carrying [`EngineError::Store`] messages. The only
//! contract the two sides share is the little-endian layout and
//! [`fnv1a64`] (imported from `lcdd_engine::persist`, the single
//! implementation); that bit-compatibility is pinned by the round-trip
//! and corruption suites.

use std::io::{Read, Write};
use std::path::Path;

use lcdd_engine::persist::{fnv1a64, fnv1a64_parts};
use lcdd_fcm::EngineError;

use crate::fault::{self, FaultHook, FaultPoint};

/// Upper bound on any framed payload / variable-length field. Headers are
/// untrusted: without a cap a corrupt length would trigger a multi-GB
/// allocation before the read ever fails. Strictly below `u32::MAX` so
/// the `rstr` guard over a `u32` length can actually fire, and within
/// `usize` on 32-bit targets.
pub(crate) const MAX_PAYLOAD_BYTES: usize = 1 << 31;

pub(crate) fn wu32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn wu64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn wf64(w: &mut Vec<u8>, v: f64) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn wstr(w: &mut Vec<u8>, s: &str) {
    wu32(w, s.len() as u32);
    w.extend_from_slice(s.as_bytes());
}

/// Reader over a byte slice with typed short-read errors (the closure
/// callers wrap the message with file context).
pub(crate) struct SliceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        SliceReader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        if self.remaining() < n {
            return Err(EngineError::Store(format!(
                "payload ended early: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn ru32(&mut self) -> Result<u32, EngineError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn ru64(&mut self) -> Result<u64, EngineError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn rf64(&mut self) -> Result<f64, EngineError> {
        Ok(f64::from_bits(self.ru64()?))
    }

    pub(crate) fn rstr(&mut self) -> Result<String, EngineError> {
        let len = self.ru32()? as usize;
        if len > MAX_PAYLOAD_BYTES {
            return Err(EngineError::Store(format!(
                "string length {len} exceeds the payload cap"
            )));
        }
        let b = self.take(len)?;
        String::from_utf8(b.to_vec())
            .map_err(|e| EngineError::Store(format!("non-UTF-8 string: {e}")))
    }
}

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
    let mut head = Vec::with_capacity(28);
    head.extend_from_slice(magic);
    wu32(&mut head, version);
    wu64(&mut head, payload_len);
    wu64(&mut head, fnv1a64_parts(parts));
    let mut f = std::fs::File::create(path)?;
    f.write_all(&head)?;
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
/// version, truncation or checksum mismatch surface as
/// [`EngineError::Store`] carrying the file name.
pub(crate) fn read_framed(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
) -> Result<Vec<u8>, EngineError> {
    let name = path.display();
    let mut f = std::fs::File::open(path)
        .map_err(|e| EngineError::Store(format!("{name}: cannot open: {e}")))?;
    let mut head = [0u8; 28];
    f.read_exact(&mut head)
        .map_err(|e| EngineError::Store(format!("{name}: header ended early: {e}")))?;
    if &head[0..8] != magic {
        return Err(EngineError::Store(format!("{name}: bad magic")));
    }
    let got_version = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
    if got_version != version {
        return Err(EngineError::Store(format!(
            "{name}: unsupported version {got_version} (expected {version})"
        )));
    }
    let payload_len = u64::from_le_bytes([
        head[12], head[13], head[14], head[15], head[16], head[17], head[18], head[19],
    ]) as usize;
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(EngineError::Store(format!(
            "{name}: implausible payload length {payload_len}"
        )));
    }
    let expect_hash = u64::from_le_bytes([
        head[20], head[21], head[22], head[23], head[24], head[25], head[26], head[27],
    ]);
    // Bounded read: the buffer grows only as bytes arrive, so a corrupt
    // length cannot trigger an up-front allocation.
    let mut payload = Vec::new();
    std::io::Read::take(f, payload_len as u64)
        .read_to_end(&mut payload)
        .map_err(EngineError::Io)?;
    if payload.len() != payload_len {
        return Err(EngineError::Store(format!(
            "{name}: truncated: payload {} of {payload_len} bytes",
            payload.len()
        )));
    }
    let got = fnv1a64(&payload);
    if got != expect_hash {
        return Err(EngineError::Store(format!(
            "{name}: checksum mismatch: expected {expect_hash:#018x}, got {got:#018x}"
        )));
    }
    Ok(payload)
}

/// Best-effort directory fsync (required on some filesystems for renames
/// and new files to be durable; a failure is not actionable here).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(f) = std::fs::File::open(dir) {
        let _ = f.sync_all();
    }
}
