//! The byte-level plumbing every persisted or shipped artifact shares: one
//! checksum, one checksummed frame, one bounds-checked little-endian
//! reader ([`Cursor`]) and its mirror-image writer ([`Put`]). No other
//! module encodes or decodes the bytes of a stored or shipped artifact
//! (`scripts/check_one_codec.sh` enforces it).
//!
//! A *frame* is `magic (8 bytes) | version u32 | payload_len u64 |
//! payload_hash u64 (FNV-1a) | payload`, all little-endian. Each of these
//! is exactly one frame — nothing may follow the payload — so
//! truncation, trailing garbage and bit flips anywhere surface as typed
//! errors, never a panic and never silently different state:
//!
//! * engine snapshots (`LCDDSNAP`, [`crate::persist`]);
//! * the store's `meta.seg`, `seg-*` and `MANIFEST-*` files;
//! * replication stream messages (`lcdd_repl::Frame`).
//!
//! What those frames carry is written with [`Put`] and read with
//! [`Cursor`]: the meta section with its `LCDDW001` weight block, `LCDDSEG2`
//! segment images ([`crate::mapped`]), encoded table batches and
//! manifests (a replication resync message carries a whole `LCDDSNAP`
//! frame). The write-ahead log is the one file that is not a frame (it
//! is appended record by record), but its header, its `len u32 | hash
//! u64` record frames and its record payloads go through the same two
//! types.
//!
//! Errors leave this module as [`EngineError::Store`] carrying only what
//! went wrong; callers add the file name and re-label the variant
//! (`Snapshot`, `Wal`, `Replication`) through their own `map_err`.

use lcdd_fcm::EngineError;

/// Bytes in a frame header.
pub const HEAD_LEN: usize = 28;

/// FNV-1a over a byte slice — the integrity hash of frames, WAL records,
/// segment summaries, slot blobs and replication frames. Not
/// cryptographic; the threat model is truncation and accidental
/// corruption.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_parts(&[bytes])
}

/// [`fnv1a64`] of the concatenation of `parts`, without concatenating —
/// lets a writer checksum a payload it streams out as several runs.
pub fn fnv1a64_parts(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The header of a frame whose payload is the concatenation of `parts`.
pub fn head(magic: &[u8; 8], version: u32, parts: &[&[u8]]) -> [u8; HEAD_LEN] {
    let payload_len: u64 = parts.iter().map(|p| p.len() as u64).sum();
    let mut head = [0u8; HEAD_LEN];
    head[0..8].copy_from_slice(magic);
    head[8..12].copy_from_slice(&version.to_le_bytes());
    head[12..20].copy_from_slice(&payload_len.to_le_bytes());
    head[20..28].copy_from_slice(&fnv1a64_parts(parts).to_le_bytes());
    head
}

/// Validates that `bytes` is exactly one frame of the given magic and
/// version — header, length (no missing *and* no trailing bytes) and
/// checksum — and returns its payload.
pub fn verify<'a>(bytes: &'a [u8], magic: &[u8; 8], version: u32) -> Result<&'a [u8], EngineError> {
    let mut cur = Cursor::new(bytes);
    let head_err = |_: EngineError| EngineError::Store("truncated frame header".into());
    if cur.take(8).map_err(head_err)? != magic {
        return Err(EngineError::Store("bad magic".into()));
    }
    let got_version = cur.u32().map_err(head_err)?;
    if got_version != version {
        return Err(EngineError::Store(format!(
            "unsupported version {got_version} (expected {version})"
        )));
    }
    let payload_len = cur.u64().map_err(head_err)?;
    let expect_hash = cur.u64().map_err(head_err)?;
    let payload = cur.rest();
    if payload_len != payload.len() as u64 {
        return Err(EngineError::Store(format!(
            "payload is {} bytes, header says {payload_len}",
            payload.len()
        )));
    }
    let got = fnv1a64(payload);
    if got != expect_hash {
        return Err(EngineError::Store(format!(
            "checksum mismatch: expected {expect_hash:#018x}, got {got:#018x}"
        )));
    }
    Ok(payload)
}

/// Prefixes an [`EngineError::Store`] message with `what` — the file or
/// section being read; other variants pass through.
pub fn context(what: impl std::fmt::Display) -> impl Fn(EngineError) -> EngineError {
    move |e| match e {
        EngineError::Store(m) => EngineError::Store(format!("{what}: {m}")),
        other => other,
    }
}

/// Little-endian f32 decode: reinterpret in place when the platform and
/// alignment allow, per-element otherwise.
pub(crate) fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: every bit pattern is a valid f32, and align_to reports
        // misalignment as a non-empty prefix, in which case we fall through.
        let (prefix, mid, suffix) = unsafe { bytes.align_to::<f32>() };
        if prefix.is_empty() && suffix.is_empty() {
            return mid.to_vec();
        }
    }
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// A bounds-checked little-endian reader over a byte slice. Every length
/// it is handed is checked against the bytes that remain *before* anything
/// is allocated, so untrusted counts cannot trigger large allocations.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Everything not yet consumed; the cursor is left empty.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        if self.remaining() < n {
            return Err(EngineError::Store(format!(
                "ended early: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], EngineError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u32(&mut self) -> Result<u32, EngineError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, EngineError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` count or length narrowed to `usize` (saturating, so an
    /// oversized value fails the next bounds check instead of wrapping).
    pub fn count(&mut self) -> Result<usize, EngineError> {
        Ok(usize::try_from(self.u64()?).unwrap_or(usize::MAX))
    }

    pub fn f64(&mut self) -> Result<f64, EngineError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, EngineError> {
        Ok(decode_f32s(self.take(n.saturating_mul(4))?))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, EngineError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|e| EngineError::Store(format!("non-UTF-8 string: {e}")))
    }
}

/// Little-endian writes onto a byte buffer — the mirror image of
/// [`Cursor`]: whatever one of these writes, the `Cursor` method of the
/// same name reads back.
pub trait Put {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    /// A `usize` count or length, written as a `u64` ([`Cursor::count`]).
    fn put_count(&mut self, n: usize);
    fn put_f64(&mut self, v: f64);
    /// A `u32`-length-prefixed UTF-8 string ([`Cursor::str`]).
    fn put_str(&mut self, s: &str);
    /// A run of f32s, no length prefix ([`Cursor::f32s`]).
    fn put_f32s(&mut self, vs: &[f32]);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_count(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.extend_from_slice(s.as_bytes());
    }

    fn put_f32s(&mut self, vs: &[f32]) {
        self.reserve(vs.len() * 4);
        for v in vs {
            self.extend_from_slice(&v.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_accepts_exactly_one_frame() {
        let parts: [&[u8]; 2] = [b"hello ", b"world"];
        let mut framed = head(b"TESTFRM1", 3, &parts).to_vec();
        framed.extend_from_slice(b"hello world");
        assert_eq!(verify(&framed, b"TESTFRM1", 3).unwrap(), b"hello world");
        assert!(verify(&framed, b"TESTFRM2", 3).is_err(), "magic");
        assert!(verify(&framed, b"TESTFRM1", 4).is_err(), "version");
        for cut in 0..framed.len() {
            assert!(verify(&framed[..cut], b"TESTFRM1", 3).is_err(), "cut {cut}");
        }
        let mut long = framed.clone();
        long.push(0);
        assert!(verify(&long, b"TESTFRM1", 3).is_err(), "trailing byte");
        for off in 0..framed.len() {
            let mut bad = framed.clone();
            bad[off] ^= 0x20;
            assert!(verify(&bad, b"TESTFRM1", 3).is_err(), "flip at {off}");
        }
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut bytes = Vec::new();
        bytes.put_u32(7);
        bytes.put_str("abc");
        bytes.put_f32s(&[1.5]);
        bytes.put_u8(9);
        bytes.put_u64(u64::MAX - 1);
        bytes.put_count(5);
        bytes.put_f64(-2.5);
        let mut cur = Cursor::new(&bytes);
        assert_eq!(cur.u32().unwrap(), 7);
        assert_eq!(cur.str().unwrap(), "abc");
        assert_eq!(cur.f32s(1).unwrap(), [1.5]);
        assert_eq!(cur.u8().unwrap(), 9);
        assert_eq!(cur.u64().unwrap(), u64::MAX - 1);
        assert_eq!(cur.count().unwrap(), 5);
        assert_eq!(cur.f64().unwrap(), -2.5);
        assert_eq!(cur.remaining(), 0);
        assert!(cur.u8().is_err());
        assert!(Cursor::new(&bytes).f32s(usize::MAX).is_err());
        assert_eq!(
            Cursor::new(&u64::MAX.to_le_bytes()).count().unwrap(),
            usize::MAX
        );
    }
}
