//! Memory-mappable checkpoint segments — the cold tier of the corpus.
//!
//! A *segment image* (`LCDDSEG2`) is a fixed-layout, align-safe encoding
//! of one shard's live slots, split into two regions:
//!
//! ```text
//! 0   magic   "LCDDSEG2"                       (8 bytes)
//! 8   format  u32 (written: 2; 1 is still read)
//! 12  embed_dim u32
//! 16  n_slots u64
//! 24  summary_len u64
//! 32  summary_hash u64 (FNV-1a over the summary bytes)
//! 40  blob_off u64  (64-byte aligned, relative to image start)
//! 48  blob_len u64  (blob_off + blob_len == image length)
//! 56  reserved u64 (must be 0)
//! 64  summary: per slot —
//!       id u64, name (u32 len + bytes), n_cols u64,
//!       per column: range lo f64, hi f64, encoding dims u32 x 2,
//!                   pooled column embedding (enc_cols x f32),
//!       pooled rows u64, pooled sum (embed_dim x f32),
//!       n_intervals u64, per interval: lo f64, hi f64,
//!       blob_elems u64, blob_hash u64 (FNV-1a over the slot's blob bytes)
//!     zero padding to blob_off
//! blob: f32 LE matrix elements, slot-major —
//!       per slot: every encoding matrix row-major; slots tile the blob
//!       contiguously
//! ```
//!
//! Format 1 also carried each column's raw `N2 x P2` segment matrix: its
//! dims ahead of the encoding dims in the summary, its elements ahead of
//! the encodings in the slot's blob extent. Search never reads them, so
//! the parser skips them (they stay under the slot's blob hash) and
//! nothing writes format 1 any more.
//!
//! The split is the point: the **summary** carries everything candidate
//! generation, tombstoning and the global pooled-mean need (identity,
//! column ranges, index intervals, pooled column embeddings, the pooled
//! sum), while the **blob** carries the column encodings, which only
//! exact scoring and persistence touch. A `MappedSegment` therefore
//! serves a cold shard *without decoding the blob*: a slot's encodings
//! materialize one slot at a time, on demand, straight out of the
//! mapping.
//!
//! On Linux/x86-64 the mapping is a real `mmap(PROT_READ, MAP_PRIVATE)`
//! issued by raw syscall (this workspace deliberately has no libc
//! binding); elsewhere — or when `mmap` fails — the file is read into a
//! 64-byte-aligned heap buffer, which keeps every byte path identical at
//! the cost of residency. Because `blob_off` is 64-aligned and the store
//! frame header is 28 bytes, blob floats sit on 4-byte boundaries in the
//! file, so the little-endian fast path reinterprets mapped bytes in
//! place (`align_to::<f32>`) and copies only the matrices a candidate
//! actually needs.
//!
//! Integrity: `MappedSegment::open_framed` verifies the enclosing
//! [`crate::frame`] over the *whole* file at open — one sequential pass,
//! after which the blob pages are dropped again (`madvise MADV_DONTNEED`)
//! so a freshly opened cold corpus starts near-zero resident. Truncation,
//! trailing bytes or bit flips anywhere in the file surface as typed
//! [`EngineError::Store`] values at open; materialization after a clean
//! open is infallible by construction (every extent was bounds-checked at
//! parse). The eager decode (`parse_segment_slots`, also the path engine
//! snapshots load and WAL insert records replay through) additionally
//! checks each slot's blob hash, so an image is self-verifying even
//! outside a frame. Every reader passes the serving model's `embed_dim`,
//! and an image of another width is refused at parse.

use std::borrow::Borrow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use lcdd_fcm::{column_embedding, EngineError};
use lcdd_tensor::Matrix;

use crate::engine::TableMeta;
use crate::frame::{self, decode_f32s, fnv1a64, Cursor, Put};
use crate::shard::{PooledStat, SlotData};

pub(crate) const IMAGE_MAGIC: &[u8; 8] = b"LCDDSEG2";
pub(crate) const IMAGE_FORMAT: u32 = 2;
const HEADER_LEN: usize = 64;
/// Sanity bound on any count or matrix size a summary declares (256 MiB
/// is orders of magnitude above any real encoding matrix): a
/// corrupt field is rejected by name before anything is sized by it.
const MAX_FIELD_BYTES: usize = 256 << 20;
/// x86-64 page size; only used to round `madvise` ranges, where a wrong
/// guess degrades to "pages stay resident", never to incorrectness.
const PAGE: usize = 4096;

// ---- the mapping ---------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! Raw x86-64 Linux syscalls. The workspace has no libc dependency,
    //! so the three calls the cold tier needs are issued directly; each
    //! is gated to exactly the (arch, OS) pair the numbers belong to.

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const SYS_MADVISE: usize = 28;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    const MADV_DONTNEED: usize = 4;

    #[inline]
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    /// Maps `len` bytes of `fd` read-only. Returns the base address, or
    /// `None` on any failure (the caller falls back to a heap read).
    pub(super) fn mmap_readonly(fd: i32, len: usize) -> Option<*const u8> {
        if len == 0 {
            return None;
        }
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        // Errors come back as -errno in [-4095, -1].
        if (-4095..0).contains(&ret) {
            None
        } else {
            Some(ret as *const u8)
        }
    }

    pub(super) fn munmap(ptr: *const u8, len: usize) {
        unsafe {
            syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0);
        }
    }

    /// Best-effort release of resident pages in `[ptr, ptr+len)`; the
    /// range is shrunk to page boundaries first. Data is re-faulted from
    /// the page cache / disk on next touch.
    pub(super) fn madvise_dontneed(ptr: *const u8, len: usize) {
        let start = ptr as usize;
        let page_start = start.div_ceil(super::PAGE) * super::PAGE;
        let end = start + len;
        if page_start >= end {
            return;
        }
        unsafe {
            syscall6(
                SYS_MADVISE,
                page_start,
                end - page_start,
                MADV_DONTNEED,
                0,
                0,
                0,
            );
        }
    }
}

/// A 64-byte-aligned heap copy of a file — the portable fallback when
/// `mmap` is unavailable or fails.
struct AlignedBuf {
    ptr: *mut u8,
    len: usize,
}

impl AlignedBuf {
    fn from_file(path: &Path) -> Result<AlignedBuf, EngineError> {
        let bytes = std::fs::read(path)
            .map_err(|e| EngineError::Store(format!("{}: cannot read: {e}", path.display())))?;
        if bytes.is_empty() {
            return Ok(AlignedBuf {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        let layout = std::alloc::Layout::from_size_align(bytes.len(), 64)
            .map_err(|e| EngineError::Store(format!("segment buffer layout: {e}")))?;
        // SAFETY: layout has non-zero size (empty case returned above).
        let ptr = unsafe { std::alloc::alloc(layout) };
        if ptr.is_null() {
            return Err(EngineError::Store(format!(
                "cannot allocate {} bytes for {}",
                bytes.len(),
                path.display()
            )));
        }
        // SAFETY: freshly allocated region of exactly bytes.len() bytes.
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr, bytes.len()) };
        Ok(AlignedBuf {
            ptr,
            len: bytes.len(),
        })
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: allocated in from_file with this exact layout
            // (64-byte alignment never fails for a non-zero length).
            unsafe {
                if let Ok(layout) = std::alloc::Layout::from_size_align(self.len, 64) {
                    std::alloc::dealloc(self.ptr, layout);
                }
            }
        }
    }
}

enum Mapping {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Heap(AlignedBuf),
}

// SAFETY: the mapping is read-only for its entire lifetime; all mutation
// of the underlying file goes through atomic-rename replacement, never
// in-place writes (the store's crash-safety discipline).
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    fn open(path: &Path) -> Result<Mapping, EngineError> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            use std::os::fd::AsRawFd;
            if let Ok(file) = std::fs::File::open(path) {
                if let Ok(meta) = file.metadata() {
                    let len = meta.len() as usize;
                    if let Some(ptr) = sys::mmap_readonly(file.as_raw_fd(), len) {
                        // The fd can close now; the mapping holds its own
                        // reference to the file.
                        return Ok(Mapping::Mapped { ptr, len });
                    }
                }
            }
        }
        Ok(Mapping::Heap(AlignedBuf::from_file(path)?))
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            // SAFETY: ptr/len describe a live read-only mapping owned by
            // self; unmapped only in Drop.
            Mapping::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Mapping::Heap(buf) => {
                if buf.len == 0 {
                    &[]
                } else {
                    // SAFETY: ptr/len describe the live allocation.
                    unsafe { std::slice::from_raw_parts(buf.ptr, buf.len) }
                }
            }
        }
    }

    /// Drops residency of `[off, off+len)` if the platform can.
    fn release_range(&self, off: usize, len: usize) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Mapping::Mapped { ptr, len: mlen } = self {
            let end = (off + len).min(*mlen);
            if off < end {
                // SAFETY: range lies inside the live mapping.
                sys::madvise_dontneed(unsafe { ptr.add(off) }, end - off);
            }
        }
        let _ = (off, len);
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Mapping::Mapped { ptr, len } = self {
            sys::munmap(*ptr, *len);
        }
    }
}

// ---- the parsed segment --------------------------------------------------

/// Everything the summary records about one slot — enough to index,
/// tombstone and center-pool the table without touching its blob extent.
pub(crate) struct SlotSummary {
    pub meta: TableMeta,
    pub ranges: Vec<(f64, f64)>,
    pub enc_dims: Vec<(u32, u32)>,
    pub col_embeddings: Vec<Vec<f32>>,
    pub pooled: PooledStat,
    pub intervals: Vec<(f64, f64)>,
    /// First f32 element of this slot's blob extent.
    pub elem_start: u64,
    pub n_elems: u64,
    /// First f32 element of the slot's encodings: `elem_start`, or past
    /// the segment matrices of a format-1 image.
    pub enc_start: u64,
    /// FNV-1a over the slot's blob extent; checked by the eager decode
    /// (the cold tier relies on the frame checksum verified at open).
    pub blob_hash: u64,
}

impl SlotSummary {
    /// Decodes the slot's encoding matrices out of its image's blob.
    /// Infallible after a clean parse: every extent was bounds-checked.
    fn decode_encodings(&self, blob: &[u8]) -> Vec<Matrix> {
        let mut off = self.enc_start as usize * 4;
        self.enc_dims
            .iter()
            .map(|&(r, c)| {
                let n = r as usize * c as usize * 4;
                let m = Matrix::from_vec(r as usize, c as usize, decode_f32s(&blob[off..off + n]));
                off += n;
                m
            })
            .collect()
    }
}

/// A checkpoint segment served straight from its file: summary decoded,
/// blob left cold until a slot materializes.
pub(crate) struct MappedSegment {
    map: Mapping,
    /// Image offset inside the mapping (past the store frame header).
    image_off: usize,
    embed_dim: usize,
    slots: Vec<SlotSummary>,
    /// Blob byte offset relative to the image start.
    blob_off: usize,
    blob_len: usize,
    slots_paged_in: AtomicU64,
    bytes_paged_in: AtomicU64,
}

impl MappedSegment {
    /// Maps `path`, verifies the enclosing frame ([`frame::verify`]),
    /// parses the image summary (which must be `embed_dim` wide), then
    /// drops blob residency. No slot is decoded.
    pub(crate) fn open_framed(
        path: &Path,
        magic: &[u8; 8],
        version: u32,
        embed_dim: usize,
    ) -> Result<MappedSegment, EngineError> {
        let map = Mapping::open(path)?;
        let parsed = frame::verify(map.as_slice(), magic, version)
            .and_then(|image| parse_image(image, embed_dim))
            .map_err(frame::context(path.display()))?;
        let seg = MappedSegment {
            image_off: frame::HEAD_LEN,
            embed_dim: parsed.embed_dim,
            slots: parsed.slots,
            blob_off: parsed.blob_off,
            blob_len: parsed.blob_len,
            slots_paged_in: AtomicU64::new(0),
            bytes_paged_in: AtomicU64::new(0),
            map,
        };
        // The verification pass touched every page; hand the blob back to
        // the OS so a cold open starts cold.
        seg.map
            .release_range(seg.image_off + seg.blob_off, seg.blob_len);
        Ok(seg)
    }

    pub(crate) fn n_slots(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    pub(crate) fn summary(&self, slot: usize) -> &SlotSummary {
        &self.slots[slot]
    }

    /// Total blob bytes backing this segment (the cold tier's footprint).
    pub(crate) fn blob_bytes(&self) -> u64 {
        self.blob_len as u64
    }

    /// Blob bytes backing one slot.
    #[cfg(test)]
    pub(crate) fn slot_blob_bytes(&self, slot: usize) -> u64 {
        self.slots[slot].n_elems * 4
    }

    /// `(slots materialized, bytes copied out of the blob)` since open.
    ///
    /// Both count in [`Self::materialize_encodings`], the one read of the
    /// blob: a slot once per decode (scoring, persistence and reshards
    /// alike), its bytes as `4 * rows * cols` of its encodings.
    pub(crate) fn paged_in(&self) -> (u64, u64) {
        (
            self.slots_paged_in.load(Relaxed),
            self.bytes_paged_in.load(Relaxed),
        )
    }

    /// Decodes the slot's cached encoding matrices out of the blob.
    pub(crate) fn materialize_encodings(&self, slot: usize) -> Vec<Matrix> {
        let start = self.image_off + self.blob_off;
        let blob = &self.map.as_slice()[start..start + self.blob_len];
        let encodings = self.slots[slot].decode_encodings(blob);
        let bytes: u64 = encodings.iter().map(|m| m.len() as u64 * 4).sum();
        self.slots_paged_in.fetch_add(1, Relaxed);
        self.bytes_paged_in.fetch_add(bytes, Relaxed);
        encodings
    }
}

// ---- writing -------------------------------------------------------------

/// Reusable build buffers for one `LCDDSEG2` image: the summary and blob
/// regions grow once to the largest shard they have held and are refilled
/// in place afterwards, so a long-lived checkpointer allocates per
/// checkpoint only what a single slot clone costs. The image is exposed
/// as the byte runs a writer streams out in order
/// ([`SegmentImage::parts`]) rather than as one concatenated buffer.
#[derive(Default)]
pub struct SegmentImage {
    header: Vec<u8>,
    summary: Vec<u8>,
    /// Zero bytes between the summary and the 64-byte-aligned blob.
    pad: usize,
    blob: Vec<u8>,
}

impl SegmentImage {
    /// Empty buffers; nothing is allocated until the first fill.
    pub fn new() -> SegmentImage {
        SegmentImage::default()
    }

    /// The image as consecutive byte runs: header, summary, alignment
    /// padding, blob.
    pub fn parts(&self) -> [&[u8]; 4] {
        const ZEROS: [u8; 64] = [0; 64];
        [&self.header, &self.summary, &ZEROS[..self.pad], &self.blob]
    }

    /// Rebuilds the image from slot data, owned or borrowed, taking the
    /// slots one at a time (peak memory is the image itself plus one slot
    /// — bulk corpus writers stream millions of tables through here
    /// without ever holding a shard's worth of `SlotData`).
    pub(crate) fn fill(
        &mut self,
        slots: impl Iterator<Item = impl Borrow<SlotData>>,
        embed_dim: usize,
    ) -> Result<(), EngineError> {
        let SegmentImage {
            header,
            summary,
            pad,
            blob,
        } = self;
        header.clear();
        summary.clear();
        blob.clear();
        let mut n_slots = 0u64;
        for slot in slots {
            let slot = slot.borrow();
            n_slots += 1;
            let blob_start = blob.len();
            summary.put_u64(slot.meta.id);
            summary.put_str(&slot.meta.name);
            let n_cols = slot.encodings.len();
            if slot.ranges.len() != n_cols {
                return Err(EngineError::Store(format!(
                    "segment image: table {} has {} ranges, {n_cols} encodings",
                    slot.meta.id,
                    slot.ranges.len(),
                )));
            }
            summary.put_count(n_cols);
            for (&(lo, hi), enc) in slot.ranges.iter().zip(&slot.encodings) {
                summary.put_f64(lo);
                summary.put_f64(hi);
                summary.put_u32(enc.rows() as u32);
                summary.put_u32(enc.cols() as u32);
                summary.put_f32s(&column_embedding(enc));
            }
            let pooled = PooledStat::of(&slot.encodings, embed_dim);
            summary.put_u64(pooled.rows);
            summary.put_f32s(&pooled.sum);
            summary.put_count(slot.intervals.len());
            for &(lo, hi) in &slot.intervals {
                summary.put_f64(lo);
                summary.put_f64(hi);
            }
            for m in &slot.encodings {
                blob.put_f32s(m.as_slice());
            }
            let extent = &blob[blob_start..];
            summary.put_count(extent.len() / 4);
            summary.put_u64(fnv1a64(extent));
        }
        let blob_off = (HEADER_LEN + summary.len()).div_ceil(64) * 64;
        *pad = blob_off - HEADER_LEN - summary.len();
        header.extend_from_slice(IMAGE_MAGIC);
        header.put_u32(IMAGE_FORMAT);
        header.put_u32(embed_dim as u32);
        header.put_u64(n_slots);
        header.put_count(summary.len());
        header.put_u64(fnv1a64(summary));
        header.put_count(blob_off);
        header.put_count(blob.len());
        header.put_u64(0);
        Ok(())
    }
}

/// Builds an `LCDDSEG2` image from slot data as one contiguous buffer.
pub(crate) fn write_segment_image(
    slots: impl Iterator<Item = impl Borrow<SlotData>>,
    embed_dim: usize,
) -> Result<Vec<u8>, EngineError> {
    let mut image = SegmentImage::new();
    image.fill(slots, embed_dim)?;
    Ok(image.parts().concat())
}

// ---- parsing -------------------------------------------------------------

struct ParsedImage {
    embed_dim: usize,
    slots: Vec<SlotSummary>,
    blob_off: usize,
    blob_len: usize,
}

/// Parses an image's header and summary, refusing a header or encoding
/// matrix that is not `model_dim` (the serving model's `embed_dim`) wide.
fn parse_image(image: &[u8], model_dim: usize) -> Result<ParsedImage, EngineError> {
    if image.len() < HEADER_LEN {
        return Err(EngineError::Store("segment image: truncated header".into()));
    }
    let mut head = Cursor::new(&image[..HEADER_LEN]);
    if head.take(8)? != IMAGE_MAGIC {
        return Err(EngineError::Store("segment image: bad magic".into()));
    }
    let format = head.u32()?;
    if !(1..=IMAGE_FORMAT).contains(&format) {
        return Err(EngineError::Store(format!(
            "segment image: unsupported format {format}"
        )));
    }
    let embed_dim = head.u32()? as usize;
    let n_slots = head.count()?;
    let summary_len = head.count()?;
    let summary_hash = head.u64()?;
    let blob_off = head.count()?;
    let blob_len = head.count()?;
    if head.u64()? != 0 {
        return Err(EngineError::Store(
            "segment image: nonzero reserved field".into(),
        ));
    }
    if embed_dim != model_dim {
        return Err(EngineError::Store(format!(
            "segment image: embed_dim {embed_dim} does not match the model's {model_dim}"
        )));
    }
    if n_slots > MAX_FIELD_BYTES / 8 {
        return Err(EngineError::Store(format!(
            "segment image: implausible header ({n_slots} slots)"
        )));
    }
    if summary_len > image.len() - HEADER_LEN
        || !blob_off.is_multiple_of(64)
        || blob_off < HEADER_LEN + summary_len
        || blob_off > image.len()
        || blob_len != image.len() - blob_off
    {
        return Err(EngineError::Store(format!(
            "segment image: inconsistent layout (len {}, summary {summary_len}, \
             blob {blob_off}+{blob_len})",
            image.len()
        )));
    }
    let summary = &image[HEADER_LEN..HEADER_LEN + summary_len];
    let got = fnv1a64(summary);
    if got != summary_hash {
        return Err(EngineError::Store(format!(
            "segment image: summary checksum mismatch: expected {summary_hash:#018x}, got {got:#018x}"
        )));
    }
    let mut cur = Cursor::new(summary);
    let mut slots = Vec::with_capacity(n_slots.min(65_536));
    let mut elem_cursor = 0u64;
    for si in 0..n_slots {
        let id = cur.u64()?;
        let name = cur.str()?;
        let n_cols = cur.count()?;
        if n_cols > MAX_FIELD_BYTES / 8 {
            return Err(EngineError::Store(format!(
                "slot {si}: implausible column count {n_cols}"
            )));
        }
        let mut ranges = Vec::with_capacity(n_cols.min(65_536));
        let mut enc_dims = Vec::with_capacity(n_cols.min(65_536));
        let mut col_embeddings = Vec::with_capacity(n_cols.min(65_536));
        let (mut seg_elems, mut enc_elems) = (0u64, 0u64);
        for _ in 0..n_cols {
            let lo = cur.f64()?;
            let hi = cur.f64()?;
            ranges.push((lo, hi));
            if format == 1 {
                let (r, c) = read_dims(&mut cur, si)?;
                seg_elems += r as u64 * c as u64;
            }
            let (r, c) = read_dims(&mut cur, si)?;
            if c as usize != embed_dim {
                return Err(EngineError::Store(format!(
                    "slot {si}: encoding is {c} wide, the image is {embed_dim}"
                )));
            }
            enc_elems += r as u64 * c as u64;
            enc_dims.push((r, c));
            col_embeddings.push(cur.f32s(embed_dim)?);
        }
        let pooled_rows = cur.u64()?;
        let pooled_sum = cur.f32s(embed_dim)?;
        let n_iv = cur.count()?;
        if n_iv > MAX_FIELD_BYTES / 16 {
            return Err(EngineError::Store(format!(
                "slot {si}: implausible interval count {n_iv}"
            )));
        }
        let mut intervals = Vec::with_capacity(n_iv.min(65_536));
        for _ in 0..n_iv {
            let lo = cur.f64()?;
            let hi = cur.f64()?;
            intervals.push((lo, hi));
        }
        let n_elems = cur.u64()?;
        let blob_hash = cur.u64()?;
        if n_elems != seg_elems + enc_elems {
            return Err(EngineError::Store(format!(
                "slot {si}: blob extent {n_elems} elements, dims say {}",
                seg_elems + enc_elems
            )));
        }
        slots.push(SlotSummary {
            meta: TableMeta { id, name },
            ranges,
            enc_dims,
            col_embeddings,
            pooled: PooledStat {
                sum: pooled_sum,
                rows: pooled_rows,
            },
            intervals,
            elem_start: elem_cursor,
            n_elems,
            enc_start: elem_cursor + seg_elems,
            blob_hash,
        });
        elem_cursor = elem_cursor
            .checked_add(n_elems)
            .ok_or_else(|| EngineError::Store("segment image: blob extent overflow".into()))?;
    }
    if cur.remaining() != 0 {
        return Err(EngineError::Store(format!(
            "segment image: {} trailing summary bytes",
            cur.remaining()
        )));
    }
    if elem_cursor * 4 != blob_len as u64 {
        return Err(EngineError::Store(format!(
            "segment image: slots claim {} blob bytes, blob holds {blob_len}",
            elem_cursor * 4
        )));
    }
    Ok(ParsedImage {
        embed_dim,
        slots,
        blob_off,
        blob_len,
    })
}

/// One `rows u32, cols u32` matrix shape of slot `si`'s summary, refused
/// past [`MAX_FIELD_BYTES`].
fn read_dims(cur: &mut Cursor, si: usize) -> Result<(u32, u32), EngineError> {
    let r = cur.u32()?;
    let c = cur.u32()?;
    if r as u64 * c as u64 * 4 > MAX_FIELD_BYTES as u64 {
        return Err(EngineError::Store(format!(
            "slot {si}: implausible matrix shape {r}x{c}"
        )));
    }
    Ok((r, c))
}

/// Eagerly decodes a full `embed_dim`-wide image into slot data,
/// verifying the per-slot blob checksums as it goes — the all-resident
/// open path ([`crate::persist::assemble_engine`]) and WAL insert replay
/// ([`crate::persist::EncodedTableBatch::from_bytes`]).
pub(crate) fn parse_segment_slots(
    image: &[u8],
    embed_dim: usize,
) -> Result<Vec<SlotData>, EngineError> {
    let parsed = parse_image(image, embed_dim)?;
    let blob = &image[parsed.blob_off..];
    let mut out = Vec::with_capacity(parsed.slots.len());
    // parse_image validated extents, so slicing below cannot go out of
    // bounds.
    for (si, s) in parsed.slots.iter().enumerate() {
        let bytes = &blob[s.elem_start as usize * 4..(s.elem_start + s.n_elems) as usize * 4];
        let got = fnv1a64(bytes);
        if got != s.blob_hash {
            return Err(EngineError::Store(format!(
                "slot {si}: blob checksum mismatch: expected {:#018x}, got {got:#018x}",
                s.blob_hash
            )));
        }
        out.push(SlotData {
            meta: s.meta.clone(),
            ranges: s.ranges.clone(),
            encodings: s.decode_encodings(blob),
            intervals: s.intervals.clone(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| (i as f32 * 0.37 + seed).sin())
                .collect(),
        )
    }

    fn slot(id: u64, n_cols: usize, k: usize) -> SlotData {
        SlotData {
            meta: TableMeta {
                id,
                name: format!("table-{id}"),
            },
            ranges: (0..n_cols).map(|c| (c as f64, c as f64 + 10.0)).collect(),
            encodings: (0..n_cols)
                .map(|c| mat(4, k, id as f32 + c as f32))
                .collect(),
            intervals: vec![(id as f64, id as f64 + 1.0)],
        }
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Relaxed);
        std::env::temp_dir().join(format!("lcdd-mapped-{tag}-{}-{n}.seg", std::process::id()))
    }

    fn framed(image: &[u8]) -> Vec<u8> {
        let mut f = frame::head(b"TESTSEG9", 7, &[image]).to_vec();
        f.extend_from_slice(image);
        f
    }

    #[test]
    fn image_round_trips_through_eager_parse() {
        let k = 16;
        let slots: Vec<SlotData> = (0..5).map(|i| slot(i, 2 + (i as usize % 2), k)).collect();
        let image = write_segment_image(slots.clone().into_iter(), k).unwrap();
        let back = parse_segment_slots(&image, k).unwrap();
        assert_eq!(back.len(), slots.len());
        for (a, b) in slots.iter().zip(&back) {
            assert_eq!(a.meta.id, b.meta.id);
            assert_eq!(a.meta.name, b.meta.name);
            assert_eq!(a.ranges, b.ranges);
            assert_eq!(a.intervals, b.intervals);
            for (ma, mb) in a.encodings.iter().zip(&b.encodings) {
                assert_eq!(ma.as_slice(), mb.as_slice());
            }
        }
    }

    #[test]
    fn eager_decode_verifies_every_slot_blob_hash() {
        // No frame here, so only the per-slot hashes the summary carries
        // stand between a flipped blob byte and a silently different slot.
        let k = 8;
        let image = write_segment_image((0..4).map(|i| slot(i, 2, k)), k).unwrap();
        let parsed = parse_image(&image, k).unwrap();
        for (si, s) in parsed.slots.iter().enumerate() {
            let extent = parsed.blob_off + s.elem_start as usize * 4;
            for off in [extent, extent + s.n_elems as usize * 4 - 1] {
                let mut bad = image.clone();
                bad[off] ^= 0x01;
                match parse_segment_slots(&bad, k) {
                    Err(EngineError::Store(m)) => assert!(
                        m.contains(&format!("slot {si}: blob checksum mismatch")),
                        "flip at {off}: {m}"
                    ),
                    other => panic!("flip at {off}: got {:?}", other.map(|v| v.len())),
                }
            }
        }
    }

    #[test]
    fn mapped_open_materializes_identical_slots_lazily() {
        let k = 16;
        let slots: Vec<SlotData> = (0..4).map(|i| slot(i, 2, k)).collect();
        let image = write_segment_image(slots.clone().into_iter(), k).unwrap();
        let path = temp_file("lazy");
        std::fs::write(&path, framed(&image)).unwrap();
        let seg = MappedSegment::open_framed(&path, b"TESTSEG9", 7, k).unwrap();
        assert_eq!(seg.n_slots(), 4);
        assert_eq!(seg.embed_dim(), k);
        assert_eq!(seg.paged_in(), (0, 0), "open must not decode any slot");
        // Summary carries identity + pooled stats without touching blobs.
        assert_eq!(seg.summary(2).meta.id, 2);
        assert_eq!(
            seg.summary(1).pooled,
            PooledStat::of(&slots[1].encodings, k)
        );
        assert_eq!(
            seg.summary(3).col_embeddings[1],
            column_embedding(&slots[3].encodings[1])
        );
        assert_eq!(seg.summary(1).ranges, slots[1].ranges);
        // Materialization is per-slot and bit-exact.
        let got = seg.materialize_encodings(1);
        assert_eq!(got.len(), slots[1].encodings.len());
        for (ma, mb) in got.iter().zip(&slots[1].encodings) {
            assert_eq!(ma.as_slice(), mb.as_slice());
        }
        let (n, bytes) = seg.paged_in();
        assert_eq!(n, 1, "a full slot decode counts as one page-in");
        assert_eq!(bytes, seg.slot_blob_bytes(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_anywhere_fails_open() {
        let k = 8;
        let image = write_segment_image((0..3).map(|i| slot(i, 2, k)), k).unwrap();
        let framed = framed(&image);
        let path = temp_file("corrupt");
        // A flip at every stride must be caught by the frame checksum.
        for off in (0..framed.len()).step_by(97) {
            let mut bad = framed.clone();
            bad[off] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                MappedSegment::open_framed(&path, b"TESTSEG9", 7, k).is_err(),
                "flip at {off} went undetected"
            );
        }
        // Truncations too.
        for cut in [10, 40, framed.len() / 2, framed.len() - 1] {
            std::fs::write(&path, &framed[..cut]).unwrap();
            assert!(MappedSegment::open_framed(&path, b"TESTSEG9", 7, k).is_err());
        }
        std::fs::write(&path, &framed).unwrap();
        assert!(MappedSegment::open_framed(&path, b"TESTSEG9", 7, k).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_segment_round_trips() {
        let k = 16;
        let image = write_segment_image(std::iter::empty::<SlotData>(), k).unwrap();
        assert!(parse_segment_slots(&image, k).unwrap().is_empty());
        let path = temp_file("empty");
        std::fs::write(&path, framed(&image)).unwrap();
        let seg = MappedSegment::open_framed(&path, b"TESTSEG9", 7, k).unwrap();
        assert_eq!(seg.n_slots(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
