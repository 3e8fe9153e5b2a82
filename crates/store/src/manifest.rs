//! The checkpoint manifest: one small framed file per checkpoint mapping
//! an epoch to {meta section, one segment file per shard, the WAL file +
//! offset replay resumes from, the global table order}.
//!
//! Manifests are written to a temp name, fsynced, then renamed into
//! `MANIFEST-<epoch>` (rename is the atomic commit point — a crash
//! mid-checkpoint leaves the previous manifest authoritative, the ops
//! since in its WAL chain, and at most an orphaned temp/segment file,
//! which the next GC sweeps).
//!
//! [`latest_manifest`] scans the directory for the highest-epoch manifest
//! that *validates*; a corrupt newest manifest falls back to the next
//! one. Nothing acknowledged is lost by that: the older checkpoint's WAL
//! chain (see [`crate::wal::walk_chain`]) runs through the logs of every
//! later checkpoint up to the live one, and GC keeps it whole for as
//! long as the older manifest is retained. No valid manifest at all is
//! [`EngineError::Store`].

use std::path::{Path, PathBuf};

use lcdd_engine::frame::{Cursor, Put};
use lcdd_fcm::EngineError;

use crate::codec::{read_framed, sync_dir, write_framed};
use crate::fault::{FaultHook, FaultPoint};

pub(crate) const MANIFEST_MAGIC: &[u8; 8] = b"LCDDMAN1";
pub(crate) const MANIFEST_VERSION: u32 = 1;
pub(crate) const MANIFEST_PREFIX: &str = "MANIFEST-";

/// Everything recovery needs to reassemble an engine at one checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Engine epoch the checkpointed state was at.
    pub epoch: u64,
    /// File the meta section (configs + model weights) lives in.
    pub meta_file: String,
    /// One segment file per shard, shard order.
    pub segments: Vec<String>,
    /// WAL file ops after this checkpoint append to — the first log of
    /// the chain recovery replays (`wal-<epoch>.log`: the checkpoint
    /// hand-off rotated to it at exactly this epoch).
    pub wal_file: String,
    /// Byte offset in `wal_file` replay resumes from.
    pub wal_offset: u64,
    /// Global ingest order in compacted slot coordinates.
    pub order: Vec<(u32, u32)>,
}

impl Manifest {
    /// The canonical file name for this manifest's epoch.
    pub fn file_name(&self) -> String {
        manifest_file_name(self.epoch)
    }

    pub(crate) fn to_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        p.put_u64(self.epoch);
        p.put_str(&self.meta_file);
        p.put_str(&self.wal_file);
        p.put_u64(self.wal_offset);
        p.put_count(self.segments.len());
        for s in &self.segments {
            p.put_str(s);
        }
        p.put_count(self.order.len());
        for &(s, l) in &self.order {
            p.put_u32(s);
            p.put_u32(l);
        }
        p
    }

    pub(crate) fn from_payload(payload: &[u8], name: &str) -> Result<Manifest, EngineError> {
        let ctx = |e: EngineError| match e {
            EngineError::Store(m) => EngineError::Store(format!("{name}: {m}")),
            other => other,
        };
        let mut r = Cursor::new(payload);
        let epoch = r.u64().map_err(ctx)?;
        let meta_file = r.str().map_err(ctx)?;
        let wal_file = r.str().map_err(ctx)?;
        let wal_offset = r.u64().map_err(ctx)?;
        let n_segments = r.count().map_err(ctx)?;
        if n_segments == 0 || n_segments > 65_536 {
            return Err(EngineError::Store(format!(
                "{name}: implausible segment count {n_segments}"
            )));
        }
        let mut segments = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            segments.push(r.str().map_err(ctx)?);
        }
        let n_order = r.count().map_err(ctx)?;
        if n_order > crate::codec::MAX_PAYLOAD_BYTES / 8 {
            return Err(EngineError::Store(format!(
                "{name}: implausible order length {n_order}"
            )));
        }
        let mut order = Vec::with_capacity(n_order.min(65_536));
        for _ in 0..n_order {
            let s = r.u32().map_err(ctx)?;
            let l = r.u32().map_err(ctx)?;
            order.push((s, l));
        }
        if r.remaining() != 0 {
            return Err(EngineError::Store(format!(
                "{name}: {} trailing payload bytes",
                r.remaining()
            )));
        }
        Ok(Manifest {
            epoch,
            meta_file,
            segments,
            wal_file,
            wal_offset,
            order,
        })
    }
}

/// `MANIFEST-<epoch as 16 hex digits>` — lexicographic order is epoch
/// order, so directory listings sort newest-last.
pub(crate) fn manifest_file_name(epoch: u64) -> String {
    format!("{MANIFEST_PREFIX}{epoch:016x}")
}

/// Atomically publishes `manifest` into `dir`: temp write + fsync +
/// rename + directory fsync. After this returns, recovery will prefer it.
pub(crate) fn write_manifest(
    dir: &Path,
    manifest: &Manifest,
    hook: &FaultHook,
) -> Result<PathBuf, EngineError> {
    let final_path = dir.join(manifest.file_name());
    let tmp_path = dir.join(format!(".tmp-{}", manifest.file_name()));
    write_framed(
        &tmp_path,
        MANIFEST_MAGIC,
        MANIFEST_VERSION,
        &manifest.to_payload(),
        hook,
        FaultPoint::ManifestWrite,
    )?;
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir);
    Ok(final_path)
}

/// Reads and validates one manifest file.
pub fn read_manifest(path: &Path) -> Result<Manifest, EngineError> {
    let payload = read_framed(path, MANIFEST_MAGIC, MANIFEST_VERSION)?;
    Manifest::from_payload(&payload, &path.display().to_string())
}

/// True for exactly the names [`manifest_file_name`] produces — a
/// `MANIFEST-` prefix followed by 16 hex digits. Strays like
/// `MANIFEST-old.bak` are neither candidates nor evidence of a skipped
/// checkpoint.
fn is_manifest_name(name: &str) -> bool {
    name.strip_prefix(MANIFEST_PREFIX)
        .is_some_and(|hex| hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// Every `MANIFEST-*` file in `dir` (by [`is_manifest_name`]), newest
/// first — names embed the epoch in fixed-width hex. Not validated.
pub(crate) fn manifest_paths(dir: &Path) -> Result<Vec<PathBuf>, EngineError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| EngineError::Store(format!("cannot list {}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(is_manifest_name)
        })
        .collect();
    paths.sort();
    paths.reverse();
    Ok(paths)
}

/// Scans `dir` for the newest manifest that validates, falling back past
/// corrupt ones. `Ok(None)` when no `MANIFEST-*` file exists at all;
/// [`EngineError::Store`] when manifests exist but none validates (the
/// error carries every per-file failure).
pub fn latest_manifest(dir: &Path) -> Result<Option<(PathBuf, Manifest)>, EngineError> {
    Ok(latest_manifest_impl(dir)?.map(|(path, manifest, _)| (path, manifest)))
}

/// [`latest_manifest`] plus whether any *newer* manifest was skipped as
/// corrupt — the signal recovery surfaces as
/// [`crate::RecoveryReport::fallback`].
pub(crate) fn latest_manifest_impl(
    dir: &Path,
) -> Result<Option<(PathBuf, Manifest, bool)>, EngineError> {
    let candidates = manifest_paths(dir)?;
    if candidates.is_empty() {
        return Ok(None);
    }
    let mut failures = Vec::new();
    for path in candidates {
        match read_manifest(&path) {
            Ok(m) => return Ok(Some((path, m, !failures.is_empty()))),
            Err(e) => failures.push(format!("{e}")),
        }
    }
    Err(EngineError::Store(format!(
        "no valid manifest: {}",
        failures.join("; ")
    )))
}
