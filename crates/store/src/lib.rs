//! # lcdd-store
//!
//! Durability for the serving engine: a write-ahead log, a segmented
//! snapshot store with incremental checkpoints, and crash recovery — so a
//! crashed or restarted discovery server recovers its **exact** corpus
//! (hit-for-hit, bit-identical scores) without re-encoding a single
//! table.
//!
//! ```text
//! store-dir/
//!   meta.seg              configs + model weights   (written once)
//!   MANIFEST-<epoch>      checkpoint commit point   (atomic rename)
//!   seg-<epoch>-<shard>   one shard's live slots    (dirty shards only)
//!   wal-<epoch>.log       ops after that epoch      (append + fsync)
//! ```
//!
//! Three layers, bottom up:
//!
//! * [`wal`] — an append-only log of corpus mutations, each record
//!   length-prefixed and FNV-1a-checksummed. Insert records carry the
//!   *already-encoded* FCM delta, so replay never re-runs the encoder.
//!   A checkpoint hand-off rotates the log, so the files form a chain
//!   ([`wal::walk_chain`]). A torn final record (crash mid-append) of the
//!   last log is truncated on recovery; anything else malformed is a
//!   typed [`EngineError::Wal`].
//! * [`manifest`] — small framed files mapping a checkpoint epoch to its
//!   {meta section, per-shard segment files, WAL file + replay offset,
//!   global table order}, committed by atomic rename. Recovery takes the
//!   newest manifest that validates and replays the WAL chain from its
//!   log to the live one.
//! * [`DurableEngine`] — the serving facade: every mutation is WAL-logged
//!   (and fsynced, under default [`StoreOptions`]) **before** its epoch
//!   is published; when the checkpoint policy (ops/bytes since the last
//!   hand-off) fires, the write only rotates the log and hands the pinned
//!   state to the store's checkpointer thread, which rewrites the shards
//!   dirtied since the previous checkpoint off the write path. Reads go
//!   through the same [`lcdd_engine::ReadHalf`] a `ServingEngine` serves
//!   from, untouched by the log.
//!
//! The codecs live in [`lcdd_engine::persist`]; the frame every file but
//! the WAL is wrapped in, and the `Put` / `Cursor` pair every byte of
//! every file — WAL included — is written and read with, live in
//! [`lcdd_engine::frame`]; an engine
//! snapshot ([`lcdd_engine::ReadHalf::save`]) is a container of the same meta and
//! segment payloads. Segments carry the memory-mappable `LCDDSEG2` image
//! (summary + aligned f32 blob), so they
//! restore bit-identically whether decoded eagerly or served as a mapped
//! cold tier ([`StoreOptions::cold_open`]) — the recovery equivalence
//! suite asserts recovered == uncrashed at every record-boundary crash
//! point, and [`bulk::create_bulk`] fabricates million-table stores by
//! streaming slots straight into segment images.
//!
//! Production code in this crate is `unwrap`-free (lint enforced in CI):
//! corrupt stores surface as [`EngineError`] values, never panics.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bulk;
pub mod durable;
pub mod fault;
pub mod manifest;
pub mod wal;

mod codec;
mod instruments;

pub use bulk::create_bulk;
pub use durable::{
    CheckpointStats, DurableEngine, RecoveryReport, ReplicatedApply, StoreOptions, WalCursor,
};
pub use fault::{FaultPlan, FaultPoint};
pub use lcdd_fcm::EngineError;
pub use manifest::{latest_manifest, read_manifest, Manifest};
pub use wal::{ChainEnd, WalOp, WalRecord, WalScan, WalWriter, WAL_HEADER_LEN};
