//! `lcdd-server`: the network gateway over the serving stack.
//!
//! An HTTP/1.1 server on blocking `std::net` sockets (the offline-vendor
//! constraint rules out async runtimes) whose core is a
//! **request-coalescing batcher**: concurrent in-flight `/search`
//! requests are queued, deduplicated by query fingerprint, and merged
//! into single [`ReadHalf::search_batch_at`] calls — every response in
//! a coalesced batch is served from **one** pinned epoch snapshot, so a
//! shared `x-lcdd-batch-id` implies a shared `epoch`.
//!
//! Admission control is layered: a connection cap at the acceptor, a
//! bounded batcher queue (overflow → 503 + `Retry-After`), per-request
//! deadlines (expired in queue → 504, never scored), and a graceful
//! drain on shutdown that answers every admitted request before the
//! threads exit.
//!
//! ```no_run
//! use lcdd_server::{Backend, Server, ServerConfig};
//! use lcdd_engine::ServingEngine;
//! use std::sync::Arc;
//!
//! # fn demo(engine: lcdd_engine::Engine) -> std::io::Result<()> {
//! let serving = Arc::new(ServingEngine::new(engine));
//! let server = Server::start(Backend::Serving(serving), ServerConfig::default())?;
//! println!("listening on {}", server.addr());
//! let report = server.shutdown();
//! assert_eq!(report.jobs_enqueued, report.jobs_answered);
//! # Ok(())
//! # }
//! ```
//!
//! [`ReadHalf::search_batch_at`]: lcdd_engine::ReadHalf::search_batch_at

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod backend;
pub mod batcher;
pub mod error;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod wire;

pub use backend::{Backend, PinnedView};
pub use batcher::{Batcher, JobReply, SearchJob, Submit};
pub use error::ApiError;
pub use metrics::Metrics;
pub use server::{Server, ServerConfig, ShutdownReport};
