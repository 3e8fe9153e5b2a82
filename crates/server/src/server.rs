//! The gateway itself: a blocking acceptor over `std::net::TcpListener`,
//! one handler thread per admitted connection (bounded by
//! `max_connections` — the connection-level half of admission control),
//! and the coalescing [`Batcher`] in between handlers and the engine.
//!
//! Shutdown is a drain, not an abort: admission stops, the batcher
//! answers everything already queued, handlers finish the request they
//! are reading, and [`Server::shutdown`] joins every thread before
//! reporting `jobs_enqueued == jobs_answered`.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use lcdd_obs::trace::{next_span_id, ring, slow, Stage, TraceCtx, TraceId};

use crate::backend::Backend;
use crate::batcher::{Batcher, JobReply, Submit};
use crate::error::ApiError;
use crate::http::{read_request, write_response, write_response_typed, ReadError, Request};
use crate::metrics::Metrics;
use crate::wire;

/// Gateway tuning knobs. The defaults suit the integration tests; a real
/// deployment mostly raises `max_connections` and the queue.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Most simultaneously-open client connections; the acceptor answers
    /// 503 and closes beyond this.
    pub max_connections: usize,
    /// Bounded batcher admission queue (overflow → 503 `queue_full`).
    pub queue_capacity: usize,
    /// Most requests coalesced into one `search_batch` call (1 disables
    /// coalescing — the bench baseline).
    pub max_batch: usize,
    /// Deadline applied when a request does not set one.
    pub default_deadline_ms: u64,
    /// Hard cap on requested deadlines.
    pub max_deadline_ms: u64,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Socket read timeout — also the latency with which idle keep-alive
    /// handlers notice a drain.
    pub read_timeout_ms: u64,
    /// Record per-stage spans for every `/search` (and mint/echo
    /// `x-lcdd-trace-id`). Recording is lock-free and allocation-free;
    /// the bench's tracing-overhead section keeps this honest.
    pub tracing: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 256,
            queue_capacity: 1024,
            max_batch: 64,
            default_deadline_ms: 2_000,
            max_deadline_ms: 30_000,
            max_body_bytes: 4 << 20,
            read_timeout_ms: 2_000,
            tracing: true,
        }
    }
}

/// What [`Server::shutdown`] reports after the drain completes.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownReport {
    /// Searches ever admitted to the batcher queue.
    pub jobs_enqueued: u64,
    /// Replies the batcher sent. Equal to `jobs_enqueued` after a clean
    /// drain — the no-lost-request invariant.
    pub jobs_answered: u64,
}

struct Shared {
    backend: Arc<Backend>,
    cfg: ServerConfig,
    metrics: Arc<Metrics>,
    batcher: Arc<Batcher>,
    draining: AtomicBool,
    active_connections: AtomicUsize,
    /// The gateway's one uptime clock, read by `/healthz` and `/metrics`.
    started: Instant,
}

/// A running gateway; dropping it without calling
/// [`Server::shutdown`] leaves the threads serving.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    batcher_thread: Option<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the acceptor and batcher threads, and returns once
    /// the gateway is reachable.
    pub fn start(backend: Backend, cfg: ServerConfig) -> std::io::Result<Server> {
        crate::metrics::register_process_instruments();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let backend = Arc::new(backend);
        let metrics = Arc::new(Metrics::default());
        let batcher = Batcher::new(
            Arc::clone(&backend),
            Arc::clone(&metrics),
            cfg.queue_capacity,
            cfg.max_batch,
        );
        let batcher_thread = batcher.spawn();
        let shared = Arc::new(Shared {
            backend,
            cfg,
            metrics,
            batcher,
            draining: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            started: Instant::now(),
        });
        let conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("lcdd-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, &conn_threads))
                .expect("spawn acceptor thread")
        };
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            batcher_thread: Some(batcher_thread),
            conn_threads,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The gateway's live counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// Drains and stops: no new admissions, every queued search answered,
    /// every thread joined.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.draining.store(true, Relaxed);
        self.shared.batcher.begin_shutdown();
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; it checks the drain flag before serving it.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        if let Some(t) = self.batcher_thread.take() {
            let _ = t.join();
        }
        let threads = std::mem::take(
            &mut *self
                .conn_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for t in threads {
            let _ = t.join();
        }
        ShutdownReport {
            jobs_enqueued: self.shared.metrics.jobs_enqueued.get(),
            jobs_answered: self.shared.metrics.jobs_answered.get(),
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conn_threads: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.draining.load(Relaxed) {
                return;
            }
            continue;
        };
        if shared.draining.load(Relaxed) {
            // The shutdown wake-up connection (or a straggler): refuse
            // politely and stop accepting.
            let mut stream = stream;
            let e = ApiError::shutting_down();
            let _ = write_response(&mut stream, e.status, &[], &e.body(), true);
            return;
        }
        if shared.active_connections.load(Relaxed) >= shared.cfg.max_connections {
            shared.metrics.rejected_connections.inc();
            let mut stream = stream;
            let e = ApiError::queue_full(shared.cfg.max_connections);
            let _ = write_response(&mut stream, e.status, &extra_headers(&e), &e.body(), true);
            continue;
        }
        shared.active_connections.fetch_add(1, Relaxed);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("lcdd-conn".into())
            .spawn(move || {
                serve_connection(stream, &conn_shared);
                conn_shared.active_connections.fetch_sub(1, Relaxed);
            });
        match spawned {
            Ok(handle) => {
                let mut threads = conn_threads.lock().unwrap_or_else(PoisonError::into_inner);
                // Reap finished handlers so the vector stays bounded on
                // long-running servers.
                threads.retain(|t| !t.is_finished());
                threads.push(handle);
            }
            Err(_) => {
                shared.active_connections.fetch_sub(1, Relaxed);
            }
        }
    }
}

/// One keep-alive connection, served to completion.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let timeout = Duration::from_millis(shared.cfg.read_timeout_ms.max(1));
    if stream.set_read_timeout(Some(timeout)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, shared.cfg.max_body_bytes) {
            Ok(req) => {
                let close = req.wants_close() || shared.draining.load(Relaxed);
                let served = handle_request(&req, shared, &mut write_half, close);
                if close || served.is_err() {
                    return;
                }
            }
            Err(ReadError::Eof) => return,
            Err(ReadError::Timeout) => {
                // Idle keep-alive: linger unless the server is draining.
                if shared.draining.load(Relaxed) {
                    return;
                }
            }
            Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(msg)) => {
                let e = ApiError::bad_request("malformed_request", msg);
                shared.metrics.count_status(e.status);
                let _ = write_response(&mut write_half, e.status, &[], &e.body(), true);
                return;
            }
            Err(ReadError::BodyTooLarge { declared, limit }) => {
                let e = ApiError::bad_request(
                    "body_too_large",
                    format!("declared body of {declared} bytes exceeds the {limit}-byte limit"),
                );
                shared.metrics.count_status(e.status);
                let _ = write_response(&mut write_half, e.status, &[], &e.body(), true);
                return;
            }
        }
    }
}

/// Headers an [`ApiError`] carries onto the wire.
fn extra_headers(e: &ApiError) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    if let Some(s) = e.retry_after_s {
        out.push(("Retry-After", s.to_string()));
    }
    if let Some(epoch) = e.current_epoch {
        out.push(("x-lcdd-epoch", epoch.to_string()));
    }
    out
}

fn respond_error(
    stream: &mut TcpStream,
    shared: &Shared,
    e: &ApiError,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.count_status(e.status);
    write_response(stream, e.status, &extra_headers(e), &e.body(), close)
}

fn respond_ok(
    stream: &mut TcpStream,
    shared: &Shared,
    extra: &[(&str, String)],
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.count_status(200);
    write_response(stream, 200, extra, body, close)
}

/// Routes one parsed request. An `Err` return means the response could
/// not be written — the connection is torn down.
fn handle_request(
    req: &Request,
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/search") => handle_search(req, shared, stream, close),
        ("POST", "/insert") => handle_insert(req, shared, stream, close),
        ("POST", "/remove") => handle_remove(req, shared, stream, close),
        ("GET", "/healthz") => handle_healthz(shared, stream, close),
        ("GET", "/metrics") => handle_metrics(req, shared, stream, close),
        ("GET", path) if path.starts_with("/snapshot/") => {
            handle_snapshot(path, shared, stream, close)
        }
        ("GET", path) if path.starts_with("/debug/trace/") => {
            handle_trace(path, shared, stream, close)
        }
        ("GET", "/debug/slow") => handle_slow(req, shared, stream, close),
        ("GET", "/") => {
            let body = format!(
                "{{\"service\":\"lcdd-server\",\"backend\":{},\"endpoints\":[\"POST /search\",\"POST /insert\",\"POST /remove\",\"GET /healthz\",\"GET /metrics\",\"GET /snapshot/{{epoch}}\"]}}",
                crate::json::quote(shared.backend.kind()),
            );
            respond_ok(stream, shared, &[], &body, close)
        }
        (_, path @ ("/search" | "/insert" | "/remove" | "/healthz" | "/metrics" | "/")) => {
            respond_error(
                stream,
                shared,
                &ApiError::method_not_allowed(&req.method, path),
                close,
            )
        }
        (_, path) => respond_error(stream, shared, &ApiError::not_found(path), close),
    }
}

fn handle_search(
    req: &Request,
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.search.inc();
    let started = Instant::now();
    // Trace identity: accept the caller's `x-lcdd-trace-id` (echoed back)
    // or mint one. The root span and the handler's `await` span get
    // pre-minted ids so children recorded by the batcher and engine —
    // which finish before the parents are recorded — can nest under them.
    let trace = if shared.cfg.tracing {
        Some(
            req.header("x-lcdd-trace-id")
                .and_then(TraceId::parse)
                .unwrap_or_else(TraceId::mint),
        )
    } else {
        None
    };
    let root_id = trace.map_or(0, |_| next_span_id());
    let parsed = match wire::parse_search(
        req,
        shared.cfg.default_deadline_ms,
        shared.cfg.max_deadline_ms,
    ) {
        Ok(p) => p,
        Err(e) => return respond_error(stream, shared, &e, close),
    };
    if let Some(t) = trace {
        ring().record(
            t,
            root_id,
            Stage::Parse,
            started,
            started.elapsed(),
            None,
            0,
        );
    }
    let deadline = started + parsed.deadline;
    let await_id = trace.map_or(0, |_| next_span_id());
    let ctx = trace.map(|t| TraceCtx {
        trace: t,
        parent: await_id,
    });
    let await_start = Instant::now();
    let submitted = shared.batcher.submit(
        parsed.query,
        parsed.opts,
        parsed.consistency,
        deadline,
        parsed.deadline_ms,
        ctx,
    );
    let rx = match submitted {
        Submit::Enqueued(rx) => rx,
        Submit::QueueFull => {
            shared.metrics.rejected_queue_full.inc();
            return respond_error(
                stream,
                shared,
                &ApiError::queue_full(shared.cfg.queue_capacity),
                close,
            );
        }
        Submit::ShuttingDown => {
            shared.metrics.rejected_shutdown.inc();
            return respond_error(stream, shared, &ApiError::shutting_down(), close);
        }
    };
    // The batcher answers every admitted job, including expired ones; the
    // extra grace only guards against a wedged batcher thread.
    let grace = parsed.deadline + Duration::from_secs(1);
    let reply = rx.recv_timeout(grace);
    let awaited = await_start.elapsed();
    if let Some(t) = trace {
        ring().record_with_id(
            t,
            await_id,
            root_id,
            Stage::Await,
            await_start,
            awaited,
            None,
            0,
        );
    }
    let serialize_start = Instant::now();
    let (result, queue_wait_ns) = match reply {
        Ok(JobReply::Ok {
            resp,
            batch_id,
            batch_size,
            batch_unique,
            queue_wait_ns,
        }) => {
            let body = wire::search_body(&resp, batch_id, batch_size, batch_unique);
            let mut extra = vec![
                ("x-lcdd-epoch", resp.epoch.to_string()),
                ("x-lcdd-batch-id", batch_id.to_string()),
            ];
            if let Some(t) = trace {
                extra.push(("x-lcdd-trace-id", t.to_hex()));
            }
            (
                respond_ok(stream, shared, &extra, &body, close),
                queue_wait_ns,
            )
        }
        Ok(JobReply::Err(e)) => (respond_error(stream, shared, &e, close), 0),
        Err(_) => (
            respond_error(
                stream,
                shared,
                &ApiError::deadline_exceeded(parsed.deadline_ms),
                close,
            ),
            0,
        ),
    };
    let total = started.elapsed();
    if let Some(t) = trace {
        ring().record(
            t,
            root_id,
            Stage::Serialize,
            serialize_start,
            serialize_start.elapsed(),
            None,
            0,
        );
        ring().record_with_id(t, root_id, 0, Stage::Request, started, total, None, 0);
        slow().observe(u64::try_from(total.as_nanos()).unwrap_or(u64::MAX), t);
    }
    // Service time excludes the admission-queue wait (recorded separately
    // by the batcher), so queue pressure does not read as scoring cost.
    let total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
    shared
        .metrics
        .record_service_time(total_ns.saturating_sub(queue_wait_ns));
    result
}

/// `GET /debug/trace/{id}`: replays every retained span of a trace from
/// the ring as a JSON span tree, ordered by start offset.
fn handle_trace(
    path: &str,
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.debug.inc();
    let raw = path.trim_start_matches("/debug/trace/");
    let Some(trace) = TraceId::parse(raw) else {
        return respond_error(
            stream,
            shared,
            &ApiError::bad_request("invalid_trace_id", format!("'{raw}' is not a hex trace id")),
            close,
        );
    };
    let spans = ring().replay(trace);
    if spans.is_empty() {
        let e = ApiError {
            status: 404,
            code: "trace_not_found",
            message: format!(
                "trace {} has no retained spans (never recorded, or evicted from the ring)",
                trace.to_hex()
            ),
            retry_after_s: None,
            current_epoch: None,
        };
        return respond_error(stream, shared, &e, close);
    }
    let mut body = format!(
        "{{\"trace\":{},\"spans\":[",
        crate::json::quote(&trace.to_hex())
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"stage\":{},\"start_ns\":{},\"dur_ns\":{},\"link\":{},\"meta\":{}}}",
            s.id,
            s.parent,
            crate::json::quote(s.stage.name()),
            s.start_ns,
            s.dur_ns,
            match s.link {
                Some(l) => crate::json::quote(&l.to_hex()),
                None => "null".to_string(),
            },
            s.meta,
        ));
    }
    body.push_str("]}");
    respond_ok(stream, shared, &[], &body, close)
}

/// `GET /debug/slow?n=N`: the up-to-N slowest traced requests (default
/// 10), slowest first, plus span-ring health.
fn handle_slow(
    req: &Request,
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.debug.inc();
    let n = req
        .query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(10);
    let mut body = String::from("{\"slowest\":[");
    for (i, (trace, total_ns)) in slow().slowest(n).into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"trace\":{},\"total_ns\":{total_ns}}}",
            crate::json::quote(&trace.to_hex()),
        ));
    }
    let ring = ring();
    body.push_str(&format!(
        "],\"ring\":{{\"recorded\":{},\"dropped\":{},\"capacity\":{}}}}}",
        ring.recorded(),
        ring.dropped(),
        ring.capacity(),
    ));
    respond_ok(stream, shared, &[], &body, close)
}

fn handle_insert(
    req: &Request,
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.insert.inc();
    if shared.draining.load(Relaxed) {
        shared.metrics.rejected_shutdown.inc();
        return respond_error(stream, shared, &ApiError::shutting_down(), close);
    }
    let tables = match wire::parse_insert(req) {
        Ok(t) => t,
        Err(e) => return respond_error(stream, shared, &e, close),
    };
    match shared.backend.insert(tables) {
        Ok((epoch, positions)) => {
            let body = wire::insert_body(epoch, &positions);
            let extra = vec![("x-lcdd-epoch", epoch.to_string())];
            respond_ok(stream, shared, &extra, &body, close)
        }
        Err(e) => respond_error(stream, shared, &e, close),
    }
}

fn handle_remove(
    req: &Request,
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.remove.inc();
    if shared.draining.load(Relaxed) {
        shared.metrics.rejected_shutdown.inc();
        return respond_error(stream, shared, &ApiError::shutting_down(), close);
    }
    let ids = match wire::parse_remove(req) {
        Ok(ids) => ids,
        Err(e) => return respond_error(stream, shared, &e, close),
    };
    match shared.backend.remove(&ids) {
        Ok((epoch, removed)) => {
            let body = wire::remove_body(epoch, removed);
            let extra = vec![("x-lcdd-epoch", epoch.to_string())];
            respond_ok(stream, shared, &extra, &body, close)
        }
        Err(e) => respond_error(stream, shared, &e, close),
    }
}

fn handle_healthz(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.healthz.inc();
    let backend = &shared.backend;
    let draining = shared.draining.load(Relaxed);
    let pin = backend.pin();
    let state = &pin.state;
    let mut body = format!(
        "{{\"status\":{},\"backend\":{},\"epoch\":{},\"tables\":{},\"shards\":{},\"uptime_s\":{}",
        crate::json::quote(if draining { "draining" } else { "ok" }),
        crate::json::quote(backend.kind()),
        state.epoch(),
        state.len(),
        state.shards().len(),
        crate::json::num(shared.started.elapsed().as_secs_f64()),
    );
    let tier = state.tier_stats();
    body.push_str(&format!(
        ",\"tier\":{{\"resident_tables\":{},\"mapped_tables\":{}}}",
        tier.resident_tables, tier.mapped_tables,
    ));
    if let Some(wal) = backend.wal_len() {
        body.push_str(&format!(",\"wal_bytes\":{wal}"));
    }
    if let Some((in_flight, ops_since, error)) = backend.checkpoint_health() {
        body.push_str(&format!(
            ",\"checkpoint_in_flight\":{in_flight},\"ops_since_checkpoint\":{ops_since},\"checkpoint_error\":{}",
            match error {
                Some(e) => crate::json::quote(&e),
                None => "null".to_string(),
            }
        ));
    }
    if let Some((leader_epoch_seen, lag, quarantine)) = backend.replica_health() {
        body.push_str(&format!(
            ",\"replica\":{{\"leader_epoch_seen\":{leader_epoch_seen},\"lag\":{lag},\"quarantined\":{}}}",
            match quarantine {
                Some(reason) => crate::json::quote(&reason),
                None => "null".to_string(),
            }
        ));
    }
    body.push('}');
    respond_ok(stream, shared, &[], &body, close)
}

/// `GET /metrics`: JSON by default; `Accept: text/plain` negotiates the
/// Prometheus text exposition (version 0.0.4).
fn handle_metrics(
    req: &Request,
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.metrics.inc();
    let walk = shared.metrics.walk(
        &shared.backend,
        shared.started.elapsed(),
        shared.cfg.queue_capacity,
        shared.draining.load(Relaxed),
    );
    let wants_prometheus = req
        .header("accept")
        .is_some_and(|a| a.contains("text/plain"));
    if wants_prometheus {
        let body = crate::metrics::prometheus(&walk);
        shared.metrics.count_status(200);
        return write_response_typed(
            stream,
            200,
            lcdd_obs::prometheus::CONTENT_TYPE,
            &[],
            &body,
            close,
        );
    }
    respond_ok(stream, shared, &[], &crate::metrics::json(&walk), close)
}

/// `GET /snapshot/{epoch}`: 200 when the published epoch matches, 410
/// for an epoch the corpus has moved past (the snapshot is gone — the
/// store keeps state, not history), 404 for an epoch not yet published.
fn handle_snapshot(
    path: &str,
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    close: bool,
) -> std::io::Result<()> {
    shared.metrics.snapshot.inc();
    let raw = path.trim_start_matches("/snapshot/");
    let Ok(requested) = raw.parse::<u64>() else {
        return respond_error(
            stream,
            shared,
            &ApiError::bad_request("invalid_epoch", format!("'{raw}' is not an epoch number")),
            close,
        );
    };
    let pin = shared.backend.pin();
    let current = pin.state.epoch();
    if requested == current {
        let body = format!(
            "{{\"epoch\":{current},\"tables\":{},\"shards\":{}}}",
            pin.state.len(),
            pin.state.shards().len(),
        );
        let extra = vec![("x-lcdd-epoch", current.to_string())];
        respond_ok(stream, shared, &extra, &body, close)
    } else if requested < current {
        let e = ApiError {
            status: 410,
            code: "epoch_gone",
            message: format!("epoch {requested} has been superseded by {current}"),
            retry_after_s: None,
            current_epoch: Some(current),
        };
        respond_error(stream, shared, &e, close)
    } else {
        let e = ApiError {
            status: 404,
            code: "epoch_not_published",
            message: format!("epoch {requested} is ahead of the published {current}"),
            retry_after_s: None,
            current_epoch: Some(current),
        };
        respond_error(stream, shared, &e, close)
    }
}
