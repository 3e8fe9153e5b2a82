//! The four workloads: what each one is, how its stack is set up, and how
//! its two callers drive the gateway over loopback TCP.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcdd_engine::{
    CacheStats, EngineBuilder, EngineError, EngineState, Query, SearchOptions, SearchResponse,
    ServingEngine,
};
use lcdd_fcm::{FcmConfig, FcmModel};
use lcdd_server::{Backend, Server, ServerConfig};
use lcdd_store::{DurableEngine, StoreOptions};
use lcdd_table::Table;

use crate::client::{self, CallerLog, Conn, PacedOp, Phase};
use crate::gen::{self, Rng};
use crate::span::SpanLog;

/// Shards of every corpus.
pub const N_SHARDS: usize = 2;
/// Hits asked for by every search.
pub const K: usize = 10;
/// Queries of the fixed sample whose served answers are compared with the
/// in-process ones. Their stream indices are `0..SAMPLE_QUERIES`.
pub const SAMPLE_QUERIES: u64 = 64;
/// Inserted tables kept live before the writer starts removing the oldest.
const LIVE_INSERTS: usize = 8;

// Query-stream bases, far enough apart that no two callers or passes ever
// draw the same unique query.
pub const POOL_BASE: u64 = 10_000;
const CALLER_A_BASE: u64 = 1_000_000;
const CALLER_B_BASE: u64 = 2_000_000;
pub const REPLAY_BASE: u64 = 3_000_000;
const PASS_STRIDE: u64 = 200_000;

/// What the second caller does while caller A searches in a closed loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Second {
    /// The same closed-loop search on a second keep-alive connection.
    Search,
    /// A fresh TCP connection per search, paced open loop.
    Churn { rate_hz: f64 },
    /// `/insert` (three in four) and `/remove` on a keep-alive connection,
    /// paced open loop.
    Write { rate_hz: f64 },
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers the workload stresses.
    pub why: &'static str,
    pub tables: usize,
    /// Served from a cold-opened durable store instead of memory.
    pub durable: bool,
    /// The fixed tail of every `/search` body.
    pub options: &'static str,
    /// Queries come from a fixed pool of this size instead of being unique.
    pub pool: Option<usize>,
    pub second: Second,
    /// Times the stack is set up per run; `setup_s` is their median.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan_exact",
        why: "unique queries, strategy none over 1024 tables: exact FCM scoring is >=80% of a request, gateway <5%, so scorer/kernel/pool gains show here and gateway gains must not",
        tables: 1024,
        durable: false,
        options: "\"k\":10,\"strategy\":\"none\"",
        pool: None,
        second: Second::Search,
        setup_reps: 3,
    },
    Workload {
        name: "pruned_unique",
        why: "unique queries, default hybrid index over 1024 tables: render, extract, encode, candidate generation, scoring and gateway each hold a visible share, none dominates",
        tables: 1024,
        durable: false,
        options: "\"k\":10",
        pool: None,
        second: Second::Search,
        setup_reps: 3,
    },
    Workload {
        name: "hot_cached",
        why: "64 repeated queries, all query-cache hits: engine compute is ~0, so this is the gateway floor, kept-alive on one connection and accept+spawn per request (200/s) on the other",
        tables: 1024,
        durable: false,
        options: "\"k\":10",
        pool: Some(64),
        second: Second::Churn { rate_hz: 200.0 },
        setup_reps: 3,
    },
    Workload {
        name: "cold_tier_rw",
        why: "4096 tables cold-opened from disk, int8 scan then 256 paged-in exact re-ranks, beside 20 writes/s with fsync and a checkpoint every 16: mapped tier, WAL, checkpoints, epoch publication",
        tables: 4096,
        durable: true,
        options: "\"k\":10,\"strategy\":\"none\",\"rerank\":256",
        pool: None,
        second: Second::Write { rate_hz: 20.0 },
        setup_reps: 5,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The store policy of the durable workload.
pub fn store_options() -> StoreOptions {
    StoreOptions {
        cold_open: true,
        sync_writes: true,
        checkpoint_every_ops: 16,
        ..StoreOptions::default()
    }
}

/// The model every workload serves: seeded, untrained weights. Latency
/// depends on the shapes, not on the values; training would cost more than
/// the run and make candidate counts depend on summation order.
pub fn model() -> FcmModel {
    FcmModel::new(FcmConfig::small())
}

pub fn build_engine(tables: Vec<Table>) -> Result<lcdd_engine::Engine, EngineError> {
    EngineBuilder::new(model())
        .shards(N_SHARDS)
        .ingest_tables(tables)
        .build()
}

/// The engine behind the gateway, also held by the benchmark for the
/// in-process reference answers and the layer replay.
#[derive(Clone)]
pub enum Served {
    Mem(Arc<ServingEngine>),
    Disk(Arc<DurableEngine>),
}

impl Served {
    pub fn backend(&self) -> Backend {
        match self {
            Served::Mem(s) => Backend::Serving(Arc::clone(s)),
            Served::Disk(d) => Backend::Durable(Arc::clone(d)),
        }
    }

    /// Through the query cache, as the gateway's batcher searches.
    pub fn search(&self, q: &Query, o: &SearchOptions) -> Result<SearchResponse, EngineError> {
        match self {
            Served::Mem(s) => s.search(q, o),
            Served::Disk(d) => d.search(q, o),
        }
    }

    /// Past the query cache: what a miss costs.
    pub fn search_uncached(
        &self,
        q: &Query,
        o: &SearchOptions,
    ) -> Result<SearchResponse, EngineError> {
        match self {
            Served::Mem(s) => s.search_at(&s.snapshot(), q, o),
            Served::Disk(d) => d.search_at(&d.snapshot(), q, o),
        }
    }

    pub fn snapshot(&self) -> Arc<EngineState> {
        match self {
            Served::Mem(s) => s.snapshot(),
            Served::Disk(d) => d.snapshot(),
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        match self {
            Served::Mem(s) => s.cache_stats(),
            Served::Disk(d) => d.cache_stats(),
        }
    }
}

/// A running gateway and the engine behind it.
pub struct Stack {
    pub served: Served,
    pub server: Server,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Drains the gateway; every admitted search must have been answered.
    pub fn shutdown(self) -> Result<Served, String> {
        let report = self.server.shutdown();
        if report.jobs_enqueued != report.jobs_answered {
            return Err(format!(
                "drain lost searches: {} admitted, {} answered",
                report.jobs_enqueued, report.jobs_answered
            ));
        }
        Ok(self.served)
    }
}

/// Builds (in memory) or opens (durable) the engine and starts the gateway
/// in front of it on an ephemeral loopback port.
pub fn start_stack(w: &Workload, tables: &[Table], store: &Path) -> Result<Stack, String> {
    let served = if w.durable {
        let (engine, _) =
            DurableEngine::open(store, store_options()).map_err(|e| format!("open store: {e}"))?;
        Served::Disk(Arc::new(engine))
    } else {
        let engine = build_engine(tables.to_vec()).map_err(|e| format!("build engine: {e}"))?;
        Served::Mem(Arc::new(ServingEngine::new(engine)))
    };
    // The shipped defaults, except a deadline no request of a healthy run
    // can reach: a slow answer must show as latency, not as a 504.
    let cfg = ServerConfig {
        default_deadline_ms: 30_000,
        ..ServerConfig::default()
    };
    let server = Server::start(served.backend(), cfg).map_err(|e| format!("start gateway: {e}"))?;
    Ok(Stack { served, server })
}

/// The `/search` body of stream query `q`.
pub fn search_body(w: &Workload, seed: u64, q: u64, tables: &[Table]) -> String {
    client::search_body(&gen::query(seed, q, tables), w.options)
}

/// Runs the gateway's own parser over a body, so the in-process reference
/// searches exactly the query and options the gateway would.
pub fn parse_body(body: &str) -> Result<(Query, SearchOptions), String> {
    let request = lcdd_server::http::Request {
        method: "POST".into(),
        path: "/search".into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    lcdd_server::wire::parse_search(&request, 30_000, 30_000)
        .map(|p| (p.query, p.opts))
        .map_err(|e| format!("parse {}: {}", e.code, e.message))
}

/// Sends sample query `q` through the gateway and checks that the hits are
/// the in-process answer, table for table and score bit for score bit.
pub fn check_sample(
    w: &Workload,
    served: &Served,
    conn: &mut Conn,
    seed: u64,
    q: u64,
    tables: &[Table],
) -> Result<(), String> {
    let body = search_body(w, seed, q, tables);
    let (status, _) = conn
        .round_trip(&client::post("/search", &body, false))
        .map_err(|e| format!("sample {q}: i/o: {e}"))?;
    if status != 200 {
        return Err(format!("sample {q}: status {status}: {}", conn.body_str()));
    }
    client::check_search_reply(conn.body_str(), K, &mut 0)?;
    let got = client::parse_hits(conn.body_str())?;
    let (query, opts) = parse_body(&body)?;
    let want: Vec<(u64, f64)> = served
        .search(&query, &opts)
        .map_err(|e| format!("sample {q}: in-process search: {e}"))?
        .hits
        .iter()
        .map(|h| (h.table_id, f64::from(h.score)))
        .collect();
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("sample {q}: served {got:?}, in-process {want:?}"))
    }
}

/// Sets the stack up and waits for its first correct answer; returns the
/// stack and how long that took.
pub fn timed_setup(
    w: &Workload,
    seed: u64,
    tables: &[Table],
    store: &Path,
) -> Result<(Stack, f64), String> {
    let t = Instant::now();
    let stack = start_stack(w, tables, store)?;
    let mut conn = Conn::connect(stack.addr()).map_err(|e| format!("connect: {e}"))?;
    check_sample(w, &stack.served, &mut conn, seed, 0, tables)?;
    Ok((stack, t.elapsed().as_secs_f64()))
}

/// What both callers did in one pass over the gateway.
pub struct Pass {
    pub phase: Phase,
    pub a: CallerLog,
    pub b: CallerLog,
    /// Ids inserted and acknowledged, not removed since (writer only).
    pub live: Vec<u64>,
    /// Ids whose removal was acknowledged (writer only).
    pub removed: Vec<u64>,
    /// Where the next pass's writer continues inserting.
    pub next_insert: u64,
    pub spans: Option<SpanLog>,
}

/// The paced writer: inserts one table per op; once [`LIVE_INSERTS`] are
/// live, every fourth op instead removes the three oldest in one request.
/// Three writes in four are then inserts, so the median write is an insert
/// and does not sit on the edge between two kinds of op.
struct Writer<'a> {
    w: &'a Workload,
    seed: u64,
    addr: SocketAddr,
    conn: Option<Conn>,
    next_insert: u64,
    live: VecDeque<u64>,
    removed: Vec<u64>,
}

enum WriteOp {
    Insert(u64, Vec<u8>),
    Remove(Vec<u64>, Vec<u8>),
}

impl PacedOp for Writer<'_> {
    type Prepared = WriteOp;

    /// Runs before the due time, so building the body is not part of the
    /// write's latency.
    fn prepare(&mut self, n: u64) -> WriteOp {
        if n % 4 == 3 && self.live.len() > LIVE_INSERTS {
            let ids: Vec<u64> = self.live.iter().take(3).copied().collect();
            let list: Vec<String> = ids.iter().map(u64::to_string).collect();
            let body = format!("{{\"ids\":[{}]}}", list.join(","));
            return WriteOp::Remove(ids, client::post("/remove", &body, false));
        }
        let id = gen::INSERT_ID_BASE + self.next_insert;
        let index = self.w.tables + self.next_insert as usize;
        self.next_insert += 1;
        let body = client::insert_body(&gen::table_with_id(self.seed, index, id));
        WriteOp::Insert(id, client::post("/insert", &body, false))
    }

    fn fire(&mut self, op: WriteOp) -> Result<(), String> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let request = match &op {
            WriteOp::Insert(_, r) | WriteOp::Remove(_, r) => r,
        };
        match conn.round_trip(request) {
            Ok((200, _)) => {
                match op {
                    WriteOp::Insert(id, _) => self.live.push_back(id),
                    WriteOp::Remove(ids, _) => {
                        self.live.drain(..ids.len());
                        self.removed.extend(ids);
                    }
                }
                Ok(())
            }
            Ok((status, _)) => Err(format!("write: status {status}: {}", conn.body_str())),
            Err(e) => {
                self.conn = None;
                Err(format!("write: i/o: {e}"))
            }
        }
    }
}

/// The paced churner: every search on a fresh connection.
struct Churner<'a, F> {
    addr: SocketAddr,
    next_request: F,
    spans: Option<&'a mut SpanLog>,
}

impl<F: FnMut() -> Vec<u8>> PacedOp for Churner<'_, F> {
    type Prepared = (u64, Vec<u8>);

    fn prepare(&mut self, n: u64) -> (u64, Vec<u8>) {
        (n, (self.next_request)())
    }

    fn fire(&mut self, (n, request): (u64, Vec<u8>)) -> Result<(), String> {
        let spans = self.spans.as_deref_mut().map(|s| (s, n));
        client::search_on_fresh_connection(self.addr, &request, K, spans)
    }
}

/// How one pass over the gateway is driven.
#[derive(Clone, Copy, Default)]
pub struct PassPlan {
    /// Which pass of the run this is: keeps the unique query streams of
    /// successive passes apart.
    pub number: u64,
    /// The first table the writer inserts, counted from the corpus end.
    pub first_insert: u64,
    /// Caller A alone: the second caller stays idle.
    pub alone: bool,
    /// Record client-side spans (on about half the requests of a closed
    /// loop, see [`client::is_spanned`]).
    pub spans: bool,
}

/// Drives one pass: warm-up, then the timed phase, caller A and the
/// workload's second caller side by side.
pub fn drive(
    w: &Workload,
    addr: SocketAddr,
    seed: u64,
    tables: &[Table],
    (warm, timed): (Duration, Duration),
    plan: PassPlan,
) -> Pass {
    let pool: Option<Vec<String>> = w.pool.map(|n| {
        (0..n as u64)
            .map(|i| search_body(w, seed, POOL_BASE + i, tables))
            .collect()
    });
    // A caller's request stream: the next unique query, or a draw from the
    // hot pool.
    let stream = |base: u64, close: bool| {
        let mut q = base + plan.number * PASS_STRIDE;
        let mut rng = Rng::new(seed, base);
        let pool = pool.as_ref();
        move || -> Vec<u8> {
            match pool {
                Some(pool) => client::post("/search", &pool[rng.below(pool.len())], close),
                None => {
                    q += 1;
                    client::post("/search", &search_body(w, seed, q, tables), close)
                }
            }
        }
    };
    let phase = Phase::starting_now(warm, timed);
    let mut spans_a = plan.spans.then(SpanLog::new);
    let mut spans_b = plan.spans.then(SpanLog::new);
    let mut writer = Writer {
        w,
        seed,
        addr,
        conn: None,
        next_insert: plan.first_insert,
        live: VecDeque::new(),
        removed: Vec::new(),
    };
    let (a, b) = std::thread::scope(|s| {
        let caller_a = s.spawn(|| {
            let next = stream(CALLER_A_BASE, false);
            client::closed_loop_search(addr, &phase, K, next, spans_a.as_mut())
        });
        let b = match w.second {
            _ if plan.alone => CallerLog::default(),
            Second::Search => {
                let next = stream(CALLER_B_BASE, false);
                client::closed_loop_search(addr, &phase, K, next, spans_b.as_mut())
            }
            Second::Churn { rate_hz } => {
                let mut churner = Churner {
                    addr,
                    next_request: stream(CALLER_B_BASE, true),
                    spans: spans_b.as_mut(),
                };
                client::paced_over_phase(&phase, rate_hz, &mut churner)
            }
            Second::Write { rate_hz } => client::paced_over_phase(&phase, rate_hz, &mut writer),
        };
        (caller_a.join().expect("caller A panicked"), b)
    });
    let spans = spans_a.map(|mut a| {
        // One log per pass: caller B's spans follow A's, parents re-based.
        if let Some(b) = spans_b {
            a.absorb(b);
        }
        a
    });
    Pass {
        phase,
        a,
        b,
        live: writer.live.into_iter().collect(),
        removed: writer.removed,
        next_insert: writer.next_insert,
        spans,
    }
}

/// After the run, from a fresh open of the store: every acknowledged insert
/// that was not removed is there, every acknowledged removal is gone.
/// Returns `(checked, failures)`.
pub fn check_durability(store: &Path, pass: &Pass) -> Result<(u64, Vec<String>), String> {
    let (engine, _) =
        DurableEngine::open(store, store_options()).map_err(|e| format!("final open: {e}"))?;
    let state = engine.snapshot();
    let ids: std::collections::HashSet<u64> =
        (0..state.len()).map(|i| state.table_meta(i).id).collect();
    let mut failures = Vec::new();
    for id in &pass.live {
        if !ids.contains(id) {
            failures.push(format!("acknowledged insert {id} is missing after re-open"));
        }
    }
    for id in &pass.removed {
        if ids.contains(id) {
            failures.push(format!("acknowledged removal {id} is back after re-open"));
        }
    }
    Ok(((pass.live.len() + pass.removed.len()) as u64, failures))
}

/// Where this run keeps its store and trace: beside the executable, which
/// is inside the build directory and so inside the checkout.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("stackbench-scratch");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Builds the durable workload's store in a child process, so that neither
/// the encoder's working set nor the in-memory corpus it builds from is in
/// the serving process's peak RSS. Returns the child's wall time.
pub fn build_store_in_child(store: &Path, seed: u64, tables: usize) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(store);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t = Instant::now();
    let status = std::process::Command::new(exe)
        .arg("build-store")
        .arg(store)
        .arg(seed.to_string())
        .arg(tables.to_string())
        .status()
        .map_err(|e| format!("spawn build-store: {e}"))?;
    if !status.success() {
        return Err(format!("build-store exited with {status}"));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// The child's side of [`build_store_in_child`].
pub fn build_store(store: &Path, seed: u64, tables: usize) -> Result<(), String> {
    let engine = build_engine(gen::corpus(seed, tables)).map_err(|e| format!("build: {e}"))?;
    DurableEngine::create(store, engine, store_options())
        .map(drop)
        .map_err(|e| format!("create store: {e}"))
}
