//! The load side: a minimal HTTP/1.1 client over `std::net`, request
//! bodies, reply checks, and the two drivers — a closed loop (the next
//! request leaves when the previous reply has been read) and a paced open
//! loop (requests leave on a schedule and are timed from when they were
//! due).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use lcdd_table::Table;

use crate::span::{SpanLog, NO_PARENT};
use crate::stats::Sample;

/// A reply slower than this is an I/O error, not a latency sample.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection to the gateway. The reply body of the last round trip
/// stays in `body` until the next one.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    pub body: Vec<u8>,
}

/// Instants inside one round trip, for the client-side spans.
pub struct Marks {
    pub written: Instant,
    pub first_byte: Instant,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
            body: Vec::new(),
        })
    }

    fn read_line(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }

    /// Writes one request and reads one reply; returns the status and the
    /// instants between which the client waited.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<(u16, Marks)> {
        self.writer.write_all(request)?;
        let written = Instant::now();
        let status_line = self.read_line()?;
        let status = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let first_byte = Instant::now();
        let mut content_length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        self.body.resize(content_length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok((
            status,
            Marks {
                written,
                first_byte,
            },
        ))
    }

    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

// ---- requests ------------------------------------------------------------

pub fn post(path: &str, body: &str, close: bool) -> Vec<u8> {
    let close = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST {path} HTTP/1.1\r\nHost: lcdd\r\n{close}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn get(path: &str, accept: Option<&str>) -> Vec<u8> {
    let accept = accept.map_or(String::new(), |a| format!("Accept: {a}\r\n"));
    format!("GET {path} HTTP/1.1\r\nHost: lcdd\r\n{accept}Content-Length: 0\r\n\r\n").into_bytes()
}

fn push_values(out: &mut String, values: &[f64]) {
    use std::fmt::Write;
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Single precision keeps a 200-point series near 2 KB on the wire;
        // the ripple that makes queries unique is far above its resolution.
        let _ = write!(out, "{}", *v as f32);
    }
    out.push(']');
}

/// `{"series":[[..],..],<options>}` — `options` is the workload's fixed
/// tail such as `"k":10,"strategy":"none"`.
pub fn search_body(series: &[Vec<f64>], options: &str) -> String {
    let mut out = String::with_capacity(series.len() * 2_400 + 64);
    out.push_str("{\"series\":[");
    for (i, line) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_values(&mut out, line);
    }
    out.push_str("],");
    out.push_str(options);
    out.push('}');
    out
}

pub fn insert_body(table: &Table) -> String {
    let mut out = format!(
        "{{\"tables\":[{{\"id\":{},\"name\":\"{}\",\"columns\":[",
        table.id, table.name
    );
    for (i, c) in table.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":\"{}\",\"values\":", c.name));
        push_values(&mut out, &c.values);
        out.push('}');
    }
    out.push_str("]}]}");
    out
}

// ---- reply checks --------------------------------------------------------

fn number_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Checks one 200 `/search` body: at most `k` hits, every score finite,
/// scores non-increasing, and the epoch not behind the last one this
/// connection saw.
pub fn check_search_reply(body: &str, k: usize, last_epoch: &mut u64) -> Result<(), String> {
    let epoch: u64 = number_after(body, "\"epoch\":")
        .and_then(|s| s.parse().ok())
        .ok_or("reply has no epoch")?;
    if epoch < *last_epoch {
        return Err(format!("epoch went back from {last_epoch} to {epoch}"));
    }
    *last_epoch = epoch;
    // Scores are looked for in the hit list only: the timings object has a
    // `score` field of its own.
    let list = body
        .find("\"hits\":[")
        .and_then(|at| {
            body[at..]
                .find("],\"counts\"")
                .map(|len| &body[at..at + len])
        })
        .ok_or("reply has no hit list")?;
    let mut hits = 0usize;
    let mut previous = f64::INFINITY;
    for (at, key) in list.match_indices("\"score\":") {
        let score: f64 = number_after(&list[at..], key)
            .and_then(|s| s.parse().ok())
            .filter(|s: &f64| s.is_finite())
            .ok_or("a score is not a finite number")?;
        if score > previous {
            return Err(format!("scores rise from {previous} to {score}"));
        }
        previous = score;
        hits += 1;
    }
    if hits > k {
        return Err(format!("{hits} hits for k = {k}"));
    }
    Ok(())
}

/// `(table_id, score)` of every hit, in order — for the identity sample,
/// where the served answer must equal the in-process one bit for bit.
pub fn parse_hits(body: &str) -> Result<Vec<(u64, f64)>, String> {
    let json = lcdd_server::json::parse(body)?;
    json.get("hits")
        .and_then(|h| h.as_arr())
        .ok_or("reply has no hit list")?
        .iter()
        .map(|h| {
            let id = h.get("table_id").and_then(|v| v.as_u64());
            let score = h.get("score").and_then(|v| v.as_f64());
            id.zip(score).ok_or_else(|| "malformed hit".to_string())
        })
        .collect()
}

// ---- drivers -------------------------------------------------------------

/// Warm-up runs from `warm_start` to `start` and is not reported; the timed
/// phase runs from `start` to `end`.
#[derive(Clone, Copy)]
pub struct Phase {
    pub warm_start: Instant,
    pub start: Instant,
    pub end: Instant,
}

impl Phase {
    pub fn starting_now(warm: Duration, timed: Duration) -> Phase {
        let warm_start = Instant::now();
        Phase {
            warm_start,
            start: warm_start + warm,
            end: warm_start + warm + timed,
        }
    }

    pub fn timed_ns(&self) -> u64 {
        (self.end - self.start).as_nanos() as u64
    }

    /// Nanoseconds from the start of the timed phase, negative in warm-up.
    fn offset_ns(&self, t: Instant) -> i64 {
        if t >= self.start {
            (t - self.start).as_nanos() as i64
        } else {
            -((self.start - t).as_nanos() as i64)
        }
    }
}

/// What one caller did.
#[derive(Default)]
pub struct CallerLog {
    pub samples: Vec<Sample>,
    /// How late each paced request left after it was both due and free to
    /// leave, in nanoseconds (open loop only): the generator's own lateness,
    /// not the wait behind a slow reply, which the latency already holds.
    pub lag_ns: Vec<u64>,
    /// The first few failures, for the error message.
    pub errors: Vec<String>,
}

impl CallerLog {
    fn fail(&mut self, what: String) {
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// `(attempted, failed)` over every request, warm-up included.
    pub fn tally(&self) -> (u64, u64) {
        let failed = self.samples.iter().filter(|s| !s.ok).count();
        (self.samples.len() as u64, failed as u64)
    }
}

/// Whether a closed-loop caller records spans for its `req_no`-th request.
/// A hash, not the parity: the query stream cycles with the request number
/// (every fourth query has two lines), and the halves must not differ in
/// anything but the recording.
pub fn is_spanned(req_no: u64) -> bool {
    crate::gen::Rng::new(0x5ba9, req_no).next_u64() & 1 == 1
}

/// A closed-loop caller on one keep-alive connection: sends the next
/// `/search` as soon as the previous reply has been read and checked.
/// With `spans`, the round trips [`is_spanned`] picks — about half, chosen
/// by a hash of the request number — also leave write / wait / read spans;
/// the rest stay plain, so the two interleaved halves of `samples` show
/// what recording costs.
pub fn closed_loop_search(
    addr: SocketAddr,
    phase: &Phase,
    k: usize,
    mut next_request: impl FnMut() -> Vec<u8>,
    mut spans: Option<&mut SpanLog>,
) -> CallerLog {
    let mut log = CallerLog::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.fail(format!("connect: {e}"));
            return log;
        }
    };
    let mut last_epoch = 0u64;
    let mut req_no = 0u64;
    loop {
        let request = next_request();
        let start = Instant::now();
        if start >= phase.end {
            break;
        }
        let outcome = conn.round_trip(&request);
        let done = Instant::now();
        let ok = match &outcome {
            Ok((200, _)) => match check_search_reply(conn.body_str(), k, &mut last_epoch) {
                Ok(()) => true,
                Err(e) => {
                    log.fail(e);
                    false
                }
            },
            Ok((status, _)) => {
                log.fail(format!("status {status}: {}", conn.body_str()));
                false
            }
            Err(e) => {
                log.fail(format!("i/o: {e}"));
                false
            }
        };
        if let (Some(spans), Ok((_, marks)), true) =
            (spans.as_deref_mut(), &outcome, is_spanned(req_no))
        {
            spans.record("client.request", start, done, NO_PARENT, req_no);
            let parent = spans.spans.len() - 1;
            spans.record("client.write", start, marks.written, parent, req_no);
            spans.record(
                "client.wait",
                marks.written,
                marks.first_byte,
                parent,
                req_no,
            );
            spans.record("client.read", marks.first_byte, done, parent, req_no);
        }
        log.samples.push(Sample {
            at_ns: phase.offset_ns(start),
            lat_ns: (done - start).as_nanos() as u64,
            ok,
        });
        req_no += 1;
        if outcome.is_err() {
            // The connection is gone; a fresh one keeps the caller going.
            match Conn::connect(addr) {
                Ok(c) => conn = c,
                Err(_) => break,
            }
            last_epoch = 0;
        }
    }
    log
}

/// Time as the paced loop sees it, so a test can drive it without sleeping.
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn sleep_until_ns(&self, t: u64);
}

/// Wall time from a fixed origin.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
    fn sleep_until_ns(&self, t: u64) {
        let now = self.now_ns();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// One kind of paced request: built ahead of its due time, then fired.
pub trait PacedOp {
    type Prepared;
    fn prepare(&mut self, n: u64) -> Self::Prepared;
    fn fire(&mut self, prepared: Self::Prepared) -> Result<(), String>;
}

/// The open-loop schedule. Request `n` is due at `n * interval_ns` on
/// `clock`; it is prepared before it is due, fired at or after its due
/// time, and timed **from its due time** — so a stall in one request is
/// charged to every later request it delayed. The timed phase starts at
/// `timed_from_ns`; the loop stops issuing at `end_ns`.
pub fn paced_loop(
    clock: &impl Clock,
    interval_ns: u64,
    timed_from_ns: u64,
    end_ns: u64,
    op: &mut impl PacedOp,
) -> CallerLog {
    let mut log = CallerLog::default();
    let mut free_at = 0u64;
    for n in 0.. {
        let due = n * interval_ns;
        if due >= end_ns {
            break;
        }
        let prepared = op.prepare(n);
        clock.sleep_until_ns(due);
        let left = clock.now_ns();
        let outcome = op.fire(prepared);
        let done = clock.now_ns();
        if due >= timed_from_ns {
            log.lag_ns.push(left - due.max(free_at));
        }
        free_at = done;
        let ok = outcome.is_ok();
        if let Err(e) = outcome {
            log.fail(e);
        }
        log.samples.push(Sample {
            at_ns: due as i64 - timed_from_ns as i64,
            lat_ns: done - due,
            ok,
        });
    }
    log
}

/// [`paced_loop`] over a [`Phase`] on the wall clock.
pub fn paced_over_phase(phase: &Phase, rate_hz: f64, op: &mut impl PacedOp) -> CallerLog {
    paced_loop(
        &WallClock(phase.warm_start),
        (1e9 / rate_hz) as u64,
        (phase.start - phase.warm_start).as_nanos() as u64,
        (phase.end - phase.warm_start).as_nanos() as u64,
        op,
    )
}

/// One `/search` on a fresh connection that the server closes afterwards.
/// With `spans`, leaves connect / write / wait / read spans.
pub fn search_on_fresh_connection(
    addr: SocketAddr,
    request: &[u8],
    k: usize,
    spans: Option<(&mut SpanLog, u64)>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    let (status, marks) = conn.round_trip(request).map_err(|e| format!("i/o: {e}"))?;
    let done = Instant::now();
    if status != 200 {
        return Err(format!("status {status}: {}", conn.body_str()));
    }
    // A fresh connection has seen no epoch yet.
    check_search_reply(conn.body_str(), k, &mut 0)?;
    if let Some((spans, req_no)) = spans {
        spans.record("client.request", start, done, NO_PARENT, req_no);
        let parent = spans.spans.len() - 1;
        spans.record("client.connect", start, connected, parent, req_no);
        spans.record("client.write", connected, marks.written, parent, req_no);
        spans.record(
            "client.wait",
            marks.written,
            marks.first_byte,
            parent,
            req_no,
        );
        spans.record("client.read", marks.first_byte, done, parent, req_no);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn reply_checks_catch_each_violation() {
        let ok = r#"{"epoch":3,"strategy":"none","cached":false,"hits":[{"index":1,"table_id":1,"table_name":"a","score":0.9},{"index":2,"table_id":2,"table_name":"b","score":0.5}],"counts":{"total":2},"timings_us":{"score":6610}}"#;
        let mut epoch = 3;
        assert_eq!(check_search_reply(ok, 10, &mut epoch), Ok(()));
        assert!(check_search_reply(ok, 1, &mut 0)
            .unwrap_err()
            .contains("hits for k"));
        assert!(check_search_reply(ok, 10, &mut 4)
            .unwrap_err()
            .contains("epoch went back"));
        let rising = ok.replace("0.5", "0.95");
        assert!(check_search_reply(&rising, 10, &mut 0)
            .unwrap_err()
            .contains("rise"));
        let null = ok.replace("0.5", "null");
        assert!(check_search_reply(&null, 10, &mut 0)
            .unwrap_err()
            .contains("finite"));
        assert!(check_search_reply("{}", 10, &mut 0).is_err());
        assert_eq!(parse_hits(ok), Ok(vec![(1, 0.9), (2, 0.5)]));
    }

    #[test]
    fn bodies_are_what_the_gateway_parses() {
        let body = search_body(&[vec![1.0, 2.5], vec![3.0, 4.0]], "\"k\":10");
        assert_eq!(body, r#"{"series":[[1,2.5],[3,4]],"k":10}"#);
        let request = lcdd_server::http::Request {
            method: "POST".into(),
            path: "/search".into(),
            query: String::new(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        let parsed = lcdd_server::wire::parse_search(&request, 2_000, 30_000).unwrap();
        assert_eq!(parsed.opts.k, 10);

        let table = crate::gen::table(1, 5);
        let request = lcdd_server::http::Request {
            method: "POST".into(),
            path: "/insert".into(),
            query: String::new(),
            headers: Vec::new(),
            body: insert_body(&table).into_bytes(),
        };
        let tables = lcdd_server::wire::parse_insert(&request).unwrap();
        assert_eq!(tables[0].id, table.id);
        assert_eq!(tables[0].num_cols(), table.num_cols());
    }

    /// A clock that moves only when told to.
    #[derive(Default)]
    struct ManualClock(Cell<u64>);

    impl Clock for ManualClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until_ns(&self, t: u64) {
            self.0.set(self.0.get().max(t));
        }
    }

    /// Fires by moving a manual clock: `cost_ms(n)` per request, request
    /// `fail_at` fails.
    struct Scripted<'a> {
        clock: &'a ManualClock,
        cost_ns: fn(u64) -> u64,
        fail_at: Option<u64>,
    }

    impl PacedOp for Scripted<'_> {
        type Prepared = u64;
        fn prepare(&mut self, n: u64) -> u64 {
            n
        }
        fn fire(&mut self, n: u64) -> Result<(), String> {
            self.clock.0.set(self.clock.0.get() + (self.cost_ns)(n));
            if self.fail_at == Some(n) {
                Err("boom".into())
            } else {
                Ok(())
            }
        }
    }

    /// Ten requests 10 ms apart; the fourth stalls for 35 ms. The three
    /// requests due during the stall leave late and are charged the wait.
    #[test]
    fn open_loop_charges_a_stall_to_the_requests_it_delays() {
        const MS: u64 = 1_000_000;
        let clock = ManualClock::default();
        let mut op = Scripted {
            clock: &clock,
            cost_ns: |n| if n == 3 { 35 * MS } else { MS },
            fail_at: None,
        };
        let log = paced_loop(&clock, 10 * MS, 0, 100 * MS, &mut op);
        let lat_ms: Vec<u64> = log.samples.iter().map(|s| s.lat_ns / MS).collect();
        // Request 3 is due at 30 and done at 65. Request 4 (due 40) leaves at
        // 65 -> 26 ms; request 5 (due 50) leaves at 66 -> 17 ms; request 6
        // (due 60) leaves at 67 -> 8 ms; request 7 (due 70) is on time again.
        assert_eq!(lat_ms, [1, 1, 1, 35, 26, 17, 8, 1, 1, 1]);
        // The wait behind the stall is the program's, not the generator's.
        assert!(log.lag_ns.iter().all(|&l| l == 0));
        assert!(log.samples.iter().all(|s| s.ok));
    }

    #[test]
    fn warm_up_requests_sit_before_zero_and_failures_are_kept() {
        let clock = ManualClock::default();
        let mut op = Scripted {
            clock: &clock,
            cost_ns: |_| 0,
            fail_at: Some(4),
        };
        let log = paced_loop(&clock, 10, 20, 50, &mut op);
        let at: Vec<i64> = log.samples.iter().map(|s| s.at_ns).collect();
        assert_eq!(at, [-20, -10, 0, 10, 20]);
        assert_eq!(log.lag_ns.len(), 3);
        assert!(!log.samples[4].ok);
        assert_eq!(log.errors, ["boom"]);
    }
}
