//! Wire-schema validation and response rendering: the boundary where
//! untrusted JSON becomes typed engine inputs.
//!
//! Every limit here exists so that adversarial input maps to a typed 400
//! instead of a panic or an unbounded allocation: series/table/column
//! counts are capped, every number that reaches the engine is finite by
//! construction (the JSON parser already refuses `1e999`-style
//! overflows), ragged tables are refused before [`Table::new`] could
//! panic on them, and conflicting consistency contracts are an error
//! rather than a silent pick.

use std::time::Duration;

use lcdd_engine::{Query, SearchOptions, SearchResponse};
use lcdd_index::IndexStrategy;
use lcdd_repl::ReadConsistency;
use lcdd_table::{Column, Table};

use crate::error::ApiError;
use crate::http::Request;
use crate::json::{self, opt_usize, quote, Json};

/// Most series one sketch query may carry.
pub const MAX_SERIES: usize = 16;
/// Fewest points a series needs to describe a line.
pub const MIN_SERIES_LEN: usize = 2;
/// Most points accepted per series.
pub const MAX_SERIES_LEN: usize = 65_536;
/// Largest accepted `k`.
pub const MAX_K: usize = 1_000;

/// Upper bound on the `rerank` depth (exact re-rank survivors of the
/// quantized candidate scan) a request may ask for.
pub const MAX_RERANK: usize = 100_000;
/// Most tables per `/insert` call.
pub const MAX_TABLES: usize = 1_024;
/// Most columns per inserted table.
pub const MAX_COLUMNS: usize = 32;
/// Most rows per inserted column.
pub const MAX_ROWS: usize = 65_536;
/// Most ids per `/remove` call.
pub const MAX_REMOVE_IDS: usize = 4_096;

/// A validated `/search` request, ready for the batcher.
#[derive(Debug)]
pub struct SearchRequest {
    pub query: Query,
    pub opts: SearchOptions,
    pub consistency: ReadConsistency,
    /// Validated, clamped deadline.
    pub deadline: Duration,
    pub deadline_ms: u64,
}

fn bad(code: &'static str, message: impl Into<String>) -> ApiError {
    ApiError::bad_request(code, message)
}

/// Parses the request body as a JSON object.
fn parse_object(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| bad("invalid_json", "request body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Err(bad("invalid_json", "request body is empty"));
    }
    let v = json::parse(text).map_err(|e| bad("invalid_json", e))?;
    match v {
        Json::Obj(_) => Ok(v),
        _ => Err(bad("invalid_json", "request body must be a JSON object")),
    }
}

/// A `u64` field, from a header override first, then the body.
fn u64_field(
    req: &Request,
    body: &Json,
    header: &str,
    field: &str,
) -> Result<Option<u64>, ApiError> {
    if let Some(raw) = req.header(header) {
        return raw.parse::<u64>().map(Some).map_err(|_| {
            bad(
                "invalid_header",
                format!("header {header} must be a non-negative integer, got '{raw}'"),
            )
        });
    }
    match body.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            bad(
                "invalid_field",
                format!("'{field}' must be a non-negative integer"),
            )
        }),
    }
}

/// Validates one `POST /search` request (body plus `x-lcdd-*` header
/// overrides) into a typed [`SearchRequest`].
pub fn parse_search(
    req: &Request,
    default_deadline_ms: u64,
    max_deadline_ms: u64,
) -> Result<SearchRequest, ApiError> {
    let body = parse_object(&req.body)?;

    // --- query series ---
    let series_v = body.get("series").ok_or_else(|| {
        bad(
            "missing_series",
            "'series' is required: an array of numeric arrays",
        )
    })?;
    let outer = series_v.as_arr().ok_or_else(|| {
        bad(
            "invalid_series",
            "'series' must be an array of numeric arrays",
        )
    })?;
    if outer.is_empty() {
        return Err(bad(
            "invalid_series",
            "'series' must contain at least one series",
        ));
    }
    if outer.len() > MAX_SERIES {
        return Err(bad(
            "invalid_series",
            format!("at most {MAX_SERIES} series per query, got {}", outer.len()),
        ));
    }
    let mut series: Vec<Vec<f64>> = Vec::with_capacity(outer.len());
    for (i, s) in outer.iter().enumerate() {
        let vals = s.as_arr().ok_or_else(|| {
            bad(
                "invalid_series",
                format!("series[{i}] must be an array of numbers"),
            )
        })?;
        if vals.len() < MIN_SERIES_LEN || vals.len() > MAX_SERIES_LEN {
            return Err(bad(
                "invalid_series",
                format!(
                    "series[{i}] has {} points; accepted range is {MIN_SERIES_LEN}..={MAX_SERIES_LEN}",
                    vals.len()
                ),
            ));
        }
        let mut out = Vec::with_capacity(vals.len());
        for (j, v) in vals.iter().enumerate() {
            // The parser already refused non-finite numbers; a non-number
            // here is a type error.
            let f = v.as_f64().ok_or_else(|| {
                bad(
                    "invalid_series",
                    format!("series[{i}][{j}] is not a number"),
                )
            })?;
            out.push(f);
        }
        series.push(out);
    }

    // --- options ---
    let k = match body.get("k") {
        None | Some(Json::Null) => SearchOptions::default().k,
        Some(v) => {
            let k = v
                .as_u64()
                .ok_or_else(|| bad("invalid_k", "'k' must be a positive integer"))?;
            if k == 0 {
                return Err(bad("invalid_k", "'k' must be at least 1"));
            }
            if k > MAX_K as u64 {
                return Err(bad("invalid_k", format!("'k' must be at most {MAX_K}")));
            }
            k as usize
        }
    };
    let strategy = match body.get("strategy") {
        None | Some(Json::Null) => IndexStrategy::Hybrid,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| bad("invalid_strategy", "'strategy' must be a string"))?;
            match name {
                "hybrid" => IndexStrategy::Hybrid,
                "interval" => IndexStrategy::IntervalOnly,
                "lsh" => IndexStrategy::LshOnly,
                "none" => IndexStrategy::NoIndex,
                other => {
                    return Err(bad(
                        "invalid_strategy",
                        format!("unknown strategy '{other}'; expected hybrid|interval|lsh|none"),
                    ))
                }
            }
        }
    };
    let min_score = match body.get("min_score") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let f = v
                .as_f64()
                .ok_or_else(|| bad("invalid_min_score", "'min_score' must be a number"))?;
            let f32v = f as f32;
            if !f32v.is_finite() {
                return Err(bad("invalid_min_score", "'min_score' overflows f32"));
            }
            Some(f32v)
        }
    };
    let rerank = match body.get("rerank") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let r = v
                .as_u64()
                .ok_or_else(|| bad("invalid_rerank", "'rerank' must be a positive integer"))?;
            if r == 0 {
                return Err(bad("invalid_rerank", "'rerank' must be at least 1"));
            }
            if r > MAX_RERANK as u64 {
                return Err(bad(
                    "invalid_rerank",
                    format!("'rerank' must be at most {MAX_RERANK}"),
                ));
            }
            Some(r as usize)
        }
    };
    let mut opts = SearchOptions::top_k(k).with_strategy(strategy);
    opts.min_score = min_score;
    opts.rerank = rerank;

    // --- deadline ---
    let deadline_ms = match u64_field(req, &body, "x-lcdd-deadline-ms", "deadline_ms")? {
        None => default_deadline_ms,
        Some(0) => return Err(bad("invalid_deadline", "'deadline_ms' must be at least 1")),
        Some(ms) => ms.min(max_deadline_ms),
    };

    // --- consistency ---
    let min_epoch = u64_field(req, &body, "x-lcdd-min-epoch", "min_epoch")?;
    let max_lag = u64_field(req, &body, "x-lcdd-max-lag", "max_lag")?;
    let consistency = match (min_epoch, max_lag) {
        (Some(_), Some(_)) => {
            return Err(bad(
                "conflicting_consistency",
                "set at most one of 'min_epoch' and 'max_lag'",
            ))
        }
        (Some(epoch), None) => ReadConsistency::AtLeastEpoch(epoch),
        (None, Some(lag)) => ReadConsistency::BoundedLag(lag),
        (None, None) => ReadConsistency::Any,
    };

    Ok(SearchRequest {
        query: Query::from_series(series),
        opts,
        consistency,
        deadline: Duration::from_millis(deadline_ms),
        deadline_ms,
    })
}

/// Validates one `POST /insert` body into engine [`Table`]s. Ragged
/// tables are refused here — [`Table::new`] asserts on them, and network
/// input must never reach an assert.
pub fn parse_insert(req: &Request) -> Result<Vec<Table>, ApiError> {
    let body = parse_object(&req.body)?;
    let tables_v = body.get("tables").ok_or_else(|| {
        bad(
            "missing_tables",
            "'tables' is required: an array of table objects",
        )
    })?;
    let arr = tables_v
        .as_arr()
        .ok_or_else(|| bad("invalid_tables", "'tables' must be an array"))?;
    if arr.is_empty() || arr.len() > MAX_TABLES {
        return Err(bad(
            "invalid_tables",
            format!("1..={MAX_TABLES} tables per insert, got {}", arr.len()),
        ));
    }
    let mut tables = Vec::with_capacity(arr.len());
    for (t_idx, t) in arr.iter().enumerate() {
        let id = t.get("id").and_then(Json::as_u64).ok_or_else(|| {
            bad(
                "invalid_table",
                format!("tables[{t_idx}].id must be a non-negative integer"),
            )
        })?;
        let name = match t.get("name") {
            None | Some(Json::Null) => format!("table-{id}"),
            Some(v) => v
                .as_str()
                .ok_or_else(|| {
                    bad(
                        "invalid_table",
                        format!("tables[{t_idx}].name must be a string"),
                    )
                })?
                .to_string(),
        };
        let cols_v = t.get("columns").and_then(Json::as_arr).ok_or_else(|| {
            bad(
                "invalid_table",
                format!("tables[{t_idx}].columns must be an array"),
            )
        })?;
        if cols_v.is_empty() || cols_v.len() > MAX_COLUMNS {
            return Err(bad(
                "invalid_table",
                format!(
                    "tables[{t_idx}] must have 1..={MAX_COLUMNS} columns, got {}",
                    cols_v.len()
                ),
            ));
        }
        let mut columns: Vec<Column> = Vec::with_capacity(cols_v.len());
        let mut rows: Option<usize> = None;
        for (c_idx, c) in cols_v.iter().enumerate() {
            let cname = match c.get("name") {
                None | Some(Json::Null) => format!("c{c_idx}"),
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| {
                        bad(
                            "invalid_table",
                            format!("tables[{t_idx}].columns[{c_idx}].name must be a string"),
                        )
                    })?
                    .to_string(),
            };
            let vals_v = c.get("values").and_then(Json::as_arr).ok_or_else(|| {
                bad(
                    "invalid_table",
                    format!("tables[{t_idx}].columns[{c_idx}].values must be an array"),
                )
            })?;
            if vals_v.is_empty() || vals_v.len() > MAX_ROWS {
                return Err(bad(
                    "invalid_table",
                    format!(
                        "tables[{t_idx}].columns[{c_idx}] must have 1..={MAX_ROWS} rows, got {}",
                        vals_v.len()
                    ),
                ));
            }
            match rows {
                None => rows = Some(vals_v.len()),
                Some(n) if n != vals_v.len() => {
                    return Err(bad(
                        "ragged_table",
                        format!(
                            "tables[{t_idx}] is ragged: column {c_idx} has {} rows, expected {n}",
                            vals_v.len()
                        ),
                    ))
                }
                Some(_) => {}
            }
            let mut values = Vec::with_capacity(vals_v.len());
            for (r, v) in vals_v.iter().enumerate() {
                values.push(v.as_f64().ok_or_else(|| {
                    bad(
                        "invalid_table",
                        format!("tables[{t_idx}].columns[{c_idx}].values[{r}] is not a number"),
                    )
                })?);
            }
            columns.push(Column::new(cname, values));
        }
        tables.push(Table::new(id, name, columns));
    }
    Ok(tables)
}

/// Validates one `POST /remove` body into table ids.
pub fn parse_remove(req: &Request) -> Result<Vec<u64>, ApiError> {
    let body = parse_object(&req.body)?;
    let ids_v = body
        .get("ids")
        .ok_or_else(|| bad("missing_ids", "'ids' is required: an array of table ids"))?;
    let arr = ids_v
        .as_arr()
        .ok_or_else(|| bad("invalid_ids", "'ids' must be an array"))?;
    if arr.is_empty() || arr.len() > MAX_REMOVE_IDS {
        return Err(bad(
            "invalid_ids",
            format!("1..={MAX_REMOVE_IDS} ids per remove, got {}", arr.len()),
        ));
    }
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_u64().ok_or_else(|| {
                bad(
                    "invalid_ids",
                    format!("ids[{i}] must be a non-negative integer"),
                )
            })
        })
        .collect()
}

/// Renders a [`SearchResponse`] plus its coalescing provenance as the
/// `/search` response body.
pub fn search_body(
    resp: &SearchResponse,
    batch_id: u64,
    batch_size: usize,
    batch_unique: usize,
) -> String {
    let hits: Vec<String> = resp
        .hits
        .iter()
        .map(|h| {
            format!(
                "{{\"index\":{},\"table_id\":{},\"table_name\":{},\"score\":{}}}",
                h.index,
                h.table_id,
                quote(&h.table_name),
                json::num(f64::from(h.score))
            )
        })
        .collect();
    let t = &resp.timings;
    format!(
        concat!(
            "{{\"epoch\":{},\"strategy\":{},\"cached\":{},",
            "\"hits\":[{}],",
            "\"counts\":{{\"total\":{},\"after_interval\":{},\"after_lsh\":{},",
            "\"quant_scanned\":{},\"reranked\":{},\"scored\":{}}},",
            "\"timings_us\":{{\"extract\":{},\"encode\":{},\"prune\":{},\"score\":{},\"total\":{}}},",
            "\"batch\":{{\"id\":{},\"size\":{},\"unique\":{}}}}}"
        ),
        resp.epoch,
        quote(strategy_name(resp.strategy)),
        resp.cached,
        hits.join(","),
        resp.counts.total,
        opt_usize(resp.counts.after_interval),
        opt_usize(resp.counts.after_lsh),
        opt_usize(resp.counts.quant_scanned),
        opt_usize(resp.counts.reranked),
        resp.counts.scored,
        micros(t.extract_s),
        micros(t.encode_s),
        micros(t.prune_s),
        micros(t.score_s),
        micros(t.total_s),
        batch_id,
        batch_size,
        batch_unique,
    )
}

/// The `/insert` response body: the read-your-writes epoch token plus
/// corpus positions assigned to the new tables.
pub fn insert_body(epoch: u64, positions: &[usize]) -> String {
    let pos: Vec<String> = positions.iter().map(usize::to_string).collect();
    format!(
        "{{\"epoch\":{epoch},\"inserted\":{},\"positions\":[{}]}}",
        positions.len(),
        pos.join(",")
    )
}

/// The `/remove` response body.
pub fn remove_body(epoch: u64, removed: usize) -> String {
    format!("{{\"epoch\":{epoch},\"removed\":{removed}}}")
}

/// Wire name of a strategy (the same tokens `parse_search` accepts).
pub fn strategy_name(s: IndexStrategy) -> &'static str {
    match s {
        IndexStrategy::Hybrid => "hybrid",
        IndexStrategy::IntervalOnly => "interval",
        IndexStrategy::LshOnly => "lsh",
        IndexStrategy::NoIndex => "none",
    }
}

fn micros(seconds: f64) -> u64 {
    if seconds.is_finite() && seconds > 0.0 {
        (seconds * 1e6) as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: "/search".into(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn code(e: ApiError) -> &'static str {
        assert_eq!(e.status, 400);
        e.code
    }

    #[test]
    fn accepts_a_full_search_request() {
        let r = req(
            r#"{"series":[[1.0,2.0,3.0]],"k":5,"strategy":"lsh","min_score":0.2,"deadline_ms":250,"min_epoch":7}"#,
        );
        let s = parse_search(&r, 2000, 30000).unwrap();
        assert_eq!(s.opts.k, 5);
        assert_eq!(s.opts.strategy, IndexStrategy::LshOnly);
        assert_eq!(s.opts.min_score, Some(0.2));
        assert_eq!(s.deadline_ms, 250);
        assert_eq!(s.consistency, ReadConsistency::AtLeastEpoch(7));
    }

    #[test]
    fn headers_override_body() {
        let mut r = req(r#"{"series":[[1.0,2.0]],"deadline_ms":250}"#);
        r.headers.push(("x-lcdd-deadline-ms".into(), "99".into()));
        r.headers.push(("x-lcdd-max-lag".into(), "3".into()));
        let s = parse_search(&r, 2000, 30000).unwrap();
        assert_eq!(s.deadline_ms, 99);
        assert_eq!(s.consistency, ReadConsistency::BoundedLag(3));
    }

    #[test]
    fn rejects_adversarial_searches_with_typed_codes() {
        let max = (2000, 30000);
        assert_eq!(
            code(parse_search(&req("not json"), max.0, max.1).unwrap_err()),
            "invalid_json"
        );
        assert_eq!(
            code(parse_search(&req("[1,2]"), max.0, max.1).unwrap_err()),
            "invalid_json"
        );
        assert_eq!(
            code(parse_search(&req("{}"), max.0, max.1).unwrap_err()),
            "missing_series"
        );
        assert_eq!(
            code(parse_search(&req(r#"{"series":[]}"#), max.0, max.1).unwrap_err()),
            "invalid_series"
        );
        assert_eq!(
            code(parse_search(&req(r#"{"series":[[1.0]]}"#), max.0, max.1).unwrap_err()),
            "invalid_series",
        );
        assert_eq!(
            code(parse_search(&req(r#"{"series":[[1,2]],"k":0}"#), max.0, max.1).unwrap_err()),
            "invalid_k"
        );
        assert_eq!(
            code(parse_search(&req(r#"{"series":[[1,2]],"k":2.5}"#), max.0, max.1).unwrap_err()),
            "invalid_k"
        );
        assert_eq!(
            code(
                parse_search(
                    &req(r#"{"series":[[1,2]],"strategy":"warp"}"#),
                    max.0,
                    max.1
                )
                .unwrap_err()
            ),
            "invalid_strategy"
        );
        assert_eq!(
            code(
                parse_search(
                    &req(r#"{"series":[[1,2]],"min_epoch":1,"max_lag":1}"#),
                    max.0,
                    max.1
                )
                .unwrap_err()
            ),
            "conflicting_consistency"
        );
        // 1e999 dies in the JSON parser, as invalid_json — it can never
        // reach the series.
        assert_eq!(
            code(parse_search(&req(r#"{"series":[[1,1e999]]}"#), max.0, max.1).unwrap_err()),
            "invalid_json"
        );
    }

    #[test]
    fn every_strategy_round_trips_through_its_wire_name() {
        for s in IndexStrategy::ALL {
            let body = format!(r#"{{"series":[[1,2]],"strategy":"{}"}}"#, strategy_name(s));
            let parsed = parse_search(&req(&body), 2000, 30000).unwrap();
            assert_eq!(parsed.opts.strategy, s, "wire name {}", strategy_name(s));
        }
    }

    #[test]
    fn the_retired_ivf_token_is_an_unknown_strategy() {
        let e =
            parse_search(&req(r#"{"series":[[1,2]],"strategy":"ivf"}"#), 2000, 30000).unwrap_err();
        assert_eq!((e.status, e.code), (400, "invalid_strategy"));
        assert!(
            e.message.ends_with("expected hybrid|interval|lsh|none"),
            "message: {}",
            e.message
        );
    }

    #[test]
    fn deadline_is_clamped_to_the_server_maximum() {
        let s = parse_search(
            &req(r#"{"series":[[1.0,2.0]],"deadline_ms":999999}"#),
            2000,
            30000,
        )
        .unwrap();
        assert_eq!(s.deadline_ms, 30000);
    }

    #[test]
    fn insert_validates_shape_and_refuses_ragged() {
        let ok = req(
            r#"{"tables":[{"id":7,"name":"t","columns":[{"name":"a","values":[1,2]},{"values":[3,4]}]}]}"#,
        );
        let tables = parse_insert(&ok).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].id, 7);
        assert_eq!(tables[0].num_cols(), 2);
        assert_eq!(tables[0].columns[1].name, "c1");

        let ragged = req(r#"{"tables":[{"id":1,"columns":[{"values":[1,2]},{"values":[3]}]}]}"#);
        assert_eq!(code(parse_insert(&ragged).unwrap_err()), "ragged_table");

        let no_cols = req(r#"{"tables":[{"id":1,"columns":[]}]}"#);
        assert_eq!(code(parse_insert(&no_cols).unwrap_err()), "invalid_table");
    }

    #[test]
    fn remove_validates_ids() {
        let ids = parse_remove(&req(r#"{"ids":[1,2,3]}"#)).unwrap();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(
            code(parse_remove(&req(r#"{"ids":[]}"#)).unwrap_err()),
            "invalid_ids"
        );
        assert_eq!(
            code(parse_remove(&req(r#"{"ids":[-1]}"#)).unwrap_err()),
            "invalid_ids"
        );
    }
}
