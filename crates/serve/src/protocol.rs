//! The newline-delimited JSON request/response protocol.
//!
//! One request per line in, one response per line out, in request order.
//! Every request is an object with an `"op"` field and op-specific
//! payload; an optional `"id"` field (any JSON value) is echoed verbatim
//! on the response so pipelined clients can correlate. See the crate
//! docs for the full wire reference.
//!
//! # Versioned envelope
//!
//! An optional `"v"` field selects the protocol version. A frame with no
//! `"v"` key is a **v1** frame and is answered byte-for-byte exactly as
//! before versioning existed — same fields, same error texts. `"v": 2`
//! unlocks the v2 operations (`extend`, `swap`, `metrics`) and stamps
//! `"v": 2` onto every response, success or error. Any other `"v"` is a
//! typed `protocol` error. Version gating happens at *op registration*:
//! each entry in the [op table](self) declares the first version that
//! accepts it, so a v1 client sending `extend` gets the v1 unknown-op
//! error, listing only the ops v1 knows about.
//!
//! # Trace field
//!
//! Any frame may carry an optional `"trace"` object —
//! `{"trace_id":"<16 hex>","span_id":"<16 hex>"}` — identifying the
//! distributed trace the request belongs to (supplied by the client so
//! the daemon's spans join its own trace, see [`fis_obs`]). The field
//! decorates observability only:
//! it never changes the answer, is never echoed on responses, and a
//! malformed trace object is ignored rather than failing the request.
//!
//! Requests:
//!
//! ```json
//! {"op": "assign",       "building": "hq", "scan": {"id": 7, "readings": [["aa:..", -61.5]]}}
//! {"op": "assign_batch", "building": "hq", "scans": [{...}, {...}]}
//! {"op": "load",         "building": "hq"}
//! {"op": "evict",        "building": "hq"}
//! {"op": "stats"}
//! {"op": "shutdown"}
//! {"v": 2, "op": "extend", "building": "hq", "scans": [{...}, {...}]}
//! {"v": 2, "op": "swap",   "building": "hq"}
//! {"v": 2, "op": "metrics"}
//! ```
//!
//! Responses always carry `"ok"` (and echo `"op"`/`"id"` when they were
//! readable): `{"ok":true,"op":"assign","floor":3,...}` on success,
//! `{"ok":false,"op":...,"error":{"kind":"...","message":"..."}}` on
//! failure. Malformed frames produce a `protocol` error response — never
//! a dropped connection, never a crash.

use fis_obs::TraceContext;
use fis_types::json::{FromJson, Json};
use fis_types::SignalSample;

use crate::error::ServeError;

/// The newest protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;

/// A decoded request operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Label one scan against one building's model.
    Assign {
        /// Registry key of the model to serve from.
        building: String,
        /// The scan to label.
        scan: SignalSample,
    },
    /// Label a batch of scans against one building's model, fanned out
    /// over the thread budget; per-scan results in input order.
    AssignBatch {
        /// Registry key of the model to serve from.
        building: String,
        /// The scans to label, order preserved in the response.
        scans: Vec<SignalSample>,
    },
    /// Eagerly load a building's artifact (a hit if it is resident; a
    /// resident model is never reread, so only `swap` reloads).
    Load {
        /// Registry key to load.
        building: String,
    },
    /// Drop a building's model from the cache (metrics survive).
    Evict {
        /// Registry key to evict.
        building: String,
    },
    /// Grow a building's model with new reference scans and atomically
    /// publish the extended artifact (v2).
    Extend {
        /// Registry key of the model to extend.
        building: String,
        /// The reference scans to append (self-labeled by the model).
        scans: Vec<SignalSample>,
    },
    /// Put the artifact now on disk live: read it and replace the
    /// resident model (and its answer cache) (v2). The only way a
    /// rewritten artifact reaches a resident building.
    Swap {
        /// Registry key to swap.
        building: String,
    },
    /// Report global + per-model serving metrics.
    Stats,
    /// Export metrics in Prometheus text format (v2).
    Metrics,
    /// Stop the daemon after responding.
    Shutdown,
}

impl Request {
    /// The wire name of this operation.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Assign { .. } => "assign",
            Request::AssignBatch { .. } => "assign_batch",
            Request::Load { .. } => "load",
            Request::Evict { .. } => "evict",
            Request::Extend { .. } => "extend",
            Request::Swap { .. } => "swap",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A decoded request frame: the operation plus the correlation id,
/// negotiated protocol version, and op string to echo.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The client's correlation id, echoed verbatim when present.
    pub id: Option<Json>,
    /// The protocol version this frame negotiated (1 when no `"v"` key).
    pub version: u8,
    /// The distributed-trace context from the optional `"trace"` field.
    /// Observability-only: never echoed, never affects the answer.
    pub trace: Option<TraceContext>,
    /// The decoded operation.
    pub request: Request,
}

/// What could be salvaged from an unparseable or invalid frame, so the
/// error response still echoes `id`/`op` when they were readable.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    /// Correlation id, if the frame parsed far enough to read one.
    pub id: Option<Json>,
    /// The `op` string, if the frame parsed far enough to read one.
    pub op: Option<String>,
    /// The version to answer with (1 when the frame never negotiated
    /// one, so error responses to v1 frames stay byte-identical).
    pub version: u8,
    /// The protocol error to report.
    pub error: ServeError,
}

/// One wire operation: its name, the first protocol version that
/// accepts it, and its payload parser.
///
/// The table ([`OPS`]) is the single registration point for query and
/// mutation ops alike: [`parse_frame`] dispatches through it, and the
/// unknown-op error text enumerates exactly the names the negotiated
/// version admits — so adding an op is one table row, not a scattered
/// match-arm edit.
struct OpSpec {
    name: &'static str,
    min_version: u8,
    parse: fn(&Json) -> Result<Request, ServeError>,
}

/// Declarative op registry, in wire-documentation order. v1 ops first so
/// the v1 unknown-op message renders its historical text verbatim.
const OPS: &[OpSpec] = &[
    OpSpec {
        name: "assign",
        min_version: 1,
        parse: parse_assign,
    },
    OpSpec {
        name: "assign_batch",
        min_version: 1,
        parse: parse_assign_batch,
    },
    OpSpec {
        name: "load",
        min_version: 1,
        parse: parse_load,
    },
    OpSpec {
        name: "evict",
        min_version: 1,
        parse: parse_evict,
    },
    OpSpec {
        name: "stats",
        min_version: 1,
        parse: |_| Ok(Request::Stats),
    },
    OpSpec {
        name: "shutdown",
        min_version: 1,
        parse: |_| Ok(Request::Shutdown),
    },
    OpSpec {
        name: "extend",
        min_version: 2,
        parse: parse_extend,
    },
    OpSpec {
        name: "swap",
        min_version: 2,
        parse: parse_swap,
    },
    OpSpec {
        name: "metrics",
        min_version: 2,
        parse: |_| Ok(Request::Metrics),
    },
];

/// The op names a protocol version admits, rendered as an English list
/// (`a, b, or c`) for the unknown-op error.
fn expected_ops(version: u8) -> String {
    let names: Vec<&str> = OPS
        .iter()
        .filter(|spec| spec.min_version <= version)
        .map(|spec| spec.name)
        .collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{}, or {last}", rest.join(", ")),
        Some((last, _)) => (*last).to_string(),
        None => String::new(),
    }
}

fn building_of(json: &Json) -> Result<String, ServeError> {
    let building = json
        .get("building")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::Protocol("request needs a string `building` field".into()))?;
    if building.is_empty() {
        return Err(ServeError::Protocol("`building` must be non-empty".into()));
    }
    Ok(building.to_owned())
}

fn scan_of(value: &Json) -> Result<SignalSample, ServeError> {
    SignalSample::from_json(value).map_err(|e| ServeError::Protocol(format!("bad scan: {e}")))
}

fn scans_of(json: &Json, op: &str) -> Result<Vec<SignalSample>, ServeError> {
    json.get("scans")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::Protocol(format!("{op} needs a `scans` array")))
        .and_then(|arr| arr.iter().map(scan_of).collect())
}

fn parse_assign(json: &Json) -> Result<Request, ServeError> {
    Ok(Request::Assign {
        building: building_of(json)?,
        scan: json
            .get("scan")
            .ok_or_else(|| ServeError::Protocol("assign needs a `scan` object".into()))
            .and_then(scan_of)?,
    })
}

fn parse_assign_batch(json: &Json) -> Result<Request, ServeError> {
    Ok(Request::AssignBatch {
        building: building_of(json)?,
        scans: scans_of(json, "assign_batch")?,
    })
}

fn parse_load(json: &Json) -> Result<Request, ServeError> {
    Ok(Request::Load {
        building: building_of(json)?,
    })
}

fn parse_evict(json: &Json) -> Result<Request, ServeError> {
    Ok(Request::Evict {
        building: building_of(json)?,
    })
}

fn parse_extend(json: &Json) -> Result<Request, ServeError> {
    Ok(Request::Extend {
        building: building_of(json)?,
        scans: scans_of(json, "extend")?,
    })
}

fn parse_swap(json: &Json) -> Result<Request, ServeError> {
    Ok(Request::Swap {
        building: building_of(json)?,
    })
}

/// Reads the envelope version: no `"v"` key is v1, `"v": 1` / `"v": 2`
/// select explicitly, anything else is a typed protocol error.
fn version_of(json: &Json) -> Result<u8, ServeError> {
    match json.get("v") {
        None => Ok(1),
        Some(v) => match v.as_usize() {
            Some(1) => Ok(1),
            Some(2) => Ok(2),
            _ => Err(ServeError::Protocol(format!(
                "unsupported protocol version {v} (this daemon speaks 1 and {PROTOCOL_VERSION})"
            ))),
        },
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`FrameError`] carrying whatever correlation info was
/// readable plus the typed protocol error.
pub fn parse_frame(line: &str) -> Result<Frame, Box<FrameError>> {
    let json = Json::parse(line).map_err(|e| {
        Box::new(FrameError {
            id: None,
            op: None,
            version: 1,
            error: ServeError::Protocol(format!("malformed frame: {e}")),
        })
    })?;
    let id = json.get("id").cloned();
    let version = match version_of(&json) {
        Ok(version) => version,
        Err(error) => {
            return Err(Box::new(FrameError {
                id,
                op: json.get("op").and_then(Json::as_str).map(str::to_owned),
                version: 1,
                error,
            }))
        }
    };
    let fail = |op: Option<String>, error: ServeError| {
        Box::new(FrameError {
            id: id.clone(),
            op,
            version,
            error,
        })
    };
    let Some(op) = json.get("op").and_then(Json::as_str).map(str::to_owned) else {
        return Err(fail(
            None,
            ServeError::Protocol("request needs a string `op` field".into()),
        ));
    };
    let Some(spec) = OPS
        .iter()
        .find(|spec| spec.name == op && spec.min_version <= version)
    else {
        return Err(fail(
            Some(op.clone()),
            ServeError::Protocol(format!(
                "unknown op `{op}` (expected {})",
                expected_ops(version)
            )),
        ));
    };
    let request = (spec.parse)(&json).map_err(|e| fail(Some(op.clone()), e))?;
    // Observability decoration only: a malformed trace object must never
    // fail a request, so `from_json` degrading to `None` is the contract.
    let trace = json.get("trace").and_then(TraceContext::from_json);
    Ok(Frame {
        id,
        version,
        trace,
        request,
    })
}

/// One per-scan slot in an `assign_batch` response: the echoed scan id
/// plus its floor or typed per-scan error.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRow {
    /// The scan's id, echoed so clients can correlate out-of-band.
    pub scan_id: usize,
    /// The assigned floor index, or why this scan failed.
    pub result: Result<usize, ServeError>,
}

/// A typed success response. [`Response::to_json`] is the single
/// rendering point for every op's wire shape, so the v1 byte layout and
/// the v2 `"v"` stamp cannot drift between dispatch sites.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One labeled scan.
    Assign {
        /// The building served from.
        building: String,
        /// The scan's id, echoed.
        scan_id: usize,
        /// The assigned floor index.
        floor: usize,
    },
    /// A labeled batch, per-scan results in input order.
    AssignBatch {
        /// The building served from.
        building: String,
        /// Per-scan results in input order.
        rows: Vec<BatchRow>,
    },
    /// An artifact load (or cache hit).
    Load {
        /// The building loaded.
        building: String,
        /// Floors in the model.
        floors: usize,
        /// Reference scans in the model, base plus extension.
        scans: usize,
        /// `"hit"` or `"miss"`.
        fetch: &'static str,
    },
    /// A cache eviction.
    Evict {
        /// The building evicted.
        building: String,
        /// Whether a cached model was actually dropped.
        evicted: bool,
    },
    /// A model extension (v2): the [`fis_core::ExtensionReport`] fields
    /// plus the building, after the extended artifact was published.
    Extend {
        /// The building extended.
        building: String,
        /// Reference scans appended.
        appended: usize,
        /// Scans skipped (no overlap with the base vocabulary).
        skipped: usize,
        /// MACs added to the serving vocabulary.
        new_macs: usize,
        /// Reference scans in the model after extension.
        total_scans: usize,
        /// MACs in the model after extension.
        total_macs: usize,
    },
    /// A hot swap (v2): the freshly loaded artifact's shape.
    Swap {
        /// The building swapped.
        building: String,
        /// Floors in the now-live model.
        floors: usize,
        /// Reference scans in the now-live model (including extension).
        scans: usize,
        /// Whether a resident generation was replaced.
        evicted: bool,
    },
    /// The metrics payload.
    Stats {
        /// The rendered metrics object.
        stats: Json,
    },
    /// The Prometheus text-format exposition (v2).
    Metrics {
        /// The exposition body (`# TYPE` lines etc.), as one string.
        metrics: String,
    },
    /// Acknowledges shutdown.
    Shutdown,
}

impl Response {
    /// The wire name of the op this response answers.
    pub fn op(&self) -> &'static str {
        match self {
            Response::Assign { .. } => "assign",
            Response::AssignBatch { .. } => "assign_batch",
            Response::Load { .. } => "load",
            Response::Evict { .. } => "evict",
            Response::Extend { .. } => "extend",
            Response::Swap { .. } => "swap",
            Response::Stats { .. } => "stats",
            Response::Metrics { .. } => "metrics",
            Response::Shutdown => "shutdown",
        }
    }

    /// Renders the wire form for the negotiated protocol version.
    pub fn to_json(&self, version: u8, id: Option<&Json>) -> Json {
        let num = |n: usize| Json::Num(n as f64);
        let fields: Vec<(&'static str, Json)> = match self {
            Response::Assign {
                building,
                scan_id,
                floor,
            } => vec![
                ("building", Json::Str(building.clone())),
                ("scan_id", num(*scan_id)),
                ("floor", num(*floor)),
            ],
            Response::AssignBatch { building, rows } => {
                let failures = rows.iter().filter(|row| row.result.is_err()).count();
                let rendered: Vec<Json> = rows
                    .iter()
                    .map(|row| {
                        let scan_id = ("scan_id", num(row.scan_id));
                        match &row.result {
                            Ok(floor) => Json::obj([scan_id, ("floor", num(*floor))]),
                            Err(e) => Json::obj([scan_id, ("error", e.to_json())]),
                        }
                    })
                    .collect();
                vec![
                    ("building", Json::Str(building.clone())),
                    ("count", num(rendered.len())),
                    ("failures", num(failures)),
                    ("results", Json::Arr(rendered)),
                ]
            }
            Response::Load {
                building,
                floors,
                scans,
                fetch,
            } => vec![
                ("building", Json::Str(building.clone())),
                ("floors", num(*floors)),
                ("scans", num(*scans)),
                ("fetch", Json::Str((*fetch).to_owned())),
            ],
            Response::Evict { building, evicted } => vec![
                ("building", Json::Str(building.clone())),
                ("evicted", Json::Bool(*evicted)),
            ],
            Response::Extend {
                building,
                appended,
                skipped,
                new_macs,
                total_scans,
                total_macs,
            } => vec![
                ("building", Json::Str(building.clone())),
                ("appended", num(*appended)),
                ("skipped", num(*skipped)),
                ("new_macs", num(*new_macs)),
                ("total_scans", num(*total_scans)),
                ("total_macs", num(*total_macs)),
            ],
            Response::Swap {
                building,
                floors,
                scans,
                evicted,
            } => vec![
                ("building", Json::Str(building.clone())),
                ("floors", num(*floors)),
                ("scans", num(*scans)),
                ("evicted", Json::Bool(*evicted)),
            ],
            Response::Stats { stats } => vec![("stats", stats.clone())],
            Response::Metrics { metrics } => vec![("metrics", Json::Str(metrics.clone()))],
            Response::Shutdown => vec![],
        };
        ok_response(version, self.op(), id, fields)
    }
}

/// Stamps `"v": 2` onto a v2 response object; v1 responses carry no
/// version key, preserving the pre-envelope byte layout.
fn stamp_version(obj: &mut std::collections::BTreeMap<String, Json>, version: u8) {
    if version >= 2 {
        obj.insert("v".to_owned(), Json::Num(f64::from(version)));
    }
}

/// Builds a success response: `{"ok":true,"op":...}` plus `fields`,
/// echoing `id` when present and stamping `"v"` on v2+ frames. Keys are
/// sorted by the JSON writer, so the wire form is deterministic.
pub fn ok_response(
    version: u8,
    op: &str,
    id: Option<&Json>,
    fields: impl IntoIterator<Item = (&'static str, Json)>,
) -> Json {
    let mut obj = match Json::obj(fields) {
        Json::Obj(m) => m,
        _ => unreachable!("Json::obj returns Obj"),
    };
    obj.insert("ok".to_owned(), Json::Bool(true));
    obj.insert("op".to_owned(), Json::Str(op.to_owned()));
    if let Some(id) = id {
        obj.insert("id".to_owned(), id.clone());
    }
    stamp_version(&mut obj, version);
    Json::Obj(obj)
}

/// Builds an error response: `{"ok":false,"error":{...}}`, echoing
/// `op`/`id` when they were readable and stamping `"v"` on v2+ frames.
pub fn error_response(
    version: u8,
    op: Option<&str>,
    id: Option<&Json>,
    error: &ServeError,
) -> Json {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("ok".to_owned(), Json::Bool(false));
    obj.insert("error".to_owned(), error.to_json());
    if let Some(op) = op {
        obj.insert("op".to_owned(), Json::Str(op.to_owned()));
    }
    if let Some(id) = id {
        obj.insert("id".to_owned(), id.clone());
    }
    stamp_version(&mut obj, version);
    Json::Obj(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let assign = parse_frame(
            r#"{"op":"assign","building":"hq","scan":{"id":1,"readings":[["00:00:00:00:00:01",-60.0]]}}"#,
        )
        .unwrap();
        assert!(matches!(assign.request, Request::Assign { .. }));
        assert_eq!(assign.request.op(), "assign");
        assert_eq!(assign.version, 1);

        let batch = parse_frame(
            r#"{"id":9,"op":"assign_batch","building":"hq","scans":[{"id":1,"readings":[]}]}"#,
        )
        .unwrap();
        assert_eq!(batch.id, Some(Json::Num(9.0)));
        assert!(matches!(
            batch.request,
            Request::AssignBatch { ref scans, .. } if scans.len() == 1
        ));

        for (line, op) in [
            (r#"{"op":"load","building":"b"}"#, "load"),
            (r#"{"op":"evict","building":"b"}"#, "evict"),
            (r#"{"op":"stats"}"#, "stats"),
            (r#"{"op":"shutdown"}"#, "shutdown"),
            (
                r#"{"v":2,"op":"extend","building":"b","scans":[]}"#,
                "extend",
            ),
            (r#"{"v":2,"op":"swap","building":"b"}"#, "swap"),
            (r#"{"v":2,"op":"metrics"}"#, "metrics"),
        ] {
            assert_eq!(parse_frame(line).unwrap().request.op(), op);
        }
    }

    #[test]
    fn malformed_json_is_protocol_error_without_id() {
        let err = parse_frame(r#"{"op": "assign", "build"#).unwrap_err();
        assert_eq!(err.error.kind(), "protocol");
        assert_eq!(err.id, None);
        assert_eq!(err.op, None);
        assert_eq!(err.version, 1);
    }

    #[test]
    fn bad_shape_still_echoes_id_and_op() {
        let err = parse_frame(r#"{"id":"req-3","op":"assign","building":"hq"}"#).unwrap_err();
        assert_eq!(err.error.kind(), "protocol");
        assert_eq!(err.id, Some(Json::Str("req-3".into())));
        assert_eq!(err.op.as_deref(), Some("assign"));
        assert!(err.error.message().contains("scan"));
    }

    #[test]
    fn unknown_op_is_typed() {
        let err = parse_frame(r#"{"op":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.error.kind(), "protocol");
        assert!(err.error.message().contains("frobnicate"));
    }

    #[test]
    fn v1_unknown_op_text_is_frozen() {
        // The exact pre-envelope message: v1 clients must see an
        // unchanged wire, including this string.
        let err = parse_frame(r#"{"op":"frobnicate"}"#).unwrap_err();
        assert_eq!(
            err.error.message(),
            "unknown op `frobnicate` (expected assign, assign_batch, load, evict, \
             stats, or shutdown)"
        );
    }

    #[test]
    fn v2_ops_are_invisible_to_v1_frames() {
        for op in ["extend", "swap", "metrics"] {
            let err = parse_frame(&format!(r#"{{"op":"{op}","building":"b"}}"#)).unwrap_err();
            assert_eq!(err.error.kind(), "protocol");
            assert!(
                err.error.message().contains(&format!("unknown op `{op}`")),
                "v1 must treat `{op}` as unknown: {}",
                err.error.message()
            );
            assert!(
                !err.error.message().contains("swap,"),
                "v1 error text must not advertise v2 ops"
            );
        }
    }

    #[test]
    fn v2_unknown_op_lists_v2_ops() {
        let err = parse_frame(r#"{"v":2,"op":"frobnicate"}"#).unwrap_err();
        assert_eq!(
            err.error.message(),
            "unknown op `frobnicate` (expected assign, assign_batch, load, evict, \
             stats, shutdown, extend, swap, or metrics)"
        );
    }

    #[test]
    fn trace_field_parses_and_malformed_trace_is_ignored() {
        let framed = parse_frame(
            r#"{"op":"stats","trace":{"trace_id":"0123456789abcdef","span_id":"fedcba9876543210"}}"#,
        )
        .unwrap();
        assert_eq!(
            framed.trace,
            Some(TraceContext {
                trace_id: 0x0123_4567_89ab_cdef,
                span_id: 0xfedc_ba98_7654_3210,
            })
        );
        // v1 frames carry it too (decoration, not an op), and garbage
        // degrades to None without failing the frame.
        assert_eq!(framed.version, 1);
        for line in [
            r#"{"op":"stats","trace":{"trace_id":"zz","span_id":"00"}}"#,
            r#"{"op":"stats","trace":"not an object"}"#,
            r#"{"op":"stats"}"#,
        ] {
            let framed = parse_frame(line).unwrap();
            assert_eq!(framed.trace, None, "{line}");
            assert_eq!(framed.request, Request::Stats);
        }
    }

    #[test]
    fn unsupported_version_is_typed_and_echoes_correlation() {
        for line in [
            r#"{"v":3,"op":"stats","id":7}"#,
            r#"{"v":0,"op":"stats","id":7}"#,
            r#"{"v":"two","op":"stats","id":7}"#,
        ] {
            let err = parse_frame(line).unwrap_err();
            assert_eq!(err.error.kind(), "protocol", "line {line}");
            assert!(err.error.message().contains("version"));
            assert_eq!(err.id, Some(Json::Num(7.0)));
            assert_eq!(err.op.as_deref(), Some("stats"));
        }
    }

    #[test]
    fn explicit_v1_and_v2_both_parse_v1_ops() {
        let v1 = parse_frame(r#"{"v":1,"op":"stats"}"#).unwrap();
        assert_eq!(v1.version, 1);
        let v2 = parse_frame(r#"{"v":2,"op":"stats"}"#).unwrap();
        assert_eq!(v2.version, 2);
    }

    #[test]
    fn missing_building_is_typed() {
        let err = parse_frame(r#"{"op":"load"}"#).unwrap_err();
        assert_eq!(err.error.kind(), "protocol");
        assert!(err.error.message().contains("building"));
    }

    #[test]
    fn responses_are_deterministic_lines() {
        let ok = ok_response(
            1,
            "load",
            Some(&Json::Num(1.0)),
            [("floors", Json::Num(3.0))],
        );
        assert_eq!(
            ok.to_string(),
            r#"{"floors":3,"id":1,"ok":true,"op":"load"}"#
        );
        let err = error_response(
            1,
            Some("assign"),
            None,
            &ServeError::UnknownBuilding("no artifact for `x`".into()),
        );
        assert_eq!(
            err.to_string(),
            r#"{"error":{"kind":"unknown_building","message":"no artifact for `x`"},"ok":false,"op":"assign"}"#
        );
    }

    #[test]
    fn v2_responses_carry_the_version_stamp() {
        let ok = Response::Swap {
            building: "hq".into(),
            floors: 3,
            scans: 120,
            evicted: true,
        }
        .to_json(2, Some(&Json::Num(4.0)));
        assert_eq!(
            ok.to_string(),
            r#"{"building":"hq","evicted":true,"floors":3,"id":4,"ok":true,"op":"swap","scans":120,"v":2}"#
        );
        let err = error_response(2, Some("extend"), None, &ServeError::Model("x".into()));
        assert_eq!(err.get("v"), Some(&Json::Num(2.0)));
    }

    #[test]
    fn typed_responses_render_v1_shapes_bit_identically() {
        // The typed enum must reproduce the exact ad-hoc v1 wire forms.
        let assign = Response::Assign {
            building: "hq".into(),
            scan_id: 7,
            floor: 2,
        }
        .to_json(1, None);
        assert_eq!(
            assign.to_string(),
            r#"{"building":"hq","floor":2,"ok":true,"op":"assign","scan_id":7}"#
        );
        let batch = Response::AssignBatch {
            building: "hq".into(),
            rows: vec![
                BatchRow {
                    scan_id: 1,
                    result: Ok(0),
                },
                BatchRow {
                    scan_id: 2,
                    result: Err(ServeError::Inference("no known MAC".into())),
                },
            ],
        }
        .to_json(1, None);
        assert_eq!(
            batch.to_string(),
            r#"{"building":"hq","count":2,"failures":1,"ok":true,"op":"assign_batch","results":[{"floor":0,"scan_id":1},{"error":{"kind":"inference","message":"no known MAC"},"scan_id":2}]}"#
        );
    }
}
