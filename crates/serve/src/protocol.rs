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
//!
//! # Decoding
//!
//! [`parse_frame`] reads a line once with the pull reader
//! ([`fis_types::json::Reader`]): `id`, `v`, `op`, `building` and
//! `trace` as small [`Json`] values, and each scan straight into a
//! [`SignalSample`] through [`SignalSample::read`], the one scan
//! decoder. It then checks the frame in a fixed order: a syntax error
//! anywhere in the line, the version, the `op` field, a known op, and
//! last the op's payload (`building` first, then `scan` or `scans`). A
//! later duplicate key replaces an earlier one, and a field the op does
//! not read is never checked beyond its syntax.

use fis_obs::TraceContext;
use fis_types::json::{Json, Kind, Reader};
use fis_types::{SignalSample, TypeError};

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
    /// resident model (v2). The only way a
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
/// accepts it, and its payload parser, which reads the frame's fields.
///
/// The table ([`OPS`]) is the single registration point for query and
/// mutation ops alike: [`parse_frame`] dispatches through it, and the
/// unknown-op error text enumerates exactly the names the negotiated
/// version admits — so adding an op is one table row, not a scattered
/// match-arm edit.
struct OpSpec(&'static str, u8, fn(Fields) -> Result<Request, ServeError>);

/// Declarative op registry, in wire-documentation order. v1 ops first so
/// the v1 unknown-op message renders its historical text verbatim.
const OPS: &[OpSpec] = &[
    OpSpec("assign", 1, |mut f| {
        let (building, scan) = (f.building()?, f.scan()?);
        Ok(Request::Assign { building, scan })
    }),
    OpSpec("assign_batch", 1, |mut f| {
        let (building, scans) = (f.building()?, f.scans("assign_batch")?);
        Ok(Request::AssignBatch { building, scans })
    }),
    OpSpec("load", 1, |mut f| {
        f.building().map(|building| Request::Load { building })
    }),
    OpSpec("evict", 1, |mut f| {
        f.building().map(|building| Request::Evict { building })
    }),
    OpSpec("stats", 1, |_| Ok(Request::Stats)),
    OpSpec("shutdown", 1, |_| Ok(Request::Shutdown)),
    OpSpec("extend", 2, |mut f| {
        let (building, scans) = (f.building()?, f.scans("extend")?);
        Ok(Request::Extend { building, scans })
    }),
    OpSpec("swap", 2, |mut f| {
        f.building().map(|building| Request::Swap { building })
    }),
    OpSpec("metrics", 2, |_| Ok(Request::Metrics)),
];

/// The op names a protocol version admits, rendered as an English list
/// (`a, b, or c`) for the unknown-op error.
fn expected_ops(version: u8) -> String {
    let names: Vec<&str> = OPS
        .iter()
        .filter(|OpSpec(_, min_version, _)| *min_version <= version)
        .map(|OpSpec(name, ..)| *name)
        .collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{}, or {last}", rest.join(", ")),
        Some((last, _)) => (*last).to_string(),
        None => String::new(),
    }
}

/// A frame's fields, read in one pass over the line: the small ones as
/// [`Json`] values, scans straight into [`SignalSample`]s. A scan's shape
/// error waits in its slot, so an op never fails on a field it does not
/// read, and a later duplicate key replaces an earlier one.
#[derive(Default)]
struct Fields {
    id: Option<Json>,
    v: Option<Json>,
    /// `None` when absent or not a string, as for `building`.
    op: Option<String>,
    building: Option<String>,
    trace: Option<Json>,
    scan: Option<Result<SignalSample, TypeError>>,
    /// `Err(None)` when `scans` is not an array.
    scans: Option<Result<Vec<SignalSample>, Option<TypeError>>>,
}

impl Fields {
    /// Reads one frame line. A non-object frame has no fields.
    fn read(line: &str) -> Result<Self, TypeError> {
        let (mut r, mut f) = (Reader::new(line), Fields::default());
        let string = |value| match value {
            Json::Str(s) => Some(s),
            _ => None,
        };
        if r.peek()? == Kind::Obj {
            let mut keys = r.object()?;
            while let Some(key) = r.next_key(&mut keys)? {
                match key.as_ref() {
                    "id" => f.id = Some(r.value()?),
                    "v" => f.v = Some(r.value()?),
                    "op" => f.op = string(r.value()?),
                    "building" => f.building = string(r.value()?),
                    "trace" => f.trace = Some(r.value()?),
                    "scan" => f.scan = Some(r.decode(SignalSample::read)?),
                    "scans" => {
                        let scan = |r: &mut Reader| SignalSample::read(r).map_err(Some);
                        f.scans = Some(r.decode(|r| r.array_of(|| None, scan))?);
                    }
                    _ => r.skip()?,
                }
            }
        } else {
            r.skip()?;
        }
        r.finish()?;
        Ok(f)
    }

    /// The envelope version: no `"v"` key is v1, `"v": 1` / `"v": 2`
    /// select explicitly, anything else is a typed protocol error.
    fn version(&self) -> Result<u8, ServeError> {
        match &self.v {
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

    fn building(&mut self) -> Result<String, ServeError> {
        match self.building.take() {
            Some(building) if !building.is_empty() => Ok(building),
            Some(_) => Err(ServeError::Protocol("`building` must be non-empty".into())),
            None => Err(ServeError::Protocol(
                "request needs a string `building` field".into(),
            )),
        }
    }

    fn scan(self) -> Result<SignalSample, ServeError> {
        self.scan
            .ok_or_else(|| ServeError::Protocol("assign needs a `scan` object".into()))?
            .map_err(bad_scan)
    }

    fn scans(self, op: &str) -> Result<Vec<SignalSample>, ServeError> {
        match self.scans {
            Some(Ok(scans)) => Ok(scans),
            Some(Err(Some(e))) => Err(bad_scan(e)),
            Some(Err(None)) | None => {
                Err(ServeError::Protocol(format!("{op} needs a `scans` array")))
            }
        }
    }
}

fn bad_scan(e: TypeError) -> ServeError {
    ServeError::Protocol(format!("bad scan: {e}"))
}

/// Parses one request line in a single pass, then validates it in a
/// fixed order: syntax, version, `op`, a known op, then the op's
/// payload (`building` first, then `scan` or `scans`).
///
/// # Errors
///
/// Returns a [`FrameError`] carrying whatever correlation info was
/// readable plus the typed protocol error.
pub fn parse_frame(line: &str) -> Result<Frame, Box<FrameError>> {
    let mut fields = Fields::read(line).map_err(|e| {
        Box::new(FrameError {
            id: None,
            op: None,
            version: 1,
            error: ServeError::Protocol(format!("malformed frame: {e}")),
        })
    })?;
    let (id, op) = (fields.id.take(), fields.op.take());
    let fail = |version, error| {
        Box::new(FrameError {
            id: id.clone(),
            op: op.clone(),
            version,
            error,
        })
    };
    let version = fields.version().map_err(|e| fail(1, e))?;
    let Some(name) = op.as_deref() else {
        let error = ServeError::Protocol("request needs a string `op` field".into());
        return Err(fail(version, error));
    };
    let Some(OpSpec(_, _, parse)) = OPS
        .iter()
        .find(|OpSpec(op, min_version, _)| *op == name && *min_version <= version)
    else {
        let expected = expected_ops(version);
        let error = ServeError::Protocol(format!("unknown op `{name}` (expected {expected})"));
        return Err(fail(version, error));
    };
    // Observability decoration only: a malformed trace object must never
    // fail a request, so `from_json` degrading to `None` is the contract.
    let trace = fields.trace.as_ref().and_then(TraceContext::from_json);
    let request = parse(fields).map_err(|e| fail(version, e))?;
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

    /// The tree decoder [`parse_frame`] replaced: it parsed the whole
    /// line into a [`Json`] tree, then walked it. The reference for
    /// what `parse_frame` must return, error texts included.
    fn reference_parse_frame(line: &str) -> Result<Frame, Box<FrameError>> {
        let json = Json::parse(line).map_err(|e| {
            Box::new(FrameError {
                id: None,
                op: None,
                version: 1,
                error: ServeError::Protocol(format!("malformed frame: {e}")),
            })
        })?;
        let id = json.get("id").cloned();
        let version = match reference_version_of(&json) {
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
        if !OPS
            .iter()
            .any(|OpSpec(name, min_version, _)| *name == op && *min_version <= version)
        {
            return Err(fail(
                Some(op.clone()),
                ServeError::Protocol(format!(
                    "unknown op `{op}` (expected {})",
                    expected_ops(version)
                )),
            ));
        }
        let building = || reference_building_of(&json);
        let request = match op.as_str() {
            "assign" => building().and_then(|building| {
                let scan = json
                    .get("scan")
                    .ok_or_else(|| ServeError::Protocol("assign needs a `scan` object".into()))
                    .and_then(reference_scan_of)?;
                Ok(Request::Assign { building, scan })
            }),
            "assign_batch" => building().and_then(|building| {
                let scans = reference_scans_of(&json, "assign_batch")?;
                Ok(Request::AssignBatch { building, scans })
            }),
            "load" => building().map(|building| Request::Load { building }),
            "evict" => building().map(|building| Request::Evict { building }),
            "extend" => building().and_then(|building| {
                let scans = reference_scans_of(&json, "extend")?;
                Ok(Request::Extend { building, scans })
            }),
            "swap" => building().map(|building| Request::Swap { building }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => unreachable!("op table lists {other}"),
        }
        .map_err(|e| fail(Some(op.clone()), e))?;
        let trace = json.get("trace").and_then(TraceContext::from_json);
        Ok(Frame {
            id,
            version,
            trace,
            request,
        })
    }

    fn reference_version_of(json: &Json) -> Result<u8, ServeError> {
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

    fn reference_building_of(json: &Json) -> Result<String, ServeError> {
        let building = json.get("building").and_then(Json::as_str).ok_or_else(|| {
            ServeError::Protocol("request needs a string `building` field".into())
        })?;
        if building.is_empty() {
            return Err(ServeError::Protocol("`building` must be non-empty".into()));
        }
        Ok(building.to_owned())
    }

    fn reference_scans_of(json: &Json, op: &str) -> Result<Vec<SignalSample>, ServeError> {
        json.get("scans")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::Protocol(format!("{op} needs a `scans` array")))
            .and_then(|arr| arr.iter().map(reference_scan_of).collect())
    }

    fn reference_scan_of(value: &Json) -> Result<SignalSample, ServeError> {
        reference_scan(value).map_err(|e| ServeError::Protocol(format!("bad scan: {e}")))
    }

    /// The tree scan decoder (`SignalSample::from_json`) that
    /// `SignalSample::read` replaced.
    fn reference_scan(value: &Json) -> Result<SignalSample, TypeError> {
        let id = value
            .get("id")
            .ok_or_else(|| TypeError::Io("missing field `id`".to_owned()))?;
        let id = id
            .as_usize()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| {
                TypeError::Io(format!(
                    "sample id must be an integer in 0..=4294967295, got {id}"
                ))
            })?;
        let mut scan = SignalSample::builder(id);
        let readings = value
            .get("readings")
            .ok_or_else(|| TypeError::Io("missing field `readings`".to_owned()))?
            .as_arr()
            .ok_or_else(|| TypeError::Io("readings must be an array".to_owned()))?;
        for pair in readings {
            let (mac, rssi) = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .map(|p| (p[0].as_str(), p[1].as_f64()))
                .ok_or_else(|| TypeError::Io("reading must be a [mac, rssi] pair".to_owned()))?;
            let mac = mac
                .ok_or_else(|| TypeError::Io("MAC address must be a JSON string".to_owned()))?
                .parse()?;
            let rssi = fis_types::Rssi::new(
                rssi.ok_or_else(|| TypeError::Io("RSSI must be a JSON number".to_owned()))?,
            )?;
            scan = scan.reading(mac, rssi);
        }
        Ok(scan.build())
    }

    /// `frame` with its top-level keys written in reverse order (the
    /// writer sorts them).
    fn reversed(frame: &Json) -> String {
        let Json::Obj(map) = frame else {
            return frame.to_string();
        };
        let fields: Vec<String> = map
            .iter()
            .rev()
            .map(|(k, v)| format!("{}:{v}", Json::Str(k.clone())))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    fn scan_json(id: f64) -> Json {
        Json::obj([
            ("id", Json::Num(id)),
            (
                "readings",
                Json::Arr(vec![
                    Json::Arr(vec![
                        Json::Str("00:1a:2b:3c:4d:5e".into()),
                        Json::Num(-61.5),
                    ]),
                    Json::Arr(vec![
                        Json::Str("00:1a:2b:3c:4d:5f".into()),
                        Json::Num(-70.0),
                    ]),
                ]),
            ),
        ])
    }

    /// Scans that break each rule of the scan decoder.
    fn bad_scans() -> Vec<Json> {
        [
            r#"{"id":"x","readings":[]}"#,
            r#"{"id":-1,"readings":[]}"#,
            r#"{"id":4294967296,"readings":[]}"#,
            r#"{"readings":[]}"#,
            r#"{"id":1}"#,
            r#"{"id":1,"readings":{}}"#,
            r#"{"id":1,"readings":[["00:00:00:00:00:01"]]}"#,
            r#"{"id":1,"readings":[["00:00:00:00:00:01",-50,1]]}"#,
            r#"{"id":1,"readings":[7]}"#,
            r#"{"id":1,"readings":[["zz:00:00:00:00:01",-50]]}"#,
            r#"{"id":1,"readings":[[1,-50]]}"#,
            r#"{"id":1,"readings":[["00:00:00:00:00:01",5]]}"#,
            r#"{"id":1,"readings":[["00:00:00:00:00:01","-50"]]}"#,
            r#"{"id":"x","readings":[7]}"#,
            "[]",
            "3",
        ]
        .iter()
        .map(|text| Json::parse(text).unwrap())
        .collect()
    }

    /// Every frame shape the differential test feeds both decoders.
    fn differential_frames() -> Vec<String> {
        let trace = Json::obj([
            ("trace_id", Json::Str("0123456789abcdef".into())),
            ("span_id", Json::Str("fedcba9876543210".into())),
        ]);
        let scans = Json::Arr((0..3).map(|i| scan_json(f64::from(i))).collect());
        let versions = [
            None,
            Some(Json::Num(1.0)),
            Some(Json::Num(2.0)),
            Some(Json::Num(3.0)),
            Some(Json::Str("2".into())),
        ];
        let mut bases = Vec::new();
        for OpSpec(op, ..) in OPS {
            for v in &versions {
                let mut fields = vec![
                    ("id", Json::Str("req-1".into())),
                    ("op", Json::Str((*op).into())),
                    ("trace", trace.clone()),
                ];
                if let Some(v) = v {
                    fields.push(("v", v.clone()));
                }
                if !matches!(*op, "stats" | "shutdown" | "metrics") {
                    fields.push(("building", Json::Str("hq".into())));
                }
                match *op {
                    "assign" => fields.push(("scan", scan_json(7.0))),
                    "assign_batch" | "extend" => fields.push(("scans", scans.clone())),
                    _ => {}
                }
                bases.push(Json::obj(fields));
            }
        }
        let mut frames = vec![
            String::new(),
            "  ".into(),
            "[1,2,3]".into(),
            "7".into(),
            r#""op""#.into(),
            "null".into(),
            "[]".into(),
            r#"{"op":"load","building":"hq","scans":3}"#.into(),
            r#"{"op":"load","building":"hq","scan":{"id":"x"}}"#.into(),
            r#"{"op":"stats","scans":[{"id":1,"readings":[7]}],"scan":[]}"#.into(),
            r#"{"op":"stats","building":"hq"}"#.into(),
            r#"{"op":"assign","building":"","scan":{"id":"x"}}"#.into(),
            r#"{"op":"assign_batch","building":7,"scans":3}"#.into(),
            r#"{"op":"assign_batch","building":"hq"}"#.into(),
            r#"{"op":"extend","v":2,"building":"hq","scans":{}}"#.into(),
        ];
        for base in &bases {
            let text = base.to_string();
            frames.push(text.clone());
            frames.push(reversed(base));
            // Cut at every byte, and every byte replaced by a delimiter
            // or by garbage (the text is ASCII, so every offset is a
            // char boundary).
            for cut in 0..text.len() {
                frames.push(text[..cut].to_owned());
                for byte in ['"', '}', '#'] {
                    frames.push(format!("{}{byte}{}", &text[..cut], &text[cut + 1..]));
                }
            }
            // Each key duplicated, bad then good and good then bad.
            let Json::Obj(map) = base else { unreachable!() };
            for key in map.keys() {
                for bad in ["7", r#""x""#, "null", "{}", "[1]", r#"{"id":"x"}"#] {
                    frames.push(format!("{{\"{key}\":{bad},{}", &text[1..]));
                    frames.push(format!("{},\"{key}\":{bad}}}", &text[..text.len() - 1]));
                }
            }
            // Two keys wrong at once, so the order of the checks shows.
            for (i, first) in map.keys().enumerate() {
                for second in map.keys().skip(i + 1) {
                    let mut frame = map.clone();
                    frame.insert(first.clone(), Json::Num(7.0));
                    frame.insert(second.clone(), Json::Num(7.0));
                    frames.push(Json::Obj(frame).to_string());
                }
            }
            // A bad scan first, in the middle and last.
            for bad in bad_scans() {
                let mut frame = map.clone();
                if let Some(scan) = frame.get_mut("scan") {
                    *scan = bad.clone();
                }
                if let Some(Json::Arr(items)) = frame.get("scans") {
                    for at in [0, items.len() / 2, items.len() - 1] {
                        let mut items = items.clone();
                        items[at] = bad.clone();
                        let mut frame = frame.clone();
                        frame.insert("scans".into(), Json::Arr(items));
                        frames.push(Json::Obj(frame).to_string());
                    }
                }
                frames.push(Json::Obj(frame).to_string());
            }
            // A bad trace.
            for bad in [
                "7",
                r#""0123456789abcdef""#,
                r#"{"trace_id":"xyz","span_id":"0000000000000000"}"#,
                r#"{"trace_id":"0123456789abcdef"}"#,
                r#"{"trace_id":"+123456789abcdef","span_id":"0000000000000000"}"#,
            ] {
                let mut frame = map.clone();
                frame.insert("trace".into(), Json::parse(bad).unwrap());
                frames.push(Json::Obj(frame).to_string());
            }
        }
        frames
    }

    #[test]
    fn parse_frame_matches_the_tree_decoder() {
        let frames = differential_frames();
        let (mut parsed, mut failed) = (0, 0);
        for frame in &frames {
            let got = parse_frame(frame);
            assert_eq!(got, reference_parse_frame(frame), "{frame}");
            match got {
                Ok(_) => parsed += 1,
                Err(_) => failed += 1,
            }
        }
        // The corpus reaches both outcomes in bulk, not just errors.
        assert!(
            parsed > 500 && failed > 5000,
            "{parsed} parsed, {failed} failed"
        );
    }

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
