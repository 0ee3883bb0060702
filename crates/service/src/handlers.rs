//! Endpoint dispatch: JSON request → analysis → canonical JSON response.
//!
//! Every parse step reports *where* it failed: JSON body errors carry the
//! byte offset from the vendored parser, trace errors reuse the
//! `netloc_mpi` error types (line numbers for dumpi text, byte offsets for
//! the binary format), and spec errors echo the offending spec string.
//! Handlers never panic on request content — specs are validated before
//! any constructor runs — so a worker thread survives arbitrary input.

use crate::cache::{tiered_get, tiered_insert, ResultCacheStats};
use crate::http::{json_escape, BodySink, Request, Response};
use crate::jobs::{self, JobsStats, ShardSpec};
use crate::limit::RateLimiterStats;
use crate::payload;
use crate::server::AppState;
use crate::store::{DiskStoreStats, Kind};
use netloc_core::canon::{canonical_json, content_digest, digest_hex};
use netloc_core::sweep::GridSpec;
use netloc_core::IngestResult;
use netloc_mpi::Trace;
use netloc_topology::{MappingSpec, RoutedTopology, TopologySpec};
use serde::{Serialize, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Route one framed request to its handler.
pub fn handle(state: &Arc<AppState>, req: &Request) -> Response {
    // `/v1/jobs` routes carry an id path segment and a query string, so
    // they dispatch on the prefix instead of the exact-match table.
    if req.path == "/v1/jobs"
        || req.path.starts_with("/v1/jobs/")
        || req.path.starts_with("/v1/jobs?")
    {
        return jobs_route(state, req);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => healthz(),
        ("GET", "/v1/statusz") => statusz(state),
        ("POST", "/v1/analyze") => analyze(state, &req.body),
        ("POST", "/v1/sweep") => sweep(state, &req.body),
        ("POST", "/v1/stats") => stats(state, &req.body),
        ("POST", "/v1/metrics") => metrics(state, &req.body),
        ("POST", "/v1/traces") => register_trace(state, &req.body),
        ("POST", "/v1/shutdown") => shutdown(state),
        (_, "/v1/healthz" | "/v1/statusz") => Response::error(405, "use GET"),
        (
            _,
            "/v1/analyze" | "/v1/sweep" | "/v1/stats" | "/v1/metrics" | "/v1/traces"
            | "/v1/shutdown",
        ) => Response::error(405, "use POST"),
        (_, path) => Response::error(404, &format!("no such endpoint '{path}'")),
    }
}

// ---- the job subsystem routes ----------------------------------------

/// `POST /v1/jobs` (submit), `GET /v1/jobs` (list), `GET
/// /v1/jobs/{id}?from=N&limit=M` (progress + completed cell payloads),
/// `DELETE /v1/jobs/{id}` (cancel).
fn jobs_route(state: &Arc<AppState>, req: &Request) -> Response {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("POST", "/v1/jobs") => jobs_submit(state, &req.body),
        ("GET", "/v1/jobs") => jobs_list(state),
        (_, "/v1/jobs") => Response::error(405, "use POST (submit) or GET (list)"),
        (method, path) => {
            let id = &path["/v1/jobs/".len()..];
            if id.is_empty() || id.contains('/') {
                return Response::error(404, "job ids are a single path segment");
            }
            match method {
                "GET" => jobs_get(state, id, query),
                "DELETE" => jobs_cancel(state, id),
                _ => Response::error(405, "use GET (progress) or DELETE (cancel)"),
            }
        }
    }
}

/// Decode a `"name": ["s", ...]` field into its strings.
fn str_array_field(
    fields: &[(String, Value)],
    name: &str,
) -> Result<Option<Vec<String>>, Response> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| match item {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(Response::error(
                    400,
                    &format!("'{name}' entries must be strings"),
                )),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(_) => Err(Response::error(
            400,
            &format!("'{name}' must be an array of strings"),
        )),
    }
}

fn u64_from(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(n) => u64::try_from(*n).ok(),
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// Decode the optional `"shard": {"seed": S, "count": N, "index": I}`
/// selector of a fanned-out job.
fn decode_shard(fields: &[(String, Value)]) -> Result<Option<ShardSpec>, Response> {
    let bad = |msg: &str| Response::error(400, &format!("bad 'shard': {msg}"));
    match field(fields, "shard") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Object(sf)) => {
            let num = |name: &str| {
                field(sf, name)
                    .and_then(u64_from)
                    .ok_or_else(|| bad(&format!("'{name}' must be a non-negative integer")))
            };
            let count = u32::try_from(num("count")?).map_err(|_| bad("'count' out of range"))?;
            let index = u32::try_from(num("index")?).map_err(|_| bad("'index' out of range"))?;
            if count == 0 || index >= count {
                return Err(bad("need count >= 1 and index < count"));
            }
            Ok(Some(ShardSpec {
                count,
                index,
                seed: num("seed")?,
            }))
        }
        Some(_) => Err(bad("must be an object {seed, count, index}")),
    }
}

fn jobs_submit(state: &Arc<AppState>, body: &[u8]) -> Response {
    json_request(body, |fields| {
        let topologies = str_array_field(fields, "topologies")?
            .ok_or_else(|| Response::error(400, "missing 'topologies' array"))?;
        let mappings =
            str_array_field(fields, "mappings")?.unwrap_or_else(|| vec!["consecutive".into()]);
        let raw_workloads = str_array_field(fields, "workloads")?
            .ok_or_else(|| Response::error(400, "missing 'workloads' array"))?;
        // Workload canonicalization (app-name resolution) happens here,
        // before the grid is built, so the grid identity — and with it
        // the job id and every cell key — never depends on how the
        // client spelled an app name.
        let workloads = raw_workloads
            .iter()
            .map(|spec| {
                netloc_workloads::parse_workload_spec(spec)
                    .map(|(_, _, canonical)| canonical)
                    .map_err(|e| Response::error(400, &e))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let shard = decode_shard(fields)?;
        let grid = GridSpec::parse(&topologies, &mappings, &workloads)
            .map_err(|e| Response::error(400, &e))?;
        if grid.cell_count() > state.config.job_cell_cap as u64 {
            return Err(Response::coded_error(
                413,
                "grid_too_large",
                &format!(
                    "grid of {} cells exceeds the per-job cap of {}; split the grid \
                     (or shard it across instances with 'shard')",
                    grid.cell_count(),
                    state.config.job_cell_cap
                ),
            ));
        }
        let job = jobs::submit(state, grid, shard, false, false);
        Ok(Response::json(
            canonical_json(&jobs::summary_value(&job)).into_bytes(),
        ))
    })
}

fn jobs_list(state: &Arc<AppState>) -> Response {
    let summaries: Vec<Value> = state
        .jobs
        .all()
        .iter()
        .map(|job| jobs::summary_value(job))
        .collect();
    let body = Value::Object(vec![("jobs".to_string(), Value::Array(summaries))]);
    Response::json(canonical_json(&body).into_bytes())
}

fn jobs_get(state: &Arc<AppState>, id: &str, query: &str) -> Response {
    let Some(job) = state.jobs.get(id) else {
        return Response::coded_error(404, "unknown_job", &format!("no job '{id}'"));
    };
    let mut from = 0u64;
    let mut limit = 256usize;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (name, raw) = pair.split_once('=').unwrap_or((pair, ""));
        match name {
            "from" => match raw.parse() {
                Ok(v) => from = v,
                Err(_) => return Response::error(400, "'from' must be a non-negative integer"),
            },
            "limit" => match raw.parse::<usize>() {
                Ok(v) if v >= 1 => limit = v.min(4096),
                _ => return Response::error(400, "'limit' must be a positive integer"),
            },
            other => return Response::error(400, &format!("unknown query parameter '{other}'")),
        }
    }
    Response::json(canonical_json(&jobs::progress_value(state, &job, from, limit)).into_bytes())
}

fn jobs_cancel(state: &Arc<AppState>, id: &str) -> Response {
    match jobs::cancel(state, id) {
        Some(job) => Response::json(canonical_json(&jobs::summary_value(&job)).into_bytes()),
        None => Response::coded_error(404, "unknown_job", &format!("no job '{id}'")),
    }
}

fn healthz() -> Response {
    Response::json(b"{\n  \"status\": \"ok\"\n}\n".to_vec())
}

/// `statusz` payload: counters for the queue, both cache levels, the
/// persistent store, the trace registry, and every admission gate.
#[derive(Serialize)]
struct StatuszResponse {
    workers: usize,
    queue_capacity: usize,
    queue_depth: usize,
    queue_background_depth: usize,
    requests_served: u64,
    requests_rejected: u64,
    rate_limited: u64,
    shed_timeouts: u64,
    shed_inflight: u64,
    handler_panics: u64,
    inflight_bytes: usize,
    inflight_limit: usize,
    result_cache: ResultCacheStats,
    registry: ResultCacheStats,
    disk: Option<DiskStoreStats>,
    rate_limit: RateLimiterStats,
    route_tables_built: u64,
    route_tables_from_disk: u64,
    route_table_specs: usize,
    ingest_cache: ResultCacheStats,
    traces_ingested: u64,
    ingest_events: u64,
    jobs: JobsStats,
}

fn statusz(state: &AppState) -> Response {
    let body = canonical_json(&StatuszResponse {
        workers: state.config.workers,
        queue_capacity: state.queue.capacity(),
        queue_depth: state.queue.depth(),
        queue_background_depth: state.queue.background_depth(),
        requests_served: state.served.load(Ordering::Relaxed),
        requests_rejected: state.rejected.load(Ordering::Relaxed),
        rate_limited: state.rate_limited.load(Ordering::Relaxed),
        shed_timeouts: state.shed_timeouts.load(Ordering::Relaxed),
        shed_inflight: state.inflight.shed(),
        handler_panics: state.handler_panics.load(Ordering::Relaxed),
        inflight_bytes: state.inflight.current(),
        inflight_limit: state.inflight.limit(),
        result_cache: state.result_cache.stats(),
        registry: state.registry.stats(),
        disk: state.store.as_deref().map(|s| s.stats()),
        rate_limit: state.limiter.stats(),
        route_tables_built: state.topo_cache.tables_built(),
        route_tables_from_disk: state.topo_cache.tables_from_disk(),
        route_table_specs: state.topo_cache.specs_cached(),
        ingest_cache: state.ingests.stats(),
        traces_ingested: state.traces_ingested.load(Ordering::Relaxed),
        ingest_events: state.ingest_events.load(Ordering::Relaxed),
        jobs: state.jobs.stats(),
    });
    Response::json(body.into_bytes())
}

/// `POST /v1/traces`: register a raw dumpi trace body once, get back its
/// content digest, and reference it as `"trace_digest"` in later
/// `analyze`/`sweep`/`stats`/`metrics` calls instead of re-sending the
/// multi-MB body. The upload is validated by a full decode before it is
/// accepted; its bytes go to the registry and its metadata record to
/// the result tiers (see [`register`]).
fn register_trace(state: &AppState, body: &[u8]) -> Response {
    if body.is_empty() {
        return Response::error(400, "empty trace upload");
    }
    match netloc_core::ingest::parse_trace_auto(body) {
        Ok(trace) => register(state, &trace, body.to_vec()),
        Err(e) => Response::error(400, &format!("bad trace: {e}")),
    }
}

/// Register `bytes`, the encoding of the already-decoded `trace`: the
/// bytes go to the registry (memory, and the store when configured), and
/// a metadata record with the rank count goes to the result tiers, so
/// later requests by digest resolve `topology: "auto"` and their cache
/// keys without decoding the trace again. The record is a separate entry;
/// the registered bytes, and so the digest, are exactly the upload.
fn register(state: &AppState, trace: &Trace, bytes: Vec<u8>) -> Response {
    state.count_ingest(trace);
    let digest = digest_hex(content_digest(&bytes));
    let reply = format!(
        "{{\n  \"digest\": {},\n  \"ranks\": {},\n  \"events\": {},\n  \"bytes\": {}\n}}\n",
        json_escape(&digest),
        trace.num_ranks,
        trace.events.len(),
        bytes.len()
    );
    tiered_insert(
        &state.registry,
        state.store.as_deref(),
        Kind::Trace,
        &digest,
        &Arc::new(bytes),
    );
    put_ranks_record(state, &digest, trace.num_ranks);
    Response::json(reply.into_bytes())
}

/// Result-tier key of a registered trace's metadata record.
fn ranks_key(digest: &str) -> String {
    format!("trace-ranks|{digest}")
}

fn put_ranks_record(state: &AppState, digest: &str, ranks: u32) {
    tiered_insert(
        &state.result_cache,
        state.store.as_deref(),
        Kind::Result,
        &ranks_key(digest),
        &Arc::new(ranks.to_string().into_bytes()),
    );
}

/// Incremental sink for chunked `POST /v1/traces` uploads.
///
/// The first 8 body bytes decide the lane: the columnar magic streams
/// every subsequent chunk through [`netloc_mpi::ColStreamParser`],
/// retaining only the current partial column chunk; anything else (dumpi
/// text, the row binary format) is buffered whole, exactly like a
/// `Content-Length` upload. Either way the worker's in-flight reservation
/// tracks what the sink actually holds, so a multi-GB canonical columnar
/// upload costs O(one chunk) of resident memory instead of O(file).
pub(crate) struct TraceUploadSink {
    lane: UploadLane,
}

enum UploadLane {
    /// Fewer than 8 bytes seen: format still undecided.
    Probe(Vec<u8>),
    /// Columnar stream, decoded incrementally.
    Columnar(netloc_mpi::ColStreamParser),
    /// Any other format, buffered whole.
    Buffered(Vec<u8>),
}

impl TraceUploadSink {
    pub(crate) fn new() -> Self {
        TraceUploadSink {
            lane: UploadLane::Probe(Vec::new()),
        }
    }
}

impl BodySink for TraceUploadSink {
    fn push(&mut self, bytes: &[u8]) -> Result<(), Response> {
        match &mut self.lane {
            UploadLane::Probe(buf) => {
                buf.extend_from_slice(bytes);
                if buf.len() >= netloc_mpi::colfmt::MAGIC.len() {
                    let buf = std::mem::take(buf);
                    if buf.starts_with(netloc_mpi::colfmt::MAGIC) {
                        let mut parser = netloc_mpi::ColStreamParser::new();
                        parser
                            .push(&buf)
                            .map_err(|e| Response::error(400, &format!("bad trace: {e}")))?;
                        self.lane = UploadLane::Columnar(parser);
                    } else {
                        self.lane = UploadLane::Buffered(buf);
                    }
                }
                Ok(())
            }
            UploadLane::Columnar(parser) => parser
                .push(bytes)
                .map_err(|e| Response::error(400, &format!("bad trace: {e}"))),
            UploadLane::Buffered(buf) => {
                buf.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn retained(&self) -> usize {
        match &self.lane {
            UploadLane::Probe(buf) | UploadLane::Buffered(buf) => buf.len(),
            UploadLane::Columnar(parser) => parser.buffered_len(),
        }
    }
}

/// Complete a chunked trace upload once the body stream has been fully
/// consumed: buffered lanes go through the ordinary [`register_trace`]
/// path; the columnar stream finishes its decode and registers the
/// *canonical* re-encoding of the trace, so a streamed upload of
/// `netloc convert` output registers byte-identical bytes (and therefore
/// the same digest) as a whole-body upload of the same file.
pub(crate) fn finish_upload(state: &AppState, sink: TraceUploadSink) -> Response {
    match sink.lane {
        UploadLane::Probe(buf) | UploadLane::Buffered(buf) => register_trace(state, &buf),
        UploadLane::Columnar(parser) => match parser.finish() {
            Ok(trace) => {
                let bytes = netloc_mpi::write_trace_columnar(&trace);
                register(state, &trace, bytes)
            }
            Err(e) => Response::error(400, &format!("bad trace: {e}")),
        },
    }
}

/// The structured 404 for a digest reference the registry cannot resolve
/// (never uploaded, evicted from memory, or lost with the store).
fn unknown_digest(digest: &str) -> Response {
    let body = format!(
        "{{\n  \"error\": \"no registered trace with that digest; POST /v1/traces first\",\n  \"code\": \"unknown_digest\",\n  \"digest\": {}\n}}\n",
        json_escape(digest)
    );
    Response {
        status: 404,
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

fn shutdown(state: &AppState) -> Response {
    state.shutdown_requested.store(true, Ordering::SeqCst);
    Response::json(b"{\n  \"status\": \"shutting down\"\n}\n".to_vec())
}

// ---- request decoding ------------------------------------------------

fn parse_json_body(body: &[u8]) -> Result<Value, Response> {
    let text = std::str::from_utf8(body).map_err(|e| {
        Response::error(
            400,
            &format!("body is not UTF-8 (byte {})", e.valid_up_to()),
        )
    })?;
    serde_json::from_str(text).map_err(|e| Response::error(400, &e.to_string()))
}

fn obj(value: &Value) -> Result<&[(String, Value)], Response> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err(Response::error(400, "request body must be a JSON object")),
    }
}

fn field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn str_field<'a>(fields: &'a [(String, Value)], name: &str) -> Result<Option<&'a str>, Response> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(_) => Err(Response::error(400, &format!("'{name}' must be a string"))),
    }
}

/// Where a request's trace comes from.
enum Source<'a> {
    /// Inline dumpi text (`"trace"`).
    Inline(&'a str),
    /// A generated workload (`"workload": "APP:RANKS"`).
    Workload(netloc_workloads::App, u32),
    /// Registered bytes (`"trace_digest"`), digest-verified.
    Registered(Arc<Vec<u8>>),
}

/// A trace source resolved far enough to build cache keys, without
/// folding the trace: the lookup order is source → metadata → key →
/// result tiers, and only a result miss reaches the ingest cache.
struct Resolved<'a> {
    source: Source<'a>,
    /// Hex content digest of the source (inline text bytes, registered
    /// bytes, or the canonical workload spec) — the first component of
    /// every cache key, and the ingest-cache key.
    digest: String,
    /// World size, which resolves `topology: "auto"`.
    ranks: u32,
}

impl Resolved<'_> {
    /// Decode the full trace, events included. Windowed payloads call
    /// this directly, since the ingest cache keeps no events.
    fn decode(&self) -> Result<Trace, Response> {
        let parse = |bytes: &[u8], what: &str| {
            netloc_core::ingest::parse_trace_auto(bytes)
                .map_err(|e| Response::error(400, &format!("{what}: {e}")))
        };
        match &self.source {
            Source::Inline(text) => parse(text.as_bytes(), "bad trace"),
            Source::Workload(app, ranks) => Ok(netloc_workloads::generate_workload(*app, *ranks)),
            Source::Registered(bytes) => parse(bytes, "bad registered trace"),
        }
    }

    /// The slim fold of the trace, through the ingest cache.
    fn ingest(&self, state: &AppState) -> Result<Arc<IngestResult>, Response> {
        state.ingest(&self.digest, || self.decode())
    }
}

/// Resolve the trace source: inline dumpi text (`"trace"`), a generated
/// workload spec (`"workload": "APP:RANKS"`), or a registry reference
/// (`"trace_digest"` from an earlier `POST /v1/traces`). Workload ranks
/// come from the spec and registered ranks from the metadata record, so
/// neither decodes the trace; inline text is small and takes its ranks
/// from the (cached) ingest.
fn resolve<'a>(state: &AppState, fields: &'a [(String, Value)]) -> Result<Resolved<'a>, Response> {
    let sources = (
        str_field(fields, "trace")?,
        str_field(fields, "workload")?,
        str_field(fields, "trace_digest")?,
    );
    match sources {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) | (_, Some(_), Some(_)) => Err(Response::error(
            400,
            "give exactly one of 'trace', 'workload', or 'trace_digest'",
        )),
        (Some(text), None, None) => {
            let mut src = Resolved {
                source: Source::Inline(text),
                digest: digest_hex(content_digest(text.as_bytes())),
                ranks: 0,
            };
            src.ranks = src.ingest(state)?.trace.num_ranks;
            Ok(src)
        }
        (None, Some(spec), None) => {
            let (app, ranks, canonical) =
                netloc_workloads::parse_workload_spec(spec).map_err(|e| Response::error(400, &e))?;
            Ok(Resolved {
                source: Source::Workload(app, ranks),
                digest: jobs::workload_digest(&canonical),
                ranks,
            })
        }
        (None, None, Some(digest)) => {
            // Read-through: registry memory, then the persistent store.
            // The store verifies the frame; re-deriving the digest from
            // the payload guards the memory layer the same way. A missing
            // trace is a 404 even when results for it are still cached.
            let bytes = tiered_get(&state.registry, state.store.as_deref(), Kind::Trace, digest)
                .map(|(bytes, _)| bytes)
                .filter(|bytes| digest_hex(content_digest(bytes)) == digest)
                .ok_or_else(|| unknown_digest(digest))?;
            let mut src = Resolved {
                source: Source::Registered(bytes),
                digest: digest.to_string(),
                ranks: 0,
            };
            src.ranks = registered_ranks(state, &src)?;
            Ok(src)
        }
        (None, None, None) => Err(Response::error(
            400,
            "missing trace source: set 'trace' (inline dumpi text), 'workload' (\"APP:RANKS\"), or 'trace_digest'",
        )),
    }
}

/// The rank count of a registered trace: its metadata record, or — for a
/// trace registered before records existed, or a record lost to eviction
/// or quarantine — the ingest, which writes the record back.
fn registered_ranks(state: &AppState, src: &Resolved<'_>) -> Result<u32, Response> {
    let record = tiered_get(
        &state.result_cache,
        state.store.as_deref(),
        Kind::Result,
        &ranks_key(&src.digest),
    );
    if let Some(ranks) =
        record.and_then(|(bytes, _)| std::str::from_utf8(&bytes).ok()?.parse().ok())
    {
        return Ok(ranks);
    }
    let ranks = src.ingest(state)?.trace.num_ranks;
    put_ranks_record(state, &src.digest, ranks);
    Ok(ranks)
}

fn decode_topology(fields: &[(String, Value)], ranks: u32) -> Result<TopologySpec, Response> {
    let raw = str_field(fields, "topology")?.unwrap_or("auto");
    let spec: TopologySpec = raw
        .parse()
        .map_err(|e| Response::error(400, &format!("{e}")))?;
    Ok(spec.resolve(ranks))
}

fn decode_mapping(fields: &[(String, Value)]) -> Result<MappingSpec, Response> {
    str_field(fields, "mapping")?
        .unwrap_or("consecutive")
        .parse()
        .map_err(|e| Response::error(400, &format!("{e}")))
}

/// Ceiling on the optional `"windows"` count: windows beyond the event
/// count are empty rows, and 4096 already renders a generous timeline.
const MAX_WINDOWS: u64 = 4096;

/// Decode the optional `"windows": N` field of `analyze`/`stats`.
fn decode_windows(fields: &[(String, Value)]) -> Result<Option<usize>, Response> {
    match field(fields, "windows") {
        None | Some(Value::Null) => Ok(None),
        Some(v) => match u64_from(v) {
            Some(n) if (1..=MAX_WINDOWS).contains(&n) => Ok(Some(n as usize)),
            _ => Err(Response::error(
                400,
                &format!("'windows' must be an integer in 1..={MAX_WINDOWS}"),
            )),
        },
    }
}

// ---- analysis endpoints ----------------------------------------------

/// Build the topology and its routed view, then run `work` against it.
/// The topo cache's shared compressed table when it accepts the machine,
/// `RoutedTopology::auto` otherwise; all modes produce identical reports.
/// Shared with the job subsystem, which is how job cells ride the same
/// single-flight route tables as interactive requests.
pub(crate) fn with_routed<T>(
    state: &AppState,
    topo_spec: &TopologySpec,
    work: impl FnOnce(&RoutedTopology<'_>) -> T,
) -> Result<T, netloc_topology::spec::SpecError> {
    let topo = topo_spec.build()?;
    let canonical = topo_spec.to_string();
    let routed = match state.topo_cache.routes(&canonical, topo.as_ref()) {
        Some(table) => RoutedTopology::with_compressed(topo.as_ref(), table),
        // Not cached: `auto` routes directly, or builds lazy core rows for
        // a router-symmetric machine past the compressed limit.
        None => RoutedTopology::auto(topo.as_ref()),
    };
    Ok(work(&routed))
}

/// Parse a JSON object body and hand its fields to `handle`.
fn json_request(
    body: &[u8],
    handle: impl FnOnce(&[(String, Value)]) -> Result<Response, Response>,
) -> Response {
    parse_json_body(body)
        .and_then(|value| handle(obj(&value)?))
        .unwrap_or_else(|resp| resp)
}

/// Serve `key` from the result tiers — memory, then the digest-verified
/// store, so a hit returns the exact bytes served last time, across
/// restarts — or compute, cache and serve it.
fn cached(
    state: &AppState,
    key: &str,
    compute: impl FnOnce() -> Result<Vec<u8>, Response>,
) -> Result<Response, Response> {
    let store = state.store.as_deref();
    if let Some((bytes, _tier)) = tiered_get(&state.result_cache, store, Kind::Result, key) {
        return Ok(Response::json(bytes.as_ref().clone()));
    }
    let bytes = Arc::new(compute()?);
    tiered_insert(&state.result_cache, store, Kind::Result, key, &bytes);
    Ok(Response::json(bytes.as_ref().clone()))
}

/// The cache-key suffix of a `"windows"` request; requests without it
/// keep their historical key, so caches survive the upgrade.
fn windows_key(windows: Option<usize>) -> String {
    windows.map(|n| format!("|windows:{n}")).unwrap_or_default()
}

fn spec_error(e: impl std::fmt::Display) -> Response {
    Response::error(400, &format!("{e}"))
}

fn analyze(state: &AppState, body: &[u8]) -> Response {
    json_request(body, |fields| {
        let src = resolve(state, fields)?;
        let topo_spec = decode_topology(fields, src.ranks)?;
        let map_spec = decode_mapping(fields)?;
        let windows = decode_windows(fields)?;
        let key = format!(
            "analyze|{}|{topo_spec}|{map_spec}{}",
            src.digest,
            windows_key(windows)
        );
        cached(state, &key, || {
            let ingest = src.ingest(state)?;
            let digest = src.digest.clone();
            let resp = match windows {
                None => with_routed(state, &topo_spec, |routed| {
                    payload::analyze(
                        &ingest.trace,
                        &ingest.matrix,
                        digest,
                        &topo_spec,
                        &map_spec,
                        routed,
                    )
                }),
                Some(n) => {
                    let trace = src.decode()?;
                    with_routed(state, &topo_spec, |routed| {
                        payload::analyze_windowed(
                            &trace,
                            &ingest.matrix,
                            digest,
                            &topo_spec,
                            &map_spec,
                            routed,
                            n,
                        )
                    })
                }
            };
            let resp = resp.map_err(spec_error)?.map_err(spec_error)?;
            Ok(canonical_json(&resp).into_bytes())
        })
    })
}

fn sweep(state: &AppState, body: &[u8]) -> Response {
    json_request(body, |fields| {
        // Grid-size admission runs before the trace is resolved: an
        // oversized grid is bounced in microseconds, whatever else is
        // wrong with the request.
        if let Some(Value::Array(items)) = field(fields, "mappings") {
            if items.len() > state.config.sweep_cell_cap {
                // A grid this size would block a worker for minutes;
                // the job subsystem runs it incrementally instead.
                return Err(Response::coded_error(
                    413,
                    "grid_too_large",
                    &format!(
                        "sweep of {} cells exceeds the synchronous cap of {}; \
                         submit the grid as a resumable job via POST /v1/jobs",
                        items.len(),
                        state.config.sweep_cell_cap
                    ),
                ));
            }
        }
        let src = resolve(state, fields)?;
        let topo_spec = decode_topology(fields, src.ranks)?;
        let map_specs: Vec<MappingSpec> = match field(fields, "mappings") {
            None | Some(Value::Null) => vec![MappingSpec::Consecutive],
            Some(Value::Array(items)) => {
                if items.is_empty() {
                    return Err(Response::error(400, "'mappings' needs at least one entry"));
                }
                items
                    .iter()
                    .map(|item| match item {
                        Value::Str(s) => s.parse().map_err(spec_error),
                        _ => Err(Response::error(400, "'mappings' entries must be strings")),
                    })
                    .collect::<Result<_, _>>()?
            }
            Some(_) => return Err(Response::error(400, "'mappings' must be an array")),
        };
        let ingest = src.ingest(state)?;
        let resp = with_routed(state, &topo_spec, |routed| {
            payload::sweep(
                &ingest.trace,
                &ingest.matrix,
                src.digest.clone(),
                &topo_spec,
                &map_specs,
                routed,
            )
        })
        .map_err(spec_error)?
        .map_err(spec_error)?;
        Ok(Response::json(canonical_json(&resp).into_bytes()))
    })
}

fn stats(state: &AppState, body: &[u8]) -> Response {
    json_request(body, |fields| {
        let src = resolve(state, fields)?;
        let windows = decode_windows(fields)?;
        let key = format!("stats|{}{}", src.digest, windows_key(windows));
        cached(state, &key, || {
            let ingest = src.ingest(state)?;
            let base = payload::StatsResponse::from_parts(&ingest.trace, &ingest.stats);
            let value = match windows {
                Some(n) => base
                    .with_windows(&netloc_core::windowed_ingest(&src.decode()?, n))
                    .to_value(),
                None => base.to_value(),
            };
            Ok(canonical_json(&value).into_bytes())
        })
    })
}

fn metrics(state: &AppState, body: &[u8]) -> Response {
    json_request(body, |fields| {
        let src = resolve(state, fields)?;
        cached(state, &format!("metrics|{}", src.digest), || {
            let ingest = src.ingest(state)?;
            let value =
                payload::MetricsResponse::from_matrix(&ingest.trace, &ingest.p2p).to_value();
            Ok(canonical_json(&value).into_bytes())
        })
    })
}
