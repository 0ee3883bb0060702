//! `service-mix`: an in-process `netloc_service::Server` with a data dir
//! and two workers, driven by a closed loop of two client connections —
//! the service's callers (`netloc sweep --remote`, scripts) each wait for
//! their reply. The only workload that exercises HTTP framing, the result
//! and registry caches, the disk store and the job lane. One pass runs
//! six phases:
//!
//! 1. chunked columnar uploads of large seeded traces (`POST /v1/traces`);
//! 2. cold analyzes by digest across several topologies, plus one stats
//!    and one metrics request per digest;
//! 3. repeated hits on those keys — first alone, to count ingests per
//!    hit, then interleaved with `/v1/stats` and `/v1/metrics` by digest;
//! 4. hits on small `"workload": "APP:RANKS"` traces;
//! 5. a restart on the same data dir, then one hit per large-trace key,
//!    served from the disk store;
//! 6. three small job grids, each from submit to its last cell.
//!
//! Large-trace hits, small-trace hits, cold writes and persistent reads
//! use the same cache and store layers differently, so a change that
//! helps one use while slowing another shows.

use crate::spans::Recorder;
use crate::{inputs, Measured, Workload};
use netloc_core::canon::{canonical_json, content_digest, digest_hex};
use netloc_core::sweep::GridSpec;
use netloc_service::{RunningServer, Server, ServerConfig};
use netloc_testkit::client::{self, HttpResponse};
use netloc_topology::{MappingSpec, RoutedTopology, TopologySpec};
use serde::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const RANKS: u32 = 512;
pub const EVENTS: usize = 1_000_000;
/// Large traces uploaded per pass; each gets its own digest.
const UPLOADS: usize = 3;
/// Chunk size of the streamed upload, like a socket-read-sized client.
const UPLOAD_CHUNK: usize = 64 * 1024;
/// Closed-loop client connections (the machine has two cores).
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Topologies of the large-trace keys (`auto` is the 8×8×8 torus).
const TOPOLOGIES: [&str; 4] = ["auto", "fattree:16,3", "dragonfly:8,4,2", "hyperx:8x8,8"];
/// Small generated traces of phase 4, each with its topology.
const SMALL: [(&str, &str); 3] = [
    ("lulesh:64", "torus:4,4,4"),
    ("minife:64", "auto"),
    ("amg:27", "auto"),
];
/// Phase 6 runs one job per round. Rounds permute the machines'
/// dimensions: equal cost, distinct keys, so every cell computes (none of
/// them is a phase-4 key either).
const JOB_TOPOLOGIES: [[&str; 2]; 3] = [
    ["torus:8,8,4", "mesh:8,8,4"],
    ["torus:8,4,8", "mesh:8,4,8"],
    ["torus:4,8,8", "mesh:4,8,8"],
];
const JOB_MAPPINGS: [&str; 2] = ["consecutive", "block:2"];
const JOB_WORKLOADS: [&str; 4] = ["snap:256", "nekbone:256", "cmc:256", "bigfft:256"];
/// Shares of the time budget given to the time-boxed phases.
const PURE_HIT_SHARE: f64 = 0.1;
const MIXED_HIT_SHARE: f64 = 0.3;
const SMALL_HIT_SHARE: f64 = 0.15;
/// Every this many requests of phase 3's mix, one stats or metrics call:
/// two per digest against its four analyze keys, so each stats and
/// metrics key recurs once per cycle through the mix.
const TRACE_ONLY_EVERY: usize = 2;
const JOB_POLL: Duration = Duration::from_millis(2);
const JOB_DEADLINE: Duration = Duration::from_secs(120);

pub struct ServiceMix;

pub struct ServiceInput {
    uploads: Vec<Vec<u8>>,
    data_dir: PathBuf,
    server: Option<RunningServer>,
}

impl Drop for ServiceInput {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn config(data_dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        // The binary has no flag for this; its 8 MiB default answers 413
        // to the streamed upload of a 1M-event trace.
        max_body_bytes: 256 * 1024 * 1024,
        data_dir: Some(data_dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

impl Workload for ServiceMix {
    type Input = ServiceInput;

    fn setup(&self, seed: u64, dir: &Path) -> ServiceInput {
        let mut trace = inputs::stencil_trace("stencil3d", RANKS, EVENTS, seed);
        let uploads = (0..UPLOADS)
            .map(|i| {
                // Distinct names give distinct digests for the same events.
                trace.app = format!("stencil3d-{i}");
                netloc_mpi::write_trace_columnar(&trace)
            })
            .collect();
        let data_dir = dir.join("data");
        std::fs::create_dir_all(&data_dir).expect("create data dir");
        let server = Server::start(config(&data_dir)).expect("start server");
        ServiceInput {
            uploads,
            data_dir,
            server: Some(server),
        }
    }

    fn sizes(&self, s: &ServiceInput) -> Vec<(&'static str, u64)> {
        vec![
            ("events", EVENTS as u64),
            ("ranks", u64::from(RANKS)),
            ("uploads", s.uploads.len() as u64),
            (
                "upload_bytes",
                s.uploads.iter().map(|u| u.len() as u64).sum(),
            ),
            ("topologies", TOPOLOGIES.len() as u64),
        ]
    }

    fn measure(&self, mut input: ServiceInput, rec: &Recorder, budget: Duration) -> Measured {
        let mut m = Measured::default();
        let server = input.server.take().expect("server started in set-up");
        let mut addr = server.addr();
        let mut counters = Counters::default();
        counters.begin(addr);

        // Phase 1: streamed uploads.
        let mut digests = Vec::new();
        for body in &input.uploads {
            let t0 = Instant::now();
            let resp = rec.time("http.request", || {
                client::post_chunked(addr, "/v1/traces", body, UPLOAD_CHUNK)
            });
            let secs = t0.elapsed().as_secs_f64();
            rec.count("http.requests", 1.0);
            match ok_json(resp) {
                Ok(v) => {
                    m.op("upload", secs);
                    let digest = str_at(&v, "digest").unwrap_or_default();
                    let whole = digest_hex(content_digest(body));
                    m.check(digest == whole, || {
                        format!("streamed upload digest {digest} != whole-body digest {whole}")
                    });
                    digests.push(digest);
                }
                Err(e) => m.fail(format!("upload: {e}")),
            }
        }

        // Phase 2: cold analyzes, and the first stats/metrics per digest.
        let mut expected: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        let mut hot: Vec<Request> = Vec::new();
        let mut trace_only: Vec<Request> = Vec::new();
        for digest in &digests {
            for topo in TOPOLOGIES {
                let req = Request::post(
                    "analyze_hit",
                    "/v1/analyze",
                    format!("{{\"trace_digest\": \"{digest}\", \"topology\": \"{topo}\"}}"),
                );
                if let Some(body) = send(rec, addr, &req, "analyze_cold", &mut m) {
                    expected.insert(req.key(), body);
                }
                hot.push(req);
            }
            for (kind, path) in [("stats", "/v1/stats"), ("metrics", "/v1/metrics")] {
                let req = Request::post(kind, path, format!("{{\"trace_digest\": \"{digest}\"}}"));
                if let Some(body) = send(rec, addr, &req, kind, &mut m) {
                    expected.insert(req.key(), body);
                }
                trace_only.push(req);
            }
        }
        check_cold_body(&mut m, &input.uploads[0], digests.first(), &expected);

        // Phase 3: hits alone (ingests per hit), then the interleaved mix.
        let mut loop_requests = 0usize;
        let mut loop_secs = 0.0;
        let before = statusz(addr);
        let (n, secs) = closed_loop(
            rec,
            addr,
            &hot,
            &expected,
            Stop::After(budget.mul_f64(PURE_HIT_SHARE)),
            &mut m,
        );
        let after = statusz(addr);
        m.layers.insert(
            "service.ingests_per_hit",
            delta(&before, &after, "traces_ingested") / n.max(1) as f64,
        );
        loop_requests += n;
        loop_secs += secs;
        let mut mix = Vec::new();
        for (i, req) in hot.iter().enumerate() {
            mix.push(req.clone());
            if i % TRACE_ONLY_EVERY == TRACE_ONLY_EVERY - 1 {
                mix.push(trace_only[(i / TRACE_ONLY_EVERY) % trace_only.len()].clone());
            }
        }
        let (n, secs) = closed_loop(
            rec,
            addr,
            &mix,
            &expected,
            Stop::After(budget.mul_f64(MIXED_HIT_SHARE)),
            &mut m,
        );
        loop_requests += n;
        loop_secs += secs;

        // Phase 4: small generated traces; the first request per key is cold.
        let mut small = Vec::new();
        for (workload, topo) in SMALL {
            let req = Request::post(
                "small_hit",
                "/v1/analyze",
                format!("{{\"workload\": \"{workload}\", \"topology\": \"{topo}\"}}"),
            );
            if let Some(body) = send(rec, addr, &req, "small_cold", &mut m) {
                expected.insert(req.key(), body);
            }
            small.push(req);
        }
        let (n, secs) = closed_loop(
            rec,
            addr,
            &small,
            &expected,
            Stop::After(budget.mul_f64(SMALL_HIT_SHARE)),
            &mut m,
        );
        loop_requests += n;
        loop_secs += secs;

        // Phase 5: restart on the same data dir; every large-trace key
        // once, now from the disk store.
        counters.end(addr);
        server.shutdown();
        let server = match Server::start(config(&input.data_dir)) {
            Ok(s) => s,
            Err(e) => {
                m.fail(format!("restart: {e}"));
                return m;
            }
        };
        addr = server.addr();
        counters.begin(addr);
        let persistent: Vec<Request> = hot
            .iter()
            .map(|r| Request {
                kind: "persistent_hit",
                ..r.clone()
            })
            .collect();
        closed_loop(rec, addr, &persistent, &expected, Stop::Once, &mut m);

        // Phase 6: small job grids, each from submit to its last cell.
        for topologies in JOB_TOPOLOGIES {
            run_job(rec, addr, &topologies, &mut m);
        }
        counters.end(addr);
        server.shutdown();

        m.end_pass();
        m.named_median("upload_s", "s", "upload", 1.0);
        m.named_median("analyze_cold_p50_ms", "ms", "analyze_cold", 1e3);
        m.named_median("analyze_hit_p50_ms", "ms", "analyze_hit", 1e3);
        m.named_tail_ms("analyze_hit_tail_ms", "analyze_hit");
        m.named_median("small_hit_p50_ms", "ms", "small_hit", 1e3);
        m.named_median("persistent_hit_p50_ms", "ms", "persistent_hit", 1e3);
        let job = m.samples("job_grid");
        let cells = (JOB_TOPOLOGIES[0].len() * JOB_MAPPINGS.len() * JOB_WORKLOADS.len()) as f64;
        m.named_value(
            "job_cells_per_s",
            "cells/s",
            job.median().map_or(0.0, |s| cells / s),
            job.len(),
        );
        m.named_value(
            "requests_per_s",
            "req/s",
            loop_requests as f64 / loop_secs.max(f64::MIN_POSITIVE),
            loop_requests,
        );
        counters.report(&mut m);
        m
    }
}

/// One request of the mix; `kind` names its latency samples.
#[derive(Clone)]
struct Request {
    kind: &'static str,
    path: &'static str,
    body: String,
}

impl Request {
    fn post(kind: &'static str, path: &'static str, body: String) -> Self {
        Request { kind, path, body }
    }

    /// Identity of the expected response body.
    fn key(&self) -> String {
        format!("{} {}", self.path, self.body)
    }
}

fn ok_json(resp: std::io::Result<HttpResponse>) -> Result<Value, String> {
    let resp = resp.map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!(
            "status {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|_| "non-UTF-8 body".to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn str_at(v: &Value, name: &str) -> Option<String> {
    match field(v, name)? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// Send one request, recording its latency under `kind`; the body when
/// the status is 200.
fn send(
    rec: &Recorder,
    addr: SocketAddr,
    req: &Request,
    kind: &'static str,
    m: &mut Measured,
) -> Option<Vec<u8>> {
    let t0 = Instant::now();
    let resp = rec.time("http.request", || client::post(addr, req.path, &req.body));
    let secs = t0.elapsed().as_secs_f64();
    rec.count("http.requests", 1.0);
    match resp {
        Ok(r) if r.status == 200 => {
            m.op(kind, secs);
            Some(r.body)
        }
        Ok(r) => {
            m.fail(format!("{kind} {}: status {}", req.path, r.status));
            None
        }
        Err(e) => {
            m.fail(format!("{kind} {}: {e}", req.path));
            None
        }
    }
}

enum Stop {
    /// Keep cycling through the requests until the time is up.
    After(Duration),
    /// Send each request exactly once.
    Once,
}

/// Drive `requests` from [`CLIENTS`] connections, each sending its next
/// request only after the previous reply. Every body must equal the
/// expected body for its key. Returns `(requests sent, wall seconds)`.
fn closed_loop(
    rec: &Recorder,
    addr: SocketAddr,
    requests: &[Request],
    expected: &BTreeMap<String, Vec<u8>>,
    stop: Stop,
    m: &mut Measured,
) -> (usize, f64) {
    let start = Instant::now();
    let results: Mutex<Vec<(&'static str, Result<f64, String>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let results = &results;
            let stop = &stop;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut i = client;
                loop {
                    match stop {
                        Stop::After(budget) if start.elapsed() >= *budget => break,
                        Stop::Once if i >= requests.len() => break,
                        _ => {}
                    }
                    let req = &requests[i % requests.len()];
                    i += CLIENTS;
                    let t0 = Instant::now();
                    let resp = rec.time("http.request", || client::post(addr, req.path, &req.body));
                    let secs = t0.elapsed().as_secs_f64();
                    rec.count("http.requests", 1.0);
                    let outcome = match resp {
                        Ok(r) if r.status != 200 => Err(format!("status {}", r.status)),
                        Ok(r) => match expected.get(&req.key()) {
                            Some(want) if *want == r.body => Ok(secs),
                            Some(_) => Err("body differs from the first reply for its key".into()),
                            None => Err("no first reply to compare with".into()),
                        },
                        Err(e) => Err(e.to_string()),
                    };
                    local.push((req.kind, outcome));
                }
                results.lock().expect("results lock").extend(local);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let results = results.into_inner().expect("results lock");
    let n = results.len();
    for (kind, outcome) in results {
        match outcome {
            Ok(s) => m.op(kind, s),
            Err(e) => m.fail(format!("{kind}: {e}")),
        }
    }
    (n, secs)
}

/// The cold body of the first key must equal the payload computed locally
/// from the uploaded bytes, through the same public calls.
fn check_cold_body(
    m: &mut Measured,
    upload: &[u8],
    digest: Option<&String>,
    expected: &BTreeMap<String, Vec<u8>>,
) {
    let Some(digest) = digest else { return };
    let result = (|| -> Result<bool, String> {
        let trace = netloc_mpi::parse_trace_columnar(upload).map_err(|e| e.to_string())?;
        let ing = netloc_core::ingest_trace(trace);
        let topo = TOPOLOGIES[0];
        let spec = topo
            .parse::<TopologySpec>()
            .map_err(|e| e.to_string())?
            .resolve(ing.trace.num_ranks);
        let built = spec.build().map_err(|e| e.to_string())?;
        let routed = RoutedTopology::auto(built.as_ref());
        let resp = netloc_service::payload::analyze(
            &ing.trace,
            &ing.matrix,
            digest.clone(),
            &spec,
            &MappingSpec::Consecutive,
            &routed,
        )
        .map_err(|e| e.to_string())?;
        let key = Request::post(
            "",
            "/v1/analyze",
            format!("{{\"trace_digest\": \"{digest}\", \"topology\": \"{topo}\"}}"),
        )
        .key();
        Ok(expected.get(&key) == Some(&canonical_json(&resp).into_bytes()))
    })();
    match result {
        Ok(same) => m.check(same, || {
            "cold analyze body differs from the local computation".into()
        }),
        Err(e) => m.fail(format!("cold-body check: {e}")),
    }
}

/// Submit a job grid over `topologies`, poll until every cell is done,
/// then check each cell's payload against the interactive analyze body
/// for its key.
fn run_job(rec: &Recorder, addr: SocketAddr, topologies: &[&str], m: &mut Measured) {
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let body = format!(
        "{{\"topologies\": [{}], \"mappings\": [{}], \"workloads\": [{}]}}",
        list(topologies),
        list(&JOB_MAPPINGS),
        list(&JOB_WORKLOADS)
    );
    let t0 = Instant::now();
    let submitted = rec.time("http.request", || client::post(addr, "/v1/jobs", &body));
    rec.count("http.requests", 1.0);
    let id = match ok_json(submitted).map(|v| str_at(&v, "id")) {
        Ok(Some(id)) => id,
        Ok(None) => return m.fail("job submit: no id".into()),
        Err(e) => return m.fail(format!("job submit: {e}")),
    };
    // Poll the status alone; the payloads are read once, after the clock.
    loop {
        let resp = rec.time("http.request", || {
            client::get(addr, &format!("/v1/jobs/{id}?from=0&limit=1"))
        });
        rec.count("http.requests", 1.0);
        match ok_json(resp) {
            Ok(v) if str_at(&v, "status").as_deref() == Some("complete") => break,
            Ok(_) if t0.elapsed() < JOB_DEADLINE => std::thread::sleep(JOB_POLL),
            Ok(_) => return m.fail("job did not complete before the deadline".into()),
            Err(e) => return m.fail(format!("job poll: {e}")),
        }
    }
    m.op("job_grid", t0.elapsed().as_secs_f64());

    let progress = match ok_json(client::get(
        addr,
        &format!("/v1/jobs/{id}?from=0&limit=4096"),
    )) {
        Ok(v) => v,
        Err(e) => return m.fail(format!("job progress: {e}")),
    };
    let grid = match GridSpec::parse(topologies, &JOB_MAPPINGS, &canonical_workloads()) {
        Ok(g) => g,
        Err(e) => return m.fail(format!("job grid: {e}")),
    };
    let cells = match field(&progress, "cells") {
        Some(Value::Array(cells)) => cells.clone(),
        _ => return m.fail("job progress without cells".into()),
    };
    m.check(cells.len() as u64 == grid.cell_count(), || {
        format!(
            "job returned {} of {} cells",
            cells.len(),
            grid.cell_count()
        )
    });
    for entry in &cells {
        let index = match field(entry, "index") {
            Some(Value::UInt(i)) => *i as u64,
            _ => return m.fail("job cell without index".into()),
        };
        let (Some(cell), Some(payload)) = (grid.cell(index), field(entry, "payload")) else {
            return m.fail(format!("job cell {index} unknown or without payload"));
        };
        let body = format!(
            "{{\"workload\": \"{}\", \"topology\": \"{}\", \"mapping\": \"{}\"}}",
            cell.workload, cell.topology, cell.mapping
        );
        let interactive = ok_json(client::post(addr, "/v1/analyze", &body));
        m.check(interactive.as_ref() == Ok(payload), || {
            format!("job cell {index} differs from the interactive analyze body")
        });
    }
}

fn canonical_workloads() -> Vec<String> {
    JOB_WORKLOADS
        .iter()
        .map(|w| {
            netloc_workloads::parse_workload_spec(w)
                .map(|(_, _, canonical)| canonical)
                .unwrap_or_else(|_| w.to_string())
        })
        .collect()
}

/// Numeric leaves of a `/v1/statusz` body, by dotted path.
type Snapshot = BTreeMap<String, f64>;

fn flatten(prefix: &str, v: &Value, out: &mut Snapshot) {
    match v {
        Value::Object(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, v, out);
            }
        }
        Value::UInt(n) => {
            out.insert(prefix.to_string(), *n as f64);
        }
        Value::Int(n) => {
            out.insert(prefix.to_string(), *n as f64);
        }
        Value::Float(x) => {
            out.insert(prefix.to_string(), *x);
        }
        _ => {}
    }
}

fn statusz(addr: SocketAddr) -> Snapshot {
    let mut out = Snapshot::new();
    if let Ok(v) = ok_json(client::get(addr, "/v1/statusz")) {
        flatten("", &v, &mut out);
    }
    out
}

fn delta(before: &Snapshot, after: &Snapshot, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Counter deltas summed over the server's lifetimes in one pass (a
/// restart zeroes the counters), plus the last snapshot for gauges.
#[derive(Default)]
struct Counters {
    begin: Snapshot,
    sums: Snapshot,
    last: Snapshot,
}

impl Counters {
    fn begin(&mut self, addr: SocketAddr) {
        self.begin = statusz(addr);
    }

    fn end(&mut self, addr: SocketAddr) {
        let end = statusz(addr);
        for key in end.keys() {
            *self.sums.entry(key.clone()).or_default() += delta(&self.begin, &end, key);
        }
        self.last = end;
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, mi) = (self.sum(hits), self.sum(misses));
        if h + mi > 0.0 {
            h / (h + mi)
        } else {
            0.0
        }
    }

    fn report(&self, m: &mut Measured) {
        let gauge = |key: &str| self.last.get(key).copied().unwrap_or(0.0);
        let l = &mut m.layers;
        l.insert("service.ingest_events", self.sum("ingest_events"));
        l.insert("service.handler_panics", self.sum("handler_panics"));
        l.insert(
            "cache.result_hit_ratio",
            self.ratio("result_cache.hits", "result_cache.misses"),
        );
        l.insert("cache.result_evictions", self.sum("result_cache.evictions"));
        l.insert(
            "cache.registry_hit_ratio",
            self.ratio("registry.hits", "registry.misses"),
        );
        l.insert(
            "topology.route_tables_built",
            self.sum("route_tables_built"),
        );
        l.insert(
            "topology.route_tables_from_disk",
            self.sum("route_tables_from_disk"),
        );
        l.insert("store.disk_hits", self.sum("disk.hits"));
        l.insert("store.writes", self.sum("disk.writes"));
        l.insert("store.write_errors", self.sum("disk.write_errors"));
        l.insert("store.quarantined", self.sum("disk.quarantined"));
        l.insert("store.table_bytes", gauge("disk.tables.bytes"));
        l.insert(
            "queue.rejected",
            self.sum("requests_rejected")
                + self.sum("rate_limited")
                + self.sum("shed_timeouts")
                + self.sum("shed_inflight"),
        );
        l.insert("jobs.cells_completed", gauge("jobs.cells_completed"));
        l.insert("jobs.cells_recomputed", gauge("jobs.cells_recomputed"));
    }
}
