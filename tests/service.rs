//! Integration tests for the `netloc-service` analysis server: concurrent
//! byte-identity against direct library calls, cache accounting,
//! backpressure, and graceful shutdown.

use netloc::core::canon::{canonical_json, content_digest, digest_hex};
use netloc::core::{analyze_network_routed, TrafficMatrix};
use netloc::mpi::{parse_trace, write_trace, CollectiveOp, Payload, Rank, TraceBuilder};
use netloc::service::http::json_escape;
use netloc::service::payload::{AnalyzeResponse, TraceMeta};
use netloc::service::store::Kind;
use netloc::service::{RunningServer, Server, ServerConfig};
use netloc::testkit::client;
use netloc::topology::{MappingSpec, RoutedTopology, TopologySpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn start(config: ServerConfig) -> RunningServer {
    Server::start(config).expect("server starts on an ephemeral port")
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_capacity: 32,
        ..ServerConfig::default()
    }
}

/// A 27-rank trace with enough structure to exercise routing and the
/// collective translation.
fn sample_trace_text() -> String {
    let mut b = TraceBuilder::new("itest", 27).exec_time_s(3.0);
    for r in 0..27u32 {
        b.send(Rank(r), Rank((r * 5 + 1) % 27), 10_000 + r as u64, 2);
    }
    b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(4096), 3);
    write_trace(&b.build())
}

fn analyze_body(trace_text: &str, topology: &str, mapping: &str) -> String {
    format!(
        "{{\"trace\": {}, \"topology\": \"{topology}\", \"mapping\": \"{mapping}\"}}",
        json_escape(trace_text)
    )
}

/// The expected `/v1/analyze` bytes, computed through a *direct*
/// `analyze_network_routed` call plus the shared payload/canonicalizer —
/// no service code paths involved in the replay itself.
fn expected_analyze_bytes(trace_text: &str, topology: &str, mapping: &str) -> Vec<u8> {
    let trace = parse_trace(trace_text).unwrap();
    let topo_spec: TopologySpec = topology.parse().unwrap();
    let topo_spec = topo_spec.resolve(trace.num_ranks);
    let map_spec: MappingSpec = mapping.parse().unwrap();
    let topo = topo_spec.build().unwrap();
    let routed = RoutedTopology::auto(topo.as_ref());
    let tm = TrafficMatrix::from_trace_full(&trace);
    let m = map_spec
        .build_with_traffic(trace.num_ranks as usize, &routed, &tm.undirected_entries())
        .unwrap();
    let report = analyze_network_routed(&routed, &m, &tm);
    let digest = digest_hex(content_digest(trace_text.as_bytes()));
    let resp = AnalyzeResponse::from_report(
        TraceMeta::new(&trace, digest),
        &topo_spec,
        topo.num_nodes(),
        &map_spec,
        trace.exec_time_s,
        &report,
    );
    canonical_json(&resp).into_bytes()
}

/// Pull an unsigned counter out of a (possibly nested) JSON object.
fn json_counter(body: &str, path: &[&str]) -> u64 {
    let mut value = serde_json::from_str(body).expect("valid JSON");
    for key in path {
        let serde::Value::Object(fields) = value else {
            panic!("expected object at '{key}'")
        };
        value = fields
            .into_iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing field '{key}'"))
            .1;
    }
    match value {
        serde::Value::UInt(n) => n as u64,
        serde::Value::Int(n) => n as u64,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_byte_identical_with_cache_accounting() {
    let server = start(test_config());
    let addr = server.addr();
    let trace_text = sample_trace_text();
    let body = analyze_body(&trace_text, "hyperx:3x3,3", "consecutive");
    let expected = expected_analyze_bytes(&trace_text, "hyperx:3x3,3", "consecutive");

    // Warm-up: the one and only miss for this key.
    let warm = client::post(addr, "/v1/analyze", &body).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body_str());
    assert_eq!(warm.body, expected, "fresh response != direct library call");

    // ≥8 overlapping clients, same request: every byte identical, all
    // served from the result cache.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || client::post(addr, "/v1/analyze", &body).unwrap())
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected, "concurrent response diverged");
    }

    let statusz = client::get(addr, "/v1/statusz").unwrap();
    assert_eq!(statusz.status, 200);
    let s = statusz.body_str();
    assert_eq!(
        json_counter(s, &["result_cache", "misses"]),
        1,
        "exactly the warm-up misses: {s}"
    );
    assert_eq!(
        json_counter(s, &["result_cache", "hits"]),
        8,
        "all 8 concurrent requests hit: {s}"
    );
    assert_eq!(
        json_counter(s, &["route_tables_built"]),
        1,
        "one route table for one distinct spec: {s}"
    );
    assert_eq!(server.state().topo_cache.tables_built(), 1);

    // Two spellings of one topology share a table (canonical keying), and
    // a genuinely new spec builds exactly one more.
    for spelling in ["hyperx:04x4,2", "hyperx:4x4,2", "hyperx:4x4, 2"] {
        let resp = client::post(
            addr,
            "/v1/analyze",
            &analyze_body(&trace_text, spelling, "random:5"),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(
            resp.body,
            expected_analyze_bytes(&trace_text, spelling, "random:5"),
            "spelling '{spelling}' diverged"
        );
    }
    assert_eq!(
        server.state().topo_cache.tables_built(),
        2,
        "canonicalization must collapse spellings to one table"
    );
    let s2 = client::get(addr, "/v1/statusz").unwrap();
    // The three spellings canonicalize to one cache key: 1 miss + 2 hits.
    assert_eq!(json_counter(s2.body_str(), &["result_cache", "misses"]), 2);
    assert_eq!(json_counter(s2.body_str(), &["result_cache", "hits"]), 10);

    server.shutdown();
}

#[test]
fn sweep_stats_metrics_and_workload_endpoints() {
    let server = start(test_config());
    let addr = server.addr();
    let trace_text = sample_trace_text();

    let sweep_body = format!(
        "{{\"trace\": {}, \"topology\": \"torus:3,3,3\", \"mappings\": [\"consecutive\", \"random:3\"]}}",
        json_escape(&trace_text)
    );
    let sweep = client::post(addr, "/v1/sweep", &sweep_body).unwrap();
    assert_eq!(sweep.status, 200, "{}", sweep.body_str());
    let s = sweep.body_str();
    assert!(s.contains("\"mapping\": \"consecutive\""), "{s}");
    assert!(s.contains("\"mapping\": \"random:3\""), "{s}");
    assert!(s.contains("\"topology\": \"torus:3,3,3\""), "{s}");

    // /v1/stats must serve the exact bytes `netloc stats --json` prints.
    let trace = parse_trace(&trace_text).unwrap();
    let stats_expected =
        canonical_json(&netloc::service::payload::StatsResponse::from_trace(&trace));
    let stats_body = format!("{{\"trace\": {}}}", json_escape(&trace_text));
    let stats = client::post(addr, "/v1/stats", &stats_body).unwrap();
    assert_eq!(stats.status, 200);
    assert_eq!(stats.body_str(), stats_expected);

    let metrics_expected = canonical_json(&netloc::service::payload::MetricsResponse::from_trace(
        &trace,
    ));
    let metrics = client::post(addr, "/v1/metrics", &stats_body).unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.body_str(), metrics_expected);

    // Generated workloads skip the trace upload entirely.
    let workload = client::post(
        addr,
        "/v1/analyze",
        "{\"workload\": \"lulesh:64\", \"topology\": \"auto\"}",
    )
    .unwrap();
    assert_eq!(workload.status, 200, "{}", workload.body_str());
    assert!(workload.body_str().contains("\"app\": \"EXMATEX LULESH\""));

    server.shutdown();
}

#[test]
fn malformed_requests_get_precise_errors() {
    let server = start(ServerConfig {
        max_body_bytes: 64 * 1024,
        ..test_config()
    });
    let addr = server.addr();

    let health = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_str().contains("\"ok\""));

    // Broken JSON → 400 with the parser's byte offset.
    let bad_json = client::post(addr, "/v1/analyze", "{\"trace\": ").unwrap();
    assert_eq!(bad_json.status, 400);
    assert!(
        bad_json.body_str().contains("byte"),
        "error must carry a byte offset: {}",
        bad_json.body_str()
    );

    // Valid JSON, broken trace → 400 citing the trace parser.
    let bad_trace =
        client::post(addr, "/v1/analyze", "{\"trace\": \"not a dumpi trace\"}").unwrap();
    assert_eq!(bad_trace.status, 400);
    assert!(bad_trace.body_str().contains("bad trace"));

    // Bad topology spec → 400 echoing the spec grammar, not a panic.
    let trace_text = sample_trace_text();
    let bad_spec = client::post(
        addr,
        "/v1/analyze",
        &analyze_body(&trace_text, "torus:0,0,0", "consecutive"),
    )
    .unwrap();
    assert_eq!(bad_spec.status, 400);

    // Topology too small for the ranks → 400, not a panic.
    let overfull = client::post(
        addr,
        "/v1/analyze",
        &analyze_body(&trace_text, "torus:2,2,2", "consecutive"),
    )
    .unwrap();
    assert_eq!(overfull.status, 400, "{}", overfull.body_str());

    // Oversized body → 413 before any parsing.
    let huge = format!("{{\"trace\": \"{}\"}}", "x".repeat(100 * 1024));
    let too_large = client::post(addr, "/v1/analyze", &huge).unwrap();
    assert_eq!(too_large.status, 413);

    assert_eq!(client::post(addr, "/v1/healthz", "{}").unwrap().status, 405);
    assert_eq!(client::get(addr, "/v1/nothing").unwrap().status, 404);

    server.shutdown();
}

#[test]
fn saturated_queue_returns_429_and_retry_succeeds() {
    // One slow worker + a one-slot queue: overlapping requests must be
    // bounced with 429 immediately instead of piling up.
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        handler_delay: Duration::from_millis(300),
        ..test_config()
    });
    let addr = server.addr();

    let handles: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || client::get(addr, "/v1/healthz").unwrap()))
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let ok = responses.iter().filter(|r| r.status == 200).count();
    let busy = responses.iter().filter(|r| r.status == 429).count();
    assert_eq!(ok + busy, 8, "no hangs, no other statuses");
    assert!(ok >= 1, "the in-service request completes");
    assert!(busy >= 1, "overload must be visible as 429");
    for r in responses.iter().filter(|r| r.status == 429) {
        assert_eq!(
            r.header("Retry-After"),
            Some("1"),
            "429 must carry Retry-After"
        );
    }

    // After the burst drains, the same request succeeds on retry.
    let retry = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(retry.status, 200, "retry after backpressure must succeed");

    let statusz = client::get(addr, "/v1/statusz").unwrap();
    assert!(json_counter(statusz.body_str(), &["requests_rejected"]) >= busy as u64);

    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        handler_delay: Duration::from_millis(300),
        ..test_config()
    });
    let addr = server.addr();

    // Get a request accepted (and sitting in the slow worker)…
    let in_flight = std::thread::spawn(move || client::get(addr, "/v1/healthz").unwrap());
    std::thread::sleep(Duration::from_millis(100));

    // …then shut down. The drain guarantee: the request still completes.
    server.shutdown();
    let resp = in_flight.join().unwrap();
    assert_eq!(resp.status, 200, "in-flight request dropped by shutdown");
}

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netloc-service-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn trace_registry_round_trip_is_byte_identical_with_inline_traces() {
    let server = start(test_config());
    let addr = server.addr();
    let trace_text = sample_trace_text();
    let digest = digest_hex(content_digest(trace_text.as_bytes()));

    // Upload once; the server must answer with the canonical digest.
    let reg = client::post(addr, "/v1/traces", &trace_text).unwrap();
    assert_eq!(reg.status, 200, "{}", reg.body_str());
    assert!(
        reg.body_str()
            .contains(&format!("\"digest\": \"{digest}\"")),
        "{}",
        reg.body_str()
    );
    assert!(
        reg.body_str().contains("\"ranks\": 27"),
        "{}",
        reg.body_str()
    );

    // Analyze by digest == analyze inline, byte for byte (same cache key,
    // same canonical bytes).
    let inline = client::post(
        addr,
        "/v1/analyze",
        &analyze_body(&trace_text, "torus:3,3,3", "consecutive"),
    )
    .unwrap();
    assert_eq!(inline.status, 200, "{}", inline.body_str());
    let by_digest_body = format!(
        "{{\"trace_digest\": \"{digest}\", \"topology\": \"torus:3,3,3\", \"mapping\": \"consecutive\"}}"
    );
    let by_digest = client::post(addr, "/v1/analyze", &by_digest_body).unwrap();
    assert_eq!(by_digest.status, 200, "{}", by_digest.body_str());
    assert_eq!(
        by_digest.body, inline.body,
        "digest-referenced analysis must be byte-identical to inline"
    );

    // Unknown digest → structured 404, not a panic or a bare string.
    let unknown = client::post(
        addr,
        "/v1/analyze",
        "{\"trace_digest\": \"00000000deadbeef\", \"topology\": \"torus:3,3,3\"}",
    )
    .unwrap();
    assert_eq!(unknown.status, 404, "{}", unknown.body_str());
    assert!(
        unknown.body_str().contains("\"code\": \"unknown_digest\""),
        "{}",
        unknown.body_str()
    );

    // Ambiguous source → 400.
    let both = format!(
        "{{\"trace\": {}, \"trace_digest\": \"{digest}\"}}",
        json_escape(&trace_text)
    );
    assert_eq!(
        client::post(addr, "/v1/analyze", &both).unwrap().status,
        400
    );

    // Registry observability: the upload is one entry, the by-digest
    // analysis hit it once.
    let s = client::get(addr, "/v1/statusz").unwrap();
    let s = s.body_str();
    assert_eq!(json_counter(s, &["registry", "entries"]), 1, "{s}");
    assert!(json_counter(s, &["registry", "bytes"]) >= trace_text.len() as u64);
    assert_eq!(json_counter(s, &["registry", "hits"]), 1, "{s}");
    server.shutdown();
}

#[test]
fn persistent_data_dir_survives_restart_with_disk_hits() {
    let dir = tmpdir("persist");
    let trace_text = sample_trace_text();
    let body = analyze_body(&trace_text, "hyperx:3x3,3", "consecutive");
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        ..test_config()
    };

    let server = start(config());
    let first = client::post(server.addr(), "/v1/analyze", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body_str());
    server.shutdown(); // write-behind store is flushed here

    // A fresh process-equivalent: empty memory caches, same data dir.
    let server = start(config());
    let addr = server.addr();
    let second = client::post(addr, "/v1/analyze", &body).unwrap();
    assert_eq!(second.status, 200, "{}", second.body_str());
    assert_eq!(
        second.body, first.body,
        "disk-served result must be byte-identical"
    );

    // A result-cache hit short-circuits before any routing; a *new*
    // result key on the same topology exercises the table restore path.
    let other = client::post(
        addr,
        "/v1/analyze",
        &analyze_body(&trace_text, "hyperx:3x3,3", "random:5"),
    )
    .unwrap();
    assert_eq!(other.status, 200, "{}", other.body_str());

    let s = client::get(addr, "/v1/statusz").unwrap();
    let s = s.body_str();
    assert!(
        json_counter(s, &["disk", "hits"]) >= 1,
        "result must come from disk: {s}"
    );
    assert_eq!(json_counter(s, &["disk", "quarantined"]), 0, "{s}");
    assert_eq!(
        json_counter(s, &["route_tables_from_disk"]),
        1,
        "the route table must be restored, not rebuilt: {s}"
    );
    assert_eq!(json_counter(s, &["route_tables_built"]), 0, "{s}");
    assert_eq!(
        server.state().result_cache.stats().misses,
        2,
        "cold memory: both lookups missed (one refilled from disk)"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The torus has no router symmetry, so the service routes it directly:
/// no table is built, cached or persisted, and the bytes are those of the
/// direct library call and of a fresh server.
#[test]
fn torus_analyze_builds_no_route_table() {
    let dir = tmpdir("torus-direct");
    let trace_text = sample_trace_text();
    let body = analyze_body(&trace_text, "torus:3,3,3", "consecutive");
    let server = start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..test_config()
    });
    let resp = client::post(server.addr(), "/v1/analyze", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(
        resp.body,
        expected_analyze_bytes(&trace_text, "torus:3,3,3", "consecutive")
    );
    let s = client::get(server.addr(), "/v1/statusz").unwrap();
    let s = s.body_str();
    assert_eq!(json_counter(s, &["route_tables_built"]), 0, "{s}");
    assert_eq!(json_counter(s, &["route_table_specs"]), 0, "{s}");
    server.shutdown();
    let tables = std::fs::read_dir(dir.join(Kind::Table.dir()))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(tables, 0, "no route table persisted");

    let fresh_server = start(test_config());
    let fresh = client::post(fresh_server.addr(), "/v1/analyze", &body).unwrap();
    assert_eq!(fresh.body, resp.body, "same bytes as a fresh server");
    fresh_server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_client_rate_limit_sheds_with_structured_429() {
    let server = start(ServerConfig {
        rate_limit_per_s: 1.0,
        rate_limit_burst: 3.0,
        ..test_config()
    });
    let addr = server.addr();

    // The burst passes; the next connection from the same client is shed
    // with the structured rate-limit error and a Retry-After hint.
    let mut statuses = Vec::new();
    for _ in 0..6 {
        statuses.push(client::get(addr, "/v1/healthz").unwrap());
    }
    let ok = statuses.iter().filter(|r| r.status == 200).count();
    let limited: Vec<_> = statuses.iter().filter(|r| r.status == 429).collect();
    assert_eq!(ok, 3, "exactly the burst is admitted");
    assert_eq!(limited.len(), 3, "the rest is rate limited");
    for r in &limited {
        assert!(
            r.body_str().contains("\"code\": \"rate_limited\""),
            "{}",
            r.body_str()
        );
        let retry_after: u64 = r
            .header("Retry-After")
            .expect("429 carries Retry-After")
            .parse()
            .expect("numeric Retry-After");
        assert!(retry_after >= 1);
    }
    let state = server.state();
    assert_eq!(state.rate_limited.load(Ordering::Relaxed), 3);
    let stats = state.limiter.stats();
    assert!(stats.enabled);
    assert_eq!(stats.limited, 3);
    assert_eq!(stats.clients_tracked, 1, "one loopback client");
    server.shutdown();
}

#[test]
fn statusz_reports_the_admission_and_durability_counters() {
    let server = start(test_config());
    let addr = server.addr();
    let s = client::get(addr, "/v1/statusz").unwrap();
    let s = s.body_str();
    // The hardening counters are all present from the first scrape, in
    // their quiescent state (memory-only server, nothing shed).
    for (path, expected) in [
        (&["rate_limited"][..], 0),
        (&["shed_timeouts"][..], 0),
        (&["shed_inflight"][..], 0),
        (&["handler_panics"][..], 0),
        (&["inflight_bytes"][..], 0),
        (&["registry", "entries"][..], 0),
        (&["rate_limit", "limited"][..], 0),
        (&["route_tables_from_disk"][..], 0),
    ] {
        assert_eq!(json_counter(s, path), expected, "{path:?} in {s}");
    }
    assert!(json_counter(s, &["inflight_limit"]) > 0, "{s}");
    assert!(
        s.contains("\"disk\": null"),
        "memory-only must report no disk: {s}"
    );
    server.shutdown();
}

#[test]
fn shutdown_endpoint_flags_the_server_loop() {
    let server = start(test_config());
    let addr = server.addr();
    assert!(!server.shutdown_requested());
    let resp = client::post(addr, "/v1/shutdown", "{}").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("shutting down"));
    assert!(
        server.shutdown_requested(),
        "the serve loop polls this flag to exit"
    );
    server.shutdown();
}

fn statusz_counter(addr: std::net::SocketAddr, path: &[&str]) -> u64 {
    let resp = client::get(addr, "/v1/statusz").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    json_counter(resp.body_str(), path)
}

/// Register `text` via `POST /v1/traces`; returns its digest.
fn register(addr: std::net::SocketAddr, text: &str) -> String {
    let reg = client::post(addr, "/v1/traces", text).unwrap();
    assert_eq!(reg.status, 200, "{}", reg.body_str());
    digest_hex(content_digest(text.as_bytes()))
}

/// A trace with a collective on a sub-communicator, so its stats report
/// `global_only: false` — the one stats field that reads events.
fn sub_comm_trace_text(app: &str) -> String {
    let mut b = TraceBuilder::new(app, 27).exec_time_s(2.0);
    for r in 0..27u32 {
        b.send(Rank(r), Rank((r + 9) % 27), 2048, 3);
    }
    let half = b.register_comm((14..27).map(Rank).collect());
    b.collective_on(
        CollectiveOp::Allreduce,
        half,
        None,
        Payload::Uniform(512),
        2,
    );
    b.collective(CollectiveOp::Barrier, None, Payload::Uniform(0), 1);
    write_trace(&b.build())
}

#[test]
fn digest_hits_answer_without_re_ingesting() {
    let server = start(test_config());
    let addr = server.addr();
    let text = sub_comm_trace_text("slim-stats");
    let digest = register(addr, &text);
    let requests = [
        (
            "/v1/analyze",
            format!("{{\"trace_digest\": \"{digest}\", \"topology\": \"auto\"}}"),
        ),
        ("/v1/stats", format!("{{\"trace_digest\": \"{digest}\"}}")),
        ("/v1/metrics", format!("{{\"trace_digest\": \"{digest}\"}}")),
    ];
    let first: Vec<Vec<u8>> = requests
        .iter()
        .map(|(path, body)| {
            let resp = client::post(addr, path, body).unwrap();
            assert_eq!(resp.status, 200, "{path}: {}", resp.body_str());
            resp.body
        })
        .collect();
    // The registration decoded the trace; the first miss folded it once,
    // and the other two endpoints shared that fold.
    assert_eq!(statusz_counter(addr, &["traces_ingested"]), 2);
    assert_eq!(statusz_counter(addr, &["ingest_cache", "misses"]), 1);

    // The trace-only bodies equal the full-trace library calls, even
    // though the ingest cache keeps no events.
    let trace = parse_trace(&text).unwrap();
    assert_eq!(
        first[1],
        canonical_json(&netloc::service::payload::StatsResponse::from_trace(&trace)).into_bytes()
    );
    assert!(String::from_utf8_lossy(&first[1]).contains("\"global_only\": false"));
    assert_eq!(
        first[2],
        canonical_json(&netloc::service::payload::MetricsResponse::from_trace(
            &trace
        ))
        .into_bytes()
    );

    for _ in 0..3 {
        for ((path, body), want) in requests.iter().zip(&first) {
            let resp = client::post(addr, path, body).unwrap();
            assert_eq!(resp.status, 200, "{path}: {}", resp.body_str());
            assert_eq!(&resp.body, want, "{path} hit diverged");
        }
    }
    assert_eq!(
        statusz_counter(addr, &["traces_ingested"]),
        2,
        "result-cache hits must not ingest"
    );
    assert_eq!(statusz_counter(addr, &["ingest_cache", "entries"]), 1);

    // A sweep after the analyze reuses the same fold.
    let sweep = client::post(
        addr,
        "/v1/sweep",
        &format!(
            "{{\"trace_digest\": \"{digest}\", \"topology\": \"auto\", \"mappings\": [\"consecutive\", \"random:2\"]}}"
        ),
    )
    .unwrap();
    assert_eq!(sweep.status, 200, "{}", sweep.body_str());
    assert_eq!(statusz_counter(addr, &["traces_ingested"]), 2);
    server.shutdown();
}

#[test]
fn restarted_auto_topology_hit_by_digest_ingests_nothing() {
    let dir = tmpdir("digest-restart");
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        ..test_config()
    };
    let text = sample_trace_text();
    let server = start(config());
    let digest = register(server.addr(), &text);
    let body = format!("{{\"trace_digest\": \"{digest}\", \"topology\": \"auto\"}}");
    let first = client::post(server.addr(), "/v1/analyze", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body_str());
    server.shutdown();

    // The result sits under the historical key, `auto` resolved, so data
    // dirs written before key-first lookups keep hitting.
    let auto: TopologySpec = "auto".parse().unwrap();
    let key = format!("analyze|{digest}|{}|consecutive", auto.resolve(27));
    let store = netloc::service::DiskStore::open(&dir).unwrap();
    assert!(
        store.contains(netloc::service::store::Kind::Result, &key),
        "{key}"
    );
    drop(store);

    let server = start(config());
    let addr = server.addr();
    let second = client::post(addr, "/v1/analyze", &body).unwrap();
    assert_eq!(second.status, 200, "{}", second.body_str());
    assert_eq!(second.body, first.body, "disk hit must be byte-identical");
    assert_eq!(
        statusz_counter(addr, &["traces_ingested"]),
        0,
        "'auto' must resolve from the metadata record, not an ingest"
    );
    assert_eq!(statusz_counter(addr, &["ingest_cache", "misses"]), 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evicted_registry_entry_is_404_even_with_cached_results() {
    let (a, b) = (sample_trace_text(), sub_comm_trace_text("other"));
    // Room for either trace, never both: registering the second evicts
    // the first.
    let server = start(ServerConfig {
        registry_cache_bytes: a.len().max(b.len()) + 16,
        ..test_config()
    });
    let addr = server.addr();
    let digest_a = register(addr, &a);
    let body_a = format!("{{\"trace_digest\": \"{digest_a}\", \"topology\": \"torus:3,3,3\"}}");
    let cached = client::post(addr, "/v1/analyze", &body_a).unwrap();
    assert_eq!(cached.status, 200, "{}", cached.body_str());

    let digest_b = register(addr, &b);
    assert_eq!(statusz_counter(addr, &["registry", "entries"]), 1);
    let gone = client::post(addr, "/v1/analyze", &body_a).unwrap();
    assert_eq!(gone.status, 404, "{}", gone.body_str());
    assert!(
        gone.body_str().contains("\"code\": \"unknown_digest\""),
        "{}",
        gone.body_str()
    );
    let live = client::post(
        addr,
        "/v1/stats",
        &format!("{{\"trace_digest\": \"{digest_b}\"}}"),
    )
    .unwrap();
    assert_eq!(live.status, 200, "{}", live.body_str());
    server.shutdown();
}

#[test]
fn concurrent_cold_requests_for_one_digest_ingest_once() {
    let server = start(test_config());
    let addr = server.addr();
    let digest = register(addr, &sample_trace_text());
    let before = statusz_counter(addr, &["traces_ingested"]);
    // Eight distinct result keys: every request misses the result cache
    // and needs the fold at the same moment.
    let handles: Vec<_> = ["torus:3,3,3", "mesh:3,3,3", "torus:4,4,4", "mesh:4,4,4"]
        .iter()
        .flat_map(|topo| ["consecutive", "random:1"].map(|map| (*topo, map)))
        .map(|(topo, map)| {
            let body = format!(
                "{{\"trace_digest\": \"{digest}\", \"topology\": \"{topo}\", \"mapping\": \"{map}\"}}"
            );
            std::thread::spawn(move || client::post(addr, "/v1/analyze", &body).unwrap())
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    }
    assert_eq!(
        statusz_counter(addr, &["traces_ingested"]) - before,
        1,
        "one fold per digest, however many requests race for it"
    );
    server.shutdown();
}

#[test]
fn windowed_bodies_match_a_fresh_server() {
    let text = sub_comm_trace_text("windowed");
    let requests = |digest: &str| {
        [
            (
                "/v1/analyze",
                format!(
                    "{{\"trace_digest\": \"{digest}\", \"topology\": \"torus:3,3,3\", \"windows\": 4}}"
                ),
            ),
            (
                "/v1/stats",
                format!("{{\"trace_digest\": \"{digest}\", \"windows\": 3}}"),
            ),
        ]
    };

    // Warm server: the slim fold is cached before the windowed requests,
    // which then decode their events from the registered bytes.
    let warm = start(test_config());
    let digest = register(warm.addr(), &text);
    let plain = client::post(
        warm.addr(),
        "/v1/metrics",
        &format!("{{\"trace_digest\": \"{digest}\"}}"),
    )
    .unwrap();
    assert_eq!(plain.status, 200, "{}", plain.body_str());
    let warm_bodies: Vec<Vec<u8>> = requests(&digest)
        .iter()
        .map(|(path, body)| client::post(warm.addr(), path, body).unwrap().body)
        .collect();
    warm.shutdown();

    // Both equal the payloads computed from the full trace.
    let trace = parse_trace(&text).unwrap();
    let spec: TopologySpec = "torus:3,3,3".parse().unwrap();
    let topo = spec.build().unwrap();
    let routed = RoutedTopology::auto(topo.as_ref());
    let direct = netloc::service::payload::analyze_windowed(
        &trace,
        &TrafficMatrix::from_trace_full(&trace),
        digest.clone(),
        &spec,
        &MappingSpec::Consecutive,
        &routed,
        4,
    )
    .unwrap();
    assert_eq!(warm_bodies[0], canonical_json(&direct).into_bytes());
    let stats = netloc::service::payload::StatsResponse::from_trace(&trace)
        .with_windows(&netloc::core::windowed_ingest(&trace, 3));
    assert_eq!(warm_bodies[1], canonical_json(&stats).into_bytes());

    let fresh = start(test_config());
    register(fresh.addr(), &text);
    for ((path, body), want) in requests(&digest).iter().zip(&warm_bodies) {
        let resp = client::post(fresh.addr(), path, body).unwrap();
        assert_eq!(resp.status, 200, "{path}: {}", resp.body_str());
        assert!(resp.body_str().contains("\"windows\": ["), "{path}");
        assert_eq!(&resp.body, want, "{path}: windowed body diverged");
    }
    fresh.shutdown();
}
