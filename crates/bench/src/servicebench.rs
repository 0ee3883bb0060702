//! Tracked analysis-server benchmark (`repro bench-service`).
//!
//! Characterizes the durable service layer end to end, through real
//! sockets against an in-process [`netloc_service::Server`]:
//!
//! 1. **cold** — N distinct topologies analyzed for the first time
//!    (route-table build + replay + serialize per request), referencing
//!    one registered trace by digest;
//! 2. **warm** — the same requests again, served from the in-memory
//!    result cache;
//! 3. **persistent** — the server is shut down and restarted on the same
//!    `--data-dir` with cold in-memory caches; the same requests must be
//!    served from the digest-verified disk store, byte-identical to the
//!    cold-phase bodies;
//! 4. **overload** — a worker pool with a known capacity (`workers /
//!    handler_delay`) is offered ~2× that load by closed-loop clients;
//!    the server must shed the excess with `429`/`408` while keeping the
//!    p99 of *accepted* requests close to the uncontended baseline.
//!
//! Results go to `BENCH_service.json` (`schema_version`-tagged). In a
//! full run the acceptance gates are enforced by [`validate_json`]
//! itself: persistent-hit p50 at least 5× better than the cold path, a
//! nonzero shed rate under overload, and accepted-request p99 within 2×
//! of the uncontended p99. `--smoke` shrinks the phases for CI and skips
//! the performance gates (structure is still validated).

use netloc_mpi::{write_trace, Rank, TraceBuilder};
use netloc_service::{Server, ServerConfig};
use netloc_testkit::client;
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Version tag of the `BENCH_service.json` layout. Bump on any field
/// rename or removal; CI smoke mode fails when the written file does not
/// match [`validate_json`] for this version.
pub const SCHEMA_VERSION: u32 = 1;

/// Distinct topologies (→ distinct cold-path requests) per phase.
const FULL_TOPOLOGIES: usize = 32;
const SMOKE_TOPOLOGIES: usize = 8;

/// Overload phase shape: capacity is `OVERLOAD_WORKERS / HANDLER_DELAY`,
/// the closed-loop client count is sized to offer roughly twice that.
const OVERLOAD_WORKERS: usize = 8;
const OVERLOAD_QUEUE: usize = 1;
const HANDLER_DELAY: Duration = Duration::from_millis(20);
const OVERLOAD_CLIENTS: usize = 18;
const FULL_OVERLOAD_S: f64 = 6.0;
const SMOKE_OVERLOAD_S: f64 = 1.5;

/// Latency summary of one phase.
#[derive(Serialize)]
pub struct PhaseRow {
    /// Phase name (`cold`, `warm`, `persistent`).
    pub phase: String,
    /// Requests measured.
    pub requests: u64,
    /// Requests that did not return 200 (must be zero).
    pub failures: u64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean request latency, milliseconds.
    pub mean_ms: f64,
}

/// The overload phase: offered load vs. shed and accepted latency.
#[derive(Serialize)]
pub struct OverloadRow {
    /// Nominal capacity of the worker pool, requests/second.
    pub capacity_rps: f64,
    /// Closed-loop client threads.
    pub concurrency: u64,
    /// Wall-clock duration of the phase, seconds.
    pub duration_s: f64,
    /// Offered load actually achieved, requests/second.
    pub offered_rps: f64,
    /// Requests answered 200.
    pub accepted: u64,
    /// Requests shed with 429 or 408.
    pub shed: u64,
    /// Responses that were neither 200 nor a shed status (must be zero).
    pub other: u64,
    /// `shed / (accepted + shed + other)`.
    pub shed_rate: f64,
    /// p50 latency of accepted requests, milliseconds.
    pub accepted_p50_ms: f64,
    /// p99 latency of accepted requests, milliseconds.
    pub accepted_p99_ms: f64,
    /// p99 latency of the uncontended baseline, milliseconds.
    pub baseline_p99_ms: f64,
    /// `accepted_p99_ms / baseline_p99_ms`.
    pub p99_ratio: f64,
}

/// The full benchmark report serialized to `BENCH_service.json`.
#[derive(Serialize)]
pub struct ServiceBenchReport {
    /// See [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// True when produced by `repro bench-service --smoke` (tiny phases;
    /// performance gates skipped).
    pub smoke: bool,
    /// Content digest of the registered trace every request references.
    pub trace_digest: String,
    /// Distinct topologies (and therefore distinct result-cache keys).
    pub distinct_topologies: u64,
    /// Disk-store hits recorded by the restarted server (must be > 0:
    /// the persistent phase really came from disk).
    pub restart_disk_hits: u64,
    /// Whether every persistent-phase body matched its cold-phase body
    /// byte for byte.
    pub byte_identical_across_restart: bool,
    /// Cold-path latencies (first computation per topology).
    pub cold: PhaseRow,
    /// In-memory-hit latencies.
    pub warm: PhaseRow,
    /// Disk-hit latencies after a restart with cold memory.
    pub persistent: PhaseRow,
    /// `cold.p50_ms / persistent.p50_ms` — the acceptance gate is ≥ 5.
    pub persistent_speedup_vs_cold: f64,
    /// The overload phase.
    pub overload: OverloadRow,
}

/// A deterministic 128-rank trace with a few partners per rank — big
/// enough that the cold path does real replay work, small enough to
/// upload once and reference by digest.
fn bench_trace_text() -> String {
    let ranks = 128u32;
    let mut b = TraceBuilder::new("bench-service", ranks).exec_time_s(2.0);
    for r in 0..ranks {
        for (stride, repeat) in [(1u32, 8u64), (8, 4), (32, 2)] {
            b.send(
                Rank(r),
                Rank((r + stride) % ranks),
                4096 + u64::from(r),
                repeat,
            );
        }
    }
    write_trace(&b.build())
}

/// The distinct topology specs driving the cold path: one-node-per-router
/// HyperX lattices of varying depth (the node counts of tori `8,8,3..`),
/// each forcing its own compressed route-table build. Tori would not: they
/// route directly and cache no table.
fn topology_specs(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("hyperx:8x8x{},1", 3 + i)).collect()
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn summarize(phase: &str, mut latencies_ms: Vec<f64>, failures: u64) -> PhaseRow {
    latencies_ms.sort_by(f64::total_cmp);
    let n = latencies_ms.len();
    PhaseRow {
        phase: phase.to_string(),
        requests: n as u64,
        failures,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
        mean_ms: latencies_ms.iter().sum::<f64>() / (n.max(1) as f64),
    }
}

/// Run the analyze requests for every topology once, returning latencies
/// and the response bodies keyed by topology index.
fn run_phase(addr: SocketAddr, digest: &str, specs: &[String]) -> (Vec<f64>, Vec<Vec<u8>>, u64) {
    let mut latencies = Vec::with_capacity(specs.len());
    let mut bodies = Vec::with_capacity(specs.len());
    let mut failures = 0u64;
    for spec in specs {
        let body = format!("{{\"trace_digest\": \"{digest}\", \"topology\": \"{spec}\"}}");
        let t = Instant::now();
        let resp = client::post(addr, "/v1/analyze", &body).expect("analyze request");
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if resp.status != 200 {
            failures += 1;
        }
        bodies.push(resp.body);
    }
    (latencies, bodies, failures)
}

/// Register the benchmark trace and return its digest (from the server's
/// own response, so the reference is exactly what later requests use).
fn register_trace(addr: SocketAddr, trace_text: &str) -> String {
    let resp = client::post(addr, "/v1/traces", trace_text).expect("trace upload");
    assert_eq!(
        resp.status,
        200,
        "trace registration failed: {}",
        resp.body_str()
    );
    let body = resp.body_str();
    let tagged = body
        .split("\"digest\": \"")
        .nth(1)
        .expect("digest in registration response");
    tagged
        .split('"')
        .next()
        .expect("terminated digest")
        .to_string()
}

fn data_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "netloc-bench-service-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The closed-loop overload phase against a capacity-limited server.
fn run_overload(smoke: bool) -> OverloadRow {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: OVERLOAD_WORKERS,
        queue_capacity: OVERLOAD_QUEUE,
        handler_delay: HANDLER_DELAY,
        ..ServerConfig::default()
    })
    .expect("overload server starts");
    let addr = server.addr();
    let capacity_rps = OVERLOAD_WORKERS as f64 / HANDLER_DELAY.as_secs_f64();

    // Uncontended baseline: one client, sequential requests.
    let mut baseline_ms = Vec::new();
    for _ in 0..if smoke { 15 } else { 50 } {
        let t = Instant::now();
        let resp = client::get(addr, "/v1/statusz").expect("baseline request");
        assert_eq!(resp.status, 200);
        baseline_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    baseline_ms.sort_by(f64::total_cmp);
    let baseline_p99_ms = percentile(&baseline_ms, 0.99);

    // Offered load ≈ 2× capacity from closed-loop clients with no think
    // time: enough to keep the queue full and the shed path hot.
    let duration = Duration::from_secs_f64(if smoke {
        SMOKE_OVERLOAD_S
    } else {
        FULL_OVERLOAD_S
    });
    let accepted_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let accepted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let other = AtomicU64::new(0);
    // Pace each client so the fleet offers ~2× capacity. Without pacing
    // a closed loop over instant 429s would offer tens of × capacity —
    // a harder test than the one we are characterizing.
    let pace = Duration::from_secs_f64(OVERLOAD_CLIENTS as f64 / (2.0 * capacity_rps));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..OVERLOAD_CLIENTS {
            scope.spawn(|| {
                while started.elapsed() < duration {
                    let t = Instant::now();
                    match client::get(addr, "/v1/statusz") {
                        Ok(resp) if resp.status == 200 => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                            accepted_ms
                                .lock()
                                .expect("latency lock")
                                .push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        Ok(resp) if resp.status == 429 || resp.status == 408 => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) | Err(_) => {
                            other.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if let Some(rest) = pace.checked_sub(t.elapsed()) {
                        std::thread::sleep(rest);
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    server.shutdown();

    let mut accepted_ms = accepted_ms.into_inner().expect("latency lock");
    accepted_ms.sort_by(f64::total_cmp);
    let (accepted, shed, other) = (
        accepted.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
        other.load(Ordering::Relaxed),
    );
    let total = accepted + shed + other;
    let accepted_p99_ms = percentile(&accepted_ms, 0.99);
    OverloadRow {
        capacity_rps,
        concurrency: OVERLOAD_CLIENTS as u64,
        duration_s: elapsed,
        offered_rps: total as f64 / elapsed,
        accepted,
        shed,
        other,
        shed_rate: shed as f64 / (total.max(1) as f64),
        accepted_p50_ms: percentile(&accepted_ms, 0.50),
        accepted_p99_ms,
        baseline_p99_ms,
        p99_ratio: accepted_p99_ms / baseline_p99_ms.max(1e-9),
    }
}

/// Run the benchmark and return the report. Prints one line per phase.
///
/// # Panics
/// Panics on any failed request, on a non-disk-hit persistent phase, or
/// (full mode, via [`validate_json`] at write time) on a missed
/// performance gate.
pub fn run(smoke: bool) -> ServiceBenchReport {
    let topologies = if smoke {
        SMOKE_TOPOLOGIES
    } else {
        FULL_TOPOLOGIES
    };
    let specs = topology_specs(topologies);
    let trace_text = bench_trace_text();
    let dir = data_dir();
    let _ = std::fs::remove_dir_all(&dir);

    let persistent_config = || ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_capacity: 64,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // Phases 1–2: cold then warm against the first server instance.
    let server = Server::start(persistent_config()).expect("server starts");
    let addr = server.addr();
    let digest = register_trace(addr, &trace_text);
    let (cold_ms, cold_bodies, cold_fail) = run_phase(addr, &digest, &specs);
    let cold = summarize("cold", cold_ms, cold_fail);
    println!(
        "[bench-service] cold       n={:>3} p50={:>8.2}ms p99={:>8.2}ms",
        cold.requests, cold.p50_ms, cold.p99_ms
    );
    let (warm_ms, warm_bodies, warm_fail) = run_phase(addr, &digest, &specs);
    let warm = summarize("warm", warm_ms, warm_fail);
    println!(
        "[bench-service] warm       n={:>3} p50={:>8.2}ms p99={:>8.2}ms",
        warm.requests, warm.p50_ms, warm.p99_ms
    );
    assert_eq!(
        cold_bodies, warm_bodies,
        "memory hits must be byte-identical"
    );
    server.shutdown(); // flushes the write-behind store

    // Phase 3: restart on the same data dir — cold memory, warm disk.
    let server = Server::start(persistent_config()).expect("server restarts");
    let addr = server.addr();
    let (persistent_ms, persistent_bodies, persistent_fail) = run_phase(addr, &digest, &specs);
    let persistent = summarize("persistent", persistent_ms, persistent_fail);
    let restart_disk_hits = server
        .state()
        .store
        .as_ref()
        .expect("persistent server has a store")
        .stats()
        .hits;
    server.shutdown();
    println!(
        "[bench-service] persistent n={:>3} p50={:>8.2}ms p99={:>8.2}ms (disk hits {})",
        persistent.requests, persistent.p50_ms, persistent.p99_ms, restart_disk_hits
    );
    assert!(
        restart_disk_hits > 0,
        "persistent phase never touched the disk store"
    );
    let byte_identical = cold_bodies == persistent_bodies;
    assert!(byte_identical, "restart changed response bytes");

    // Phase 4: overload a capacity-limited server.
    let overload = run_overload(smoke);
    println!(
        "[bench-service] overload   offered={:>6.0}rps capacity={:>6.0}rps shed_rate={:.2} accepted_p99={:.2}ms baseline_p99={:.2}ms",
        overload.offered_rps,
        overload.capacity_rps,
        overload.shed_rate,
        overload.accepted_p99_ms,
        overload.baseline_p99_ms
    );

    let _ = std::fs::remove_dir_all(&dir);
    let persistent_speedup = cold.p50_ms / persistent.p50_ms.max(1e-9);
    ServiceBenchReport {
        schema_version: SCHEMA_VERSION,
        smoke,
        trace_digest: digest,
        distinct_topologies: topologies as u64,
        restart_disk_hits,
        byte_identical_across_restart: byte_identical,
        cold,
        warm,
        persistent,
        persistent_speedup_vs_cold: persistent_speedup,
        overload,
    }
}

/// Validate the serialized tree, then write `report` to `path` as pretty
/// JSON — a schema regression (or, in full mode, a missed performance
/// gate) fails at the producer, before the file lands in the repo.
///
/// # Panics
/// Panics when [`validate_json`] rejects the report's own serialization.
pub fn write_report(report: &ServiceBenchReport, path: &str) -> std::io::Result<()> {
    let tree = report.to_value();
    if let Err(e) = validate_json(&tree) {
        panic!("BENCH_service.json schema regression: {e}");
    }
    let json = serde_json::to_string_pretty(report).expect("bench report serializes");
    std::fs::write(path, json)
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn finite_number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) if x.is_finite() => Some(*x),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn phase_fields(v: &Value, name: &str) -> Result<(), String> {
    let row = field(v, name).ok_or_else(|| format!("missing {name} phase"))?;
    if !matches!(field(row, "phase"), Some(Value::Str(_))) {
        return Err(format!("{name}.phase missing or not a string"));
    }
    match field(row, "failures") {
        Some(Value::UInt(0)) => {}
        _ => return Err(format!("{name}.failures must be present and zero")),
    }
    match field(row, "requests") {
        Some(Value::UInt(n)) if *n >= 1 => {}
        _ => return Err(format!("{name}.requests must be >= 1")),
    }
    for key in ["p50_ms", "p99_ms", "mean_ms"] {
        match field(row, key).and_then(finite_number) {
            Some(x) if x > 0.0 => {}
            _ => return Err(format!("{name}.{key} missing or not positive")),
        }
    }
    Ok(())
}

/// Structural check of a `BENCH_service.json` value tree, plus — for
/// full (non-smoke) runs — the PR's acceptance gates: persistent-hit p50
/// ≥ 5× better than cold, nonzero shed rate under ~2× offered load, and
/// accepted p99 within 2× of the uncontended p99. Returns the first
/// violation found.
pub fn validate_json(v: &Value) -> Result<(), String> {
    match field(v, "schema_version") {
        Some(Value::UInt(ver)) if *ver == u128::from(SCHEMA_VERSION) => {}
        Some(Value::UInt(ver)) => {
            return Err(format!("schema_version {ver} != expected {SCHEMA_VERSION}"))
        }
        _ => return Err("missing schema_version".into()),
    }
    let smoke = match field(v, "smoke") {
        Some(Value::Bool(s)) => *s,
        _ => return Err("missing smoke flag".into()),
    };
    if !matches!(field(v, "trace_digest"), Some(Value::Str(d)) if d.len() == 16) {
        return Err("trace_digest missing or not a 16-hex digest".into());
    }
    match field(v, "restart_disk_hits") {
        Some(Value::UInt(n)) if *n >= 1 => {}
        _ => return Err("restart_disk_hits must be >= 1".into()),
    }
    if !matches!(
        field(v, "byte_identical_across_restart"),
        Some(Value::Bool(true))
    ) {
        return Err("byte_identical_across_restart must be true".into());
    }
    for name in ["cold", "warm", "persistent"] {
        phase_fields(v, name)?;
    }
    let speedup = field(v, "persistent_speedup_vs_cold")
        .and_then(finite_number)
        .ok_or("missing persistent_speedup_vs_cold")?;
    let overload = field(v, "overload").ok_or("missing overload phase")?;
    for key in ["accepted", "shed", "other", "concurrency"] {
        if !matches!(field(overload, key), Some(Value::UInt(_))) {
            return Err(format!("overload.{key} missing or not an integer"));
        }
    }
    for key in [
        "capacity_rps",
        "duration_s",
        "offered_rps",
        "shed_rate",
        "accepted_p50_ms",
        "accepted_p99_ms",
        "baseline_p99_ms",
        "p99_ratio",
    ] {
        match field(overload, key).and_then(finite_number) {
            Some(x) if x >= 0.0 => {}
            _ => return Err(format!("overload.{key} missing or not a finite number")),
        }
    }
    if !matches!(field(overload, "other"), Some(Value::UInt(0))) {
        return Err("overload.other must be zero (unexpected statuses)".into());
    }
    if smoke {
        return Ok(());
    }
    // Full-run performance gates (the committed artifact's contract).
    if speedup < 5.0 {
        return Err(format!(
            "persistent-hit p50 must be ≥5× better than cold (got {speedup:.2}×)"
        ));
    }
    let shed_rate = field(overload, "shed_rate")
        .and_then(finite_number)
        .unwrap_or(0.0);
    if shed_rate <= 0.0 {
        return Err("overload phase shed nothing at 2× capacity".into());
    }
    let ratio = field(overload, "p99_ratio")
        .and_then(finite_number)
        .unwrap_or(f64::MAX);
    if ratio > 2.0 {
        return Err(format!(
            "accepted p99 drifted to {ratio:.2}× the uncontended p99 (limit 2×)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_valid_schema() {
        let report = run(true);
        validate_json(&report.to_value()).unwrap();
        assert_eq!(report.cold.requests, SMOKE_TOPOLOGIES as u64);
        assert!(report.byte_identical_across_restart);
        assert!(report.restart_disk_hits > 0);
        assert!(
            report.overload.shed > 0,
            "overload must shed at 2× capacity"
        );
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let report = run(true);
        let tree = report.to_value();
        let Value::Object(fields) = tree.clone() else {
            panic!("report serializes to an object");
        };
        let without = Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "persistent_speedup_vs_cold")
                .collect(),
        );
        assert!(validate_json(&without)
            .unwrap_err()
            .contains("persistent_speedup_vs_cold"));
        assert!(validate_json(&Value::Null).is_err());
    }
}
