//! Fault-injection and recovery tests for the durable service layer:
//! seeded on-disk corruption, injected handler panics, misbehaving
//! clients (half-open, mid-request hangups), deterministic client
//! retries under backpressure, and SIGKILL/restart cycles of the real
//! `netloc serve` binary. The common thread: every fault degrades to a
//! structured response or a clean cache miss — never a panic escaping a
//! request handler, never a wedged worker, never a wrong byte.

use netloc::core::canon::{content_digest, digest_hex};
use netloc::mpi::{write_trace, Rank, TraceBuilder};
use netloc::service::http::json_escape;
use netloc::service::store::{DiskStore, Kind};
use netloc::service::{RunningServer, Server, ServerConfig};
use netloc::testkit::client;
use netloc::testkit::fault;
use netloc::testkit::RetryPolicy;
use netloc::topology::{RouteTable, Torus3D};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cases for the seeded corruption property (matches `tests/proptests.rs`).
const CASES: u64 = 64;

/// Run `body` against `CASES` independently-seeded RNG streams; the
/// per-case seed is printed on failure so a rerun reproduces it exactly.
fn check(name: &str, mut body: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let seed = name
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            })
            .wrapping_add(case);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property `{name}` failed on case {case} (seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "netloc-faults-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

fn sample_trace_text() -> String {
    let mut b = TraceBuilder::new("faults", 27).exec_time_s(3.0);
    for r in 0..27u32 {
        b.send(Rank(r), Rank((r * 5 + 1) % 27), 10_000 + r as u64, 2);
    }
    write_trace(&b.build())
}

fn analyze_body(trace_text: &str) -> String {
    format!(
        "{{\"trace\": {}, \"topology\": \"torus:3,3,3\", \"mapping\": \"consecutive\"}}",
        json_escape(trace_text)
    )
}

/// The single `.nls` entry file under `root/<kind dir>` (the property
/// test writes exactly one per kind).
fn entry_file(root: &Path, kind: Kind) -> PathBuf {
    let dir = root.join(kind.dir());
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "nls"))
        .collect();
    assert_eq!(entries.len(), 1, "expected one entry in {}", dir.display());
    entries.pop().unwrap()
}

/// Satellite (c): any seeded corruption of an on-disk entry — truncation,
/// bit flips, clobbered digests, wholesale garbage — must load as a
/// clean, quarantined miss. Sibling entries stay readable, nothing
/// panics, and the quarantined file is moved aside rather than retried
/// forever.
#[test]
fn corrupted_store_entries_become_quarantined_misses() {
    check("corrupted_store_entries_become_quarantined_misses", |rng| {
        let dir = tmpdir("corrupt");
        let kind = Kind::ALL[rng.gen_range(0..Kind::ALL.len())];
        let survivor_kind = Kind::ALL[(kind.index() + 1) % Kind::ALL.len()];
        let key = format!("victim-{}", rng.gen::<u32>());
        let payload: Vec<u8> = (0..rng.gen_range(1usize..2048))
            .map(|_| rng.gen())
            .collect();
        let survivor_payload = b"survivor".to_vec();
        {
            let store = DiskStore::open(&dir).expect("store opens");
            store.put(kind, &key, &payload);
            store.put(survivor_kind, "survivor", &survivor_payload);
            store.flush();
            assert_eq!(store.get(kind, &key).as_deref(), Some(&payload[..]));
        }

        let victim = entry_file(&dir, kind);
        let mode = fault::corrupt_file_randomly(&victim, rng).expect("corruption applies");

        let store = DiskStore::open(&dir).expect("reopen never fails on corrupt entries");
        assert_eq!(
            store.get(kind, &key),
            None,
            "corrupted entry ({mode:?}) must be a miss"
        );
        let stats = store.stats();
        assert_eq!(
            stats.quarantined, 1,
            "{mode:?} must quarantine exactly once"
        );
        assert_eq!(
            store.get(survivor_kind, "survivor").as_deref(),
            Some(&survivor_payload[..]),
            "sibling entries must survive a {mode:?} on another entry"
        );
        // The bad file was moved aside: the next lookup is a plain miss,
        // not a second quarantine.
        assert_eq!(store.get(kind, &key), None);
        assert_eq!(store.stats().quarantined, 1);
        let quarantine = dir.join("quarantine");
        assert!(
            std::fs::read_dir(&quarantine)
                .map(|d| d.count() == 1)
                .unwrap_or(false),
            "quarantine dir must hold the one bad file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// End-to-end corruption recovery: a server whose entire on-disk cache
/// has been corrupted between runs must quarantine everything it touches,
/// recompute, and still answer byte-identically.
#[test]
fn server_recovers_from_a_fully_corrupted_data_dir() {
    let dir = tmpdir("server-corrupt");
    let trace_text = sample_trace_text();
    let body = analyze_body(&trace_text);

    let server = start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..test_config()
    });
    let fresh = client::post(server.addr(), "/v1/analyze", &body).unwrap();
    assert_eq!(fresh.status, 200, "{}", fresh.body_str());
    server.shutdown(); // flushes the write-behind store

    // Corrupt every persisted entry (results and route tables alike).
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut corrupted = 0;
    for kind in Kind::ALL {
        let kind_dir = dir.join(kind.dir());
        let Ok(entries) = std::fs::read_dir(&kind_dir) else {
            continue;
        };
        for entry in entries {
            fault::corrupt_file_randomly(&entry.unwrap().path(), &mut rng).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted >= 2, "expected persisted result + table entries");

    let server = start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..test_config()
    });
    let recovered = client::post(server.addr(), "/v1/analyze", &body).unwrap();
    assert_eq!(recovered.status, 200, "{}", recovered.body_str());
    assert_eq!(
        recovered.body, fresh.body,
        "recomputed result must match the pre-corruption bytes"
    );
    let stats = server.state().store.as_ref().unwrap().stats();
    assert!(
        stats.quarantined >= 1,
        "corrupt entries must be quarantined, got {stats:?}"
    );
    assert_eq!(server.state().handler_panics.load(Ordering::Relaxed), 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `tables/` entry whose frame is valid but whose route table names a
/// link the topology lacks must be rebuilt, not replayed. The frame digest
/// is FxHash, not a MAC, so anyone who can write to `--data-dir` can forge
/// such a frame; a stale table layout looks the same.
#[test]
fn forged_route_table_with_an_unknown_link_is_rebuilt() {
    let dir = tmpdir("forged-table");
    let body = analyze_body(&sample_trace_text());
    let fresh_server = start(test_config());
    let fresh = client::post(fresh_server.addr(), "/v1/analyze", &body).unwrap();
    assert_eq!(fresh.status, 200, "{}", fresh.body_str());
    fresh_server.shutdown();

    // The first stored link id belongs to route 0 → 1, which the sample
    // trace sends over; point it past the torus's links.
    let n = 27;
    let mut blob = RouteTable::build(&Torus3D::new([3, 3, 3])).to_bytes();
    let first_link = 8 + 4 * (n * n + 1);
    blob[first_link..first_link + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    {
        let store = DiskStore::open(&dir).expect("store opens");
        store.put(Kind::Table, "torus:3,3,3", &blob);
        store.flush();
    }

    let server = start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..test_config()
    });
    let resp = client::post(server.addr(), "/v1/analyze", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(resp.body, fresh.body, "same bytes as a fresh server");
    let state = server.state();
    assert_eq!(state.handler_panics.load(Ordering::Relaxed), 0);
    assert_eq!(state.topo_cache.tables_built(), 1, "forged table rebuilt");
    assert_eq!(state.topo_cache.tables_from_disk(), 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected handler panics are answered with 500 and the worker pool
/// keeps serving: with `fault_panic_every = 3` and sequential requests,
/// exactly every third request fails and every other one succeeds.
#[test]
fn injected_worker_panics_answer_500_and_service_continues() {
    let server = start(ServerConfig {
        fault_panic_every: 3,
        ..test_config()
    });
    let addr = server.addr();
    let mut statuses = Vec::new();
    for _ in 0..9 {
        statuses.push(client::get(addr, "/v1/healthz").unwrap().status);
    }
    assert_eq!(
        statuses,
        [200, 200, 500, 200, 200, 500, 200, 200, 500],
        "every third handler call must hit the injected panic"
    );
    assert_eq!(server.state().handler_panics.load(Ordering::Relaxed), 3);
    // The pool is still fully alive afterwards.
    assert_eq!(client::get(addr, "/v1/healthz").unwrap().status, 200);
    server.shutdown();
}

/// Clients that promise a body and hang up halfway must not leak their
/// in-flight byte reservations or take a worker down.
#[test]
fn mid_request_hangups_do_not_leak_inflight_bytes() {
    let server = start(ServerConfig {
        io_timeout: Duration::from_millis(200),
        progress_deadline: Duration::from_millis(500),
        ..test_config()
    });
    let addr = server.addr();
    for _ in 0..4 {
        fault::drop_mid_request(addr, "/v1/analyze", 16 * 1024).unwrap();
    }
    // Wait for the workers to fold the dead connections.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.state().inflight.current() != 0 {
        assert!(Instant::now() < deadline, "in-flight bytes never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(client::get(addr, "/v1/healthz").unwrap().status, 200);
    assert_eq!(
        server.state().inflight.current(),
        0,
        "reservations must drain"
    );
    server.shutdown();
}

/// Satellite (b) at the server level: a half-open client (partial request
/// line, then silence) is shed by the socket timeout instead of pinning
/// the single worker, so the next honest request is served promptly.
#[test]
fn half_open_clients_are_shed_not_parked() {
    let server = start(ServerConfig {
        workers: 1,
        io_timeout: Duration::from_millis(150),
        progress_deadline: Duration::from_millis(400),
        ..test_config()
    });
    let addr = server.addr();
    let _parked = fault::half_open_request(addr).unwrap();
    std::thread::sleep(Duration::from_millis(30)); // let the worker pick it up

    let t = Instant::now();
    let resp = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        t.elapsed() < Duration::from_secs(3),
        "honest request must not wait behind a dead peer: {:?}",
        t.elapsed()
    );
    assert!(
        server.state().shed_timeouts.load(Ordering::Relaxed) >= 1,
        "the half-open peer must be counted as a timeout shed"
    );
    server.shutdown();
}

/// Satellite (a) behavior check: the deterministic retry policy rides out
/// a saturated queue — 429s with `Retry-After` are honored until the
/// burst drains, ending in a 200 within the attempt budget.
#[test]
fn deterministic_retries_ride_out_backpressure() {
    let server = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        handler_delay: Duration::from_millis(100),
        ..test_config()
    });
    let addr = server.addr();
    let burst: Vec<_> = (0..6)
        .map(|_| std::thread::spawn(move || client::get(addr, "/v1/healthz").unwrap()))
        .collect();
    let (resp, attempts) =
        client::get_with_retry(addr, "/v1/healthz", &RetryPolicy::deterministic(11)).unwrap();
    assert_eq!(
        resp.status,
        200,
        "retry budget must outlast the burst: {} after {attempts} attempts",
        resp.body_str()
    );
    assert!((1..=6).contains(&attempts));
    for h in burst {
        let r = h.join().unwrap();
        assert!(
            matches!(r.status, 200 | 429),
            "unexpected status {}",
            r.status
        );
    }
    server.shutdown();
}

/// Spawn the real `netloc serve` binary on an ephemeral port with a data
/// dir and return (child, addr) once it reports its listening address.
fn spawn_serve(dir: &Path) -> (std::process::Child, std::net::SocketAddr) {
    spawn_serve_with(dir, &[])
}

/// [`spawn_serve`] with extra command-line flags.
fn spawn_serve_with(dir: &Path, flags: &[&str]) -> (std::process::Child, std::net::SocketAddr) {
    use std::io::BufRead;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_netloc"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--data-dir",
        ])
        .arg(dir)
        .args(flags)
        .stderr(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("netloc serve spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve must print its address before exiting")
            .expect("readable stderr");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or(rest);
            break addr.parse().expect("parsable listen address");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// The crash-recovery cycle from the issue: warm the persistent cache,
/// SIGKILL the server mid-flight, restart on the same data dir, and
/// observe (a) the result comes back from disk, not recomputation, and
/// (b) it is byte-identical to the pre-crash response.
#[test]
#[cfg(unix)]
fn sigkill_and_restart_recover_a_warm_digest_verified_cache() {
    let dir = tmpdir("sigkill");
    let trace_text = sample_trace_text();
    let body = analyze_body(&trace_text);

    let (mut child, addr) = spawn_serve(&dir);
    let warm = client::post_with_retry(addr, "/v1/analyze", &body, &RetryPolicy::deterministic(3))
        .unwrap()
        .0;
    assert_eq!(warm.status, 200, "{}", warm.body_str());
    // Give the write-behind persister a moment, then kill without mercy.
    std::thread::sleep(Duration::from_millis(500));
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();

    let (mut child, addr) = spawn_serve(&dir);
    let recovered =
        client::post_with_retry(addr, "/v1/analyze", &body, &RetryPolicy::deterministic(4))
            .unwrap()
            .0;
    assert_eq!(recovered.status, 200, "{}", recovered.body_str());
    assert_eq!(
        recovered.body, warm.body,
        "post-crash result must be byte-identical"
    );
    let statusz = client::get(addr, "/v1/statusz").unwrap();
    let s = statusz.body_str();
    let disk_hits: u64 = s
        .split("\"disk\"")
        .nth(1)
        .and_then(|d| d.split("\"hits\": ").nth(1))
        .and_then(|d| d.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("no disk hits counter in {s}"));
    assert!(
        disk_hits >= 1,
        "restart must serve from the disk store: {s}"
    );
    child.kill().expect("cleanup kill");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The trace registry survives the same crash cycle: a digest uploaded
/// before the SIGKILL still resolves afterwards, via the disk tier.
#[test]
#[cfg(unix)]
fn sigkill_and_restart_keep_registered_traces_resolvable() {
    let dir = tmpdir("sigkill-registry");
    let trace_text = sample_trace_text();
    let digest = digest_hex(content_digest(trace_text.as_bytes()));

    let (mut child, addr) = spawn_serve(&dir);
    let reg = client::post_with_retry(
        addr,
        "/v1/traces",
        &trace_text,
        &RetryPolicy::deterministic(5),
    )
    .unwrap()
    .0;
    assert_eq!(reg.status, 200, "{}", reg.body_str());
    assert!(reg.body_str().contains(&digest), "{}", reg.body_str());
    std::thread::sleep(Duration::from_millis(500));
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();

    let (mut child, addr) = spawn_serve(&dir);
    let by_digest = format!("{{\"trace_digest\": \"{digest}\", \"topology\": \"torus:3,3,3\"}}");
    let resp = client::post_with_retry(
        addr,
        "/v1/analyze",
        &by_digest,
        &RetryPolicy::deterministic(6),
    )
    .unwrap()
    .0;
    assert_eq!(
        resp.status,
        200,
        "registered digest must survive the crash: {}",
        resp.body_str()
    );
    assert!(resp.body_str().contains(&digest));
    child.kill().expect("cleanup kill");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every cache and body limit is settable from the command line, and
/// `/v1/statusz` reports what was set.
#[test]
#[cfg(unix)]
fn serve_flags_set_the_cache_and_body_limits() {
    let dir = tmpdir("limit-flags");
    let (mut child, addr) = spawn_serve_with(
        &dir,
        &[
            "--body-mb",
            "1",
            "--registry-mb",
            "2",
            "--ingest-mb",
            "3",
            "--cache-mb",
            "4",
        ],
    );
    let statusz = client::get(addr, "/v1/statusz").unwrap();
    let s = statusz.body_str();
    let mib = 1024 * 1024;
    for (block, mb) in [("registry", 2), ("ingest_cache", 3), ("result_cache", 4)] {
        let needle = format!("\"{block}\": {{");
        let start = s.find(&needle).unwrap_or_else(|| panic!("no {block}: {s}"));
        let end = start + s[start..].find('}').expect("block closes");
        assert!(
            s[start..end].contains(&format!("\"capacity_bytes\": {}", mb * mib)),
            "{block} capacity: {s}"
        );
    }
    let oversized = "x".repeat(mib + 1);
    let resp = client::post(addr, "/v1/traces", &oversized).unwrap();
    assert_eq!(resp.status, 413, "--body-mb 1 must bound bodies");
    child.kill().expect("cleanup kill");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
