//! Tracked replay-throughput benchmark (`repro bench`).
//!
//! Measures the node-pair/CSR replay path ([`analyze_network_routed`])
//! against the pre-route-table baseline ([`analyze_network_rank_pairs`])
//! on the three paper-scale topologies:
//!
//! | config          | topology               | nodes  | route storage |
//! |-----------------|------------------------|--------|---------------|
//! | `torus-1728`    | `Torus3D [12,12,12]`   | 1 728  | direct        |
//! | `fat-tree-2592` | `FatTree::new(48, 3)`  | 13 824 | compressed    |
//! | `dragonfly-1056`| `Dragonfly::new(8,4,4)`| 1 056  | compressed    |
//!
//! Each config replays an all-to-all matrix (the paper's BigFFT-style
//! worst case, and the pair-densest cell of any sweep) under the paper's
//! multicore placements: consecutive (one rank per node), block (4
//! consecutive ranks per node) and random-block (4 ranks per node, nodes
//! scattered at random). The block placements are where node-pair
//! deduplication bites — up to 16× fewer unique routes at 4 ranks/node.
//! Reported per cell: wall-clock, rank-pairs/s and packets/s for both
//! paths plus the speedup, and the end-to-end time of the CSR path with
//! its route storage build (`build_plus_replay_s`) plus that speedup.
//! Every cell first asserts the two paths produce
//! byte-identical [`NetworkReport`](netloc_core::NetworkReport)s, so the
//! benchmark doubles as a differential check.
//!
//! On top of the replay grid, a **scale column** (PR 8) measures the
//! compressed hierarchical route tables on zoo machines at 10k, 100k and
//! 1M endpoints: per row the node/router counts, compressed table bytes
//! vs the flat-CSR projection, build wall-clock and replay events/s of a
//! seeded random-pairs workload. Every scale cell asserts the auto picker
//! chose compressed storage, verifies sampled routes byte-identical to
//! direct routing, and demands a ≥10× size reduction over the flat
//! projection. The smoke run keeps one mid-size Slim Fly cell plus tiny
//! Slim Fly and fat-tree twins on which compressed, dense and
//! lazy-compressed routes are compared with direct routing exhaustively,
//! and a tiny torus twin on which `auto` must not precompute anything.
//!
//! Results are written to `BENCH_netmodel.json`
//! (`schema_version`-tagged; see [`validate_json`]). `--smoke` swaps in
//! sub-second configs and a single timing iteration — that mode runs in
//! CI and fails on panic (report divergence) or schema regression; the
//! full run stays manual because it needs minutes of quiet machine.

use netloc_core::sweep::MappingSpec;
use netloc_core::{
    analyze_network_rank_pairs, analyze_network_routed, node_pair_traffic, patterns, TrafficMatrix,
};
use netloc_topology::{
    Dragonfly, FatTree, Mapping, NodeId, RoutedTopology, Topology, TopologySpec, Torus3D,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use std::time::Instant;

/// Version tag of the `BENCH_netmodel.json` layout. Bump on any field
/// rename or removal; CI smoke mode fails when the written file does not
/// match [`validate_json`] for this version. v2 added the `scale` column
/// (compressed route tables on zoo machines); v3 renamed `dense_table` to
/// `precomputed` and added `build_plus_replay_s` and
/// `build_plus_replay_speedup`.
pub const SCHEMA_VERSION: u32 = 3;

/// Message payload in bytes (multiple packets per message).
const MESSAGE_BYTES: u64 = 4096;
/// Timing iterations per cell; the minimum is reported.
const FULL_ITERS: usize = 3;

/// One benchmark topology/workload combination.
struct BenchConfig {
    name: &'static str,
    topology: Box<dyn Topology>,
    ranks: u32,
}

fn paper_configs() -> Vec<BenchConfig> {
    vec![
        BenchConfig {
            name: "torus-1728",
            topology: Box::new(Torus3D::new([12, 12, 12])),
            ranks: 1728,
        },
        BenchConfig {
            name: "fat-tree-2592",
            topology: Box::new(FatTree::new(48, 3)),
            ranks: 2592,
        },
        BenchConfig {
            name: "dragonfly-1056",
            topology: Box::new(Dragonfly::new(8, 4, 4)),
            ranks: 1056,
        },
    ]
}

fn smoke_configs() -> Vec<BenchConfig> {
    vec![
        BenchConfig {
            name: "torus-216",
            topology: Box::new(Torus3D::new([6, 6, 6])),
            ranks: 216,
        },
        BenchConfig {
            name: "fat-tree-64",
            topology: Box::new(FatTree::new(8, 3)),
            ranks: 64,
        },
        BenchConfig {
            name: "dragonfly-72",
            topology: Box::new(Dragonfly::new(4, 2, 2)),
            ranks: 72,
        },
    ]
}

/// One (config, mapping) measurement.
#[derive(Serialize)]
pub struct BenchRow {
    /// Config name (`torus-1728`, ...).
    pub config: String,
    /// Number of nodes in the topology.
    pub nodes: usize,
    /// Number of ranks in the workload.
    pub ranks: u32,
    /// Mapping label (`consecutive`, `block4`, `random`).
    pub mapping: String,
    /// Workload label.
    pub workload: String,
    /// Distinct communicating rank pairs in the matrix.
    pub rank_pairs: usize,
    /// Unique node pairs after collapsing under the mapping.
    pub node_pairs: usize,
    /// Total packets replayed.
    pub packets: u64,
    /// Whether `auto` precomputed route storage (vs direct routing).
    pub precomputed: bool,
    /// One-time route storage construction cost (~0 for direct routing).
    pub table_build_s: f64,
    /// Pre-PR path: best wall-clock over the timing iterations.
    pub baseline_s: f64,
    /// CSR node-pair path: best wall-clock over the timing iterations.
    pub routed_s: f64,
    /// Rank pairs replayed per second, pre-PR path.
    pub baseline_pairs_per_s: f64,
    /// Rank pairs replayed per second, CSR path.
    pub routed_pairs_per_s: f64,
    /// Packets accounted per second, pre-PR path.
    pub baseline_packets_per_s: f64,
    /// Packets accounted per second, CSR path.
    pub routed_packets_per_s: f64,
    /// `baseline_s / routed_s`.
    pub speedup: f64,
    /// `table_build_s + routed_s`: the CSR path end to end, setup included.
    pub build_plus_replay_s: f64,
    /// `baseline_s / build_plus_replay_s`.
    pub build_plus_replay_speedup: f64,
}

/// One compressed-route-table scale measurement (see [`run_scale`]).
#[derive(Serialize)]
pub struct ScaleRow {
    /// Topology family (`slimfly`, `hyperx`, `jellyfish`).
    pub family: String,
    /// Canonical topology spec of the machine.
    pub spec: String,
    /// Endpoint (node) count.
    pub nodes: usize,
    /// Router count.
    pub routers: usize,
    /// Replay events (distinct rank pairs of the seeded workload).
    pub events: usize,
    /// Actual bytes of the compressed route table.
    pub table_bytes: usize,
    /// What a flat all-pairs CSR of the same routes would occupy.
    pub flat_projection_bytes: u128,
    /// `flat_projection_bytes / table_bytes`.
    pub compression_ratio: f64,
    /// Wall-clock to build the compressed table (via the auto picker).
    pub build_s: f64,
    /// Best replay wall-clock over the timing iterations.
    pub replay_s: f64,
    /// `events / replay_s`.
    pub replay_events_per_s: f64,
    /// True once sampled compressed routes were checked byte-identical to
    /// direct routing and the full replay report matched the direct
    /// storage mode (the row is never emitted otherwise).
    pub verified_against_direct: bool,
}

/// The full benchmark report serialized to `BENCH_netmodel.json`.
#[derive(Serialize)]
pub struct BenchReport {
    /// See [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// True when produced by `repro bench --smoke` (tiny configs; timings
    /// are not comparable with full runs).
    pub smoke: bool,
    /// One row per (config, mapping) cell.
    pub results: Vec<BenchRow>,
    /// Compressed-route-table scale column (one row per zoo machine).
    pub scale: Vec<ScaleRow>,
}

fn time_best<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Run the benchmark grid and return the report. Prints one line per cell.
///
/// Panics if the baseline and CSR paths ever disagree on a report — the
/// benchmark refuses to publish numbers for divergent replays.
pub fn run(smoke: bool) -> BenchReport {
    let configs = if smoke {
        smoke_configs()
    } else {
        paper_configs()
    };
    let iters = if smoke { 1 } else { FULL_ITERS };
    let mut results = Vec::new();
    for cfg in &configs {
        let topo: &dyn Topology = cfg.topology.as_ref();
        let nodes = topo.num_nodes();
        let tm = patterns::all_to_all(cfg.ranks, MESSAGE_BYTES, 1);
        let workload = "all-to-all".to_string();

        let t = Instant::now();
        let routed = RoutedTopology::auto(topo);
        let table_build_s = t.elapsed().as_secs_f64();

        let specs = [
            MappingSpec::Consecutive,
            MappingSpec::Block { cores: 4 },
            MappingSpec::RandomBlock { cores: 4, seed: 1 },
        ];
        for spec in &specs {
            let mapping = spec.build(cfg.ranks as usize, nodes);
            let rank_pairs = tm.num_pairs();
            let chunk = 512.max(rank_pairs / 256 + 1);

            // Warm-up doubles as the differential guard: both paths must
            // produce byte-identical reports before any number is trusted.
            let base_rep = analyze_network_rank_pairs(topo, &mapping, &tm, chunk);
            let routed_rep = analyze_network_routed(&routed, &mapping, &tm);
            assert_eq!(
                base_rep,
                routed_rep,
                "replay divergence on {} / {}",
                cfg.name,
                spec.label()
            );

            let node_pairs = node_pair_traffic(&mapping, &tm).len();
            let baseline_s = time_best(iters, || {
                std::hint::black_box(analyze_network_rank_pairs(topo, &mapping, &tm, chunk));
            });
            let routed_s = time_best(iters, || {
                std::hint::black_box(analyze_network_routed(&routed, &mapping, &tm));
            });

            let packets = base_rep.packets;
            let build_plus_replay_s = table_build_s + routed_s;
            let row = BenchRow {
                config: cfg.name.to_string(),
                nodes,
                ranks: cfg.ranks,
                mapping: spec.label(),
                workload: workload.clone(),
                rank_pairs,
                node_pairs,
                packets,
                precomputed: routed.is_precomputed(),
                table_build_s,
                baseline_s,
                routed_s,
                baseline_pairs_per_s: rank_pairs as f64 / baseline_s,
                routed_pairs_per_s: rank_pairs as f64 / routed_s,
                baseline_packets_per_s: packets as f64 / baseline_s,
                routed_packets_per_s: packets as f64 / routed_s,
                speedup: baseline_s / routed_s,
                build_plus_replay_s,
                build_plus_replay_speedup: baseline_s / build_plus_replay_s,
            };
            println!(
                "[bench] {:<14} {:<11} pairs={:>7} nodepairs={:>7} base={:>9.1}ms routed={:>9.1}ms speedup={:.2}x build+routed={:>9.1}ms speedup={:.2}x",
                row.config,
                row.mapping,
                row.rank_pairs,
                row.node_pairs,
                row.baseline_s * 1e3,
                row.routed_s * 1e3,
                row.speedup,
                row.build_plus_replay_s * 1e3,
                row.build_plus_replay_speedup
            );
            results.push(row);
        }
    }
    BenchReport {
        schema_version: SCHEMA_VERSION,
        smoke,
        results,
        scale: run_scale(smoke),
    }
}

/// Scale configs: canonical spec strings so the cell also exercises spec
/// parsing end to end. Full mode covers three families at ~10k endpoints
/// plus a 100k Slim Fly and a ~1M-endpoint HyperX; smoke keeps one
/// mid-size Slim Fly cell (~50k endpoints) CI can afford.
fn scale_configs(smoke: bool) -> Vec<(&'static str, &'static str, usize)> {
    if smoke {
        vec![("slimfly", "slimfly:37,18", 100_000)] // 49 284 nodes
    } else {
        vec![
            ("slimfly", "slimfly:17,18", 1_000_000),  // 10 404 nodes
            ("hyperx", "hyperx:16x16,40", 1_000_000), // 10 240 nodes
            ("jellyfish", "jellyfish:700,12,16,1", 1_000_000), // 11 200 nodes
            ("slimfly", "slimfly:53,18", 1_000_000),  // 101 124 nodes
            ("hyperx", "hyperx:64x64,244", 1_000_000), // 999 424 nodes
        ]
    }
}

/// Sampled pairs checked byte-identical against direct routing per cell.
const SCALE_VERIFY_PAIRS: usize = 4096;

/// Measure the compressed hierarchical route tables at scale. Every cell:
///
/// 1. builds storage through `RoutedTopology::auto` and asserts the
///    compressed representation was picked,
/// 2. checks sampled routes byte-identical to direct (storage-free)
///    routing and the full replay report equal to the direct-mode replay,
/// 3. asserts the compressed table is ≥10× smaller than the flat-CSR
///    projection of the same routes,
/// 4. times the replay of a seeded random-pairs workload.
///
/// In smoke mode tiny Slim Fly and fat-tree twins additionally compare
/// compressed, dense and lazy-compressed storage with direct routing on
/// *all* pairs, so CI pins the equivalence the big cells can only sample,
/// and a tiny torus twin pins that `auto` routes asymmetric machines
/// directly.
pub fn run_scale(smoke: bool) -> Vec<ScaleRow> {
    let iters = if smoke { 1 } else { FULL_ITERS };
    let mut rows = Vec::new();
    for (family, spec_str, raw_events) in scale_configs(smoke) {
        let spec: TopologySpec = spec_str.parse().expect("scale spec parses");
        let topo = spec.build().expect("scale spec builds");
        let nodes = topo.num_nodes();

        let t = Instant::now();
        let routed = RoutedTopology::auto(topo.as_ref());
        let build_s = t.elapsed().as_secs_f64();
        let table = routed
            .compressed_table()
            .expect("scale machines are router-symmetric");
        let routers = table.num_routers();
        let table_bytes = table.memory_bytes();
        let flat_projection_bytes = table.flat_projection_bytes();
        let compression_ratio = flat_projection_bytes as f64 / table_bytes as f64;
        assert!(
            compression_ratio >= 10.0,
            "{spec_str}: compressed table only {compression_ratio:.1}x smaller than flat"
        );

        // Sampled byte-identity against direct (storage-free) routing.
        let direct = RoutedTopology::direct(topo.as_ref());
        let mut rng = ChaCha8Rng::seed_from_u64(0x5ca1e);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..SCALE_VERIFY_PAIRS {
            let s = NodeId(rng.gen_range(0..nodes as u32));
            let d = NodeId(rng.gen_range(0..nodes as u32));
            assert_eq!(
                routed.route_of(s, d, &mut a),
                direct.route_of(s, d, &mut b),
                "{spec_str}: compressed route diverges from direct at {s:?}->{d:?}"
            );
        }

        // Seeded random-pairs workload over the whole machine, one rank
        // per node; `events` is the deduplicated pair count replayed.
        let mut tm = TrafficMatrix::new(nodes as u32);
        for _ in 0..raw_events {
            tm.record(
                rng.gen_range(0..nodes as u32),
                rng.gen_range(0..nodes as u32),
                MESSAGE_BYTES,
                1,
            );
        }
        let events = tm.num_pairs();
        let mapping = Mapping::consecutive(nodes, nodes);
        let direct_rep = analyze_network_routed(&direct, &mapping, &tm);
        let routed_rep = analyze_network_routed(&routed, &mapping, &tm);
        assert_eq!(direct_rep, routed_rep, "{spec_str}: replay divergence");

        let replay_s = time_best(iters, || {
            std::hint::black_box(analyze_network_routed(&routed, &mapping, &tm));
        });
        let row = ScaleRow {
            family: family.to_string(),
            spec: spec.to_string(),
            nodes,
            routers,
            events,
            table_bytes,
            flat_projection_bytes,
            compression_ratio,
            build_s,
            replay_s,
            replay_events_per_s: events as f64 / replay_s,
            verified_against_direct: true,
        };
        println!(
            "[scale] {:<22} nodes={:>7} routers={:>5} table={:>9}B ({:>8.0}x smaller) build={:>8.1}ms replay={:>9.2}Mev/s",
            row.spec,
            row.nodes,
            row.routers,
            row.table_bytes,
            row.compression_ratio,
            row.build_s * 1e3,
            row.replay_events_per_s / 1e6
        );
        rows.push(row);
    }

    if smoke {
        // Tiny twins: the smoke cell above can only sample; these machines
        // are small enough to compare every storage with direct routing on
        // every ordered pair.
        let twins: [(&str, Box<dyn Topology>); 2] = [
            ("slimfly:5,2", Box::new(netloc_topology::SlimFly::new(5, 2))),
            ("fattree:8,3", Box::new(FatTree::new(8, 3))),
        ];
        for (name, twin) in &twins {
            let twin = twin.as_ref();
            let modes = [
                ("dense", RoutedTopology::dense(twin)),
                ("compressed", RoutedTopology::compressed(twin)),
                ("lazy-compressed", RoutedTopology::lazy_compressed(twin)),
            ];
            let mut buf = Vec::new();
            for s in 0..twin.num_nodes() as u32 {
                for d in 0..twin.num_nodes() as u32 {
                    let want = twin.route(NodeId(s), NodeId(d));
                    for (label, routed) in &modes {
                        assert_eq!(
                            routed.route_of(NodeId(s), NodeId(d), &mut buf),
                            &want[..],
                            "twin {name} {label} route diverges at {s}->{d}"
                        );
                    }
                }
            }
            println!("[scale] twin {name:<17} compressed == lazy-compressed == dense == direct on all pairs");
        }
        let torus = Torus3D::new([4, 4, 4]);
        assert!(
            !RoutedTopology::auto(&torus).is_precomputed(),
            "auto must route the torus twin directly"
        );
        println!("[scale] twin torus:4,4,4       auto routes directly (no table)");
    }
    rows
}

/// Validate the serialized tree, then write `report` to `path` as pretty
/// JSON — a schema regression fails at the producer, before the file is
/// consumed by anything downstream.
///
/// # Panics
/// Panics when [`validate_json`] rejects the report's own serialization.
pub fn write_report(report: &BenchReport, path: &str) -> std::io::Result<()> {
    let tree = report.to_value();
    if let Err(e) = validate_json(&tree) {
        panic!("BENCH_netmodel.json schema regression: {e}");
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

/// Structural check of a `BENCH_netmodel.json` value tree: version match,
/// required fields present with the right JSON types, finite non-negative
/// timings, non-empty results. Returns the first violation found.
pub fn validate_json(v: &Value) -> Result<(), String> {
    match field(v, "schema_version") {
        Some(Value::UInt(ver)) if *ver == u128::from(SCHEMA_VERSION) => {}
        Some(Value::UInt(ver)) => {
            return Err(format!("schema_version {ver} != expected {SCHEMA_VERSION}"))
        }
        _ => return Err("missing schema_version".into()),
    }
    if !matches!(field(v, "smoke"), Some(Value::Bool(_))) {
        return Err("missing smoke flag".into());
    }
    let results = match field(v, "results") {
        Some(Value::Array(rows)) => rows,
        _ => return Err("missing results array".into()),
    };
    if results.is_empty() {
        return Err("empty results array".into());
    }
    for (i, row) in results.iter().enumerate() {
        for key in ["config", "mapping", "workload"] {
            if !matches!(field(row, key), Some(Value::Str(_))) {
                return Err(format!("results[{i}].{key} missing or not a string"));
            }
        }
        for key in ["nodes", "ranks", "rank_pairs", "node_pairs", "packets"] {
            if !matches!(field(row, key), Some(Value::UInt(_))) {
                return Err(format!("results[{i}].{key} missing or not an integer"));
            }
        }
        if !matches!(field(row, "precomputed"), Some(Value::Bool(_))) {
            return Err(format!("results[{i}].precomputed missing or not a bool"));
        }
        for key in [
            "table_build_s",
            "baseline_s",
            "routed_s",
            "baseline_pairs_per_s",
            "routed_pairs_per_s",
            "baseline_packets_per_s",
            "routed_packets_per_s",
            "speedup",
            "build_plus_replay_s",
            "build_plus_replay_speedup",
        ] {
            match field(row, key).and_then(finite_number) {
                Some(x) if x >= 0.0 => {}
                Some(x) => {
                    return Err(format!("results[{i}].{key} = {x} is negative"));
                }
                None => {
                    return Err(format!("results[{i}].{key} missing or not a finite number"));
                }
            }
        }
    }
    let scale = match field(v, "scale") {
        Some(Value::Array(rows)) => rows,
        _ => return Err("missing scale array".into()),
    };
    if scale.is_empty() {
        return Err("empty scale array".into());
    }
    for (i, row) in scale.iter().enumerate() {
        for key in ["family", "spec"] {
            if !matches!(field(row, key), Some(Value::Str(_))) {
                return Err(format!("scale[{i}].{key} missing or not a string"));
            }
        }
        for key in [
            "nodes",
            "routers",
            "events",
            "table_bytes",
            "flat_projection_bytes",
        ] {
            if !matches!(field(row, key), Some(Value::UInt(_))) {
                return Err(format!("scale[{i}].{key} missing or not an integer"));
            }
        }
        match field(row, "verified_against_direct") {
            Some(Value::Bool(true)) => {}
            Some(Value::Bool(false)) => {
                return Err(format!(
                    "scale[{i}] was not verified against direct routing"
                ));
            }
            _ => return Err(format!("scale[{i}].verified_against_direct missing")),
        }
        for key in [
            "compression_ratio",
            "build_s",
            "replay_s",
            "replay_events_per_s",
        ] {
            match field(row, key).and_then(finite_number) {
                Some(x) if x >= 0.0 => {}
                Some(x) => return Err(format!("scale[{i}].{key} = {x} is negative")),
                None => {
                    return Err(format!("scale[{i}].{key} missing or not a finite number"));
                }
            }
        }
        if let Some(ratio) = field(row, "compression_ratio").and_then(finite_number) {
            if ratio < 10.0 {
                return Err(format!(
                    "scale[{i}].compression_ratio = {ratio:.1} below the documented 10x floor"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_valid_schema() {
        let report = run(true);
        assert_eq!(report.results.len(), 9); // 3 configs × 3 mappings
        assert_eq!(report.scale.len(), 1); // one compressed scale cell
        let cell = &report.scale[0];
        assert_eq!(cell.spec, "slimfly:37,18");
        assert!(
            cell.nodes > 40_000,
            "smoke scale cell shrank: {}",
            cell.nodes
        );
        assert!(cell.verified_against_direct);
        assert!(cell.compression_ratio >= 10.0);
        validate_json(&report.to_value()).unwrap();
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let tree = run(true).to_value();

        let Value::Object(fields) = tree.clone() else {
            panic!("report serializes to an object");
        };
        let without_smoke =
            Value::Object(fields.into_iter().filter(|(k, _)| k != "smoke").collect());
        assert!(validate_json(&without_smoke).unwrap_err().contains("smoke"));

        let Value::Object(fields) = tree.clone() else {
            panic!("report serializes to an object");
        };
        let bumped = Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| {
                    if k == "schema_version" {
                        (k, Value::UInt(u128::from(SCHEMA_VERSION) + 1))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        );
        assert!(validate_json(&bumped)
            .unwrap_err()
            .contains("schema_version"));

        let json = serde_json::to_string(&tree).unwrap();
        let without_end_to_end =
            serde_json::from_str(&json.replace("\"build_plus_replay_s\"", "\"other\"")).unwrap();
        assert!(validate_json(&without_end_to_end)
            .unwrap_err()
            .contains("build_plus_replay_s"));

        let Value::Object(fields) = tree else {
            panic!("report serializes to an object");
        };
        let without_scale =
            Value::Object(fields.into_iter().filter(|(k, _)| k != "scale").collect());
        assert!(validate_json(&without_scale).unwrap_err().contains("scale"));

        assert!(validate_json(&Value::Null).is_err());
    }
}
