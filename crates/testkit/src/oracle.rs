//! Differential oracles: analytic routing vs BFS, the chunked parallel
//! replay vs the naive single-threaded reference, the parallel ingest
//! pipeline vs the sequential parser, and the CSR temporal simulation
//! engine vs its per-message-routed `refsim` reference.
//!
//! All oracles run over every configuration of a corpus and return
//! structured mismatches instead of panicking, so callers (the `netloc
//! verify` subcommand and the integration tests) can report all failures
//! at once with readable context.

use crate::corpus::CorpusConfig;
use netloc_core::netmodel::{
    analyze_network, analyze_network_rank_pairs, analyze_network_routed,
    analyze_network_routed_chunked, NetworkReport,
};
use netloc_core::refmodel::analyze_network_reference;
use netloc_core::{
    ingest_trace_chunked, windowed_ingest, windowed_ingest_chunked, windowed_reference,
    windows_diff, PairTraffic, TrafficMatrix, WindowedAccum,
};
use netloc_mpi::{parse_trace, parse_trace_bytes_chunked, write_trace};
use netloc_sim::{
    expand_trace, simulate_parallel, simulate_reference, Forwarding, SimConfig, SimExec, SimReport,
};
use netloc_topology::bfs::{validate_walk, BfsRouter};
use netloc_topology::{NodeId, RouteTable, RoutedTopology, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One oracle violation, tied to the corpus config that produced it.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Corpus config id (see [`CorpusConfig::id`]).
    pub config: String,
    /// Which oracle fired: `"route"`, `"route-table"`, their sampled
    /// variants `"route-sampled"` / `"route-table-sampled"`, `"replay"`,
    /// `"ingest"`, `"windows"`, or `"sim"`.
    pub oracle: &'static str,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.oracle, self.config, self.detail)
    }
}

/// Outcome of verifying a whole corpus.
#[derive(Debug, Default)]
pub struct VerifySummary {
    /// Configs checked.
    pub configs: usize,
    /// Node pairs route-checked across all topologies.
    pub route_pairs: u64,
    /// Replay comparisons performed (reference + chunk-size variants).
    pub replay_checks: u64,
    /// Ingest comparisons performed: byte parser vs reference parser
    /// (clean and corrupted text) and fused parallel fold vs the
    /// sequential matrix/stats passes.
    pub ingest_checks: u64,
    /// Windowed-metrics comparisons performed: the chunk-parallel
    /// windowed fold vs the sequential per-window sub-trace reference,
    /// merge-grouping invariance, and the sum-of-windows identity against
    /// the whole-trace aggregates.
    pub windows_checks: u64,
    /// Temporal-simulation comparisons performed: the CSR engine vs
    /// the per-message-routed `refsim` reference across a worker-count ×
    /// window-size sweep, route storage modes, injection orders and both
    /// forwarding models.
    pub sim_checks: u64,
    /// All violations found.
    pub mismatches: Vec<Mismatch>,
}

impl VerifySummary {
    /// True when every oracle agreed everywhere.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Compare the topology's analytic routing against the BFS oracle for
/// every node pair. Checks that each route is a valid, link-disjoint walk
/// and that its length is BFS-optimal (dragonfly minimal routing may be
/// one hop longer on 5-hop routes when `allow_one_hop_detour`).
///
/// Returns violations; the second tuple element is the number of pairs
/// checked.
pub fn check_routes(topo: &dyn Topology, allow_one_hop_detour: bool) -> (Vec<String>, u64) {
    let bfs = BfsRouter::new(topo);
    let n = topo.num_nodes();
    let mut violations = Vec::new();
    let mut pairs = 0u64;
    let mut route = Vec::new();
    for s in 0..n {
        let src = NodeId(s as u32);
        let dist = bfs.distances_from(src);
        for (d, &optimal) in dist.iter().enumerate().take(n) {
            let dst = NodeId(d as u32);
            pairs += 1;
            route.clear();
            topo.route_into(src, dst, &mut route);
            if let Err(e) = validate_walk(topo, src, dst, &route) {
                violations.push(format!("{s}->{d}: invalid walk: {e}"));
                continue;
            }
            let direct = route.len() as u32;
            let ok = direct == optimal || (allow_one_hop_detour && direct == 5 && optimal == 4);
            if !ok {
                violations.push(format!(
                    "{s}->{d}: analytic route has {direct} hops, BFS optimum is {optimal}"
                ));
            }
            if topo.hops(src, dst) != direct {
                violations.push(format!(
                    "{s}->{d}: hops() says {}, route() has {direct} links",
                    topo.hops(src, dst)
                ));
            }
        }
    }
    (violations, pairs)
}

/// Compare route storage against direct routing for every node pair: the
/// dense [`RouteTable`] and the storage [`RoutedTopology::auto`] picks
/// must both return routes *byte-identical* to [`Topology::route_into`],
/// with matching hop counts. Router-symmetric topologies additionally
/// check the compressed per-router table and the lazy compressed core rows
/// on every pair.
///
/// Returns violations; the second tuple element is the number of pairs
/// checked (each pair checks every applicable storage mode).
pub fn check_route_table(topo: &dyn Topology) -> (Vec<String>, u64) {
    let table = RouteTable::build(topo);
    let auto = RoutedTopology::auto(topo);
    let symmetric = topo.symmetry_hint().is_some();
    let compressed_modes = if symmetric {
        vec![
            ("compressed table", RoutedTopology::compressed(topo)),
            (
                "lazy compressed rows",
                RoutedTopology::lazy_compressed(topo),
            ),
        ]
    } else {
        Vec::new()
    };
    let n = topo.num_nodes();
    let mut violations = Vec::new();
    let mut pairs = 0u64;
    let mut direct = Vec::new();
    let mut scratch = Vec::new();
    if table.num_nodes() != n {
        violations.push(format!(
            "table covers {} nodes, topology has {n}",
            table.num_nodes()
        ));
        return (violations, pairs);
    }
    for s in 0..n {
        let src = NodeId(s as u32);
        for d in 0..n {
            let dst = NodeId(d as u32);
            pairs += 1;
            direct.clear();
            topo.route_into(src, dst, &mut direct);
            let stored = table.route_of(src, dst);
            if stored != direct {
                violations.push(format!(
                    "{s}->{d}: dense CSR route {stored:?} != route_into {direct:?}"
                ));
            }
            if table.hops(src, dst) as usize != direct.len() {
                violations.push(format!(
                    "{s}->{d}: dense CSR hops {} != route length {}",
                    table.hops(src, dst),
                    direct.len()
                ));
            }
            let auto_route = auto.route_of(src, dst, &mut scratch);
            if auto_route != direct {
                violations.push(format!(
                    "{s}->{d}: auto storage route {auto_route:?} != route_into {direct:?}"
                ));
            }
            for (label, routed) in &compressed_modes {
                let route = routed.route_of(src, dst, &mut scratch);
                if route != direct {
                    violations.push(format!(
                        "{s}->{d}: {label} route {route:?} != route_into {direct:?}"
                    ));
                }
                if routed.hops(src, dst) as usize != direct.len() {
                    violations.push(format!(
                        "{s}->{d}: {label} hops {} != route length {}",
                        routed.hops(src, dst),
                        direct.len()
                    ));
                }
            }
        }
    }
    (violations, pairs)
}

/// Node count above which `verify_corpus` switches the route oracles from
/// exhaustive all-pairs BFS to seeded sampling — all-pairs BFS on the
/// 500+-node zoo configs would cost minutes per run for no extra
/// assurance beyond the families' own unit tests.
pub const MAX_EXHAUSTIVE_ROUTE_NODES: usize = 500;

/// Minimum sampled pairs per config when the sampled route oracles run.
pub const SAMPLED_ROUTE_PAIRS: usize = 4096;

/// Sampled-pair variant of [`check_routes`]: seeded BFS from a sample of
/// sources, each checked against a sample of destinations, covering at
/// least `max_pairs` ordered pairs. Same assertions as the exhaustive
/// oracle — valid link-disjoint walk, BFS-optimal length, `hops()`
/// consistency — over a deterministic subset.
pub fn check_routes_sampled(
    topo: &dyn Topology,
    allow_one_hop_detour: bool,
    max_pairs: usize,
    seed: u64,
) -> (Vec<String>, u64) {
    let n = topo.num_nodes();
    let mut violations = Vec::new();
    let mut pairs = 0u64;
    if n < 2 || max_pairs == 0 {
        return (violations, pairs);
    }
    let bfs = BfsRouter::new(topo);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let per_source = 64.min(n);
    let num_sources = max_pairs.div_ceil(per_source).min(n);
    // Partial Fisher–Yates: distinct sources, so each BFS is amortized
    // over `per_source` destination checks.
    let mut pool: Vec<u32> = (0..n as u32).collect();
    for i in 0..num_sources {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    let mut route = Vec::new();
    for &s in &pool[..num_sources] {
        let src = NodeId(s);
        let dist = bfs.distances_from(src);
        for _ in 0..per_source {
            let d = rng.gen_range(0..n as u32);
            let dst = NodeId(d);
            pairs += 1;
            route.clear();
            topo.route_into(src, dst, &mut route);
            if let Err(e) = validate_walk(topo, src, dst, &route) {
                violations.push(format!("{s}->{d}: invalid walk: {e}"));
                continue;
            }
            let direct = route.len() as u32;
            let optimal = dist[d as usize];
            let ok = direct == optimal || (allow_one_hop_detour && direct == 5 && optimal == 4);
            if !ok {
                violations.push(format!(
                    "{s}->{d}: analytic route has {direct} hops, BFS optimum is {optimal}"
                ));
            }
            if topo.hops(src, dst) != direct {
                violations.push(format!(
                    "{s}->{d}: hops() says {}, route() has {direct} links",
                    topo.hops(src, dst)
                ));
            }
        }
    }
    (violations, pairs)
}

/// Sampled-pair variant of [`check_route_table`]: every storage mode the
/// machine supports (auto-picked and — when router-symmetric — the
/// compressed table and lazy compressed rows) must
/// return routes byte-identical to [`Topology::route_into`] on a seeded
/// pair sample, with matching hop counts.
pub fn check_route_table_sampled(
    topo: &dyn Topology,
    max_pairs: usize,
    seed: u64,
) -> (Vec<String>, u64) {
    let n = topo.num_nodes();
    let mut violations = Vec::new();
    let mut pairs = 0u64;
    if n == 0 || max_pairs == 0 {
        return (violations, pairs);
    }
    let mut modes = vec![("auto storage", RoutedTopology::auto(topo))];
    if topo.symmetry_hint().is_some() {
        modes.push(("compressed table", RoutedTopology::compressed(topo)));
        modes.push((
            "lazy compressed rows",
            RoutedTopology::lazy_compressed(topo),
        ));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut direct = Vec::new();
    let mut scratch = Vec::new();
    for _ in 0..max_pairs {
        let s = rng.gen_range(0..n as u32);
        let d = rng.gen_range(0..n as u32);
        let (src, dst) = (NodeId(s), NodeId(d));
        pairs += 1;
        direct.clear();
        topo.route_into(src, dst, &mut direct);
        for (label, routed) in &modes {
            let route = routed.route_of(src, dst, &mut scratch);
            if route != direct {
                violations.push(format!(
                    "{s}->{d}: {label} route {route:?} != route_into {direct:?}"
                ));
            }
            if routed.hops(src, dst) as usize != direct.len() {
                violations.push(format!(
                    "{s}->{d}: {label} hops {} != route length {}",
                    routed.hops(src, dst),
                    direct.len()
                ));
            }
        }
    }
    (violations, pairs)
}

/// Describe every field on which two reports differ (empty when equal).
/// Field-by-field beats a single `assert_eq!` dump: corpus reports carry
/// link-load vectors with hundreds of entries.
pub fn report_diff(expected: &NetworkReport, actual: &NetworkReport) -> Vec<String> {
    let mut diffs = Vec::new();
    macro_rules! cmp {
        ($field:ident) => {
            if expected.$field != actual.$field {
                diffs.push(format!(
                    "{}: expected {:?}, got {:?}",
                    stringify!($field),
                    expected.$field,
                    actual.$field
                ));
            }
        };
    }
    cmp!(packet_hops);
    cmp!(packets);
    cmp!(messages);
    cmp!(link_volume_bytes);
    cmp!(used_links);
    cmp!(total_links);
    cmp!(global_packets);
    cmp!(global_messages);
    cmp!(hop_histogram);
    if expected.link_loads != actual.link_loads {
        let first = expected
            .link_loads
            .iter()
            .zip(&actual.link_loads)
            .position(|(a, b)| a != b);
        diffs.push(match first {
            Some(i) => format!(
                "link_loads: first divergence at link {i}: expected {}, got {}",
                expected.link_loads[i], actual.link_loads[i]
            ),
            None => format!(
                "link_loads: length {} vs {}",
                expected.link_loads.len(),
                actual.link_loads.len()
            ),
        });
    }
    diffs
}

/// Differential replay check for one corpus config: every production
/// replay path — the node-pair-deduplicated default, the same replay over
/// the dense table and over the storage `auto` picks, the legacy
/// rank-pair baseline, and several explicit chunk sizes — must be
/// byte-identical to the naive single-threaded reference.
///
/// Returns violations; the second tuple element is the number of replay
/// comparisons performed.
pub fn check_replay(cfg: &CorpusConfig) -> (Vec<String>, u64) {
    let topo = cfg.build_topology();
    let mapping = cfg.build_mapping(topo.num_nodes());
    let tm = cfg.build_traffic();

    let reference = analyze_network_reference(topo.as_ref(), &mapping, &tm);
    let mut violations = Vec::new();
    let mut checks = 0u64;

    let production = analyze_network(topo.as_ref(), &mapping, &tm);
    checks += 1;
    for d in report_diff(&reference, &production) {
        violations.push(format!("production path: {d}"));
    }

    // The node-pair replay over precomputed CSR storage, in every mode
    // the machine supports (compressed storage exists only on
    // router-symmetric topologies).
    let mut storage_modes = vec![
        ("dense route table", RoutedTopology::dense(topo.as_ref())),
        ("auto storage", RoutedTopology::auto(topo.as_ref())),
    ];
    if topo.symmetry_hint().is_some() {
        storage_modes.push((
            "compressed table",
            RoutedTopology::compressed(topo.as_ref()),
        ));
        storage_modes.push((
            "lazy compressed rows",
            RoutedTopology::lazy_compressed(topo.as_ref()),
        ));
    }
    for (label, routed) in &storage_modes {
        let routed_report = analyze_network_routed(routed, &mapping, &tm);
        checks += 1;
        for d in report_diff(&reference, &routed_report) {
            violations.push(format!("{label}: {d}"));
        }
    }

    // The pre-deduplication rank-pair baseline kept for benchmarking.
    let legacy = analyze_network_rank_pairs(topo.as_ref(), &mapping, &tm, 512);
    checks += 1;
    for d in report_diff(&reference, &legacy) {
        violations.push(format!("rank-pair baseline: {d}"));
    }

    // Degenerate (1), prime (7), and single-chunk sizes shake out any
    // dependence on how pairs are split across workers.
    for chunk in [1usize, 7, tm.num_pairs().max(1)] {
        let chunked = analyze_network_routed_chunked(
            &RoutedTopology::direct(topo.as_ref()),
            &mapping,
            &tm,
            chunk,
        );
        checks += 1;
        for d in report_diff(&reference, &chunked) {
            violations.push(format!("chunk size {chunk}: {d}"));
        }
    }
    (violations, checks)
}

/// Differential ingest check for one corpus config: the chunked zero-copy
/// byte parser must reproduce the reference text parser exactly — equal
/// traces on the round-tripped corpus text at several chunk sizes,
/// *identical first error* (same `Display` string, line number included)
/// on seeded corruptions of that text — and the fused parallel fold must
/// produce the same traffic matrices and Table 1 stats as the sequential
/// `from_trace_full`/`from_trace_p2p`/`stats()` passes.
///
/// Returns violations; the second tuple element is the number of ingest
/// comparisons performed.
pub fn check_ingest(cfg: &CorpusConfig) -> (Vec<String>, u64) {
    let mut violations = Vec::new();
    let mut checks = 0u64;
    let trace = cfg.build_trace();
    let text = write_trace(&trace);

    // Byte parser vs reference parser on the clean round-tripped text,
    // across degenerate, prime, and default chunk splits.
    for chunk in [0usize, 1, 113] {
        checks += 1;
        match parse_trace_bytes_chunked(text.as_bytes(), chunk) {
            Ok(t) if t == trace => {}
            Ok(_) => violations.push(format!(
                "byte parser (chunk {chunk}) trace differs from the reference parser"
            )),
            Err(e) => violations.push(format!(
                "byte parser (chunk {chunk}) failed on clean text: {e}"
            )),
        }
    }

    // Fused parallel fold vs the three sequential passes.
    let seq_full = TrafficMatrix::from_trace_full(&trace);
    let seq_p2p = TrafficMatrix::from_trace_p2p(&trace);
    let seq_stats = trace.stats();
    for chunk in [0usize, 1, 7] {
        checks += 1;
        let ing = ingest_trace_chunked(trace.clone(), chunk);
        if ing.stats != seq_stats {
            violations.push(format!(
                "fused stats (chunk {chunk}): {:?} != sequential {seq_stats:?}",
                ing.stats
            ));
        }
        for (label, fused, seq) in [
            ("full matrix", &ing.matrix, &seq_full),
            ("p2p matrix", &ing.p2p, &seq_p2p),
        ] {
            if fused.num_ranks() != seq.num_ranks() || fused.sorted_pairs() != seq.sorted_pairs() {
                violations.push(format!(
                    "fused {label} (chunk {chunk}) differs from the sequential pass ({} vs {} pairs)",
                    fused.num_pairs(),
                    seq.num_pairs()
                ));
            }
        }
    }

    // Seeded corruptions: both parsers must agree on the outcome — the
    // same trace, or the same first error by byte offset (compared as the
    // rendered message, so line numbers must match too). Mutations stay
    // in the ASCII range so the text remains valid UTF-8 and the byte
    // parser exercises its chunked path rather than the UTF-8 bailout.
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x0069_6e67_6573_7400);
    for _ in 0..4 {
        checks += 1;
        let mut bytes = text.clone().into_bytes();
        if rng.gen_range(0u8..4) == 0 {
            bytes.truncate(rng.gen_range(0..=bytes.len()));
        }
        if !bytes.is_empty() {
            for _ in 0..rng.gen_range(1usize..6) {
                let idx = rng.gen_range(0..bytes.len());
                bytes[idx] = rng.gen_range(0u8..128);
            }
        }
        let corrupted = String::from_utf8(bytes).expect("ASCII mutations stay UTF-8");
        let reference = parse_trace(&corrupted);
        let chunked = parse_trace_bytes_chunked(corrupted.as_bytes(), 37);
        let agree = match (&reference, &chunked) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        if !agree {
            violations.push(format!(
                "parsers disagree on corrupted text: reference {:?}, byte parser {:?}",
                reference
                    .as_ref()
                    .map(|_| "Ok")
                    .map_err(ToString::to_string),
                chunked.as_ref().map(|_| "Ok").map_err(ToString::to_string),
            ));
        }
    }
    (violations, checks)
}

/// Differential windowed-metrics check for one corpus config: the
/// chunk-parallel [`windowed_ingest`] must be byte-identical to the
/// sequential sub-trace reference across window counts and chunk sizes,
/// invariant under a seeded random grouping of events into independently
/// folded-and-merged accumulators, and its per-window aggregates must sum
/// back to the whole-trace ingest results exactly.
///
/// Returns violations; the second tuple element is the number of windowed
/// comparisons performed.
pub fn check_windows(cfg: &CorpusConfig) -> (Vec<String>, u64) {
    let mut violations = Vec::new();
    let mut checks = 0u64;
    let trace = cfg.build_trace();

    for windows in [1usize, 3, 8] {
        let reference = windowed_reference(&trace, windows);

        // Parallel fold vs the sequential reference, across degenerate,
        // prime, and one-chunk-per-worker splits.
        for chunk in [0usize, 1, 7] {
            checks += 1;
            let got = windowed_ingest_chunked(&trace, windows, chunk);
            for d in windows_diff(&got, &reference) {
                violations.push(format!(
                    "windowed fold (windows {windows}, chunk {chunk}): {d}"
                ));
            }
        }

        // Seeded random grouping: deal the events across three private
        // accumulators in shuffled order, merge, and demand identity —
        // merge must be associative and commutative in any grouping.
        checks += 1;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x0077_696e_646f_7773 ^ windows as u64);
        let mut accums: Vec<WindowedAccum> = (0..3)
            .map(|_| WindowedAccum::new(trace.num_ranks, windows, trace.exec_time_s))
            .collect();
        for i in 0..trace.events.len() {
            let which = rng.gen_range(0..accums.len());
            accums[which].fold_events(&trace, &trace.events[i..i + 1]);
        }
        let mut accums = accums.into_iter();
        let mut merged = accums.next().expect("three accumulators");
        for a in accums {
            merged.merge(a);
        }
        for d in windows_diff(&merged.finish(&trace), &reference) {
            violations.push(format!("windowed merge grouping (windows {windows}): {d}"));
        }
    }

    // Sum-of-windows identity: adding every window's counters and matrix
    // cells reproduces the whole-trace fused ingest bit for bit.
    checks += 1;
    let whole = ingest_trace_chunked(trace.clone(), 0);
    let windowed = windowed_ingest(&trace, 5);
    let sums = windowed
        .windows
        .iter()
        .fold((0u64, 0u64, 0u64, 0u64), |acc, w| {
            (
                acc.0 + w.p2p_bytes,
                acc.1 + w.coll_bytes,
                acc.2 + w.p2p_calls,
                acc.3 + w.coll_calls,
            )
        });
    let expect = (
        whole.stats.p2p_bytes,
        whole.stats.coll_bytes,
        whole.stats.p2p_calls,
        whole.stats.coll_calls,
    );
    if sums != expect {
        violations.push(format!(
            "window counter sums {sums:?} != whole-trace stats {expect:?}"
        ));
    }
    for (label, select, whole_matrix) in [
        (
            "full",
            (|w: &netloc_core::WindowMetrics| &w.matrix)
                as fn(&netloc_core::WindowMetrics) -> &TrafficMatrix,
            &whole.matrix,
        ),
        ("p2p", |w: &netloc_core::WindowMetrics| &w.p2p, &whole.p2p),
    ] {
        let mut summed: std::collections::BTreeMap<(u32, u32), PairTraffic> =
            std::collections::BTreeMap::new();
        for w in &windowed.windows {
            for (k, p) in select(w).sorted_pairs() {
                let e = summed.entry(*k).or_default();
                e.bytes += p.bytes;
                e.messages += p.messages;
                e.packets += p.packets;
            }
        }
        let summed: Vec<((u32, u32), PairTraffic)> = summed.into_iter().collect();
        if summed != whole_matrix.sorted_pairs() {
            violations.push(format!(
                "summed {label} window matrix ({} pairs) != whole-trace matrix ({} pairs)",
                summed.len(),
                whole_matrix.num_pairs()
            ));
        }
    }

    (violations, checks)
}

/// Describe every field on which two simulation reports differ (empty
/// when equal). The sim oracle demands *byte identity* — floats are
/// compared with `==`, never a tolerance — so a field-by-field diff that
/// pinpoints the first diverging window or link is far more readable than
/// a whole-struct dump.
pub fn sim_report_diff(expected: &SimReport, actual: &SimReport) -> Vec<String> {
    let mut diffs = Vec::new();
    macro_rules! cmp {
        ($field:ident) => {
            if expected.$field != actual.$field {
                diffs.push(format!(
                    "{}: expected {:?}, got {:?}",
                    stringify!($field),
                    expected.$field,
                    actual.$field
                ));
            }
        };
    }
    cmp!(messages);
    cmp!(bytes);
    cmp!(mean_latency_s);
    cmp!(max_latency_s);
    cmp!(total_queueing_s);
    cmp!(mean_queueing_s);
    cmp!(makespan_s);
    cmp!(injection_horizon_s);
    cmp!(total_busy_link_s);
    cmp!(total_offered_link_s);
    cmp!(peak_link_busy_s);
    cmp!(used_links);
    cmp!(sample_stride);
    if expected.windows != actual.windows {
        let first = expected
            .windows
            .iter()
            .zip(&actual.windows)
            .position(|(a, b)| a != b);
        diffs.push(match first {
            Some(i) => format!(
                "windows: first divergence at window {i}: expected {:?}, got {:?}",
                expected.windows[i], actual.windows[i]
            ),
            None => format!(
                "windows: length {} vs {}",
                expected.windows.len(),
                actual.windows.len()
            ),
        });
    }
    if expected.link_busy_s != actual.link_busy_s {
        let first = expected
            .link_busy_s
            .iter()
            .zip(&actual.link_busy_s)
            .position(|(a, b)| a != b);
        diffs.push(match first {
            Some(i) => format!(
                "link_busy_s: first divergence at link {i}: expected {}, got {}",
                expected.link_busy_s[i], actual.link_busy_s[i]
            ),
            None => format!(
                "link_busy_s: length {} vs {}",
                expected.link_busy_s.len(),
                actual.link_busy_s.len()
            ),
        });
    }
    diffs
}

/// Differential temporal-simulation check for one corpus config: the
/// CSR engine must be **byte-identical** to the per-message-routed
/// `refsim` reference for both forwarding models, across a worker-count ×
/// window-size sweep (including degenerate one-injection windows and the
/// auto settings), over the storage `auto` picks as well as the dense
/// table, and for a reversed injection order.
///
/// Returns violations; the second tuple element is the number of
/// simulation comparisons performed.
pub fn check_sim(cfg: &CorpusConfig) -> (Vec<String>, u64) {
    let topo = cfg.build_topology();
    let mapping = cfg.build_mapping(topo.num_nodes());
    let trace = cfg.build_trace();
    // A bounded expansion keeps the 30-config sweep fast while still
    // exercising subsampling (stride > 1) on the bigger corpus traces.
    let (injections, _) = expand_trace(&trace, 4_000);

    let mut violations = Vec::new();
    let mut checks = 0u64;
    let dense = RoutedTopology::dense(topo.as_ref());
    let auto = RoutedTopology::auto(topo.as_ref());

    for forwarding in [Forwarding::StoreAndForward, Forwarding::CutThrough] {
        let sim_cfg = SimConfig {
            forwarding,
            report_windows: 8,
            ..SimConfig::default()
        };
        let reference = simulate_reference(topo.as_ref(), &mapping, &injections, &sim_cfg);

        // Worker counts above the container's core count still spawn real
        // threads; window 1 forces a synchronization barrier per
        // injection; 0/0 is the production auto path.
        for workers in [1usize, 2, 0] {
            for window in [1usize, 7, 0] {
                checks += 1;
                let exec = SimExec { workers, window };
                let report = simulate_parallel(&dense, &mapping, &injections, &sim_cfg, &exec);
                for d in sim_report_diff(&reference, &report) {
                    violations.push(format!(
                        "{forwarding:?} workers {workers} window {window}: {d}"
                    ));
                }
            }
        }

        checks += 1;
        let via_auto =
            simulate_parallel(&auto, &mapping, &injections, &sim_cfg, &SimExec::default());
        for d in sim_report_diff(&reference, &via_auto) {
            violations.push(format!("{forwarding:?} auto route storage: {d}"));
        }

        checks += 1;
        let mut reversed = injections.clone();
        reversed.reverse();
        let exec = SimExec {
            workers: 2,
            window: 97,
        };
        let report = simulate_parallel(&dense, &mapping, &reversed, &sim_cfg, &exec);
        for d in sim_report_diff(&reference, &report) {
            violations.push(format!("{forwarding:?} reversed injection order: {d}"));
        }
    }
    (violations, checks)
}

/// Run every oracle over every config of the corpus.
pub fn verify_corpus(corpus: &[CorpusConfig]) -> VerifySummary {
    let mut summary = VerifySummary::default();
    // Route-check each distinct topology once — the analytic routing does
    // not depend on mapping or workload, and re-checking 72-node
    // dragonflies per config would triple the runtime for no coverage.
    let mut seen_topologies = Vec::new();
    for cfg in corpus {
        summary.configs += 1;
        if !seen_topologies.contains(&cfg.topology) {
            seen_topologies.push(cfg.topology);
            let topo = cfg.build_topology();
            // Zoo-sized configs get the seeded sampled oracles; all-pairs
            // BFS there would take minutes without adding assurance.
            let exhaustive = topo.num_nodes() <= MAX_EXHAUSTIVE_ROUTE_NODES;
            let (violations, pairs) = if exhaustive {
                check_routes(topo.as_ref(), cfg.topology.allows_one_hop_detour())
            } else {
                check_routes_sampled(
                    topo.as_ref(),
                    cfg.topology.allows_one_hop_detour(),
                    SAMPLED_ROUTE_PAIRS,
                    cfg.seed,
                )
            };
            summary.route_pairs += pairs;
            summary
                .mismatches
                .extend(violations.into_iter().map(|detail| Mismatch {
                    config: cfg.id(),
                    oracle: if exhaustive { "route" } else { "route-sampled" },
                    detail,
                }));
            let (violations, pairs) = if exhaustive {
                check_route_table(topo.as_ref())
            } else {
                check_route_table_sampled(topo.as_ref(), SAMPLED_ROUTE_PAIRS, cfg.seed ^ 0x7ab1e)
            };
            summary.route_pairs += pairs;
            summary
                .mismatches
                .extend(violations.into_iter().map(|detail| Mismatch {
                    config: cfg.id(),
                    oracle: if exhaustive {
                        "route-table"
                    } else {
                        "route-table-sampled"
                    },
                    detail,
                }));
        }
        let (violations, checks) = check_replay(cfg);
        summary.replay_checks += checks;
        summary
            .mismatches
            .extend(violations.into_iter().map(|detail| Mismatch {
                config: cfg.id(),
                oracle: "replay",
                detail,
            }));
        let (violations, checks) = check_ingest(cfg);
        summary.ingest_checks += checks;
        summary
            .mismatches
            .extend(violations.into_iter().map(|detail| Mismatch {
                config: cfg.id(),
                oracle: "ingest",
                detail,
            }));
        let (violations, checks) = check_windows(cfg);
        summary.windows_checks += checks;
        summary
            .mismatches
            .extend(violations.into_iter().map(|detail| Mismatch {
                config: cfg.id(),
                oracle: "windows",
                detail,
            }));
        let (violations, checks) = check_sim(cfg);
        summary.sim_checks += checks;
        summary
            .mismatches
            .extend(violations.into_iter().map(|detail| Mismatch {
                config: cfg.id(),
                oracle: "sim",
                detail,
            }));
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::default_corpus;

    #[test]
    fn default_corpus_verifies_clean() {
        let summary = verify_corpus(&default_corpus());
        assert!(summary.configs >= 20);
        assert!(summary.route_pairs > 0);
        assert!(summary.replay_checks >= summary.configs as u64);
        assert!(summary.ingest_checks >= summary.configs as u64);
        assert!(summary.windows_checks >= 10 * summary.configs as u64);
        assert!(summary.sim_checks >= 20 * summary.configs as u64);
        assert!(
            summary.is_clean(),
            "oracle mismatches:\n{}",
            summary
                .mismatches
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn route_tables_byte_identical_on_all_corpus_topologies() {
        for cfg in default_corpus() {
            let topo = cfg.build_topology();
            let (violations, pairs) = if topo.num_nodes() <= MAX_EXHAUSTIVE_ROUTE_NODES {
                check_route_table(topo.as_ref())
            } else {
                check_route_table_sampled(topo.as_ref(), SAMPLED_ROUTE_PAIRS, cfg.seed)
            };
            assert!(pairs > 0);
            assert!(
                violations.is_empty(),
                "{}: {}",
                cfg.id(),
                violations.join("\n")
            );
        }
    }

    #[test]
    fn sampled_oracles_cover_the_zoo_configs() {
        let mut sampled_families = 0;
        for cfg in default_corpus() {
            let topo = cfg.build_topology();
            if topo.num_nodes() <= MAX_EXHAUSTIVE_ROUTE_NODES {
                continue;
            }
            sampled_families += 1;
            let (violations, pairs) = check_routes_sampled(
                topo.as_ref(),
                cfg.topology.allows_one_hop_detour(),
                SAMPLED_ROUTE_PAIRS,
                cfg.seed,
            );
            assert!(pairs >= SAMPLED_ROUTE_PAIRS as u64, "{}", cfg.id());
            assert!(
                violations.is_empty(),
                "{}: {}",
                cfg.id(),
                violations.join("\n")
            );
            let (violations, pairs) =
                check_route_table_sampled(topo.as_ref(), SAMPLED_ROUTE_PAIRS, cfg.seed);
            assert!(pairs >= SAMPLED_ROUTE_PAIRS as u64, "{}", cfg.id());
            assert!(
                violations.is_empty(),
                "{}: {}",
                cfg.id(),
                violations.join("\n")
            );
        }
        assert_eq!(
            sampled_families, 3,
            "each zoo family contributes one sampled-oracle config"
        );
    }

    #[test]
    fn sampled_route_oracle_is_seeded() {
        let topo = netloc_topology::SlimFly::new(13, 2);
        let (v1, p1) = check_routes_sampled(&topo, false, 1000, 5);
        let (v2, p2) = check_routes_sampled(&topo, false, 1000, 5);
        assert_eq!((v1.len(), p1), (v2.len(), p2));
        assert!(p1 >= 1000);
        assert!(v1.is_empty());
    }

    #[test]
    fn dedup_replay_equals_reference_on_all_corpus_configs() {
        for cfg in default_corpus() {
            let topo = cfg.build_topology();
            let mapping = cfg.build_mapping(topo.num_nodes());
            let tm = cfg.build_traffic();
            let reference = analyze_network_reference(topo.as_ref(), &mapping, &tm);
            let routed = RoutedTopology::dense(topo.as_ref());
            // Full-struct equality, not field spot-checks: NetworkReport is
            // all exact integers, so == is the strongest possible oracle.
            assert_eq!(
                analyze_network_routed(&routed, &mapping, &tm),
                reference,
                "{}",
                cfg.id()
            );
        }
    }

    #[test]
    fn ingest_oracle_clean_on_all_corpus_configs() {
        for cfg in default_corpus() {
            let (violations, checks) = check_ingest(&cfg);
            assert!(checks >= 10, "{}: only {checks} ingest checks", cfg.id());
            assert!(
                violations.is_empty(),
                "{}: {}",
                cfg.id(),
                violations.join("\n")
            );
        }
    }

    #[test]
    fn windows_oracle_clean_on_all_corpus_configs() {
        for cfg in default_corpus() {
            let (violations, checks) = check_windows(&cfg);
            assert!(checks >= 10, "{}: only {checks} windows checks", cfg.id());
            assert!(
                violations.is_empty(),
                "{}: {}",
                cfg.id(),
                violations.join("\n")
            );
        }
    }

    #[test]
    fn corrupted_text_keeps_line_numbers_in_both_parsers() {
        // A bad record appended after a full corpus trace must be
        // reported at its actual (late) line number by the sequential
        // parser and the chunked byte parser alike.
        let cfg = &default_corpus()[0];
        let mut text = write_trace(&cfg.build_trace());
        text.push_str("send 0 1 bogus F64 0 1 0.5\n");
        let line = text.lines().count();
        let a = parse_trace(&text).unwrap_err().to_string();
        let b = parse_trace_bytes_chunked(text.as_bytes(), 13)
            .unwrap_err()
            .to_string();
        assert_eq!(a, b);
        assert!(a.contains(&format!("line {line}")), "{a}");
    }

    #[test]
    fn sim_oracle_clean_on_all_corpus_configs() {
        for cfg in default_corpus() {
            let (violations, checks) = check_sim(&cfg);
            assert!(checks >= 22, "{}: only {checks} sim checks", cfg.id());
            assert!(
                violations.is_empty(),
                "{}: {}",
                cfg.id(),
                violations.join("\n")
            );
        }
    }

    #[test]
    fn sim_report_diff_pinpoints_field_and_window() {
        let cfg = &default_corpus()[0];
        let topo = cfg.build_topology();
        let mapping = cfg.build_mapping(topo.num_nodes());
        let (injections, _) = expand_trace(&cfg.build_trace(), 500);
        let sim_cfg = SimConfig {
            report_windows: 4,
            ..SimConfig::default()
        };
        let a = simulate_reference(topo.as_ref(), &mapping, &injections, &sim_cfg);
        let mut b = a.clone();
        assert!(sim_report_diff(&a, &b).is_empty());
        b.messages += 1;
        b.windows[1].bytes += 3;
        b.link_busy_s[0] += 1.0;
        let diffs = sim_report_diff(&a, &b);
        assert!(diffs.iter().any(|d| d.starts_with("messages")));
        assert!(diffs
            .iter()
            .any(|d| d.starts_with("windows: first divergence at window 1")));
        assert!(diffs
            .iter()
            .any(|d| d.starts_with("link_busy_s: first divergence at link 0")));
    }

    #[test]
    fn report_diff_pinpoints_field() {
        let cfg = &default_corpus()[0];
        let topo = cfg.build_topology();
        let mapping = cfg.build_mapping(topo.num_nodes());
        let tm = cfg.build_traffic();
        let a = analyze_network_reference(topo.as_ref(), &mapping, &tm);
        let mut b = a.clone();
        assert!(report_diff(&a, &b).is_empty());
        b.packets += 1;
        b.link_loads[0] += 3;
        let diffs = report_diff(&a, &b);
        assert!(diffs.iter().any(|d| d.starts_with("packets")));
        assert!(diffs.iter().any(|d| d.starts_with("link_loads")));
    }
}
