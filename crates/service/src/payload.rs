//! Response payloads — the single definition of every JSON body the
//! service emits.
//!
//! The CLI's `--json` flags (`netloc stats --json`, `netloc metrics
//! --json`, `netloc serve`'s siblings) render these same structs through
//! [`netloc_core::canon::canonical_json`], which is what makes server
//! responses and CLI output diffable byte-for-byte, and what lets the
//! integration tests compare a served response against a direct
//! `analyze_network_routed` call down to the last byte.

use netloc_core::metrics::{dimensionality, peers, rank_locality, selectivity};
use netloc_core::{
    analyze_network_routed, NetworkReport, TrafficMatrix, WindowMetrics, WindowedMetrics,
};
use netloc_mpi::{Trace, TraceStats};
use netloc_topology::optimize::TrafficEntry;
use netloc_topology::{MappingSpec, RoutedTopology, SpecError, TopologySpec};
use serde::Serialize;

/// Identifying metadata of the analyzed trace, embedded in every
/// replay-style response.
#[derive(Debug, Clone, Serialize)]
pub struct TraceMeta {
    /// Application name from the trace.
    pub app: String,
    /// World size.
    pub ranks: u32,
    /// Execution time in seconds (trace metadata).
    pub exec_time_s: f64,
    /// Content digest of the trace source (hex), the first component of
    /// the result-cache key.
    pub digest: String,
}

impl TraceMeta {
    /// Metadata for `trace`, whose source bytes digested to `digest`.
    pub fn new(trace: &Trace, digest: String) -> Self {
        TraceMeta {
            app: trace.app.clone(),
            ranks: trace.num_ranks,
            exec_time_s: trace.exec_time_s,
            digest,
        }
    }
}

/// `POST /v1/analyze` — one topology × mapping replay.
#[derive(Debug, Clone, Serialize)]
pub struct AnalyzeResponse {
    /// The analyzed trace.
    pub trace: TraceMeta,
    /// Canonical topology spec (after `auto` resolution).
    pub topology: String,
    /// Compute nodes of the topology.
    pub nodes: usize,
    /// Canonical mapping spec.
    pub mapping: String,
    /// Messages injected.
    pub messages: u64,
    /// Packets injected.
    pub packets: u64,
    /// Total packet hops (paper Eq. 3).
    pub packet_hops: u128,
    /// Average hops per packet (Eq. 4).
    pub avg_hops: f64,
    /// Links carrying at least one byte.
    pub used_links: usize,
    /// All links of the topology.
    pub total_links: usize,
    /// Utilization in percent (Eq. 5 over the trace's execution time).
    pub utilization_pct: f64,
    /// Share of messages crossing a dragonfly global link.
    pub global_message_share: f64,
    /// Share of packets crossing a dragonfly global link.
    pub global_packet_share: f64,
    /// Hop histogram (index = hops, value = packets).
    pub hop_histogram: Vec<u64>,
    /// Time-resolved replay (`"windows": N` in the request): each window's
    /// traffic replayed through the same mapping. `null` unless requested.
    pub windows: Option<Vec<WindowBlock>>,
}

/// One time window of an [`AnalyzeResponse`]: the replay of that window's
/// traffic over the same topology and mapping as the whole-trace report.
/// Window packet counts and hop totals sum to the whole-trace figures
/// exactly — the windowed fold is merge-invariant (see
/// `netloc_core::ingest`).
#[derive(Debug, Clone, Serialize)]
pub struct WindowBlock {
    /// Window position, `0..windows`.
    pub index: usize,
    /// Inclusive window start time (seconds).
    pub t_start_s: f64,
    /// Exclusive window end time (the last window absorbs later events).
    pub t_end_s: f64,
    /// Messages injected within the window.
    pub messages: u64,
    /// Packets injected within the window.
    pub packets: u64,
    /// Total packet hops within the window.
    pub packet_hops: u128,
    /// Average hops per packet within the window.
    pub avg_hops: f64,
    /// Hop histogram of the window (index = hops, value = packets).
    pub hop_histogram: Vec<u64>,
}

impl AnalyzeResponse {
    /// Assemble from a finished report. Pure data shuffling — the test
    /// suite builds the expected bytes through this same constructor from
    /// a direct `analyze_network_routed` call.
    pub fn from_report(
        trace: TraceMeta,
        topology: &TopologySpec,
        nodes: usize,
        mapping: &MappingSpec,
        exec_time_s: f64,
        report: &NetworkReport,
    ) -> Self {
        AnalyzeResponse {
            trace,
            topology: topology.to_string(),
            nodes,
            mapping: mapping.to_string(),
            messages: report.messages,
            packets: report.packets,
            packet_hops: report.packet_hops,
            avg_hops: report.avg_hops(),
            used_links: report.used_links,
            total_links: report.total_links,
            utilization_pct: report.utilization_pct(exec_time_s),
            global_message_share: report.global_message_share(),
            global_packet_share: report.global_packet_share(),
            hop_histogram: report.hop_histogram.clone(),
            windows: None,
        }
    }
}

/// `tm`'s undirected entries when any of `map_specs` reads traffic
/// ([`MappingSpec::needs_traffic`]), else nothing — symmetrizing a large
/// matrix is not free.
fn undirected_if_needed(tm: &TrafficMatrix, map_specs: &[MappingSpec]) -> Vec<TrafficEntry> {
    if map_specs.iter().any(MappingSpec::needs_traffic) {
        tm.undirected_entries()
    } else {
        Vec::new()
    }
}

/// Replay `trace` on `routed` (built from the already-resolved
/// `topo_spec`) under `map_spec`, producing the response payload.
///
/// `tm` is the trace's full traffic matrix, precomputed by the parallel
/// ingest fold when the request was decoded (identical to
/// `TrafficMatrix::from_trace_full`).
///
/// This is the service's entire analysis path; the caller decides how
/// `routed` was obtained (shared cached table or `RoutedTopology::auto`),
/// which cannot change the result — only how fast it arrives.
pub fn analyze(
    trace: &Trace,
    tm: &TrafficMatrix,
    trace_digest: String,
    topo_spec: &TopologySpec,
    map_spec: &MappingSpec,
    routed: &RoutedTopology<'_>,
) -> Result<AnalyzeResponse, SpecError> {
    let ranks = trace.num_ranks as usize;
    let undirected = undirected_if_needed(tm, std::slice::from_ref(map_spec));
    let mapping = map_spec.build_with_traffic(ranks, routed, &undirected)?;
    let report = analyze_network_routed(routed, &mapping, tm);
    Ok(AnalyzeResponse::from_report(
        TraceMeta::new(trace, trace_digest),
        topo_spec,
        routed.num_nodes(),
        map_spec,
        trace.exec_time_s,
        &report,
    ))
}

/// [`analyze`] plus a time-resolved `windows` block: the execution cut
/// into `windows` equal slices, each slice's traffic replayed through the
/// *same* mapping (built once from the whole-trace matrix) as the main
/// report.
pub fn analyze_windowed(
    trace: &Trace,
    tm: &TrafficMatrix,
    trace_digest: String,
    topo_spec: &TopologySpec,
    map_spec: &MappingSpec,
    routed: &RoutedTopology<'_>,
    windows: usize,
) -> Result<AnalyzeResponse, SpecError> {
    let ranks = trace.num_ranks as usize;
    let undirected = undirected_if_needed(tm, std::slice::from_ref(map_spec));
    let mapping = map_spec.build_with_traffic(ranks, routed, &undirected)?;
    let report = analyze_network_routed(routed, &mapping, tm);
    let windowed = netloc_core::windowed_ingest(trace, windows);
    let blocks = windowed
        .windows
        .iter()
        .enumerate()
        .map(|(index, w)| {
            let wr = analyze_network_routed(routed, &mapping, &w.matrix);
            WindowBlock {
                index,
                t_start_s: w.t_start_s,
                t_end_s: w.t_end_s,
                messages: wr.messages,
                packets: wr.packets,
                packet_hops: wr.packet_hops,
                avg_hops: wr.avg_hops(),
                hop_histogram: wr.hop_histogram.clone(),
            }
        })
        .collect();
    let mut resp = AnalyzeResponse::from_report(
        TraceMeta::new(trace, trace_digest),
        topo_spec,
        routed.num_nodes(),
        map_spec,
        trace.exec_time_s,
        &report,
    );
    resp.windows = Some(blocks);
    Ok(resp)
}

/// One cell of a `POST /v1/sweep` response.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCellResponse {
    /// Canonical mapping spec of this cell.
    pub mapping: String,
    /// Packets injected.
    pub packets: u64,
    /// Total packet hops.
    pub packet_hops: u128,
    /// Average hops per packet.
    pub avg_hops: f64,
    /// Links carrying at least one byte.
    pub used_links: usize,
    /// Utilization in percent.
    pub utilization_pct: f64,
    /// Share of messages crossing a dragonfly global link.
    pub global_message_share: f64,
}

/// `POST /v1/sweep` — one topology, many mappings, shared routes.
#[derive(Debug, Clone, Serialize)]
pub struct SweepResponse {
    /// The analyzed trace.
    pub trace: TraceMeta,
    /// Canonical topology spec.
    pub topology: String,
    /// Compute nodes of the topology.
    pub nodes: usize,
    /// One cell per requested mapping, in request order.
    pub cells: Vec<SweepCellResponse>,
}

/// Replay `trace` under every mapping in `map_specs` over one shared
/// `routed` — the grid column the paper's Tables 4–6 are made of. `tm` is
/// the trace's precomputed full traffic matrix (see [`analyze`]).
pub fn sweep(
    trace: &Trace,
    tm: &TrafficMatrix,
    trace_digest: String,
    topo_spec: &TopologySpec,
    map_specs: &[MappingSpec],
    routed: &RoutedTopology<'_>,
) -> Result<SweepResponse, SpecError> {
    let ranks = trace.num_ranks as usize;
    let undirected = undirected_if_needed(tm, map_specs);
    let mut cells = Vec::with_capacity(map_specs.len());
    for spec in map_specs {
        let mapping = spec.build_with_traffic(ranks, routed, &undirected)?;
        let report = analyze_network_routed(routed, &mapping, tm);
        cells.push(SweepCellResponse {
            mapping: spec.to_string(),
            packets: report.packets,
            packet_hops: report.packet_hops,
            avg_hops: report.avg_hops(),
            used_links: report.used_links,
            utilization_pct: report.utilization_pct(trace.exec_time_s),
            global_message_share: report.global_message_share(),
        });
    }
    Ok(SweepResponse {
        trace: TraceMeta::new(trace, trace_digest),
        topology: topo_spec.to_string(),
        nodes: routed.num_nodes(),
        cells,
    })
}

/// `POST /v1/stats` and `netloc stats --json` — the Table 1-style trace
/// overview.
#[derive(Debug, Clone, Serialize)]
pub struct StatsResponse {
    /// Application name.
    pub app: String,
    /// World size.
    pub ranks: u32,
    /// Execution time in seconds.
    pub exec_time_s: f64,
    /// Total injected volume in MB (p2p + translated collectives).
    pub total_mb: f64,
    /// Point-to-point share of the volume, percent.
    pub p2p_pct: f64,
    /// Point-to-point calls (repeats expanded).
    pub p2p_calls: u64,
    /// Collective share of the volume, percent.
    pub coll_pct: f64,
    /// Collective calls (repeats expanded).
    pub coll_calls: u64,
    /// Injected throughput in MB/s.
    pub throughput_mb_s: f64,
    /// Number of sub-communicators (world excluded).
    pub communicators: usize,
    /// Whether every collective runs on the global communicator.
    pub global_only: bool,
    /// Time-resolved rows (`"windows": N` / `--windows N`): Table-1
    /// counters and locality metrics per equal time slice. `null` unless
    /// requested.
    pub windows: Option<Vec<StatsWindow>>,
}

/// One time window of a [`StatsResponse`]: the window's Table-1 counters
/// (which sum to the whole-trace figures bit for bit) plus the MPI-level
/// locality metrics computed from that window's traffic alone.
#[derive(Debug, Clone, Serialize)]
pub struct StatsWindow {
    /// Window position, `0..windows`.
    pub index: usize,
    /// Inclusive window start time (seconds).
    pub t_start_s: f64,
    /// Exclusive window end time (the last window absorbs later events).
    pub t_end_s: f64,
    /// Point-to-point bytes injected within the window.
    pub p2p_bytes: u64,
    /// Collective volume within the window.
    pub coll_bytes: u64,
    /// Point-to-point calls within the window.
    pub p2p_calls: u64,
    /// Collective calls within the window.
    pub coll_calls: u64,
    /// Rank distance covering 90% of the window's p2p traffic.
    pub rank_distance_90: Option<f64>,
    /// Rank locality of the window, percent.
    pub rank_locality_90_pct: Option<f64>,
    /// Peers covering 90% of the window's p2p traffic.
    pub selectivity_90: Option<f64>,
}

impl StatsWindow {
    /// Assemble one window's row from the windowed ingest fold.
    pub fn from_window(index: usize, w: &WindowMetrics) -> Self {
        StatsWindow {
            index,
            t_start_s: w.t_start_s,
            t_end_s: w.t_end_s,
            p2p_bytes: w.p2p_bytes,
            coll_bytes: w.coll_bytes,
            p2p_calls: w.p2p_calls,
            coll_calls: w.coll_calls,
            rank_distance_90: rank_locality::rank_distance_90(&w.p2p),
            rank_locality_90_pct: rank_locality::rank_locality_90(&w.p2p).map(|l| 100.0 * l),
            selectivity_90: selectivity::selectivity_90(&w.p2p),
        }
    }
}

impl StatsResponse {
    /// Compute the overview for `trace`.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_parts(trace, &trace.stats())
    }

    /// Assemble the overview from already-computed statistics (the fused
    /// ingest fold produces them alongside the traffic matrices).
    pub fn from_parts(trace: &Trace, s: &TraceStats) -> Self {
        StatsResponse {
            app: trace.app.clone(),
            ranks: trace.num_ranks,
            exec_time_s: trace.exec_time_s,
            total_mb: s.total_mb(),
            p2p_pct: s.p2p_pct(),
            p2p_calls: s.p2p_calls,
            coll_pct: s.coll_pct(),
            coll_calls: s.coll_calls,
            throughput_mb_s: s.throughput_mb_s(),
            communicators: trace.comms.len(),
            global_only: trace.uses_only_global_communicators(),
            windows: None,
        }
    }

    /// Attach per-window rows from a windowed ingest fold.
    pub fn with_windows(mut self, wm: &WindowedMetrics) -> Self {
        self.windows = Some(
            wm.windows
                .iter()
                .enumerate()
                .map(|(i, w)| StatsWindow::from_window(i, w))
                .collect(),
        );
        self
    }
}

/// One k-dimensional fold of [`MetricsResponse`].
#[derive(Debug, Clone, Serialize)]
pub struct FoldResponse {
    /// Folded grid dimensions.
    pub dims: Vec<usize>,
    /// Topological locality in percent.
    pub locality_pct: f64,
    /// 90%-traffic distance on the folded grid.
    pub distance90: f64,
}

/// `POST /v1/metrics` and `netloc metrics --json` — the MPI-level
/// locality metrics (§3 of the paper). All fields are `null` for traces
/// without point-to-point traffic.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsResponse {
    /// Application name.
    pub app: String,
    /// World size.
    pub ranks: u32,
    /// Maximum communication peers over the ranks.
    pub peers: Option<u32>,
    /// Rank distance covering 90% of the traffic.
    pub rank_distance_90: Option<f64>,
    /// Rank locality (1 / rank distance), percent.
    pub rank_locality_90_pct: Option<f64>,
    /// Number of peers covering 90% of the traffic.
    pub selectivity_90: Option<f64>,
    /// 1D/2D/3D folded localities (empty without p2p traffic).
    pub folds: Vec<FoldResponse>,
}

impl MetricsResponse {
    /// Compute the metrics for `trace`.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_matrix(trace, &TrafficMatrix::from_trace_p2p(trace))
    }

    /// Compute the metrics from an already-built p2p traffic matrix (the
    /// fused ingest fold produces it alongside the stats).
    pub fn from_matrix(trace: &Trace, tm: &TrafficMatrix) -> Self {
        let has_p2p = peers::peers(tm).is_some();
        let folds = if has_p2p {
            (1..=3)
                .filter_map(|k| dimensionality::folded_locality(tm, k))
                .map(|rep| FoldResponse {
                    dims: rep.dims,
                    locality_pct: rep.locality_pct,
                    distance90: rep.distance90,
                })
                .collect()
        } else {
            Vec::new()
        };
        MetricsResponse {
            app: trace.app.clone(),
            ranks: trace.num_ranks,
            peers: peers::peers(tm),
            rank_distance_90: rank_locality::rank_distance_90(tm),
            rank_locality_90_pct: rank_locality::rank_locality_90(tm).map(|l| 100.0 * l),
            selectivity_90: selectivity::selectivity_90(tm),
            folds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netloc_core::canon::canonical_json;
    use netloc_mpi::{CollectiveOp, Payload, Rank, TraceBuilder};

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("sample", 8).exec_time_s(2.0);
        for r in 0..8u32 {
            b.send(Rank(r), Rank((r + 1) % 8), 4096, 2);
        }
        b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(64), 1);
        b.build()
    }

    #[test]
    fn analyze_matches_direct_library_call() {
        let trace = sample();
        let topo_spec: TopologySpec = "torus:2,2,2".parse().unwrap();
        let map_spec: MappingSpec = "consecutive".parse().unwrap();
        let topo = topo_spec.build().unwrap();
        let routed = RoutedTopology::auto(topo.as_ref());
        let tm = TrafficMatrix::from_trace_full(&trace);
        let resp = analyze(&trace, &tm, "d".into(), &topo_spec, &map_spec, &routed).unwrap();

        let mapping = map_spec.build(8, 8).unwrap();
        let direct = analyze_network_routed(&routed, &mapping, &tm);
        assert_eq!(resp.packets, direct.packets);
        assert_eq!(resp.packet_hops, direct.packet_hops);
        assert_eq!(resp.avg_hops, direct.avg_hops());
        assert_eq!(resp.topology, "torus:2,2,2");
        assert_eq!(resp.mapping, "consecutive");
    }

    #[test]
    fn analyze_rejects_overfull_topology() {
        let trace = sample();
        let topo_spec: TopologySpec = "torus:1,1,2".parse().unwrap();
        let topo = topo_spec.build().unwrap();
        let routed = RoutedTopology::auto(topo.as_ref());
        let err = analyze(
            &trace,
            &TrafficMatrix::from_trace_full(&trace),
            "d".into(),
            &topo_spec,
            &MappingSpec::Consecutive,
            &routed,
        );
        assert!(err.is_err(), "8 ranks on 2 nodes must fail");
    }

    #[test]
    fn sweep_cells_agree_with_individual_analyze() {
        let trace = sample();
        let topo_spec: TopologySpec = "torus:2,2,2".parse().unwrap();
        let specs: Vec<MappingSpec> = ["consecutive", "random:3"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let topo = topo_spec.build().unwrap();
        let routed = RoutedTopology::auto(topo.as_ref());
        let tm = TrafficMatrix::from_trace_full(&trace);
        let swept = sweep(&trace, &tm, "d".into(), &topo_spec, &specs, &routed).unwrap();
        assert_eq!(swept.cells.len(), 2);
        for (cell, spec) in swept.cells.iter().zip(&specs) {
            let single = analyze(&trace, &tm, "d".into(), &topo_spec, spec, &routed).unwrap();
            assert_eq!(cell.mapping, spec.to_string());
            assert_eq!(cell.packets, single.packets);
            assert_eq!(cell.packet_hops, single.packet_hops);
            assert_eq!(cell.used_links, single.used_links);
        }
    }

    #[test]
    fn stats_and_metrics_render_canonically() {
        let trace = sample();
        let stats = canonical_json(&StatsResponse::from_trace(&trace));
        assert!(stats.contains("\"app\": \"sample\""));
        assert!(stats.ends_with('\n'));
        let metrics = canonical_json(&MetricsResponse::from_trace(&trace));
        assert!(metrics.contains("\"peers\""));
        // The fused ingest pass renders the same bytes as the per-call path.
        let ing = netloc_core::ingest_trace(trace.clone());
        assert_eq!(
            canonical_json(&StatsResponse::from_parts(&ing.trace, &ing.stats)),
            stats
        );
        assert_eq!(
            canonical_json(&MetricsResponse::from_matrix(&ing.trace, &ing.p2p)),
            metrics
        );
        // Ring pattern: every rank talks to exactly one neighbor.
        let m = MetricsResponse::from_trace(&trace);
        assert_eq!(m.peers, Some(1));
        assert_eq!(m.folds.len(), 3);
    }

    #[test]
    fn windowed_analyze_sums_to_the_whole_report() {
        let trace = sample();
        let topo_spec: TopologySpec = "torus:2,2,2".parse().unwrap();
        let map_spec: MappingSpec = "consecutive".parse().unwrap();
        let topo = topo_spec.build().unwrap();
        let routed = RoutedTopology::auto(topo.as_ref());
        let tm = TrafficMatrix::from_trace_full(&trace);
        let resp =
            analyze_windowed(&trace, &tm, "d".into(), &topo_spec, &map_spec, &routed, 4).unwrap();
        let blocks = resp.windows.as_ref().unwrap();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks.iter().map(|w| w.packets).sum::<u64>(), resp.packets);
        assert_eq!(
            blocks.iter().map(|w| w.packet_hops).sum::<u128>(),
            resp.packet_hops
        );
        let mut hist = vec![0u64; resp.hop_histogram.len()];
        for w in blocks {
            for (h, n) in w.hop_histogram.iter().enumerate() {
                hist[h] += n;
            }
        }
        assert_eq!(hist, resp.hop_histogram);
        // Without a windows request the field renders as null.
        let plain = analyze(&trace, &tm, "d".into(), &topo_spec, &map_spec, &routed).unwrap();
        assert!(canonical_json(&plain).contains("\"windows\": null"));
    }

    #[test]
    fn stats_windows_counters_sum_to_the_whole() {
        let trace = sample();
        let wm = netloc_core::windowed_ingest(&trace, 3);
        let resp = StatsResponse::from_trace(&trace).with_windows(&wm);
        let rows = resp.windows.as_ref().unwrap();
        assert_eq!(rows.len(), 3);
        let stats = trace.stats();
        assert_eq!(
            rows.iter().map(|w| w.p2p_calls).sum::<u64>(),
            stats.p2p_calls
        );
        assert_eq!(
            rows.iter().map(|w| w.coll_calls).sum::<u64>(),
            stats.coll_calls
        );
        assert_eq!(
            rows.iter().map(|w| w.p2p_bytes).sum::<u64>(),
            stats.p2p_bytes
        );
        assert_eq!(
            rows.iter().map(|w| w.coll_bytes).sum::<u64>(),
            stats.coll_bytes
        );
    }

    #[test]
    fn metrics_without_p2p_are_null() {
        let mut b = TraceBuilder::new("coll-only", 4).exec_time_s(1.0);
        b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(64), 1);
        let m = MetricsResponse::from_trace(&b.build());
        assert_eq!(m.peers, None);
        assert!(m.folds.is_empty());
        let json = canonical_json(&m);
        assert!(json.contains("\"peers\": null"));
    }
}
