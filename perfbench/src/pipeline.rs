//! The layer calls shared by the workloads, each inside its span.

use crate::spans::Recorder;
use netloc_core::canon::canonical_json;
use netloc_core::netmodel::{analyze_network_routed, node_pair_traffic, NetworkReport};
use netloc_core::IngestResult;
use netloc_mpi::{MappedFile, Trace};
use netloc_service::payload::{AnalyzeResponse, TraceMeta};
use netloc_topology::{MappingSpec, RoutedTopology, Topology, TopologySpec};
use std::path::Path;

/// Read a trace file the way the CLI does: map it, decode whatever format
/// its magic names, and fold it into matrices and stats.
pub fn load(
    rec: &Recorder,
    path: &Path,
    decode_span: &'static str,
) -> Result<IngestResult, String> {
    let trace: Trace = {
        let _span = rec.span(decode_span);
        let mapped = MappedFile::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        netloc_core::parse_trace_auto(mapped.bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?
    };
    rec.count("mpi.events", trace.events.len() as f64);
    Ok(ingest(rec, trace))
}

pub fn ingest(rec: &Recorder, trace: Trace) -> IngestResult {
    rec.time("ingest.fold", || netloc_core::ingest_trace(trace))
}

pub fn build_topology(rec: &Recorder, spec: &TopologySpec) -> Result<Box<dyn Topology>, String> {
    rec.time("topology.build", || spec.build())
        .map_err(|e| e.to_string())
}

/// `RoutedTopology::auto`, counting what the picker stored.
pub fn routes<'t>(rec: &Recorder, topo: &'t dyn Topology) -> RoutedTopology<'t> {
    let routed = rec.time("topology.routes", || RoutedTopology::auto(topo));
    if rec.enabled() {
        let bytes = match (routed.table(), routed.compressed_table()) {
            (Some(t), _) => t.memory_bytes(),
            (None, Some(c)) => {
                rec.count("topology.compressed_tables", 1.0);
                c.memory_bytes()
            }
            (None, None) => 0,
        };
        rec.count("topology.route_bytes", bytes as f64);
    }
    routed
}

pub fn serialize<T: serde::Serialize>(rec: &Recorder, value: &T) -> Vec<u8> {
    rec.time("canon.serialize", || canonical_json(value).into_bytes())
}

/// One analyze: mapping, replay and the service's response payload, as
/// `netloc_service::payload::analyze` composes them.
pub fn analyze(
    rec: &Recorder,
    ing: &IngestResult,
    digest: &str,
    spec: &TopologySpec,
    map_spec: &MappingSpec,
    routed: &RoutedTopology<'_>,
) -> Result<(Vec<u8>, NetworkReport), String> {
    let ranks = ing.trace.num_ranks as usize;
    let mapping = rec
        .time("topology.mapping", || {
            map_spec.build_with_traffic(ranks, routed, &ing.matrix.undirected_entries())
        })
        .map_err(|e| e.to_string())?;
    let report = rec.time("netmodel.replay", || {
        analyze_network_routed(routed, &mapping, &ing.matrix)
    });
    if rec.enabled() {
        // Counted outside every span: the dedup pass is not part of the
        // measured replay.
        rec.count("netmodel.rank_pairs", ing.matrix.num_pairs() as f64);
        rec.count(
            "netmodel.node_pairs",
            node_pair_traffic(&mapping, &ing.matrix).len() as f64,
        );
    }
    let response = AnalyzeResponse::from_report(
        TraceMeta::new(&ing.trace, digest.to_string()),
        spec,
        routed.num_nodes(),
        map_spec,
        ing.trace.exec_time_s,
        &report,
    );
    Ok((serialize(rec, &response), report))
}
