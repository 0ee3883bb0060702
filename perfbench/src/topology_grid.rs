//! `topology-grid`: a topology × mapping × traffic grid, as `netloc sweep`
//! and the paper's Tables 3–6 run it. Each cell makes the public calls of
//! the local sweep runner's cell pipeline (`jobs::cell_bytes_local`):
//! parse and build the topology, `RoutedTopology::auto`, build the
//! mapping, replay, and render the analyze payload. Route-table builds and
//! replay dominate; the dense all-to-all shifts work from table build to
//! replay, the sparse patterns the other way. Ingest runs once per
//! traffic pattern per pass, as the runner's ingest cache does.

use crate::pipeline;
use crate::spans::Recorder;
use crate::{another_pass, inputs, Measured, Workload};
use netloc_core::IngestResult;
use netloc_mpi::Trace;
use netloc_topology::{MappingSpec, RoutedTopology, TopologySpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::{Duration, Instant};

pub const RANKS: u32 = 1024;
/// Cells per run checked against replay over direct routing.
const CHECKED_CELLS: usize = 3;

pub struct TopologyGrid;

pub struct GridInput {
    topologies: Vec<String>,
    mappings: Vec<String>,
    traffic: Vec<(&'static str, Trace)>,
    seed: u64,
}

/// One machine per family, each holding 1024 ranks under every mapping.
/// The Slim Fly has 30 276 nodes, past the dense route-table limit, so
/// `auto` stores it compressed.
fn topologies(seed: u64) -> Vec<String> {
    vec![
        "torus:16,8,8".into(),
        "fattree:24,3".into(),
        "dragonfly:8,4,4".into(),
        "hyperx:8x8,16".into(),
        format!("jellyfish:144,8,8,{}", seed % 1000),
        "slimfly:29,18".into(),
    ]
}

fn mappings(seed: u64) -> Vec<String> {
    vec![
        "consecutive".into(),
        "block:4".into(),
        format!("random-block:4,{seed}"),
    ]
}

impl Workload for TopologyGrid {
    type Input = GridInput;

    fn setup(&self, seed: u64, _dir: &Path) -> GridInput {
        GridInput {
            topologies: topologies(seed),
            mappings: mappings(seed),
            traffic: inputs::grid_traffic(RANKS, seed),
            seed,
        }
    }

    fn sizes(&self, g: &GridInput) -> Vec<(&'static str, u64)> {
        let max_nodes = g
            .topologies
            .iter()
            .filter_map(|t| t.parse::<TopologySpec>().ok()?.num_nodes())
            .max()
            .unwrap_or(0);
        vec![
            ("ranks", u64::from(RANKS)),
            (
                "events",
                g.traffic.iter().map(|(_, t)| t.events.len() as u64).sum(),
            ),
            ("max_nodes", max_nodes as u64),
            (
                "cells",
                (g.topologies.len() * g.mappings.len() * g.traffic.len()) as u64,
            ),
        ]
    }

    fn measure(&self, g: GridInput, rec: &Recorder, budget: Duration) -> Measured {
        let mut m = Measured::default();
        let cells = g.topologies.len() * g.mappings.len() * g.traffic.len();
        let mut rng = ChaCha8Rng::seed_from_u64(g.seed);
        let checked: Vec<usize> = (0..CHECKED_CELLS)
            .map(|_| rng.gen_range(0..cells))
            .collect();
        let start = Instant::now();
        let mut request = 0u64;
        while another_pass(start, m.passes, budget) {
            let ingests: Vec<(&str, IngestResult)> = g
                .traffic
                .iter()
                .map(|(label, trace)| {
                    request += 1;
                    rec.set_request(request);
                    let trace = trace.clone();
                    let t0 = Instant::now();
                    let ing = pipeline::ingest(rec, trace);
                    m.op(format!("ingest.{label}"), t0.elapsed().as_secs_f64());
                    (*label, ing)
                })
                .collect();
            let mut index = 0;
            for topo in &g.topologies {
                for map in &g.mappings {
                    for (label, ing) in &ingests {
                        request += 1;
                        rec.set_request(request);
                        let kind = format!("cell.{topo}.{map}.{label}");
                        let t0 = Instant::now();
                        let result = run_cell(rec, ing, label, topo, map);
                        let secs = t0.elapsed().as_secs_f64();
                        match result {
                            Ok(report) => {
                                m.op(kind.clone(), secs);
                                if m.passes == 0 && checked.contains(&index) {
                                    check_direct(&mut m, &kind, ing, topo, map, &report);
                                }
                            }
                            Err(e) => m.fail(format!("{kind}: {e}")),
                        }
                        index += 1;
                    }
                }
            }
            m.end_pass();
        }
        // A whole pass, ingests included: every op kind at its median.
        let rate = cells as f64 / m.pass_s();
        let passes = m.passes as usize;
        m.named_value("grid_cells_per_s", "cells/s", rate, passes);
        m
    }
}

/// One cell, as the local sweep runner computes it.
fn run_cell(
    rec: &Recorder,
    ing: &IngestResult,
    label: &str,
    topo: &str,
    map: &str,
) -> Result<netloc_core::netmodel::NetworkReport, String> {
    let _root = rec.span("grid.cell");
    let spec: TopologySpec = topo.parse().map_err(|e| format!("{e}"))?;
    let map_spec: MappingSpec = map.parse().map_err(|e| format!("{e}"))?;
    let built = pipeline::build_topology(rec, &spec)?;
    let routed = pipeline::routes(rec, built.as_ref());
    let digest = format!("traffic:{label}");
    let (_bytes, report) = pipeline::analyze(rec, ing, &digest, &spec, &map_spec, &routed)?;
    Ok(report)
}

/// A sampled cell must equal replay over direct (uncached) routing.
fn check_direct(
    m: &mut Measured,
    kind: &str,
    ing: &IngestResult,
    topo: &str,
    map: &str,
    report: &netloc_core::netmodel::NetworkReport,
) {
    let result = (|| -> Result<bool, String> {
        let spec: TopologySpec = topo.parse().map_err(|e| format!("{e}"))?;
        let built = spec.build().map_err(|e| e.to_string())?;
        let map_spec: MappingSpec = map.parse().map_err(|e| format!("{e}"))?;
        let direct = RoutedTopology::direct(built.as_ref());
        let mapping = map_spec
            .build_with_traffic(RANKS as usize, &direct, &ing.matrix.undirected_entries())
            .map_err(|e| e.to_string())?;
        Ok(netloc_core::analyze_network_routed(&direct, &mapping, &ing.matrix) == *report)
    })();
    match result {
        Ok(same) => m.check(same, || {
            format!("{kind}: differs from replay over direct routing")
        }),
        Err(e) => m.fail(format!("{kind}: direct check failed: {e}")),
    }
}
