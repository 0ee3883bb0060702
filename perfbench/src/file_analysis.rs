//! `file-analysis`: the offline analyst running
//! `netloc stats|replay|simulate FILE` on a large trace, once stored as
//! dumpi text and once as columnar. Every command re-loads its file, as
//! the CLI does. Decode, the ingest fold, windowed stats and the
//! simulator do most of the work; stencil traffic on the `auto` torus
//! touches few node pairs, so route tables and replay do little.

use crate::pipeline;
use crate::spans::Recorder;
use crate::{another_pass, inputs, Measured, Workload};
use netloc_core::IngestResult;
use netloc_service::payload::{MetricsResponse, StatsResponse};
use netloc_sim::{expand_trace, simulate_parallel, SimConfig, SimExec};
use netloc_topology::{MappingSpec, TopologySpec};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const RANKS: u32 = 512;
pub const EVENTS: usize = 2_000_000;
/// `netloc stats --windows N`.
const WINDOWS: usize = 16;
/// `netloc simulate`'s default `--max-msgs`.
const MAX_INJECTIONS: usize = 2_000_000;

pub struct FileAnalysis;

pub struct Files {
    text: PathBuf,
    columnar: PathBuf,
    text_bytes: u64,
    columnar_bytes: u64,
    seed: u64,
}

/// Write and sync a file, so its writeback happens during set-up and not
/// while the commands are timed.
fn write_durably(path: &Path, data: &[u8]) {
    let mut file = std::fs::File::create(path).expect("create trace file");
    file.write_all(data).expect("write trace file");
    file.sync_all().expect("sync trace file");
}

/// The two stored copies of the trace.
fn copies(files: &Files) -> [(Encoding, &Path); 2] {
    [
        (Encoding::Text, &files.text),
        (Encoding::Columnar, &files.columnar),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Encoding {
    Text,
    Columnar,
}

impl Encoding {
    fn decode_span(self) -> &'static str {
        match self {
            Encoding::Text => "mpi.decode_text",
            Encoding::Columnar => "mpi.decode_columnar",
        }
    }

    /// Operation kinds: (stats, replay, simulate).
    fn kinds(self) -> [&'static str; 3] {
        match self {
            Encoding::Text => ["stats.text", "replay.text", "simulate.text"],
            Encoding::Columnar => ["stats.columnar", "replay.columnar", "simulate.columnar"],
        }
    }
}

impl Workload for FileAnalysis {
    type Input = Files;

    fn setup(&self, seed: u64, dir: &Path) -> Files {
        std::fs::create_dir_all(dir).expect("create work dir");
        let trace = inputs::stencil_trace("stencil3d", RANKS, EVENTS, seed);
        let text = dir.join("trace.dumpi");
        let columnar = dir.join("trace.nlc");
        let text_data = netloc_mpi::write_trace(&trace);
        write_durably(&text, text_data.as_bytes());
        let columnar_data = netloc_mpi::write_trace_columnar(&trace);
        write_durably(&columnar, &columnar_data);
        Files {
            text,
            columnar,
            text_bytes: text_data.len() as u64,
            columnar_bytes: columnar_data.len() as u64,
            seed,
        }
    }

    fn sizes(&self, f: &Files) -> Vec<(&'static str, u64)> {
        vec![
            ("events", EVENTS as u64),
            ("ranks", u64::from(RANKS)),
            (
                "nodes",
                TopologySpec::Auto.resolve(RANKS).num_nodes().unwrap_or(0) as u64,
            ),
            ("text_file_bytes", f.text_bytes),
            ("columnar_file_bytes", f.columnar_bytes),
        ]
    }

    fn measure(&self, files: Files, rec: &Recorder, budget: Duration) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        let mut request = 0u64;
        while another_pass(start, m.passes, budget) {
            // Outputs of the text copy, compared with the columnar copy's.
            let mut text_outputs: Vec<Vec<u8>> = Vec::new();
            let mut text_ingest: Option<IngestSummary> = None;
            for (copy, path) in copies(&files) {
                let [stats_kind, replay_kind, sim_kind] = copy.kinds();
                let mut outputs = Vec::new();
                for (kind, command) in [
                    (stats_kind, Command::Stats),
                    (replay_kind, Command::Replay),
                    (sim_kind, Command::Simulate),
                ] {
                    request += 1;
                    rec.set_request(request);
                    let t0 = Instant::now();
                    let result = run_command(rec, command, path, copy);
                    let secs = t0.elapsed().as_secs_f64();
                    match result {
                        Ok(out) => {
                            m.op(kind, secs);
                            if let Some(ing) = &out.ingest {
                                check_ingest(&mut m, copy, ing, &mut text_ingest);
                            }
                            if m.passes == 0 && command == Command::Replay && copy == Encoding::Text
                            {
                                if let Some(ing) = &out.ingest {
                                    check_replays(&mut m, ing, files.seed);
                                }
                            }
                            outputs.push(out.bytes);
                        }
                        Err(e) => {
                            m.fail(format!("{kind}: {e}"));
                            outputs.push(Vec::new());
                        }
                    }
                }
                match copy {
                    Encoding::Text => text_outputs = outputs,
                    Encoding::Columnar => {
                        for (i, (a, b)) in text_outputs.iter().zip(&outputs).enumerate() {
                            m.check(a == b, || {
                                format!(
                                    "{}: text and columnar copies gave different output",
                                    Encoding::Text.kinds()[i]
                                )
                            });
                        }
                    }
                }
            }
            m.end_pass();
        }
        m.named_sum_of_medians("stats_s", &["stats.text", "stats.columnar"]);
        m.named_sum_of_medians("replay_s", &["replay.text", "replay.columnar"]);
        m.named_sum_of_medians("simulate_s", &["simulate.text", "simulate.columnar"]);
        m
    }
}

/// What the stats command's ingest produced, kept from the text copy to
/// compare with the columnar copy.
struct IngestSummary {
    stats: netloc_mpi::TraceStats,
    matrix: Vec<((u32, u32), netloc_core::PairTraffic)>,
    p2p: Vec<((u32, u32), netloc_core::PairTraffic)>,
}

impl IngestSummary {
    fn of(ing: &IngestResult) -> Self {
        IngestSummary {
            stats: ing.stats,
            matrix: ing.matrix.sorted_pairs().to_vec(),
            p2p: ing.p2p.sorted_pairs().to_vec(),
        }
    }
}

/// The text and columnar ingests must give identical matrices and stats.
fn check_ingest(
    m: &mut Measured,
    copy: Encoding,
    ing: &IngestResult,
    text: &mut Option<IngestSummary>,
) {
    match (copy, text.as_ref()) {
        (Encoding::Text, None) => *text = Some(IngestSummary::of(ing)),
        (Encoding::Columnar, Some(t)) => {
            m.check(t.stats == ing.stats, || {
                "columnar ingest stats differ".into()
            });
            m.check(t.matrix == ing.matrix.sorted_pairs(), || {
                "columnar ingest traffic matrix differs".into()
            });
            m.check(t.p2p == ing.p2p.sorted_pairs(), || {
                "columnar ingest p2p matrix differs".into()
            });
        }
        _ => {}
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Command {
    Stats,
    Replay,
    Simulate,
}

struct CommandOutput {
    bytes: Vec<u8>,
    /// The stats and replay commands hand back their ingest for checks.
    ingest: Option<IngestResult>,
}

fn run_command(
    rec: &Recorder,
    command: Command,
    path: &Path,
    copy: Encoding,
) -> Result<CommandOutput, String> {
    let _root = rec.span(match command {
        Command::Stats => "cli.stats",
        Command::Replay => "cli.replay",
        Command::Simulate => "cli.simulate",
    });
    let ing = pipeline::load(rec, path, copy.decode_span())?;
    let trace = &ing.trace;
    match command {
        Command::Stats => {
            let windows = rec.time("ingest.windowed", || {
                netloc_core::windowed_ingest(trace, WINDOWS)
            });
            let stats = StatsResponse::from_parts(trace, &ing.stats).with_windows(&windows);
            let metrics = rec.time("metrics.mpi", || {
                MetricsResponse::from_matrix(trace, &ing.p2p)
            });
            let mut bytes = pipeline::serialize(rec, &stats);
            bytes.extend(pipeline::serialize(rec, &metrics));
            Ok(CommandOutput {
                bytes,
                ingest: Some(ing),
            })
        }
        Command::Replay => {
            let spec = TopologySpec::Auto.resolve(trace.num_ranks);
            let topo = pipeline::build_topology(rec, &spec)?;
            let routed = pipeline::routes(rec, topo.as_ref());
            let (bytes, _) =
                pipeline::analyze(rec, &ing, "file", &spec, &MappingSpec::Consecutive, &routed)?;
            Ok(CommandOutput {
                bytes,
                ingest: Some(ing),
            })
        }
        Command::Simulate => {
            let spec = TopologySpec::Auto.resolve(trace.num_ranks);
            let topo = pipeline::build_topology(rec, &spec)?;
            let (injections, stride) =
                rec.time("sim.expand", || expand_trace(trace, MAX_INJECTIONS));
            rec.count("sim.injections", injections.len() as f64);
            let routed = pipeline::routes(rec, topo.as_ref());
            let mapping = rec
                .time("topology.mapping", || {
                    MappingSpec::Consecutive.build(trace.num_ranks as usize, topo.num_nodes())
                })
                .map_err(|e| e.to_string())?;
            let cfg = SimConfig {
                max_injections: MAX_INJECTIONS,
                ..SimConfig::default()
            };
            let mut report = rec.time("sim.run", || {
                simulate_parallel(&routed, &mapping, &injections, &cfg, &SimExec::default())
            });
            report.sample_stride = stride;
            Ok(CommandOutput {
                bytes: pipeline::serialize(rec, &report),
                ingest: None,
            })
        }
    }
}

/// A seeded sample of replays must equal the naive reference replay: the
/// command's own configuration, plus a seeded scattered placement.
fn check_replays(m: &mut Measured, ing: &IngestResult, seed: u64) {
    let spec = TopologySpec::Auto.resolve(ing.trace.num_ranks);
    let Ok(topo) = spec.build() else {
        m.fail("auto topology does not build".into());
        return;
    };
    let ranks = ing.trace.num_ranks as usize;
    for map_spec in [MappingSpec::Consecutive, MappingSpec::Random { seed }] {
        let Ok(mapping) = map_spec.build(ranks, topo.num_nodes()) else {
            m.fail(format!("mapping {map_spec} does not fit"));
            continue;
        };
        let routed = netloc_topology::RoutedTopology::auto(topo.as_ref());
        let fast = netloc_core::analyze_network_routed(&routed, &mapping, &ing.matrix);
        let reference =
            netloc_core::analyze_network_reference(topo.as_ref(), &mapping, &ing.matrix);
        m.check(fast == reference, || {
            format!("replay {spec} {map_spec} differs from the reference replay")
        });
    }
}
