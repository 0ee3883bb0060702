//! Local and distributed execution of canonical sweep grids.
//!
//! `netloc sweep` runs a [`GridSpec`] two ways:
//!
//! * **locally** ([`run_grid_local`]) — every cell computed in-process
//!   through [`netloc_service::jobs::cell_bytes_local`], the same cell
//!   pipeline the service's workers use;
//! * **remotely** ([`run_grid_remote`]) — the grid is sharded across N
//!   service instances via `POST /v1/jobs` with a seeded deterministic
//!   shard selector, progress is polled (with the retrying client, so a
//!   restarting instance is waited out, not failed), and the per-cell
//!   payloads are merged back into global grid order.
//!
//! Both paths end in the *same parsed payload values*, so the rendered
//! report ([`render_csv`], [`render_svg`]) is byte-identical whether the
//! grid ran here or on a fleet — the CI resume smoke test asserts this
//! across a SIGKILL.

use crate::svg::{line_chart, ChartSpec, Series};
use netloc_core::canon::canonical_json;
use netloc_core::sweep::{GridCell, GridSpec};
use netloc_service::jobs;
use netloc_testkit::client::{self, RetryPolicy};
use serde::Value;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One completed grid cell: its canonical identity and the parsed
/// analysis payload (an `AnalyzeResponse` object, or a `cell_error`
/// object for infeasible cells).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The expanded cell.
    pub cell: GridCell,
    /// The parsed canonical payload.
    pub payload: Value,
}

fn parse_payload(bytes: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "non-UTF-8 cell payload".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("bad cell payload: {e}"))
}

/// Run every cell of the grid in-process, in grid order. Workload
/// ingests are computed once per workload and shared across the
/// topology × mapping plane, as the service's ingest cache shares them
/// across job cells.
pub fn run_grid_local(grid: &GridSpec) -> Result<Vec<CellResult>, String> {
    let mut ingests: HashMap<String, Arc<netloc_core::IngestResult>> = HashMap::new();
    let mut out = Vec::with_capacity(grid.cell_count() as usize);
    for index in 0..grid.cell_count() {
        let cell = grid.cell(index).expect("index < cell_count");
        let ingest = match ingests.get(&cell.workload) {
            Some(hit) => Arc::clone(hit),
            None => {
                let (app, ranks, _) = netloc_workloads::parse_workload_spec(&cell.workload)?;
                let ingest = Arc::new(netloc_core::ingest_trace(
                    netloc_workloads::generate_workload(app, ranks),
                ));
                ingests.insert(cell.workload.clone(), Arc::clone(&ingest));
                ingest
            }
        };
        let bytes = jobs::cell_bytes_local(&ingest, &cell);
        out.push(CellResult {
            payload: parse_payload(&bytes)?,
            cell,
        });
    }
    Ok(out)
}

/// Knobs for the distributed runner.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Seed of the deterministic cell → shard assignment (and of the
    /// client's retry jitter).
    pub seed: u64,
    /// Pause between progress polls of instances that are still running.
    pub poll_interval: Duration,
    /// Overall wall-clock budget before giving up on the fleet.
    pub deadline: Duration,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            seed: 0,
            poll_interval: Duration::from_millis(150),
            deadline: Duration::from_secs(300),
        }
    }
}

/// The canonical submit body of shard `index` of the grid.
fn submit_body(grid: &GridSpec, seed: u64, count: u32, index: u32) -> String {
    let strs = |axis: &[String]| Value::Array(axis.iter().map(|s| Value::Str(s.clone())).collect());
    canonical_json(&Value::Object(vec![
        ("topologies".to_string(), strs(grid.topologies())),
        ("mappings".to_string(), strs(grid.mappings())),
        ("workloads".to_string(), strs(grid.workloads())),
        (
            "shard".to_string(),
            Value::Object(vec![
                ("count".to_string(), Value::UInt(count as u128)),
                ("index".to_string(), Value::UInt(index as u128)),
                ("seed".to_string(), Value::UInt(seed as u128)),
            ]),
        ),
    ]))
}

fn str_of<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

/// Shard the grid across `addrs` (one shard per instance), wait for
/// every shard to complete, and merge the payloads into grid order.
///
/// Submission is idempotent (job ids are content-addressed), so calling
/// this against instances that already ran — or half-ran and were
/// SIGKILLed — resumes and completes the same job rather than starting
/// over. Transient connection failures and `429`/`408` sheds are
/// retried by the deterministic client policy; an instance that answers
/// `404` for the job id (e.g. it restarted without its data dir) is
/// re-submitted to.
pub fn run_grid_remote(
    grid: &GridSpec,
    addrs: &[SocketAddr],
    opts: &RemoteOptions,
) -> Result<Vec<CellResult>, String> {
    if addrs.is_empty() {
        return Err("no remote instances given".into());
    }
    let count = u32::try_from(addrs.len()).map_err(|_| "too many instances".to_string())?;
    let policy = RetryPolicy::deterministic(opts.seed);
    let http_err = |addr: &SocketAddr, what: &str, e: &dyn std::fmt::Display| {
        format!("{what} against {addr} failed: {e}")
    };

    let submit = |shard: u32| -> Result<String, String> {
        let body = submit_body(grid, opts.seed, count, shard);
        let (resp, _) = client::post_with_retry(addrs[shard as usize], "/v1/jobs", &body, &policy)
            .map_err(|e| http_err(&addrs[shard as usize], "job submit", &e))?;
        if resp.status != 200 {
            return Err(format!(
                "job submit against {} answered {}: {}",
                addrs[shard as usize],
                resp.status,
                resp.body_str().trim()
            ));
        }
        let value: Value =
            serde_json::from_str(resp.body_str()).map_err(|e| format!("bad submit reply: {e}"))?;
        match &value {
            Value::Object(fields) => str_of(fields, "id")
                .map(str::to_owned)
                .ok_or_else(|| "submit reply has no job id".to_string()),
            _ => Err("submit reply is not an object".into()),
        }
    };

    let mut ids = Vec::with_capacity(addrs.len());
    for shard in 0..count {
        ids.push(submit(shard)?);
    }

    // Per-shard assigned cells, in ascending global order; the poll
    // cursor only advances past a contiguous prefix of *collected*
    // cells, so out-of-order completion can never skip one.
    let assigned: Vec<Vec<u64>> = (0..count)
        .map(|shard| grid.assigned(opts.seed, count, shard))
        .collect();
    let mut slots: Vec<Option<Value>> = vec![None; grid.cell_count() as usize];
    let mut cursor: Vec<usize> = vec![0; addrs.len()];
    let deadline = Instant::now() + opts.deadline;

    loop {
        let mut all_done = true;
        for (i, addr) in addrs.iter().enumerate() {
            // Advance past cells already collected.
            while cursor[i] < assigned[i].len() && slots[assigned[i][cursor[i]] as usize].is_some()
            {
                cursor[i] += 1;
            }
            if cursor[i] >= assigned[i].len() {
                continue; // this shard is fully collected
            }
            all_done = false;
            let from = assigned[i][cursor[i]];
            let path = format!("/v1/jobs/{}?from={from}&limit=512", ids[i]);
            let (resp, _) = client::get_with_retry(*addr, &path, &policy)
                .map_err(|e| http_err(addr, "progress poll", &e))?;
            if resp.status == 404 {
                // The instance lost the job (fresh data dir): re-submit.
                ids[i] = submit(i as u32)?;
                continue;
            }
            if resp.status != 200 {
                return Err(format!(
                    "progress poll against {addr} answered {}: {}",
                    resp.status,
                    resp.body_str().trim()
                ));
            }
            let value: Value = serde_json::from_str(resp.body_str())
                .map_err(|e| format!("bad progress reply: {e}"))?;
            let Value::Object(fields) = &value else {
                return Err("progress reply is not an object".into());
            };
            if str_of(fields, "status") == Some("cancelled") {
                return Err(format!("job {} was cancelled on {addr}", ids[i]));
            }
            if let Some((_, Value::Array(cells))) = fields.iter().find(|(k, _)| k == "cells") {
                for entry in cells {
                    let Value::Object(ef) = entry else { continue };
                    let index = ef
                        .iter()
                        .find(|(k, _)| k == "index")
                        .and_then(|(_, v)| match v {
                            Value::UInt(n) => u64::try_from(*n).ok(),
                            Value::Int(n) => u64::try_from(*n).ok(),
                            _ => None,
                        });
                    let payload = ef.iter().find(|(k, _)| k == "payload").map(|(_, v)| v);
                    if let (Some(index), Some(payload)) = (index, payload) {
                        if let Some(slot) = slots.get_mut(index as usize) {
                            *slot = Some(payload.clone());
                        }
                    }
                }
            }
        }
        if all_done {
            break;
        }
        if Instant::now() > deadline {
            let missing = slots.iter().filter(|s| s.is_none()).count();
            return Err(format!(
                "fleet did not finish within {:?} ({missing} of {} cells missing)",
                opts.deadline,
                grid.cell_count()
            ));
        }
        std::thread::sleep(opts.poll_interval);
    }

    Ok(slots
        .into_iter()
        .enumerate()
        .map(|(index, payload)| CellResult {
            cell: grid.cell(index as u64).expect("index < cell_count"),
            payload: payload.expect("all slots filled before the loop exits"),
        })
        .collect())
}

/// Extract a numeric payload field, rendered exactly as the canonical
/// JSON carried it (integers stay integers; floats use Rust's shortest
/// round-trip `Display`, identical for identical parsed values — the
/// property the byte-identity guarantee rests on).
fn num_str(fields: &[(String, Value)], name: &str) -> String {
    match fields.iter().find(|(k, _)| k == name).map(|(_, v)| v) {
        Some(Value::UInt(n)) => n.to_string(),
        Some(Value::Int(n)) => n.to_string(),
        Some(Value::Float(x)) => x.to_string(),
        _ => String::new(),
    }
}

/// Render merged cells as the sweep CSV: one row per cell in grid
/// order, error cells with an `error` status and empty metric columns.
pub fn render_csv(cells: &[CellResult]) -> String {
    let mut out = String::from(
        "topology,mapping,workload,status,packets,packet_hops,avg_hops,used_links,total_links,utilization_pct\n",
    );
    for r in cells {
        let Value::Object(fields) = &r.payload else {
            continue;
        };
        let is_error = fields.iter().any(|(k, _)| k == "cell_error");
        let status = if is_error { "error" } else { "ok" };
        let metric = |name: &str| {
            if is_error {
                String::new()
            } else {
                num_str(fields, name)
            }
        };
        out.push_str(&format!(
            "{},{},{},{status},{},{},{},{},{},{}\n",
            r.cell.topology,
            r.cell.mapping,
            r.cell.workload,
            metric("packets"),
            metric("packet_hops"),
            metric("avg_hops"),
            metric("used_links"),
            metric("total_links"),
            metric("utilization_pct"),
        ));
    }
    out
}

/// Render merged cells as an SVG chart: average hops per workload, one
/// series per topology × mapping pair. Error cells are skipped; a grid
/// with no feasible cells renders an empty-but-valid document.
pub fn render_svg(cells: &[CellResult]) -> String {
    let mut series: Vec<Series> = Vec::new();
    for r in cells {
        let Value::Object(fields) = &r.payload else {
            continue;
        };
        if fields.iter().any(|(k, _)| k == "cell_error") {
            continue;
        }
        let Some(Value::Float(avg)) = fields.iter().find(|(k, _)| k == "avg_hops").map(|(_, v)| v)
        else {
            continue;
        };
        let name = format!("{} / {}", r.cell.topology, r.cell.mapping);
        let x = (series
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.points.len())
            + 1) as f64;
        match series.iter_mut().find(|s| s.name == name) {
            Some(s) => s.points.push((x, *avg)),
            None => series.push(Series {
                name,
                points: vec![(x, *avg)],
            }),
        }
    }
    if series.is_empty() {
        return "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"860\" height=\"520\"><text x=\"20\" y=\"40\">no feasible cells</text></svg>".to_string();
    }
    line_chart(
        &ChartSpec {
            title: "sweep: average hops per workload".into(),
            x_label: "workload (grid order)".into(),
            y_label: "avg hops".into(),
            ..Default::default()
        },
        &series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> GridSpec {
        GridSpec::parse(
            &["torus:3,3,3", "mesh:3,3,3"],
            &["consecutive", "random:7"],
            &["EXMATEX LULESH:27", "MiniFE:27"],
        )
        .unwrap()
    }

    #[test]
    fn local_grid_runs_in_grid_order_with_parsed_payloads() {
        let grid = small_grid();
        let cells = run_grid_local(&grid).unwrap();
        assert_eq!(cells.len(), 8);
        for (i, r) in cells.iter().enumerate() {
            assert_eq!(r.cell.index, i as u64);
            let Value::Object(fields) = &r.payload else {
                panic!("cell payload must be an object");
            };
            assert!(
                fields.iter().any(|(k, _)| k == "avg_hops"),
                "feasible cell {i} should carry an analysis payload"
            );
        }
    }

    #[test]
    fn local_grid_is_deterministic() {
        let grid = small_grid();
        let a = render_csv(&run_grid_local(&grid).unwrap());
        let b = render_csv(&run_grid_local(&grid).unwrap());
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 9, "header + 8 cells");
    }

    #[test]
    fn infeasible_cells_render_as_error_rows() {
        // 64 ranks cannot fit a 27-node torus: those cells must carry a
        // deterministic error payload, not fail the run.
        let grid =
            GridSpec::parse(&["torus:3,3,3"], &["consecutive"], &["EXMATEX LULESH:64"]).unwrap();
        let cells = run_grid_local(&grid).unwrap();
        assert_eq!(cells.len(), 1);
        let csv = render_csv(&cells);
        assert!(csv.contains(",error,"), "csv: {csv}");
        let svg = render_svg(&cells);
        assert!(svg.contains("no feasible cells"));
    }

    #[test]
    fn svg_has_one_series_per_topology_mapping_pair() {
        let cells = run_grid_local(&small_grid()).unwrap();
        let svg = render_svg(&cells);
        assert_eq!(svg.matches("<path").count(), 4, "2 topologies × 2 mappings");
    }
}
