//! Resumable sweep jobs: grids of analysis cells that outlive a request
//! — and the process.
//!
//! `POST /v1/jobs` turns a topology × mapping × workload grid
//! ([`netloc_core::sweep::GridSpec`]) into a *job*: every cell becomes a
//! unit of background work on the existing worker pool, scheduled
//! through the queue's low-priority lane so interactive requests are
//! never starved. Cells share the topo cache's single-flight compressed
//! route tables exactly like `/v1/analyze` does — a grid of 50
//! router-symmetric topologies builds 50 tables, once each, regardless of
//! how many mapping × workload cells ride on them.
//!
//! **Durability model.** A cell's payload is the canonical
//! `AnalyzeResponse` bytes under the *same* content-addressed key
//! interactive `/v1/analyze` uses (`analyze|digest|topo|mapping`), so
//! jobs warm the interactive cache and vice versa, and a cell computed
//! by any past request is never recomputed by a job. The job itself is
//! a manifest in the store's `jobs/` namespace (`Kind::Job`), written on
//! submit and rewritten on cancel. After a crash, startup scans the
//! manifests, re-derives each job's assigned cells, marks the ones whose
//! payloads are already durable, and re-enqueues only the remainder —
//! a SIGKILL costs at most the cells whose write-behind frames had not
//! landed, never the whole grid.
//!
//! **Sharding.** A job may carry a shard selector `(seed, count,
//! index)`; the assigned cells are then the deterministic
//! [`netloc_core::sweep::shard_of`] partition of the full grid. Every
//! instance computes the same partition from the spec alone, which is
//! what lets `netloc sweep --remote URL,URL` split one grid across
//! instances and merge the results byte-identically to a local run.

use crate::cache::{tiered_get, tiered_insert, CacheTier};
use crate::payload;
use crate::server::{AppState, Work};
use crate::store::Kind;
use netloc_core::canon::{canonical_json, content_digest, digest_hex};
use netloc_core::sweep::{GridCell, GridSpec};
use netloc_core::IngestResult;
use netloc_topology::{MappingSpec, RoutedTopology, TopologySpec};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Deterministic shard selector carried by a fanned-out job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardSpec {
    /// Number of shards the grid is split into.
    pub count: u32,
    /// Which shard this job executes (`0..count`).
    pub index: u32,
    /// Seed of the deterministic cell → shard assignment.
    pub seed: u64,
}

/// The identity of a job — everything the id digest covers. Field order
/// is the canonical serialization order; changing it changes every job
/// id.
#[derive(Debug, Clone, Serialize)]
struct SpecBody<'a> {
    mappings: &'a [String],
    shard: Option<ShardSpec>,
    topologies: &'a [String],
    workloads: &'a [String],
}

/// The persisted manifest: the spec body plus the cancelled flag.
#[derive(Debug, Clone, Serialize)]
struct Manifest<'a> {
    cancelled: bool,
    mappings: &'a [String],
    shard: Option<ShardSpec>,
    topologies: &'a [String],
    workloads: &'a [String],
}

/// The content-addressed job id: a digest of the canonical spec JSON,
/// so resubmitting the same grid (however spelled) reaches the same
/// job on every instance.
pub fn job_id(grid: &GridSpec, shard: Option<ShardSpec>) -> String {
    let body = canonical_json(&SpecBody {
        mappings: grid.mappings(),
        shard,
        topologies: grid.topologies(),
        workloads: grid.workloads(),
    });
    digest_hex(content_digest(body.as_bytes()))
}

/// The result-store key of one grid cell — exactly the key interactive
/// `/v1/analyze` would use for the same (workload, topology, mapping),
/// which is what makes job cells and interactive requests one shared
/// durable population.
pub fn cell_key(cell: &GridCell) -> String {
    format!(
        "analyze|{}|{}|{}",
        workload_digest(&cell.workload),
        cell.topology,
        cell.mapping
    )
}

/// The source digest of a generated workload, from its canonical
/// `APP:RANKS` spelling — the digest interactive `"workload"` requests
/// and job cells share, in cache keys and in the ingest cache.
pub fn workload_digest(canonical: &str) -> String {
    digest_hex(content_digest(format!("workload:{canonical}").as_bytes()))
}

/// The deterministic error payload of an infeasible cell (e.g. more
/// ranks than the topology has nodes). Rendered identically by the
/// service and the local runner so merged reports stay byte-identical.
#[derive(Debug, Clone, Serialize)]
struct CellError<'a> {
    cell_error: &'a str,
    mapping: &'a str,
    topology: &'a str,
    workload: &'a str,
}

fn error_cell_bytes(cell: &GridCell, message: &str) -> Vec<u8> {
    canonical_json(&CellError {
        cell_error: message,
        mapping: &cell.mapping,
        topology: &cell.topology,
        workload: &cell.workload,
    })
    .into_bytes()
}

/// Compute one cell's canonical payload bytes over an already-routed
/// topology. This is the *single* cell pipeline: the service workers
/// call it with a shared cached table, the local `netloc sweep` runner
/// calls it with `RoutedTopology::auto` — the bytes are identical
/// either way (routing storage is a performance property), which is the
/// foundation of the byte-identical merge guarantee.
pub fn cell_bytes_routed(
    ingest: &IngestResult,
    cell: &GridCell,
    topo_spec: &TopologySpec,
    routed: &RoutedTopology<'_>,
) -> Vec<u8> {
    let map_spec: MappingSpec = cell
        .mapping
        .parse()
        .expect("grid mappings are canonical and re-parse");
    match payload::analyze(
        &ingest.trace,
        &ingest.matrix,
        workload_digest(&cell.workload),
        topo_spec,
        &map_spec,
        routed,
    ) {
        Ok(resp) => canonical_json(&resp).into_bytes(),
        Err(e) => error_cell_bytes(cell, &e.to_string()),
    }
}

/// The local (no service) cell pipeline: build the topology, route it
/// with `auto`, delegate to [`cell_bytes_routed`].
pub fn cell_bytes_local(ingest: &IngestResult, cell: &GridCell) -> Vec<u8> {
    let topo_spec: TopologySpec = match cell.topology.parse() {
        Ok(s) => s,
        Err(e) => return error_cell_bytes(cell, &format!("{e}")),
    };
    match topo_spec.build() {
        Ok(topo) => {
            let routed = RoutedTopology::auto(topo.as_ref());
            cell_bytes_routed(ingest, cell, &topo_spec, &routed)
        }
        Err(e) => error_cell_bytes(cell, &format!("{e}")),
    }
}

struct Progress {
    /// Per assigned-position completion (payload durable in the result
    /// namespace).
    done: Vec<bool>,
    /// Which positions were already durable when the job was admitted
    /// (submit or resume scan) — recomputing one of these is the signal
    /// `cells_recomputed` counts.
    durable: Vec<bool>,
    completed: usize,
}

/// One admitted job: its canonical grid, shard, assigned cells, and
/// progress.
pub struct Job {
    /// Content-addressed job id.
    pub id: String,
    /// The canonical grid.
    pub grid: GridSpec,
    /// Shard selector, when the job is one part of a fan-out.
    pub shard: Option<ShardSpec>,
    /// Global cell indices this instance executes, ascending.
    pub assigned: Vec<u64>,
    /// Set by `DELETE /v1/jobs/{id}`; queued cells of a cancelled job
    /// are skipped (not computed) when a worker pops them.
    pub cancelled: AtomicBool,
    progress: Mutex<Progress>,
}

impl Job {
    /// `(completed, assigned)` cell counts.
    pub fn counts(&self) -> (usize, usize) {
        let p = self.progress.lock().expect("job progress lock");
        (p.completed, self.assigned.len())
    }

    /// Status string for responses: cancelled beats complete beats
    /// running.
    pub fn status(&self) -> &'static str {
        if self.cancelled.load(Ordering::SeqCst) {
            return "cancelled";
        }
        let (completed, assigned) = self.counts();
        if completed >= assigned {
            "complete"
        } else {
            "running"
        }
    }

    fn mark_done(&self, pos: usize) {
        let mut p = self.progress.lock().expect("job progress lock");
        if !p.done[pos] {
            p.done[pos] = true;
            p.completed += 1;
        }
    }

    /// Snapshot of the done flags (for progress listing).
    fn done_snapshot(&self) -> Vec<bool> {
        self.progress
            .lock()
            .expect("job progress lock")
            .done
            .clone()
    }
}

/// Aggregate job counters for `statusz`. `cells_recomputed` is the
/// resume-correctness sentinel: it stays zero unless a cell that was
/// durable at admission had to be computed again (which only corruption
/// or an eviction race can cause), and CI asserts exactly that across a
/// SIGKILL.
#[derive(Debug, Clone, Serialize)]
pub struct JobsStats {
    /// Jobs currently registered (any status).
    pub jobs: usize,
    /// Jobs in `running` state.
    pub active: usize,
    /// Jobs in `complete` state.
    pub complete: usize,
    /// Jobs in `cancelled` state.
    pub cancelled: usize,
    /// Jobs admitted via `POST /v1/jobs` this process.
    pub submitted: u64,
    /// Jobs recovered from manifests at startup.
    pub resumed: u64,
    /// Cells assigned across all registered jobs.
    pub cells_assigned: u64,
    /// Cells completed across all registered jobs.
    pub cells_completed: u64,
    /// Cells whose payload was computed by a worker this process.
    pub cells_computed: u64,
    /// Cells satisfied by the in-memory result cache.
    pub cells_from_cache: u64,
    /// Cells satisfied by a digest-verified disk entry.
    pub cells_from_disk: u64,
    /// Cells computed *despite* being durable at admission.
    pub cells_recomputed: u64,
    /// Queued cells skipped because their job was cancelled.
    pub cells_cancelled: u64,
}

/// Registry and counters for every job this process knows about.
pub struct JobManager {
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    submitted: AtomicU64,
    resumed: AtomicU64,
    cells_computed: AtomicU64,
    cells_from_cache: AtomicU64,
    cells_from_disk: AtomicU64,
    cells_recomputed: AtomicU64,
    cells_cancelled: AtomicU64,
}

impl Default for JobManager {
    fn default() -> Self {
        JobManager {
            jobs: Mutex::new(BTreeMap::new()),
            submitted: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            cells_computed: AtomicU64::new(0),
            cells_from_cache: AtomicU64::new(0),
            cells_from_disk: AtomicU64::new(0),
            cells_recomputed: AtomicU64::new(0),
            cells_cancelled: AtomicU64::new(0),
        }
    }
}

impl JobManager {
    /// Look up a registered job.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .expect("job registry lock")
            .get(id)
            .cloned()
    }

    /// All registered jobs, id-ordered.
    pub fn all(&self) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .expect("job registry lock")
            .values()
            .cloned()
            .collect()
    }

    /// The `statusz` snapshot.
    pub fn stats(&self) -> JobsStats {
        let jobs = self.all();
        let mut active = 0;
        let mut complete = 0;
        let mut cancelled = 0;
        let mut cells_assigned = 0u64;
        let mut cells_completed = 0u64;
        for job in &jobs {
            match job.status() {
                "cancelled" => cancelled += 1,
                "complete" => complete += 1,
                _ => active += 1,
            }
            let (done, assigned) = job.counts();
            cells_assigned += assigned as u64;
            cells_completed += done as u64;
        }
        JobsStats {
            jobs: jobs.len(),
            active,
            complete,
            cancelled,
            submitted: self.submitted.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            cells_assigned,
            cells_completed,
            cells_computed: self.cells_computed.load(Ordering::Relaxed),
            cells_from_cache: self.cells_from_cache.load(Ordering::Relaxed),
            cells_from_disk: self.cells_from_disk.load(Ordering::Relaxed),
            cells_recomputed: self.cells_recomputed.load(Ordering::Relaxed),
            cells_cancelled: self.cells_cancelled.load(Ordering::Relaxed),
        }
    }
}

/// Admit a job (idempotent): look it up by content-addressed id first,
/// otherwise register it, persist its manifest, and enqueue every cell
/// that is not already durable. `resumed` marks the startup-scan path,
/// which counts differently and must not rewrite the manifest it was
/// just read from.
pub fn submit(
    state: &Arc<AppState>,
    grid: GridSpec,
    shard: Option<ShardSpec>,
    resumed: bool,
    cancelled: bool,
) -> Arc<Job> {
    let id = job_id(&grid, shard);
    {
        let jobs = state.jobs.jobs.lock().expect("job registry lock");
        if let Some(existing) = jobs.get(&id) {
            return Arc::clone(existing);
        }
    }
    let assigned: Vec<u64> = match shard {
        Some(s) => grid.assigned(s.seed, s.count, s.index),
        None => (0..grid.cell_count()).collect(),
    };
    // Classify durability up front: cells with a live store entry are
    // done before any worker touches the job. `contains` is a bare stat
    // — the payload is still digest-verified when it is actually read.
    let mut durable = vec![false; assigned.len()];
    if let Some(store) = state.store.as_deref() {
        for (pos, &index) in assigned.iter().enumerate() {
            if let Some(cell) = grid.cell(index) {
                durable[pos] = store.contains(Kind::Result, &cell_key(&cell));
            }
        }
    }
    let completed = durable.iter().filter(|&&d| d).count();
    let job = Arc::new(Job {
        id: id.clone(),
        grid,
        shard,
        assigned,
        cancelled: AtomicBool::new(cancelled),
        progress: Mutex::new(Progress {
            done: durable.clone(),
            durable,
            completed,
        }),
    });
    {
        let mut jobs = state.jobs.jobs.lock().expect("job registry lock");
        // Two racing submits of the same spec: first insert wins, the
        // loser adopts it (no cells were enqueued yet).
        if let Some(existing) = jobs.get(&id) {
            return Arc::clone(existing);
        }
        jobs.insert(id.clone(), Arc::clone(&job));
    }
    if resumed {
        state.jobs.resumed.fetch_add(1, Ordering::Relaxed);
    } else {
        state.jobs.submitted.fetch_add(1, Ordering::Relaxed);
        persist_manifest(state, &job);
    }
    if !cancelled {
        enqueue_pending(state, &job);
    }
    job
}

/// Queue every not-yet-done cell on the background lane. A full lane
/// leaves the remainder un-queued — the job is durable, so the next
/// startup (or a progress poll, which heals missing cells) re-derives
/// and re-enqueues them; nothing is lost, only delayed.
fn enqueue_pending(state: &Arc<AppState>, job: &Arc<Job>) {
    let done = job.done_snapshot();
    for (pos, was_done) in done.into_iter().enumerate() {
        if was_done {
            continue;
        }
        if state
            .queue
            .push_background(Work::Cell {
                job: Arc::clone(job),
                pos,
            })
            .is_err()
        {
            break;
        }
    }
}

fn persist_manifest(state: &AppState, job: &Job) {
    let Some(store) = state.store.as_deref() else {
        return;
    };
    let manifest = canonical_json(&Manifest {
        cancelled: job.cancelled.load(Ordering::SeqCst),
        mappings: job.grid.mappings(),
        shard: job.shard,
        topologies: job.grid.topologies(),
        workloads: job.grid.workloads(),
    });
    store.put(Kind::Job, &job.id, manifest.as_bytes());
}

/// Cancel a job: flip the flag (queued cells will be skipped on pop,
/// which frees the lane at pop speed, not compute speed) and persist
/// the cancelled manifest so a restart does not resurrect it.
pub fn cancel(state: &AppState, id: &str) -> Option<Arc<Job>> {
    let job = state.jobs.get(id)?;
    job.cancelled.store(true, Ordering::SeqCst);
    persist_manifest(state, &job);
    Some(job)
}

/// Execute one queued cell on a worker thread.
pub fn run_cell(state: &Arc<AppState>, job: &Arc<Job>, pos: usize) {
    if job.cancelled.load(Ordering::SeqCst) {
        state.jobs.cells_cancelled.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let Some(&index) = job.assigned.get(pos) else {
        return;
    };
    let Some(cell) = job.grid.cell(index) else {
        return;
    };
    let key = cell_key(&cell);
    let was_durable = job.progress.lock().expect("job progress lock").durable[pos];
    // Read-through before any compute: a hit — memory or digest-verified
    // disk — finishes the cell for the cost of a lookup.
    if let Some((_bytes, tier)) = tiered_get(
        &state.result_cache,
        state.store.as_deref(),
        Kind::Result,
        &key,
    ) {
        match tier {
            CacheTier::Memory => state.jobs.cells_from_cache.fetch_add(1, Ordering::Relaxed),
            CacheTier::Disk => state.jobs.cells_from_disk.fetch_add(1, Ordering::Relaxed),
        };
        job.mark_done(pos);
        return;
    }
    // The workload's trace is folded once, in the ingest cache shared with
    // interactive requests, however many cells replay it.
    let ingest =
        netloc_workloads::parse_workload_spec(&cell.workload).and_then(|(app, ranks, _)| {
            state.ingest(&workload_digest(&cell.workload), || {
                Ok(netloc_workloads::generate_workload(app, ranks))
            })
        });
    let bytes = match ingest {
        Ok(ingest) => match cell.topology.parse::<TopologySpec>() {
            Ok(topo_spec) => {
                match crate::handlers::with_routed(state, &topo_spec, |routed| {
                    cell_bytes_routed(&ingest, &cell, &topo_spec, routed)
                }) {
                    Ok(bytes) => bytes,
                    Err(e) => error_cell_bytes(&cell, &e.to_string()),
                }
            }
            Err(e) => error_cell_bytes(&cell, &format!("{e}")),
        },
        Err(e) => error_cell_bytes(&cell, &e),
    };
    state.jobs.cells_computed.fetch_add(1, Ordering::Relaxed);
    if was_durable {
        state.jobs.cells_recomputed.fetch_add(1, Ordering::Relaxed);
    }
    tiered_insert(
        &state.result_cache,
        state.store.as_deref(),
        Kind::Result,
        &key,
        &Arc::new(bytes),
    );
    job.mark_done(pos);
}

/// Recover every persisted job at startup: scan the manifests, rebuild
/// each grid, mark durable cells done, and re-enqueue the rest.
/// Cancelled manifests are registered (so their ids still answer) but
/// never enqueued. Manifests that no longer parse — from an
/// incompatible past version — are dropped from the store.
pub fn resume_all(state: &Arc<AppState>) {
    let Some(store) = state.store.clone() else {
        return;
    };
    for (id, payload) in store.scan(Kind::Job) {
        match parse_manifest(&payload) {
            Some((grid, shard, cancelled)) => {
                let job = submit(state, grid, shard, true, cancelled);
                if job.id != id {
                    // The manifest was keyed under a different id than
                    // its spec digests to — a stale canonicalization.
                    // The re-derived job is authoritative; drop the old
                    // frame so the mismatch never recurs.
                    store.remove(Kind::Job, &id);
                    persist_manifest(state, &job);
                }
            }
            None => store.remove(Kind::Job, &id),
        }
    }
}

fn parse_manifest(payload: &[u8]) -> Option<(GridSpec, Option<ShardSpec>, bool)> {
    let text = std::str::from_utf8(payload).ok()?;
    let value: Value = serde_json::from_str(text).ok()?;
    let Value::Object(fields) = &value else {
        return None;
    };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let strings = |name: &str| -> Option<Vec<String>> {
        match get(name)? {
            Value::Array(items) => items
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    };
    let cancelled = matches!(get("cancelled"), Some(Value::Bool(true)));
    let shard = match get("shard") {
        None | Some(Value::Null) => None,
        Some(Value::Object(sf)) => {
            let num = |name: &str| -> Option<u64> {
                sf.iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, v)| match v {
                        Value::UInt(n) => u64::try_from(*n).ok(),
                        Value::Int(n) => u64::try_from(*n).ok(),
                        _ => None,
                    })
            };
            Some(ShardSpec {
                count: u32::try_from(num("count")?).ok()?,
                index: u32::try_from(num("index")?).ok()?,
                seed: num("seed")?,
            })
        }
        Some(_) => return None,
    };
    let grid = GridSpec::parse(
        &strings("topologies")?,
        &strings("mappings")?,
        &strings("workloads")?,
    )
    .ok()?;
    Some((grid, shard, cancelled))
}

/// The progress payload of `GET /v1/jobs/{id}`: status and counts, plus
/// the completed cells with global index ≥ `from`, ascending, up to
/// `limit` entries. A done cell whose payload is unreadable (evicted
/// from memory *and* quarantined on disk) is returned as a `null`
/// payload, un-marked, and re-enqueued — the poller heals the job.
pub fn progress_value(state: &Arc<AppState>, job: &Arc<Job>, from: u64, limit: usize) -> Value {
    let done = job.done_snapshot();
    let mut cells = Vec::new();
    let mut healed = Vec::new();
    for (pos, &index) in job.assigned.iter().enumerate() {
        if cells.len() >= limit {
            break;
        }
        if index < from || !done[pos] {
            continue;
        }
        let cell = match job.grid.cell(index) {
            Some(c) => c,
            None => continue,
        };
        let key = cell_key(&cell);
        let payload = tiered_get(
            &state.result_cache,
            state.store.as_deref(),
            Kind::Result,
            &key,
        )
        .and_then(|(bytes, _tier)| std::str::from_utf8(&bytes).ok().map(str::to_owned))
        .and_then(|text| serde_json::from_str(&text).ok());
        match payload {
            Some(v) => cells.push(Value::Object(vec![
                ("index".to_string(), Value::UInt(index as u128)),
                ("payload".to_string(), v),
            ])),
            None => {
                // Lost between completion and this poll: recompute.
                let mut p = job.progress.lock().expect("job progress lock");
                if p.done[pos] {
                    p.done[pos] = false;
                    p.durable[pos] = false;
                    p.completed -= 1;
                    healed.push(pos);
                }
            }
        }
    }
    for pos in healed {
        let _ = state.queue.push_background(Work::Cell {
            job: Arc::clone(job),
            pos,
        });
    }
    // A running job over an *empty* background lane means cells were
    // never queued (lane was full at submit) or their work was lost (a
    // panicked cell). Re-enqueueing every pending cell is idempotent —
    // an already-computed cell resolves as a cache hit — so the poll
    // itself restarts the stalled remainder.
    if job.status() == "running" && state.queue.background_depth() == 0 {
        enqueue_pending(state, job);
    }
    summary_with_cells(job, Some(Value::Array(cells)))
}

/// The summary object shared by submit/list/cancel responses; `GET`
/// with a range extends it with the `cells` array.
pub fn summary_value(job: &Job) -> Value {
    summary_with_cells(job, None)
}

fn summary_with_cells(job: &Job, cells: Option<Value>) -> Value {
    let (completed, assigned) = job.counts();
    let mut fields = vec![
        ("id".to_string(), Value::Str(job.id.clone())),
        ("status".to_string(), Value::Str(job.status().to_string())),
        (
            "total_cells".to_string(),
            Value::UInt(job.grid.cell_count() as u128),
        ),
        ("assigned_cells".to_string(), Value::UInt(assigned as u128)),
        (
            "completed_cells".to_string(),
            Value::UInt(completed as u128),
        ),
        (
            "shard".to_string(),
            match job.shard {
                Some(s) => Value::Object(vec![
                    ("count".to_string(), Value::UInt(s.count as u128)),
                    ("index".to_string(), Value::UInt(s.index as u128)),
                    ("seed".to_string(), Value::UInt(s.seed as u128)),
                ]),
                None => Value::Null,
            },
        ),
    ];
    if let Some(cells) = cells {
        fields.push(("cells".to_string(), cells));
    }
    Value::Object(fields)
}
