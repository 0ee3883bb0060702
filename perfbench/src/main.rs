//! netloc end-to-end benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload file-analysis|topology-grid|service-mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, runs them against the
//! layers' public functions, checks every output, and prints a full
//! report line (`{"report": …}`: provenance, input sizes, every named
//! end-to-end metric with unit and sample count) followed by the summary
//! line `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1`
//! the measured time is split into an untraced and a traced half; the
//! summary then carries the per-layer metrics derived from the traced
//! half's spans and service counters, plus the tracing overhead. Spans
//! are written to `.bench_out/` in the working directory.
//! See `perfbench/README.md` for the workloads and metrics.

mod file_analysis;
mod inputs;
mod pipeline;
mod service_mix;
mod spans;
mod stats;
mod sys;
mod topology_grid;

use serde::Value;
use spans::Recorder;
use stats::Samples;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up runs this many times per run; `setup_s` is the median and the
/// last set-up's inputs are measured.
const SETUP_REPS: usize = 3;

/// Whether a workload that started at `start` and has run `passes`
/// passes should run another: always at least one, then only while the
/// next pass is projected to end within `budget`.
pub fn another_pass(start: Instant, passes: u64, budget: Duration) -> bool {
    let elapsed = start.elapsed();
    passes == 0 || elapsed + elapsed / passes as u32 <= budget
}

/// Failure messages kept for the report (the count is always exact).
const MAX_FAILURE_MESSAGES: usize = 20;

/// A workload: seeded inputs plus the user operations run over them.
pub trait Workload {
    type Input;
    /// Generate inputs, write files and start servers under `dir`.
    fn setup(&self, seed: u64, dir: &Path) -> Self::Input;
    /// Input sizes for the provenance block.
    fn sizes(&self, input: &Self::Input) -> Vec<(&'static str, u64)>;
    /// Run the workload's operations for about `budget`, checking every
    /// output. Spans go to `rec`.
    fn measure(&self, input: Self::Input, rec: &Recorder, budget: Duration) -> Measured;
}

/// One workload-specific end-to-end metric.
pub struct Named {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// For a tail metric, the percentile reported.
    pub percentile: Option<f64>,
}

impl Named {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Named {
            name,
            unit,
            value,
            samples,
            percentile: None,
        }
    }
}

/// What one measured run produced.
#[derive(Default)]
pub struct Measured {
    /// Latency samples per operation kind, in seconds.
    pub ops: BTreeMap<String, Samples>,
    pub named: Vec<Named>,
    /// Per-layer values not derived from spans (service counters, table
    /// sizes), already per pass.
    pub layers: BTreeMap<&'static str, f64>,
    /// Complete passes over the workload's operation set.
    pub passes: u64,
    /// Peak resident set of each pass, in MiB. Later passes also hold
    /// what the allocator kept from earlier ones, so the first pass is the
    /// one that matches a fresh `netloc` process.
    pub pass_rss: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Measured {
    /// Record one successful operation of `kind`.
    pub fn op(&mut self, kind: impl Into<String>, secs: f64) {
        self.attempted += 1;
        self.ops.entry(kind.into()).or_default().push(secs);
    }

    /// Close a pass: record its peak resident set and start the next
    /// pass's peak from the current resident set.
    pub fn end_pass(&mut self) {
        self.passes += 1;
        if let Some(peak) = sys::peak_rss_mib() {
            self.pass_rss.push(peak);
        }
        sys::reset_peak_rss();
    }

    /// Record a failed operation or output check.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(what);
        }
    }

    /// Count a failure unless `ok`; a passing check attempts nothing new
    /// (it belongs to an operation already counted).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn samples(&self, kind: &str) -> Samples {
        self.ops.get(kind).cloned().unwrap_or_default()
    }

    /// Median of `kind` in `scale` units per second, as a named metric.
    pub fn named_median(&mut self, name: &'static str, unit: &'static str, kind: &str, scale: f64) {
        let s = self.samples(kind);
        let value = s.median().unwrap_or(0.0) * scale;
        self.named.push(Named::new(name, unit, value, s.len()));
    }

    /// Tail of `kind` (see [`Samples::tail`]) in milliseconds.
    pub fn named_tail_ms(&mut self, name: &'static str, kind: &str) {
        let s = self.samples(kind);
        let (pct, value) = s.tail().unwrap_or((0.0, 0.0));
        self.named.push(Named {
            percentile: Some(pct),
            ..Named::new(name, "ms", value * 1e3, s.len())
        });
    }

    /// Sum of the medians of `kinds`, in seconds.
    pub fn named_sum_of_medians(&mut self, name: &'static str, kinds: &[&str]) {
        let samples = kinds
            .iter()
            .map(|k| self.samples(k).len())
            .min()
            .unwrap_or(0);
        let value = kinds.iter().filter_map(|k| self.samples(k).median()).sum();
        self.named_value(name, "s", value, samples);
    }

    pub fn named_value(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.named.push(Named::new(name, unit, value, samples));
    }

    /// One of each operation kind, each at its median: `pass_s`.
    pub fn pass_s(&self) -> f64 {
        self.ops.values().filter_map(Samples::median).sum()
    }

    /// Every operation sample, all kinds together.
    pub fn all_ops(&self) -> Samples {
        let mut all = Samples::default();
        for s in self.ops.values() {
            all.extend(s);
        }
        all
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        value(name)?
            .parse()
            .map_err(|_| format!("{name} needs a non-negative integer"))
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn num(v: f64) -> Value {
    Value::Float(v)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Every per-layer metric, in the order of `BENCHMARK.json`. Each
/// workload reports all of them; a layer the workload does not call reads
/// 0, which is also the prediction for it.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("mpi.decode_text_s", "s"),
    ("mpi.decode_columnar_s", "s"),
    ("mpi.events", "count"),
    ("ingest.fold_s", "s"),
    ("ingest.windowed_s", "s"),
    ("metrics.mpi_s", "s"),
    ("sim.expand_s", "s"),
    ("sim.run_s", "s"),
    ("sim.injections", "count"),
    ("topology.build_s", "s"),
    ("topology.routes_s", "s"),
    ("topology.mapping_s", "s"),
    ("topology.route_bytes", "bytes"),
    ("topology.compressed_tables", "count"),
    ("netmodel.replay_s", "s"),
    ("netmodel.rank_pairs", "count"),
    ("netmodel.node_pairs", "count"),
    ("canon.serialize_s", "s"),
    ("http.requests", "count"),
    ("http.request_s", "s"),
    ("service.ingests_per_hit", "ratio"),
    ("service.ingest_events", "count"),
    ("service.handler_panics", "count"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.result_evictions", "count"),
    ("cache.registry_hit_ratio", "ratio"),
    ("topology.route_tables_built", "count"),
    ("topology.route_tables_from_disk", "count"),
    ("store.disk_hits", "count"),
    ("store.writes", "count"),
    ("store.write_errors", "count"),
    ("store.quarantined", "count"),
    ("store.table_bytes", "bytes"),
    ("queue.rejected", "count"),
    ("jobs.cells_completed", "count"),
    ("jobs.cells_recomputed", "count"),
    ("tracing.overhead_s", "s"),
];

/// Span names whose self time is reported as `<name>_s`, and counters
/// reported under their own name; everything is divided by the pass
/// count.
fn layer_values(
    spans: &[spans::SpanRecord],
    counts: &BTreeMap<&'static str, f64>,
    m: &Measured,
) -> BTreeMap<String, f64> {
    let passes = m.passes.max(1) as f64;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (name, (_, self_s)) in spans::self_time_by_name(spans) {
        out.insert(format!("{name}_s"), self_s / passes);
    }
    for (name, v) in counts {
        out.insert(name.to_string(), v / passes);
    }
    for (name, v) in &m.layers {
        out.insert(name.to_string(), *v);
    }
    out
}

fn write_spans(path: &Path, spans: &[spans::SpanRecord]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.request,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

fn metric_json(n: &Named) -> Value {
    let mut fields = vec![
        ("value", num(n.value)),
        ("unit", Value::Str(n.unit.into())),
        ("samples", Value::UInt(n.samples as u128)),
    ];
    if let Some(p) = n.percentile {
        fields.push(("percentile", num(p)));
    }
    obj(fields)
}

/// Run `w` end to end and print its report and summary lines. Returns
/// whether every output check passed.
fn execute<W: Workload>(w: &W, args: &Args, work_dir: &Path) -> bool {
    let prov = sys::Provenance::collect();
    let budget = Duration::from_secs(args.seconds);

    let mut setup = Samples::default();
    let mut input = None;
    for rep in 0..SETUP_REPS {
        if input.take().is_some() {
            let _ = std::fs::remove_dir_all(work_dir.join(format!("setup{}", rep - 1)));
        }
        let start = Instant::now();
        input = Some(w.setup(args.seed, &work_dir.join(format!("setup{rep}"))));
        setup.push(start.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    let sizes = w.sizes(&input);

    sys::release_free_memory();
    let rss_reset = sys::reset_peak_rss();
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let m = w.measure(input, &Recorder::new(false), untraced_budget);

    let mut layers = None;
    let mut traced = None;
    if args.trace {
        let input = w.setup(args.seed, &work_dir.join("traced"));
        sys::release_free_memory();
        sys::reset_peak_rss();
        let rec = Recorder::new(true);
        let tm = w.measure(input, &rec, budget - untraced_budget);
        let (spans, counts) = rec.finish();
        let mut values = layer_values(&spans, &counts, &tm);
        values.insert("tracing.overhead_s".into(), tm.pass_s() - m.pass_s());
        let spans_file = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = write_spans(&spans_file, &spans) {
            eprintln!("cannot write {}: {e}", spans_file.display());
        }
        layers = Some(values);
        traced = Some(tm);
    }

    // Both halves' operations and checks count toward the totals.
    let mut attempted = m.attempted;
    let mut failed = m.failed;
    let mut failures = m.failures.clone();
    if let Some(tm) = &traced {
        attempted += tm.attempted;
        failed += tm.failed;
        failures.extend(tm.failures.iter().cloned());
    }
    let attempted = attempted.max(1);
    let correct = failed == 0;

    let gated = [
        Named::new("setup_s", "s", setup.median().unwrap_or(0.0), setup.len()),
        Named::new(
            "peak_rss_mb",
            "MiB",
            m.pass_rss.values().first().copied().unwrap_or(0.0),
            1,
        ),
        Named::new("pass_s", "s", m.pass_s(), m.ops.len()),
    ];
    let all = m.all_ops();
    let (tail_pct, tail) = all.tail().unwrap_or((0.0, 0.0));
    let op_latency = [
        Named::new(
            "op_p50_ms",
            "ms",
            all.median().unwrap_or(0.0) * 1e3,
            all.len(),
        ),
        Named {
            percentile: Some(tail_pct),
            ..Named::new("op_tail_ms", "ms", tail * 1e3, all.len())
        },
    ];
    let error_rate = Named::new(
        "error_rate",
        "ratio",
        failed as f64 / attempted as f64,
        attempted as usize,
    );
    let named: Vec<(&str, Value)> = gated
        .iter()
        .chain([&error_rate])
        .chain(&op_latency)
        .chain(&m.named)
        .map(|n| (n.name, metric_json(n)))
        .collect();
    let ops: Vec<(&str, Value)> = m
        .ops
        .iter()
        .map(|(kind, s)| {
            (
                kind.as_str(),
                obj(vec![
                    ("median_s", num(s.median().unwrap_or(0.0))),
                    ("samples", Value::UInt(s.len() as u128)),
                ]),
            )
        })
        .collect();
    let mut report = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed as u128)),
        ("seconds", Value::UInt(args.seconds as u128)),
        ("traced", Value::Bool(args.trace)),
        (
            "provenance",
            obj(vec![
                ("commit", Value::Str(prov.commit)),
                ("source_digest", Value::Str(prov.source_digest)),
                ("nproc", Value::UInt(prov.nproc as u128)),
                ("rustc", Value::Str(prov.rustc)),
                ("peak_rss_reset", Value::Bool(rss_reset)),
                ("seed", Value::UInt(args.seed as u128)),
                (
                    "inputs",
                    obj(sizes
                        .iter()
                        .map(|(k, v)| (*k, Value::UInt(*v as u128)))
                        .collect()),
                ),
            ]),
        ),
        ("passes", Value::UInt(m.passes as u128)),
        (
            "pass_peak_rss_mb",
            Value::Array(m.pass_rss.values().iter().map(|v| num(*v)).collect()),
        ),
        ("end_to_end", obj(named)),
        ("operations", obj(ops)),
        (
            "failures",
            Value::Array(failures.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    if let (Some(values), Some(tm)) = (&layers, &traced) {
        report.push(("traced_passes", Value::UInt(tm.passes as u128)));
        report.push((
            "traced_end_to_end",
            obj(tm.named.iter().map(|n| (n.name, metric_json(n))).collect()),
        ));
        report.push((
            "layers_all",
            Value::Object(values.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
        ));
    }
    println!(
        "{}",
        serde_json::to_string(&obj(vec![("report", obj(report))])).expect("report renders")
    );

    let metrics: Vec<(&str, Value)> = match &layers {
        None => gated
            .iter()
            .map(|n| {
                (
                    n.name,
                    obj(vec![
                        ("value", num(n.value)),
                        ("unit", Value::Str(n.unit.into())),
                    ]),
                )
            })
            .collect(),
        Some(values) => LAYER_METRICS
            .iter()
            .map(|(name, unit)| {
                (
                    *name,
                    obj(vec![
                        ("value", num(values.get(*name).copied().unwrap_or(0.0))),
                        ("unit", Value::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    };
    let summary = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted as u128)),
        ("failed", Value::UInt(failed as u128)),
        ("metrics", obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&summary).expect("summary renders")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: netloc-perfbench --workload file-analysis|topology-grid|service-mix \
                 --seed N --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let work_dir =
        PathBuf::from(".bench_run").join(format!("{}-{}", args.workload, std::process::id()));
    let correct = match args.workload.as_str() {
        "file-analysis" => execute(&file_analysis::FileAnalysis, &args, &work_dir),
        "topology-grid" => execute(&topology_grid::TopologyGrid, &args, &work_dir),
        "service-mix" => execute(&service_mix::ServiceMix, &args, &work_dir),
        other => {
            eprintln!("unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    // Succeeds only when no other run is using it.
    let _ = std::fs::remove_dir(".bench_run");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::LAYER_METRICS;
    use serde::Value;

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        match v {
            Value::Object(fields) => &fields.iter().find(|(k, _)| k == name).expect(name).1,
            _ => panic!("expected an object around '{name}'"),
        }
    }

    #[test]
    fn layer_metrics_match_benchmark_json() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let json = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let Value::Array(listed) = field(&json, "per_layer") else {
            panic!("per_layer is not an array");
        };
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                _ => panic!("per_layer entries need string name and unit"),
            })
            .collect();
        let ours: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(ours, listed);
    }
}
