//! Where a benchmark result was measured: the commit, the core count and
//! the compiler, so that `BENCH_*.json` files from different runs can be
//! compared.

use serde::{Serialize, Value};

/// Provenance block of a benchmark report.
#[derive(Serialize)]
pub struct Provenance {
    /// The checked-out commit, suffixed `-dirty` when tracked files have
    /// uncommitted changes; `unknown` outside a git checkout.
    pub commit: String,
    /// Logical cores available to the process.
    pub nproc: usize,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
}

impl Provenance {
    /// Collect the provenance of the current process.
    pub fn collect() -> Self {
        Provenance {
            commit: command_line(
                "git",
                &[
                    "describe",
                    "--always",
                    "--dirty",
                    "--abbrev=40",
                    "--exclude=*",
                ],
            ),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: command_line("rustc", &["-V"]),
        }
    }
}

/// First line of a command's stdout, or `unknown` when it cannot run or
/// fails.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Check a serialized provenance block: non-empty `commit` and `rustc`
/// strings and `nproc >= 1`.
pub fn validate(v: &Value) -> Result<(), String> {
    let Value::Object(fields) = v else {
        return Err("provenance missing or not an object".into());
    };
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    for key in ["commit", "rustc"] {
        match get(key) {
            Some(Value::Str(s)) if !s.is_empty() => {}
            _ => return Err(format!("provenance.{key} missing or empty")),
        }
    }
    match get("nproc") {
        Some(Value::UInt(n)) if *n >= 1 => Ok(()),
        _ => Err("provenance.nproc missing or < 1".into()),
    }
}
