//! Process memory and provenance.

use netloc_core::canon::{content_digest, digest_hex};
use std::path::{Path, PathBuf};
use std::process::Command;

extern "C" {
    /// glibc: return free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand freed heap pages back to the kernel, so the next peak reading
/// measures what is live rather than what earlier passes left in the
/// allocator's arenas — as if the next pass ran in a fresh process.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` only walks the allocator's own free lists
    // under its arena locks; it takes no pointers from the caller.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset this process's peak resident set (VmHWM) to its current RSS, so
/// the peak read later covers only what ran after the reset. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Digest of every file under `roots` (relative to the working directory),
/// in path order: identifies the code measured when no git metadata is
/// available.
fn source_digest(roots: &[&str]) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, files),
                Ok(t) if t.is_file() => files.push(path),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        let root = Path::new(root);
        if root.is_file() {
            files.push(root.to_path_buf());
        } else {
            walk(root, &mut files);
        }
    }
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut all = Vec::new();
    for file in &files {
        all.extend_from_slice(file.to_string_lossy().as_bytes());
        all.extend(std::fs::read(file).unwrap_or_default());
    }
    digest_hex(content_digest(&all))
}

/// Where a result was measured.
pub struct Provenance {
    pub commit: String,
    pub source_digest: String,
    pub nproc: usize,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Self {
        Provenance {
            // Benchmarks also run from exported trees that are not git
            // checkouts; those report the commit as unknown.
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            source_digest: source_digest(&[
                "Cargo.toml",
                "Cargo.lock",
                "src",
                "crates",
                "vendor",
                "perfbench/Cargo.toml",
                "perfbench/src",
            ]),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}
