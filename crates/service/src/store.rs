//! Persistent content-addressed store — the durability layer under the
//! in-memory caches.
//!
//! Everything the server would hate to recompute after a restart lives
//! here as a digest-named file under the `--data-dir`: cached response
//! bytes (`results/`), serialized [`netloc_topology::RouteTable`]s
//! (`tables/`), and registered trace uploads (`traces/`). The in-memory
//! LRU caches become read-through/write-behind layers over this store:
//! a memory miss consults the disk before recomputing, and every insert
//! is queued to a background writer thread so request latency never
//! includes an fsync.
//!
//! **Trust nothing on disk.** Every entry is framed as
//!
//! ```text
//! [8B magic][4B version][1B kind][4B key len][key]
//! [8B payload len][payload]
//! [8B digest][8B total file len]
//! ```
//!
//! where the digest covers every byte before it. A load re-verifies the
//! whole frame: wrong magic or version, a truncated or padded file, any
//! bit flip in header, key, payload, or footer — all of it is treated as
//! a **miss**, the offending file is moved to `quarantine/` (never
//! deleted; operators can inspect it), a counter is bumped, and the
//! server recomputes. Corruption therefore costs latency, never
//! correctness and never a panic. The seeded corruption property test in
//! `tests/service_faults.rs` drives truncation, bit flips, and wrong
//! digests over live stores to hold that line.
//!
//! Writes are crash-safe per entry: the frame is written to a temp file
//! in the same directory and `rename(2)`d into place, so a SIGKILL mid-
//! write leaves either the old entry, the new entry, or a stray temp
//! file — never a half-written entry under the live name. Stray temp
//! files from a previous crash are swept on open.

use netloc_core::canon::{content_digest, digest_hex};
use serde::Serialize;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// File magic of a store entry (version byte spelled separately).
pub const STORE_MAGIC: &[u8; 8] = b"NLSTORE\x00";

/// Entry-format version; a mismatch quarantines the entry on load.
pub const STORE_VERSION: u32 = 1;

/// Smallest possible frame: header with an empty key + empty payload +
/// footer.
const MIN_FRAME: usize = 8 + 4 + 1 + 4 + 8 + 8 + 8;

/// Pending write-behind frames before `put` falls back to writing
/// synchronously on the caller's thread (bounds queue memory under a
/// burst of large inserts).
const MAX_PENDING_WRITES: usize = 256;

/// The namespaces of the store, each its own subdirectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cached canonical response bytes (`results/`) — including sweep-job
    /// cell payloads, which share the analyze key space so a job warms
    /// the interactive cache and vice versa.
    Result,
    /// Serialized route tables, flat or compressed (`tables/`).
    Table,
    /// Registered trace uploads (`traces/`).
    Trace,
    /// Sweep-job manifests (`jobs/`), scanned on startup to resume
    /// interrupted jobs.
    Job,
}

impl Kind {
    /// All namespaces, for scans and stats.
    pub const ALL: [Kind; 4] = [Kind::Result, Kind::Table, Kind::Trace, Kind::Job];

    /// Subdirectory name under the data dir.
    pub fn dir(self) -> &'static str {
        match self {
            Kind::Result => "results",
            Kind::Table => "tables",
            Kind::Trace => "traces",
            Kind::Job => "jobs",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Kind::Result => b'R',
            Kind::Table => b'T',
            Kind::Trace => b'U',
            Kind::Job => b'J',
        }
    }

    /// Dense index into [`Kind::ALL`]-ordered arrays (stats, tests).
    pub fn index(self) -> usize {
        match self {
            Kind::Result => 0,
            Kind::Table => 1,
            Kind::Trace => 2,
            Kind::Job => 3,
        }
    }
}

/// Frame `payload` under `key` as the self-verifying entry format.
pub fn encode_entry(kind: Kind, key: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MIN_FRAME + key.len() + payload.len());
    out.extend_from_slice(STORE_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.push(kind.tag());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let digest = content_digest(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    let total = (out.len() + 8) as u64;
    out.extend_from_slice(&total.to_le_bytes());
    out
}

/// Why a frame failed verification (all variants quarantine the file).
#[derive(Debug, PartialEq, Eq)]
enum FrameError {
    Corrupt(&'static str),
    /// Structurally valid frame whose key is not the requested one — an
    /// honest digest collision, treated as a plain miss (no quarantine).
    KeyMismatch,
}

/// Verify a frame end to end and return its payload.
fn decode_entry(kind: Kind, key: &str, bytes: &[u8]) -> Result<Vec<u8>, FrameError> {
    let (frame_key, payload) = decode_frame(kind, bytes)?;
    if frame_key != key.as_bytes() {
        return Err(FrameError::KeyMismatch);
    }
    Ok(payload)
}

/// Verify a frame end to end and return its embedded key and payload —
/// the scan path, where the key is *read from* the frame instead of
/// checked against an expected one.
fn decode_frame(kind: Kind, bytes: &[u8]) -> Result<(&[u8], Vec<u8>), FrameError> {
    use FrameError::Corrupt;
    if bytes.len() < MIN_FRAME {
        return Err(Corrupt("frame shorter than the fixed header"));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 16);
    let digest = u64::from_le_bytes(footer[..8].try_into().expect("8B"));
    let total = u64::from_le_bytes(footer[8..].try_into().expect("8B"));
    if total != bytes.len() as u64 {
        return Err(Corrupt("footer length does not match the file length"));
    }
    if digest != content_digest(body) {
        return Err(Corrupt("digest mismatch"));
    }
    if &body[..8] != STORE_MAGIC {
        return Err(Corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(body[8..12].try_into().expect("4B"));
    if version != STORE_VERSION {
        return Err(Corrupt("entry format version mismatch"));
    }
    if body[12] != kind.tag() {
        return Err(Corrupt("entry kind does not match its directory"));
    }
    let key_len = u32::from_le_bytes(body[13..17].try_into().expect("4B")) as usize;
    let key_end = 17usize
        .checked_add(key_len)
        .ok_or(Corrupt("key length overflow"))?;
    if key_end + 8 > body.len() {
        return Err(Corrupt("key length exceeds the frame"));
    }
    let payload_len =
        u64::from_le_bytes(body[key_end..key_end + 8].try_into().expect("8B")) as usize;
    let payload_start = key_end + 8;
    if body.len() - payload_start != payload_len {
        return Err(Corrupt("payload length does not match the frame"));
    }
    Ok((&body[17..key_end], body[payload_start..].to_vec()))
}

/// Per-namespace occupancy.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct KindStats {
    /// Live entries in the namespace directory.
    pub entries: u64,
    /// Total bytes of those entry files (frames, not payloads).
    pub bytes: u64,
}

/// A `statusz` snapshot of the persistent store.
#[derive(Debug, Clone, Serialize)]
pub struct DiskStoreStats {
    /// Loads that returned a verified payload.
    pub hits: u64,
    /// Loads that found no (valid, matching) entry.
    pub misses: u64,
    /// Entries that failed verification and were moved to `quarantine/`.
    pub quarantined: u64,
    /// Entries written (queued writes that reached the disk).
    pub writes: u64,
    /// Writes that failed at the filesystem level (entry skipped; the
    /// in-memory cache still serves it until eviction).
    pub write_errors: u64,
    /// Cached response bytes (`results/`).
    pub results: KindStats,
    /// Serialized route tables (`tables/`).
    pub tables: KindStats,
    /// Registered trace uploads (`traces/`).
    pub traces: KindStats,
    /// Sweep-job manifests (`jobs/`).
    pub jobs: KindStats,
    /// Files parked in `quarantine/` — entries that failed verification,
    /// kept for inspection. Growth here means something is corrupting
    /// the data dir.
    pub quarantine: KindStats,
}

/// Quarantine population past which the store logs a one-line warning —
/// a handful of quarantined entries is bit-rot; hundreds is an operator
/// problem (failing disk, version skew, hostile writer).
const QUARANTINE_WARN_ENTRIES: u64 = 100;

struct WriterState {
    queue: VecDeque<(Kind, PathBuf, Vec<u8>)>,
    closed: bool,
    /// A frame popped but not yet renamed into place; `flush` waits for
    /// it too.
    writing: bool,
}

struct Inner {
    root: PathBuf,
    writer: Mutex<WriterState>,
    writer_wake: Condvar,
    writer_idle: Condvar,
    occupancy: Mutex<[KindStats; 4]>,
    quarantine_occ: Mutex<KindStats>,
    quarantine_warned: std::sync::atomic::AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    quarantine_seq: AtomicU64,
}

/// The persistent digest-verified store. Cloning shares the same
/// directory, writer thread, and counters.
pub struct DiskStore {
    inner: Arc<Inner>,
    /// Joined by the last owner on drop.
    writer_thread: Option<std::thread::JoinHandle<()>>,
}

impl DiskStore {
    /// Open (or create) a store rooted at `root`: create the namespace
    /// and quarantine directories, sweep temp files left by a crashed
    /// writer, scan occupancy, and start the write-behind thread.
    pub fn open(root: &Path) -> std::io::Result<Arc<DiskStore>> {
        let mut occupancy = [KindStats::default(); 4];
        for kind in Kind::ALL {
            let dir = root.join(kind.dir());
            std::fs::create_dir_all(&dir)?;
            let stats = &mut occupancy[kind.index()];
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with(".tmp") {
                    // A writer died mid-write before its rename; the live
                    // name was never touched, so the temp file is garbage.
                    let _ = std::fs::remove_file(entry.path());
                    continue;
                }
                if let Ok(meta) = entry.metadata() {
                    stats.entries += 1;
                    stats.bytes += meta.len();
                }
            }
        }
        let quarantine_dir = root.join("quarantine");
        std::fs::create_dir_all(&quarantine_dir)?;
        let mut quarantine_occ = KindStats::default();
        for entry in std::fs::read_dir(&quarantine_dir)? {
            if let Ok(meta) = entry?.metadata() {
                quarantine_occ.entries += 1;
                quarantine_occ.bytes += meta.len();
            }
        }
        let inner = Arc::new(Inner {
            root: root.to_path_buf(),
            writer: Mutex::new(WriterState {
                queue: VecDeque::new(),
                closed: false,
                writing: false,
            }),
            writer_wake: Condvar::new(),
            writer_idle: Condvar::new(),
            occupancy: Mutex::new(occupancy),
            quarantine_occ: Mutex::new(quarantine_occ),
            quarantine_warned: std::sync::atomic::AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            quarantine_seq: AtomicU64::new(0),
        });
        let writer_thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("netloc-store-writer".into())
                .spawn(move || writer_loop(&inner))?
        };
        Ok(Arc::new(DiskStore {
            inner,
            writer_thread: Some(writer_thread),
        }))
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    fn entry_path(&self, kind: Kind, key: &str) -> PathBuf {
        self.inner.root.join(kind.dir()).join(format!(
            "{}.nls",
            digest_hex(content_digest(key.as_bytes()))
        ))
    }

    /// Load and verify the entry for `key`. Any verification failure
    /// quarantines the file and reads as a miss.
    pub fn get(&self, kind: Kind, key: &str) -> Option<Vec<u8>> {
        let path = self.entry_path(kind, key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(kind, key, &bytes) {
            Ok(payload) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(FrameError::KeyMismatch) => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(FrameError::Corrupt(_)) => {
                self.quarantine(kind, &path, bytes.len() as u64);
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Queue `payload` for persistence under `key` (write-behind). Falls
    /// back to a synchronous write when the queue is saturated, so
    /// pending frames never hold unbounded memory.
    pub fn put(&self, kind: Kind, key: &str, payload: &[u8]) {
        let frame = encode_entry(kind, key, payload);
        let path = self.entry_path(kind, key);
        {
            let mut w = self.inner.writer.lock().expect("store writer lock");
            if !w.closed && w.queue.len() < MAX_PENDING_WRITES {
                w.queue.push_back((kind, path, frame));
                drop(w);
                self.inner.writer_wake.notify_one();
                return;
            }
        }
        write_frame(&self.inner, kind, &path, &frame);
    }

    /// Block until every queued write has reached the filesystem.
    pub fn flush(&self) {
        let mut w = self.inner.writer.lock().expect("store writer lock");
        while !w.queue.is_empty() || w.writing {
            w = self.inner.writer_idle.wait(w).expect("store writer lock");
        }
    }

    /// Whether a live entry exists for `key` — a bare `stat(2)`, no
    /// decode, no hit/miss accounting. The job subsystem uses this to
    /// classify cells as durable at submit/resume time; the later real
    /// `get` still verifies the frame before anything is served.
    pub fn contains(&self, kind: Kind, key: &str) -> bool {
        self.entry_path(kind, key).exists()
    }

    /// Decode every verified entry of a namespace as `(key, payload)`
    /// pairs. Corrupt frames are quarantined exactly as on a keyed
    /// `get`; non-UTF-8 keys (impossible for frames this store wrote)
    /// count as corrupt. Used to recover job manifests on startup —
    /// keep it off hot paths, it reads the whole directory.
    pub fn scan(&self, kind: Kind) -> Vec<(String, Vec<u8>)> {
        let dir = self.inner.root.join(kind.dir());
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return Vec::new();
        };
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "nls"))
            .collect();
        paths.sort();
        let mut out = Vec::new();
        for path in paths {
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            match decode_frame(kind, &bytes) {
                Ok((key, payload)) => match String::from_utf8(key.to_vec()) {
                    Ok(key) => out.push((key, payload)),
                    Err(_) => self.quarantine(kind, &path, bytes.len() as u64),
                },
                Err(_) => self.quarantine(kind, &path, bytes.len() as u64),
            }
        }
        out
    }

    /// Remove the entry for `key` if present (used when a job manifest
    /// is superseded). Missing entries are fine.
    pub fn remove(&self, kind: Kind, key: &str) {
        let path = self.entry_path(kind, key);
        if let Ok(meta) = std::fs::metadata(&path) {
            if std::fs::remove_file(&path).is_ok() {
                let mut occ = self.inner.occupancy.lock().expect("store occupancy lock");
                let s = &mut occ[kind.index()];
                s.entries = s.entries.saturating_sub(1);
                s.bytes = s.bytes.saturating_sub(meta.len());
            }
        }
    }

    /// Counters and per-namespace occupancy for `statusz`.
    pub fn stats(&self) -> DiskStoreStats {
        let occ = self.inner.occupancy.lock().expect("store occupancy lock");
        let quarantine = *self
            .inner
            .quarantine_occ
            .lock()
            .expect("store quarantine lock");
        DiskStoreStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            quarantined: self.inner.quarantined.load(Ordering::Relaxed),
            writes: self.inner.writes.load(Ordering::Relaxed),
            write_errors: self.inner.write_errors.load(Ordering::Relaxed),
            results: occ[Kind::Result.index()],
            tables: occ[Kind::Table.index()],
            traces: occ[Kind::Trace.index()],
            jobs: occ[Kind::Job.index()],
            quarantine,
        }
    }

    fn quarantine(&self, kind: Kind, path: &Path, len: u64) {
        let seq = self.inner.quarantine_seq.fetch_add(1, Ordering::Relaxed);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".into());
        let dest = self
            .inner
            .root
            .join("quarantine")
            .join(format!("{}-{seq}-{name}", kind.dir()));
        let parked = if std::fs::rename(path, &dest).is_ok() {
            true
        } else {
            // Cross-device or racing rename: removing is the fallback
            // that still guarantees the bad entry never loads again.
            let _ = std::fs::remove_file(path);
            false
        };
        self.inner.quarantined.fetch_add(1, Ordering::Relaxed);
        {
            let mut occ = self.inner.occupancy.lock().expect("store occupancy lock");
            let s = &mut occ[kind.index()];
            s.entries = s.entries.saturating_sub(1);
            s.bytes = s.bytes.saturating_sub(len);
        }
        if parked {
            let entries = {
                let mut q = self
                    .inner
                    .quarantine_occ
                    .lock()
                    .expect("store quarantine lock");
                q.entries += 1;
                q.bytes += len;
                q.entries
            };
            if entries > QUARANTINE_WARN_ENTRIES
                && !self
                    .inner
                    .quarantine_warned
                    .swap(true, std::sync::atomic::Ordering::Relaxed)
            {
                eprintln!(
                    "netloc-store: warning: quarantine exceeds {QUARANTINE_WARN_ENTRIES} entries \
                     ({entries} files under {}); the data dir is corrupting faster than bit-rot",
                    self.inner.root.join("quarantine").display()
                );
            }
        }
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        {
            let mut w = self.inner.writer.lock().expect("store writer lock");
            w.closed = true;
        }
        self.inner.writer_wake.notify_all();
        if let Some(handle) = self.writer_thread.take() {
            let _ = handle.join();
        }
    }
}

fn writer_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut w = inner.writer.lock().expect("store writer lock");
            loop {
                if let Some(job) = w.queue.pop_front() {
                    w.writing = true;
                    break Some(job);
                }
                if w.closed {
                    break None;
                }
                w = inner.writer_wake.wait(w).expect("store writer lock");
            }
        };
        let Some((kind, path, frame)) = job else {
            return;
        };
        write_frame(inner, kind, &path, &frame);
        let mut w = inner.writer.lock().expect("store writer lock");
        w.writing = false;
        drop(w);
        inner.writer_idle.notify_all();
    }
}

/// Write one frame atomically: temp file in the target directory, then
/// rename over the live name.
fn write_frame(inner: &Inner, kind: Kind, path: &Path, frame: &[u8]) {
    let dir = path.parent().expect("entry paths have a parent");
    let tmp = dir.join(format!(
        ".tmp-{}-{:016x}",
        std::process::id(),
        content_digest(path.to_string_lossy().as_bytes())
    ));
    // If an entry already lives under this name, the rename replaces it.
    let replaced = std::fs::metadata(path).ok().map(|m| m.len());
    let result = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(frame)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    match result {
        Ok(()) => {
            inner.writes.fetch_add(1, Ordering::Relaxed);
            let mut occ = inner.occupancy.lock().expect("store occupancy lock");
            let s = &mut occ[kind.index()];
            if let Some(old) = replaced {
                s.bytes = s.bytes.saturating_sub(old);
            } else {
                s.entries += 1;
            }
            s.bytes += frame.len() as u64;
        }
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
            inner.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "netloc-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_flush_get_round_trips_and_counts() {
        let dir = tmpdir("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.get(Kind::Result, "k1").is_none());
        store.put(Kind::Result, "k1", b"payload-1");
        store.flush();
        assert_eq!(store.get(Kind::Result, "k1").unwrap(), b"payload-1");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.quarantined), (1, 1, 1, 0));
        assert_eq!(s.results.entries, 1);
        assert!(s.results.bytes > 9, "frame is payload plus header/footer");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_sees_persisted_entries_and_occupancy() {
        let dir = tmpdir("reopen");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(Kind::Table, "torus:3,3,3", &[7u8; 100]);
            store.put(Kind::Trace, "abcd", b"send 0 1 64 1 0.0");
            store.flush();
        }
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.get(Kind::Table, "torus:3,3,3").unwrap(), [7u8; 100]);
        assert_eq!(store.stats().tables.entries, 1);
        assert_eq!(store.stats().traces.entries, 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_frame_truncation_is_a_quarantined_miss() {
        let dir = tmpdir("truncate");
        let store = DiskStore::open(&dir).unwrap();
        store.put(Kind::Result, "k", b"some payload worth protecting");
        store.flush();
        let path = store.entry_path(Kind::Result, "k");
        let full = std::fs::read(&path).unwrap();
        for len in [0, 1, MIN_FRAME - 1, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..len]).unwrap();
            assert!(store.get(Kind::Result, "k").is_none(), "len {len}");
            assert!(!path.exists(), "corrupt entry must be quarantined");
            std::fs::write(&path, &full).unwrap();
        }
        assert_eq!(store.stats().quarantined, 5);
        assert!(
            store.get(Kind::Result, "k").is_some(),
            "restored entry loads"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_quarantined() {
        let dir = tmpdir("version");
        let store = DiskStore::open(&dir).unwrap();
        let mut frame = encode_entry(Kind::Result, "k", b"data");
        frame[8] = STORE_VERSION as u8 + 1; // bump version, then re-seal
        let body_len = frame.len() - 16;
        let digest = content_digest(&frame[..body_len]);
        frame[body_len..body_len + 8].copy_from_slice(&digest.to_le_bytes());
        std::fs::write(store.entry_path(Kind::Result, "k"), &frame).unwrap();
        assert!(store.get(Kind::Result, "k").is_none());
        assert_eq!(store.stats().quarantined, 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_collision_reads_as_plain_miss_without_quarantine() {
        let dir = tmpdir("collision");
        let store = DiskStore::open(&dir).unwrap();
        // A structurally valid entry for a *different* key planted at
        // this key's path: honest miss, no quarantine (the frame is not
        // corrupt, it just is not ours).
        let frame = encode_entry(Kind::Result, "other-key", b"other payload");
        std::fs::write(store.entry_path(Kind::Result, "k"), frame).unwrap();
        assert!(store.get(Kind::Result, "k").is_none());
        assert_eq!(store.stats().quarantined, 0);
        assert_eq!(store.stats().misses, 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_returns_embedded_keys_and_quarantines_corruption() {
        let dir = tmpdir("scan");
        let store = DiskStore::open(&dir).unwrap();
        store.put(Kind::Job, "job-b", b"manifest b");
        store.put(Kind::Job, "job-a", b"manifest a");
        store.put(Kind::Result, "not-a-job", b"other namespace");
        store.flush();
        let mut entries = store.scan(Kind::Job);
        entries.sort();
        assert_eq!(
            entries,
            vec![
                ("job-a".to_string(), b"manifest a".to_vec()),
                ("job-b".to_string(), b"manifest b".to_vec()),
            ]
        );
        // Corrupt one manifest: the scan quarantines it and returns the
        // survivor only.
        let path = store.entry_path(Kind::Job, "job-a");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let entries = store.scan(Kind::Job);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "job-b");
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(store.stats().jobs.entries, 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_occupancy_counts_entries_and_bytes_across_reopen() {
        let dir = tmpdir("quarantine-occ");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(Kind::Result, "k", b"payload");
            store.flush();
            let path = store.entry_path(Kind::Result, "k");
            let frame_len = std::fs::metadata(&path).unwrap().len();
            std::fs::write(&path, b"garbage that is long enough to pass nothing").unwrap();
            assert!(store.get(Kind::Result, "k").is_none());
            let s = store.stats();
            assert_eq!(s.quarantine.entries, 1);
            assert!(s.quarantine.bytes > 0, "quarantine bytes tracked");
            let _ = frame_len;
        }
        // Reopen: the quarantine directory is rescanned, not forgotten.
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.stats().quarantine.entries, 1);
        assert!(store.stats().quarantine.bytes > 0);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_entry_and_updates_occupancy() {
        let dir = tmpdir("remove");
        let store = DiskStore::open(&dir).unwrap();
        store.put(Kind::Job, "gone", b"bye");
        store.flush();
        assert!(store.contains(Kind::Job, "gone"));
        store.remove(Kind::Job, "gone");
        assert!(!store.contains(Kind::Job, "gone"));
        assert_eq!(store.stats().jobs.entries, 0);
        store.remove(Kind::Job, "never-there");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_temp_files_are_swept_on_open() {
        let dir = tmpdir("sweep");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.put(Kind::Result, "live", b"x");
            store.flush();
        }
        let stray = dir.join("results").join(".tmp-999-dead");
        std::fs::write(&stray, b"half a frame").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        assert!(!stray.exists(), "crash leftovers must be removed");
        assert_eq!(store.stats().results.entries, 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
