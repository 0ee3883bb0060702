//! The cached shared state of the analysis server.
//!
//! **Level 1 — [`TopoCache`]:** one [`CompressedRouteTable`] behind an
//! `Arc` per distinct canonical topology spec, shared across every worker
//! thread via `Arc<OnceLock<_>>`. The per-spec `OnceLock` gives
//! single-flight semantics: when eight concurrent requests name the same
//! topology, exactly one thread builds the table and the other seven
//! block on the lock and then share the finished `Arc`. The storage plan
//! is `RoutedTopology::auto`'s own ([`plan_storage`]): router-symmetric
//! machines within [`COMPRESSED_PAIR_LIMIT`] ordered *router* pairs get a
//! cached compressed table; every other machine is never cached — the
//! caller falls back to `auto`, which routes directly (or builds lazy
//! core rows past the limit).
//!
//! [`COMPRESSED_PAIR_LIMIT`]: netloc_topology::routetable::COMPRESSED_PAIR_LIMIT
//!
//! **Level 2 — [`ResultCache`]:** content-addressed response bytes. The key
//! is the canonical string `digest(trace)|topology|mapping` (specs in their
//! canonical `Display` form, so `torus:04,4,4` and `torus:4,4,4` share an
//! entry); the index is its fxhash. FxHash is not collision-resistant, so a
//! lookup only counts as a hit when the stored full key matches — a
//! colliding entry is treated as a miss and overwritten. Eviction is LRU by
//! total cached bytes. `stats|digest[|windows:N]` and `metrics|digest`
//! keys cache the trace-only endpoints the same way.
//!
//! **Ingest — [`IngestCache`]:** trace-source digest → the *slim* fold of
//! the trace (matrices, stats and header; events dropped),
//! single-flight per digest and LRU by estimated bytes. It is the only
//! place a request or job cell folds a trace, and it is consulted only
//! after the result tiers missed.
//!
//! **Durability (PR 7):** both levels can be backed by the persistent
//! [`DiskStore`]. The in-memory layer is then read-through/write-behind:
//! a memory miss consults the disk (digest-verified) before recomputing,
//! and every build/insert is queued to the store's background writer. A
//! restart with the same `--data-dir` therefore starts warm — route
//! tables deserialize via [`CompressedRouteTable::from_bytes`] instead of
//! rebuilding, once [`CompressedRouteTable::fits`] has checked them
//! against the topology, and cached responses come back byte-identical
//! (see [`tiered_get`]). Any other blob under a table key — such as a
//! flat table an older server persisted — fails to decode and is rebuilt
//! and rewritten; flat tables under specs that are no longer cached stay
//! on disk unread.

use crate::store::{DiskStore, Kind};
use netloc_core::canon::content_digest;
use netloc_core::{IngestResult, PairTraffic};
use netloc_topology::routetable::{plan_storage, StoragePlan};
use netloc_topology::{CompressedRouteTable, Topology};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Level-1 cache: canonical topology spec → shared route storage,
/// optionally persisted to a [`DiskStore`].
#[derive(Default)]
pub struct TopoCache {
    cells: Mutex<HashMap<String, Arc<OnceLock<Arc<CompressedRouteTable>>>>>,
    store: Option<Arc<DiskStore>>,
    builds: AtomicU64,
    from_disk: AtomicU64,
}

impl TopoCache {
    /// A cache that persists built tables to `store` (when given) and
    /// deserializes them back on the first request after a restart.
    pub fn with_store(store: Option<Arc<DiskStore>>) -> Self {
        TopoCache {
            store,
            ..TopoCache::default()
        }
    }

    /// The shared route table for `canonical_spec`, building it from
    /// `topo` on first use (single-flight: concurrent callers block on one
    /// build). Returns `None` unless [`plan_storage`] plans a compressed
    /// table for the machine.
    pub fn routes(
        &self,
        canonical_spec: &str,
        topo: &dyn Topology,
    ) -> Option<Arc<CompressedRouteTable>> {
        if plan_storage(topo) != StoragePlan::Compressed {
            return None;
        }
        let cell = {
            let mut cells = self.cells.lock().expect("topo cache lock");
            Arc::clone(
                cells
                    .entry(canonical_spec.to_string())
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        let routes = cell.get_or_init(|| {
            // Read-through: a verified disk entry replaces the build only
            // when it is a table of this very machine (`fits`). A stale
            // layout, another machine size or a forged frame is a miss and
            // gets rebuilt and rewritten.
            let restored = self
                .store
                .as_ref()
                .and_then(|store| store.get(Kind::Table, canonical_spec))
                .and_then(|bytes| CompressedRouteTable::from_bytes(&bytes).ok())
                .filter(|table| table.fits(topo));
            if let Some(table) = restored {
                self.from_disk.fetch_add(1, Ordering::Relaxed);
                return Arc::new(table);
            }
            self.builds.fetch_add(1, Ordering::Relaxed);
            let table = CompressedRouteTable::build(topo);
            if let Some(store) = &self.store {
                store.put(Kind::Table, canonical_spec, &table.to_bytes());
            }
            Arc::new(table)
        });
        Some(Arc::clone(routes))
    }

    /// Route tables actually built so far (disk restores are counted
    /// separately; the integration tests assert builds stay at one per
    /// spec under concurrency).
    pub fn tables_built(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Route tables restored from the persistent store instead of built.
    pub fn tables_from_disk(&self) -> u64 {
        self.from_disk.load(Ordering::Relaxed)
    }

    /// Number of specs with a cache cell (built or in flight).
    pub fn specs_cached(&self) -> usize {
        self.cells.lock().expect("topo cache lock").len()
    }
}

struct Entry<V> {
    /// Full canonical key, verified on every lookup (fxhash may collide).
    key: String,
    value: V,
    /// What `value` counts against the capacity.
    bytes: usize,
    /// Recency stamp; the freshest stamp in `recency` wins.
    seq: u64,
}

struct LruState<V> {
    entries: HashMap<u64, Entry<V>>,
    /// Recency list, oldest first. May hold stale (hash, seq) pairs for
    /// entries that were touched again later; eviction skips those.
    recency: std::collections::VecDeque<(u64, u64)>,
    total_bytes: usize,
    next_seq: u64,
}

/// Canonical string key → shared value, LRU by the total byte size the
/// caller declares per value. The result cache, the trace registry and
/// the ingest cache are all instances.
pub struct ByteLru<V> {
    state: Mutex<LruState<V>>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Level-2 cache: canonical request key → exact response bytes, LRU by
/// total byte size.
pub type ResultCache = ByteLru<Arc<Vec<u8>>>;

impl<V: Clone> ByteLru<V> {
    /// An empty cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        ByteLru {
            state: Mutex::new(LruState {
                entries: HashMap::new(),
                recency: std::collections::VecDeque::new(),
                total_bytes: 0,
                next_seq: 0,
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up the value cached for `key`, refreshing its recency.
    /// Counts a hit or miss either way.
    pub fn get(&self, key: &str) -> Option<V> {
        let found = self.peek(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// [`get`](ByteLru::get) without counting a hit or miss.
    fn peek(&self, key: &str) -> Option<V> {
        let hash = content_digest(key.as_bytes());
        let mut s = self.state.lock().expect("lru cache lock");
        let seq = s.next_seq;
        let entry = s.entries.get_mut(&hash).filter(|e| e.key == key)?;
        entry.seq = seq;
        let value = entry.value.clone();
        s.next_seq += 1;
        s.recency.push_back((hash, seq));
        Some(value)
    }

    /// Insert (or replace) `value` for `key`, counting `bytes` against
    /// the capacity, and evict least-recently used entries until the
    /// total fits. Values larger than the whole capacity are not cached.
    fn insert_sized(&self, key: &str, value: V, bytes: usize) {
        if bytes > self.capacity_bytes {
            return;
        }
        let hash = content_digest(key.as_bytes());
        let mut s = self.state.lock().expect("lru cache lock");
        if let Some(old) = s.entries.remove(&hash) {
            // Same key racing with itself, or an fxhash collision: either
            // way the newcomer replaces the old value.
            s.total_bytes -= old.bytes;
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        s.total_bytes += bytes;
        s.entries.insert(
            hash,
            Entry {
                key: key.to_string(),
                value,
                bytes,
                seq,
            },
        );
        s.recency.push_back((hash, seq));
        while s.total_bytes > self.capacity_bytes {
            let Some((old_hash, old_seq)) = s.recency.pop_front() else {
                break;
            };
            let evict = matches!(s.entries.get(&old_hash), Some(e) if e.seq == old_seq);
            if evict {
                let old = s.entries.remove(&old_hash).expect("checked");
                s.total_bytes -= old.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // Stale recency stamps (the entry was touched again later, or
            // was already replaced) are simply discarded.
        }
    }

    /// Counters and occupancy for `statusz`.
    pub fn stats(&self) -> ResultCacheStats {
        let s = self.state.lock().expect("lru cache lock");
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: s.entries.len(),
            bytes: s.total_bytes,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

impl ResultCache {
    /// Insert (or replace) the bytes for `key`; they count their own
    /// length against the capacity.
    pub fn insert(&self, key: &str, bytes: Arc<Vec<u8>>) {
        let len = bytes.len();
        self.insert_sized(key, bytes, len);
    }
}

/// The per-digest ingest cache: the trace-source digest → the *slim*
/// fold of that trace (events dropped, see `slim`), LRU by estimated
/// resident bytes.
///
/// Interactive requests and sweep-job cells share it, so a trace is
/// folded once however many endpoints, topologies, mappings or cells
/// read it. Misses are single-flight per digest: concurrent callers for
/// one digest wait on the first caller's ingest instead of repeating it.
pub struct IngestCache {
    lru: ByteLru<Arc<IngestResult>>,
    /// One lock per digest being ingested right now.
    flights: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl IngestCache {
    /// An empty cache bounded to about `capacity_bytes` of slim folds.
    pub fn new(capacity_bytes: usize) -> Self {
        IngestCache {
            lru: ByteLru::new(capacity_bytes),
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// The slim fold cached for `digest`, or the slim form of `ingest()`
    /// on a miss. A failed ingest is not cached; the next caller retries.
    pub fn get_or_ingest<E>(
        &self,
        digest: &str,
        ingest: impl FnOnce() -> Result<IngestResult, E>,
    ) -> Result<Arc<IngestResult>, E> {
        if let Some(hit) = self.lru.get(digest) {
            return Ok(hit);
        }
        let flight = Arc::clone(
            self.flights
                .lock()
                .expect("ingest flights lock")
                .entry(digest.to_string())
                .or_default(),
        );
        let result = {
            let _turn = flight.lock().expect("ingest flight lock");
            // A caller that held the turn before us may have finished
            // this very ingest.
            match self.lru.peek(digest) {
                Some(done) => Ok(done),
                None => ingest().map(|full| {
                    let folded = Arc::new(slim(full));
                    self.lru
                        .insert_sized(digest, Arc::clone(&folded), slim_bytes(&folded));
                    folded
                }),
            }
        };
        let mut flights = self.flights.lock().expect("ingest flights lock");
        if flights
            .get(digest)
            .is_some_and(|current| Arc::ptr_eq(current, &flight))
        {
            flights.remove(digest);
        }
        result
    }

    /// Counters and occupancy for `statusz`.
    pub fn stats(&self) -> ResultCacheStats {
        self.lru.stats()
    }
}

/// Drop a fold's events — nearly all of its memory — keeping the trace
/// header, communicators, both matrices and the stats, which is all the
/// non-windowed payloads read. One event survives when the trace has a
/// collective off the global communicators, so the slim trace answers
/// `uses_only_global_communicators` (the stats payload's `global_only`)
/// exactly as the full trace does.
fn slim(mut ingest: IngestResult) -> IngestResult {
    let witness = ingest.trace.first_non_global_collective();
    let mut events = std::mem::take(&mut ingest.trace.events);
    if let Some(i) = witness {
        ingest.trace.events.push(events.swap_remove(i));
    }
    ingest
}

/// Estimated resident bytes of a slim fold: each matrix pair lives in a
/// hash map (counted twice for its load-factor slack) and in the sorted
/// view a replay builds, plus the communicator member lists.
fn slim_bytes(ingest: &IngestResult) -> usize {
    let pair = std::mem::size_of::<((u32, u32), PairTraffic)>();
    let pairs = ingest.matrix.num_pairs() + ingest.p2p.num_pairs();
    let members: usize = ingest.trace.comms.iter().map(|c| c.size()).sum();
    std::mem::size_of::<IngestResult>()
        + pairs * 3 * pair
        + members * std::mem::size_of::<u32>()
        + ingest.trace.app.len()
}

/// Which layer satisfied a [`tiered_get`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The in-memory LRU had the bytes.
    Memory,
    /// The persistent store had a verified entry; memory was refilled.
    Disk,
}

/// Read-through lookup: in-memory LRU first, then the persistent store.
/// A disk hit refills the memory layer so the next lookup is fast. The
/// store verifies digests internally, so whatever comes back is exactly
/// what was written.
pub fn tiered_get(
    memory: &ResultCache,
    disk: Option<&DiskStore>,
    kind: Kind,
    key: &str,
) -> Option<(Arc<Vec<u8>>, CacheTier)> {
    if let Some(bytes) = memory.get(key) {
        return Some((bytes, CacheTier::Memory));
    }
    let store = disk?;
    let bytes = Arc::new(store.get(kind, key)?);
    memory.insert(key, Arc::clone(&bytes));
    Some((bytes, CacheTier::Disk))
}

/// Write-behind insert: the memory layer takes the bytes immediately,
/// and the persistent store queues them for its background writer.
pub fn tiered_insert(
    memory: &ResultCache,
    disk: Option<&DiskStore>,
    kind: Kind,
    key: &str,
    bytes: &Arc<Vec<u8>>,
) {
    memory.insert(key, Arc::clone(bytes));
    if let Some(store) = disk {
        store.put(kind, key, bytes);
    }
}

/// A `statusz` snapshot of one [`ByteLru`] (result cache, trace
/// registry, or ingest cache).
#[derive(Debug, Clone, Serialize)]
pub struct ResultCacheStats {
    /// Lookups that returned a cached value.
    pub hits: u64,
    /// Lookups that found nothing (or a colliding key).
    pub misses: u64,
    /// Entries evicted to stay under the byte capacity.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Bytes currently cached.
    pub bytes: usize,
    /// Configured byte capacity.
    pub capacity_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netloc_topology::{HyperX, Torus3D};

    #[test]
    fn topo_cache_builds_once_across_threads() {
        let cache = Arc::new(TopoCache::default());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let topo = HyperX::new(vec![3, 3], 3);
                    cache
                        .routes("hyperx:3x3,3", &topo)
                        .expect("a 27-node HyperX is planned compressed")
                })
            })
            .collect();
        let tables: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(cache.tables_built(), 1, "single-flight build");
        assert_eq!(cache.specs_cached(), 1);
        for t in &tables[1..] {
            assert!(Arc::ptr_eq(&tables[0], t), "all callers share one table");
        }
    }

    #[test]
    fn topo_cache_declines_oversized_machines() {
        let cache = TopoCache::default();
        // 44³ = 85 184 nodes and no router symmetry: routed directly.
        let big = Torus3D::new([44, 44, 44]);
        assert!(cache.routes("torus:44,44,44", &big).is_none());
        // 9 000 routers → 8.1e7 router pairs, past the compressed limit.
        let wide = netloc_topology::Jellyfish::new(9_000, 4, 1, 1);
        assert!(cache.routes("jellyfish:9000,4,1,1", &wide).is_none());
        assert_eq!(cache.tables_built(), 0);
    }

    #[test]
    fn result_cache_hit_miss_and_byte_identity() {
        let cache = ResultCache::new(1024);
        assert!(cache.get("k1").is_none());
        cache.insert("k1", Arc::new(b"body-1".to_vec()));
        assert_eq!(cache.get("k1").unwrap().as_slice(), b"body-1");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn result_cache_evicts_lru_by_bytes() {
        let cache = ResultCache::new(100);
        cache.insert("a", Arc::new(vec![0u8; 40]));
        cache.insert("b", Arc::new(vec![0u8; 40]));
        // Touch "a" so "b" is the least recently used…
        assert!(cache.get("a").is_some());
        // …then overflow: "b" must go, "a" must stay.
        cache.insert("c", Arc::new(vec![0u8; 40]));
        assert!(cache.get("a").is_some(), "recently used entry evicted");
        assert!(cache.get("b").is_none(), "LRU entry kept");
        assert!(cache.get("c").is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 100);
    }

    #[test]
    fn result_cache_skips_bodies_larger_than_capacity() {
        let cache = ResultCache::new(10);
        cache.insert("huge", Arc::new(vec![0u8; 11]));
        assert!(cache.get("huge").is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn result_cache_replaces_on_reinsert() {
        let cache = ResultCache::new(1024);
        cache.insert("k", Arc::new(b"old".to_vec()));
        cache.insert("k", Arc::new(b"new".to_vec()));
        assert_eq!(cache.get("k").unwrap().as_slice(), b"new");
        assert_eq!(cache.stats().entries, 1);
    }

    fn sample_ingest(app: &str, sub_comm: bool) -> IngestResult {
        use netloc_mpi::{CollectiveOp, Payload, Rank, TraceBuilder};
        let mut b = TraceBuilder::new(app, 8).exec_time_s(1.0);
        for r in 0..8u32 {
            b.send(Rank(r), Rank((r + 3) % 8), 1024, 2);
        }
        if sub_comm {
            let pair = b.register_comm(vec![Rank(1), Rank(0)]);
            b.collective_on(CollectiveOp::Bcast, pair, Some(0), Payload::Uniform(64), 1);
        }
        b.collective(CollectiveOp::Allreduce, None, Payload::Uniform(64), 1);
        netloc_core::ingest_trace(b.build())
    }

    #[test]
    fn ingest_cache_is_single_flight_per_digest() {
        const CALLERS: u64 = 8;
        let cache = Arc::new(IngestCache::new(1 << 20));
        let (folds, arrived) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let (cache, folds, arrived) =
                    (Arc::clone(&cache), Arc::clone(&folds), Arc::clone(&arrived));
                std::thread::spawn(move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    cache
                        .get_or_ingest("d", || {
                            folds.fetch_add(1, Ordering::SeqCst);
                            // Keep the flight open until every caller has
                            // asked for the digest.
                            while arrived.load(Ordering::SeqCst) < CALLERS {
                                std::thread::yield_now();
                            }
                            Ok::<_, ()>(sample_ingest("one", false))
                        })
                        .unwrap()
                })
            })
            .collect();
        let got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            folds.load(Ordering::SeqCst),
            1,
            "one fold for eight callers"
        );
        assert!(got.iter().all(|g| Arc::ptr_eq(g, &got[0])));
        assert!(got[0].trace.events.is_empty(), "cached folds are slim");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn ingest_cache_retries_failures_and_evicts_by_bytes() {
        let one = sample_ingest("one", false);
        let cap = slim_bytes(&slim(one.clone())) + 8;
        let cache = IngestCache::new(cap);
        assert_eq!(cache.get_or_ingest("a", || Err("bad")).unwrap_err(), "bad");
        assert_eq!(cache.stats().entries, 0, "failures are not cached");
        cache.get_or_ingest("a", || Ok::<_, ()>(one)).unwrap();
        cache
            .get_or_ingest("b", || Ok::<_, ()>(sample_ingest("two", false)))
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (1, 1));
        assert!(s.bytes <= s.capacity_bytes);
        let again = cache
            .get_or_ingest("b", || Err("must hit"))
            .expect("the newest entry stays");
        assert_eq!(again.trace.app, "two");
    }

    #[test]
    fn slim_folds_keep_what_the_payloads_read() {
        for sub_comm in [false, true] {
            let full = sample_ingest("x", sub_comm);
            let thin = slim(full.clone());
            assert!(thin.trace.events.len() <= 1);
            assert_eq!(
                thin.trace.uses_only_global_communicators(),
                full.trace.uses_only_global_communicators()
            );
            assert_eq!(full.trace.uses_only_global_communicators(), !sub_comm);
            assert_eq!(thin.trace.comms.len(), full.trace.comms.len());
            assert_eq!(thin.matrix.sorted_pairs(), full.matrix.sorted_pairs());
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "netloc-cache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn tiered_get_reads_through_disk_and_refills_memory() {
        let dir = tmpdir("tiered");
        let store = DiskStore::open(&dir).unwrap();
        let warm = ResultCache::new(1024);
        let body = Arc::new(b"response bytes".to_vec());
        tiered_insert(&warm, Some(&store), Kind::Result, "k", &body);
        store.flush();

        // A fresh memory layer (post-restart) misses in memory, hits disk,
        // and refills itself.
        let cold = ResultCache::new(1024);
        let (bytes, tier) = tiered_get(&cold, Some(&store), Kind::Result, "k").unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(bytes.as_slice(), b"response bytes");
        let (_, tier2) = tiered_get(&cold, Some(&store), Kind::Result, "k").unwrap();
        assert_eq!(tier2, CacheTier::Memory, "disk hit refilled memory");
        assert!(tiered_get(&cold, Some(&store), Kind::Result, "absent").is_none());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topo_cache_restores_tables_from_disk_instead_of_rebuilding() {
        let dir = tmpdir("topo");
        let topo = HyperX::new(vec![3, 4], 2);
        let built = {
            let store = DiskStore::open(&dir).unwrap();
            let cache = TopoCache::with_store(Some(Arc::clone(&store)));
            let t = cache.routes("hyperx:3x4,2", &topo).unwrap();
            assert_eq!(cache.tables_built(), 1);
            assert_eq!(cache.tables_from_disk(), 0);
            store.flush();
            t
        };
        // "Restart": fresh cache over the same store.
        let store = DiskStore::open(&dir).unwrap();
        let cache = TopoCache::with_store(Some(Arc::clone(&store)));
        let restored = cache.routes("hyperx:3x4,2", &topo).unwrap();
        assert_eq!(cache.tables_built(), 0, "no rebuild after restart");
        assert_eq!(cache.tables_from_disk(), 1);
        assert_eq!(
            restored.to_bytes(),
            built.to_bytes(),
            "byte-identical table"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topo_cache_serves_compressed_routes() {
        use netloc_topology::{NodeId, SlimFly};
        // 2·13²·7 = 2366 nodes on 338 routers: router-symmetric, so the
        // cache plans a compressed table.
        let topo = SlimFly::new(13, 7);
        let cache = TopoCache::default();
        let routes = cache.routes("slimfly:13,7", &topo).unwrap();
        assert_eq!(routes.num_routers(), 338);
        assert_eq!(cache.tables_built(), 1);
        // The cached storage routes identically to the topology itself.
        let routed = netloc_topology::RoutedTopology::with_compressed(&topo, routes);
        let mut scratch = Vec::new();
        for (s, d) in [(0u32, 1u32), (0, 2365), (1234, 17)] {
            assert_eq!(
                routed.route_of(NodeId(s), NodeId(d), &mut scratch),
                topo.route(NodeId(s), NodeId(d)).as_slice()
            );
        }
    }

    #[test]
    fn topo_cache_restores_compressed_tables_from_disk() {
        use netloc_topology::SlimFly;
        let dir = tmpdir("compressed");
        let topo = SlimFly::new(13, 7);
        let built = {
            let store = DiskStore::open(&dir).unwrap();
            let cache = TopoCache::with_store(Some(Arc::clone(&store)));
            let r = cache.routes("slimfly:13,7", &topo).unwrap();
            assert_eq!(cache.tables_built(), 1);
            store.flush();
            r
        };
        let store = DiskStore::open(&dir).unwrap();
        let cache = TopoCache::with_store(Some(Arc::clone(&store)));
        let restored = cache.routes("slimfly:13,7", &topo).unwrap();
        assert_eq!(cache.tables_built(), 0, "no rebuild after restart");
        assert_eq!(cache.tables_from_disk(), 1);
        assert_eq!(
            restored.to_bytes(),
            built.to_bytes(),
            "byte-identical compressed table"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topo_cache_rebuilds_tables_that_do_not_fit_their_spec() {
        use netloc_topology::{NodeId, SlimFly};
        let dir = tmpdir("mismatch");
        // Under slimfly:13,7 lies a well-formed table in the flat format
        // older servers persisted: `[n u64][offsets: (n²+1) × u32][links ×
        // u32]`. Under hyperx:3x3,3 lies a compressed table of another
        // machine size.
        let small = SlimFly::new(5, 2);
        let n = small.num_nodes();
        let (mut offsets, mut links) = (vec![0u32], Vec::new());
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                links.extend(small.route(NodeId(s), NodeId(d)).iter().map(|l| l.0));
                offsets.push(links.len() as u32);
            }
        }
        let mut flat = (n as u64).to_le_bytes().to_vec();
        for word in offsets.iter().chain(&links) {
            flat.extend_from_slice(&word.to_le_bytes());
        }
        let resized = CompressedRouteTable::build(&HyperX::new(vec![3, 3], 2)).to_bytes();
        let cases: [(&str, Box<dyn Topology>, &[u8]); 2] = [
            ("slimfly:13,7", Box::new(SlimFly::new(13, 7)), &flat),
            (
                "hyperx:3x3,3",
                Box::new(HyperX::new(vec![3, 3], 3)),
                &resized,
            ),
        ];
        {
            let store = DiskStore::open(&dir).unwrap();
            for (spec, _, blob) in &cases {
                store.put(Kind::Table, spec, blob);
            }
            store.flush();
        }
        for (spec, topo, blob) in &cases {
            let store = DiskStore::open(&dir).unwrap();
            let cache = TopoCache::with_store(Some(Arc::clone(&store)));
            let routes = cache.routes(spec, topo.as_ref()).unwrap();
            assert_eq!(cache.tables_built(), 1, "{spec}: rebuilt");
            assert_eq!(cache.tables_from_disk(), 0, "{spec}: blob rejected");
            assert_eq!(routes.num_nodes(), topo.num_nodes());
            store.flush();
            // The rebuilt table replaced the bad entry.
            let stored = store.get(Kind::Table, spec).unwrap();
            assert_ne!(&stored[..], *blob, "{spec}");
            assert_eq!(stored, routes.to_bytes(), "{spec}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
