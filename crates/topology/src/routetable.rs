//! Precomputed CSR route tables — the topology-side half of the two-level
//! replay engine.
//!
//! The paper's results grid is a large *static* sweep: every application
//! trace is replayed through 3 topologies × 3 mappings × several machine
//! sizes (§4.2, Tables 4–6). The routes of a fixed topology never change
//! between those replays, and a replay visits each distinct node pair
//! once. How routes are stored is therefore purely a performance choice,
//! and [`plan_storage`] makes it from the topology's symmetry alone:
//!
//! * Router-symmetric topologies (fat tree, dragonfly, Slim Fly, HyperX,
//!   Jellyfish — anything reporting [`SymmetryHint::RouterSymmetric`])
//!   get a [`CompressedRouteTable`]. It stores one route *core* per router
//!   pair instead of one route per node pair and expands the two terminal
//!   hops on the fly, cutting memory by ~`p²` (nodes-per-router squared)
//!   while replaying byte-identical routes. One routing call per router
//!   pair builds it. Past [`COMPRESSED_PAIR_LIMIT`] router pairs, the core
//!   rows are built lazily, one per *touched* source router.
//! * Every other topology (torus, N-d torus, mesh, Valiant dragonfly,
//!   tapered fat tree) routes directly. Its routes are cheap walks: for
//!   one replay, a table of them would cost the same routing work as the
//!   replay that reads it, plus the table. (Many replays of dense traffic
//!   over one shared table would read routes faster than they are walked;
//!   no such table is kept.)
//!
//! A dense [`RouteTable`] materializes every route of a topology in one
//! flat CSR that replays read back as plain slices:
//!
//! ```text
//! offsets: [0, .., o(s·n + d), o(s·n + d + 1), ..]    (n² + 1 entries, u32)
//! links:   [... route(s, d) = links[o(s·n+d) .. o(s·n+d+1)] ...]
//! ```
//!
//! It costs exactly `4·(n² + 1)` bytes of offsets plus
//! `4·Σ_{s,d} hops(s, d)` bytes of link ids — i.e. `4n²·(1 + hops̄′)`
//! where `hops̄′` is the mean route length over *all* ordered pairs. At
//! the paper's largest scales (Table 2):
//!
//! | topology            | nodes  | dense size |
//! |---------------------|--------|------------|
//! | torus 12×12×12      | 1 728  | ≈ 113 MiB  |
//! | dragonfly (8,4,4)   | 1 056  | ≈  21 MiB  |
//! | fat tree (48,3)     | 13 824 | ≈ 4.3 GiB  |
//!
//! [`RoutedTopology::auto`] never builds one; it is the explicit storage
//! behind [`RoutedTopology::dense`], which the differential oracles and
//! the layer benches use.
//!
//! Construction is parallel over source rows and deterministic: rows are
//! built in parallel chunks, each copied once into exact-size CSR arrays
//! in source order.

use crate::link::{LinkId, NodeId};
use crate::{SymmetryHint, Topology};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};

/// Ordered **router**-pair count up to which [`RoutedTopology::auto`] fully
/// precomputes a [`CompressedRouteTable`] for router-symmetric topologies.
/// 64M router pairs ≈ 8 000 routers ≈ 256 MiB of offsets plus the core
/// links. Above it, per-source-router core rows are built lazily on first
/// touch.
pub const COMPRESSED_PAIR_LIMIT: usize = 64_000_000;

/// Route storage for one machine, as [`plan_storage`] picks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoragePlan {
    /// Full [`CompressedRouteTable`].
    Compressed,
    /// Per-source-router core rows, built on first touch.
    LazyCompressed,
    /// No table: every lookup routes.
    Direct,
}

/// The storage [`RoutedTopology::auto`] builds for `topo`, from its
/// symmetry alone: router-symmetric machines get a compressed table, or
/// lazy core rows past [`COMPRESSED_PAIR_LIMIT`] router pairs; every other
/// machine routes directly. The one storage picker — callers that cache
/// tables of their own (the analysis service) plan with it too.
pub fn plan_storage<T: Topology + ?Sized>(topo: &T) -> StoragePlan {
    match nodes_per_router(topo) {
        Some(p) => {
            let routers = topo.num_nodes() / p;
            if routers.saturating_mul(routers) <= COMPRESSED_PAIR_LIMIT {
                StoragePlan::Compressed
            } else {
                StoragePlan::LazyCompressed
            }
        }
        None => StoragePlan::Direct,
    }
}

/// The route cores out of one source router `rs`, as a CSR over
/// destination routers ([`Topology::core_row_into`]) — the row
/// [`RoutedTopology::lazy_compressed`] builds on first touch.
struct CoreRow {
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl CoreRow {
    fn build<T: Topology + ?Sized>(topo: &T, p: usize, rs: usize) -> Self {
        let (offsets, links) = assemble_csr(1, topo.num_nodes() / p, |_, lens, links| {
            topo.core_row_into(p, rs, lens, links);
        });
        CoreRow { offsets, links }
    }

    /// The stored core towards router `rd`.
    #[inline]
    fn core_of(&self, rd: usize) -> &[LinkId] {
        &self.links[self.offsets[rd] as usize..self.offsets[rd + 1] as usize]
    }

    /// Length of the core towards router `rd`.
    #[inline]
    fn core_len(&self, rd: usize) -> u32 {
        self.offsets[rd + 1] - self.offsets[rd]
    }
}

/// Dense all-pairs CSR route table of one topology.
///
/// See the module docs for the layout and the memory bound. Routes are
/// byte-identical to what [`Topology::route_into`] produces — the
/// `netloc-testkit` route-table oracle asserts exactly that over the
/// whole verification corpus.
#[derive(Debug, Clone)]
pub struct RouteTable {
    n: usize,
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl RouteTable {
    /// Precompute every route of `topo`, in parallel over source nodes.
    ///
    /// # Panics
    /// Panics if the table would hold more than `u32::MAX` link ids.
    pub fn build<T: Topology + ?Sized>(topo: &T) -> Self {
        let n = topo.num_nodes();
        let (offsets, links) = assemble_csr(n, n, |s, lens, links| {
            for d in 0..n {
                let start = links.len();
                topo.route_into(NodeId(s as u32), NodeId(d as u32), links);
                lens.push((links.len() - start) as u32);
            }
        });
        RouteTable { n, offsets, links }
    }

    /// Number of nodes the table covers.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The precomputed route as a link slice.
    #[inline]
    pub fn route_of(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        let i = src.idx() * self.n + dst.idx();
        &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Hop count of a pair (CSR offset difference; no route walk).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let i = src.idx() * self.n + dst.idx();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Total link ids stored (Σ hops over all ordered pairs).
    #[inline]
    pub fn total_route_links(&self) -> usize {
        self.links.len()
    }

    /// Exact heap footprint of the CSR arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.links.len() * std::mem::size_of::<LinkId>()
    }
}

/// Magic prefix of [`CompressedRouteTable::to_bytes`] blobs ("NLOC-CRT" in
/// ASCII). A blob in any other format — such as the flat all-pairs tables
/// older servers persisted, which led with their node count — fails it.
const COMPRESSED_MAGIC: u64 = u64::from_le_bytes(*b"NLOC-CRT");

/// The `nodes_per_router` of a topology's [`SymmetryHint::RouterSymmetric`]
/// hint, when it reports one that divides its node count.
fn nodes_per_router<T: Topology + ?Sized>(topo: &T) -> Option<usize> {
    match topo.symmetry_hint() {
        Some(SymmetryHint::RouterSymmetric {
            nodes_per_router: p,
        }) if p > 0 && topo.num_nodes().is_multiple_of(p) => Some(p),
        _ => None,
    }
}

/// [`nodes_per_router`] for the storages that require it.
///
/// # Panics
/// Panics if the topology reports no (usable) router symmetry.
fn router_symmetry<T: Topology + ?Sized>(topo: &T) -> usize {
    nodes_per_router(topo).unwrap_or_else(|| {
        panic!(
            "compressed route storage requires a router-symmetric topology, \
             but {} reports no usable symmetry hint",
            topo.name()
        )
    })
}

/// Assemble a `rows × cols` CSR from rows built in parallel.
/// `fill_row(r, lens, links)` pushes row `r`'s `cols` entry lengths onto
/// `lens` and their links onto `links`. Chunks of rows build into private
/// buffers; each chunk is then copied exactly once, in row order, into
/// exact-capacity `offsets`/`links` — no growth reallocations and
/// deterministic bytes.
///
/// # Panics
/// Panics if the CSR holds more than `u32::MAX` link ids.
fn assemble_csr(
    rows: usize,
    cols: usize,
    fill_row: impl Fn(usize, &mut Vec<u32>, &mut Vec<LinkId>) + Sync,
) -> (Vec<u32>, Vec<LinkId>) {
    let ids: Vec<usize> = (0..rows).collect();
    // A handful of rows per chunk keeps all workers busy without drowning
    // the in-order assembly in tiny buffers.
    let chunks = ids
        .par_chunks((rows / 64).max(1))
        .map(|rows| {
            let mut lens = Vec::with_capacity(rows.len() * cols);
            let mut links = Vec::new();
            for &r in rows {
                fill_row(r, &mut lens, &mut links);
            }
            vec![(lens, links)]
        })
        .reduce(Vec::new, |mut a, b| {
            a.extend(b);
            a
        });
    let total: u64 = chunks.iter().map(|(_, links)| links.len() as u64).sum();
    let total = u32::try_from(total).expect("CSR links fit u32");
    let mut offsets = Vec::with_capacity(rows * cols + 1);
    let mut links = Vec::with_capacity(total as usize);
    let mut end = 0u32;
    offsets.push(end);
    for (chunk_lens, chunk_links) in chunks {
        for len in chunk_lens {
            end += len;
            offsets.push(end);
        }
        links.extend_from_slice(&chunk_links);
    }
    debug_assert_eq!(offsets.len(), rows * cols + 1);
    debug_assert_eq!(end, total);
    (offsets, links)
}

/// The route of a node pair around its router-pair core, expanded into
/// `scratch` (cleared first): `[src] ++ core(rs, rd) ++ [dst]`, with no
/// core between two nodes of one router and an empty route on the
/// diagonal. `core` is only asked for distinct routers.
#[inline]
fn expand_route<'s, 'c>(
    src: NodeId,
    dst: NodeId,
    nodes_per_router: usize,
    scratch: &'s mut Vec<LinkId>,
    core: impl FnOnce(usize, usize) -> &'c [LinkId],
) -> &'s [LinkId] {
    scratch.clear();
    if src == dst {
        return scratch;
    }
    scratch.push(LinkId(src.0));
    let (rs, rd) = (src.idx() / nodes_per_router, dst.idx() / nodes_per_router);
    if rs != rd {
        scratch.extend_from_slice(core(rs, rd));
    }
    scratch.push(LinkId(dst.0));
    scratch
}

/// Hop count of the route [`expand_route`] expands: `2 + |core|`, `2`
/// within one router, `0` on the diagonal.
#[inline]
fn expand_hops(
    src: NodeId,
    dst: NodeId,
    nodes_per_router: usize,
    core_len: impl FnOnce(usize, usize) -> u32,
) -> u32 {
    if src == dst {
        return 0;
    }
    let (rs, rd) = (src.idx() / nodes_per_router, dst.idx() / nodes_per_router);
    if rs == rd {
        return 2;
    }
    2 + core_len(rs, rd)
}

/// Compressed hierarchical route table for router-symmetric topologies.
///
/// When a topology advertises [`SymmetryHint::RouterSymmetric`], every
/// route factors as
///
/// ```text
/// route(src, dst) = [terminal(src)] ++ core(src/p, dst/p) ++ [terminal(dst)]
/// ```
///
/// with terminal link ids equal to node ids. All `p²` node pairs sharing a
/// router pair ride the same core, so this table stores one CSR over the
/// `R²` *router* pairs and expands the two terminal hops on the fly into
/// the caller's scratch buffer — `~p²` smaller than the flat projection
/// while replaying byte-identical routes (asserted by the testkit
/// oracles). A 101k-node Slim Fly (`q = 53`, `p = 18`) costs ~150 MiB
/// compressed versus ~42 GiB flat.
#[derive(Debug, Clone)]
pub struct CompressedRouteTable {
    nodes: usize,
    nodes_per_router: usize,
    routers: usize,
    /// `R² + 1` entries; `core(rs, rd) = links[offsets[rs·R + rd] ..
    /// offsets[rs·R + rd + 1]]`.
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl CompressedRouteTable {
    /// Precompute every route core of `topo`, in parallel over source
    /// routers, one [`Topology::core_row_into`] row each.
    ///
    /// # Panics
    /// Panics if the topology reports no usable
    /// [`SymmetryHint::RouterSymmetric`] hint, if a route violates the
    /// hint's factorization, or if the core CSR overflows `u32` ids.
    pub fn build<T: Topology + ?Sized>(topo: &T) -> Self {
        let p = router_symmetry(topo);
        let nodes = topo.num_nodes();
        let routers = nodes / p;
        let (offsets, links) = assemble_csr(routers, routers, |rs, lens, links| {
            topo.core_row_into(p, rs, lens, links);
        });
        CompressedRouteTable {
            nodes,
            nodes_per_router: p,
            routers,
            offsets,
            links,
        }
    }

    /// Length of the stored core of a router pair.
    #[inline]
    fn core_len(&self, rs: usize, rd: usize) -> u32 {
        let i = rs * self.routers + rd;
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Number of nodes the table covers.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Nodes attached to each router.
    #[inline]
    pub fn nodes_per_router(&self) -> usize {
        self.nodes_per_router
    }

    /// Number of routers (`nodes / nodes_per_router`).
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.routers
    }

    /// The stored router-to-router core of a router pair (empty when
    /// `rs == rd`).
    #[inline]
    pub fn core_of(&self, rs: usize, rd: usize) -> &[LinkId] {
        let i = rs * self.routers + rd;
        &self.links[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Expand the route of a node pair into `scratch` (cleared first) and
    /// return it as a slice: terminal, stored core, terminal.
    #[inline]
    pub fn route_of<'s>(
        &self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut Vec<LinkId>,
    ) -> &'s [LinkId] {
        expand_route(src, dst, self.nodes_per_router, scratch, |rs, rd| {
            self.core_of(rs, rd)
        })
    }

    /// Hop count of a node pair (two terminals plus the core's CSR offset
    /// difference; no route expansion).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        expand_hops(src, dst, self.nodes_per_router, |rs, rd| {
            self.core_len(rs, rd)
        })
    }

    /// Total core link ids stored (Σ core length over ordered router pairs).
    #[inline]
    pub fn total_core_links(&self) -> usize {
        self.links.len()
    }

    /// Exact heap footprint of the compressed CSR arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.links.len() * std::mem::size_of::<LinkId>()
    }

    /// Exact size a dense flat-CSR [`RouteTable`] of the same routes would
    /// occupy: `4·(n² + 1)` offset bytes plus 4 bytes per flat link —
    /// `2·n·(n−1)` terminals and `p²` expansions of every stored core.
    /// Computed in `u128`; at the scales this table exists for, the flat
    /// projection does not fit in memory (or in a `usize` product chain).
    pub fn flat_projection_bytes(&self) -> u128 {
        let n = self.nodes as u128;
        let p = self.nodes_per_router as u128;
        let flat_links = 2 * n * (n - 1) + p * p * self.links.len() as u128;
        4 * (n * n + 1) + 4 * flat_links
    }

    /// Exact mean hop distance over all ordered distinct node pairs, from
    /// the router-pair aggregates — O(1) given the CSR, where the flat
    /// equivalent ([`crate::DistanceMatrix::mean_distance`]) needs O(n²).
    pub fn mean_node_distance(&self) -> f64 {
        let (n, p, r) = (
            self.nodes as u128,
            self.nodes_per_router as u128,
            self.routers as u128,
        );
        if n < 2 {
            return 0.0;
        }
        // Same-router pairs: 2 hops each. Cross-router pairs: 2 + core.
        let total =
            2 * r * p * (p - 1) + 2 * p * p * r * (r - 1) + p * p * self.links.len() as u128;
        total as f64 / (n * (n - 1)) as f64
    }

    /// Exact node-level diameter from the stored cores.
    pub fn node_diameter(&self) -> u32 {
        if self.nodes < 2 {
            return 0;
        }
        let max_core = self
            .offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0);
        if max_core == 0 {
            // Single router (or complete overlap): farthest pair shares it.
            return 2;
        }
        2 + max_core
    }

    /// Whether this table can serve replays on `topo`: the same node
    /// count, the topology's own `nodes_per_router`, and only link ids of
    /// `topo`. A decoded table (from disk, say) must pass this before it
    /// serves replays, which index per-link arrays by these ids.
    pub fn fits<T: Topology + ?Sized>(&self, topo: &T) -> bool {
        let num_links = topo.links().len();
        self.nodes == topo.num_nodes()
            && nodes_per_router(topo) == Some(self.nodes_per_router)
            && self.links.iter().all(|l| l.idx() < num_links)
    }

    /// Serialize as little-endian bytes:
    /// `[magic u64][nodes u64][p u64][offsets: (R²+1) × u32][links × u32]`.
    ///
    /// The encoding carries no checksum of its own — persistent callers
    /// (the analysis service's on-disk store) frame it with a verified
    /// length + digest footer and treat any [`from_bytes`] rejection as a
    /// cache miss.
    ///
    /// [`from_bytes`]: CompressedRouteTable::from_bytes
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = [
            COMPRESSED_MAGIC,
            self.nodes as u64,
            self.nodes_per_router as u64,
        ];
        let mut out = Vec::with_capacity(8 * 3 + 4 * (self.offsets.len() + self.links.len()));
        for w in header {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &l in &self.links {
            out.extend_from_slice(&l.0.to_le_bytes());
        }
        out
    }

    /// Decode a table serialized by
    /// [`to_bytes`](CompressedRouteTable::to_bytes), validating the magic
    /// and every structural invariant: the geometry must divide evenly,
    /// the input must hold at least the `R² + 1` offsets and a whole
    /// number of words, and offsets must start at zero, be monotone, and
    /// end at the number of link ids stored. Any violation — truncation,
    /// bit flips that survive the caller's checksum, a blob in another
    /// format — is a clean `Err`, never a panic and never an oversized
    /// allocation (capacity is derived from the *actual* input length, not
    /// from decoded counts).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 24 {
            return Err(format!(
                "route table blob truncated at {} bytes",
                bytes.len()
            ));
        }
        let (header, rest) = bytes.split_at(24);
        let header_word =
            |i: usize| u64::from_le_bytes(header[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        if header_word(0) != COMPRESSED_MAGIC {
            return Err("not a compressed route table (magic mismatch)".into());
        }
        let count = |i: usize| {
            let w = header_word(i);
            usize::try_from(w).map_err(|_| format!("header word {w} overflows usize"))
        };
        let (nodes, p) = (count(1)?, count(2)?);
        if p == 0 || nodes == 0 || !nodes.is_multiple_of(p) {
            return Err(format!(
                "invalid geometry: {nodes} nodes across routers of {p}"
            ));
        }
        let routers = nodes / p;
        let pairs = routers
            .checked_mul(routers)
            .and_then(|pairs| pairs.checked_add(1))
            .filter(|pairs| pairs.checked_mul(4).is_some())
            .ok_or_else(|| format!("{routers} routers overflow the pair space"))?;
        if rest.len() < pairs * 4 || !rest.len().is_multiple_of(4) {
            return Err(format!(
                "route table blob holds {} bytes after the header; {routers}² pairs need at least {} and a multiple of 4",
                rest.len(),
                pairs * 4
            ));
        }
        let (offset_bytes, link_bytes) = rest.split_at(pairs * 4);
        let word = |b: &[u8], i: usize| u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().unwrap());
        let mut offsets = Vec::with_capacity(pairs);
        let mut prev = 0u32;
        for i in 0..pairs {
            let o = word(offset_bytes, i);
            if i == 0 && o != 0 {
                return Err(format!("first offset is {o}, not 0"));
            }
            if o < prev {
                return Err(format!("offsets not monotone at pair {i}: {o} < {prev}"));
            }
            offsets.push(o);
            prev = o;
        }
        let num_links = link_bytes.len() / 4;
        if prev as usize != num_links {
            return Err(format!(
                "final offset {prev} does not match the {num_links} stored link ids"
            ));
        }
        let links = (0..num_links)
            .map(|i| LinkId(word(link_bytes, i)))
            .collect();
        Ok(CompressedRouteTable {
            nodes,
            nodes_per_router: p,
            routers,
            offsets,
            links,
        })
    }
}

/// Route storage of a [`RoutedTopology`].
enum Storage {
    /// A dense flat table ([`RoutedTopology::dense`]).
    Dense(RouteTable),
    /// A compressed table, possibly shared with other handles (e.g. every
    /// concurrent request of the analysis service against one topology
    /// spec reads one table).
    Compressed(Arc<CompressedRouteTable>),
    /// Per-source-*router* core rows, built on first touch (thread-safe),
    /// for router-symmetric machines past [`COMPRESSED_PAIR_LIMIT`].
    LazyCompressed {
        /// Nodes attached to each router.
        nodes_per_router: usize,
        /// One core row per source router.
        rows: Vec<OnceLock<CoreRow>>,
    },
    /// No caching: every lookup routes into the caller's scratch buffer.
    Direct,
}

/// A topology bundled with precomputed (or on-demand) routes — the handle
/// the replay engine and the mapping optimizers consume.
///
/// Every storage answers [`route_of`](RoutedTopology::route_of) and
/// [`hops`](RoutedTopology::hops) with identical values; they only trade
/// memory for lookup cost:
///
/// * [`compressed`](RoutedTopology::compressed) — one
///   [`CompressedRouteTable`] over router pairs, built up front or shared
///   with other handles ([`with_compressed`](RoutedTopology::with_compressed));
///   terminal hops are expanded into the caller's scratch. What `auto`
///   picks for router-symmetric machines.
/// * [`lazy_compressed`](RoutedTopology::lazy_compressed) — one core row
///   per *touched source router*, for symmetric machines past
///   [`COMPRESSED_PAIR_LIMIT`].
/// * [`direct`](RoutedTopology::direct) — no caching; lookups route into
///   a caller-provided scratch buffer. What `auto` picks for every other
///   machine.
/// * [`dense`](RoutedTopology::dense) — one [`RouteTable`], O(1) slice
///   lookups, `O(n²·hops̄)` memory. Never picked by `auto`; oracles and
///   benches ask for it.
///
/// [`auto`](RoutedTopology::auto) picks one with [`plan_storage`].
pub struct RoutedTopology<'a> {
    topo: &'a dyn Topology,
    storage: Storage,
}

impl<'a> RoutedTopology<'a> {
    /// Precompute the full dense table up front.
    pub fn dense(topo: &'a dyn Topology) -> Self {
        RoutedTopology {
            storage: Storage::Dense(RouteTable::build(topo)),
            topo,
        }
    }

    /// Precompute the full compressed router-pair core table up front.
    ///
    /// # Panics
    /// Panics if the topology reports no usable
    /// [`SymmetryHint::RouterSymmetric`] hint.
    pub fn compressed(topo: &'a dyn Topology) -> Self {
        Self::with_compressed(topo, Arc::new(CompressedRouteTable::build(topo)))
    }

    /// Wrap an already-built compressed table. Many handles (one per
    /// concurrent request, say) can replay over clones of one `Arc`
    /// without copying its CSR arrays.
    ///
    /// # Panics
    /// Panics if the table's node count does not match the topology's.
    pub fn with_compressed(topo: &'a dyn Topology, table: Arc<CompressedRouteTable>) -> Self {
        assert_eq!(
            table.num_nodes(),
            topo.num_nodes(),
            "route table built for a different machine size"
        );
        RoutedTopology {
            storage: Storage::Compressed(table),
            topo,
        }
    }

    /// Build per-source-router core rows lazily, on first touch of each
    /// source router.
    ///
    /// # Panics
    /// Panics if the topology reports no usable
    /// [`SymmetryHint::RouterSymmetric`] hint.
    pub fn lazy_compressed(topo: &'a dyn Topology) -> Self {
        let p = router_symmetry(topo);
        let rows = (0..topo.num_nodes() / p).map(|_| OnceLock::new()).collect();
        RoutedTopology {
            storage: Storage::LazyCompressed {
                nodes_per_router: p,
                rows,
            },
            topo,
        }
    }

    /// No precomputation: lookups route into the caller's scratch buffer.
    pub fn direct(topo: &'a dyn Topology) -> Self {
        RoutedTopology {
            storage: Storage::Direct,
            topo,
        }
    }

    /// Pick storage with [`plan_storage`], from the topology's symmetry
    /// alone: a compressed table for router-symmetric machines (lazy core
    /// rows past [`COMPRESSED_PAIR_LIMIT`] router pairs), direct routing
    /// for every other machine.
    pub fn auto(topo: &'a dyn Topology) -> Self {
        match plan_storage(topo) {
            StoragePlan::Compressed => Self::compressed(topo),
            StoragePlan::LazyCompressed => Self::lazy_compressed(topo),
            StoragePlan::Direct => Self::direct(topo),
        }
    }

    /// The wrapped topology.
    #[inline]
    pub fn topology(&self) -> &'a dyn Topology {
        self.topo
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// The dense table, when this handle holds one.
    pub fn table(&self) -> Option<&RouteTable> {
        match &self.storage {
            Storage::Dense(t) => Some(t),
            _ => None,
        }
    }

    /// The compressed table, when this handle holds (or shares) one.
    pub fn compressed_table(&self) -> Option<&CompressedRouteTable> {
        match &self.storage {
            Storage::Compressed(t) => Some(t),
            _ => None,
        }
    }

    /// Whether lookups are served from precomputed CSR storage.
    pub fn is_precomputed(&self) -> bool {
        !matches!(self.storage, Storage::Direct)
    }

    /// The route of a pair. Dense mode returns a slice into CSR storage
    /// and leaves `scratch` untouched; the compressed modes and direct
    /// mode clear and fill `scratch` (compressed expands the two terminal
    /// hops around the stored core). Callers in tight loops reuse one
    /// scratch buffer and never allocate per pair.
    #[inline]
    pub fn route_of<'s>(
        &'s self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut Vec<LinkId>,
    ) -> &'s [LinkId] {
        match &self.storage {
            Storage::Dense(table) => table.route_of(src, dst),
            Storage::Compressed(table) => table.route_of(src, dst, scratch),
            Storage::LazyCompressed {
                nodes_per_router: p,
                rows,
            } => expand_route(src, dst, *p, scratch, |rs, rd| {
                rows[rs]
                    .get_or_init(|| CoreRow::build(self.topo, *p, rs))
                    .core_of(rd)
            }),
            Storage::Direct => {
                scratch.clear();
                self.topo.route_into(src, dst, scratch);
                scratch
            }
        }
    }

    /// Hop count of a pair. Dense and compressed modes read it off CSR
    /// offsets; direct mode defers to [`Topology::hops`] (closed-form on
    /// most topologies).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        match &self.storage {
            Storage::Dense(table) => table.hops(src, dst),
            Storage::Compressed(table) => table.hops(src, dst),
            Storage::LazyCompressed {
                nodes_per_router: p,
                rows,
            } => expand_hops(src, dst, *p, |rs, rd| {
                rows[rs]
                    .get_or_init(|| CoreRow::build(self.topo, *p, rs))
                    .core_len(rd)
            }),
            Storage::Direct => self.topo.hops(src, dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dragonfly, FatTree, Torus3D};

    fn all_topos() -> Vec<Box<dyn Topology>> {
        vec![
            Box::new(Torus3D::new([3, 3, 2])),
            Box::new(FatTree::new(8, 2)),
            Box::new(Dragonfly::new(4, 2, 2)),
        ]
    }

    #[test]
    fn dense_table_matches_route_into_everywhere() {
        for topo in all_topos() {
            let table = RouteTable::build(topo.as_ref());
            let n = topo.num_nodes();
            let mut buf = Vec::new();
            for s in 0..n {
                for d in 0..n {
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    buf.clear();
                    topo.route_into(s, d, &mut buf);
                    assert_eq!(table.route_of(s, d), &buf[..], "{}: {s}->{d}", topo.name());
                    assert_eq!(table.hops(s, d), buf.len() as u32);
                }
            }
            assert_eq!(table.num_nodes(), n);
        }
    }

    #[test]
    fn auto_and_direct_agree_with_dense() {
        for topo in all_topos() {
            let dense = RoutedTopology::dense(topo.as_ref());
            let auto = RoutedTopology::auto(topo.as_ref());
            let direct = RoutedTopology::direct(topo.as_ref());
            let n = topo.num_nodes();
            let (mut b1, mut b2, mut b3) = (Vec::new(), Vec::new(), Vec::new());
            for s in (0..n).step_by(3) {
                for d in (0..n).rev().step_by(2) {
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let r = dense.route_of(s, d, &mut b1).to_vec();
                    assert_eq!(auto.route_of(s, d, &mut b2), &r[..]);
                    assert_eq!(direct.route_of(s, d, &mut b3), &r[..]);
                    assert_eq!(dense.hops(s, d), r.len() as u32);
                    assert_eq!(auto.hops(s, d), r.len() as u32);
                    assert_eq!(direct.hops(s, d), r.len() as u32);
                }
            }
        }
    }

    #[test]
    fn memory_accounting_is_exact() {
        let topo = Torus3D::new([3, 3, 3]);
        let table = RouteTable::build(&topo);
        let n = topo.num_nodes();
        assert_eq!(
            table.memory_bytes(),
            4 * (n * n + 1) + 4 * table.total_route_links()
        );
        // Σ hops over ordered pairs of the 3×3×3 torus: mean distance is
        // (6·1 + 12·2 + 8·3)/26 per source... just cross-check the matrix.
        let expect: usize = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .map(|(s, d)| topo.hops(NodeId(s as u32), NodeId(d as u32)) as usize)
            .sum();
        assert_eq!(table.total_route_links(), expect);
    }

    #[test]
    #[should_panic(expected = "different machine size")]
    fn with_compressed_rejects_size_mismatch() {
        let a = crate::HyperX::new(vec![2, 2], 2);
        let b = crate::HyperX::new(vec![3, 3], 2);
        let table = Arc::new(CompressedRouteTable::build(&a));
        RoutedTopology::with_compressed(&b, table);
    }

    fn symmetric_topos() -> Vec<Box<dyn Topology>> {
        vec![
            Box::new(FatTree::new(6, 1)),
            Box::new(FatTree::new(8, 3)),
            Box::new(Dragonfly::new(4, 2, 2)),
            Box::new(crate::SlimFly::new(5, 2)),
            Box::new(crate::HyperX::new(vec![3, 4], 2)),
            Box::new(crate::Jellyfish::new(12, 3, 2, 7)),
        ]
    }

    #[test]
    fn compressed_and_dense_match_direct_everywhere() {
        for topo in symmetric_topos() {
            let dense = RoutedTopology::dense(topo.as_ref());
            let compressed = RoutedTopology::compressed(topo.as_ref());
            let lazy_c = RoutedTopology::lazy_compressed(topo.as_ref());
            let n = topo.num_nodes();
            let (mut b1, mut b2, mut b3) = (Vec::new(), Vec::new(), Vec::new());
            for s in 0..n {
                for d in 0..n {
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let r = topo.route(s, d);
                    for (label, routed, buf) in [
                        ("dense", &dense, &mut b1),
                        ("compressed", &compressed, &mut b2),
                        ("lazy compressed", &lazy_c, &mut b3),
                    ] {
                        assert_eq!(
                            routed.route_of(s, d, buf),
                            &r[..],
                            "{}: {label} {s}->{d}",
                            topo.name()
                        );
                        assert_eq!(routed.hops(s, d), r.len() as u32);
                    }
                }
            }
            assert!(compressed.compressed_table().is_some());
            assert!(compressed.table().is_none());
            assert!(dense.table().is_some());
        }
    }

    #[test]
    fn compressed_is_much_smaller_than_flat_projection() {
        let topo = crate::SlimFly::new(5, 4);
        let table = CompressedRouteTable::build(&topo);
        // The flat projection must agree with an actually-built flat table.
        let flat = RouteTable::build(&topo);
        assert_eq!(table.flat_projection_bytes(), flat.memory_bytes() as u128);
        let ratio = table.flat_projection_bytes() as f64 / table.memory_bytes() as f64;
        assert!(ratio >= 10.0, "compression ratio only {ratio:.1}");
    }

    #[test]
    fn compressed_distance_aggregates_are_exact() {
        for topo in symmetric_topos() {
            let table = CompressedRouteTable::build(topo.as_ref());
            let matrix = crate::DistanceMatrix::new(topo.as_ref());
            assert_eq!(table.node_diameter(), matrix.diameter(), "{}", topo.name());
            assert!(
                (table.mean_node_distance() - matrix.mean_distance()).abs() < 1e-12,
                "{}: {} vs {}",
                topo.name(),
                table.mean_node_distance(),
                matrix.mean_distance()
            );
        }
    }

    #[test]
    fn compressed_byte_codec_round_trips_exactly() {
        let topo = crate::SlimFly::new(5, 2);
        let table = CompressedRouteTable::build(&topo);
        let bytes = table.to_bytes();
        let back = CompressedRouteTable::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_nodes(), table.num_nodes());
        assert_eq!(back.nodes_per_router(), table.nodes_per_router());
        assert_eq!(back.to_bytes(), bytes, "round trip is byte-stable");
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for s in 0..topo.num_nodes() as u32 {
            for d in 0..topo.num_nodes() as u32 {
                assert_eq!(
                    back.route_of(NodeId(s), NodeId(d), &mut b1),
                    table.route_of(NodeId(s), NodeId(d), &mut b2)
                );
            }
        }
        assert!(CompressedRouteTable::from_bytes(b"garbage").is_err());
    }

    #[test]
    fn compressed_byte_codec_rejects_corruption_cleanly() {
        let table = CompressedRouteTable::build(&crate::HyperX::new(vec![2, 2], 2));
        let bytes = table.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                CompressedRouteTable::from_bytes(&bytes[..len]).is_err(),
                "len {len}"
            );
        }
        let mut huge = bytes.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(CompressedRouteTable::from_bytes(&huge).is_err());
        let mut bad_geometry = bytes.clone();
        // 7 nodes across routers of 2 does not divide evenly.
        bad_geometry[8..16].copy_from_slice(&7u64.to_le_bytes());
        assert!(CompressedRouteTable::from_bytes(&bad_geometry).is_err());
        let mut swapped = bytes.clone();
        swapped[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(CompressedRouteTable::from_bytes(&swapped).is_err());
        // The flat format older servers persisted leads with the node
        // count, not the magic.
        let mut flat = bytes.clone();
        flat[..8].copy_from_slice(&(table.num_nodes() as u64).to_le_bytes());
        assert!(CompressedRouteTable::from_bytes(&flat).is_err());
    }

    #[test]
    fn auto_picks_compressed_for_symmetric_machines() {
        // 2366 nodes, 338 routers.
        let sf = crate::SlimFly::new(13, 7);
        let routed = RoutedTopology::auto(&sf);
        assert!(routed.compressed_table().is_some());
        assert!(routed.table().is_none());
        // The compressed pick replays the same routes as direct routing.
        let direct = RoutedTopology::direct(&sf);
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for (s, d) in [(0u32, 2365u32), (17, 1200), (100, 101), (9, 9)] {
            assert_eq!(
                routed.route_of(NodeId(s), NodeId(d), &mut b1).to_vec(),
                direct.route_of(NodeId(s), NodeId(d), &mut b2).to_vec()
            );
        }
    }

    #[test]
    fn auto_stores_the_paper_fat_tree_compressed() {
        // 13 824 nodes on 576 leaf switches.
        let ft = FatTree::new(48, 3);
        assert_eq!(plan_storage(&ft), StoragePlan::Compressed);
        let routed = RoutedTopology::auto(&ft);
        let table = routed
            .compressed_table()
            .expect("fat tree is router-symmetric");
        assert_eq!(table.num_routers(), 576);
        let direct = RoutedTopology::direct(&ft);
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for (s, d) in [(0u32, 13_823u32), (5, 6), (24, 600), (700, 13_000), (9, 9)] {
            let (s, d) = (NodeId(s), NodeId(d));
            assert_eq!(
                routed.route_of(s, d, &mut b1).to_vec(),
                direct.route_of(s, d, &mut b2).to_vec()
            );
            assert_eq!(routed.hops(s, d), direct.hops(s, d));
        }
    }

    #[test]
    fn plan_storage_follows_symmetry_for_every_family() {
        use crate::TopologySpec;
        // One spec per grammar family, small and large alike: only the
        // symmetry hint (and, for symmetric machines, the router-pair
        // count) decides.
        for (spec, plan) in [
            ("torus:3,3,3", StoragePlan::Direct),
            ("torus:44,44,44", StoragePlan::Direct),
            ("torusnd:200,200,2", StoragePlan::Direct),
            ("mesh:4,4,4", StoragePlan::Direct),
            ("dragonfly-valiant:4,2,2", StoragePlan::Direct),
            ("fattree:8,3", StoragePlan::Compressed),
            ("dragonfly:4,2,2", StoragePlan::Compressed),
            ("slimfly:5,2", StoragePlan::Compressed),
            ("hyperx:3x3,3", StoragePlan::Compressed),
            ("jellyfish:12,3,2,7", StoragePlan::Compressed),
            ("jellyfish:9000,4,1,1", StoragePlan::LazyCompressed),
        ] {
            let topo = spec.parse::<TopologySpec>().unwrap().build().unwrap();
            assert_eq!(plan_storage(topo.as_ref()), plan, "{spec}");
            let routed = RoutedTopology::auto(topo.as_ref());
            assert_eq!(
                routed.compressed_table().is_some(),
                plan == StoragePlan::Compressed,
                "{spec}"
            );
            assert_eq!(
                routed.is_precomputed(),
                plan != StoragePlan::Direct,
                "{spec}"
            );
            assert!(routed.table().is_none(), "{spec}: auto never builds dense");
        }
        // The tapered fat tree has no spec grammar; it routes directly too.
        let tapered = crate::TaperedFatTree::new(48, 1, 500);
        assert_eq!(plan_storage(&tapered), StoragePlan::Direct);
    }

    #[test]
    fn auto_falls_back_to_lazy_core_rows_past_compressed_limit() {
        // 9 000 routers -> R² = 81M > COMPRESSED_PAIR_LIMIT; symmetric, so
        // the picker takes lazy per-source-router core rows.
        let jf = crate::Jellyfish::new(9_000, 4, 1, 1);
        let routed = RoutedTopology::auto(&jf);
        assert!(routed.compressed_table().is_none());
        assert!(routed.table().is_none());
        assert!(routed.is_precomputed());
        let direct = RoutedTopology::direct(&jf);
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for (s, d) in [(0u32, 8_999u32), (17, 1200), (100, 101), (9, 9)] {
            assert_eq!(
                routed.route_of(NodeId(s), NodeId(d), &mut b1).to_vec(),
                direct.route_of(NodeId(s), NodeId(d), &mut b2).to_vec()
            );
            assert_eq!(
                routed.hops(NodeId(s), NodeId(d)),
                direct.hops(NodeId(s), NodeId(d))
            );
        }
    }

    #[test]
    #[should_panic(expected = "router-symmetric")]
    fn compressed_rejects_topologies_without_symmetry() {
        let t = Torus3D::new([3, 3, 3]);
        RoutedTopology::compressed(&t);
    }

    #[test]
    fn shared_compressed_agrees_across_handles() {
        let topo = crate::SlimFly::new(5, 2);
        let table = Arc::new(CompressedRouteTable::build(&topo));
        let a = RoutedTopology::with_compressed(&topo, Arc::clone(&table));
        let b = RoutedTopology::with_compressed(&topo, Arc::clone(&table));
        let dense = RoutedTopology::dense(&topo);
        let (mut s1, mut s2, mut s3) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..topo.num_nodes() {
            for d in 0..topo.num_nodes() {
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                let r = dense.route_of(s, d, &mut s1).to_vec();
                assert_eq!(a.route_of(s, d, &mut s2), &r[..]);
                assert_eq!(b.route_of(s, d, &mut s3), &r[..]);
                assert_eq!(a.hops(s, d), r.len() as u32);
            }
        }
        assert_eq!(Arc::strong_count(&table), 3);
    }

    #[test]
    fn compressed_tables_fit_only_their_topology() {
        // 100 nodes each: Slim Fly routers hold 2, HyperX routers 4.
        let sf = crate::SlimFly::new(5, 2);
        let hx = crate::HyperX::new(vec![5, 5], 4);
        assert_eq!(sf.num_nodes(), hx.num_nodes());
        let table = CompressedRouteTable::build(&sf);
        assert!(table.fits(&sf));
        assert!(
            !CompressedRouteTable::build(&hx).fits(&sf),
            "wrong router size"
        );
        assert!(!table.fits(&crate::SlimFly::new(5, 1)), "wrong node count");

        // A well-formed blob naming a link the topology lacks decodes, but
        // does not fit.
        let mut bytes = table.to_bytes();
        let last = bytes.len() - 4;
        bytes[last..].copy_from_slice(&(sf.links().len() as u32).to_le_bytes());
        let forged = CompressedRouteTable::from_bytes(&bytes).unwrap();
        assert!(!forged.fits(&sf), "link id out of range");
    }
}
