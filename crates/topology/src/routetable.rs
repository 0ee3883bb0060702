//! Precomputed CSR route tables — the topology-side half of the two-level
//! replay engine.
//!
//! The paper's results grid is a large *static* sweep: every application
//! trace is replayed through 3 topologies × 3 mappings × several machine
//! sizes (§4.2, Tables 4–6). The routes of a fixed topology never change
//! between those replays, so recomputing them per replay (as
//! `route_into` callers in tight loops used to do) wastes the dominant
//! share of replay time. A [`RouteTable`] materializes every route of a
//! topology once, in a flat CSR layout that replays read back as plain
//! slices:
//!
//! ```text
//! offsets: [0, .., o(s·n + d), o(s·n + d + 1), ..]    (n² + 1 entries, u32)
//! links:   [... route(s, d) = links[o(s·n+d) .. o(s·n+d+1)] ...]
//! ```
//!
//! ## Memory bound
//!
//! A dense table costs exactly `4·(n² + 1)` bytes of offsets plus
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
//! Dense is therefore the default only up to [`DENSE_PAIR_LIMIT`] ordered
//! pairs ([`RoutedTopology::auto`]); beyond that the lazy per-source-row
//! mode computes one [`SourceRow`] (`4·(n + 1) + 4·Σ_d hops(s, d)` bytes)
//! per *touched* source on demand, which is exactly what a replay with far
//! fewer communicating nodes than machine nodes needs.
//!
//! Router-symmetric topologies (dragonfly, Slim Fly, HyperX, Jellyfish —
//! anything reporting [`SymmetryHint::RouterSymmetric`]) get a third
//! option: a [`CompressedRouteTable`] stores one route *core* per router
//! pair instead of one route per node pair and expands the two terminal
//! hops on the fly, cutting memory by ~`p²` (nodes-per-router squared)
//! while replaying byte-identical routes. That is what makes 100k–1M
//! endpoint machines practical; see its type-level docs for the exact
//! bound.
//!
//! Construction is parallel over source rows and deterministic. Tables of
//! router-symmetric topologies are built from their router-pair cores: the
//! `R²` cores first, then the dense offsets from the core lengths, then the
//! links filled in place, `[s] ++ core(s/p, d/p) ++ [d]` per pair — one
//! routing call per router pair instead of per node pair. Other topologies
//! route every pair; their rows are built in parallel chunks, each copied
//! once into exact-size CSR arrays in source order.

use crate::link::{LinkId, NodeId};
use crate::{SymmetryHint, Topology};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};

/// Ordered **node**-pair count up to which [`RoutedTopology::auto`] picks a
/// dense table (4M pairs ≈ a 2 000-node machine ≈ 150–200 MiB with typical
/// mean route lengths; see the module docs for the exact bound).
///
/// The full auto heuristic, in order:
/// 1. `n² ≤ DENSE_PAIR_LIMIT` → dense flat CSR (O(1) lookups, every route
///    stored verbatim; unbeatable at paper scale).
/// 2. Otherwise, if the topology advertises
///    [`SymmetryHint::RouterSymmetric`], routes dedupe to one core per
///    *router* pair: `R² ≤ `[`COMPRESSED_PAIR_LIMIT`] →
///    [`CompressedRouteTable`] (full precompute, ~`p²` smaller than flat),
///    else lazy per-source-router core rows.
/// 3. No symmetry → lazy per-source flat rows (the pre-existing fallback).
pub const DENSE_PAIR_LIMIT: usize = 4_000_000;

/// Ordered **router**-pair count up to which [`RoutedTopology::auto`] fully
/// precomputes a [`CompressedRouteTable`] for router-symmetric topologies.
/// 64M router pairs ≈ 8 000 routers ≈ 256 MiB of offsets plus the core
/// links — the same memory envelope the dense limit allows, shifted from
/// node pairs to router pairs. Above it, per-source-router core rows are
/// built lazily on first touch.
pub const COMPRESSED_PAIR_LIMIT: usize = 64_000_000;

/// Route storage for one machine, as [`plan_storage`] picks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoragePlan {
    /// Dense flat [`RouteTable`].
    Dense,
    /// Full [`CompressedRouteTable`].
    Compressed,
    /// Per-source-router core rows, built on first touch.
    LazyCompressed,
    /// Per-source flat rows, built on first touch.
    Lazy,
}

/// The storage [`RoutedTopology::auto`] builds for `topo`: the heuristic
/// documented on [`DENSE_PAIR_LIMIT`]. The one storage picker — callers
/// that cache tables of their own (the analysis service) plan with it too.
pub fn plan_storage<T: Topology + ?Sized>(topo: &T) -> StoragePlan {
    let n = topo.num_nodes();
    if n.saturating_mul(n) <= DENSE_PAIR_LIMIT {
        return StoragePlan::Dense;
    }
    match nodes_per_router(topo) {
        Some(p) if (n / p).saturating_mul(n / p) <= COMPRESSED_PAIR_LIMIT => {
            StoragePlan::Compressed
        }
        Some(_) => StoragePlan::LazyCompressed,
        None => StoragePlan::Lazy,
    }
}

/// CSR routes from one source node to every destination of a topology.
///
/// The lazy building block of the replay engine: `offsets` has `n + 1`
/// entries and `route(src, d) = links[offsets[d] .. offsets[d + 1]]`.
#[derive(Debug, Clone)]
pub struct SourceRow {
    offsets: Vec<u32>,
    links: Vec<LinkId>,
}

impl SourceRow {
    /// Materialize all routes out of `src`.
    ///
    /// # Panics
    /// Panics if the row holds more than `u32::MAX` link ids (impossible
    /// for any topology whose diameter × node count fits in 32 bits).
    pub fn build<T: Topology + ?Sized>(topo: &T, src: NodeId) -> Self {
        let n = topo.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut links = Vec::new();
        offsets.push(0);
        for d in 0..n {
            topo.route_into(src, NodeId(d as u32), &mut links);
            offsets.push(u32::try_from(links.len()).expect("row links fit u32"));
        }
        SourceRow { offsets, links }
    }

    /// The core row of source router `rs` ([`Topology::core_row_into`]):
    /// "destinations" are router ids and entries are route cores.
    fn cores<T: Topology + ?Sized>(topo: &T, p: usize, rs: usize) -> Self {
        let (offsets, links) = assemble_csr(1, topo.num_nodes() / p, |_, lens, links| {
            topo.core_row_into(p, rs, lens, links);
        });
        SourceRow { offsets, links }
    }

    /// The precomputed route to `dst` as a link slice.
    #[inline]
    pub fn route_of(&self, dst: NodeId) -> &[LinkId] {
        &self.links[self.offsets[dst.idx()] as usize..self.offsets[dst.idx() + 1] as usize]
    }

    /// Hop count to `dst` (CSR row-length difference; no route walk).
    #[inline]
    pub fn hops(&self, dst: NodeId) -> u32 {
        self.offsets[dst.idx() + 1] - self.offsets[dst.idx()]
    }

    /// Number of destinations (= nodes of the topology).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
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
    /// Router-symmetric topologies are expanded from their router-pair
    /// cores (see the module docs); the bytes are the same either way.
    ///
    /// # Panics
    /// Panics if the table would hold more than `u32::MAX` link ids; use
    /// the lazy mode of [`RoutedTopology`] for machines that large.
    pub fn build<T: Topology + ?Sized>(topo: &T) -> Self {
        if let Some(p) = nodes_per_router(topo) {
            return CompressedRouteTable::build_cores(topo, p).expand();
        }
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

    /// Serialize the table as little-endian bytes:
    /// `[n u64][offsets: (n²+1) × u32][links: offsets[n²] × u32]`.
    ///
    /// The encoding carries no checksum of its own — persistent callers
    /// (the analysis service's on-disk store) frame it with a verified
    /// length + digest footer and treat any [`from_bytes`] rejection as a
    /// cache miss.
    ///
    /// [`from_bytes`]: RouteTable::from_bytes
    pub fn to_bytes(&self) -> Vec<u8> {
        csr_to_bytes(&[self.n as u64], &self.offsets, &self.links)
    }

    /// Decode a table serialized by [`to_bytes`](RouteTable::to_bytes),
    /// validating every structural invariant: the byte length must match
    /// the declared node count exactly, offsets must start at zero, be
    /// monotone, and end at the link count. Any violation — truncation,
    /// bit flips that survive the caller's checksum, a table written by a
    /// different machine size — is a clean `Err`, never a panic and never
    /// an oversized allocation (capacity is derived from the *actual*
    /// input length, not from decoded counts).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let ([n], rest) = split_header(bytes)?;
        let (offsets, links) = csr_from_bytes(rest, n)?;
        Ok(RouteTable { n, offsets, links })
    }
}

/// Serialize CSR arrays behind their little-endian `u64` header words:
/// `[header][offsets × u32][links × u32]` — the writer of both table
/// formats.
fn csr_to_bytes(header: &[u64], offsets: &[u32], links: &[LinkId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * header.len() + 4 * (offsets.len() + links.len()));
    for &w in header {
        out.extend_from_slice(&w.to_le_bytes());
    }
    for &o in offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    for &l in links {
        out.extend_from_slice(&l.0.to_le_bytes());
    }
    out
}

/// Split the `N` little-endian `u64` header words off a table blob, as
/// `usize` counts.
fn split_header<const N: usize>(bytes: &[u8]) -> Result<([usize; N], &[u8]), String> {
    if bytes.len() < 8 * N {
        return Err(format!(
            "route table blob truncated at {} bytes",
            bytes.len()
        ));
    }
    let (header, rest) = bytes.split_at(8 * N);
    let mut words = [0; N];
    for (w, bytes) in words.iter_mut().zip(header.chunks_exact(8)) {
        let word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        *w = usize::try_from(word).map_err(|_| format!("header word {word} overflows usize"))?;
    }
    Ok((words, rest))
}

/// Decode the CSR that follows a table's header: `side² + 1` offsets, then
/// the link ids — the reader of both table formats. The input must hold
/// at least the offsets and a whole number of words; offsets must start
/// at zero, be monotone, and end at the number of link ids stored. Any
/// violation is an `Err`, and capacity comes from the input length, never
/// from a decoded count.
fn csr_from_bytes(rest: &[u8], side: usize) -> Result<(Vec<u32>, Vec<LinkId>), String> {
    let pairs = side
        .checked_mul(side)
        .and_then(|p| p.checked_add(1))
        .filter(|p| p.checked_mul(4).is_some())
        .ok_or_else(|| format!("{side} rows overflow the pair space"))?;
    if rest.len() < pairs * 4 || !rest.len().is_multiple_of(4) {
        return Err(format!(
            "route table blob holds {} bytes after the header; {side}² pairs need at least {} and a multiple of 4",
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
    Ok((offsets, links))
}

/// Magic prefix of [`CompressedRouteTable::to_bytes`] blobs ("NLOC-CRT" in
/// ASCII). Deliberately astronomical when read as a node count, so feeding
/// a compressed blob to [`RouteTable::from_bytes`] fails its pair-space
/// check instead of decoding garbage — and vice versa, flat blobs (whose
/// first word is a real node count) never match the magic.
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

/// Convert a running link count to a CSR offset.
fn csr_offset(count: u64) -> u32 {
    u32::try_from(count).expect("CSR links fit u32")
}

/// Assemble a `rows × cols` CSR from rows built in parallel.
/// `fill_row(r, lens, links)` pushes row `r`'s `cols` entry lengths onto
/// `lens` and their links onto `links`. Chunks of rows build into private
/// buffers; each chunk is then copied exactly once, in row order, into
/// exact-capacity `offsets`/`links` — no growth reallocations and
/// deterministic bytes.
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
    let total = csr_offset(chunks.iter().map(|(_, links)| links.len() as u64).sum());
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
/// while replaying byte-identical routes (asserted at build time and by
/// the testkit oracles). A 101k-node Slim Fly (`q = 53`, `p = 18`) costs
/// ~150 MiB compressed versus ~42 GiB flat.
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
        Self::build_cores(topo, router_symmetry(topo))
    }

    /// [`build`](CompressedRouteTable::build) with the hint's validated
    /// `nodes_per_router`.
    fn build_cores<T: Topology + ?Sized>(topo: &T, p: usize) -> Self {
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

    /// The dense flat table of the same routes: offsets from the core
    /// lengths (`2 + |core|` per pair, 0 on the diagonal) and `links`
    /// allocated once, then each source's offset row and link row filled
    /// in place by one task as `[s] ++ core(s/p, d/p) ++ [d]`.
    fn expand(&self) -> RouteTable {
        let (n, p, routers) = (self.nodes, self.nodes_per_router, self.routers);
        // Every source on router `rs` has the same row length: `2` per
        // destination but itself, plus `p` copies of each core in the row.
        let row_len = |rs: usize| -> u64 {
            let cores = self.offsets[(rs + 1) * routers] - self.offsets[rs * routers];
            (2 * n - 2) as u64 + p as u64 * u64::from(cores)
        };
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0u64);
        for s in 0..n {
            row_start.push(row_start[s] + row_len(s / p));
        }
        let total = csr_offset(row_start[n]);

        let mut offsets = vec![0u32; n * n + 1];
        offsets[n * n] = total;
        let mut links = vec![LinkId(0); total as usize];
        let mut rows = Vec::with_capacity(n);
        let mut rest = links.as_mut_slice();
        for (s, offset_row) in offsets[..n * n].chunks_mut(n.max(1)).enumerate() {
            let (link_row, tail) = rest.split_at_mut((row_start[s + 1] - row_start[s]) as usize);
            rows.push((offset_row, link_row));
            rest = tail;
        }
        rows.par_iter_mut()
            .enumerate()
            .for_each(|(s, (offset_row, link_row))| {
                let (rs, start) = (s / p, row_start[s] as u32);
                let mut at = 0;
                for rd in 0..routers {
                    let core = self.core_of(rs, rd);
                    for d in rd * p..(rd + 1) * p {
                        offset_row[d] = start + at as u32;
                        if d == s {
                            continue;
                        }
                        link_row[at] = LinkId(s as u32);
                        link_row[at + 1..at + 1 + core.len()].copy_from_slice(core);
                        at += core.len() + 2;
                        link_row[at - 1] = LinkId(d as u32);
                    }
                }
                debug_assert_eq!(at, link_row.len());
            });
        RouteTable { n, offsets, links }
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

    /// Serialize as little-endian bytes:
    /// `[magic u64][nodes u64][p u64][offsets: (R²+1) × u32][links × u32]`.
    ///
    /// Like [`RouteTable::to_bytes`] this carries no checksum; the service
    /// store frames it. The magic keeps flat and compressed blobs from
    /// ever decoding as each other.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = [
            COMPRESSED_MAGIC,
            self.nodes as u64,
            self.nodes_per_router as u64,
        ];
        csr_to_bytes(&header, &self.offsets, &self.links)
    }

    /// Decode a table serialized by
    /// [`to_bytes`](CompressedRouteTable::to_bytes), validating the magic
    /// and every structural invariant exactly as
    /// [`RouteTable::from_bytes`] does; any violation is a clean `Err`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let ([magic, nodes, p], rest) = split_header(bytes)?;
        if magic as u64 != COMPRESSED_MAGIC {
            return Err("not a compressed route table (magic mismatch)".into());
        }
        if p == 0 || nodes == 0 || !nodes.is_multiple_of(p) {
            return Err(format!(
                "invalid geometry: {nodes} nodes across routers of {p}"
            ));
        }
        let routers = nodes / p;
        let (offsets, links) = csr_from_bytes(rest, routers)?;
        Ok(CompressedRouteTable {
            nodes,
            nodes_per_router: p,
            routers,
            offsets,
            links,
        })
    }
}

/// A whole precomputed route table, flat or compressed — the value that
/// [`RoutedTopology::with_routes`] wraps and that route caches (the
/// analysis service's per-topology cache) share between handles and
/// persist. Cloning bumps a reference count; the CSR arrays are never
/// copied.
#[derive(Debug, Clone)]
pub enum Routes {
    /// Dense flat [`RouteTable`] ([`StoragePlan::Dense`]).
    Dense(Arc<RouteTable>),
    /// Router-pair [`CompressedRouteTable`] ([`StoragePlan::Compressed`]).
    Compressed(Arc<CompressedRouteTable>),
}

impl Routes {
    /// Build the whole table `plan` stores for `topo` (as [`plan_storage`]
    /// picks it); `None` for the lazy plans, which build rows on first
    /// touch instead.
    ///
    /// # Panics
    /// Panics on [`StoragePlan::Compressed`] for a topology without a
    /// usable [`SymmetryHint::RouterSymmetric`] hint.
    pub fn build<T: Topology + ?Sized>(topo: &T, plan: StoragePlan) -> Option<Routes> {
        match plan {
            StoragePlan::Dense => Some(Routes::Dense(Arc::new(RouteTable::build(topo)))),
            StoragePlan::Compressed => Some(Routes::Compressed(Arc::new(
                CompressedRouteTable::build(topo),
            ))),
            StoragePlan::LazyCompressed | StoragePlan::Lazy => None,
        }
    }

    /// Number of nodes the routes cover.
    pub fn num_nodes(&self) -> usize {
        match self {
            Routes::Dense(t) => t.num_nodes(),
            Routes::Compressed(t) => t.num_nodes(),
        }
    }

    /// Serialize to the table's own format; the compressed format leads
    /// with a magic, so the two never decode as each other.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Routes::Dense(t) => t.to_bytes(),
            Routes::Compressed(t) => t.to_bytes(),
        }
    }

    /// Decode either format, dispatching on the compressed magic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Routes, String> {
        if bytes.starts_with(&COMPRESSED_MAGIC.to_le_bytes()) {
            CompressedRouteTable::from_bytes(bytes).map(|t| Routes::Compressed(Arc::new(t)))
        } else {
            RouteTable::from_bytes(bytes).map(|t| Routes::Dense(Arc::new(t)))
        }
    }

    /// Whether these routes are a table `plan` can store for `topo`: the
    /// planned format, the same node count, the topology's own
    /// `nodes_per_router` for a compressed table, and only link ids of
    /// `topo`. A decoded table (from disk, say) must pass this before it
    /// serves replays, which index per-link arrays by these ids.
    pub fn fits<T: Topology + ?Sized>(&self, topo: &T, plan: StoragePlan) -> bool {
        let num_links = topo.links().len();
        let known = |links: &[LinkId]| links.iter().all(|l| l.idx() < num_links);
        self.num_nodes() == topo.num_nodes()
            && match (self, plan) {
                (Routes::Dense(t), StoragePlan::Dense) => known(&t.links),
                (Routes::Compressed(t), StoragePlan::Compressed) => {
                    nodes_per_router(topo) == Some(t.nodes_per_router) && known(&t.links)
                }
                _ => false,
            }
    }
}

/// Route storage of a [`RoutedTopology`].
enum Storage {
    /// A whole table, possibly shared with other handles (e.g. every
    /// concurrent request of the analysis service against one topology
    /// spec reads one table).
    Built(Routes),
    /// Per-source CSR rows, built on first touch (thread-safe).
    Lazy(Vec<OnceLock<SourceRow>>),
    /// Per-source-*router* core rows, built on first touch — the
    /// compressed analogue of `Lazy` for router-symmetric machines past
    /// [`COMPRESSED_PAIR_LIMIT`].
    LazyCompressed {
        /// Nodes attached to each router.
        nodes_per_router: usize,
        /// One core row per source router.
        rows: Vec<OnceLock<SourceRow>>,
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
/// * a whole [`Routes`] table, built up front or shared with other handles
///   ([`with_routes`](RoutedTopology::with_routes)):
///   * [`dense`](RoutedTopology::dense) — one [`RouteTable`], O(1) slice
///     lookups, `O(n²·hops̄)` memory. Best for sweeps at paper scale.
///   * [`compressed`](RoutedTopology::compressed) — one
///     [`CompressedRouteTable`] over router pairs, terminal hops expanded
///     into the caller's scratch. Best for router-symmetric machines past
///     the dense limit (100k–1M endpoints).
/// * [`lazy`](RoutedTopology::lazy) — one [`SourceRow`] per *touched*
///   source, built on first use. Best when the machine is much larger
///   than the communicating node set and has no router symmetry.
/// * [`lazy_compressed`](RoutedTopology::lazy_compressed) — one core row
///   per *touched source router*, for symmetric machines past even
///   [`COMPRESSED_PAIR_LIMIT`].
/// * [`direct`](RoutedTopology::direct) — no caching; lookups route into
///   a caller-provided scratch buffer. Best for one-shot replays.
///
/// [`auto`](RoutedTopology::auto) picks one with [`plan_storage`].
pub struct RoutedTopology<'a> {
    topo: &'a dyn Topology,
    storage: Storage,
}

impl<'a> RoutedTopology<'a> {
    /// Precompute the full dense table up front.
    pub fn dense(topo: &'a dyn Topology) -> Self {
        Self::with_routes(topo, Routes::Dense(Arc::new(RouteTable::build(topo))))
    }

    /// Precompute the full compressed router-pair core table up front.
    ///
    /// # Panics
    /// Panics if the topology reports no usable
    /// [`SymmetryHint::RouterSymmetric`] hint.
    pub fn compressed(topo: &'a dyn Topology) -> Self {
        Self::with_routes(
            topo,
            Routes::Compressed(Arc::new(CompressedRouteTable::build(topo))),
        )
    }

    /// Wrap an already-built table. Many handles (one per concurrent
    /// request, say) can replay over clones of one [`Routes`] without
    /// copying its CSR arrays.
    ///
    /// # Panics
    /// Panics if the table's node count does not match the topology's.
    pub fn with_routes(topo: &'a dyn Topology, routes: Routes) -> Self {
        assert_eq!(
            routes.num_nodes(),
            topo.num_nodes(),
            "route table built for a different machine size"
        );
        RoutedTopology {
            storage: Storage::Built(routes),
            topo,
        }
    }

    /// Build per-source rows lazily, on first touch of each source.
    pub fn lazy(topo: &'a dyn Topology) -> Self {
        let rows = (0..topo.num_nodes()).map(|_| OnceLock::new()).collect();
        RoutedTopology {
            storage: Storage::Lazy(rows),
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

    /// Pick storage automatically with [`plan_storage`]: dense up to
    /// [`DENSE_PAIR_LIMIT`] node pairs; above that, compressed storage
    /// when the topology advertises router symmetry (full table up to
    /// [`COMPRESSED_PAIR_LIMIT`] router pairs, lazy core rows beyond);
    /// lazy flat rows otherwise. See the constants' docs for the rationale.
    pub fn auto(topo: &'a dyn Topology) -> Self {
        let plan = plan_storage(topo);
        match Routes::build(topo, plan) {
            Some(routes) => Self::with_routes(topo, routes),
            None if plan == StoragePlan::LazyCompressed => Self::lazy_compressed(topo),
            None => Self::lazy(topo),
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

    /// The dense table, when this handle holds (or shares) one.
    pub fn table(&self) -> Option<&RouteTable> {
        match &self.storage {
            Storage::Built(Routes::Dense(t)) => Some(t),
            _ => None,
        }
    }

    /// The compressed table, when this handle holds (or shares) one.
    pub fn compressed_table(&self) -> Option<&CompressedRouteTable> {
        match &self.storage {
            Storage::Built(Routes::Compressed(t)) => Some(t),
            _ => None,
        }
    }

    /// Whether lookups are served from precomputed CSR storage.
    pub fn is_precomputed(&self) -> bool {
        !matches!(self.storage, Storage::Direct)
    }

    /// The route of a pair. Dense and lazy modes return a slice into CSR
    /// storage and leave `scratch` untouched; compressed and direct modes
    /// clear and fill `scratch` (compressed expands the two terminal hops
    /// around the stored core). Callers in tight loops reuse one scratch
    /// buffer and never allocate per pair.
    #[inline]
    pub fn route_of<'s>(
        &'s self,
        src: NodeId,
        dst: NodeId,
        scratch: &'s mut Vec<LinkId>,
    ) -> &'s [LinkId] {
        match &self.storage {
            Storage::Built(Routes::Dense(table)) => table.route_of(src, dst),
            Storage::Built(Routes::Compressed(table)) => table.route_of(src, dst, scratch),
            Storage::Lazy(rows) => rows[src.idx()]
                .get_or_init(|| SourceRow::build(self.topo, src))
                .route_of(dst),
            Storage::LazyCompressed {
                nodes_per_router: p,
                rows,
            } => expand_route(src, dst, *p, scratch, |rs, rd| {
                rows[rs]
                    .get_or_init(|| SourceRow::cores(self.topo, *p, rs))
                    .route_of(NodeId(rd as u32))
            }),
            Storage::Direct => {
                scratch.clear();
                self.topo.route_into(src, dst, scratch);
                scratch
            }
        }
    }

    /// Hop count of a pair. Dense, compressed and lazy modes read it off
    /// CSR offsets; direct mode defers to [`Topology::hops`] (closed-form
    /// on most topologies).
    #[inline]
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        match &self.storage {
            Storage::Built(Routes::Dense(table)) => table.hops(src, dst),
            Storage::Built(Routes::Compressed(table)) => table.hops(src, dst),
            Storage::Lazy(rows) => rows[src.idx()]
                .get_or_init(|| SourceRow::build(self.topo, src))
                .hops(dst),
            Storage::LazyCompressed {
                nodes_per_router: p,
                rows,
            } => expand_hops(src, dst, *p, |rs, rd| {
                rows[rs]
                    .get_or_init(|| SourceRow::cores(self.topo, *p, rs))
                    .hops(NodeId(rd as u32))
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
    fn lazy_and_direct_agree_with_dense() {
        for topo in all_topos() {
            let dense = RoutedTopology::dense(topo.as_ref());
            let lazy = RoutedTopology::lazy(topo.as_ref());
            let direct = RoutedTopology::direct(topo.as_ref());
            let n = topo.num_nodes();
            let (mut b1, mut b2, mut b3) = (Vec::new(), Vec::new(), Vec::new());
            for s in (0..n).step_by(3) {
                for d in (0..n).rev().step_by(2) {
                    let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                    let r = dense.route_of(s, d, &mut b1).to_vec();
                    assert_eq!(lazy.route_of(s, d, &mut b2), &r[..]);
                    assert_eq!(direct.route_of(s, d, &mut b3), &r[..]);
                    assert_eq!(dense.hops(s, d), r.len() as u32);
                    assert_eq!(lazy.hops(s, d), r.len() as u32);
                    assert_eq!(direct.hops(s, d), r.len() as u32);
                }
            }
        }
    }

    #[test]
    fn source_row_matches_table_row() {
        let topo = Torus3D::new([4, 3, 2]);
        let table = RouteTable::build(&topo);
        for s in 0..topo.num_nodes() {
            let row = SourceRow::build(&topo, NodeId(s as u32));
            assert_eq!(row.num_nodes(), topo.num_nodes());
            for d in 0..topo.num_nodes() {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(row.route_of(dn), table.route_of(sn, dn));
                assert_eq!(row.hops(dn), table.hops(sn, dn));
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
    fn auto_picks_dense_for_small_machines() {
        let small = Torus3D::new([4, 4, 4]);
        assert!(RoutedTopology::auto(&small).table().is_some());
        assert!(RoutedTopology::auto(&small).is_precomputed());
        assert!(!RoutedTopology::direct(&small).is_precomputed());
    }

    #[test]
    fn shared_dense_routes_agree_with_dense_across_handles() {
        let topo = Torus3D::new([3, 3, 2]);
        let table = Arc::new(RouteTable::build(&topo));
        let a = RoutedTopology::with_routes(&topo, Routes::Dense(Arc::clone(&table)));
        let b = RoutedTopology::with_routes(&topo, Routes::Dense(Arc::clone(&table)));
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
        assert!(a.is_precomputed());
        assert!(a.table().is_some());
        // Three consumers, one CSR allocation.
        assert_eq!(Arc::strong_count(&table), 3);
    }

    #[test]
    #[should_panic(expected = "different machine size")]
    fn with_routes_rejects_size_mismatch() {
        let a = Torus3D::new([2, 2, 2]);
        let b = Torus3D::new([3, 3, 3]);
        let routes = Routes::build(&a, StoragePlan::Dense).unwrap();
        RoutedTopology::with_routes(&b, routes);
    }

    #[test]
    fn byte_codec_round_trips_exactly() {
        let topo = Torus3D::new([3, 4, 2]);
        let table = RouteTable::build(&topo);
        let bytes = table.to_bytes();
        let back = RouteTable::from_bytes(&bytes).unwrap();
        assert_eq!(back.num_nodes(), table.num_nodes());
        assert_eq!(back.to_bytes(), bytes, "round trip is byte-stable");
        let n = topo.num_nodes() as u32;
        for s in 0..n {
            for d in 0..n {
                assert_eq!(
                    back.route_of(NodeId(s), NodeId(d)),
                    table.route_of(NodeId(s), NodeId(d))
                );
            }
        }
    }

    #[test]
    fn byte_codec_rejects_corruption_cleanly() {
        let table = RouteTable::build(&Torus3D::new([2, 2, 2]));
        let bytes = table.to_bytes();
        // Every truncation must fail (only the exact length decodes).
        for len in 0..bytes.len() {
            assert!(RouteTable::from_bytes(&bytes[..len]).is_err(), "len {len}");
        }
        // A node count inflated past the data must fail, not allocate.
        let mut huge = bytes.clone();
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(RouteTable::from_bytes(&huge).is_err());
        // Breaking offset monotonicity must fail.
        let mut swapped = bytes.clone();
        swapped[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(RouteTable::from_bytes(&swapped).is_err());
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
    fn compressed_and_core_expanded_dense_match_direct_everywhere() {
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
    }

    #[test]
    fn flat_and_compressed_blobs_never_cross_decode() {
        let topo = crate::HyperX::new(vec![2, 2], 2);
        let compressed = CompressedRouteTable::build(&topo).to_bytes();
        let flat = RouteTable::build(&topo).to_bytes();
        assert!(RouteTable::from_bytes(&compressed).is_err());
        assert!(CompressedRouteTable::from_bytes(&flat).is_err());
    }

    #[test]
    fn auto_prefers_compressed_above_dense_limit_when_symmetric() {
        // 2366 nodes -> n² ≈ 5.6M > DENSE_PAIR_LIMIT, but only 338 routers.
        let sf = crate::SlimFly::new(13, 7);
        assert!(sf.num_nodes() * sf.num_nodes() > DENSE_PAIR_LIMIT);
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
        // 13 824 nodes -> n² ≈ 191M > DENSE_PAIR_LIMIT; 576 leaf switches.
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
    fn plan_storage_follows_the_documented_heuristic() {
        assert_eq!(plan_storage(&Torus3D::new([4, 4, 4])), StoragePlan::Dense);
        assert_eq!(
            plan_storage(&crate::SlimFly::new(13, 7)),
            StoragePlan::Compressed
        );
        assert_eq!(
            plan_storage(&crate::Jellyfish::new(9_000, 4, 1, 1)),
            StoragePlan::LazyCompressed
        );
        assert_eq!(
            plan_storage(&crate::TorusNd::new(&[200, 200, 2])),
            StoragePlan::Lazy
        );
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
    fn auto_keeps_lazy_flat_rows_for_asymmetric_machines() {
        // A 80k-node torus is past the dense limit and has no symmetry
        // hint; auto must fall back to lazy flat rows (allocation only,
        // no routing happens here).
        let t = crate::TorusNd::new(&[200, 200, 2]);
        let routed = RoutedTopology::auto(&t);
        assert!(routed.table().is_none());
        assert!(routed.compressed_table().is_none());
        assert!(routed.is_precomputed());
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
        let a = RoutedTopology::with_routes(&topo, Routes::Compressed(Arc::clone(&table)));
        let b = RoutedTopology::with_routes(&topo, Routes::Compressed(Arc::clone(&table)));
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
    fn routes_codec_dispatches_on_variant() {
        use crate::SlimFly;
        let flat = Routes::Dense(Arc::new(RouteTable::build(&Torus3D::new([3, 3, 3]))));
        let comp = Routes::Compressed(Arc::new(CompressedRouteTable::build(&SlimFly::new(5, 2))));
        let flat2 = Routes::from_bytes(&flat.to_bytes()).unwrap();
        let comp2 = Routes::from_bytes(&comp.to_bytes()).unwrap();
        assert!(matches!(flat2, Routes::Dense(_)));
        assert!(matches!(comp2, Routes::Compressed(_)));
        assert_eq!(flat2.to_bytes(), flat.to_bytes());
        assert_eq!(comp2.to_bytes(), comp.to_bytes());
        assert!(Routes::from_bytes(b"garbage").is_err());
    }

    #[test]
    fn routes_fit_only_the_planned_table_of_their_topology() {
        let torus = Torus3D::new([3, 3, 3]);
        let dense = Routes::build(&torus, StoragePlan::Dense).unwrap();
        assert!(dense.fits(&torus, StoragePlan::Dense));
        assert!(!dense.fits(&torus, StoragePlan::Compressed), "wrong format");
        assert!(
            !dense.fits(&Torus3D::new([3, 3, 2]), StoragePlan::Dense),
            "wrong node count"
        );

        // 100 nodes each: Slim Fly routers hold 2, HyperX routers 4.
        let sf = crate::SlimFly::new(5, 2);
        let hx = crate::HyperX::new(vec![5, 5], 4);
        assert_eq!(sf.num_nodes(), hx.num_nodes());
        let comp = Routes::build(&sf, StoragePlan::Compressed).unwrap();
        assert!(comp.fits(&sf, StoragePlan::Compressed));
        assert!(!comp.fits(&sf, StoragePlan::Dense), "wrong format");
        let hx_comp = Routes::build(&hx, StoragePlan::Compressed).unwrap();
        assert!(
            !hx_comp.fits(&sf, StoragePlan::Compressed),
            "wrong router size"
        );

        // A well-formed blob naming a link the topology lacks decodes, but
        // does not fit.
        for (routes, topo, plan) in [
            (&dense, &torus as &dyn Topology, StoragePlan::Dense),
            (&comp, &sf, StoragePlan::Compressed),
        ] {
            let mut bytes = routes.to_bytes();
            let last = bytes.len() - 4;
            bytes[last..].copy_from_slice(&(topo.links().len() as u32).to_le_bytes());
            let forged = Routes::from_bytes(&bytes).unwrap();
            assert!(
                !forged.fits(topo, plan),
                "{}: link id out of range",
                topo.name()
            );
        }
    }
}
