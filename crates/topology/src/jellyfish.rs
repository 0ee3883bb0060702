//! Jellyfish topology: seeded random regular router graphs.

use crate::link::{Link, LinkClass, LinkId, NodeId};
use crate::routergraph::{RouterGraph, NO_ROUTER};
use crate::{SymmetryHint, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::OnceLock;

/// A Jellyfish network (Singla et al., NSDI 2012): routers form a random
/// `k`-regular graph and each attaches `p` nodes (node `i` on router
/// `i / p`). The graph is drawn from a ChaCha8 stream seeded with `seed`,
/// so a `(routers, degree, p, seed)` tuple always names the same network.
///
/// Construction is stub matching followed by deterministic repair: swap
/// moves eliminate self-loops and duplicate edges, then double-edge swaps
/// splice disconnected components together (each splice joins two
/// components, so at most `routers` splices run). The canonical edge list
/// is sorted before link ids are assigned.
///
/// Minimal routing walks a deterministic BFS parent tree of the source
/// router, computed on first use and cached per router — Jellyfish has no
/// algebraic structure, so this is the "compression degrades gracefully"
/// case: route storage is per-router rows rather than a closed form.
/// BFS distances in an undirected graph are symmetric, so route lengths
/// are too.
#[derive(Debug)]
pub struct Jellyfish {
    routers: usize,
    degree: usize,
    p: usize,
    seed: u64,
    num_nodes: usize,
    links: Vec<Link>,
    graph: RouterGraph,
    /// Lazily computed BFS parent tree per source router.
    bfs: Vec<OnceLock<Vec<(u32, LinkId)>>>,
}

impl Clone for Jellyfish {
    fn clone(&self) -> Self {
        Jellyfish {
            routers: self.routers,
            degree: self.degree,
            p: self.p,
            seed: self.seed,
            num_nodes: self.num_nodes,
            links: self.links.clone(),
            graph: self.graph.clone(),
            bfs: (0..self.routers).map(|_| OnceLock::new()).collect(),
        }
    }
}

/// Largest router count accepted by [`Jellyfish::new`] (BFS trees are
/// O(routers) each; the zoo caps random graphs well below vertex-id
/// limits).
const MAX_ROUTERS: usize = 1 << 20;

impl Jellyfish {
    /// Validate `(routers, degree, p)` without building: at least 3
    /// routers, `2 ≤ degree < routers` (degree 1 is a disconnected perfect
    /// matching), an even `routers·degree` stub count, and `p ≥ 1`.
    pub fn check_params(routers: usize, degree: usize, p: usize) -> Result<(), String> {
        if !(3..=MAX_ROUTERS).contains(&routers) {
            return Err(format!(
                "jellyfish needs 3..={MAX_ROUTERS} routers, got {routers}"
            ));
        }
        if degree < 2 || degree >= routers {
            return Err(format!(
                "jellyfish degree must be in 2..routers, got {degree} for {routers} routers"
            ));
        }
        if !(routers * degree).is_multiple_of(2) {
            return Err(format!(
                "jellyfish routers*degree must be even, got {routers}*{degree}"
            ));
        }
        if p == 0 {
            return Err("jellyfish needs p >= 1 nodes per router".into());
        }
        Ok(())
    }

    /// Build a Jellyfish from `(routers, degree, p, seed)`.
    ///
    /// # Panics
    /// Panics if [`Jellyfish::check_params`] rejects the parameters.
    pub fn new(routers: usize, degree: usize, p: usize, seed: u64) -> Self {
        if let Err(e) = Self::check_params(routers, degree, p) {
            panic!("{e}");
        }
        let num_nodes = routers * p;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edges = random_regular_edges(routers, degree, &mut rng);

        let mut links = Vec::with_capacity(num_nodes + edges.len());
        for i in 0..num_nodes {
            links.push(Link::new(
                i as u32,
                (num_nodes + i / p) as u32,
                LinkClass::Terminal,
            ));
        }
        let mut graph_edges = Vec::with_capacity(edges.len());
        for &(a, b) in &edges {
            let id = LinkId(links.len() as u32);
            links.push(Link::new(
                num_nodes as u32 + a,
                num_nodes as u32 + b,
                LinkClass::Jellyfish,
            ));
            graph_edges.push((a, b, id));
        }
        let graph = RouterGraph::new(routers, &graph_edges);
        debug_assert!(graph.is_connected());

        Jellyfish {
            routers,
            degree,
            p,
            seed,
            num_nodes,
            links,
            graph,
            bfs: (0..routers).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers
    }

    /// Router degree `k` of the random regular graph.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Nodes per router.
    pub fn nodes_per_router(&self) -> usize {
        self.p
    }

    /// Seed of the ChaCha8 stream the graph was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Router-level adjacency, for oracles and diagnostics.
    pub fn router_graph(&self) -> &RouterGraph {
        &self.graph
    }

    fn parents(&self, rs: usize) -> &[(u32, LinkId)] {
        self.bfs[rs].get_or_init(|| self.graph.bfs_parents(rs))
    }

    /// Push the router-to-router core of the `rs → rd` route (`rs != rd`):
    /// the BFS tree path, emitted source-first.
    fn core_into(&self, rs: usize, rd: usize, out: &mut Vec<LinkId>) {
        let parents = self.parents(rs);
        let start = out.len();
        let mut cur = rd as u32;
        while cur != rs as u32 {
            let (par, link) = parents[cur as usize];
            debug_assert_ne!(par, NO_ROUTER, "jellyfish graph is connected");
            out.push(link);
            cur = par;
        }
        out[start..].reverse();
    }
}

/// Upper bound on fresh stub matchings [`random_regular_edges`] draws when
/// the swap repair of one gets stuck (dense small graphs such as 4-regular
/// on 6 routers can reach states no single swap fixes).
const MAX_PAIRINGS: usize = 256;

/// An undirected router edge as an ordered `(lo, hi)` pair.
type Edge = (u32, u32);

/// `(a, b)` as an ordered `(lo, hi)` edge.
fn norm(a: u32, b: u32) -> Edge {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Draw a connected random `degree`-regular graph on `routers` vertices as
/// a sorted, duplicate-free edge list of `(lo, hi)` pairs.
fn random_regular_edges(routers: usize, degree: usize, rng: &mut ChaCha8Rng) -> Vec<(u32, u32)> {
    // A pairing whose repair converges is kept as drawn, so a stuck draw
    // only costs a redraw from the same stream.
    let (mut edges, mut seen) = (0..MAX_PAIRINGS)
        .find_map(|_| simple_pairing(routers, degree, rng))
        .unwrap_or_else(|| {
            panic!("jellyfish repair did not converge (routers={routers}, degree={degree})")
        });

    // Splice components with double-edge swaps. Taking one edge inside
    // the main component and one inside another and crossing them always
    // yields two new component-bridging (hence simple) edges and joins the
    // two components.
    loop {
        let comp = components(routers, &edges);
        let main = comp[0];
        if comp.iter().all(|&c| c == main) {
            break;
        }
        let i = edges
            .iter()
            .position(|&(a, _)| comp[a as usize] == main)
            .expect("main component has an edge (degree >= 2)");
        let j = edges
            .iter()
            .position(|&(a, _)| comp[a as usize] != main)
            .expect("other component has an edge (degree >= 2)");
        let (u, v) = edges[i];
        let (x, y) = edges[j];
        seen.remove(&(u, v));
        seen.remove(&(x, y));
        let (e1, e2) = (norm(u, x), norm(v, y));
        debug_assert!(!seen.contains(&e1) && !seen.contains(&e2) && e1 != e2);
        seen.insert(e1);
        seen.insert(e2);
        edges[i] = e1;
        edges[j] = e2;
    }

    edges.sort_unstable();
    edges
}

/// One random stub matching, repaired into a simple graph (no self-loops,
/// no duplicate edges) by double-edge swaps; `None` when the repair runs
/// out of attempts. Returns the edges and the set of them.
fn simple_pairing(
    routers: usize,
    degree: usize,
    rng: &mut ChaCha8Rng,
) -> Option<(Vec<Edge>, HashSet<Edge>)> {
    // Stub matching: shuffle 2E stubs, pair them off.
    let mut stubs: Vec<u32> = (0..routers as u32)
        .flat_map(|r| std::iter::repeat_n(r, degree))
        .collect();
    for i in (1..stubs.len()).rev() {
        stubs.swap(i, rng.gen_range(0..i + 1));
    }
    let mut edges: Vec<(u32, u32)> = stubs.chunks(2).map(|c| norm(c[0], c[1])).collect();

    // Swap away self-loops and duplicate edges. `seen` holds the simple
    // (good) edges; `good[i]` says edge i owns its entry.
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(edges.len());
    let mut good = vec![false; edges.len()];
    let mut bad: Vec<usize> = Vec::new();
    for (i, &(a, b)) in edges.iter().enumerate() {
        if a != b && seen.insert((a, b)) {
            good[i] = true;
        } else {
            bad.push(i);
        }
    }
    let mut attempts = 0usize;
    while let Some(&i) = bad.last() {
        attempts += 1;
        if attempts >= 1000 * edges.len().max(64) {
            return None;
        }
        let j = rng.gen_range(0..edges.len());
        if j == i || !good[j] {
            continue;
        }
        // Swap (u,v),(x,y) -> (u,x),(v,y); accept only if both results are
        // new simple edges.
        let (u, v) = edges[i];
        let (x, y) = edges[j];
        if u == x || v == y {
            continue;
        }
        let (e1, e2) = (norm(u, x), norm(v, y));
        if e1 == e2 || seen.contains(&e1) || seen.contains(&e2) {
            continue;
        }
        seen.remove(&norm(x, y));
        seen.insert(e1);
        seen.insert(e2);
        edges[i] = e1;
        edges[j] = e2;
        good[i] = true;
        bad.pop();
    }
    Some((edges, seen))
}

/// Component label per vertex (label = smallest vertex of the component,
/// so vertex 0's component is labeled 0).
fn components(routers: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut parent: Vec<u32> = (0..routers as u32).collect();
    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut root = v;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = v;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for &(a, b) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi as usize] = lo;
        }
    }
    (0..routers as u32).map(|v| find(&mut parent, v)).collect()
}

impl Topology for Jellyfish {
    fn name(&self) -> &'static str {
        "jellyfish"
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn links(&self) -> &[Link] {
        &self.links
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        if src == dst {
            return 0;
        }
        let (rs, rd) = (src.idx() / self.p, dst.idx() / self.p);
        if rs == rd {
            return 2;
        }
        let parents = self.parents(rs);
        let mut dist = 0;
        let mut cur = rd as u32;
        while cur != rs as u32 {
            cur = parents[cur as usize].0;
            dist += 1;
        }
        2 + dist
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        // Terminal link ids coincide with node ids by construction.
        out.push(LinkId(src.0));
        let (rs, rd) = (src.idx() / self.p, dst.idx() / self.p);
        if rs != rd {
            self.core_into(rs, rd, out);
        }
        out.push(LinkId(dst.0));
    }

    fn symmetry_hint(&self) -> Option<SymmetryHint> {
        Some(SymmetryHint::RouterSymmetric {
            nodes_per_router: self.p,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        assert!(Jellyfish::check_params(12, 3, 2).is_ok());
        assert!(Jellyfish::check_params(2, 2, 1).is_err()); // too few routers
        assert!(Jellyfish::check_params(12, 1, 2).is_err()); // matching
        assert!(Jellyfish::check_params(12, 12, 2).is_err()); // degree >= routers
        assert!(Jellyfish::check_params(9, 3, 2).is_err()); // odd stub count
        assert!(Jellyfish::check_params(12, 3, 0).is_err());
    }

    #[test]
    fn graph_is_regular_simple_and_connected() {
        for seed in 0..20u64 {
            for (r, k) in [(12usize, 3usize), (20, 4), (9, 4), (30, 7), (40, 2)] {
                let jf = Jellyfish::new(r, k, 1, seed);
                let g = jf.router_graph();
                assert!(g.is_connected(), "r={r} k={k} seed={seed} disconnected");
                for v in 0..r {
                    assert_eq!(g.degree(v), k, "r={r} k={k} seed={seed} router {v}");
                    // Sorted rows with no duplicate neighbor = simple graph.
                    let row = g.neighbors(v);
                    for w in row.windows(2) {
                        assert!(w[0].0 < w[1].0, "duplicate edge at router {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn same_seed_same_graph() {
        let a = Jellyfish::new(20, 4, 2, 7);
        let b = Jellyfish::new(20, 4, 2, 7);
        assert_eq!(a.links(), b.links());
        let c = Jellyfish::new(20, 4, 2, 8);
        assert_ne!(a.links(), c.links());
    }

    #[test]
    fn hops_matches_route_length_and_is_optimal() {
        let jf = Jellyfish::new(16, 4, 2, 3);
        let g = jf.router_graph();
        for s in 0..jf.num_nodes() {
            let rs = s / 2;
            let parents = g.bfs_parents(rs);
            for d in 0..jf.num_nodes() {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                let h = jf.hops(sn, dn);
                assert_eq!(h, jf.route(sn, dn).len() as u32, "{s}->{d}");
                if s != d {
                    let rd = d / 2;
                    let mut dist = 0;
                    let mut cur = rd as u32;
                    while cur != rs as u32 {
                        cur = parents[cur as usize].0;
                        dist += 1;
                    }
                    assert_eq!(h, 2 + dist, "{s}->{d} not BFS-minimal");
                }
            }
        }
    }

    #[test]
    fn route_is_contiguous_path() {
        let jf = Jellyfish::new(24, 5, 3, 11);
        for (s, d) in [(0u32, 71u32), (17, 30), (40, 41), (9, 0), (2, 2)] {
            let route = jf.route(NodeId(s), NodeId(d));
            let mut cur = s;
            for lid in route {
                let link = jf.links()[lid.idx()];
                cur = link
                    .other(cur)
                    .unwrap_or_else(|| panic!("broken path {s}->{d} at {lid:?}"));
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn routes_are_symmetric_in_length_with_no_repeats() {
        let jf = Jellyfish::new(14, 3, 2, 5);
        for s in 0..jf.num_nodes() {
            for d in 0..jf.num_nodes() {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                let route = jf.route(sn, dn);
                assert_eq!(route.len(), jf.route(dn, sn).len(), "{s}<->{d}");
                let mut seen = std::collections::HashSet::new();
                assert!(route.iter().all(|l| seen.insert(*l)), "{s}->{d} repeats");
            }
        }
    }

    #[test]
    fn diameter_is_router_eccentricity_plus_terminals() {
        let jf = Jellyfish::new(12, 3, 2, 1);
        let g = jf.router_graph();
        let mut max_dist = 0u32;
        for s in 0..g.num_routers() {
            let parents = g.bfs_parents(s);
            for d in 0..g.num_routers() {
                let mut dist = 0;
                let mut cur = d as u32;
                while cur != s as u32 {
                    cur = parents[cur as usize].0;
                    dist += 1;
                }
                max_dist = max_dist.max(dist);
            }
        }
        assert_eq!(jf.diameter(), 2 + max_dist);
    }

    #[test]
    fn dense_small_graphs_redraw_instead_of_panicking() {
        // 4-regular on 6 routers is K6 minus a perfect matching; many stub
        // matchings reach repair states no single swap fixes.
        for (routers, degree) in [(6, 4), (6, 3), (7, 4), (8, 4)] {
            for seed in 0..100 {
                let jf = Jellyfish::new(routers, degree, 1, seed);
                let g = jf.router_graph();
                assert!(g.is_connected());
                assert!((0..routers).all(|r| g.degree(r) == degree));
            }
        }
    }

    #[test]
    fn reports_router_symmetry() {
        let jf = Jellyfish::new(12, 3, 4, 0);
        assert_eq!(
            jf.symmetry_hint(),
            Some(SymmetryHint::RouterSymmetric {
                nodes_per_router: 4
            })
        );
    }
}
