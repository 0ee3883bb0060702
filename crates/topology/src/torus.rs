//! 3D torus topology.

use crate::link::{Link, LinkClass, LinkId, NodeId};
use crate::Topology;

const NO_LINK: u32 = u32::MAX;

/// A 3D torus: nodes arranged in an `x × y × z` grid with wrap-around links
/// in every dimension, so each dimension forms a ring (§2.2.2).
///
/// The torus is a *direct* topology: the switch is integrated into the NIC,
/// so there are no terminal links and a hop is a traversal of one ring link
/// between neighboring nodes. Every node owns one link in the positive
/// direction of each dimension of size ≥ 2 ("the torus has three links per
/// node, which equals one per dimension", §4.2.3 — rings of size 2 keep both
/// parallel links so this invariant holds).
///
/// Routing is dimension-order (x, then y, then z), always taking the shorter
/// ring direction; ties at exactly half the ring go in the positive
/// direction. This is shortest-path, as the paper's non-temporal model
/// requires.
#[derive(Debug, Clone)]
pub struct Torus3D {
    dims: [usize; 3],
    links: Vec<Link>,
    /// `plus_link[node][dim]`: id of the link from `node` to its +1 neighbor
    /// in `dim`, or `NO_LINK` for dimensions of size 1.
    plus_link: Vec<[u32; 3]>,
}

impl Torus3D {
    /// Build a torus with the given dimensions. Dimensions of size 1 are
    /// allowed (they contribute no links); at least one dimension must be
    /// larger than 1 for the network to exist.
    ///
    /// # Panics
    /// Panics if any dimension is 0 or the node count overflows `u32`.
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "torus dimensions must be > 0");
        let n = dims[0] * dims[1] * dims[2];
        assert!(u32::try_from(n).is_ok(), "torus too large");

        let mut links = Vec::new();
        let mut plus_link = vec![[NO_LINK; 3]; n];
        for node in 0..n {
            let c = Self::coords_of(dims, node);
            for d in 0..3 {
                if dims[d] < 2 {
                    continue;
                }
                let mut nc = c;
                nc[d] = (c[d] + 1) % dims[d];
                let neighbor = Self::index_of(dims, nc);
                let id = links.len() as u32;
                links.push(Link::new(
                    node as u32,
                    neighbor as u32,
                    LinkClass::TorusDim(d as u8),
                ));
                plus_link[node][d] = id;
            }
        }
        Torus3D {
            dims,
            links,
            plus_link,
        }
    }

    /// The torus dimensions `(x, y, z)`.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    fn coords_of(dims: [usize; 3], idx: usize) -> [usize; 3] {
        [
            idx % dims[0],
            (idx / dims[0]) % dims[1],
            idx / (dims[0] * dims[1]),
        ]
    }

    fn index_of(dims: [usize; 3], c: [usize; 3]) -> usize {
        c[0] + dims[0] * (c[1] + dims[1] * c[2])
    }

    /// Coordinates of a node.
    pub fn coords(&self, node: NodeId) -> [usize; 3] {
        Self::coords_of(self.dims, node.idx())
    }

    /// Node at the given coordinates.
    pub fn node_at(&self, c: [usize; 3]) -> NodeId {
        NodeId(Self::index_of(self.dims, c) as u32)
    }

    /// Minimal ring distance along one dimension.
    #[inline]
    fn ring_dist(size: usize, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(size - d)
    }
}

impl Topology for Torus3D {
    fn name(&self) -> &'static str {
        "torus3d"
    }

    fn num_nodes(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    fn links(&self) -> &[Link] {
        &self.links
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let a = self.coords(src);
        let b = self.coords(dst);
        (0..3)
            .map(|d| Self::ring_dist(self.dims[d], a[d], b[d]) as u32)
            .sum()
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        let (a, b) = (self.coords(src), self.coords(dst));
        let mut here = src.idx();
        let mut stride = 1;
        for d in 0..3 {
            walk_ring(&mut here, [a[d], b[d]], self.dims[d], stride, out, |n| {
                self.plus_link[n][d]
            });
            stride *= self.dims[d];
        }
        debug_assert_eq!(here, dst.idx());
    }

    fn diameter(&self) -> u32 {
        (0..3).map(|d| (self.dims[d] / 2) as u32).sum()
    }
}

/// Append the walk along one torus ring from coordinate `from` to `to`
/// (`[from, to]`), taking the shorter direction (ties go positive), and
/// move the node index `here` from the ring's `from` node to its `to`
/// node. `stride` is the index distance between ring neighbors and
/// `plus_link(node)` the id of `node`'s link toward its +1 neighbor; a −1
/// step traverses the link owned by the neighbor it arrives at. Shared by
/// [`Torus3D`] and [`crate::TorusNd`]; it routes without allocating and
/// without recomputing node indices from coordinates per step.
#[inline]
pub(crate) fn walk_ring(
    here: &mut usize,
    [from, to]: [usize; 2],
    size: usize,
    stride: usize,
    out: &mut Vec<LinkId>,
    plus_link: impl Fn(usize) -> u32,
) {
    let line = *here - from * stride;
    let fwd = if to >= from {
        to - from
    } else {
        to + size - from
    };
    // Walking down, the first link is owned by the node below `from`.
    let (steps, mut c, step) = if fwd <= size - fwd {
        (fwd, from, 1)
    } else {
        (
            size - fwd,
            if from == 0 { size - 1 } else { from - 1 },
            size - 1,
        )
    };
    out.reserve(steps);
    for _ in 0..steps {
        out.push(LinkId(plus_link(line + c * stride)));
        c += step;
        if c >= size {
            c -= size;
        }
    }
    *here = line + to * stride;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_link_counts() {
        let t = Torus3D::new([4, 4, 4]);
        assert_eq!(t.num_nodes(), 64);
        // 3 links per node in a torus with all dims >= 2.
        assert_eq!(t.links().len(), 3 * 64);
    }

    #[test]
    fn degenerate_dims_have_fewer_links() {
        let t = Torus3D::new([4, 1, 1]);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.links().len(), 4); // one ring
    }

    #[test]
    fn coords_roundtrip() {
        let t = Torus3D::new([3, 4, 5]);
        for i in 0..t.num_nodes() {
            let n = NodeId(i as u32);
            assert_eq!(t.node_at(t.coords(n)), n);
        }
    }

    #[test]
    fn neighbor_hop_is_one() {
        let t = Torus3D::new([4, 4, 4]);
        assert_eq!(t.hops(t.node_at([0, 0, 0]), t.node_at([1, 0, 0])), 1);
        assert_eq!(t.hops(t.node_at([0, 0, 0]), t.node_at([0, 0, 1])), 1);
    }

    #[test]
    fn wraparound_reduces_distance() {
        let t = Torus3D::new([5, 5, 5]);
        // coordinate distance 4 becomes ring distance 1.
        assert_eq!(t.hops(t.node_at([0, 0, 0]), t.node_at([4, 0, 0])), 1);
    }

    #[test]
    fn hops_matches_route_length() {
        let t = Torus3D::new([3, 4, 2]);
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(t.hops(s, d), t.route(s, d).len() as u32, "{s}->{d}");
            }
        }
    }

    #[test]
    fn route_is_contiguous_path() {
        // Walk the route, checking each link connects the current vertex.
        let t = Torus3D::new([4, 3, 3]);
        for (s, d) in [(0usize, 35usize), (7, 12), (35, 0), (1, 1)] {
            let route = t.route(NodeId(s as u32), NodeId(d as u32));
            let mut cur = s as u32;
            for lid in route {
                let link = t.links()[lid.idx()];
                cur = link.other(cur).expect("link must touch current vertex");
            }
            assert_eq!(cur, d as u32);
        }
    }

    #[test]
    fn routes_have_no_repeated_links() {
        let t = Torus3D::new([4, 3, 3]);
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let route = t.route(NodeId(s as u32), NodeId(d as u32));
                let mut seen = std::collections::HashSet::new();
                assert!(route.iter().all(|l| seen.insert(*l)), "{s}->{d} repeats");
            }
        }
    }

    #[test]
    fn routes_are_symmetric_in_length() {
        // Dimension-ordered routing walks each ring the short way, so the
        // reverse route has the same hop count (though not the same links
        // on even-sized rings, where ties break toward the positive side).
        let t = Torus3D::new([4, 3, 2]);
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(
                    t.route(sn, dn).len(),
                    t.route(dn, sn).len(),
                    "{s}<->{d} asymmetric"
                );
            }
        }
    }

    #[test]
    fn diameter_is_sum_of_half_dims() {
        assert_eq!(Torus3D::new([4, 4, 4]).diameter(), 6);
        assert_eq!(Torus3D::new([3, 3, 3]).diameter(), 3);
        assert_eq!(Torus3D::new([16, 8, 8]).diameter(), 16);
    }

    #[test]
    fn size_two_ring_keeps_parallel_links() {
        let t = Torus3D::new([2, 2, 2]);
        // 3 links per node even with rings of 2 (parallel links kept).
        assert_eq!(t.links().len(), 3 * 8);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 3);
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn zero_dimension_panics() {
        Torus3D::new([0, 3, 3]);
    }
}
