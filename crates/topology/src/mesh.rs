//! 3D mesh topology (a torus without wrap-around links).
//!
//! The paper motivates the torus by noting that wrap-around links turn each
//! dimension's chain into a ring, "which reduces the diameter" (§2.2.2).
//! The mesh is the natural baseline for quantifying exactly that benefit:
//! same node arrangement, no wrap links, dimension-order routing.

use crate::link::{Link, LinkClass, LinkId, NodeId};
use crate::Topology;

const NO_LINK: u32 = u32::MAX;

/// A 3D mesh: nodes on an `x × y × z` grid, each connected to its +1
/// neighbor per dimension (no wrap-around). Like the torus it is a direct
/// topology — the switch sits in the NIC, so a hop is one grid link.
#[derive(Debug, Clone)]
pub struct Mesh3D {
    dims: [usize; 3],
    links: Vec<Link>,
    /// `plus_link[node][dim]`: link toward the +1 neighbor, or `NO_LINK`
    /// at the upper boundary of the dimension.
    plus_link: Vec<[u32; 3]>,
}

impl Mesh3D {
    /// Build a mesh with the given dimensions.
    ///
    /// # Panics
    /// Panics if any dimension is 0 or the node count overflows `u32`.
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "mesh dimensions must be > 0");
        let n = dims[0] * dims[1] * dims[2];
        assert!(u32::try_from(n).is_ok(), "mesh too large");

        let mut links = Vec::new();
        let mut plus_link = vec![[NO_LINK; 3]; n];
        for node in 0..n {
            let c = Self::coords_of(dims, node);
            for d in 0..3 {
                if c[d] + 1 >= dims[d] {
                    continue;
                }
                let mut nc = c;
                nc[d] += 1;
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
        Mesh3D {
            dims,
            links,
            plus_link,
        }
    }

    /// The mesh dimensions `(x, y, z)`.
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
}

impl Topology for Mesh3D {
    fn name(&self) -> &'static str {
        "mesh3d"
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
        (0..3).map(|d| a[d].abs_diff(b[d]) as u32).sum()
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        let (a, b) = (self.coords(src), self.coords(dst));
        let mut here = src.idx();
        let mut stride = 1;
        for d in 0..3 {
            for _ in b[d]..a[d] {
                here -= stride;
                out.push(LinkId(self.plus_link[here][d]));
            }
            for _ in a[d]..b[d] {
                out.push(LinkId(self.plus_link[here][d]));
                here += stride;
            }
            stride *= self.dims[d];
        }
        debug_assert_eq!(here, dst.idx());
    }

    fn diameter(&self) -> u32 {
        (0..3).map(|d| (self.dims[d] - 1) as u32).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsRouter;

    #[test]
    fn link_count_is_boundaryless() {
        // 4x4x4 mesh: 3 * 4*4*3 = 144 links (vs 192 on the torus).
        let m = Mesh3D::new([4, 4, 4]);
        assert_eq!(m.links().len(), 144);
    }

    #[test]
    fn manhattan_distance_routing() {
        let m = Mesh3D::new([5, 5, 5]);
        assert_eq!(m.hops(m.node_at([0, 0, 0]), m.node_at([4, 0, 0])), 4);
        assert_eq!(m.hops(m.node_at([0, 0, 0]), m.node_at([4, 4, 4])), 12);
        assert_eq!(m.diameter(), 12);
    }

    #[test]
    fn routing_is_bfs_optimal() {
        let m = Mesh3D::new([3, 4, 2]);
        let bfs = BfsRouter::new(&m);
        for s in 0..m.num_nodes() {
            let dist = bfs.distances_from(NodeId(s as u32));
            for d in 0..m.num_nodes() {
                assert_eq!(m.hops(NodeId(s as u32), NodeId(d as u32)), dist[d]);
            }
        }
    }

    #[test]
    fn routes_are_contiguous() {
        let m = Mesh3D::new([4, 3, 3]);
        for (s, d) in [(0u32, 35u32), (35, 0), (7, 20), (5, 5)] {
            let route = m.route(NodeId(s), NodeId(d));
            assert_eq!(route.len() as u32, m.hops(NodeId(s), NodeId(d)));
            let mut cur = s;
            for lid in route {
                cur = m.links()[lid.idx()].other(cur).expect("contiguous");
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn torus_wrap_beats_mesh_at_the_boundary() {
        let mesh = Mesh3D::new([8, 8, 8]);
        let torus = crate::Torus3D::new([8, 8, 8]);
        let (a, b) = (mesh.node_at([0, 0, 0]), mesh.node_at([7, 7, 7]));
        assert_eq!(mesh.hops(a, b), 21);
        assert_eq!(torus.hops(a, b), 3);
        assert!(torus.diameter() < mesh.diameter());
    }
}
