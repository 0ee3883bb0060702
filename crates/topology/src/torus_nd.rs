//! N-dimensional torus.
//!
//! The paper studies the 3D torus; production machines have shipped 5D
//! (Blue Gene/Q) and 6D (Tofu) tori, and the paper's dimensionality
//! analysis (Table 4) naturally raises the question how locality behaves
//! when the *network* dimension grows too. [`TorusNd`] generalizes
//! [`crate::Torus3D`] to any dimension count with the same conventions:
//! NIC-integrated switches, one positive-direction link per dimension per
//! node (parallel links kept for rings of two), dimension-order
//! shortest-ring routing.

use crate::link::{Link, LinkClass, LinkId, NodeId};
use crate::torus::walk_ring;
use crate::Topology;

const NO_LINK: u32 = u32::MAX;

/// A torus of arbitrary dimension (up to 256 dimensions).
#[derive(Debug, Clone)]
pub struct TorusNd {
    dims: Vec<usize>,
    links: Vec<Link>,
    /// `plus_link[node * ndims + dim]`.
    plus_link: Vec<u32>,
}

impl TorusNd {
    /// Build a torus with the given dimension sizes.
    ///
    /// # Panics
    /// Panics if `dims` is empty or longer than 256, any dimension is 0,
    /// or the node count overflows `u32`.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty() && dims.len() <= 256, "1..=256 dimensions");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be > 0");
        let n: usize = dims.iter().product();
        assert!(u32::try_from(n).is_ok(), "torus too large");
        let nd = dims.len();

        let mut links = Vec::new();
        let mut plus_link = vec![NO_LINK; n * nd];
        for node in 0..n {
            let c = Self::coords_of(dims, node);
            for (d, &size) in dims.iter().enumerate() {
                if size < 2 {
                    continue;
                }
                let mut nc = c.clone();
                nc[d] = (c[d] + 1) % size;
                let neighbor = Self::index_of(dims, &nc);
                let id = links.len() as u32;
                links.push(Link::new(
                    node as u32,
                    neighbor as u32,
                    LinkClass::TorusDim(d as u8),
                ));
                plus_link[node * nd + d] = id;
            }
        }
        TorusNd {
            dims: dims.to_vec(),
            links,
            plus_link,
        }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn coords_of(dims: &[usize], idx: usize) -> Vec<usize> {
        let mut c = Vec::with_capacity(dims.len());
        let mut r = idx;
        for &d in dims {
            c.push(r % d);
            r /= d;
        }
        c
    }

    fn index_of(dims: &[usize], c: &[usize]) -> usize {
        let mut r = 0;
        for i in (0..dims.len()).rev() {
            r = r * dims[i] + c[i];
        }
        r
    }

    /// Coordinates of a node.
    pub fn coords(&self, node: NodeId) -> Vec<usize> {
        Self::coords_of(&self.dims, node.idx())
    }

    #[inline]
    fn ring_dist(size: usize, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(size - d)
    }
}

impl Topology for TorusNd {
    fn name(&self) -> &'static str {
        "torus-nd"
    }

    fn num_nodes(&self) -> usize {
        self.dims.iter().product()
    }

    fn links(&self) -> &[Link] {
        &self.links
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let (mut a, mut b) = (src.idx(), dst.idx());
        self.dims
            .iter()
            .map(|&size| {
                let dist = Self::ring_dist(size, a % size, b % size);
                (a, b) = (a / size, b / size);
                dist as u32
            })
            .sum()
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        let nd = self.dims.len();
        let (mut a, mut b) = (src.idx(), dst.idx());
        let mut here = a;
        let mut stride = 1;
        for (d, &size) in self.dims.iter().enumerate() {
            walk_ring(&mut here, [a % size, b % size], size, stride, out, |n| {
                self.plus_link[n * nd + d]
            });
            (a, b) = (a / size, b / size);
            stride *= size;
        }
        debug_assert_eq!(here, dst.idx());
    }

    fn diameter(&self) -> u32 {
        self.dims.iter().map(|&d| (d / 2) as u32).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsRouter;
    use crate::Torus3D;

    #[test]
    fn agrees_with_torus3d() {
        let a = Torus3D::new([4, 3, 2]);
        let b = TorusNd::new(&[4, 3, 2]);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.links().len(), b.links().len());
        for s in 0..a.num_nodes() {
            for d in 0..a.num_nodes() {
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(a.hops(s, d), b.hops(s, d));
                assert_eq!(a.route(s, d), b.route(s, d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn six_dim_hypercube() {
        // [2; 6] is the 6-dimensional binary hypercube with doubled links.
        let t = TorusNd::new(&[2; 6]);
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.diameter(), 6);
        // antipodal nodes differ in every coordinate
        assert_eq!(t.hops(NodeId(0), NodeId(63)), 6);
    }

    #[test]
    fn routing_is_bfs_optimal_in_4d() {
        let t = TorusNd::new(&[3, 3, 2, 2]);
        let bfs = BfsRouter::new(&t);
        for s in 0..t.num_nodes() {
            let dist = bfs.distances_from(NodeId(s as u32));
            for d in 0..t.num_nodes() {
                assert_eq!(t.hops(NodeId(s as u32), NodeId(d as u32)), dist[d]);
            }
        }
    }

    #[test]
    fn routes_are_contiguous_in_5d() {
        let t = TorusNd::new(&[3, 2, 2, 2, 2]);
        for (s, d) in [(0u32, 47u32), (13, 31), (47, 0), (7, 7)] {
            let route = t.route(NodeId(s), NodeId(d));
            assert_eq!(route.len() as u32, t.hops(NodeId(s), NodeId(d)));
            let mut cur = s;
            for lid in route {
                cur = t.links()[lid.idx()].other(cur).expect("contiguous");
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn higher_dimensions_shrink_the_diameter() {
        // 64 nodes: 1D ring vs 2D vs 3D vs 6D.
        let d1 = TorusNd::new(&[64]).diameter();
        let d2 = TorusNd::new(&[8, 8]).diameter();
        let d3 = TorusNd::new(&[4, 4, 4]).diameter();
        let d6 = TorusNd::new(&[2; 6]).diameter();
        assert!(d1 > d2 && d2 > d3 && d3 == d6);
        assert_eq!((d1, d2, d3), (32, 8, 6));
    }

    #[test]
    fn one_dimensional_ring() {
        let t = TorusNd::new(&[10]);
        assert_eq!(t.links().len(), 10);
        assert_eq!(t.hops(NodeId(0), NodeId(7)), 3);
    }

    #[test]
    #[should_panic(expected = "dimensions must be > 0")]
    fn zero_dim_panics() {
        TorusNd::new(&[4, 0]);
    }
}
