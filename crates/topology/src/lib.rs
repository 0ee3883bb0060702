//! # netloc-topology
//!
//! Non-temporal interconnect topology models with shortest-path routing —
//! the hardware-side substrate of the ICPP 2020 network-locality
//! reproduction.
//!
//! Three topologies are implemented, matching the paper's selection (§2.2.2
//! and Table 2):
//!
//! * [`Torus3D`] — a direct topology; the switch sits inside the NIC, so a
//!   hop is a link between neighboring nodes and routing is dimension-order
//!   over the shorter ring direction.
//! * [`FatTree`] — a k-ary n-tree built from radix-48 switches (half the
//!   ports up, half down), with the top stage halved as the paper describes;
//!   routing ascends to the nearest common ancestor and descends.
//! * [`Dragonfly`] — groups of `a` routers with `p` nodes and `h` global
//!   links each, `a = 2h = 2p`, globally wired in a palm-tree pattern;
//!   minimal routing uses at most one global link (≤ 5 hops).
//!
//! Beyond the paper's selection, the crate carries the extreme-scale
//! low-diameter zoo the literature benchmarks (EvalNet; Besta & Hoefler):
//!
//! * [`SlimFly`] — MMS router graphs of diameter 2 near the Moore bound.
//! * [`HyperX`] — flattened-butterfly lattices, one hop per dimension.
//! * [`Jellyfish`] — seeded random regular graphs with BFS-tree routing.
//!
//! All expose the same [`Topology`] trait: full link enumeration (for
//! utilization and per-link load accounting) and per-pair routes as explicit
//! link sequences. A generic BFS router ([`bfs::BfsRouter`]) over the same
//! link graph serves as a test oracle for the analytic routing of each
//! topology. Topologies whose routes factor through a router-pair core
//! advertise it via [`Topology::symmetry_hint`], which lets
//! [`routetable::CompressedRouteTable`] store each core once instead of a
//! per-node-pair flat CSR; [`RoutedTopology::auto`] routes every other
//! topology directly.
//!
//! ```
//! use netloc_topology::{Topology, Torus3D};
//!
//! let torus = Torus3D::new([4, 4, 4]);
//! assert_eq!(torus.num_nodes(), 64);
//! // opposite corner of the 4x4x4 torus: one wrap hop per dimension
//! assert_eq!(torus.hops(0.into(), 63.into()), 3);
//! ```

#![warn(missing_docs)]
// Node/rank ids are dense indices by construction throughout this crate;
// `for id in 0..n` with indexed access is the clearest way to write the
// id-driven loops, so the pedantic range-loop lint is disabled.
#![allow(clippy::needless_range_loop)]

pub mod bfs;
pub mod bisect;
pub mod config;
pub mod distmatrix;
pub mod dragonfly;
pub mod fattree;
pub mod grid;
pub mod hyperx;
pub mod jellyfish;
pub mod link;
pub mod mapping;
pub mod mesh;
pub mod optimize;
pub mod routergraph;
pub mod routetable;
pub mod slimfly;
pub mod spec;
pub mod tapered;
pub mod torus;
pub mod torus_nd;
pub mod valiant;

pub use config::{ConfigCatalog, TopologyConfig};
pub use distmatrix::{DistanceMatrix, SampledDistances};
pub use dragonfly::Dragonfly;
pub use fattree::FatTree;
pub use hyperx::HyperX;
pub use jellyfish::Jellyfish;
pub use link::{Link, LinkClass, LinkId, NodeId};
pub use mapping::Mapping;
pub use mesh::Mesh3D;
pub use routergraph::RouterGraph;
pub use routetable::{CompressedRouteTable, RouteTable, RoutedTopology};
pub use slimfly::SlimFly;
pub use spec::{MappingSpec, SpecError, TopologySpec};
pub use tapered::TaperedFatTree;
pub use torus::Torus3D;
pub use torus_nd::TorusNd;
pub use valiant::ValiantDragonfly;

/// Structural symmetry a topology can advertise so route storage can
/// exploit it (see [`Topology::symmetry_hint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymmetryHint {
    /// Routes factor as `terminal(src) ++ core(router(src), router(dst))
    /// ++ terminal(dst)`: node `i` sits on router `i / nodes_per_router`,
    /// terminal link ids equal node ids, and the router-to-router core of
    /// a route depends only on the router pair — every node pair sharing a
    /// router pair rides the same core. This is exactly the shape
    /// [`routetable::CompressedRouteTable`] compresses.
    RouterSymmetric {
        /// Nodes attached to each router (`num_nodes` must divide evenly).
        nodes_per_router: usize,
    },
}

/// A network topology: a set of compute nodes joined by links through
/// (implicit) switches, with deterministic shortest-path routing.
///
/// Routes are *link sequences*; the hop count of a packet is the length of
/// its route (every link traversal is one hop, exactly as the paper counts
/// them in §2.2.1).
pub trait Topology: Sync {
    /// Human-readable topology name (`"torus3d"`, `"fattree"`, `"dragonfly"`).
    fn name(&self) -> &'static str;

    /// Number of compute nodes (network endpoints).
    fn num_nodes(&self) -> usize;

    /// All links of the topology.
    fn links(&self) -> &[Link];

    /// Append the deterministic shortest route from `src` to `dst` to `out`
    /// as a link sequence. Routing a node to itself appends nothing.
    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>);

    /// Number of hops of the deterministic shortest route.
    ///
    /// The default materializes the route; implementations override this
    /// with closed-form hop arithmetic.
    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let mut buf = Vec::new();
        self.route_into(src, dst, &mut buf);
        buf.len() as u32
    }

    /// Convenience wrapper around [`Topology::route_into`].
    fn route(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut out = Vec::new();
        self.route_into(src, dst, &mut out);
        out
    }

    /// Structural symmetry of this topology's routes, if any. The default
    /// reports none; router-symmetric families (fat tree, dragonfly, Slim
    /// Fly, HyperX, Jellyfish) override it so [`RoutedTopology::auto`]
    /// stores one core per router pair in a compressed table; without it,
    /// `auto` routes directly. The fat tree qualifies because its up- and
    /// down-paths follow the digits of the destination's *leaf switch*
    /// (`node / k`), never the node itself. Topologies whose core depends
    /// on more than the router pair (the tapered fat tree hashes its up
    /// port on the node pair; the torus has no terminal links at all) must
    /// stay `None`.
    fn symmetry_hint(&self) -> Option<SymmetryHint> {
        None
    }

    /// Append the router-to-router cores of every route out of source
    /// router `rs`: for each destination router `rd` in ascending order,
    /// push the core's links onto `links` and its length onto `lens` (an
    /// empty core for `rd == rs`). Only called when
    /// [`Topology::symmetry_hint`] reports
    /// [`SymmetryHint::RouterSymmetric`] with this `nodes_per_router`.
    ///
    /// The default strips the two terminal hops off
    /// [`Topology::route_into`] between the routers' first nodes and
    /// asserts the hint's contract (terminal link ids equal node ids), so
    /// a wrong hint fails loudly at build time rather than corrupting
    /// routes. Families with a cheaper router-level construction override
    /// it; an override must produce exactly the default's cores.
    fn core_row_into(
        &self,
        nodes_per_router: usize,
        rs: usize,
        lens: &mut Vec<u32>,
        links: &mut Vec<LinkId>,
    ) {
        let p = nodes_per_router;
        let src = NodeId((rs * p) as u32);
        for rd in 0..self.num_nodes() / p {
            let start = links.len();
            if rd != rs {
                let dst = NodeId((rd * p) as u32);
                self.route_into(src, dst, links);
                assert!(
                    links.len() >= start + 2
                        && links[start] == LinkId(src.0)
                        && *links.last().unwrap() == LinkId(dst.0),
                    "{}: route {src}->{dst} does not match its router-symmetry hint",
                    self.name()
                );
                links.pop();
                links.remove(start);
            }
            lens.push((links.len() - start) as u32);
        }
    }

    /// The topology's diameter in hops (maximum over node pairs).
    fn diameter(&self) -> u32 {
        let n = self.num_nodes();
        let mut max = 0;
        for s in 0..n {
            for d in 0..n {
                max = max.max(self.hops(NodeId(s as u32), NodeId(d as u32)));
            }
        }
        max
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn route_default_matches_route_into() {
        let t = Torus3D::new([3, 3, 3]);
        let mut buf = Vec::new();
        t.route_into(NodeId(1), NodeId(20), &mut buf);
        assert_eq!(t.route(NodeId(1), NodeId(20)), buf);
    }

    #[test]
    fn self_route_is_empty_and_zero_hops() {
        let t = Torus3D::new([2, 2, 2]);
        assert!(t.route(NodeId(3), NodeId(3)).is_empty());
        assert_eq!(t.hops(NodeId(3), NodeId(3)), 0);
    }
}
