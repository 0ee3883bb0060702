//! Precomputed all-pairs hop distances.
//!
//! The mapping optimizers ([`crate::optimize`], [`crate::bisect`]) call
//! `Topology::hops` inside tight loops; for repeated queries on a fixed
//! topology a dense distance matrix is much faster than re-deriving routes.
//! Memory is one `u16` per node pair (a 1728-node torus costs ~6 MB).
//!
//! Construction derives each distance from the deterministic route length
//! (not per-source BFS — dragonfly minimal routes may be one hop longer
//! than the BFS optimum, and the matrix must agree with `Topology::hops`),
//! parallelized over source nodes with rayon.

use crate::link::{LinkId, NodeId};
use crate::routetable::RouteTable;
use crate::Topology;
use rayon::prelude::*;

/// Dense all-pairs hop-distance matrix for one topology.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<u16>,
}

impl DistanceMatrix {
    /// Precompute all pairwise hop distances of `topo`, in parallel over
    /// source nodes.
    ///
    /// # Panics
    /// Panics if a distance exceeds `u16::MAX` (no realistic topology does).
    pub fn new(topo: &dyn Topology) -> Self {
        let n = topo.num_nodes();
        let sources: Vec<u32> = (0..n as u32).collect();
        let dist = sources
            .par_chunks((n / 64).max(1))
            .map(|srcs| {
                let mut rows = Vec::with_capacity(srcs.len() * n);
                let mut route: Vec<LinkId> = Vec::new();
                for &s in srcs {
                    for d in 0..n {
                        route.clear();
                        topo.route_into(NodeId(s), NodeId(d as u32), &mut route);
                        rows.push(u16::try_from(route.len()).expect("hop count fits u16"));
                    }
                }
                rows
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        DistanceMatrix { n, dist }
    }

    /// The old serial construction via per-pair [`Topology::hops`]; kept as
    /// the reference the parallel route-length build is tested against.
    pub fn new_reference(topo: &dyn Topology) -> Self {
        let n = topo.num_nodes();
        let mut dist = vec![0u16; n * n];
        for s in 0..n {
            for d in 0..n {
                let h = topo.hops(NodeId(s as u32), NodeId(d as u32));
                dist[s * n + d] = u16::try_from(h).expect("hop count fits u16");
            }
        }
        DistanceMatrix { n, dist }
    }

    /// Read the distances off an already-built dense route table — pure
    /// CSR offset differences, no routing at all.
    pub fn from_route_table(table: &RouteTable) -> Self {
        let n = table.num_nodes();
        let mut dist = vec![0u16; n * n];
        for s in 0..n {
            for d in 0..n {
                let h = table.hops(NodeId(s as u32), NodeId(d as u32));
                dist[s * n + d] = u16::try_from(h).expect("hop count fits u16");
            }
        }
        DistanceMatrix { n, dist }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Hop distance between two nodes.
    ///
    /// # Panics
    /// Panics if an id is out of range.
    #[inline]
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.dist[a.idx() * self.n + b.idx()] as u32
    }

    /// Maximum entry — the topology's diameter.
    pub fn diameter(&self) -> u32 {
        self.dist.iter().copied().max().unwrap_or(0) as u32
    }

    /// Mean hop distance over all ordered pairs of distinct nodes — the
    /// expected hops̄ of uniform random traffic.
    pub fn mean_distance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let sum: u64 = self.dist.iter().map(|&d| d as u64).sum();
        sum as f64 / (self.n * (self.n - 1)) as f64
    }

    /// Seeded sampled-pairs distance estimate — `diameter`/`mean_distance`
    /// without the O(n²) matrix, for machines past the dense limit.
    ///
    /// Whenever the ordered-distinct-pair count `n(n−1)` fits within
    /// `max_pairs` the estimator enumerates *every* pair instead of
    /// sampling, so on small configs it is exact (tested against
    /// [`DistanceMatrix::new_reference`]). Above that it draws `max_pairs`
    /// uniform ordered pairs from a ChaCha8 stream seeded with `seed`;
    /// distances are evaluated in parallel either way.
    pub fn sampled(topo: &dyn Topology, max_pairs: usize, seed: u64) -> SampledDistances {
        use rand::{Rng, SeedableRng};
        let n = topo.num_nodes();
        let total = n.saturating_mul(n.saturating_sub(1));
        if n < 2 || max_pairs == 0 {
            return SampledDistances {
                pairs: 0,
                exhaustive: true,
                mean: 0.0,
                max: 0,
            };
        }
        let exhaustive = total <= max_pairs;
        let pairs: Vec<(u32, u32)> = if exhaustive {
            (0..n as u32)
                .flat_map(|s| (0..n as u32).filter(move |&d| d != s).map(move |d| (s, d)))
                .collect()
        } else {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            (0..max_pairs)
                .map(|_| {
                    let s = rng.gen_range(0..n as u32);
                    let mut d = rng.gen_range(0..n as u32);
                    while d == s {
                        d = rng.gen_range(0..n as u32);
                    }
                    (s, d)
                })
                .collect()
        };
        let (sum, max) = pairs
            .par_chunks((pairs.len() / 64).max(1))
            .map(|chunk| {
                let mut sum = 0u64;
                let mut max = 0u32;
                for &(s, d) in chunk {
                    let h = topo.hops(NodeId(s), NodeId(d));
                    sum += h as u64;
                    max = max.max(h);
                }
                (sum, max)
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1.max(b.1)));
        SampledDistances {
            pairs: pairs.len(),
            exhaustive,
            mean: sum as f64 / pairs.len() as f64,
            max,
        }
    }
}

/// Result of [`DistanceMatrix::sampled`]: distance statistics over a
/// seeded pair sample (or the full pair set on small configs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledDistances {
    pairs: usize,
    exhaustive: bool,
    mean: f64,
    max: u32,
}

impl SampledDistances {
    /// Number of ordered pairs evaluated.
    pub fn pairs_sampled(&self) -> usize {
        self.pairs
    }

    /// Whether every ordered distinct pair was evaluated (exact result).
    pub fn is_exhaustive(&self) -> bool {
        self.exhaustive
    }

    /// Mean hop distance over the evaluated pairs.
    pub fn mean_distance(&self) -> f64 {
        self.mean
    }

    /// Maximum hop distance seen — the diameter when exhaustive, a lower
    /// bound otherwise.
    pub fn diameter(&self) -> u32 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dragonfly, FatTree, Torus3D};

    #[test]
    fn matches_topology_hops() {
        let t = Torus3D::new([4, 3, 2]);
        let m = DistanceMatrix::new(&t);
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                assert_eq!(
                    m.hops(NodeId(s as u32), NodeId(d as u32)),
                    t.hops(NodeId(s as u32), NodeId(d as u32))
                );
            }
        }
    }

    #[test]
    fn parallel_build_equals_reference_and_route_table() {
        for topo in [
            &Torus3D::new([4, 3, 2]) as &dyn Topology,
            &FatTree::new(8, 2),
            &Dragonfly::new(4, 2, 2),
        ] {
            let new = DistanceMatrix::new(topo);
            let reference = DistanceMatrix::new_reference(topo);
            let from_table = DistanceMatrix::from_route_table(&RouteTable::build(topo));
            for s in 0..topo.num_nodes() {
                for d in 0..topo.num_nodes() {
                    let (sn, dn) = (NodeId(s as u32), NodeId(d as u32));
                    assert_eq!(new.hops(sn, dn), reference.hops(sn, dn), "{s}->{d}");
                    assert_eq!(new.hops(sn, dn), from_table.hops(sn, dn), "{s}->{d}");
                }
            }
        }
    }

    #[test]
    fn diameter_matches() {
        for topo in [
            &Torus3D::new([5, 4, 3]) as &dyn Topology,
            &FatTree::new(8, 2),
            &Dragonfly::new(4, 2, 2),
        ] {
            let m = DistanceMatrix::new(topo);
            assert_eq!(m.diameter(), topo.diameter());
        }
    }

    #[test]
    fn mean_distance_of_ring() {
        // Ring of 8: distances 1,2,3,4,3,2,1 per node -> mean 16/7.
        let m = DistanceMatrix::new(&Torus3D::new([8, 1, 1]));
        assert!((m.mean_distance() - 16.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_single_node() {
        let m = DistanceMatrix::new(&Torus3D::new([1, 1, 1]));
        assert_eq!(m.mean_distance(), 0.0);
        assert_eq!(m.diameter(), 0);
    }

    #[test]
    fn sampled_is_exact_on_small_configs() {
        for topo in [
            &Torus3D::new([4, 3, 2]) as &dyn Topology,
            &FatTree::new(8, 2),
            &Dragonfly::new(4, 2, 2),
            &crate::SlimFly::new(5, 2),
            &crate::HyperX::new(vec![3, 4], 2),
            &crate::Jellyfish::new(12, 3, 2, 9),
        ] {
            let n = topo.num_nodes();
            let reference = DistanceMatrix::new_reference(topo);
            let sampled = DistanceMatrix::sampled(topo, n * n, 42);
            assert!(sampled.is_exhaustive(), "{}", topo.name());
            assert_eq!(sampled.pairs_sampled(), n * (n - 1), "{}", topo.name());
            assert_eq!(sampled.diameter(), reference.diameter(), "{}", topo.name());
            assert!(
                (sampled.mean_distance() - reference.mean_distance()).abs() < 1e-12,
                "{}: sampled {} vs reference {}",
                topo.name(),
                sampled.mean_distance(),
                reference.mean_distance()
            );
        }
    }

    #[test]
    fn sampled_is_seeded_and_bounded_when_sampling() {
        let t = Torus3D::new([6, 6, 6]);
        let a = DistanceMatrix::sampled(&t, 500, 7);
        let b = DistanceMatrix::sampled(&t, 500, 7);
        let c = DistanceMatrix::sampled(&t, 500, 8);
        assert!(!a.is_exhaustive());
        assert_eq!(a.pairs_sampled(), 500);
        assert_eq!(a.mean_distance(), b.mean_distance());
        assert_eq!(a.diameter(), b.diameter());
        // A different seed draws different pairs (mean almost surely moves).
        assert_ne!(a.mean_distance(), c.mean_distance());
        // Estimates stay within the true range.
        let exact = DistanceMatrix::new(&t);
        assert!(a.diameter() <= exact.diameter());
        assert!(a.mean_distance() > 0.0 && a.mean_distance() <= exact.diameter() as f64);
    }
}
