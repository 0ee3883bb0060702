//! Fat-tree topology (k-ary n-tree from fixed-radix switches).

use crate::link::{Link, LinkClass, LinkId, NodeId};
use crate::{SymmetryHint, Topology};

/// A fat tree built from switches of a fixed radix `r` (the paper uses
/// `r = 48`), providing constant bisection bandwidth at every stage
/// (§2.2.2).
///
/// * With **one stage** the network is a single switch with all `r` ports
///   connected to nodes (capacity `r`, every distinct pair is 2 hops apart).
/// * With **`s ≥ 2` stages** the network is a k-ary s-tree with `k = r/2`:
///   every switch uses half its ports downward and half upward, stages
///   0..s−2 have `k^(s−1)` switches each, and — following the paper — the
///   top stage uses *half* the switches (`k^(s−1)/2`), each devoting all
///   `r` ports downward (pairs of parallel links). Capacity is `k^s`:
///   48/576/13824 nodes for 1/2/3 stages, matching Table 2.
///
/// Routing ascends toward the nearest common ancestor, choosing at each
/// level the up-link labeled with the destination's digit (deterministic
/// destination-based shortest path, appropriate for the paper's model
/// without load balancing), then descends along the destination's digits.
/// Those digits are the destination *leaf switch's* (`node / k`), so every
/// route is `[src] ++ core(leaf(src), leaf(dst)) ++ [dst]` and the tree is
/// router-symmetric with `k` nodes per leaf.
#[derive(Debug, Clone)]
pub struct FatTree {
    radix: usize,
    stages: usize,
    k: usize,
    num_nodes: usize,
    links: Vec<Link>,
    /// Powers of `k`, `kpow[i] = k^i`, up to `k^s`.
    kpow: Vec<usize>,
}

impl FatTree {
    /// Build a fat tree of `stages` stages from radix-`radix` switches.
    ///
    /// # Panics
    /// Panics if `radix < 2` or is odd (for `stages ≥ 2`), or `stages == 0`.
    pub fn new(radix: usize, stages: usize) -> Self {
        assert!(stages >= 1, "fat tree needs at least one stage");
        assert!(radix >= 2, "switch radix must be at least 2");
        let k = radix / 2;
        if stages >= 2 {
            assert!(
                radix.is_multiple_of(2),
                "multi-stage fat tree needs an even radix"
            );
            assert!(
                k.is_multiple_of(2) || k == 1,
                "k = radix/2 must be even to halve the top stage"
            );
        }

        let num_nodes = if stages == 1 {
            radix
        } else {
            let mut n = 1usize;
            for _ in 0..stages {
                n *= k;
            }
            n
        };

        let mut kpow = Vec::with_capacity(stages + 1);
        let mut p = 1usize;
        for _ in 0..=stages {
            kpow.push(p);
            p = p.saturating_mul(k);
        }

        let mut links = Vec::new();
        if stages == 1 {
            // Single switch, vertex id = num_nodes; all ports are terminal.
            for n in 0..num_nodes {
                links.push(Link::new(n as u32, num_nodes as u32, LinkClass::Terminal));
            }
        } else {
            let n_sw_full = kpow[stages - 1]; // switches per non-top level
                                              // Vertex layout: nodes, then levels 0..s-2 (full), then top (half).
            let sw_vertex = |level: usize, idx: usize| -> u32 {
                let base = num_nodes + level * n_sw_full;
                (base + idx) as u32
            };
            // Terminal links: node p ↔ leaf switch p / k. Link id == p.
            for pnode in 0..num_nodes {
                links.push(Link::new(
                    pnode as u32,
                    sw_vertex(0, pnode / k),
                    LinkClass::Terminal,
                ));
            }
            // Inter-switch layers l (between level l and l+1), each k^s links:
            // link id = num_nodes + l*k^s + lower_idx*k + c.
            for l in 0..stages - 1 {
                let top = l + 1 == stages - 1;
                for lower in 0..n_sw_full {
                    for c in 0..k {
                        let upper_idx = if top {
                            // Merge pairs of top switches: digit s-2 halves.
                            let below = lower % kpow[stages - 2];
                            below + (c / 2) * kpow[stages - 2]
                        } else {
                            // Replace digit l of the lower switch with c.
                            let low = lower % kpow[l];
                            let high = lower / kpow[l + 1];
                            low + c * kpow[l] + high * kpow[l + 1]
                        };
                        links.push(Link::new(
                            sw_vertex(l, lower),
                            sw_vertex(l + 1, upper_idx),
                            LinkClass::FatTreeStage(l as u8),
                        ));
                    }
                }
            }
        }

        FatTree {
            radix,
            stages,
            k,
            num_nodes,
            links,
            kpow,
        }
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Maximum number of attachable nodes.
    pub fn capacity(&self) -> usize {
        self.num_nodes
    }

    /// Base-k digit `i` of a node id.
    #[inline]
    fn digit(&self, p: usize, i: usize) -> usize {
        (p / self.kpow[i]) % self.k
    }

    /// Highest differing base-k digit index of two distinct nodes.
    #[inline]
    fn highest_diff_digit(&self, a: usize, b: usize) -> usize {
        debug_assert_ne!(a, b);
        (0..self.stages)
            .rev()
            .find(|&i| self.digit(a, i) != self.digit(b, i))
            .expect("a != b")
    }

    /// Id of the inter-switch link at layer `l` from `lower` with up-choice `c`.
    #[inline]
    fn layer_link(&self, l: usize, lower: usize, c: usize) -> LinkId {
        LinkId((self.num_nodes + l * self.kpow[self.stages] + lower * self.k + c) as u32)
    }
}

impl Topology for FatTree {
    fn name(&self) -> &'static str {
        "fattree"
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
        if self.stages == 1 {
            return 2;
        }
        let j = self.highest_diff_digit(src.idx(), dst.idx());
        if j == 0 {
            2 // same leaf switch
        } else {
            2 + 2 * j as u32
        }
    }

    fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        let (a, b) = (src.idx(), dst.idx());
        if self.stages == 1 {
            out.push(LinkId(a as u32));
            out.push(LinkId(b as u32));
            return;
        }
        // Terminal up.
        out.push(LinkId(a as u32));
        let j = self.highest_diff_digit(a, b);
        if j > 0 {
            // Ascend j layers, setting freed digits to the destination's.
            // Switch digit i corresponds to node digit i+1.
            let mut cur = a / self.k; // leaf switch index of src
            let wb = b / self.k; // leaf switch index of dst
            for l in 0..j {
                let c = (wb / self.kpow[l]) % self.k;
                out.push(self.layer_link(l, cur, c));
                // Update the lower-switch index for the next layer: digit l
                // becomes c (the merged-top transform affects only the upper
                // vertex, not this index arithmetic).
                let low = cur % self.kpow[l];
                let high = cur / self.kpow[l + 1];
                cur = low + c * self.kpow[l] + high * self.kpow[l + 1];
            }
            // Descend along the destination's digits.
            for l in (0..j).rev() {
                let c = (wb / self.kpow[l]) % self.k;
                out.push(self.layer_link(l, wb, c));
            }
        }
        // Terminal down.
        out.push(LinkId(b as u32));
    }

    fn diameter(&self) -> u32 {
        if self.stages == 1 {
            2
        } else {
            2 * self.stages as u32
        }
    }

    fn symmetry_hint(&self) -> Option<SymmetryHint> {
        // Up and down paths read only `a / k` and `b / k`; a one-stage
        // tree is a single switch holding every node.
        Some(SymmetryHint::RouterSymmetric {
            nodes_per_router: if self.stages == 1 {
                self.num_nodes
            } else {
                self.k
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_table2() {
        assert_eq!(FatTree::new(48, 1).capacity(), 48);
        assert_eq!(FatTree::new(48, 2).capacity(), 576);
        assert_eq!(FatTree::new(48, 3).capacity(), 13824);
    }

    #[test]
    fn single_stage_is_two_hops_everywhere() {
        let ft = FatTree::new(48, 1);
        assert_eq!(ft.hops(NodeId(0), NodeId(47)), 2);
        assert_eq!(ft.hops(NodeId(5), NodeId(5)), 0);
        assert_eq!(ft.links().len(), 48);
        assert_eq!(ft.diameter(), 2);
    }

    #[test]
    fn same_leaf_pair_is_two_hops() {
        let ft = FatTree::new(48, 2);
        // nodes 0 and 23 share leaf switch 0 (k = 24).
        assert_eq!(ft.hops(NodeId(0), NodeId(23)), 2);
        // node 24 is on the next leaf.
        assert_eq!(ft.hops(NodeId(0), NodeId(24)), 4);
    }

    #[test]
    fn three_stage_hop_ladder() {
        let ft = FatTree::new(48, 3);
        let k = 24u32;
        assert_eq!(ft.hops(NodeId(0), NodeId(1)), 2); // same leaf
        assert_eq!(ft.hops(NodeId(0), NodeId(k)), 4); // same 2nd-level subtree
        assert_eq!(ft.hops(NodeId(0), NodeId(k * k)), 6); // crosses the top
        assert_eq!(ft.diameter(), 6);
    }

    #[test]
    fn link_count_matches_construction() {
        // s*k^s links: terminal + (s-1) inter-switch layers of k^s each.
        let ft = FatTree::new(48, 2);
        assert_eq!(ft.links().len(), 2 * 576);
        let ft3 = FatTree::new(48, 3);
        assert_eq!(ft3.links().len(), 3 * 13824);
    }

    #[test]
    fn hops_matches_route_length() {
        let ft = FatTree::new(8, 2); // k = 4, 16 nodes — small but multi-stage
        for s in 0..ft.num_nodes() {
            for d in 0..ft.num_nodes() {
                let (s, d) = (NodeId(s as u32), NodeId(d as u32));
                assert_eq!(ft.hops(s, d), ft.route(s, d).len() as u32, "{s}->{d}");
            }
        }
    }

    #[test]
    fn route_is_contiguous_path() {
        let ft = FatTree::new(8, 3); // k = 4, 64 nodes
        for (s, d) in [(0u32, 63u32), (5, 6), (17, 48), (63, 0), (2, 2)] {
            let route = ft.route(NodeId(s), NodeId(d));
            let mut cur = s;
            for lid in route {
                let link = ft.links()[lid.idx()];
                cur = link
                    .other(cur)
                    .unwrap_or_else(|| panic!("broken path {s}->{d} at {lid:?}"));
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn routes_have_no_repeated_links() {
        let ft = FatTree::new(8, 3);
        for s in 0..ft.num_nodes() {
            for d in 0..ft.num_nodes() {
                let route = ft.route(NodeId(s as u32), NodeId(d as u32));
                let mut seen = std::collections::HashSet::new();
                assert!(route.iter().all(|l| seen.insert(*l)), "{s}->{d} repeats");
            }
        }
    }

    #[test]
    fn top_stage_has_half_the_switches() {
        // Count distinct upper vertices of the top layer.
        let ft = FatTree::new(8, 2); // k=4: 4 leaves, top should have 2 switches
        let mut tops = std::collections::HashSet::new();
        for l in ft.links() {
            if l.class == LinkClass::FatTreeStage(0) {
                tops.insert(l.b);
            }
        }
        assert_eq!(tops.len(), 2);
    }

    #[test]
    fn reports_leaf_switch_symmetry() {
        let hint = |ft: FatTree| match ft.symmetry_hint() {
            Some(SymmetryHint::RouterSymmetric { nodes_per_router }) => nodes_per_router,
            None => panic!("fat tree reports no symmetry"),
        };
        assert_eq!(hint(FatTree::new(48, 1)), 48);
        assert_eq!(hint(FatTree::new(48, 2)), 24);
        assert_eq!(hint(FatTree::new(8, 3)), 4);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        FatTree::new(48, 0);
    }
}
