//! The non-temporal network model (§4.2): packet hops, average hops,
//! per-link loads, and network utilization.
//!
//! The model replays an (already collective-translated) traffic matrix
//! through a topology under a rank→node mapping. It is deliberately
//! non-temporal — no congestion, no flow interaction, full capacity for
//! every message — exactly like the paper's model, which makes the derived
//! quantities upper bounds ("static analyses … present an upper limit for
//! the maximum utilization", §8).

use crate::fxhash::FxHashMap;
use crate::traffic::{PairTraffic, TrafficMatrix};
use netloc_topology::{LinkClass, Mapping, NodeId, RoutedTopology, Topology};
use rayon::prelude::*;
use serde::Serialize;

/// Maximum packet payload in bytes (§4.2.1: "MPI messages are split in the
/// according number of packets, with a maximum payload size of 4kB").
pub const PACKET_PAYLOAD: u64 = 4096;

/// Modeled link bandwidth (§4.2.3: "We assume BW = 12GB/s to be realistic
/// for a representative interconnection network").
pub const LINK_BANDWIDTH_BYTES_PER_S: f64 = 12e9;

/// Result of replaying one traffic matrix through one topology/mapping.
///
/// Every field is an exact integer, so `Eq` is meaningful: two replays of
/// the same configuration must agree *byte-identically*, which is what the
/// differential harness in `netloc-testkit` asserts between this module's
/// chunked path and the naive reference replay in [`crate::refmodel`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NetworkReport {
    /// Total packet hops (Eq. 3): every packet contributes its route length.
    pub packet_hops: u128,
    /// Total packets injected.
    pub packets: u64,
    /// Total messages injected.
    pub messages: u64,
    /// Bytes crossing links, `Σ bytes·hops` (the volume links actually
    /// carry; drives the utilization numerator).
    pub link_volume_bytes: u128,
    /// Links that carry at least one byte under this mapping.
    pub used_links: usize,
    /// All links of the topology.
    pub total_links: usize,
    /// Packets whose route crosses at least one dragonfly global link.
    pub global_packets: u64,
    /// Messages whose route crosses at least one dragonfly global link.
    pub global_messages: u64,
    /// Per-link carried bytes, indexed by `LinkId`.
    pub link_loads: Vec<u64>,
    /// Packet count per hop distance (`hop_histogram[h]` = packets whose
    /// route was `h` hops long). The paper reads route-length spreads off
    /// this ("the number of hops can vary from two in the best case to
    /// five in the worst case", §6.2).
    pub hop_histogram: Vec<u64>,
}

impl NetworkReport {
    /// Average hops per packet (Eq. 4). Zero if no packets were injected.
    pub fn avg_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.packet_hops as f64 / self.packets as f64
        }
    }

    /// Network utilization (Eq. 5): the share of `exec_time` during which
    /// the *used* links transmit, `link_volume / (BW · t · used_links)`.
    /// Only links that actually carry data count, as the paper prescribes
    /// for configurations with more nodes than ranks (§4.2.3).
    pub fn utilization(&self, exec_time_s: f64) -> f64 {
        if self.used_links == 0 || exec_time_s <= 0.0 {
            return 0.0;
        }
        self.link_volume_bytes as f64
            / (LINK_BANDWIDTH_BYTES_PER_S * exec_time_s * self.used_links as f64)
    }

    /// Utilization in percent.
    pub fn utilization_pct(&self, exec_time_s: f64) -> f64 {
        100.0 * self.utilization(exec_time_s)
    }

    /// Share of packets that cross a dragonfly global link. Zero for
    /// topologies without global links.
    pub fn global_packet_share(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.global_packets as f64 / self.packets as f64
        }
    }

    /// Share of *messages* that cross a dragonfly global link — the basis
    /// of the paper's "95 % of all messages use a global inter-group link"
    /// observation (§6.2). Zero for topologies without global links.
    pub fn global_message_share(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.global_messages as f64 / self.messages as f64
        }
    }

    /// Maximum per-link load in bytes (a congestion-risk proxy).
    pub fn max_link_load(&self) -> u64 {
        self.link_loads.iter().copied().max().unwrap_or(0)
    }

    /// The smallest hop count within which `share` (0..=1) of the packets
    /// stay — a quantile view of the route-length spread. A share of 0.0
    /// yields the smallest hop count with nonzero packet mass (not hop 0,
    /// which may be an empty histogram bucket).
    pub fn hop_quantile(&self, share: f64) -> Option<u32> {
        assert!((0.0..=1.0).contains(&share));
        if self.packets == 0 {
            return None;
        }
        let target = share * self.packets as f64;
        let mut cum = 0.0;
        for (h, &count) in self.hop_histogram.iter().enumerate() {
            cum += count as f64;
            if cum > 0.0 && cum >= target {
                return Some(h as u32);
            }
        }
        Some(self.hop_histogram.len().saturating_sub(1) as u32)
    }
}

/// Per-chunk replay accumulator; merged pairwise in chunk order, so every
/// field must be a commutative exact sum for the chunked paths to stay
/// byte-identical to the single-threaded reference.
struct Acc {
    packet_hops: u128,
    packets: u64,
    messages: u64,
    link_volume: u128,
    global_packets: u64,
    global_messages: u64,
    loads: Vec<u64>,
    hop_hist: Vec<u64>,
}

impl Acc {
    fn new(num_links: usize) -> Self {
        Acc {
            packet_hops: 0,
            packets: 0,
            messages: 0,
            link_volume: 0,
            global_packets: 0,
            global_messages: 0,
            loads: vec![0; num_links],
            hop_hist: Vec::new(),
        }
    }

    /// Account one pair's traffic along its route.
    #[inline]
    fn visit(&mut self, route: &[netloc_topology::LinkId], p: &PairTraffic, classes: &[LinkClass]) {
        let hops = route.len();
        self.packet_hops += hops as u128 * p.packets as u128;
        self.packets += p.packets;
        self.messages += p.messages;
        self.link_volume += hops as u128 * p.bytes as u128;
        if self.hop_hist.len() <= hops {
            self.hop_hist.resize(hops + 1, 0);
        }
        self.hop_hist[hops] += p.packets;
        if route.iter().any(|l| classes[l.idx()].is_global()) {
            self.global_packets += p.packets;
            self.global_messages += p.messages;
        }
        for l in route {
            self.loads[l.idx()] += p.bytes;
        }
    }

    fn merge(mut self, other: Acc) -> Acc {
        self.packet_hops += other.packet_hops;
        self.packets += other.packets;
        self.messages += other.messages;
        self.link_volume += other.link_volume;
        self.global_packets += other.global_packets;
        self.global_messages += other.global_messages;
        for (a, b) in self.loads.iter_mut().zip(&other.loads) {
            *a += b;
        }
        if self.hop_hist.len() < other.hop_hist.len() {
            self.hop_hist.resize(other.hop_hist.len(), 0);
        }
        for (h, c) in other.hop_hist.iter().enumerate() {
            self.hop_hist[h] += c;
        }
        self
    }

    fn into_report(self, num_links: usize) -> NetworkReport {
        NetworkReport {
            packet_hops: self.packet_hops,
            packets: self.packets,
            messages: self.messages,
            link_volume_bytes: self.link_volume,
            used_links: self.loads.iter().filter(|&&b| b > 0).count(),
            total_links: num_links,
            global_packets: self.global_packets,
            global_messages: self.global_messages,
            link_loads: self.loads,
            hop_histogram: self.hop_hist,
        }
    }
}

/// Collapse the rank-pair matrix to *node-pair* aggregates under `mapping`,
/// sorted by node pair.
///
/// The network model is linear in bytes/packets per route, so replaying
/// each unique node pair once with summed traffic is exactly equivalent to
/// replaying every rank pair — and under multi-rank-per-node (block)
/// mappings many rank pairs collapse onto one node pair, shrinking the
/// replay's working set. Rank pairs mapped to the *same* node are kept:
/// their packets enter the report with an empty route (zero hops), exactly
/// as in the rank-pair replay.
///
/// Aggregation walks the cached [`TrafficMatrix::sorted_pairs`] view (the
/// hash-map collect + sort is paid once per matrix, not per mapping) and
/// picks its strategy from the mapping:
///
/// * **injective** mappings (consecutive, random permutation) cannot merge
///   anything — distinct rank pairs stay distinct — so the pair list is
///   relabeled in place, and re-sorted only when the relabeling is not
///   monotone (consecutive is; a permutation is not);
/// * **many-ranks-per-node** mappings (block, random-block) hash-aggregate
///   into the much smaller node-pair set before the final sort.
///
/// Both strategies end sorted by node pair and all sums are exact
/// integers, so the result never depends on the strategy or hash order.
pub fn node_pair_traffic(mapping: &Mapping, tm: &TrafficMatrix) -> Vec<((u32, u32), PairTraffic)> {
    let relabel = |&((s, d), p): &((u32, u32), PairTraffic)| {
        let key = (mapping.node_of(s as usize).0, mapping.node_of(d as usize).0);
        (key, p)
    };
    let mut v: Vec<((u32, u32), PairTraffic)> = if mapping_is_injective(mapping) {
        tm.sorted_pairs().iter().map(relabel).collect()
    } else {
        let mut acc: FxHashMap<(u32, u32), PairTraffic> = FxHashMap::default();
        for (key, p) in tm.sorted_pairs().iter().map(relabel) {
            let e = acc.entry(key).or_default();
            e.bytes += p.bytes;
            e.messages += p.messages;
            e.packets += p.packets;
        }
        acc.into_iter().collect()
    };
    if !v.is_sorted_by_key(|(k, _)| *k) {
        v.sort_unstable_by_key(|(k, _)| *k);
    }
    v
}

/// True when no two ranks share a node (checked with a node bitset).
fn mapping_is_injective(mapping: &Mapping) -> bool {
    let assignment = mapping.assignment();
    if assignment.len() > mapping.num_nodes() {
        return false;
    }
    let mut seen = vec![0u64; mapping.num_nodes().div_ceil(64)];
    for node in assignment {
        let (w, b) = (node.0 as usize / 64, node.0 as usize % 64);
        if seen[w] >> b & 1 == 1 {
            return false;
        }
        seen[w] |= 1 << b;
    }
    true
}

/// Replay already-aggregated node pairs against the routes of `routed`.
fn replay_node_pairs(
    routed: &RoutedTopology<'_>,
    pairs: &[((u32, u32), PairTraffic)],
    chunk_size: usize,
) -> NetworkReport {
    let topo = routed.topology();
    let classes: Vec<LinkClass> = topo.links().iter().map(|l| l.class).collect();
    let num_links = classes.len();
    let acc = pairs
        .par_chunks(chunk_size)
        .map(|chunk| {
            let mut acc = Acc::new(num_links);
            let mut scratch = Vec::new();
            for ((ns, nd), p) in chunk {
                let route = routed.route_of(NodeId(*ns), NodeId(*nd), &mut scratch);
                acc.visit(route, p, &classes);
            }
            acc
        })
        .reduce(|| Acc::new(num_links), Acc::merge);
    acc.into_report(num_links)
}

fn default_chunk(pairs: usize) -> usize {
    512.max(pairs / 256 + 1)
}

fn assert_mapping_covers(mapping: &Mapping, tm: &TrafficMatrix) {
    assert!(
        mapping.num_ranks() >= tm.num_ranks() as usize,
        "mapping covers {} ranks, traffic matrix has {}",
        mapping.num_ranks(),
        tm.num_ranks()
    );
}

/// Replay `tm` through `topo` under `mapping` and account every packet.
///
/// Ranks beyond the mapping are rejected by a panic (the mapping must cover
/// all ranks of the matrix). Pairs mapped to the same node contribute
/// packets with zero hops (they never enter the network), which only occurs
/// with multi-rank-per-node mappings.
///
/// This one-shot entry point routes on demand (no table build). Sweeps that
/// replay one topology many times should build a [`RoutedTopology`] once
/// and call [`analyze_network_routed`] — or use [`crate::sweep`].
pub fn analyze_network(
    topo: &dyn Topology,
    mapping: &Mapping,
    tm: &TrafficMatrix,
) -> NetworkReport {
    analyze_network_routed(&RoutedTopology::direct(topo), mapping, tm)
}

/// Replay against precomputed (or on-demand) routes: collapse the matrix to
/// node pairs, then walk each unique pair's CSR route once.
pub fn analyze_network_routed(
    routed: &RoutedTopology<'_>,
    mapping: &Mapping,
    tm: &TrafficMatrix,
) -> NetworkReport {
    assert_mapping_covers(mapping, tm);
    let pairs = node_pair_traffic(mapping, tm);
    replay_node_pairs(routed, &pairs, default_chunk(pairs.len()))
}

/// [`analyze_network_routed`] with an explicit parallel chunk size.
///
/// The report must not depend on how the pair list is split across workers;
/// exposing the chunk size lets the test harness assert exactly that.
pub fn analyze_network_routed_chunked(
    routed: &RoutedTopology<'_>,
    mapping: &Mapping,
    tm: &TrafficMatrix,
    chunk_size: usize,
) -> NetworkReport {
    assert!(chunk_size > 0, "chunk size must be non-zero");
    assert_mapping_covers(mapping, tm);
    let pairs = node_pair_traffic(mapping, tm);
    replay_node_pairs(routed, &pairs, chunk_size)
}

/// The pre-route-table replay, kept as the benchmark baseline: collects and
/// sorts the rank-pair list on every call, relabels it to node ids without
/// merging, and recomputes every route with [`Topology::route_into`] per
/// *rank* pair (no node-pair deduplication, no CSR lookups). Byte-identical
/// to the node-pair paths; `repro bench` measures the CSR replay's speedup
/// against it.
pub fn analyze_network_rank_pairs(
    topo: &dyn Topology,
    mapping: &Mapping,
    tm: &TrafficMatrix,
    chunk_size: usize,
) -> NetworkReport {
    assert!(chunk_size > 0, "chunk size must be non-zero");
    assert_mapping_covers(mapping, tm);
    let mut pairs: Vec<((u32, u32), PairTraffic)> = tm.iter().map(|(k, p)| (*k, *p)).collect();
    pairs.sort_unstable_by_key(|(k, _)| *k);
    for ((src, dst), _) in &mut pairs {
        (*src, *dst) = (
            mapping.node_of(*src as usize).0,
            mapping.node_of(*dst as usize).0,
        );
    }
    replay_node_pairs(&RoutedTopology::direct(topo), &pairs, chunk_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netloc_topology::{Dragonfly, FatTree, Torus3D};

    fn ring_tm(n: u32, bytes: u64) -> TrafficMatrix {
        let mut tm = TrafficMatrix::new(n);
        for r in 0..n {
            tm.record(r, (r + 1) % n, bytes, 1);
        }
        tm
    }

    #[test]
    fn torus_ring_traffic_hops() {
        let topo = Torus3D::new([4, 1, 1]);
        let m = Mapping::consecutive(4, 4);
        let tm = ring_tm(4, 100);
        let rep = analyze_network(&topo, &m, &tm);
        // ring on a ring: every message is one hop, one packet.
        assert_eq!(rep.packets, 4);
        assert_eq!(rep.packet_hops, 4);
        assert_eq!(rep.avg_hops(), 1.0);
        assert_eq!(rep.link_volume_bytes, 400);
        assert_eq!(rep.used_links, 4);
    }

    #[test]
    fn fat_tree_counts_two_hops_within_leaf() {
        let topo = FatTree::new(48, 1);
        let m = Mapping::consecutive(8, 48);
        let tm = ring_tm(8, PACKET_PAYLOAD * 2); // 2 packets per message
        let rep = analyze_network(&topo, &m, &tm);
        assert_eq!(rep.packets, 16);
        assert_eq!(rep.avg_hops(), 2.0);
        assert_eq!(rep.packet_hops, 32);
        // only the 8 terminal links of the mapped nodes are used
        assert_eq!(rep.used_links, 8);
        assert_eq!(rep.total_links, 48);
    }

    #[test]
    fn utilization_matches_hand_computation() {
        let topo = Torus3D::new([4, 1, 1]);
        let m = Mapping::consecutive(4, 4);
        let tm = ring_tm(4, 100);
        let rep = analyze_network(&topo, &m, &tm);
        // util = 400 / (12e9 * 2s * 4 links)
        let expected = 400.0 / (12e9 * 2.0 * 4.0);
        assert!((rep.utilization(2.0) - expected).abs() < 1e-18);
        assert_eq!(rep.utilization(0.0), 0.0);
    }

    #[test]
    fn dragonfly_reports_global_share() {
        let topo = Dragonfly::new(4, 2, 2);
        let m = Mapping::consecutive(72, 72);
        // all-pairs-lite: rank 0 to everyone
        let mut tm = TrafficMatrix::new(72);
        for d in 1..72 {
            tm.record(0, d, 10, 1);
        }
        let rep = analyze_network(&topo, &m, &tm);
        // 7 destinations share group 0; 64 cross groups.
        assert_eq!(rep.global_packets, 64);
        assert!((rep.global_packet_share() - 64.0 / 71.0).abs() < 1e-12);
    }

    #[test]
    fn same_node_pairs_cost_zero_hops() {
        // Two ranks mapped to the same node via a 2-rank "mapping" is not
        // allowed (mappings are injective); emulate with an empty route by
        // traffic between a rank and itself, which the matrix drops.
        let mut tm = TrafficMatrix::new(4);
        tm.record(1, 1, 100, 1);
        let topo = Torus3D::new([2, 2, 1]);
        let m = Mapping::consecutive(4, 4);
        let rep = analyze_network(&topo, &m, &tm);
        assert_eq!(rep.packets, 0);
        assert_eq!(rep.avg_hops(), 0.0);
    }

    #[test]
    fn link_loads_sum_to_link_volume() {
        let topo = Torus3D::new([3, 3, 3]);
        let m = Mapping::consecutive(27, 27);
        let mut tm = TrafficMatrix::new(27);
        for r in 0..27u32 {
            tm.record(r, (r * 7 + 3) % 27, 1000 + r as u64, 2);
        }
        let rep = analyze_network(&topo, &m, &tm);
        let sum: u128 = rep.link_loads.iter().map(|&b| b as u128).sum();
        assert_eq!(sum, rep.link_volume_bytes);
        assert!(rep.max_link_load() > 0);
    }

    #[test]
    fn unused_nodes_do_not_contribute_used_links() {
        // 8 ranks consecutively on a 72-node dragonfly: only group 0 used.
        let topo = Dragonfly::new(4, 2, 2);
        let m = Mapping::consecutive(8, 72);
        let tm = ring_tm(8, 50);
        let rep = analyze_network(&topo, &m, &tm);
        assert!(rep.used_links < rep.total_links / 2);
        assert_eq!(rep.global_packets, 0); // 8 ranks fit one group
    }

    #[test]
    fn hop_histogram_sums_to_packets() {
        let topo = Torus3D::new([3, 3, 3]);
        let m = Mapping::consecutive(27, 27);
        let mut tm = TrafficMatrix::new(27);
        for r in 0..27u32 {
            tm.record(r, (r * 5 + 1) % 27, 9000, 3);
        }
        let rep = analyze_network(&topo, &m, &tm);
        assert_eq!(rep.hop_histogram.iter().sum::<u64>(), rep.packets);
        let weighted: u128 = rep
            .hop_histogram
            .iter()
            .enumerate()
            .map(|(h, &c)| h as u128 * c as u128)
            .sum();
        assert_eq!(weighted, rep.packet_hops);
    }

    #[test]
    fn hop_quantile_brackets_avg() {
        let topo = Torus3D::new([4, 4, 4]);
        let m = Mapping::consecutive(64, 64);
        let mut tm = TrafficMatrix::new(64);
        for r in 0..64u32 {
            tm.record(r, 63 - r, 100, 1);
        }
        let rep = analyze_network(&topo, &m, &tm);
        let q0 = rep.hop_quantile(0.0).unwrap();
        let q50 = rep.hop_quantile(0.5).unwrap();
        let q100 = rep.hop_quantile(1.0).unwrap();
        assert!(q0 <= q50 && q50 <= q100);
        assert!(q100 as usize == rep.hop_histogram.len() - 1);
        // empty report has no quantiles
        let empty = analyze_network(&topo, &m, &TrafficMatrix::new(64));
        assert_eq!(empty.hop_quantile(0.5), None);
    }

    #[test]
    fn hop_quantile_zero_skips_empty_buckets() {
        // 4-node ring, neighbor traffic only: every route is exactly one
        // hop, so hop_histogram[0] == 0 and the 0-quantile must be 1.
        let topo = Torus3D::new([4, 1, 1]);
        let m = Mapping::consecutive(4, 4);
        let mut tm = TrafficMatrix::new(4);
        for r in 0..4u32 {
            tm.record(r, (r + 1) % 4, 64, 1);
        }
        let rep = analyze_network(&topo, &m, &tm);
        assert_eq!(rep.hop_histogram[0], 0);
        assert_eq!(rep.hop_quantile(0.0), Some(1));
    }

    #[test]
    fn block_mapping_collapses_rank_pairs_to_node_pairs() {
        // 8 ranks, 4 cores per node: ranks 0..4 on node 0, 4..8 on node 1.
        let m = Mapping::block(8, 4, 8);
        let mut tm = TrafficMatrix::new(8);
        for s in 0..8u32 {
            for d in 0..8u32 {
                if s != d {
                    tm.record(s, d, 100, 1);
                }
            }
        }
        let pairs = node_pair_traffic(&m, &tm);
        // 56 rank pairs collapse to 4 node pairs: (0,0), (0,1), (1,0), (1,1).
        assert_eq!(pairs.len(), 4);
        assert_eq!(
            pairs.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (1, 0), (1, 1)]
        );
        // Same-node pairs survive with their packets (replayed at 0 hops).
        let same: u64 = pairs
            .iter()
            .filter(|((a, b), _)| a == b)
            .map(|(_, p)| p.packets)
            .sum();
        assert_eq!(same, 2 * 4 * 3); // 12 intra-node rank pairs per node
        let total: u64 = pairs.iter().map(|(_, p)| p.packets).sum();
        assert_eq!(total, tm.total_packets());
    }

    #[test]
    fn routed_paths_match_rank_pair_baseline() {
        let topo = Dragonfly::new(4, 2, 2);
        let mut tm = TrafficMatrix::new(72);
        for r in 0..72u32 {
            tm.record(r, (r * 31 + 5) % 72, 3000 + r as u64, 1 + r as u64 % 3);
        }
        for mapping in [Mapping::consecutive(72, 72), Mapping::block(72, 4, 72)] {
            let baseline = analyze_network_rank_pairs(&topo, &mapping, &tm, 64);
            let dense = RoutedTopology::dense(&topo);
            let auto = RoutedTopology::auto(&topo);
            assert_eq!(analyze_network(&topo, &mapping, &tm), baseline);
            assert_eq!(analyze_network_routed(&dense, &mapping, &tm), baseline);
            assert_eq!(analyze_network_routed(&auto, &mapping, &tm), baseline);
            for chunk in [1, 7, 1024] {
                assert_eq!(
                    analyze_network_routed_chunked(&dense, &mapping, &tm, chunk),
                    baseline
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "mapping covers")]
    fn undersized_mapping_panics() {
        let topo = Torus3D::new([2, 2, 2]);
        let m = Mapping::consecutive(4, 8);
        let tm = ring_tm(8, 1);
        analyze_network(&topo, &m, &tm);
    }
}
