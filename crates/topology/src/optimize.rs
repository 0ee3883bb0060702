//! Locality-aware mapping optimization.
//!
//! The paper concludes that "static analyses could assist to select an
//! advanced mapping, which assigns groups of heavily communicating ranks to
//! nearby physical entities" (abstract, §7). This module implements that
//! follow-up: a greedy constructive mapper and a simulated-annealing
//! refinement, both minimizing the hop-weighted traffic volume
//! `Σ bytes(src,dst) · hops(node(src), node(dst))` — exactly the paper's
//! *packet hops* objective up to packetization.

//! Both optimizers query hop distances in their innermost loops, so they
//! take a [`RoutedTopology`] rather than a bare topology: with compressed
//! route storage every `hops` query is a CSR offset difference instead of
//! a route derivation, and the other machines answer it in closed form.
//! The greedy mapper also caches one hop column per placed rank while
//! that rank has unplaced partners. Wrap a topology with
//! [`RoutedTopology::auto`] (or `direct` to opt out of precomputation).

use crate::link::NodeId;
use crate::mapping::Mapping;
use crate::routetable::RoutedTopology;
use rand::Rng;

/// One aggregated traffic entry between two ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficEntry {
    /// Source rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// Total bytes exchanged in this direction.
    pub bytes: u64,
}

/// Hop-weighted traffic cost of a mapping (bytes × hops, summed).
pub fn mapping_cost(
    routed: &RoutedTopology<'_>,
    mapping: &Mapping,
    traffic: &[TrafficEntry],
) -> u128 {
    traffic
        .iter()
        .map(|t| {
            let h = routed.hops(mapping.node_of(t.src), mapping.node_of(t.dst));
            t.bytes as u128 * h as u128
        })
        .sum()
}

/// Greedy constructive mapping: ranks are placed in order of total traffic
/// degree; each rank goes to the free node minimizing the hop-weighted cost
/// to its already-placed partners.
pub fn greedy_mapping(
    routed: &RoutedTopology<'_>,
    num_ranks: usize,
    traffic: &[TrafficEntry],
) -> Mapping {
    let nodes = routed.num_nodes();
    assert!(num_ranks <= nodes);

    // Adjacency with merged both-direction volumes.
    let mut partners: Vec<Vec<(usize, u64)>> = vec![Vec::new(); num_ranks];
    for t in traffic {
        if t.src < num_ranks && t.dst < num_ranks && t.src != t.dst {
            partners[t.src].push((t.dst, t.bytes));
            partners[t.dst].push((t.src, t.bytes));
        }
    }
    let mut degree: Vec<u64> = partners
        .iter()
        .map(|p| p.iter().map(|&(_, b)| b).sum())
        .collect();

    let mut node_of: Vec<Option<NodeId>> = vec![None; num_ranks];
    let mut node_free = vec![true; nodes];
    let mut placed: Vec<usize> = Vec::with_capacity(num_ranks);
    // `hops_to[r][c]` = hops from node `c` to placed rank `r`'s node, kept
    // only while `r` still has unplaced partners (`unplaced[r]` adjacency
    // entries): each placement routes one column of `nodes` queries
    // instead of one query per candidate node and placed partner.
    let mut hops_to: Vec<Vec<u32>> = vec![Vec::new(); num_ranks];
    let mut unplaced: Vec<usize> = partners.iter().map(Vec::len).collect();

    for _ in 0..num_ranks {
        // Next rank: unplaced, maximum traffic to already-placed ranks
        // (falling back to total degree for the seed / isolated ranks).
        let next = (0..num_ranks)
            .filter(|&r| node_of[r].is_none())
            .max_by_key(|&r| {
                let to_placed: u64 = partners[r]
                    .iter()
                    .filter(|&&(p, _)| node_of[p].is_some())
                    .map(|&(_, b)| b)
                    .sum();
                (to_placed, degree[r], std::cmp::Reverse(r))
            })
            .expect("unplaced rank exists");

        // Best free node w.r.t. placed partners.
        let mut best_node = None;
        let mut best_cost = u128::MAX;
        for n in 0..nodes {
            if !node_free[n] {
                continue;
            }
            let cost: u128 = partners[next]
                .iter()
                .filter(|&&(p, _)| node_of[p].is_some())
                .map(|&(p, b)| b as u128 * hops_to[p][n] as u128)
                .sum();
            if cost < best_cost {
                best_cost = cost;
                best_node = Some(n);
            }
        }
        let n = best_node.expect("free node exists");
        node_free[n] = false;
        node_of[next] = Some(NodeId(n as u32));
        placed.push(next);
        degree[next] = 0;
        for &(p, _) in &partners[next] {
            unplaced[p] -= 1;
            if unplaced[p] == 0 {
                hops_to[p] = Vec::new();
            }
        }
        if unplaced[next] > 0 {
            hops_to[next] = (0..nodes)
                .map(|c| routed.hops(NodeId(c as u32), NodeId(n as u32)))
                .collect();
        }
    }

    Mapping::from_assignment(
        node_of
            .into_iter()
            .map(|n| n.expect("all placed"))
            .collect(),
        nodes,
    )
}

/// Parameters of the simulated-annealing refinement.
#[derive(Debug, Clone, Copy)]
pub struct AnnealParams {
    /// Number of proposed rank swaps.
    pub iterations: usize,
    /// Initial temperature as a fraction of the starting cost.
    pub initial_temp_frac: f64,
    /// Multiplicative cooling applied every `iterations / 100` steps.
    pub cooling: f64,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            iterations: 20_000,
            initial_temp_frac: 0.05,
            cooling: 0.95,
        }
    }
}

/// Refine a mapping by simulated annealing over rank swaps.
///
/// Deterministic for a fixed RNG; returns the best mapping encountered.
pub fn anneal_mapping<R: Rng>(
    routed: &RoutedTopology<'_>,
    start: Mapping,
    traffic: &[TrafficEntry],
    params: AnnealParams,
    rng: &mut R,
) -> Mapping {
    let num_ranks = start.num_ranks();
    if num_ranks < 2 {
        return start;
    }
    // Per-rank partner lists for incremental cost deltas.
    let mut partners: Vec<Vec<(usize, u64)>> = vec![Vec::new(); num_ranks];
    for t in traffic {
        if t.src < num_ranks && t.dst < num_ranks && t.src != t.dst {
            partners[t.src].push((t.dst, t.bytes));
            partners[t.dst].push((t.src, t.bytes));
        }
    }
    let rank_cost = |m: &Mapping, r: usize, skip: usize| -> u128 {
        partners[r]
            .iter()
            .filter(|&&(p, _)| p != skip)
            .map(|&(p, b)| b as u128 * routed.hops(m.node_of(r), m.node_of(p)) as u128)
            .sum()
    };

    let mut current = start;
    let mut cost = mapping_cost(routed, &current, traffic);
    let mut best = current.clone();
    let mut best_cost = cost;
    let mut temp = cost as f64 * params.initial_temp_frac / num_ranks as f64;
    let cool_every = (params.iterations / 100).max(1);

    for it in 0..params.iterations {
        let r1 = rng.gen_range(0..num_ranks);
        let r2 = rng.gen_range(0..num_ranks);
        if r1 == r2 {
            continue;
        }
        let before = rank_cost(&current, r1, r2) + rank_cost(&current, r2, r1);
        current.swap_ranks(r1, r2);
        let after = rank_cost(&current, r1, r2) + rank_cost(&current, r2, r1);
        // Partner-pair costs are counted once per endpoint here, so the
        // delta is twice the true delta for shared pairs; the factor is
        // uniform and only scales the acceptance temperature.
        let delta = after as i128 - before as i128;
        let accept =
            delta <= 0 || (temp > 0.0 && rng.gen::<f64>() < (-(delta as f64) / temp).exp());
        if accept {
            cost = (cost as i128 + delta) as u128;
            if cost < best_cost {
                best_cost = cost;
                best = current.clone();
            }
        } else {
            current.swap_ranks(r1, r2); // undo
        }
        if it % cool_every == cool_every - 1 {
            temp *= params.cooling;
        }
    }
    // `cost` drifted by the double-counting factor; recompute for honesty.
    if mapping_cost(routed, &current, traffic) < mapping_cost(routed, &best, traffic) {
        best = current;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Torus3D;
    use rand::SeedableRng;

    /// Ring traffic: rank i talks to rank (i+1) % n.
    fn ring_traffic(n: usize) -> Vec<TrafficEntry> {
        (0..n)
            .map(|i| TrafficEntry {
                src: i,
                dst: (i + 1) % n,
                bytes: 1000,
            })
            .collect()
    }

    #[test]
    fn cost_of_consecutive_ring_on_torus() {
        let t = Torus3D::new([4, 4, 4]);
        let m = Mapping::consecutive(64, 64);
        let traffic = ring_traffic(64);
        let c = mapping_cost(&RoutedTopology::auto(&t), &m, &traffic);
        assert!(c > 0);
        // Cost is a pure function of the mapping — identical across all
        // route storage modes.
        assert_eq!(c, mapping_cost(&RoutedTopology::direct(&t), &m, &traffic));
        assert_eq!(c, mapping_cost(&RoutedTopology::dense(&t), &m, &traffic));
    }

    #[test]
    fn greedy_never_loses_to_random_on_clustered_traffic() {
        let t = Torus3D::new([4, 4, 2]);
        // Two heavy cliques of 4 ranks each.
        let mut traffic = Vec::new();
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        traffic.push(TrafficEntry {
                            src: base + i,
                            dst: base + j,
                            bytes: 10_000,
                        });
                    }
                }
            }
        }
        let rt = RoutedTopology::auto(&t);
        let greedy = greedy_mapping(&rt, 8, &traffic);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let random = Mapping::random(8, 32, &mut rng);
        assert!(mapping_cost(&rt, &greedy, &traffic) <= mapping_cost(&rt, &random, &traffic));
    }

    #[test]
    fn greedy_is_injective_and_complete() {
        let t = Torus3D::new([3, 3, 3]);
        let m = greedy_mapping(&RoutedTopology::auto(&t), 27, &ring_traffic(27));
        let mut nodes: Vec<_> = m.assignment().to_vec();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 27);
    }

    #[test]
    fn annealing_does_not_worsen_best_cost() {
        let t = Torus3D::new([4, 4, 4]);
        let rt = RoutedTopology::auto(&t);
        let traffic = ring_traffic(64);
        let start = Mapping::consecutive(64, 64);
        let start_cost = mapping_cost(&rt, &start, &traffic);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let annealed = anneal_mapping(
            &rt,
            start,
            &traffic,
            AnnealParams {
                iterations: 5_000,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(mapping_cost(&rt, &annealed, &traffic) <= start_cost);
    }

    #[test]
    fn annealing_handles_trivial_instances() {
        let t = Torus3D::new([2, 1, 1]);
        let start = Mapping::consecutive(1, 2);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let m = anneal_mapping(
            &RoutedTopology::direct(&t),
            start.clone(),
            &[],
            AnnealParams::default(),
            &mut rng,
        );
        assert_eq!(m, start);
    }
}
