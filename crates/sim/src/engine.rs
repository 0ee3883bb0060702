//! The temporal simulation engine.
//!
//! ## One in-order pass over CSR slot lists
//!
//! Injections are retired one at a time in the canonical order
//! ([`Injection::canonical_cmp`]); each message's outcome is folded into
//! the report the moment it retires (`report::ReportAcc`), so no per-message
//! outcome array is kept. Input that is already canonical — as
//! [`expand_trace`] output always is — is borrowed, not copied and
//! re-sorted.
//!
//! Every message's route is translated into directed-link *slots*
//! (`2·link + direction`) from the precomputed CSR route tables
//! ([`RoutedTopology`]), in batches of [`SimExec::window`] injections:
//!
//! * on machines small enough for a dense (src node × dst node) pair
//!   index, each unique pair's slot chain is resolved **once** into an
//!   arena that persists across batches, and a batch only looks its
//!   pairs up — the node-pair deduplication of the static replay carried
//!   over to the temporal engine;
//! * larger machines walk each batch's routes afresh, split over
//!   [`SimExec::workers`] threads and concatenated in order.
//!
//! The result is **byte-identical** to
//! [`crate::refsim::simulate_reference`] at every worker count and
//! window size, which `netloc-testkit`'s sim oracle and `repro
//! bench-sim` assert before any timing. The speedup over the reference
//! comes from CSR route lookups and the pair arena replacing per-message
//! routing arithmetic.
//!
//! Earlier versions retired each window's messages concurrently under a
//! per-slot dependency DAG drained by a worker pool. On a 2-core machine
//! that pool was 1.8–3.2× slower than the same engine retiring in order
//! (best of 3 on the 1.05M-injection `repro bench-sim` inputs, e.g.
//! 0.57 s against 0.24 s on the torus): the kernel does a handful of
//! float operations per hop, less than the chaining sweep, atomic
//! dependency counts and queue traffic each message cost. It was removed.

use crate::expand::{canonicalize, expand_trace, Injection};
use crate::kernel::{process_message, slots_of_route, SlotState};
use crate::report::{ReportAcc, SimReport};
use crate::windows::WindowGrid;
use netloc_core::netmodel::LINK_BANDWIDTH_BYTES_PER_S;
use netloc_mpi::Trace;
use netloc_topology::{Link, LinkId, Mapping, RoutedTopology, Topology};
use rayon::prelude::*;
use std::borrow::Cow;

/// How messages occupy the links of their route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Forwarding {
    /// Store-and-forward at message granularity: the message fully
    /// serializes on each link in turn. Pessimistic latency (multiplies by
    /// hop count), matches classic SAF switches.
    #[default]
    StoreAndForward,
    /// Cut-through/wormhole approximation: the message reserves its whole
    /// route from the time every link is free and pipelines through it —
    /// one serialization plus a per-hop header latency. Optimistic
    /// (circuit-like) but the right model for modern HPC switches.
    CutThrough,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Link bandwidth in bytes/s (paper default: 12 GB/s).
    pub bandwidth: f64,
    /// Per-hop fixed latency in seconds (switching + wire). The paper's
    /// static model has no latency constant; a small value keeps ordering
    /// effects realistic without dominating the bandwidth term.
    pub hop_latency_s: f64,
    /// Cap on expanded injections; see [`expand_trace`] for how a larger
    /// trace is strided and then truncated.
    pub max_injections: usize,
    /// Optional explicit rank→node mapping; consecutive if `None`.
    pub mapping: Option<Mapping>,
    /// Link-occupancy model.
    pub forwarding: Forwarding,
    /// Number of report windows the injection horizon is cut into for
    /// per-window utilization and slowdown statistics (0 disables them).
    pub report_windows: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            bandwidth: LINK_BANDWIDTH_BYTES_PER_S,
            hop_latency_s: 100e-9,
            max_injections: 2_000_000,
            mapping: None,
            forwarding: Forwarding::StoreAndForward,
            report_windows: 32,
        }
    }
}

/// Execution strategy of [`simulate_parallel`]. The results are invariant
/// to every field — these trade wall-clock time and scratch memory only.
/// The default (all zeros) means "auto": rayon's worker cap and
/// [`DEFAULT_WINDOW_INJECTIONS`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimExec {
    /// Threads that walk a batch's routes on machines too large for the
    /// dense pair index; 0 picks the rayon worker cap
    /// ([`rayon::max_workers`]). Messages always retire on one thread.
    pub workers: usize,
    /// Injections per batch whose slot lists are resolved together; 0
    /// picks [`DEFAULT_WINDOW_INJECTIONS`].
    pub window: usize,
}

/// Default injections per slot-resolution batch: large enough that a
/// batch's route walks split well over threads, small enough that the
/// batch's slot lists stay in cache.
pub const DEFAULT_WINDOW_INJECTIONS: usize = 65_536;

/// Cap on the dense (src node × dst node) pair-index size, in entries
/// (16 MiB of `u32`). Machines under the cap get node-pair deduplicated
/// slot lists; larger ones walk every batch's routes.
const PAIR_INDEX_CAP: usize = 1 << 22;

/// Node-pair deduplicated slot lists: every unique (src node, dst node)
/// pair's directed-link slot chain lives once in `arena`. The slot
/// *values* are exactly what [`slots_of_route`] produces, so sharing them
/// cannot perturb a single bit of the simulation.
struct PairArena {
    num_nodes: usize,
    /// Dense pair index → id into `offs`; `u32::MAX` when unresolved.
    index: Vec<u32>,
    /// Pair `id`'s chain is `arena[offs[id]..offs[id + 1]]`.
    offs: Vec<u32>,
    /// Concatenated slot chains, one per unique pair.
    arena: Vec<u32>,
    scratch: Vec<LinkId>,
}

impl PairArena {
    /// An empty arena, or `None` when the machine is too large for the
    /// dense pair index.
    fn new(num_nodes: usize) -> Option<Self> {
        let pairs = num_nodes.checked_mul(num_nodes)?;
        (pairs <= PAIR_INDEX_CAP).then(|| PairArena {
            num_nodes,
            index: vec![u32::MAX; pairs],
            offs: vec![0],
            arena: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Push every message's `(start, len)` range into the arena onto
    /// `ranges`, resolving pairs seen for the first time.
    fn resolve(
        &mut self,
        batch: &[Injection],
        mapping: &Mapping,
        routed: &RoutedTopology<'_>,
        links: &[Link],
        ranges: &mut Vec<(u32, u32)>,
    ) {
        for m in batch {
            let (ns, nd) = (
                mapping.node_of(m.src as usize),
                mapping.node_of(m.dst as usize),
            );
            let key = ns.0 as usize * self.num_nodes + nd.0 as usize;
            let mut id = self.index[key];
            if id == u32::MAX {
                let route = routed.route_of(ns, nd, &mut self.scratch);
                slots_of_route(route, links, ns.0, &mut self.arena);
                self.offs.push(self.arena.len() as u32);
                id = (self.offs.len() - 2) as u32;
                self.index[key] = id;
            }
            let start = self.offs[id as usize];
            ranges.push((start, self.offs[id as usize + 1] - start));
        }
    }
}

/// Simulate a list of injections over precomputed routes.
///
/// See the module docs for the in-order pass. The report is
/// byte-identical to [`crate::simulate_reference`] for every `exec`
/// (worker count and window size) and every supplied injection order —
/// both engines process the canonical order.
pub fn simulate_parallel(
    routed: &RoutedTopology<'_>,
    mapping: &Mapping,
    injections: &[Injection],
    cfg: &SimConfig,
    exec: &SimExec,
) -> SimReport {
    let topo = routed.topology();
    let links = topo.links();
    let inj: Cow<'_, [Injection]> = if injections.is_sorted_by(|a, b| a.canonical_cmp(b).is_le()) {
        Cow::Borrowed(injections)
    } else {
        Cow::Owned(canonicalize(injections))
    };
    let n = inj.len();

    let horizon = inj.last().map(|i| i.time).unwrap_or(0.0);
    let wcount = if n == 0 { 0 } else { cfg.report_windows };
    let mut st = SlotState::new(links.len(), WindowGrid::covering(horizon, wcount));
    let mut acc = ReportAcc::new(&st.grid);

    let window = if exec.window == 0 {
        DEFAULT_WINDOW_INJECTIONS
    } else {
        exec.window
    };
    let workers = if exec.workers == 0 {
        rayon::max_workers()
    } else {
        exec.workers
    };
    let mut pairs = PairArena::new(topo.num_nodes());
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(window.min(n));
    for batch in inj.chunks(window) {
        ranges.clear();
        let walked;
        let slots: &[u32] = match &mut pairs {
            Some(p) => {
                p.resolve(batch, mapping, routed, links, &mut ranges);
                &p.arena
            }
            None => {
                walked = walk_slot_lists(batch, mapping, routed, links, workers, &mut ranges);
                &walked
            }
        };
        for (m, &(start, len)) in batch.iter().zip(&ranges) {
            let slots = &slots[start as usize..(start + len) as usize];
            let out = process_message(m, slots, cfg, &mut st);
            acc.add(m, &out);
        }
    }
    acc.finish(&st)
}

/// Walk every message of `batch` to its directed-link slot list, reading
/// routes from the precomputed tables: returns the concatenated lists
/// and pushes each message's `(start, len)` onto `ranges`. The batch is
/// split over `workers` threads and concatenated in order — the lists
/// are identical to a sequential walk.
fn walk_slot_lists(
    batch: &[Injection],
    mapping: &Mapping,
    routed: &RoutedTopology<'_>,
    links: &[Link],
    workers: usize,
    ranges: &mut Vec<(u32, u32)>,
) -> Vec<u32> {
    let per_msg = |msgs: &[Injection]| {
        let mut scratch = Vec::new();
        let mut lens: Vec<u32> = Vec::with_capacity(msgs.len());
        let mut slots: Vec<u32> = Vec::new();
        for m in msgs {
            let (ns, nd) = (
                mapping.node_of(m.src as usize),
                mapping.node_of(m.dst as usize),
            );
            let route = routed.route_of(ns, nd, &mut scratch);
            let before = slots.len();
            slots_of_route(route, links, ns.0, &mut slots);
            lens.push((slots.len() - before) as u32);
        }
        (lens, slots)
    };
    let (lens, slots) = if workers > 1 {
        batch
            .par_chunks(batch.len().div_ceil(workers))
            .map(per_msg)
            .reduce(
                || (Vec::new(), Vec::new()),
                |mut a, mut b| {
                    a.0.append(&mut b.0);
                    a.1.append(&mut b.1);
                    a
                },
            )
    } else {
        per_msg(batch)
    };
    let mut start = 0u32;
    for len in lens {
        ranges.push((start, len));
        start += len;
    }
    slots
}

/// Simulate a list of injections over a topology.
///
/// Store-and-forward at message granularity: a message traverses its route
/// link by link; on each link it waits until the link is free, then
/// occupies it for `bytes / bandwidth + hop_latency` seconds. Links are
/// full-duplex but serve one message at a time per direction — modeled as
/// one queue per (link, direction).
///
/// This is the convenience entry point: it precomputes routes
/// ([`RoutedTopology::auto`]) and runs [`simulate_parallel`] with the
/// default execution strategy. Results are byte-identical to
/// [`crate::simulate_reference`].
pub fn simulate(
    topo: &dyn Topology,
    mapping: &Mapping,
    injections: &[Injection],
    cfg: &SimConfig,
) -> SimReport {
    let routed = RoutedTopology::auto(topo);
    simulate_parallel(&routed, mapping, injections, cfg, &SimExec::default())
}

/// Expand a trace and simulate it over `topo` with the consecutive mapping
/// (or `cfg.mapping` when provided).
pub fn simulate_trace(trace: &Trace, topo: &dyn Topology, cfg: &SimConfig) -> SimReport {
    let (injections, stride) = expand_trace(trace, cfg.max_injections);
    let mapping = cfg
        .mapping
        .clone()
        .unwrap_or_else(|| Mapping::consecutive(trace.num_ranks as usize, topo.num_nodes()));
    let mut report = simulate(topo, &mapping, &injections, cfg);
    report.sample_stride = stride;
    report
}

/// Uncontended completion time of one message (for reference calculations):
/// `hops · (bytes/BW + hop_latency)`.
pub fn uncontended_latency(hops: u32, bytes: u64, cfg: &SimConfig) -> f64 {
    hops as f64 * (bytes as f64 / cfg.bandwidth + cfg.hop_latency_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refsim::simulate_reference;
    use netloc_topology::Torus3D;

    fn line4() -> Torus3D {
        Torus3D::new([4, 1, 1])
    }

    fn cfg() -> SimConfig {
        SimConfig {
            bandwidth: 1e9,
            hop_latency_s: 0.0,
            max_injections: 1_000_000,
            mapping: None,
            forwarding: Forwarding::StoreAndForward,
            report_windows: 8,
        }
    }

    fn inj(time: f64, src: u32, dst: u32, bytes: u64) -> Injection {
        Injection {
            time,
            src,
            dst,
            bytes,
        }
    }

    #[test]
    fn single_message_latency_is_hops_times_serialization() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        // 0 -> 2: 2 hops; 1e9 bytes at 1e9 B/s = 1 s per hop.
        let r = simulate(&topo, &m, &[inj(0.0, 0, 2, 1_000_000_000)], &cfg());
        assert_eq!(r.messages, 1);
        assert!((r.mean_latency_s - 2.0).abs() < 1e-9);
        assert!((r.max_latency_s - 2.0).abs() < 1e-9);
        assert_eq!(r.mean_queueing_s, 0.0);
    }

    #[test]
    fn shared_link_serializes() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        // Two messages over the same first link at the same instant.
        let msgs = [inj(0.0, 0, 1, 1_000_000_000), inj(0.0, 0, 1, 1_000_000_000)];
        let r = simulate(&topo, &m, &msgs, &cfg());
        // first: 1 s; second waits 1 s then takes 1 s.
        assert!((r.max_latency_s - 2.0).abs() < 1e-9);
        assert!((r.total_queueing_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_routes_do_not_interact() {
        let topo = Torus3D::new([8, 1, 1]);
        let m = Mapping::consecutive(8, 8);
        let msgs = [inj(0.0, 0, 1, 1_000_000_000), inj(0.0, 4, 5, 1_000_000_000)];
        let r = simulate(&topo, &m, &msgs, &cfg());
        assert_eq!(r.total_queueing_s, 0.0);
        assert!((r.max_latency_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn opposite_directions_share_nothing() {
        // Full-duplex: 0->1 and 1->0 at the same time don't queue.
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let msgs = [inj(0.0, 0, 1, 1_000_000_000), inj(0.0, 1, 0, 1_000_000_000)];
        let r = simulate(&topo, &m, &msgs, &cfg());
        assert_eq!(r.total_queueing_s, 0.0);
    }

    #[test]
    fn hotspot_queueing_grows_linearly() {
        // n-1 senders to one destination: the terminal-ish last link (the
        // ring link into node 0) serializes everything arriving there.
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let msgs: Vec<Injection> = (1..4).map(|s| inj(0.0, s, 0, 1_000_000_000)).collect();
        let r = simulate(&topo, &m, &msgs, &cfg());
        assert!(r.total_queueing_s > 0.0);
        assert!(r.makespan_s >= 2.0);
    }

    #[test]
    fn busy_time_equals_serialization_sum() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let msgs = [inj(0.0, 0, 2, 500_000_000), inj(0.5, 1, 3, 250_000_000)];
        let r = simulate(&topo, &m, &msgs, &cfg());
        // total busy = Σ hops·serialize = 2·0.5 + 2·0.25 = 1.5 link-seconds
        assert!((r.total_busy_link_s - 1.5).abs() < 1e-9);
        assert!(r.peak_link_busy_s <= r.makespan_s + 1e-12);
        // ...and offered equals busy: all demanded work was performed.
        assert!((r.total_offered_link_s - r.total_busy_link_s).abs() < 1e-9);
    }

    #[test]
    fn cut_through_pipelines_multihop_messages() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let mut c = cfg();
        c.forwarding = Forwarding::CutThrough;
        // 0 -> 2: two hops, but the payload serializes once: 1 s total.
        let r = simulate(&topo, &m, &[inj(0.0, 0, 2, 1_000_000_000)], &c);
        assert!((r.mean_latency_s - 1.0).abs() < 1e-9);
        // store-and-forward takes 2 s for the same message
        let saf = simulate(&topo, &m, &[inj(0.0, 0, 2, 1_000_000_000)], &cfg());
        assert!(saf.mean_latency_s > r.mean_latency_s);
    }

    #[test]
    fn cut_through_still_serializes_shared_links() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let mut c = cfg();
        c.forwarding = Forwarding::CutThrough;
        let msgs = [inj(0.0, 0, 1, 1_000_000_000), inj(0.0, 0, 1, 1_000_000_000)];
        let r = simulate(&topo, &m, &msgs, &c);
        assert!((r.max_latency_s - 2.0).abs() < 1e-9);
        assert!((r.total_queueing_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hop_latency_adds_per_hop() {
        let topo = line4();
        let m = Mapping::consecutive(4, 4);
        let mut c = cfg();
        c.hop_latency_s = 0.25;
        let r = simulate(&topo, &m, &[inj(0.0, 0, 2, 1_000_000_000)], &c);
        assert!((r.mean_latency_s - 2.5).abs() < 1e-9);
    }

    /// A deterministic seeded mix of point-to-point messages with enough
    /// volume to span several slot-resolution batches.
    fn crowded(n: usize, ranks: u32) -> Vec<Injection> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let src = (x >> 32) as u32 % ranks;
                let mut dst = (x >> 11) as u32 % ranks;
                if dst == src {
                    dst = (dst + 1) % ranks;
                }
                Injection {
                    // Bursts: many ties, short spacing — maximal contention.
                    time: (i as f64 / 50.0).floor() * 1e-5,
                    src,
                    dst,
                    bytes: 1 + (x % 100_000),
                }
            })
            .collect()
    }

    #[test]
    fn parallel_is_byte_identical_to_reference_at_every_worker_and_window() {
        let topo = Torus3D::new([4, 4, 2]);
        let m = Mapping::consecutive(32, 32);
        let msgs = crowded(3_000, 32);
        for forwarding in [Forwarding::StoreAndForward, Forwarding::CutThrough] {
            let mut c = cfg();
            c.forwarding = forwarding;
            c.hop_latency_s = 100e-9;
            let reference = simulate_reference(&topo, &m, &msgs, &c);
            let routed = RoutedTopology::dense(&topo);
            for workers in [1usize, 2, 3, 0] {
                for window in [1usize, 7, 500, 0, usize::MAX] {
                    let exec = SimExec { workers, window };
                    let got = simulate_parallel(&routed, &m, &msgs, &c, &exec);
                    assert_eq!(
                        got, reference,
                        "{forwarding:?} diverged at workers={workers} window={window}"
                    );
                }
            }
        }
    }

    #[test]
    fn results_are_invariant_under_injection_order() {
        let topo = Torus3D::new([3, 3, 3]);
        let m = Mapping::consecutive(27, 27);
        let mut msgs = crowded(1_000, 27);
        let reference = simulate_reference(&topo, &m, &msgs, &cfg());
        msgs.reverse();
        let routed = RoutedTopology::dense(&topo);
        let got = simulate_parallel(&routed, &m, &msgs, &cfg(), &SimExec::default());
        assert_eq!(got, reference);
        assert_eq!(simulate_reference(&topo, &m, &msgs, &cfg()), reference);
    }

    #[test]
    fn route_walks_above_the_pair_index_cap_match_reference() {
        // 2304 nodes: 2304² pairs exceed PAIR_INDEX_CAP, so every batch
        // walks its routes instead of using the pair arena.
        let topo = Torus3D::new([16, 16, 9]);
        assert!(topo.num_nodes() * topo.num_nodes() > PAIR_INDEX_CAP);
        let m = Mapping::consecutive(2304, 2304);
        let msgs = crowded(3_000, 2304);
        let routed = RoutedTopology::auto(&topo);
        for forwarding in [Forwarding::StoreAndForward, Forwarding::CutThrough] {
            let mut c = cfg();
            c.forwarding = forwarding;
            c.hop_latency_s = 100e-9;
            let reference = simulate_reference(&topo, &m, &msgs, &c);
            for workers in [1usize, 2, 0] {
                for window in [1usize, 7, 0] {
                    let exec = SimExec { workers, window };
                    let got = simulate_parallel(&routed, &m, &msgs, &c, &exec);
                    assert_eq!(
                        got, reference,
                        "{forwarding:?} diverged at workers={workers} window={window}"
                    );
                }
            }
            let mut reversed = msgs.clone();
            reversed.reverse();
            let exec = SimExec {
                workers: 2,
                window: 7,
            };
            assert_eq!(
                simulate_parallel(&routed, &m, &reversed, &c, &exec),
                reference,
                "{forwarding:?} diverged on reversed input"
            );
        }
    }

    #[test]
    fn auto_and_dense_storage_agree() {
        let topo = Torus3D::new([4, 4, 1]);
        let m = Mapping::consecutive(16, 16);
        let msgs = crowded(800, 16);
        let dense = RoutedTopology::dense(&topo);
        let auto = RoutedTopology::auto(&topo);
        let exec = SimExec::default();
        assert_eq!(
            simulate_parallel(&dense, &m, &msgs, &cfg(), &exec),
            simulate_parallel(&auto, &m, &msgs, &cfg(), &exec)
        );
    }
}
