//! Seeded input generators. The same seed always yields the same inputs;
//! sizes are fixed, so seeds change only which ranks talk and how much.

use netloc_mpi::{CollectiveOp, Payload, Rank, Trace, TraceBuilder};
use netloc_workloads::gen::seeded::{self, SeededPattern};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A paper-shaped trace (Table 1): 85 % of sends go to one of the six
/// 3D-lattice halo neighbours, the rest are long-range, and every 200th
/// event (0.5 %) is a small synchronizing collective. Sizes and repeats
/// vary so decoders see realistic field distributions.
pub fn stencil_trace(app: &str, ranks: u32, events: usize, seed: u64) -> Trace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = TraceBuilder::new(app, ranks).exec_time_s(12.5);
    let colls = [
        CollectiveOp::Allreduce,
        CollectiveOp::Bcast,
        CollectiveOp::Barrier,
    ];
    let side = f64::from(ranks).cbrt().round().max(2.0) as i64;
    let offsets = [1i64, -1, side, -side, side * side, -(side * side)];
    for i in 0..events {
        if i % 200 == 199 {
            let op = colls[rng.gen_range(0..colls.len())];
            b.collective(
                op,
                op.is_rooted().then(|| rng.gen_range(0..ranks) as usize),
                Payload::Uniform(rng.gen_range(8u64..65_536)),
                rng.gen_range(1u64..4),
            );
        } else {
            let src = rng.gen_range(0..ranks);
            let dst = if rng.gen_range(0u32..100) < 85 {
                let d = i64::from(src) + offsets[rng.gen_range(0..offsets.len())];
                d.rem_euclid(i64::from(ranks)) as u32
            } else {
                rng.gen_range(0..ranks)
            };
            b.send(
                Rank(src),
                Rank(dst),
                rng.gen_range(1u64..1_000_000),
                rng.gen_range(1u64..8),
            );
        }
    }
    b.build()
}

/// Dense all-to-all: every ordered rank pair exchanges one seeded-size
/// message, so every node pair of the mapping carries traffic.
pub fn all_to_all(ranks: u32, seed: u64) -> Trace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = TraceBuilder::new(format!("alltoall_{ranks}"), ranks).exec_time_s(1.0);
    for src in 0..ranks {
        for dst in (0..ranks).filter(|&d| d != src) {
            b.send(Rank(src), Rank(dst), rng.gen_range(1024u64..65_536), 1);
        }
    }
    b.build()
}

/// The grid's traffic axis: one dense and two sparse patterns.
pub fn grid_traffic(ranks: u32, seed: u64) -> Vec<(&'static str, Trace)> {
    vec![
        ("alltoall", all_to_all(ranks, seed)),
        (
            "transpose",
            seeded::generate(SeededPattern::Transpose, ranks, seed),
        ),
        (
            "random_pairs",
            seeded::generate(SeededPattern::RandomPairs, ranks, seed),
        ),
    ]
}
