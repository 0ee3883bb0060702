//! Sweep grids: the paper's mapping schemes and the canonical
//! topology × mapping × workload grid.
//!
//! The paper's results are a static grid — every application trace
//! replayed through 3 topologies × 3 mappings × several machine sizes
//! (§4.2, Tables 4–6). [`MappingSpec`] makes its placement schemes
//! reproducible, and [`GridSpec`] gives a grid the canonical identity that
//! the job subsystem (service `POST /v1/jobs`, `netloc sweep`) shards,
//! reports progress on and resumes by.

use netloc_topology::spec::{MappingSpec as MappingSpecStr, TopologySpec};
use netloc_topology::{Mapping, NodeId};
use rand::{Rng, SeedableRng};

/// How to place ranks on nodes in a sweep cell — the paper's three
/// schemes (§5), made reproducible: the random scheme carries its seed, so
/// a sweep is a pure function of its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingSpec {
    /// Rank `r` on node `r`.
    Consecutive,
    /// `cores` consecutive ranks per node.
    Block {
        /// Ranks per node.
        cores: usize,
    },
    /// A seeded random permutation of the nodes.
    Random {
        /// RNG seed; equal seeds give equal mappings.
        seed: u64,
    },
    /// The paper's multicore random placement: `cores` consecutive ranks
    /// per node, nodes drawn at random (a scattered cluster allocation).
    RandomBlock {
        /// Ranks per node.
        cores: usize,
        /// RNG seed; equal seeds give equal mappings.
        seed: u64,
    },
}

impl MappingSpec {
    /// Short scheme label for reports (`"consecutive"`, `"block4"`,
    /// `"random"`, `"random-block4"`).
    pub fn label(&self) -> String {
        match self {
            MappingSpec::Consecutive => "consecutive".into(),
            MappingSpec::Block { cores } => format!("block{cores}"),
            MappingSpec::Random { .. } => "random".into(),
            MappingSpec::RandomBlock { cores, .. } => format!("random-block{cores}"),
        }
    }

    /// Instantiate the mapping for `ranks` ranks on `nodes` nodes.
    pub fn build(&self, ranks: usize, nodes: usize) -> Mapping {
        match self {
            MappingSpec::Consecutive => Mapping::consecutive(ranks, nodes),
            MappingSpec::Block { cores } => Mapping::block(ranks, *cores, nodes),
            MappingSpec::Random { seed } => {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(*seed);
                Mapping::random(ranks, nodes, &mut rng)
            }
            MappingSpec::RandomBlock { cores, seed } => {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(*seed);
                let needed = ranks.div_ceil(*cores);
                assert!(
                    needed <= nodes,
                    "{ranks} ranks / {cores} per node need {needed} nodes, have {nodes}"
                );
                // Partial Fisher–Yates: the first `needed` entries become a
                // uniform random sample of distinct nodes.
                let mut pool: Vec<u32> = (0..nodes as u32).collect();
                for i in 0..needed {
                    let j = rng.gen_range(i..pool.len());
                    pool.swap(i, j);
                }
                let assignment = (0..ranks).map(|r| NodeId(pool[r / cores])).collect();
                Mapping::from_nodes(assignment, nodes)
            }
        }
    }
}

// ---- persistent sweep grids ------------------------------------------
//
// The job subsystem (service `POST /v1/jobs`, `netloc sweep --remote`)
// needs a grid identity that is *total-ordered and canonical*: every
// instance that receives the same spec — however its axes were spelled
// or ordered — must expand it to the identical cell sequence, because
// cell indices are the unit of sharding, progress reporting, and
// resume-after-SIGKILL. [`GridSpec`] is that identity: axes are parsed,
// rendered to their canonical spec strings, sorted, and deduplicated,
// so the cell at index `i` is the same (topology, mapping, workload)
// everywhere, forever.

/// One fully-expanded cell of a [`GridSpec`]: its global index and the
/// canonical spec strings that identify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridCell {
    /// Global cell index in grid order (topology-major, then mapping,
    /// then workload).
    pub index: u64,
    /// Canonical topology spec string.
    pub topology: String,
    /// Canonical mapping spec string.
    pub mapping: String,
    /// Canonical workload spec string (`"APP NAME:RANKS"`; the caller
    /// canonicalizes the application name before building the grid).
    pub workload: String,
}

/// A canonical topology × mapping × workload grid.
///
/// Construction normalizes each axis (parse → canonical `Display`,
/// sort, dedup), which makes the expansion a pure function of the
/// *meaning* of the spec, not its spelling: `torus:04,4,4` and
/// `torus:4,4,4` land in the same grid slot on every instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    topologies: Vec<String>,
    mappings: Vec<String>,
    workloads: Vec<String>,
}

impl GridSpec {
    /// Parse and canonicalize a grid. Every topology and mapping string
    /// must parse under the shared spec grammar (`auto` is rejected —
    /// a grid mixes rank counts, so there is nothing to resolve it
    /// against); workload strings are taken as given (callers resolve
    /// app names to their canonical form first) but must be non-empty.
    pub fn parse<T, M, W>(topologies: &[T], mappings: &[M], workloads: &[W]) -> Result<Self, String>
    where
        T: AsRef<str>,
        M: AsRef<str>,
        W: AsRef<str>,
    {
        if topologies.is_empty() || mappings.is_empty() || workloads.is_empty() {
            return Err("a grid needs at least one topology, mapping, and workload".into());
        }
        let mut topos = Vec::with_capacity(topologies.len());
        for t in topologies {
            let spec: TopologySpec = t
                .as_ref()
                .parse()
                .map_err(|e| format!("bad topology '{}': {e}", t.as_ref()))?;
            if spec == TopologySpec::Auto {
                return Err("grids need concrete topologies; 'auto' cannot be resolved \
                     against a multi-workload grid"
                    .into());
            }
            topos.push(spec.to_string());
        }
        let mut maps = Vec::with_capacity(mappings.len());
        for m in mappings {
            let spec: MappingSpecStr = m
                .as_ref()
                .parse()
                .map_err(|e| format!("bad mapping '{}': {e}", m.as_ref()))?;
            maps.push(spec.to_string());
        }
        let mut wls = Vec::with_capacity(workloads.len());
        for w in workloads {
            let w = w.as_ref().trim();
            if w.is_empty() {
                return Err("empty workload spec".into());
            }
            wls.push(w.to_string());
        }
        topos.sort();
        topos.dedup();
        maps.sort();
        maps.dedup();
        wls.sort();
        wls.dedup();
        Ok(GridSpec {
            topologies: topos,
            mappings: maps,
            workloads: wls,
        })
    }

    /// Canonical topology spec strings, sorted.
    pub fn topologies(&self) -> &[String] {
        &self.topologies
    }

    /// Canonical mapping spec strings, sorted.
    pub fn mappings(&self) -> &[String] {
        &self.mappings
    }

    /// Canonical workload spec strings, sorted.
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Total cells in the grid.
    pub fn cell_count(&self) -> u64 {
        self.topologies.len() as u64 * self.mappings.len() as u64 * self.workloads.len() as u64
    }

    /// Expand cell `index` (grid order: topology-major, then mapping,
    /// then workload).
    pub fn cell(&self, index: u64) -> Option<GridCell> {
        if index >= self.cell_count() {
            return None;
        }
        let w = self.workloads.len() as u64;
        let m = self.mappings.len() as u64;
        let wi = (index % w) as usize;
        let mi = ((index / w) % m) as usize;
        let ti = (index / (w * m)) as usize;
        Some(GridCell {
            index,
            topology: self.topologies[ti].clone(),
            mapping: self.mappings[mi].clone(),
            workload: self.workloads[wi].clone(),
        })
    }

    /// The global indices assigned to `shard` under a seeded
    /// deterministic partition into `shards` parts, ascending. Every
    /// instance computes the same partition from (seed, shards) alone;
    /// the union over all shards is exactly `0..cell_count()` and the
    /// shards are pairwise disjoint by construction.
    pub fn assigned(&self, seed: u64, shards: u32, shard: u32) -> Vec<u64> {
        (0..self.cell_count())
            .filter(|&i| shard_of(i, seed, shards) == shard)
            .collect()
    }
}

/// Which of `shards` partitions cell `index` belongs to — a pure
/// splitmix64 hash of (seed, index), so assignment is deterministic
/// across instances and uniform enough that shards stay balanced.
pub fn shard_of(index: u64, seed: u64, shards: u32) -> u32 {
    if shards <= 1 {
        return 0;
    }
    (splitmix64(seed ^ splitmix64(index ^ 0x6e65_746c_6f63_5f6a)) % shards as u64) as u32
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_spec_is_seed_deterministic() {
        let a = MappingSpec::Random { seed: 9 }.build(20, 27);
        let b = MappingSpec::Random { seed: 9 }.build(20, 27);
        let c = MappingSpec::Random { seed: 10 }.build(20, 27);
        let nodes = |m: &Mapping| (0..20).map(|r| m.node_of(r)).collect::<Vec<_>>();
        assert_eq!(nodes(&a), nodes(&b));
        assert_ne!(nodes(&a), nodes(&c));
    }

    #[test]
    fn random_block_spec_packs_cores_ranks_per_distinct_node() {
        let spec = MappingSpec::RandomBlock { cores: 4, seed: 3 };
        assert_eq!(spec.label(), "random-block4");
        let m = spec.build(24, 27);
        let mut used = std::collections::BTreeSet::new();
        for chunk in 0..6 {
            let node = m.node_of(chunk * 4);
            for r in chunk * 4..chunk * 4 + 4 {
                assert_eq!(m.node_of(r), node, "rank {r} off its chunk's node");
            }
            assert!(used.insert(node.0), "node {} reused across chunks", node.0);
        }
        let again = MappingSpec::RandomBlock { cores: 4, seed: 3 }.build(24, 27);
        assert_eq!(m.assignment(), again.assignment());
    }

    #[test]
    fn grid_spec_canonicalizes_spelling_and_order() {
        let a = GridSpec::parse(
            &["torus:04,4,4", "dragonfly:4,2,2"],
            &["random", "consecutive"],
            &["B:64", "A:64"],
        )
        .unwrap();
        let b = GridSpec::parse(
            &["dragonfly:4,2,2", "torus:4,4,4", "torus:4,4,4"],
            &["consecutive", "random:0"],
            &["A:64", "B:64", "B:64"],
        )
        .unwrap();
        assert_eq!(a, b, "spelling and order must not matter");
        assert_eq!(a.cell_count(), 2 * 2 * 2);
        let c0 = a.cell(0).unwrap();
        assert_eq!(
            (
                c0.topology.as_str(),
                c0.mapping.as_str(),
                c0.workload.as_str()
            ),
            ("dragonfly:4,2,2", "consecutive", "A:64")
        );
        let last = a.cell(7).unwrap();
        assert_eq!(last.topology, "torus:4,4,4");
        assert_eq!(last.workload, "B:64");
        assert!(a.cell(8).is_none());
    }

    #[test]
    fn grid_spec_rejects_bad_axes() {
        assert!(GridSpec::parse::<&str, &str, &str>(&[], &["consecutive"], &["A:8"]).is_err());
        assert!(GridSpec::parse(&["auto"], &["consecutive"], &["A:8"]).is_err());
        assert!(GridSpec::parse(&["torus:0,1,1"], &["consecutive"], &["A:8"]).is_err());
        assert!(GridSpec::parse(&["torus:2,2,2"], &["nope"], &["A:8"]).is_err());
        assert!(GridSpec::parse(&["torus:2,2,2"], &["consecutive"], &["  "]).is_err());
    }

    #[test]
    fn shards_partition_the_grid_exactly() {
        let g = GridSpec::parse(
            &["torus:3,3,3", "torus:4,4,4", "mesh:2,2,2"],
            &["consecutive", "random:7"],
            &["A:27", "B:27", "C:27", "D:27", "E:27"],
        )
        .unwrap();
        for shards in [1u32, 2, 3, 7] {
            let mut seen = vec![false; g.cell_count() as usize];
            for s in 0..shards {
                for i in g.assigned(42, shards, s) {
                    assert!(!seen[i as usize], "cell {i} assigned twice");
                    seen[i as usize] = true;
                    assert_eq!(shard_of(i, 42, shards), s);
                }
            }
            assert!(seen.iter().all(|&x| x), "every cell must land in a shard");
        }
        // Different seeds give different partitions (with overwhelming
        // probability on 30 cells / 2 shards).
        assert_ne!(g.assigned(1, 2, 0), g.assigned(2, 2, 0));
    }
}
