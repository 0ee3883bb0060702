//! # netloc-core
//!
//! The analysis core of the ICPP 2020 network-locality reproduction: traffic
//! matrices, the paper's hardware-agnostic MPI-level metrics (*rank
//! locality*, *selectivity*, *peers*, dimensionality foldings) and its
//! system-level metrics (*packet hops*, average hops, network utilization)
//! computed by replaying traffic through the non-temporal topology models of
//! [`netloc_topology`].
//!
//! ```
//! use netloc_mpi::{Rank, TraceBuilder};
//! use netloc_core::{TrafficMatrix, metrics};
//!
//! let mut b = TraceBuilder::new("demo", 8).exec_time_s(1.0);
//! for r in 0..7u32 {
//!     b.send(Rank(r), Rank(r + 1), 1 << 20, 4); // nearest-neighbor chain
//! }
//! let tm = TrafficMatrix::from_trace_p2p(&b.build());
//! let d90 = metrics::rank_locality::rank_distance_90(&tm).unwrap();
//! assert_eq!(d90, 1.0); // pure nearest-neighbor: 100 % rank locality
//! ```

#![warn(missing_docs)]

pub mod canon;
pub mod classes;
pub mod energy;
pub mod fxhash;
pub mod heatmap;
pub mod ingest;
pub mod metrics;
pub mod multicore;
pub mod netmodel;
pub mod patterns;
pub mod refmodel;
pub mod report;
pub mod sweep;
pub mod timeline;
pub mod traffic;

pub use ingest::{
    ingest_trace, ingest_trace_bytes, ingest_trace_chunked, ingest_trace_path, parse_trace_auto,
    window_index, windowed_ingest, windowed_ingest_chunked, windowed_reference, windows_diff,
    IngestResult, WindowMetrics, WindowedAccum, WindowedMetrics,
};
pub use metrics::dimensionality::{folded_locality, DimensionalityReport};
pub use metrics::peers::peers;
pub use metrics::rank_locality::{rank_distance_90, rank_locality_90};
pub use metrics::selectivity::{selectivity_90, SelectivityCurve};
pub use netmodel::{
    analyze_network, analyze_network_rank_pairs, analyze_network_routed,
    analyze_network_routed_chunked, node_pair_traffic, NetworkReport, LINK_BANDWIDTH_BYTES_PER_S,
    PACKET_PAYLOAD,
};
pub use refmodel::analyze_network_reference;
pub use report::{analyze_trace, TraceAnalysis};
pub use sweep::{shard_of, GridCell, GridSpec, MappingSpec};
pub use traffic::{PairTraffic, TrafficMatrix};
