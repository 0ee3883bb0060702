//! # netloc-sim
//!
//! Temporal replay of MPI traces over the topology models — the step beyond
//! the paper's static analysis that its discussion names as future work
//! ("it seems very promising to address dynamic effects", §8; "further
//! studies about the slackness in MPI applications could be useful", §7).
//!
//! The simulator is deliberately simple and deterministic: messages are
//! expanded from the aggregated trace with evenly spread injection times
//! (the same reconstruction `netloc_core::timeline` uses), routed on the
//! static shortest paths, and forwarded **store-and-forward at message
//! granularity** — each link serializes at the modeled bandwidth and a
//! message occupies one link at a time, in injection order. That makes the
//! model a conservative (pessimistic-latency) queueing approximation rather
//! than a cycle-accurate simulator, but it is enough to measure what the
//! static analysis cannot: queueing delay, per-link busy time under
//! contention, per-window utilization against the static Eq. 5 bound, and
//! the slack between injection and completion.
//!
//! Two engines share one forwarding kernel and one report accumulator:
//!
//! * [`simulate_reference`] — the single-threaded reference (`refsim`),
//!   routes computed per message;
//! * [`simulate_parallel`] — one in-order pass over precomputed CSR
//!   route tables, with slot lists deduplicated per node pair and each
//!   message's outcome folded into the report as it retires. Its
//!   `SimExec` only sizes the slot-resolution batches and the threads
//!   that walk routes on machines too large for the pair index.
//!
//! The engine is **byte-identical** to the reference at every worker
//! count and window size; `netloc verify` enforces that over the whole
//! test corpus.
//!
//! ```
//! use netloc_mpi::{Rank, TraceBuilder};
//! use netloc_topology::Torus3D;
//! use netloc_sim::{SimConfig, simulate_trace};
//!
//! let mut b = TraceBuilder::new("demo", 8).exec_time_s(1.0);
//! b.send(Rank(0), Rank(1), 1 << 20, 16);
//! let report = simulate_trace(&b.build(), &Torus3D::new([2, 2, 2]),
//!                             &SimConfig::default());
//! assert_eq!(report.messages, 16);
//! assert!(report.mean_latency_s > 0.0);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod expand;
mod kernel;
pub mod refsim;
pub mod report;
pub mod windows;

pub use engine::{
    simulate, simulate_parallel, simulate_trace, Forwarding, SimConfig, SimExec,
    DEFAULT_WINDOW_INJECTIONS,
};
pub use expand::{expand_trace, Injection};
pub use refsim::simulate_reference;
pub use report::SimReport;
pub use windows::{WindowGrid, WindowStats};
