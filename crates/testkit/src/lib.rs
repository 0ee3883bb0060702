//! # netloc-testkit
//!
//! Differential verification harness for the netloc workspace:
//!
//! - [`corpus`] — a deterministic, seeded set of ≥20 small-but-diverse
//!   configurations covering every topology family × mapping kind ×
//!   several workload patterns;
//! - [`oracle`] — differential oracles that check analytic routing
//!   against a BFS reference for every node pair, the rayon-chunked
//!   replay against a naive single-threaded reference for byte-identical
//!   [`netloc_core::NetworkReport`]s, and the CSR temporal simulation
//!   engine against its per-message-routed `refsim` reference for
//!   byte-identical [`netloc_sim::SimReport`]s at every worker count and
//!   window size;
//! - [`goldens`] — golden-snapshot machinery (canonical JSON with
//!   normalized floats, readable diffs, `UPDATE_GOLDENS=1` regeneration);
//! - [`client`] — a std-only blocking HTTP client for integration tests
//!   against `netloc-service`, with a deterministic seeded retry policy
//!   that honors `Retry-After`;
//! - [`fault`] — seeded fault injection: on-disk corruption of
//!   persistent-store entries, half-open clients, and mid-request
//!   connection drops, driving the service recovery tests.
//!
//! The harness is wired into the CLI as `netloc verify` and into the root
//! crate's integration tests.

#![warn(missing_docs)]

pub mod client;
pub mod corpus;
pub mod fault;
pub mod goldens;
pub mod oracle;

pub use client::{HttpResponse, RetryPolicy};
pub use corpus::{default_corpus, CorpusConfig, MappingKind, TopologySpec};
pub use fault::Corruption;
pub use goldens::{canonical_json, check_golden, GoldenOutcome};
pub use oracle::{
    check_ingest, check_route_table, check_sim, check_windows, sim_report_diff, verify_corpus,
    Mismatch, VerifySummary,
};
