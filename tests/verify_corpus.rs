//! Integration gate for the differential verification harness: the full
//! seeded corpus must pass every oracle (analytic routing vs BFS, chunked
//! parallel replay vs the naive single-threaded reference, parallel
//! ingest vs the sequential parser, and the temporal simulation engine
//! vs `refsim` byte-for-byte) with zero mismatches — the same check
//! `netloc verify` runs from the CLI.

use netloc::testkit::{default_corpus, verify_corpus};

#[test]
fn seeded_corpus_is_clean_under_both_oracles() {
    let corpus = default_corpus();
    assert!(
        corpus.len() >= 20,
        "corpus shrank below the documented floor: {}",
        corpus.len()
    );
    let summary = verify_corpus(&corpus);
    assert_eq!(summary.configs, corpus.len());
    assert!(summary.route_pairs > 0, "route oracle never ran");
    assert!(
        summary.replay_checks >= 4 * corpus.len() as u64,
        "each config should be replayed against the reference and several chunk sizes"
    );
    assert!(
        summary.ingest_checks >= 10 * corpus.len() as u64,
        "each config should check the byte parser and the fused fold against the sequential path"
    );
    assert!(
        summary.sim_checks >= 20 * corpus.len() as u64,
        "each config should compare the temporal simulation engine against refsim \
         across the worker/window sweep, both route storages and both forwarding models"
    );
    assert!(
        summary.windows_checks >= 10 * corpus.len() as u64,
        "each config should check windowed merges across several groupings \
         plus the sum-to-whole and columnar round-trip invariants"
    );
    assert!(
        summary.is_clean(),
        "differential oracles disagree:\n{}",
        summary
            .mismatches
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn corpus_covers_every_topology_family_and_mapping_kind() {
    let corpus = default_corpus();
    let ids: Vec<String> = corpus.iter().map(|c| c.id()).collect();
    for needle in [
        "torus",
        "fattree",
        "dragonfly",
        "slimfly",
        "hyperx",
        "jellyfish", // topology families
        "consecutive",
        "block",
        "random", // mapping kinds
        "ring",
        "random_pairs",
        "transpose",
        "hot_spot", // workloads
    ] {
        assert!(
            ids.iter().any(|id| id.contains(needle)),
            "no corpus config exercises `{needle}`; ids: {ids:?}"
        );
    }
}
