//! Goldens-compatible views of the paper tables.
//!
//! Each function renders one table into the canonical [`serde::Value`]
//! tree that `netloc-testkit`'s golden-snapshot layer commits under
//! `tests/goldens/` and that `repro goldens` prints. The shapes are
//! wrapped with a `table` tag so a committed file is self-describing.
//!
//! Table 3 is capped at [`GOLDEN_TABLE3_MAX_RANKS`] ranks: the golden is
//! a drift tripwire that runs on every `cargo test`, not the full paper
//! sweep (`repro table3 --full` remains the way to get that).

use crate::rows;
use netloc_sim::{expand_trace, simulate, SimConfig};
use netloc_testkit::corpus::{default_corpus, CorpusConfig};
use serde::{Serialize, Value};

/// Rank cap for the Table 3 golden (keeps the snapshot test fast while
/// still covering every workload family that appears at small scale).
pub const GOLDEN_TABLE3_MAX_RANKS: u32 = 64;

fn table_value<T: Serialize>(table: &str, rows: &[T]) -> Value {
    Value::Object(vec![
        ("table".to_string(), Value::Str(table.to_string())),
        ("rows".to_string(), rows.to_value()),
    ])
}

/// Table 1 (workload overview) as a golden value.
pub fn golden_table1() -> Value {
    table_value("table1", &rows::table1())
}

/// Table 3 (MPI + topology metrics) as a golden value, capped at
/// [`GOLDEN_TABLE3_MAX_RANKS`] ranks.
pub fn golden_table3() -> Value {
    table_value("table3", &rows::table3(Some(GOLDEN_TABLE3_MAX_RANKS)))
}

/// Table 4 (dimensionality study) as a golden value.
pub fn golden_table4() -> Value {
    table_value("table4", &rows::table4())
}

/// Corpus entries snapshotted by the sim golden: the first entry of each
/// topology family, so all three routing styles are pinned.
fn sim_golden_configs() -> Vec<CorpusConfig> {
    let mut picked: Vec<CorpusConfig> = Vec::new();
    for cfg in default_corpus() {
        if !picked
            .iter()
            .any(|p| std::mem::discriminant(&p.topology) == std::mem::discriminant(&cfg.topology))
        {
            picked.push(cfg);
        }
        if picked.len() == 3 {
            break;
        }
    }
    picked
}

/// Temporal [`netloc_sim::SimReport`]s for three representative corpus
/// configs as a golden value — a byte-level tripwire over the engines'
/// float arithmetic. The snapshot is produced by the CSR engine;
/// `netloc-testkit::check_sim` separately pins that engine to the
/// sequential reference, so one committed file covers both.
pub fn golden_sim() -> Value {
    let rows: Vec<Value> = sim_golden_configs()
        .iter()
        .map(|cfg| {
            let topo = cfg.build_topology();
            let mapping = cfg.build_mapping(topo.num_nodes());
            let (injections, stride) = expand_trace(&cfg.build_trace(), 4_000);
            let sim_cfg = SimConfig {
                report_windows: 8,
                ..SimConfig::default()
            };
            let mut report = simulate(topo.as_ref(), &mapping, &injections, &sim_cfg);
            report.sample_stride = stride;
            Value::Object(vec![
                ("id".to_string(), Value::Str(cfg.id())),
                ("report".to_string(), report.to_value()),
            ])
        })
        .collect();
    Value::Object(vec![
        ("table".to_string(), Value::Str("sim".to_string())),
        ("rows".to_string(), Value::Array(rows)),
    ])
}

/// Every golden, paired with the stem used for its committed file
/// (`tests/goldens/<stem>.json`).
pub fn all_goldens() -> Vec<(&'static str, Value)> {
    vec![
        ("table1", golden_table1()),
        ("table3", golden_table3()),
        ("table4", golden_table4()),
        ("sim", golden_sim()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_len(v: &Value) -> usize {
        match v {
            Value::Object(fields) => match fields.iter().find(|(k, _)| k == "rows") {
                Some((_, Value::Array(rows))) => rows.len(),
                other => panic!("rows field missing or not an array: {other:?}"),
            },
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn goldens_are_nonempty_and_deterministic() {
        let a = golden_table1();
        assert!(rows_len(&a) > 10);
        assert_eq!(a, golden_table1());
        assert!(rows_len(&golden_table4()) == rows::table4_subset().len());
    }

    #[test]
    fn sim_golden_covers_all_three_topology_families_deterministically() {
        let v = golden_sim();
        assert_eq!(rows_len(&v), 3);
        let ids: Vec<String> = sim_golden_configs().iter().map(CorpusConfig::id).collect();
        assert!(ids.iter().any(|i| i.starts_with("torus")));
        assert!(ids.iter().any(|i| i.starts_with("fattree")));
        assert!(ids.iter().any(|i| i.starts_with("dragonfly")));
        assert_eq!(v, golden_sim());
    }

    #[test]
    fn table3_golden_respects_the_rank_cap() {
        let v = golden_table3();
        assert!(rows_len(&v) > 0);
        match &v {
            Value::Object(fields) => {
                let (_, Value::Array(rows)) = fields.iter().find(|(k, _)| k == "rows").unwrap()
                else {
                    panic!("rows not an array");
                };
                for row in rows {
                    let Value::Object(f) = row else {
                        panic!("row not an object")
                    };
                    let (_, Value::UInt(ranks)) = f.iter().find(|(k, _)| k == "ranks").unwrap()
                    else {
                        panic!("ranks missing")
                    };
                    assert!(*ranks <= GOLDEN_TABLE3_MAX_RANKS as u128);
                }
            }
            _ => unreachable!(),
        }
    }
}
