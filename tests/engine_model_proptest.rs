//! Property-based model test of the whole engine: any sequence of
//! inserts, updates, deletes, commits, aborts, maintenance ticks, and
//! forced pack cycles behaves exactly like a `HashMap<u64, Vec<u8>>`
//! that only applies committed changes — no matter where the rows
//! physically live. Row lengths are drawn per operation (8 B … 3 KB),
//! so page-resident rows are updated in place, outgrow their page, and
//! come back on abort to a page that no longer has room for them; the
//! mode is drawn too (`IlmOn` migrates a page row on update, so only
//! `PageOnly` histories stay on pages long enough for all three).

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use btrim::catalog::TableOpts;
use btrim::pack::{pack_cycle, PackLevel};
use btrim::{Engine, EngineConfig, EngineMode, RowLocation};

/// A row to write: key, fill byte, payload length.
type RowSpec = (u16, u8, usize);

#[derive(Debug, Clone)]
enum Step {
    Insert(RowSpec),
    Update(RowSpec),
    Delete(u16),
    /// Run a whole transaction of the above and then abort it — after
    /// another transaction committed the given inserts (they take the
    /// page space the batch's shrinking updates freed).
    AbortedBatch(Vec<RowSpec>, Vec<RowSpec>),
    Maintenance,
    ForcePack,
}

fn row_strategy() -> impl Strategy<Value = RowSpec> {
    let len = prop_oneof![3 => 8usize..64, 1 => 64usize..3_000];
    (any::<u16>(), any::<u8>(), len).prop_map(|(k, v, len)| (k % 200, v, len))
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => row_strategy().prop_map(Step::Insert),
        4 => row_strategy().prop_map(Step::Update),
        2 => any::<u16>().prop_map(|k| Step::Delete(k % 200)),
        2 => (proptest::collection::vec(row_strategy(), 1..5),
              proptest::collection::vec(row_strategy(), 0..4))
            .prop_map(|(batch, others)| Step::AbortedBatch(batch, others)),
        1 => Just(Step::Maintenance),
        1 => Just(Step::ForcePack),
    ]
}

fn mkrow((key, v, len): RowSpec) -> Vec<u8> {
    let mut r = (key as u64).to_be_bytes().to_vec();
    r.resize(8 + len, v);
    r
}

/// The secondary index key: the fill byte.
fn by_fill(row: &[u8]) -> Vec<u8> {
    row[8..9].to_vec()
}

/// 24 cases, or what `PROPTEST_CASES` asks for (CI: 128).
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    #[test]
    fn engine_matches_committed_model(
        page_only in any::<bool>(),
        steps in proptest::collection::vec(step_strategy(), 1..120),
    ) {
        let engine = Engine::new(EngineConfig {
            mode: if page_only { EngineMode::PageOnly } else { EngineMode::IlmOn },
            imrs_budget: 2 * 1024 * 1024,
            imrs_chunk_size: 256 * 1024,
            buffer_frames: 512,
            maintenance_interval_txns: 8,
            ..Default::default()
        });
        let table = engine
            .create_table(TableOpts::new("model", Arc::new(|r: &[u8]| r[..8].to_vec())))
            .unwrap();
        engine.create_secondary_index(&table, "by_fill", Arc::new(by_fill)).unwrap();
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();

        for step in steps {
            match step {
                Step::Insert(spec @ (k, ..)) => {
                    let mut txn = engine.begin();
                    let row = mkrow(spec);
                    match engine.insert(&mut txn, &table, &row) {
                        Ok(_) => {
                            prop_assert!(!model.contains_key(&k), "duplicate accepted");
                            engine.commit(txn).unwrap();
                            model.insert(k, row);
                        }
                        Err(btrim::BtrimError::DuplicateKey(_)) => {
                            prop_assert!(model.contains_key(&k));
                            engine.abort(txn);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                Step::Update(spec @ (k, ..)) => {
                    let mut txn = engine.begin();
                    let row = mkrow(spec);
                    let updated = engine
                        .update(&mut txn, &table, &(k as u64).to_be_bytes(), &row)
                        .unwrap();
                    engine.commit(txn).unwrap();
                    prop_assert_eq!(updated, model.contains_key(&k));
                    if updated {
                        model.insert(k, row);
                    }
                }
                Step::Delete(k) => {
                    let mut txn = engine.begin();
                    let deleted = engine
                        .delete(&mut txn, &table, &(k as u64).to_be_bytes())
                        .unwrap();
                    engine.commit(txn).unwrap();
                    prop_assert_eq!(deleted, model.remove(&k).is_some());
                }
                Step::AbortedBatch(ops, others) => {
                    let mut txn = engine.begin();
                    for &spec in &ops {
                        let (k, row) = (spec.0, mkrow(spec));
                        if model.contains_key(&k) {
                            let _ = engine.update(&mut txn, &table, &(k as u64).to_be_bytes(), &row);
                        } else {
                            let _ = engine.insert(&mut txn, &table, &row);
                        }
                    }
                    // Keys the batch holds are locked or taken: skip them.
                    for &spec in &others {
                        let (k, row) = (spec.0, mkrow(spec));
                        if model.contains_key(&k) || ops.iter().any(|o| o.0 == k) {
                            continue;
                        }
                        let mut other = engine.begin();
                        engine.insert(&mut other, &table, &row).unwrap();
                        engine.commit(other).unwrap();
                        model.insert(k, row);
                    }
                    engine.abort(txn); // the model never learns of these
                    // Every row the batch touched is back: same home kind
                    // of thing (a live location or none), same image, same
                    // index entries.
                    let reader = engine.begin();
                    for (k, fill, _) in ops {
                        let key = (k as u64).to_be_bytes();
                        let at = engine.locate(&table, &key).unwrap();
                        prop_assert!(!matches!(at, Some(RowLocation::Tombstone(..))), "key {}: {:?}", k, at);
                        prop_assert_eq!(at.is_some(), model.contains_key(&k), "key {}: {:?}", k, at);
                        let got = engine.get(&reader, &table, &key).unwrap();
                        prop_assert_eq!(got.as_ref(), model.get(&k), "key {} after abort", k);
                        let fills = [fill, model.get(&k).map_or(fill, |row| row[8])];
                        for fill in fills {
                            let mut got: Vec<Vec<u8>> = engine
                                .get_by_index(&reader, &table, "by_fill", &[fill])
                                .unwrap()
                                .into_iter()
                                .map(|(_, row)| row)
                                .collect();
                            let mut want: Vec<Vec<u8>> =
                                model.values().filter(|row| row[8] == fill).cloned().collect();
                            got.sort();
                            want.sort();
                            prop_assert_eq!(got, want, "by_fill {} after abort", fill);
                        }
                    }
                    engine.commit(reader).unwrap();
                }
                Step::Maintenance => engine.run_maintenance(),
                Step::ForcePack => {
                    engine.run_maintenance();
                    pack_cycle(&engine, PackLevel::Aggressive);
                }
            }
        }

        // Full equivalence at the end.
        let txn = engine.begin();
        for (k, expect) in &model {
            let got = engine
                .get(&txn, &table, &(*k as u64).to_be_bytes())
                .unwrap();
            prop_assert_eq!(got.as_ref(), Some(expect), "key {}", k);
        }
        let mut scanned: Vec<(u16, Vec<u8>)> = Vec::new();
        engine
            .scan_range(&txn, &table, &[], None, |_, _, row| {
                let k = u64::from_be_bytes(row[..8].try_into().unwrap()) as u16;
                scanned.push((k, row.to_vec()));
                true
            })
            .unwrap();
        prop_assert_eq!(scanned.len(), model.len(), "scan count matches model");
        for (k, row) in &scanned {
            prop_assert_eq!(model.get(k), Some(row), "scanned key {}", k);
        }
        engine.commit(txn).unwrap();
    }
}
