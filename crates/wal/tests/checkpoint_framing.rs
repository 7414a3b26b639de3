//! Checkpoint-record framing under torn tails and mixed-format logs.
//!
//! The fuzzy checkpoint writes a Begin/End record pair; the pair is
//! the unit of certification, so a tail torn anywhere inside or after
//! the pair must make analysis fall back to the previous complete
//! checkpoint — never trust a Begin whose End died with the crash.
//! These tests mirror the PR-4 torn-batch test at the record layer:
//! every byte cut point, plus a property test interleaving batch
//! frames (committed transactions) with checkpoint pairs.

use std::sync::Arc;

use btrim_common::{Lsn, PageId, PartitionId, RowId, SlotId, Timestamp, TxnId};
use btrim_wal::{analyze_page_log, Encodable, FileLog, LogWriter, PageLogRecord};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("btrim-ckptframe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn ins(txn: u64, page: u32) -> PageLogRecord {
    PageLogRecord::Insert {
        txn: TxnId(txn),
        partition: PartitionId(0),
        row: RowId(txn),
        page: PageId(page),
        slot: SlotId(0),
        data: vec![0xAB; 16],
    }
}

fn read_records(path: &std::path::Path) -> Vec<(Lsn, PageLogRecord)> {
    let writer: LogWriter<PageLogRecord> = LogWriter::new(Arc::new(FileLog::open(path).unwrap()));
    writer.read_all().unwrap()
}

/// Tear the log at every byte boundary from the second checkpoint's
/// Begin frame to the end of its End frame. Whatever survives, the
/// floor must come from the first (complete) pair.
#[test]
fn torn_checkpoint_pair_falls_back_at_every_cut_point() {
    let path = tmp("torn-pair.wal");
    let first_begin_lsn;
    let pair_start;
    let full;
    {
        let log = FileLog::open(&path).unwrap();
        let w: LogWriter<PageLogRecord> = LogWriter::new(Arc::new(log));
        w.append(&PageLogRecord::Begin { txn: TxnId(1) }).unwrap();
        w.append(&ins(1, 3)).unwrap();
        w.append(&PageLogRecord::Commit {
            txn: TxnId(1),
            ts: Timestamp(10),
        })
        .unwrap();
        // First, complete checkpoint pair: no writers in flight.
        first_begin_lsn = w
            .append(&PageLogRecord::CheckpointBegin {
                low_water: Lsn::ZERO,
                dirty_pages: vec![PageId(3)],
            })
            .unwrap();
        w.append(&PageLogRecord::CheckpointEnd {
            begin_lsn: first_begin_lsn,
        })
        .unwrap();
        w.append(&PageLogRecord::Begin { txn: TxnId(2) }).unwrap();
        w.append(&ins(2, 4)).unwrap();
        w.flush().unwrap();
        pair_start = std::fs::metadata(&path).unwrap().len();
        // Second pair — the one the crash will tear.
        let begin2 = w
            .append(&PageLogRecord::CheckpointBegin {
                low_water: Lsn(6), // txn 2's Begin
                dirty_pages: vec![PageId(3), PageId(4)],
            })
            .unwrap();
        w.append(&PageLogRecord::CheckpointEnd { begin_lsn: begin2 })
            .unwrap();
        w.flush().unwrap();
        full = std::fs::read(&path).unwrap();
    }
    assert_eq!(first_begin_lsn, Lsn(4));
    for cut in pair_start..full.len() as u64 {
        std::fs::write(&path, &full[..cut as usize]).unwrap();
        let records = read_records(&path);
        let a = analyze_page_log(&records);
        assert_eq!(
            a.last_checkpoint,
            Some(first_begin_lsn),
            "cut at {cut}: torn second pair must fall back to the first"
        );
        assert_eq!(a.redo_low_water, Some(first_begin_lsn), "cut at {cut}");
        // Whether the second Begin survived the cut decides the torn
        // count; it must never certify either way.
        assert!(a.torn_checkpoints <= 1, "cut at {cut}");
        assert!(a.losers.contains(&TxnId(2)), "cut at {cut}");
        assert_eq!(a.winners.get(&TxnId(1)), Some(&Timestamp(10)));
    }
    // The intact file certifies the second pair.
    std::fs::write(&path, &full).unwrap();
    let a = analyze_page_log(&read_records(&path));
    assert_eq!(a.last_checkpoint, Some(Lsn(8)));
    assert_eq!(a.redo_low_water, Some(Lsn(6)));
    assert_eq!(a.torn_checkpoints, 0);
    std::fs::remove_file(&path).unwrap();
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One log-building step: a committed transaction appended as an
    /// atomic batch frame (Begin/changes/Commit, the stage-and-batch
    /// commit shape), a complete checkpoint pair, or a torn Begin.
    #[derive(Clone, Debug)]
    enum Step {
        TxnBatch { txn: u64, changes: u8 },
        CheckpointPair { dirty: u8 },
        TornBegin,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            3 => (1u64..64, 1u8..5).prop_map(|(txn, changes)| Step::TxnBatch { txn, changes }),
            2 => (0u8..6).prop_map(|dirty| Step::CheckpointPair { dirty }),
            1 => Just(Step::TornBegin),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A V2 log interleaving batch frames with checkpoint pairs
        /// round-trips through salvage + analysis: every record
        /// decodes back, and the floor lands on the last *complete*
        /// pair regardless of how many torn Begins follow it.
        #[test]
        fn v2_batches_and_checkpoint_pairs_roundtrip_through_analysis(
            steps in proptest::collection::vec(step_strategy(), 1..12),
            case in 0u64..u64::MAX,
        ) {
            let path = tmp(&format!("prop-{case}.wal"));
            let log = FileLog::open(&path).unwrap();
            let w: LogWriter<PageLogRecord> = LogWriter::new(Arc::new(log));
            let mut expected: Vec<PageLogRecord> = Vec::new();
            let mut next_lsn: u64 = 1;
            let mut want_floor: Option<Lsn> = None;
            let mut want_ckpt: Option<Lsn> = None;
            let mut want_torn: u64 = 0;
            let mut open_begin = false;
            for step in &steps {
                match step {
                    Step::TxnBatch { txn, changes } => {
                        let mut recs = vec![PageLogRecord::Begin { txn: TxnId(*txn) }];
                        for c in 0..*changes {
                            recs.push(ins(*txn, c as u32));
                        }
                        recs.push(PageLogRecord::Commit {
                            txn: TxnId(*txn),
                            ts: Timestamp(*txn),
                        });
                        let encoded: Vec<Vec<u8>> = recs.iter().map(|r| r.encode()).collect();
                        let refs: Vec<&[u8]> = encoded.iter().map(|e| e.as_slice()).collect();
                        w.append_batch(&refs).unwrap();
                        next_lsn += recs.len() as u64;
                        expected.extend(recs);
                    }
                    Step::CheckpointPair { dirty } => {
                        if open_begin {
                            want_torn += 1;
                            open_begin = false;
                        }
                        let begin = PageLogRecord::CheckpointBegin {
                            low_water: Lsn::ZERO,
                            dirty_pages: (0..*dirty).map(|p| PageId(p as u32)).collect(),
                        };
                        let begin_lsn = w.append(&begin).unwrap();
                        prop_assert_eq!(begin_lsn, Lsn(next_lsn));
                        next_lsn += 1;
                        w.append(&PageLogRecord::CheckpointEnd { begin_lsn }).unwrap();
                        next_lsn += 1;
                        expected.push(begin.clone());
                        expected.push(PageLogRecord::CheckpointEnd { begin_lsn });
                        want_ckpt = Some(begin_lsn);
                        want_floor = Some(begin_lsn);
                    }
                    Step::TornBegin => {
                        if open_begin {
                            want_torn += 1;
                        }
                        let begin = PageLogRecord::CheckpointBegin {
                            low_water: Lsn::ZERO,
                            dirty_pages: vec![],
                        };
                        w.append(&begin).unwrap();
                        next_lsn += 1;
                        expected.push(begin);
                        open_begin = true;
                    }
                }
            }
            if open_begin {
                want_torn += 1;
            }
            w.flush().unwrap();
            drop(w);

            let reopened: LogWriter<PageLogRecord> =
                LogWriter::new(Arc::new(FileLog::open(&path).unwrap()));
            let (records, dropped) = reopened.read_all_salvage().unwrap();
            prop_assert_eq!(dropped, 0);
            let got: Vec<PageLogRecord> = records.iter().map(|(_, r)| r.clone()).collect();
            prop_assert_eq!(&got, &expected);

            let a = analyze_page_log(&records);
            prop_assert_eq!(a.last_checkpoint, want_ckpt);
            prop_assert_eq!(a.redo_low_water, want_floor);
            prop_assert_eq!(a.torn_checkpoints, want_torn);
            std::fs::remove_file(&path).unwrap();
        }
    }
}
