//! Checkpoint-record framing under torn tails.
//!
//! A checkpoint writes one record pair, on sysimrslogs: a
//! `CheckpointBegin` whose header carries both logs' floors, the image,
//! and a `CheckpointEnd`. The pair is the unit of certification, so a
//! tail torn anywhere inside or after it must make
//! [`newest_image`] fall back to the previous complete pair — never
//! trust a Begin whose End died with the crash. Every byte cut point,
//! plus a property test interleaving batch frames (committed
//! transactions) with checkpoint pairs.

use std::sync::Arc;

use btrim_common::{Lsn, PartitionId, RowId, Timestamp, TxnId};
use btrim_wal::{
    newest_image, Encodable, FileLog, ImageHeader, ImrsLogRecord, LogWriter, RowOriginTag,
};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("btrim-ckptframe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn update(txn: u64, row: u64) -> ImrsLogRecord {
    ImrsLogRecord::Update {
        txn: TxnId(txn),
        ts: Timestamp(txn),
        partition: PartitionId(0),
        row: RowId(row),
        data: vec![0xAB; 16],
    }
}

fn image_row(row: u64) -> ImrsLogRecord {
    ImrsLogRecord::ImageRow {
        ts: Timestamp(row),
        partition: PartitionId(0),
        row: RowId(row),
        origin: RowOriginTag::Inserted,
        data: vec![0xCD; 24],
    }
}

fn header(snapshot: u64, imrs_floor: u64, sys_floor: u64) -> ImageHeader {
    ImageHeader {
        snapshot: Timestamp(snapshot),
        imrs_floor: Lsn(imrs_floor),
        sys_floor: Lsn(sys_floor),
        next_row: RowId(100),
        next_txn: TxnId(snapshot + 1),
        next_internal: 0,
        next_extent: 0,
    }
}

/// Append a checkpoint pair as the engine does: Begin, the image rows
/// in one batch, End. Returns the Begin's LSN.
fn checkpoint(w: &LogWriter<ImrsLogRecord>, h: ImageHeader, rows: u64) -> Lsn {
    let begin_lsn = w.append(&ImrsLogRecord::CheckpointBegin(h)).unwrap();
    let image: Vec<Vec<u8>> = (0..rows).map(|r| image_row(r + 1).encode()).collect();
    if !image.is_empty() {
        let refs: Vec<&[u8]> = image.iter().map(|e| e.as_slice()).collect();
        w.append_batch(&refs).unwrap();
    }
    w.append(&ImrsLogRecord::CheckpointEnd { begin_lsn })
        .unwrap();
    begin_lsn
}

fn read_records(path: &std::path::Path) -> Vec<(Lsn, ImrsLogRecord)> {
    let writer: LogWriter<ImrsLogRecord> = LogWriter::new(Arc::new(FileLog::open(path).unwrap()));
    writer.read_all().unwrap()
}

/// Tear the log at every byte boundary from the second checkpoint's
/// Begin frame to the end of its End frame. Whatever survives, both
/// floors must come from the first (complete) pair.
#[test]
fn torn_checkpoint_pair_falls_back_at_every_cut_point() {
    let path = tmp("torn-pair.wal");
    let (first, second) = (header(10, 2, 4), header(20, 7, 9));
    let first_begin;
    let pair_start;
    let full;
    {
        let log = FileLog::open(&path).unwrap();
        let w: LogWriter<ImrsLogRecord> = LogWriter::new(Arc::new(log));
        w.append(&update(1, 1)).unwrap();
        // First, complete checkpoint pair.
        first_begin = checkpoint(&w, first, 2);
        w.append(&update(2, 4)).unwrap();
        w.flush().unwrap();
        pair_start = std::fs::metadata(&path).unwrap().len();
        // Second pair — the one the crash will tear.
        checkpoint(&w, second, 3);
        w.flush().unwrap();
        full = std::fs::read(&path).unwrap();
    }
    assert_eq!(first_begin, Lsn(2));
    for cut in pair_start..full.len() as u64 {
        std::fs::write(&path, &full[..cut as usize]).unwrap();
        let records = read_records(&path);
        let m = newest_image(&records).unwrap_or_else(|| panic!("cut at {cut}: no image"));
        assert_eq!(
            (m.begin, m.end, m.header),
            (first_begin, Lsn(5), first),
            "cut at {cut}: torn second pair must fall back to the first"
        );
        assert!(
            records.iter().any(|(_, r)| *r == update(2, 4)),
            "cut at {cut}"
        );
    }
    // The intact file certifies the second pair.
    std::fs::write(&path, &full).unwrap();
    let m = newest_image(&read_records(&path)).unwrap();
    assert_eq!((m.begin, m.end, m.header), (Lsn(7), Lsn(11), second));
    std::fs::remove_file(&path).unwrap();
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One log-building step: a committed transaction appended as an
    /// atomic batch frame (the stage-and-batch commit shape), a complete
    /// checkpoint pair with its image, or a torn Begin.
    #[derive(Clone, Debug)]
    enum Step {
        TxnBatch { txn: u64, changes: u8 },
        CheckpointPair { rows: u8 },
        TornBegin,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            3 => (1u64..64, 1u8..5).prop_map(|(txn, changes)| Step::TxnBatch { txn, changes }),
            2 => (0u8..6).prop_map(|rows| Step::CheckpointPair { rows }),
            1 => Just(Step::TornBegin),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A log interleaving batch frames with checkpoint pairs
        /// round-trips through salvage, and the certified checkpoint is
        /// the last *complete* pair regardless of how many torn Begins
        /// follow it.
        #[test]
        fn batches_and_checkpoint_pairs_roundtrip_to_the_last_complete_pair(
            steps in proptest::collection::vec(step_strategy(), 1..12),
            case in 0u64..u64::MAX,
        ) {
            let path = tmp(&format!("prop-{case}.wal"));
            let log = FileLog::open(&path).unwrap();
            let w: LogWriter<ImrsLogRecord> = LogWriter::new(Arc::new(log));
            let mut expected: Vec<ImrsLogRecord> = Vec::new();
            let mut next_lsn: u64 = 1;
            let mut want = None;
            for (i, step) in steps.iter().enumerate() {
                let h = header(i as u64, next_lsn, i as u64 * 3);
                match step {
                    Step::TxnBatch { txn, changes } => {
                        let recs: Vec<ImrsLogRecord> =
                            (0..*changes).map(|c| update(*txn, c as u64)).collect();
                        let encoded: Vec<Vec<u8>> = recs.iter().map(|r| r.encode()).collect();
                        let refs: Vec<&[u8]> = encoded.iter().map(|e| e.as_slice()).collect();
                        w.append_batch(&refs).unwrap();
                        next_lsn += recs.len() as u64;
                        expected.extend(recs);
                    }
                    Step::CheckpointPair { rows } => {
                        let begin_lsn = checkpoint(&w, h, *rows as u64);
                        prop_assert_eq!(begin_lsn, Lsn(next_lsn));
                        let end = Lsn(next_lsn + *rows as u64 + 1);
                        next_lsn = end.0 + 1;
                        expected.push(ImrsLogRecord::CheckpointBegin(h));
                        expected.extend((0..*rows as u64).map(|r| image_row(r + 1)));
                        expected.push(ImrsLogRecord::CheckpointEnd { begin_lsn });
                        want = Some((begin_lsn, end, h));
                    }
                    Step::TornBegin => {
                        w.append(&ImrsLogRecord::CheckpointBegin(h)).unwrap();
                        next_lsn += 1;
                        expected.push(ImrsLogRecord::CheckpointBegin(h));
                    }
                }
            }
            w.flush().unwrap();
            drop(w);

            let reopened: LogWriter<ImrsLogRecord> =
                LogWriter::new(Arc::new(FileLog::open(&path).unwrap()));
            let (records, dropped) = reopened.read_all_salvage().unwrap();
            prop_assert_eq!(dropped, 0);
            let got: Vec<ImrsLogRecord> = records.iter().map(|(_, r)| r.clone()).collect();
            prop_assert_eq!(&got, &expected);

            let m = newest_image(&records).map(|m| (m.begin, m.end, m.header));
            prop_assert_eq!(m, want);
            std::fs::remove_file(&path).unwrap();
        }
    }
}
