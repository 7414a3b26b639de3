//! Log analysis for recovery.
//!
//! The engine drives recovery in lock-step (§II): the page-store log is
//! analysed and replayed first (redo winners, undo losers), then the
//! redo-only IMRS log is replayed forward. This module implements the
//! analysis pass; the physical replay lives in the engine, which owns
//! the stores the records apply to.

use std::collections::{HashMap, HashSet};

use btrim_common::{Lsn, Timestamp, TxnId};

use crate::record::PageLogRecord;

/// Outcome of the analysis pass over `syslogs`.
#[derive(Debug, Default)]
pub struct LogAnalysis {
    /// Committed transactions and their commit timestamps.
    pub winners: HashMap<TxnId, Timestamp>,
    /// Transactions with a Begin but no Commit/Abort (in-flight at
    /// crash): their changes must be undone.
    pub losers: HashSet<TxnId>,
    /// Transactions that aborted cleanly (already undone before the
    /// crash, because our undo happens online at rollback).
    pub aborted: HashSet<TxnId>,
    /// LSN of the last **complete** checkpoint, if any: the
    /// `CheckpointBegin` of a begin/end pair whose end arrived. A torn
    /// pair (Begin without End) is ignored, falling back to the
    /// previous complete checkpoint.
    pub last_checkpoint: Option<Lsn>,
    /// Redo floor certified by the last complete checkpoint: every
    /// page change with `lsn < redo_low_water` is durably on disk. It
    /// is the `low_water` carried by the Begin record (or the Begin's
    /// own LSN when the record encodes `Lsn::ZERO`, meaning no writers
    /// were in flight).
    pub redo_low_water: Option<Lsn>,
    /// Checkpoint Begin records left open at the log tail (crash
    /// mid-checkpoint). Diagnostic only — torn pairs certify nothing.
    pub torn_checkpoints: u64,
    /// Highest commit timestamp seen (clock resume point).
    pub max_commit_ts: Timestamp,
}

impl LogAnalysis {
    /// LSN below which forward redo may skip change records. Records
    /// with `lsn < redo_floor()` are certified durable; the floor
    /// itself must still replay.
    pub fn redo_floor(&self) -> Lsn {
        self.redo_low_water.unwrap_or(Lsn::ZERO)
    }
}

/// Analyse the page-store log: classify transactions and find the last
/// checkpoint.
pub fn analyze_page_log(records: &[(Lsn, PageLogRecord)]) -> LogAnalysis {
    let mut a = LogAnalysis::default();
    let mut seen: HashSet<TxnId> = HashSet::new();
    // Open fuzzy checkpoint, if any: (begin lsn, effective low-water).
    let mut pending_ckpt: Option<(Lsn, Lsn)> = None;
    for (lsn, rec) in records {
        match rec {
            PageLogRecord::Begin { txn } => {
                seen.insert(*txn);
                a.losers.insert(*txn);
            }
            PageLogRecord::Commit { txn, ts } => {
                a.losers.remove(txn);
                a.winners.insert(*txn, *ts);
                if *ts > a.max_commit_ts {
                    a.max_commit_ts = *ts;
                }
            }
            PageLogRecord::Abort { txn } => {
                a.losers.remove(txn);
                a.aborted.insert(*txn);
            }
            PageLogRecord::CheckpointBegin { low_water, .. } => {
                // A Begin overtaking an earlier unmatched Begin means
                // the earlier checkpoint crashed mid-flight: torn.
                if pending_ckpt.is_some() {
                    a.torn_checkpoints += 1;
                }
                let floor = if low_water.0 == 0 { *lsn } else { *low_water };
                pending_ckpt = Some((*lsn, floor));
            }
            PageLogRecord::CheckpointEnd { begin_lsn } => {
                // Only the matching pair certifies; an End whose Begin
                // was truncated away (or never written) is ignored.
                if let Some((begin, floor)) = pending_ckpt.take() {
                    if begin == *begin_lsn {
                        a.last_checkpoint = Some(begin);
                        a.redo_low_water = Some(floor);
                    }
                }
            }
            PageLogRecord::Insert { txn, .. }
            | PageLogRecord::Update { txn, .. }
            | PageLogRecord::Delete { txn, .. } => {
                // A change record without Begin still marks the txn as
                // in-flight until a Commit/Abort shows up.
                if !seen.contains(txn) && !a.winners.contains_key(txn) && !a.aborted.contains(txn) {
                    seen.insert(*txn);
                    a.losers.insert(*txn);
                }
            }
        }
    }
    if pending_ckpt.is_some() {
        a.torn_checkpoints += 1;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrim_common::{PageId, PartitionId, RowId, SlotId};

    fn ins(txn: u64) -> PageLogRecord {
        PageLogRecord::Insert {
            txn: TxnId(txn),
            partition: PartitionId(0),
            row: RowId(1),
            page: PageId(0),
            slot: SlotId(0),
            data: vec![1],
        }
    }

    fn with_lsns(recs: Vec<PageLogRecord>) -> Vec<(Lsn, PageLogRecord)> {
        recs.into_iter()
            .enumerate()
            .map(|(i, r)| (Lsn(i as u64 + 1), r))
            .collect()
    }

    #[test]
    fn classifies_winners_losers_aborted() {
        let log = with_lsns(vec![
            PageLogRecord::Begin { txn: TxnId(1) },
            ins(1),
            PageLogRecord::Commit {
                txn: TxnId(1),
                ts: Timestamp(10),
            },
            PageLogRecord::Begin { txn: TxnId(2) },
            ins(2),
            PageLogRecord::Abort { txn: TxnId(2) },
            PageLogRecord::Begin { txn: TxnId(3) },
            ins(3),
            // txn 3 never finishes: loser.
        ]);
        let a = analyze_page_log(&log);
        assert_eq!(a.winners.get(&TxnId(1)), Some(&Timestamp(10)));
        assert!(a.aborted.contains(&TxnId(2)));
        assert!(a.losers.contains(&TxnId(3)));
        assert!(!a.losers.contains(&TxnId(1)));
        assert!(!a.losers.contains(&TxnId(2)));
        assert_eq!(a.max_commit_ts, Timestamp(10));
    }

    #[test]
    fn change_without_begin_counts_as_loser() {
        let log = with_lsns(vec![ins(9)]);
        let a = analyze_page_log(&log);
        assert!(a.losers.contains(&TxnId(9)));
    }

    #[test]
    fn empty_log_analysis() {
        let a = analyze_page_log(&[]);
        assert!(a.winners.is_empty());
        assert!(a.losers.is_empty());
        assert_eq!(a.last_checkpoint, None);
        assert_eq!(a.redo_low_water, None);
        assert_eq!(a.redo_floor(), Lsn::ZERO);
        assert_eq!(a.max_commit_ts, Timestamp::ZERO);
    }

    fn ckpt_begin(low_water: u64) -> PageLogRecord {
        PageLogRecord::CheckpointBegin {
            low_water: Lsn(low_water),
            dirty_pages: vec![PageId(3)],
        }
    }

    #[test]
    fn complete_fuzzy_pair_sets_floor_from_low_water() {
        let log = with_lsns(vec![
            PageLogRecord::Begin { txn: TxnId(1) }, // lsn 1, still active
            ins(1),                                 // lsn 2
            ckpt_begin(1),                          // lsn 3, low-water = txn 1's Begin
            PageLogRecord::CheckpointEnd { begin_lsn: Lsn(3) }, // lsn 4
        ]);
        let a = analyze_page_log(&log);
        assert_eq!(a.last_checkpoint, Some(Lsn(3)));
        assert_eq!(a.redo_low_water, Some(Lsn(1)));
        assert_eq!(a.redo_floor(), Lsn(1));
        assert_eq!(a.torn_checkpoints, 0);
    }

    #[test]
    fn zero_low_water_means_begin_own_lsn() {
        let log = with_lsns(vec![
            ckpt_begin(0), // lsn 1: no in-flight writers at begin
            PageLogRecord::CheckpointEnd { begin_lsn: Lsn(1) },
        ]);
        let a = analyze_page_log(&log);
        assert_eq!(a.redo_low_water, Some(Lsn(1)));
    }

    #[test]
    fn torn_pair_falls_back_to_previous_complete_checkpoint() {
        let log = with_lsns(vec![
            ckpt_begin(0),                                      // lsn 1: completes below
            PageLogRecord::CheckpointEnd { begin_lsn: Lsn(1) }, // lsn 2
            PageLogRecord::Begin { txn: TxnId(5) },             // lsn 3
            ckpt_begin(3), // lsn 4: crash before its End — torn
        ]);
        let a = analyze_page_log(&log);
        assert_eq!(
            a.last_checkpoint,
            Some(Lsn(1)),
            "torn pair must not move the floor"
        );
        assert_eq!(a.redo_low_water, Some(Lsn(1)));
        assert_eq!(a.torn_checkpoints, 1);
    }

    #[test]
    fn end_without_matching_begin_is_ignored() {
        // An End whose Begin was truncated away, plus an End that
        // names the wrong Begin (overlapping checkpoints can't happen,
        // but a corrupt record could claim anything).
        let log = with_lsns(vec![
            PageLogRecord::CheckpointEnd { begin_lsn: Lsn(77) }, // lsn 1: orphan
            ckpt_begin(0),                                       // lsn 2
            PageLogRecord::CheckpointEnd { begin_lsn: Lsn(99) }, // lsn 3: mismatched
        ]);
        let a = analyze_page_log(&log);
        assert_eq!(a.last_checkpoint, None);
        assert_eq!(a.redo_low_water, None);
    }

    #[test]
    fn overtaken_begin_counts_torn_and_the_last_complete_pair_wins() {
        let log = with_lsns(vec![
            ckpt_begin(0),                                      // lsn 1: completes below
            PageLogRecord::CheckpointEnd { begin_lsn: Lsn(1) }, // lsn 2
            ckpt_begin(0),                                      // lsn 3: torn (overtaken)
            ckpt_begin(0),                                      // lsn 4: completes below
            PageLogRecord::CheckpointEnd { begin_lsn: Lsn(4) }, // lsn 5
        ]);
        let a = analyze_page_log(&log);
        assert_eq!(a.last_checkpoint, Some(Lsn(4)));
        assert_eq!(a.redo_low_water, Some(Lsn(4)));
        assert_eq!(a.torn_checkpoints, 1);
    }
}
