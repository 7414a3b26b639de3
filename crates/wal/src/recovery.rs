//! Log analysis for recovery.
//!
//! The engine drives recovery in lock-step (§II): the page-store log is
//! analysed and replayed first (redo winners, undo losers), then the
//! redo-only IMRS log is replayed forward. This module implements the
//! analysis pass and finds the one checkpoint record pair both logs
//! are recovered from; the physical replay lives in the engine, which
//! owns the stores the records apply to.

use std::collections::{HashMap, HashSet};

use btrim_common::{Lsn, Timestamp, TxnId};

use crate::record::{ImageHeader, ImrsLogRecord, PageLogRecord};

/// Outcome of the analysis pass over `syslogs`.
#[derive(Debug, Default)]
pub struct LogAnalysis {
    /// Committed transactions and their commit timestamps.
    pub winners: HashMap<TxnId, Timestamp>,
    /// Winners whose `Commit` says they appended a sysimrslogs batch
    /// before it (see [`LogAnalysis::lose_unbacked_commits`]).
    pub batched: HashSet<TxnId>,
    /// Transactions with a Begin but no Commit/Abort (in-flight at
    /// crash): their changes must be undone.
    pub losers: HashSet<TxnId>,
    /// Transactions that aborted cleanly (already undone before the
    /// crash, because our undo happens online at rollback).
    pub aborted: HashSet<TxnId>,
    /// Highest commit timestamp seen (clock resume point).
    pub max_commit_ts: Timestamp,
}

/// Analyse the page-store log: classify transactions.
pub fn analyze_page_log(records: &[(Lsn, PageLogRecord)]) -> LogAnalysis {
    let mut a = LogAnalysis::default();
    let mut seen: HashSet<TxnId> = HashSet::new();
    for (_lsn, rec) in records {
        match rec {
            PageLogRecord::Begin { txn } => {
                seen.insert(*txn);
                a.losers.insert(*txn);
            }
            PageLogRecord::Commit {
                txn,
                ts,
                imrs_batch,
            } => {
                a.losers.remove(txn);
                a.winners.insert(*txn, *ts);
                if *imrs_batch {
                    a.batched.insert(*txn);
                }
                if *ts > a.max_commit_ts {
                    a.max_commit_ts = *ts;
                }
            }
            PageLogRecord::Abort { txn } => {
                a.losers.remove(txn);
                a.aborted.insert(*txn);
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
    a
}

impl LogAnalysis {
    /// Whether an IMRS record's transaction lost: a loser's or an aborted
    /// transaction's record does, and so do three kinds without a syslogs
    /// `Commit`, whose sysimrslogs half another's barrier can make
    /// durable while the rest of the transaction (its `Begin` too,
    /// perhaps) is gone: a mixed transaction's batch, a departure to a
    /// page (`Pack`, `ExtentRowGone`) — its arrival is the syslogs
    /// `Insert`, so without the `Commit` the row stays where it was —
    /// and a freeze batch's `Freeze`, whose rows leave their pages by
    /// syslogs `Delete`s: without the `Commit` they stay on them, and an
    /// extent installed beside them would be replayed again, against
    /// other pages, by every later recovery.
    pub fn loses(&self, rec: &ImrsLogRecord) -> bool {
        use ImrsLogRecord::{ExtentRowGone, Freeze, Pack};
        let syslogs_verdict = matches!(rec, Pack { .. } | ExtentRowGone { .. } | Freeze { .. });
        rec.txn()
            .is_some_and(|txn| match rec.mixed() || syslogs_verdict {
                true => !self.winners.contains_key(&txn),
                false => self.losers.contains(&txn) || self.aborted.contains(&txn),
            })
    }

    /// A mixed transaction appends its sysimrslogs batch and then its
    /// syslogs `Commit`, and another transaction's syslogs sync can make
    /// that `Commit` durable while the batch is still volatile. So a
    /// batched winner whose batch recovery cannot find — no record of it
    /// in the salvaged sysimrslogs `imrs`, and committed after the
    /// certified `image`'s snapshot — loses: its page records are undone
    /// with the rest. Returns how many lost.
    pub fn lose_unbacked_commits(
        &mut self,
        imrs: &[(Lsn, ImrsLogRecord)],
        image: Option<&ImageMark>,
    ) -> usize {
        let logged: HashSet<TxnId> = imrs.iter().filter_map(|(_, rec)| rec.txn()).collect();
        let held = |ts: Timestamp| image.is_some_and(|m| ts <= m.header.snapshot);
        let unbacked: Vec<TxnId> = (self.batched.iter())
            .filter(|txn| !logged.contains(txn))
            .filter(|txn| self.winners.get(txn).is_some_and(|&ts| !held(ts)))
            .copied()
            .collect();
        for txn in &unbacked {
            self.winners.remove(txn);
            self.batched.remove(txn);
            self.losers.insert(*txn);
        }
        unbacked.len()
    }
}

/// The newest certified checkpoint: the LSNs of its sysimrslogs
/// `CheckpointBegin` and `CheckpointEnd`, and the Begin's header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageMark {
    pub begin: Lsn,
    pub end: Lsn,
    pub header: ImageHeader,
}

/// The checkpoint of the last `CheckpointBegin` whose `CheckpointEnd`
/// made the media: the one record pair that certifies both logs. A
/// Begin without its End is a torn checkpoint and certifies nothing.
pub fn newest_image(records: &[(Lsn, ImrsLogRecord)]) -> Option<ImageMark> {
    let mut begun = HashMap::new();
    let mut newest = None;
    for (lsn, rec) in records {
        match *rec {
            ImrsLogRecord::CheckpointBegin(header) => {
                begun.insert(*lsn, header);
            }
            ImrsLogRecord::CheckpointEnd { begin_lsn } => {
                if let Some(header) = begun.remove(&begin_lsn) {
                    let (begin, end) = (begin_lsn, *lsn);
                    newest = Some(ImageMark { begin, end, header });
                }
            }
            _ => {}
        }
    }
    newest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MIXED_TXN_BIT;
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

    fn commit(txn: u64, ts: u64, imrs_batch: bool) -> PageLogRecord {
        PageLogRecord::Commit {
            txn: TxnId(txn),
            ts: Timestamp(ts),
            imrs_batch,
        }
    }

    fn with_lsns<R>(recs: Vec<R>) -> Vec<(Lsn, R)> {
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
            commit(1, 10, false),
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
        assert!(a.batched.is_empty());
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
        assert_eq!(a.max_commit_ts, Timestamp::ZERO);
        assert_eq!(newest_image(&[]), None);
    }

    fn header(snapshot: u64, sys_floor: u64) -> ImageHeader {
        ImageHeader {
            snapshot: Timestamp(snapshot),
            imrs_floor: Lsn(1),
            sys_floor: Lsn(sys_floor),
            next_row: RowId(1),
            next_txn: TxnId(1),
            next_internal: 0,
            next_extent: 0,
        }
    }

    fn begin(snapshot: u64) -> ImrsLogRecord {
        ImrsLogRecord::CheckpointBegin(header(snapshot, snapshot))
    }

    fn end(begin_lsn: u64) -> ImrsLogRecord {
        ImrsLogRecord::CheckpointEnd {
            begin_lsn: Lsn(begin_lsn),
        }
    }

    fn update(txn: u64, ts: u64) -> ImrsLogRecord {
        ImrsLogRecord::Update {
            txn: TxnId(txn),
            ts: Timestamp(ts),
            partition: PartitionId(0),
            row: RowId(1),
            data: vec![1],
        }
    }

    #[test]
    fn a_complete_pair_certifies_its_header() {
        let log = with_lsns(vec![update(1, 5), begin(7), update(2, 8), end(2)]);
        let m = newest_image(&log).unwrap();
        assert_eq!((m.begin, m.end), (Lsn(2), Lsn(4)));
        assert_eq!(m.header, header(7, 7));
    }

    #[test]
    fn torn_pair_falls_back_to_previous_complete_checkpoint() {
        let log = with_lsns(vec![
            begin(3), // lsn 1: completes below
            end(1),   // lsn 2
            update(5, 9),
            begin(9), // lsn 4: crash before its End — torn
            update(6, 10),
        ]);
        let m = newest_image(&log).unwrap();
        assert_eq!(m.begin, Lsn(1), "torn pair must not move the floors");
        assert_eq!(m.header.sys_floor, Lsn(3));
    }

    #[test]
    fn end_without_matching_begin_is_ignored() {
        // An End whose Begin was truncated away, plus an End that names
        // the wrong Begin (a corrupt record could claim anything).
        let log = with_lsns(vec![end(77), begin(1), end(99)]);
        assert_eq!(newest_image(&log), None);
    }

    #[test]
    fn overtaken_begin_and_the_last_complete_pair_wins() {
        let log = with_lsns(vec![
            begin(1), // lsn 1: completes below
            end(1),   // lsn 2
            begin(2), // lsn 3: torn (overtaken)
            begin(4), // lsn 4: completes below
            end(4),   // lsn 5
        ]);
        let m = newest_image(&log).unwrap();
        assert_eq!((m.begin, m.end), (Lsn(4), Lsn(5)));
        assert_eq!(m.header.snapshot, Timestamp(4));
    }

    fn pack(txn: u64) -> ImrsLogRecord {
        ImrsLogRecord::Pack {
            txn: TxnId(txn),
            ts: Timestamp(5),
            partition: PartitionId(0),
            row: RowId(1),
        }
    }

    fn thawed(txn: u64) -> ImrsLogRecord {
        ImrsLogRecord::ExtentRowGone {
            txn: TxnId(txn),
            ts: Timestamp(5),
            partition: PartitionId(0),
            row: RowId(1),
            extent: 3,
            idx: 0,
        }
    }

    /// A departure to a page counts only beside its syslogs `Commit`:
    /// txn 1 committed, txn 2 began and was cut, txn 3 left nothing on
    /// syslogs — its `Pack` was made durable by another's barrier.
    #[test]
    fn a_departure_to_a_page_without_its_commit_loses() {
        let sys = with_lsns(vec![
            PageLogRecord::Begin { txn: TxnId(1) },
            ins(1),
            commit(1, 10, false),
            PageLogRecord::Begin { txn: TxnId(2) },
            ins(2),
        ]);
        let a = analyze_page_log(&sys);
        for departure in [pack, thawed] {
            assert!(!a.loses(&departure(1)), "{:?}", departure(1));
            assert!(a.loses(&departure(2)), "{:?}", departure(2));
            assert!(a.loses(&departure(3)), "{:?}", departure(3));
        }
        // An IMRS-only user record with no syslogs evidence still wins.
        assert!(!a.loses(&update(3, 30)));
    }

    /// Txn 1's batch is in the log, txn 2's is held by the image, txn 3's
    /// is lost (its `Commit` outran it), txn 4 wrote no batch.
    #[test]
    fn a_batched_commit_whose_batch_is_gone_loses() {
        let sys = with_lsns(vec![
            commit(1, 20, true),
            commit(2, 10, true),
            commit(3, 21, true),
            commit(4, 22, false),
        ]);
        let imrs = with_lsns(vec![begin(15), end(1), update(1, 20)]);
        let image = newest_image(&imrs);
        let mut a = analyze_page_log(&sys);
        assert_eq!(a.lose_unbacked_commits(&imrs, image.as_ref()), 1);
        assert!(a.losers.contains(&TxnId(3)) && !a.winners.contains_key(&TxnId(3)));
        for txn in [1, 2, 4] {
            assert!(a.winners.contains_key(&TxnId(txn)), "txn {txn}");
        }
        // A mixed batch stands or falls with its `Commit`; an IMRS-only
        // one (txn 5: no syslogs evidence) stands.
        let mixed = |txn| update(txn | MIXED_TXN_BIT, 30);
        assert!(!a.loses(&mixed(1)) && a.loses(&mixed(3)) && a.loses(&mixed(5)));
        assert!(!a.loses(&update(5, 30)) && a.loses(&update(3, 30)));
        // Without the image, txn 2's batch is gone too.
        let mut a = analyze_page_log(&sys);
        assert_eq!(a.lose_unbacked_commits(&imrs[2..], None), 2);
        assert!(a.losers.contains(&TxnId(2)));
    }
}
