//! Group commit: coalesce concurrent durable-commit flushes.
//!
//! With `durable_commits` every committing transaction needs its log
//! records on stable storage before acknowledging. Syncing the device
//! once per transaction serializes commits behind the sync latency;
//! the classic fix is leader/follower group commit: the first waiter
//! becomes the leader and performs one sync that covers every record
//! appended before it started, and all concurrent waiters ride along.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use btrim_common::atomics::Relaxed;
use btrim_common::Result;

use crate::log::LogSink;

#[derive(Default)]
struct State {
    /// Highest flush generation requested by a committer.
    requested: u64,
    /// Highest generation known durable.
    flushed: u64,
    /// Whether a leader is currently syncing.
    flushing: bool,
}

/// Leader/follower flush coalescer over one log sink.
pub struct GroupCommitter {
    sink: Arc<dyn LogSink>,
    state: Mutex<State>,
    cv: Condvar,
    syncs: Relaxed<u64>,
    /// Optional fsync latency histogram (nanoseconds): records the
    /// leader's device sync only — followers ride along for free and
    /// timing them would double-count the same sync.
    flush_hist: Option<Arc<btrim_common::LatencyHistogram>>,
}

impl GroupCommitter {
    /// Wrap a sink.
    pub fn new(sink: Arc<dyn LogSink>) -> Self {
        GroupCommitter {
            sink,
            state: Mutex::with_rank(parking_lot::lock_rank::GROUP_COMMIT, State::default()),
            cv: Condvar::new(),
            syncs: Relaxed::new(0),
            flush_hist: None,
        }
    }

    /// Attach a leader-sync latency histogram (builder style).
    pub fn with_histogram(mut self, hist: Option<Arc<btrim_common::LatencyHistogram>>) -> Self {
        self.flush_hist = hist;
        self
    }

    /// Device syncs actually performed (tests / stats).
    pub fn sync_count(&self) -> u64 {
        self.syncs.load()
    }

    /// Make everything appended so far durable. Returns once a sync
    /// covering the caller's records has completed; concurrent callers
    /// share syncs.
    pub fn commit_flush(&self) -> Result<()> {
        let mut st = self.state.lock();
        st.requested += 1;
        let my_gen = st.requested;
        loop {
            if st.flushed >= my_gen {
                return Ok(());
            }
            if !st.flushing {
                // Become the leader: sync covers every request made so
                // far (their appends happened before they requested).
                st.flushing = true;
                let covers = st.requested;
                drop(st);
                let t = self.flush_hist.as_ref().map(|_| std::time::Instant::now());
                let result = self.sink.flush();
                if let (Some(h), Some(t)) = (&self.flush_hist, t) {
                    h.record(t.elapsed().as_nanos() as u64);
                }
                self.syncs.fetch_add(1);
                st = self.state.lock();
                st.flushing = false;
                if result.is_ok() {
                    st.flushed = st.flushed.max(covers);
                }
                self.cv.notify_all();
                result?;
            } else {
                // Follow: wait for the in-flight (or next) leader.
                self.cv.wait(&mut st);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::MemLog;
    use btrim_common::atomics::SeqCst;

    /// A sink that counts flushes and makes each one slow, so that
    /// concurrent committers pile up behind the leader.
    struct SlowSink {
        inner: MemLog,
        flushes: Relaxed<u64>,
    }

    impl LogSink for SlowSink {
        fn append(&self, payload: &[u8]) -> Result<btrim_common::Lsn> {
            self.inner.append(payload)
        }
        fn flush(&self) -> Result<()> {
            self.flushes.fetch_add(1);
            std::thread::sleep(std::time::Duration::from_millis(5));
            self.inner.flush()
        }
        fn read_all(&self) -> Result<Vec<(btrim_common::Lsn, Vec<u8>)>> {
            self.inner.read_all()
        }
        fn record_count(&self) -> u64 {
            self.inner.record_count()
        }
        fn byte_size(&self) -> u64 {
            self.inner.byte_size()
        }
        fn truncate_prefix(&self, upto: btrim_common::Lsn) -> Result<()> {
            self.inner.truncate_prefix(upto)
        }
    }

    #[test]
    fn single_committer_flushes_once() {
        let sink = Arc::new(SlowSink {
            inner: MemLog::new(),
            flushes: Relaxed::new(0),
        });
        let g = GroupCommitter::new(sink.clone());
        sink.append(b"r").unwrap();
        g.commit_flush().unwrap();
        assert_eq!(g.sync_count(), 1);
    }

    #[test]
    fn concurrent_commits_share_syncs() {
        let sink = Arc::new(SlowSink {
            inner: MemLog::new(),
            flushes: Relaxed::new(0),
        });
        let g = Arc::new(GroupCommitter::new(sink.clone()));
        let committers = 16;
        let per = 10;
        std::thread::scope(|s| {
            for t in 0..committers {
                let g = Arc::clone(&g);
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for i in 0..per {
                        sink.append(&[t as u8, i as u8]).unwrap();
                        g.commit_flush().unwrap();
                    }
                });
            }
        });
        let total_commits = (committers * per) as u64;
        let syncs = g.sync_count();
        assert!(syncs >= 1);
        assert!(
            syncs < total_commits / 2,
            "group commit must coalesce: {syncs} syncs for {total_commits} commits"
        );
        assert_eq!(sink.record_count(), total_commits);
    }

    /// A sink whose flushes block until the device "dies", then fail —
    /// and keep failing — so concurrent committers are caught mid-sync.
    struct DyingSink {
        inner: MemLog,
        dead: SeqCst<bool>,
        entered: SeqCst<u64>,
    }

    impl LogSink for DyingSink {
        fn append(&self, payload: &[u8]) -> Result<btrim_common::Lsn> {
            self.inner.append(payload)
        }
        fn append_batch(&self, payloads: &[&[u8]]) -> Result<crate::log::LsnRange> {
            self.inner.append_batch(payloads)
        }
        fn flush(&self) -> Result<()> {
            self.entered.fetch_add(1);
            // Hold the leader in the sync until the device dies.
            while !self.dead.load() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(btrim_common::BtrimError::Io(std::io::Error::other(
                "log device died mid-sync",
            )))
        }
        fn read_all(&self) -> Result<Vec<(btrim_common::Lsn, Vec<u8>)>> {
            self.inner.read_all()
        }
        fn record_count(&self) -> u64 {
            self.inner.record_count()
        }
        fn byte_size(&self) -> u64 {
            self.inner.byte_size()
        }
        fn truncate_prefix(&self, upto: btrim_common::Lsn) -> Result<()> {
            self.inner.truncate_prefix(upto)
        }
    }

    #[test]
    fn device_death_mid_sync_errors_leader_and_all_followers() {
        let sink = Arc::new(DyingSink {
            inner: MemLog::new(),
            dead: SeqCst::new(false),
            entered: SeqCst::new(0),
        });
        let g = Arc::new(GroupCommitter::new(sink.clone()));
        let committers = 8;
        let (tx, rx) = std::sync::mpsc::channel::<Result<()>>();
        let mut handles = Vec::new();
        for t in 0..committers {
            let g = Arc::clone(&g);
            let sink = Arc::clone(&sink);
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                sink.append(&[t as u8]).unwrap();
                let _ = tx.send(g.commit_flush());
            }));
        }
        drop(tx);
        // Let a leader enter the sync and followers pile up on the
        // condvar, then kill the device.
        while sink.entered.load() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        sink.dead.store(true);
        // Every committer must return an error *promptly* — nobody may
        // hang on the condvar waiting for a flush that will never come.
        let deadline = std::time::Duration::from_secs(10);
        let mut errors = 0;
        for _ in 0..committers {
            match rx.recv_timeout(deadline) {
                Ok(res) => {
                    assert!(res.is_err(), "sync died: commit_flush must fail");
                    errors += 1;
                }
                Err(_) => panic!("a committer is stranded on the condvar"),
            }
        }
        assert_eq!(errors, committers);
        for h in handles {
            h.join().unwrap();
        }
        // Followers that woke to a failed leader retried as leaders
        // themselves and hit the dead device; the sync was attempted at
        // least once and nobody was left flushing.
        assert!(sink.entered.load() >= 1);
        assert!(!g.state.lock().flushing);
    }

    #[test]
    fn generation_covers_batch_lsn_range() {
        // A batch append reserves its whole LSN range before the flush
        // request is made, so the leader's sync generation covers every
        // record of the batch — verified by checking the sink saw all
        // records at flush time.
        struct CountAtFlush {
            inner: MemLog,
            seen_at_flush: SeqCst<u64>,
        }
        impl LogSink for CountAtFlush {
            fn append(&self, payload: &[u8]) -> Result<btrim_common::Lsn> {
                self.inner.append(payload)
            }
            fn append_batch(&self, payloads: &[&[u8]]) -> Result<crate::log::LsnRange> {
                self.inner.append_batch(payloads)
            }
            fn flush(&self) -> Result<()> {
                self.seen_at_flush.store(self.inner.record_count());
                self.inner.flush()
            }
            fn read_all(&self) -> Result<Vec<(btrim_common::Lsn, Vec<u8>)>> {
                self.inner.read_all()
            }
            fn record_count(&self) -> u64 {
                self.inner.record_count()
            }
            fn byte_size(&self) -> u64 {
                self.inner.byte_size()
            }
            fn truncate_prefix(&self, upto: btrim_common::Lsn) -> Result<()> {
                self.inner.truncate_prefix(upto)
            }
        }
        let sink = Arc::new(CountAtFlush {
            inner: MemLog::new(),
            seen_at_flush: SeqCst::new(0),
        });
        let g = GroupCommitter::new(sink.clone());
        let range = sink
            .append_batch(&[b"a".as_ref(), b"b".as_ref(), b"c".as_ref(), b"d".as_ref()])
            .unwrap();
        g.commit_flush().unwrap();
        assert!(
            sink.seen_at_flush.load() >= range.last.0,
            "sync must cover the whole batch LSN range"
        );
    }

    #[test]
    fn sequential_commits_each_get_their_own_sync() {
        let sink = Arc::new(SlowSink {
            inner: MemLog::new(),
            flushes: Relaxed::new(0),
        });
        let g = GroupCommitter::new(sink.clone());
        for i in 0..5u8 {
            sink.append(&[i]).unwrap();
            g.commit_flush().unwrap();
        }
        // No concurrency to coalesce: every commit sync is real.
        assert_eq!(g.sync_count(), 5);
    }
}
