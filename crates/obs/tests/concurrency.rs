//! Satellite: 8 threads hammering one histogram and one ILM trace ring
//! must lose no counts and never produce torn or interleaved events.

use std::sync::Arc;

use btrim_common::{LatencyHistogram, TraceRing};
use btrim_obs::{IlmTraceEvent, Obs, OpClass, PackCycleTrace, PackPartitionTrace};

const THREADS: u64 = 8;
const PER_THREAD: u64 = 50_000;

#[test]
fn eight_threads_lose_no_histogram_counts() {
    let h = Arc::new(LatencyHistogram::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Spread values across many octaves so every thread
                    // contends on overlapping buckets.
                    h.record((t + 1) * (i % 4096 + 1));
                }
            });
        }
    });
    let s = h.snapshot();
    assert_eq!(s.count, THREADS * PER_THREAD);
    assert_eq!(s.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
    // The sum is exactly reproducible: Σ_t Σ_i (t+1)*(i%4096+1).
    let expected: u64 = (1..=THREADS)
        .map(|t| (0..PER_THREAD).map(|i| t * (i % 4096 + 1)).sum::<u64>())
        .sum();
    assert_eq!(s.sum, expected);
    assert_eq!(s.max, THREADS * 4096);
}

#[test]
fn eight_threads_merge_into_one_losslessly() {
    // Per-thread histograms merged at the end equal one shared target —
    // the pattern multi-engine benches use.
    let partials: Vec<Arc<LatencyHistogram>> = (0..THREADS)
        .map(|_| Arc::new(LatencyHistogram::new()))
        .collect();
    std::thread::scope(|s| {
        for (t, h) in partials.iter().enumerate() {
            let h = Arc::clone(h);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record((t as u64 + 1) << (i % 20));
                }
            });
        }
    });
    let merged = LatencyHistogram::new();
    for h in &partials {
        merged.merge_from(h);
    }
    assert_eq!(merged.count(), THREADS * PER_THREAD);
    let s = merged.snapshot();
    assert_eq!(s.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
}

/// Every pushed event must come out whole: the cycle ordinal is
/// repeated in every field, so any torn or interleaved write shows up
/// as a mismatch.
fn stamped_event(thread: u64, seq: u64) -> IlmTraceEvent {
    let stamp = thread * 1_000_000 + seq;
    IlmTraceEvent::Pack(PackCycleTrace {
        cycle: stamp,
        level: "steady",
        utilization: stamp as f64,
        over_steady_bytes: stamp,
        num_bytes_to_pack: stamp,
        bytes_packed: stamp,
        partitions: vec![PackPartitionTrace {
            partition: stamp,
            ui: stamp as f64,
            cui: stamp as f64,
            pi: stamp as f64,
            owed_bytes: stamp,
            target_bytes: stamp,
            bytes_packed: stamp,
            rows_skipped_hot: stamp,
            tsf_bypassed: false,
            scanned: true,
        }],
    })
}

fn assert_untorn(ev: &IlmTraceEvent) -> u64 {
    let IlmTraceEvent::Pack(p) = ev else {
        panic!("unexpected event kind");
    };
    let stamp = p.cycle;
    assert_eq!(p.over_steady_bytes, stamp, "torn event");
    assert_eq!(p.num_bytes_to_pack, stamp, "torn event");
    assert_eq!(p.bytes_packed, stamp, "torn event");
    assert_eq!(p.utilization, stamp as f64, "torn event");
    assert_eq!(p.partitions.len(), 1);
    let s = &p.partitions[0];
    assert_eq!(s.partition, stamp, "torn partition slice");
    assert_eq!(s.target_bytes, stamp, "torn partition slice");
    assert_eq!(s.rows_skipped_hot, stamp, "torn partition slice");
    stamp
}

#[test]
fn eight_threads_never_tear_trace_events() {
    const EVENTS: u64 = 2_000;
    let ring: Arc<TraceRing<IlmTraceEvent>> = Arc::new(TraceRing::new(512));
    std::thread::scope(|s| {
        // Writers push stamped events; a reader concurrently snapshots
        // and validates while the ring churns.
        for t in 0..THREADS {
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                for i in 0..EVENTS {
                    ring.push(stamped_event(t, i));
                }
            });
        }
        let ring = Arc::clone(&ring);
        s.spawn(move || {
            while ring.pushed() < THREADS * EVENTS {
                for ev in ring.events() {
                    assert_untorn(&ev);
                }
            }
        });
    });
    // Accounting: everything pushed is either retained or counted as
    // evicted — no silent loss.
    assert_eq!(ring.pushed(), THREADS * EVENTS);
    assert_eq!(ring.pushed(), ring.dropped() + ring.len() as u64);
    // Final contents are whole, and per-thread sequence numbers appear
    // in increasing order (events from one thread never reorder).
    let mut last_seq = vec![None::<u64>; THREADS as usize];
    for ev in ring.events() {
        let stamp = assert_untorn(&ev);
        let (t, seq) = ((stamp / 1_000_000) as usize, stamp % 1_000_000);
        if let Some(prev) = last_seq[t] {
            assert!(
                seq > prev,
                "thread {t} events reordered: {seq} after {prev}"
            );
        }
        last_seq[t] = Some(seq);
    }
}

#[test]
fn obs_hub_is_safely_shared() {
    // The full hub under concurrent latency records + trace pushes, the
    // way engine threads and maintenance threads share it.
    let obs = Arc::new(Obs::new(true, 256));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let obs = Arc::clone(&obs);
            s.spawn(move || {
                for i in 0..10_000u64 {
                    obs.record_nanos(OpClass::SelectImrs, i + 1);
                    if i % 100 == 0 {
                        obs.trace.push(stamped_event(t, i));
                    }
                }
            });
        }
    });
    assert_eq!(obs.hist(OpClass::SelectImrs).count(), THREADS * 10_000);
    assert_eq!(obs.trace.pushed(), THREADS * 100);
    for ev in obs.trace.events() {
        assert_untorn(&ev);
    }
}
