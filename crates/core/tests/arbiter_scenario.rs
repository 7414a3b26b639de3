//! Deterministic arbiter scenario: trace-vs-snapshot consistency.
//!
//! Runs a seeded two-phase workload under a unified memory budget and
//! asserts the arbiter's decision trace is a faithful explanation of
//! every budget move (the `obs_consistency` contract, extended to the
//! memory arbiter):
//!
//! * phase 1 (IMRS-hungry: a hot set bigger than the IMRS budget, so
//!   hot reads keep falling through to pages; quiet buffer) must move
//!   budget *to* the IMRS;
//! * phase 2 (buffer-hungry: wide page-store reads past capacity,
//!   quiet IMRS) must move budget back *to* the cache;
//! * every traced vote/shift carries inputs that reproduce its cited
//!   marginal utilities, respects the vote margin, hysteresis, floors
//!   and shift caps, and the trace totals equal the snapshot counters.

use std::sync::Arc;

use btrim_core::arbiter::{self, DEFAULT_MISS_NS, HYSTERESIS_WINDOWS, VOTE_MARGIN};
use btrim_core::catalog::{Partitioner, TableOpts};
use btrim_core::pack::{pack_cycle, PackLevel};
use btrim_core::{ArbiterAction, Engine, EngineConfig, EngineMode, IlmTraceEvent};
use btrim_pagestore::PAGE_SIZE;

fn mkrow(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut v = key.to_be_bytes().to_vec();
    v.extend_from_slice(payload);
    v
}

fn opts(name: &str, imrs: bool) -> TableOpts {
    TableOpts {
        name: name.into(),
        imrs_enabled: imrs,
        pinned: false,
        partitioner: Partitioner::Single,
        primary_key: Arc::new(|row: &[u8]| row[..8].to_vec()),
        layout: None,
    }
}

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn arbiter_trace_explains_every_shift() {
    let cfg = EngineConfig {
        mode: EngineMode::IlmOn,
        total_memory_budget: 8 * 1024 * 1024,
        imrs_chunk_size: 256 * 1024,
        maintenance_interval_txns: 8,
        // Keep the partition tuner out of the way: this scenario is
        // about memory, not placement.
        tuning_window_txns: u64::MAX / 2,
        obs_trace_capacity: 1 << 16,
        ..Default::default()
    };
    let total = cfg.total_memory_budget;
    let max_shift = arbiter::max_shift_bytes(&cfg);
    let imrs_floor = arbiter::imrs_floor_bytes(&cfg);
    let buffer_floor = arbiter::buffer_floor_bytes(&cfg);
    let chunk = cfg.imrs_chunk_size as u64;
    let (imrs0, frames0) = cfg.memory_split();
    let e = Engine::new(cfg);
    assert_eq!(e.snapshot().imrs_budget, imrs0);
    assert_eq!(e.snapshot().buffer_capacity_frames, frames0 as u64);

    let hot = e.create_table(opts("hot", true)).unwrap();
    let cold = e.create_table(opts("cold", false)).unwrap();

    // A hot set half again the IMRS budget: the overflow lands in the
    // page store (pack drains the backpressure during the load), so
    // phase-1 reads keep generating page ops on an IMRS-enabled
    // partition — the IMRS miss signal.
    let hot_rows = 6_000u64;
    for base in (0..hot_rows).step_by(50) {
        loop {
            let mut txn = e.begin();
            let mut ok = true;
            for i in base..(base + 50).min(hot_rows) {
                if e.insert(&mut txn, &hot, &mkrow(i, &[0xA5; 1024])).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok {
                e.commit(txn).unwrap();
                break;
            }
            e.abort(txn);
            pack_cycle(&e, PackLevel::Aggressive);
        }
    }
    // Cold page-store footprint about twice the initial buffer.
    let cold_rows = 2 * frames0 as u64 * (PAGE_SIZE as u64 / 1024);
    for base in (0..cold_rows).step_by(100) {
        let mut txn = e.begin();
        for i in base..(base + 100).min(cold_rows) {
            e.insert(&mut txn, &cold, &mkrow(1_000_000 + i, &[0x5A; 900]))
                .unwrap();
        }
        e.commit(txn).unwrap();
    }

    // Phase 1: sweep the whole hot set — the page-resident overflow
    // keeps the IMRS marginal utility high; the hot pages fit in the
    // buffer so its miss signal stays quiet.
    for round in 0..1_500u64 {
        let txn = e.begin();
        for k in 0..8u64 {
            let key = ((round * 8 + k) % hot_rows).to_be_bytes();
            e.get(&txn, &hot, &key).unwrap().unwrap();
        }
        e.commit(txn).unwrap();
    }
    let mid = e.snapshot();
    assert!(
        mid.arbiter_bytes_to_imrs > 0,
        "phase 1 must shift budget to the IMRS: {}",
        mid.arbiter_bytes_to_imrs
    );

    // Phase 2: sweep the cold table's pages (far past capacity, so
    // misses dominate) and leave the hot table untouched.
    for round in 0..3_000u64 {
        let txn = e.begin();
        for k in 0..4u64 {
            // A large prime stride defeats any residual locality.
            let i = (round * 4 + k) * 7_919 % cold_rows;
            e.get(&txn, &cold, &(1_000_000 + i).to_be_bytes())
                .unwrap()
                .unwrap();
        }
        e.commit(txn).unwrap();
    }
    let snap = e.snapshot();
    assert!(
        snap.arbiter_bytes_to_buffer > 0,
        "phase 2 must shift budget back to the buffer cache: {}",
        snap.arbiter_bytes_to_buffer
    );

    // The trace is complete …
    let obs = e.obs();
    assert_eq!(obs.trace.dropped(), 0, "ring sized too small for the run");
    let events: Vec<_> = obs
        .trace
        .events()
        .into_iter()
        .filter_map(|ev| match ev {
            IlmTraceEvent::Arbiter(a) => Some(a),
            _ => None,
        })
        .collect();
    assert!(!events.is_empty());

    // … every event's inputs reproduce its cited verdict …
    for a in &events {
        assert_eq!(a.votes_needed, HYSTERESIS_WINDOWS);
        assert!(a.votes >= 1 && a.votes <= a.votes_needed, "{a:?}");
        assert!(a.miss_ns == DEFAULT_MISS_NS || a.miss_ns > 0);
        let miss_us = (a.miss_ns as f64 / 1_000.0).max(1.0);
        let imrs_mib = (a.imrs_bytes as f64 / (1024.0 * 1024.0)).max(1.0);
        let buffer_mib = (a.buffer_bytes as f64 / (1024.0 * 1024.0)).max(1.0);
        let want_imrs_mu = a.imrs_miss_ops as f64 * miss_us / imrs_mib;
        let want_buffer_mu = a.buffer_misses as f64 * miss_us / buffer_mib;
        assert!(approx(a.imrs_mu, want_imrs_mu), "{a:?}");
        assert!(approx(a.buffer_mu, want_buffer_mu), "{a:?}");
        match a.action {
            ArbiterAction::VoteImrs | ArbiterAction::ShiftToImrs => {
                assert!(
                    a.imrs_mu > 0.0 && a.imrs_mu > VOTE_MARGIN * a.buffer_mu,
                    "{a:?}"
                );
            }
            ArbiterAction::VoteBuffer | ArbiterAction::ShiftToBuffer => {
                assert!(
                    a.buffer_mu > 0.0 && a.buffer_mu > VOTE_MARGIN * a.imrs_mu,
                    "{a:?}"
                );
            }
        }
        if a.action.is_shift() {
            // Hysteresis met; shift chunk-quantized, within cap and
            // granularity; both pools moved by exactly the same bytes.
            assert_eq!(a.votes, a.votes_needed, "shift before hysteresis met");
            assert_eq!(a.shift_bytes % chunk, 0, "{a:?}");
            assert!(a.shift_bytes >= chunk, "{a:?}");
            assert!(a.shift_bytes <= max_shift, "{a:?}");
            match a.action {
                ArbiterAction::ShiftToImrs => {
                    // The shrinking side never dips below its floor.
                    assert!(a.buffer_bytes - a.shift_bytes >= buffer_floor, "{a:?}");
                    assert_eq!(a.imrs_bytes_after, a.imrs_bytes + a.shift_bytes, "{a:?}");
                    assert_eq!(
                        a.buffer_frames_after,
                        (a.buffer_bytes - a.shift_bytes) / PAGE_SIZE as u64,
                        "{a:?}"
                    );
                }
                ArbiterAction::ShiftToBuffer => {
                    assert!(a.imrs_bytes - a.shift_bytes >= imrs_floor, "{a:?}");
                    assert_eq!(a.imrs_bytes_after, a.imrs_bytes - a.shift_bytes, "{a:?}");
                    assert_eq!(
                        a.buffer_frames_after,
                        (a.buffer_bytes + a.shift_bytes) / PAGE_SIZE as u64,
                        "{a:?}"
                    );
                }
                _ => unreachable!(),
            }
        } else {
            assert_eq!(a.shift_bytes, 0, "{a:?}");
            assert_eq!(
                a.imrs_bytes_after, a.imrs_bytes,
                "vote must not move budget"
            );
        }
    }

    // … window ordinals never decrease and stay within the windows run …
    let mut prev = 0;
    for a in &events {
        assert!(a.window >= prev);
        assert!(a.window <= snap.arbiter_windows);
        prev = a.window;
    }

    // … and the trace totals equal the snapshot counters exactly.
    let traced_shifts = events.iter().filter(|a| a.action.is_shift()).count() as u64;
    assert_eq!(traced_shifts, snap.arbiter_shifts);
    let traced_to_imrs: u64 = events
        .iter()
        .filter(|a| matches!(a.action, ArbiterAction::ShiftToImrs))
        .map(|a| a.shift_bytes)
        .sum();
    let traced_to_buffer: u64 = events
        .iter()
        .filter(|a| matches!(a.action, ArbiterAction::ShiftToBuffer))
        .map(|a| a.shift_bytes)
        .sum();
    assert_eq!(traced_to_imrs, snap.arbiter_bytes_to_imrs);
    assert_eq!(traced_to_buffer, snap.arbiter_bytes_to_buffer);
    assert!(snap.arbiter_windows > 0);
    assert_eq!(snap.total_memory_budget, total);

    // Chunk-quantized shifts conserve the total budget exactly.
    assert_eq!(
        snap.imrs_budget + snap.buffer_capacity_frames * PAGE_SIZE as u64,
        imrs0 + (frames0 * PAGE_SIZE) as u64,
        "budget leaked across shifts"
    );
}

/// Legacy fixed-split configs never arbitrate: the pools stay exactly
/// where `imrs_budget` / `buffer_frames` put them.
#[test]
fn legacy_config_never_shifts() {
    let e = Engine::new(EngineConfig {
        mode: EngineMode::IlmOn,
        imrs_budget: 2 * 1024 * 1024,
        imrs_chunk_size: 512 * 1024,
        buffer_frames: 256,
        maintenance_interval_txns: 8,
        ..Default::default()
    });
    let t = e.create_table(opts("t", true)).unwrap();
    {
        let mut txn = e.begin();
        for i in 0..200u64 {
            e.insert(&mut txn, &t, &mkrow(i, &[1u8; 128])).unwrap();
        }
        e.commit(txn).unwrap();
    }
    for round in 0..500u64 {
        let txn = e.begin();
        e.get(&txn, &t, &(round % 200).to_be_bytes())
            .unwrap()
            .unwrap();
        e.commit(txn).unwrap();
    }
    let snap = e.snapshot();
    assert_eq!(snap.total_memory_budget, 0);
    assert_eq!(snap.arbiter_windows, 0);
    assert_eq!(snap.arbiter_shifts, 0);
    assert_eq!(snap.imrs_budget, 2 * 1024 * 1024);
    assert_eq!(snap.buffer_capacity_frames, 256);
    let obs = e.obs();
    assert!(obs
        .trace
        .events()
        .into_iter()
        .all(|ev| !matches!(ev, IlmTraceEvent::Arbiter(_))));
}
