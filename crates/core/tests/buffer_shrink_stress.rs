//! Buffer-cache shrink stress test.
//!
//! `BufferCache::set_capacity` is public: the benchmark's page-store
//! probes shrink a cache to the workload's cache share with it, and any
//! caller may resize a pool that is in use. So it must be safe against
//! live pin traffic: a shrink below the pinned count must never invalidate a
//! held guard, never deadlock against fetch/eviction, and the uncovered
//! frames must sit as shrink debt that drains once the pins release.
//!
//! Eight threads hammer one cache: six workers fetch, write through,
//! and cycle pinned guards; one controller oscillates the capacity
//! between "far below the pin count" and "roomy" the whole time; one
//! watcher releases the controller when the workers finish. Survival
//! plus the end-state assertions (debt fully drained, every page's
//! content intact) are the test.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use btrim_common::{PartitionId, SlotId};
use btrim_pagestore::{BufferCache, MemDisk, PageType};

/// Pages each worker owns and keeps revisiting.
const PAGES_PER_WORKER: usize = 24;
/// Guards each worker holds pinned at once — six workers × two pins is
/// far above the controller's low-water capacity of four frames.
const PINS_HELD: usize = 2;
const ROUNDS: usize = 200;

#[test]
fn capacity_oscillation_under_pin_traffic() {
    let cache = Arc::new(BufferCache::with_shards(Arc::new(MemDisk::new()), 64, 4));
    let workers = 6;
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicUsize::new(0));

    // Each worker pre-creates its pages with a recognizable payload.
    let mut all_ids = Vec::new();
    for w in 0..workers {
        let mut ids = Vec::new();
        for i in 0..PAGES_PER_WORKER {
            let g = cache
                .new_page(PageType::Heap, PartitionId(w as u32))
                .unwrap();
            g.with_page_write(|p| {
                p.insert(&[w as u8 * 32 + i as u8; 16]).unwrap();
            });
            ids.push(g.page_id());
        }
        all_ids.push(ids);
    }

    std::thread::scope(|s| {
        for ids in &all_ids {
            let cache = Arc::clone(&cache);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut held = std::collections::VecDeque::new();
                for r in 0..ROUNDS {
                    let id = ids[r % ids.len()];
                    // Fetches may transiently hit BufferExhausted while
                    // the controller sits at the low-water mark and all
                    // frames are pinned by peers; retry until room
                    // appears. A deadlock here fails the whole test.
                    let g = loop {
                        match cache.fetch(id) {
                            Ok(g) => break g,
                            Err(_) => std::thread::yield_now(),
                        }
                    };
                    // Writing through a held pin must always work, no
                    // matter what the capacity did underneath it.
                    g.with_page_write(|p| {
                        let cur = p.get(SlotId(0)).unwrap().to_vec();
                        assert!(p.update(SlotId(0), &cur));
                    });
                    held.push_back(g);
                    if held.len() > PINS_HELD {
                        held.pop_front();
                    }
                }
                drop(held);
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Controller: oscillate capacity the entire time the workers
        // run. The low phase (4 frames) is far below the ~12 held pins.
        {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut shrink = true;
                while !stop.load(Ordering::Relaxed) {
                    cache.set_capacity(if shrink { 4 } else { 64 });
                    shrink = !shrink;
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        // Watcher: release the controller once the workers are done.
        {
            let stop = Arc::clone(&stop);
            let done = Arc::clone(&done);
            s.spawn(move || {
                while done.load(Ordering::SeqCst) < workers {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });

    // All pins are gone: a final shrink must drain its debt in full.
    let debt = cache.set_capacity(4);
    assert_eq!(debt, 0, "no pins left, so the sweep covers all debt");
    assert_eq!(cache.shrink_debt(), 0);
    assert!(cache.resident() <= 4, "resident {} > 4", cache.resident());
    assert_eq!(cache.pinned_frames(), 0);

    // Every page survived the churn with its payload intact, wherever
    // the oscillation left it (resident or written back).
    cache.set_capacity(64);
    for (w, ids) in all_ids.iter().enumerate() {
        for (i, id) in ids.iter().enumerate() {
            let g = cache.fetch(*id).unwrap();
            g.with_page_read(|p| {
                assert_eq!(
                    p.get(SlotId(0)).unwrap(),
                    &[w as u8 * 32 + i as u8; 16],
                    "page {id:?} content"
                );
            });
        }
    }
    let stats = cache.stats();
    assert!(
        stats.capacity_shifts >= 3,
        "controller must have resized repeatedly: {}",
        stats.capacity_shifts
    );
}
