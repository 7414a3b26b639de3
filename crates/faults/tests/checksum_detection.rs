//! Checksum detection, shown rather than assumed. Every corruption shape
//! the fault harness stands for — a torn prefix of a new image over an
//! old one, one 512-byte sector taken from the other image, a zeroed
//! tail, a flipped bit — is rejected by each on-disk format:
//!
//! - a page fails `verify_page_checksum` (its torn prefix is written by
//!   a `FaultDisk` with `FaultPlan::torn_prefix_bytes`);
//! - a WAL batch frame is dropped whole by `FileLog`'s frame parser,
//!   never a prefix of its records;
//! - a frozen extent fails `FrozenExtent::decode`.
//!
//! An image equal to one of its two versions is no corruption and must
//! pass, and so must the all-zero page, which cannot be told from a page
//! never written.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use btrim_common::{PageId, PartitionId, RowId, TableId};
use btrim_faults::{FaultDisk, FaultPlan, FaultState};
use btrim_pagestore::{
    stamp_page_checksum, verify_page_checksum, ColumnData, DiskBackend, FrozenExtent, MemDisk,
    PageType, SlottedPage, PAGE_SIZE,
};
use btrim_wal::{FileLog, LogSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SECTOR: usize = 512;

#[derive(Clone, Copy, Debug)]
enum Shape {
    TornPrefix,
    Sector,
    ZeroedTail,
    BitFlip,
}

const SHAPES: [Shape; 4] = [
    Shape::TornPrefix,
    Shape::Sector,
    Shape::ZeroedTail,
    Shape::BitFlip,
];

/// `old` corrupted by `shape`, with `new` as the other version; `at`
/// picks the length, sector or bit.
fn corrupt(old: &[u8], new: &[u8], shape: Shape, at: usize) -> Vec<u8> {
    let mut img = old.to_vec();
    let common = old.len().min(new.len());
    match shape {
        Shape::TornPrefix => {
            let n = at % (common + 1);
            img[..n].copy_from_slice(&new[..n]);
        }
        Shape::Sector => {
            let start = at % common.div_ceil(SECTOR) * SECTOR;
            let end = (start + SECTOR).min(common);
            img[start..end].copy_from_slice(&new[start..end]);
        }
        Shape::ZeroedTail => {
            let k = 1 + at % old.len();
            img[old.len() - k..].fill(0);
        }
        Shape::BitFlip => {
            let bit = at % (old.len() * 8);
            img[bit / 8] ^= 1 << (bit % 8);
        }
    }
    img
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

/// A stamped page of type `ty` filled with random rows (heap) or cells
/// (B-tree) until one does not fit or the draw runs out.
fn stamped_page(rng: &mut StdRng, ty: PageType) -> Vec<u8> {
    let mut buf = vec![0u8; PAGE_SIZE];
    {
        let mut p = SlottedPage::init(&mut buf, ty, PageId(9), PartitionId(2));
        for _ in 0..rng.gen_range(1..48usize) {
            let len = rng.gen_range(1..400usize);
            let row = random_bytes(rng, len);
            let placed = if ty == PageType::Heap {
                p.insert(&row).is_some()
            } else {
                let pos = rng.gen_range(0..=p.slot_count());
                p.insert_ordered(pos, row.len())
                    .map(|cell| cell.copy_from_slice(&row))
                    .is_some()
            };
            if !placed {
                break;
            }
        }
        p.set_page_lsn(rng.gen());
    }
    stamp_page_checksum(&mut buf);
    buf
}

/// What a `FaultDisk` leaves when it tears the write of `new` over
/// `old` after `n` bytes.
fn torn_on_device(old: &[u8], new: &[u8], n: usize) -> Vec<u8> {
    let inner = Arc::new(MemDisk::new());
    let disk = FaultDisk::new(
        inner.clone(),
        FaultState::new(FaultPlan {
            torn_write_at: Some(1),
            torn_prefix_bytes: n,
            ..FaultPlan::default()
        }),
    );
    let id = disk.allocate_page().unwrap();
    disk.write_page(id, old).unwrap();
    disk.write_page(id, new).unwrap();
    assert_eq!(disk.state().counters().torn_writes, 1);
    let mut img = vec![0u8; PAGE_SIZE];
    inner.read_page(id, &mut img).unwrap();
    img
}

fn temp_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("btrim-checksum-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}.wal", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// The bytes of a log file holding `keeper` as a single-record frame
/// and then `batch` as one batch frame.
fn log_file(keeper: &[u8], batch: &[Vec<u8>]) -> Vec<u8> {
    let path = temp_path();
    {
        let log = FileLog::open(&path).unwrap();
        log.append(keeper).unwrap();
        let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        log.append_batch(&refs).unwrap();
        log.flush().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// The payloads `FileLog` recovers from `bytes`.
fn recovered(bytes: &[u8]) -> Vec<Vec<u8>> {
    let path = temp_path();
    std::fs::write(&path, bytes).unwrap();
    let records = FileLog::open(&path).unwrap().read_all().unwrap();
    std::fs::remove_file(&path).unwrap();
    records.into_iter().map(|(_, p)| p).collect()
}

/// An extent of `n` rows with a numeric and a byte-string column.
fn encoded_extent(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let nums = (0..n).map(|_| rng.gen_range(0..1_000u64)).collect();
    let strs = (0..n)
        .map(|_| {
            let len = rng.gen_range(0..24usize);
            random_bytes(rng, len)
        })
        .collect();
    FrozenExtent::build(
        4,
        TableId(1),
        PartitionId(2),
        (0..n as u64).map(RowId).collect(),
        vec![
            ("n".into(), ColumnData::U64(nums)),
            ("s".into(), ColumnData::Bytes(strs)),
        ],
        0,
    )
    .unwrap()
    .encode()
}

/// 64 cases, or what `PROPTEST_CASES` asks for (CI: 512).
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn a_page_rejects_every_corruption_shape(
        ty in 1u8..4,
        shape in 0usize..4,
        at in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let ty = PageType::from_u8(ty);
        let mut rng = StdRng::seed_from_u64(seed);
        let (old, new) = (stamped_page(&mut rng, ty), stamped_page(&mut rng, ty));
        let shape = SHAPES[shape];
        let img = match shape {
            Shape::TornPrefix => torn_on_device(&old, &new, at % (PAGE_SIZE + 1)),
            _ => corrupt(&old, &new, shape, at),
        };
        let intact = img == old || img == new || img.iter().all(|&b| b == 0);
        prop_assert_eq!(verify_page_checksum(&img), intact, "{:?} {:?}", ty, shape);
    }

    #[test]
    fn a_wal_batch_frame_drops_whole_under_every_corruption_shape(
        shape in 0usize..4,
        at in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keeper = b"keeper".to_vec();
        let lens: Vec<usize> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(1..700usize))
            .collect();
        let old_batch: Vec<Vec<u8>> = lens.iter().map(|&l| random_bytes(&mut rng, l)).collect();
        let new_batch: Vec<Vec<u8>> = lens.iter().map(|&l| random_bytes(&mut rng, l)).collect();
        let (old, new) = (log_file(&keeper, &old_batch), log_file(&keeper, &new_batch));
        // File header (16 bytes), then the keeper's frame (8 + payload).
        let frames = 16 + 8 + keeper.len();
        prop_assert_eq!(&old[..frames], &new[..frames]);
        let shape = SHAPES[shape];
        let frame = corrupt(&old[frames..], &new[frames..], shape, at);
        let mut img = old[..frames].to_vec();
        img.extend_from_slice(&frame);
        let mut expect = vec![keeper];
        if frame == old[frames..] {
            expect.extend(old_batch);
        } else if frame == new[frames..] {
            expect.extend(new_batch);
        }
        let got = recovered(&img);
        prop_assert!(
            got == expect,
            "{:?}: recovered {} records, expected {}",
            shape,
            got.len(),
            expect.len()
        );
    }

    #[test]
    fn an_extent_rejects_every_corruption_shape(
        shape in 0usize..4,
        at in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..300usize);
        let (old, new) = (encoded_extent(&mut rng, n), encoded_extent(&mut rng, n));
        let shape = SHAPES[shape];
        let img = corrupt(&old, &new, shape, at);
        let intact = img == old || img == new;
        prop_assert_eq!(FrozenExtent::decode(&img).is_ok(), intact, "{:?}", shape);
    }
}
