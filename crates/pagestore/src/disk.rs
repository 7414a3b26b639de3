//! Disk backends.
//!
//! The paper's testbed used SSD devices; experiments here default to an
//! in-memory device ([`MemDisk`]) so runs are fast and deterministic,
//! with a real file-backed device ([`FileDisk`]) available for
//! durability and recovery tests. Both sit behind [`DiskBackend`], the
//! only interface the buffer cache and WAL see.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use parking_lot::{Mutex, RwLock};

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_common::{BtrimError, PageId, Result};

use crate::page::PAGE_SIZE;

/// A paged block device.
///
/// Page ids are dense: `allocate_page` hands out the next id and the
/// device grows as needed. All methods are safe to call concurrently.
pub trait DiskBackend: Send + Sync {
    /// Read page `id` into `buf` (`buf.len() == PAGE_SIZE`).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;
    /// Write page `id` from `buf` (`buf.len() == PAGE_SIZE`).
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()>;
    /// Allocate a fresh zeroed page and return its id.
    fn allocate_page(&self) -> Result<PageId>;
    /// Number of allocated pages.
    fn num_pages(&self) -> u32;
    /// Durably flush device contents.
    fn sync(&self) -> Result<()>;
    /// Total read calls served (for experiment reporting).
    fn reads(&self) -> u64;
    /// Total write calls served.
    fn writes(&self) -> u64;
}

/// Reject short (or long) page buffers with a typed error instead of a
/// debug-only assertion, so release builds can't silently transfer
/// partial pages.
fn check_buf_len(buf: &[u8]) -> Result<()> {
    if buf.len() != PAGE_SIZE {
        return Err(BtrimError::ShortBuffer {
            expected: PAGE_SIZE,
            got: buf.len(),
        });
    }
    Ok(())
}

/// In-memory device: a vector of page buffers.
#[derive(Default)]
pub struct MemDisk {
    pages: RwLock<Vec<Box<[u8]>>>,
    reads: Relaxed<u64>,
    writes: Relaxed<u64>,
}

impl MemDisk {
    /// Create an empty in-memory device.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiskBackend for MemDisk {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        check_buf_len(buf)?;
        let pages = self.pages.read();
        let page = pages
            .get(id.0 as usize)
            .ok_or(BtrimError::PageNotFound(id))?;
        buf.copy_from_slice(page);
        self.reads.fetch_add(1);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        check_buf_len(buf)?;
        let mut pages = self.pages.write();
        let page = pages
            .get_mut(id.0 as usize)
            .ok_or(BtrimError::PageNotFound(id))?;
        page.copy_from_slice(buf);
        self.writes.fetch_add(1);
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId> {
        let mut pages = self.pages.write();
        let id = PageId(pages.len() as u32);
        pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
        Ok(id)
    }

    fn num_pages(&self) -> u32 {
        self.pages.read().len() as u32
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn reads(&self) -> u64 {
        self.reads.load()
    }

    fn writes(&self) -> u64 {
        self.writes.load()
    }
}

/// File-backed device. One flat file, page `i` at byte offset
/// `i * PAGE_SIZE`.
pub struct FileDisk {
    file: Mutex<File>,
    next_page: AcqRel<u32>,
    reads: Relaxed<u64>,
    writes: Relaxed<u64>,
}

impl FileDisk {
    /// Open (or create) a device file. Existing contents are preserved;
    /// the allocation cursor resumes after the last full page.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let next = (len / PAGE_SIZE as u64) as u32;
        Ok(FileDisk {
            file: Mutex::new(file),
            next_page: AcqRel::new(next),
            reads: Relaxed::new(0),
            writes: Relaxed::new(0),
        })
    }
}

impl DiskBackend for FileDisk {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        check_buf_len(buf)?;
        if id.0 >= self.next_page.load() {
            return Err(BtrimError::PageNotFound(id));
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id.0 as u64 * PAGE_SIZE as u64))?;
        file.read_exact(buf)?;
        self.reads.fetch_add(1);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        check_buf_len(buf)?;
        if id.0 >= self.next_page.load() {
            return Err(BtrimError::PageNotFound(id));
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id.0 as u64 * PAGE_SIZE as u64))?;
        file.write_all(buf)?;
        self.writes.fetch_add(1);
        Ok(())
    }

    fn allocate_page(&self) -> Result<PageId> {
        let mut file = self.file.lock();
        let id = PageId(self.next_page.load());
        let start = id.0 as u64 * PAGE_SIZE as u64;
        let zero_fill = (|| -> Result<()> {
            file.seek(SeekFrom::Start(start))?;
            file.write_all(&[0u8; PAGE_SIZE])?;
            Ok(())
        })();
        if let Err(e) = zero_fill {
            // A partial zero-fill may have extended the file; roll the
            // length back so the cursor and file stay consistent and a
            // retry (or reopen) sees the same allocation frontier.
            let _ = file.set_len(start);
            return Err(e);
        }
        self.next_page.store(id.0 + 1);
        Ok(id)
    }

    fn num_pages(&self) -> u32 {
        self.next_page.load()
    }

    fn sync(&self) -> Result<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn reads(&self) -> u64 {
        self.reads.load()
    }

    fn writes(&self) -> u64 {
        self.writes.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &dyn DiskBackend) {
        let p0 = disk.allocate_page().unwrap();
        let p1 = disk.allocate_page().unwrap();
        assert_eq!(p0, PageId(0));
        assert_eq!(p1, PageId(1));
        assert_eq!(disk.num_pages(), 2);

        let mut w = vec![0u8; PAGE_SIZE];
        w[0] = 0xAB;
        w[PAGE_SIZE - 1] = 0xCD;
        disk.write_page(p1, &w).unwrap();

        let mut r = vec![0u8; PAGE_SIZE];
        disk.read_page(p1, &mut r).unwrap();
        assert_eq!(r, w);

        // Page 0 still zeroed.
        disk.read_page(p0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));

        assert!(disk.reads() >= 2);
        assert!(disk.writes() >= 1);
        disk.sync().unwrap();
    }

    #[test]
    fn memdisk_roundtrip() {
        roundtrip(&MemDisk::new());
    }

    #[test]
    fn filedisk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("btrim-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.dat");
        let _ = std::fs::remove_file(&path);
        roundtrip(&FileDisk::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn filedisk_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("btrim-disk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.dat");
        let _ = std::fs::remove_file(&path);
        {
            let disk = FileDisk::open(&path).unwrap();
            let p = disk.allocate_page().unwrap();
            let mut w = vec![7u8; PAGE_SIZE];
            w[13] = 99;
            disk.write_page(p, &w).unwrap();
            disk.sync().unwrap();
        }
        {
            let disk = FileDisk::open(&path).unwrap();
            assert_eq!(disk.num_pages(), 1);
            let mut r = vec![0u8; PAGE_SIZE];
            disk.read_page(PageId(0), &mut r).unwrap();
            assert_eq!(r[13], 99);
            assert_eq!(r[0], 7);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_buffers_rejected_with_typed_error() {
        let mem = MemDisk::new();
        let p = mem.allocate_page().unwrap();
        let mut short = vec![0u8; PAGE_SIZE - 1];
        assert!(matches!(
            mem.read_page(p, &mut short),
            Err(BtrimError::ShortBuffer { expected, got })
                if expected == PAGE_SIZE && got == PAGE_SIZE - 1
        ));
        let long = vec![0u8; PAGE_SIZE + 8];
        assert!(matches!(
            mem.write_page(p, &long),
            Err(BtrimError::ShortBuffer { .. })
        ));

        let dir = std::env::temp_dir().join(format!("btrim-disk3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.dat");
        let _ = std::fs::remove_file(&path);
        let disk = FileDisk::open(&path).unwrap();
        let p = disk.allocate_page().unwrap();
        assert!(matches!(
            disk.read_page(p, &mut short),
            Err(BtrimError::ShortBuffer { .. })
        ));
        assert!(matches!(
            disk.write_page(p, &long),
            Err(BtrimError::ShortBuffer { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// A failed zero-fill must not advance the allocation cursor:
    /// /dev/full accepts the open but fails every write with ENOSPC.
    #[test]
    #[cfg(target_os = "linux")]
    fn filedisk_allocate_failure_does_not_advance_cursor() {
        let path = Path::new("/dev/full");
        if !path.exists() {
            return;
        }
        let disk = FileDisk::open(path).unwrap();
        assert_eq!(disk.num_pages(), 0);
        for _ in 0..3 {
            assert!(disk.allocate_page().is_err());
            assert_eq!(disk.num_pages(), 0, "cursor advanced past failed write");
        }
    }

    /// A partial trailing page (the residue of an interrupted
    /// allocation) is ignored by `open` and reclaimed by the next
    /// allocation instead of shifting the page grid.
    #[test]
    fn filedisk_partial_tail_is_reclaimed() {
        let dir = std::env::temp_dir().join(format!("btrim-disk4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.dat");
        let _ = std::fs::remove_file(&path);
        {
            let disk = FileDisk::open(&path).unwrap();
            let p = disk.allocate_page().unwrap();
            disk.write_page(p, &vec![3u8; PAGE_SIZE]).unwrap();
        }
        // Simulate an interrupted allocation: a torn half-page tail.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&vec![0xEEu8; PAGE_SIZE / 2]).unwrap();
        }
        {
            let disk = FileDisk::open(&path).unwrap();
            assert_eq!(disk.num_pages(), 1, "partial tail counted as a page");
            let p = disk.allocate_page().unwrap();
            assert_eq!(p, PageId(1));
            let mut r = vec![0xFFu8; PAGE_SIZE];
            disk.read_page(p, &mut r).unwrap();
            assert!(r.iter().all(|&b| b == 0), "reclaimed page not zeroed");
            disk.read_page(PageId(0), &mut r).unwrap();
            assert!(r.iter().all(|&b| b == 3), "page 0 disturbed");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_access_errors() {
        let disk = MemDisk::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            disk.read_page(PageId(0), &mut buf),
            Err(BtrimError::PageNotFound(_))
        ));
        assert!(matches!(
            disk.write_page(PageId(3), &buf),
            Err(BtrimError::PageNotFound(_))
        ));
    }
}
