//! Snapshot-isolated analytic scans over the three storage tiers.
//!
//! An analytic scan evaluates CH-benCHmark-style filtered aggregates
//! (range predicates + SUMs over declared numeric fields) across every
//! row of a table that is visible at an MVCC snapshot, wherever the
//! row currently lives:
//!
//! * **frozen extents** — evaluated columnar, with zone-map pruning,
//!   without materializing row images;
//! * **IMRS rows** — evaluated where they live, during the RID-Map
//!   sweep: the store's batched reader ([`btrim_imrs::Sweep`]) lends
//!   the visible images straight out of the fragment allocator, and
//!   skips the RID-Map chunks where none of the table's partitions ever
//!   had a row;
//! * **page-resident rows** — resolved through the side-store-aware
//!   snapshot read path.
//!
//! A row image is evaluated through a plan compiled once per scan: the
//! exact-layout check hops over the layout's `Str`s alone and notes
//! where each run of fixed-width fields starts, and every field the
//! spec reads is then taken at a fixed offset into its run. A row that
//! does not match the layout gets the `Corrupt` verdict
//! [`RowLayout::walk`] would give it.
//!
//! # Why four phases
//!
//! The scan races online data movement (pack, migration, freeze, thaw)
//! and must see every visible row exactly once. Rows are enumerated in
//! an order that closes the movement windows:
//!
//! 1. IMRS sweep — every resident row id, evaluated in place;
//! 2. page pass — every heap row id, plus side-store tombstones (rows
//!    deleted after the snapshot whose index entries are already gone);
//! 3. second IMRS sweep — rows that migrated page→IMRS while the page
//!    pass ran. It runs only if the RID-Map's count of arrivals from a
//!    page ([`btrim_imrs::RidMap::arrivals`]) moved since phase 1
//!    began: such an arrival is counted after its chain head is
//!    published and before its page copy is retired, so an unchanged
//!    count means phases 1 and 2 between them saw every such row
//!    (fresh inserts are not counted: they have no page copy);
//! 4. frozen pass — extent slots, *last*: extents are immutable, and
//!    none leaves the directory while a scan is pinned
//!    (`ExtentStore::pin`, taken before phase 1), so any row that
//!    eludes phases 1–3 by moving into or out of an extent mid-scan is
//!    still enumerated here, and the per-slot fallback resolves rows
//!    that have since thawed or dissolved.
//!
//! Only the rows a sweep found moved (between its RID-Map read and the
//! store access), page rows and tombstones are collected as candidates
//! and resolved after phase 3 through the settled read (retry, then a
//! shared lock). Every row is resolved at the same snapshot, so the
//! phase order affects coverage, never the values read. Duplicates are
//! suppressed with a dense RowId bitmap.
//!
//! The scan path acquires **zero ranked locks** when a table is fully
//! frozen or memory-resident: empty heaps short-circuit before any
//! buffer-cache fetch (`HeapFile::live_rows`), the side store is
//! consulted only when it has entries, and extent + IMRS reads are
//! lock-free or take only the allocator's unranked chunk latches — one
//! shared latch per chunk per batch of [`btrim_imrs::SWEEP_BATCH`]
//! rows, held while the batch is evaluated, which takes no lock. The
//! regression test asserts this with the
//! `parking_lot::ranked_acquisitions()` witness.

use std::sync::Arc;

use btrim_common::{BtrimError, Result, RowId};
use btrim_imrs::{RowLocation, Swept};
use btrim_obs::OpClass;
use btrim_pagestore::{Column, FrozenExtent};

use crate::catalog::{FieldKind, RowLayout, TableDesc};
use crate::engine::{Engine, SnapshotTxn, View};
use crate::freeze::OPAQUE_COLUMN;

/// What to compute: inclusive range filters ANDed together, plus SUM
/// aggregates, all over fields declared in the table's [`RowLayout`].
#[derive(Clone, Debug, Default)]
pub struct ScanSpec {
    /// `(field, min, max)` — keep rows with `min ≤ value ≤ max`.
    /// Fields must be numeric in the layout.
    pub filters: Vec<(String, u64, u64)>,
    /// Numeric fields to sum over the matching rows.
    pub sums: Vec<String>,
}

/// Aggregates and coverage counters from one analytic scan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScanResult {
    /// Rows visible at the snapshot that the scan evaluated.
    pub rows_scanned: u64,
    /// Rows passing every filter.
    pub rows_matched: u64,
    /// One SUM per [`ScanSpec::sums`] entry, in order.
    pub sums: Vec<u128>,
    /// Rows served columnar from frozen extents.
    pub frozen_rows: u64,
    /// Rows served from the IMRS.
    pub imrs_rows: u64,
    /// Rows served from pages (or side-store history).
    pub page_rows: u64,
    /// Rows a RID-Map sweep found moved between its read and the store
    /// access, resolved through the settled read instead.
    pub moved_rows: u64,
    /// RID-Map sweeps the scan made: 1, or 2 when a row arrived in the
    /// IMRS from a page while it ran (the module docs' phase 3).
    pub sweeps: u64,
}

/// The layout's shape as the evaluator hops it: `lead` fixed bytes,
/// then each `Str` as a 4-byte length, that many bytes and `gaps[i]`
/// fixed bytes up to the next `Str` or the end. Segment 0 is the lead;
/// segment `i + 1` starts after the `i`-th `Str`'s bytes.
struct Shape {
    lead: usize,
    gaps: Vec<usize>,
}

impl Shape {
    /// The shape of `layout`, and each field's `(segment, offset)`:
    /// where a fixed-width field lies relative to its segment's start.
    fn of(layout: &RowLayout) -> (Shape, Vec<(usize, usize)>) {
        let (mut lead, mut gaps, mut at) = (0, Vec::new(), Vec::new());
        for (_, kind) in &layout.fields {
            let segment = gaps.len();
            let end = gaps.last_mut().unwrap_or(&mut lead);
            at.push((segment, *end));
            match kind.width() {
                Some(w) => *end += w,
                None => gaps.push(0),
            }
        }
        (Shape { lead, gaps }, at)
    }

    /// Whether `row` has exactly the length the layout gives it — the
    /// verdict [`RowLayout::walk`] reaches — found by hopping only the
    /// `Str`s; `starts` gets each segment's start on the way.
    fn fits(&self, row: &[u8], starts: &mut Vec<usize>) -> bool {
        starts.clear();
        starts.push(0);
        let mut at = self.lead;
        for &gap in &self.gaps {
            let Some(len) = row.get(at..).and_then(<[u8]>::first_chunk::<4>) else {
                return false;
            };
            at += 4 + u32::from_le_bytes(*len) as usize;
            starts.push(at);
            at += gap;
        }
        at == row.len()
    }
}

/// Field indices resolved once against the layout, where each field
/// the spec reads lies, and the scratch the evaluator reads a row's
/// numeric fields into.
struct Plan {
    filters: Vec<(usize, u64, u64)>,
    sums: Vec<usize>,
    shape: Shape,
    /// `(field, segment, offset, kind)` of each field the spec reads.
    reads: Vec<(usize, usize, usize, FieldKind)>,
    /// One slot per layout field, overwritten by every row.
    vals: Vec<u64>,
    /// Segment starts of the row being evaluated.
    starts: Vec<usize>,
}

impl Plan {
    fn build(layout: &RowLayout, spec: &ScanSpec) -> Result<Plan> {
        let field = |name: &str| -> Result<usize> {
            layout
                .fields
                .iter()
                .position(|(n, k)| n == name && k.is_numeric())
                .ok_or_else(|| {
                    BtrimError::Invalid(format!(
                        "scan field {name} is not a declared numeric field"
                    ))
                })
        };
        let filters: Vec<(usize, u64, u64)> = spec
            .filters
            .iter()
            .map(|(n, lo, hi)| Ok((field(n)?, *lo, *hi)))
            .collect::<Result<_>>()?;
        let sums: Vec<usize> = spec.sums.iter().map(|n| field(n)).collect::<Result<_>>()?;
        let mut read: Vec<usize> = filters
            .iter()
            .map(|f| f.0)
            .chain(sums.iter().copied())
            .collect();
        read.sort_unstable();
        read.dedup();
        let (shape, at) = Shape::of(layout);
        Ok(Plan {
            reads: read
                .into_iter()
                .map(|f| (f, at[f].0, at[f].1, layout.fields[f].1))
                .collect(),
            shape,
            filters,
            sums,
            vals: vec![0; layout.fields.len()],
            starts: Vec::new(),
        })
    }

    /// Evaluate one row image where it lies — no allocation — and fold
    /// it into the result. A row that does not match the layout exactly
    /// (the rule of [`RowLayout::split`]) is corrupt.
    fn eval_row(&mut self, row: &[u8], out: &mut ScanResult) -> Result<()> {
        let (vals, starts) = (&mut self.vals, &mut self.starts);
        let fits = self.shape.fits(row, starts)
            && self.reads.iter().all(|&(f, seg, off, kind)| {
                let v = row.get(starts[seg] + off..).and_then(|b| kind.read(b));
                v.map(|v| vals[f] = v).is_some()
            });
        if !fits {
            return Err(BtrimError::Corrupt(
                "scanned row does not match the declared layout".into(),
            ));
        }
        out.rows_scanned += 1;
        let vals = &self.vals;
        let matched = self
            .filters
            .iter()
            .all(|&(f, lo, hi)| (lo..=hi).contains(&vals[f]));
        if matched {
            out.rows_matched += 1;
            for (sum, &f) in out.sums.iter_mut().zip(&self.sums) {
                *sum += vals[f] as u128;
            }
        }
        Ok(())
    }
}

/// Fold one resolved row into `out`: the evaluator's verdict on the
/// visible image (none: invisible at the snapshot), and its tier.
fn tally(verdict: Option<Result<()>>, from_imrs: bool, out: &mut ScanResult) -> Result<()> {
    if let Some(verdict) = verdict {
        verdict?;
        if from_imrs {
            out.imrs_rows += 1;
        } else {
            out.page_rows += 1;
        }
    }
    Ok(())
}

/// A dense set of RowIds, one bit each, grown with the largest id.
#[derive(Default)]
struct RowBitmap(Vec<u64>);

impl RowBitmap {
    fn contains(&self, rid: RowId) -> bool {
        let word = self.0.get((rid.0 / 64) as usize);
        word.is_some_and(|w| w & (1 << (rid.0 % 64)) != 0)
    }

    /// Add `rid`; whether it was absent.
    fn insert(&mut self, rid: RowId) -> bool {
        let (w, bit) = ((rid.0 / 64) as usize, 1 << (rid.0 % 64));
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        let fresh = self.0[w] & bit == 0;
        self.0[w] |= bit;
        fresh
    }
}

/// How one extent is evaluated.
enum ExtPlan<'a> {
    /// Schema extent: direct column access, with a zone-map verdict —
    /// `prune` means no row in the extent can pass the filters.
    Columnar {
        filters: Vec<(&'a Column, u64, u64)>,
        sums: Vec<&'a Column>,
        prune: bool,
    },
    /// Opaque extent (or missing columns): materialize each row image
    /// and evaluate it like a row-path row.
    Materialize,
}

impl<'a> ExtPlan<'a> {
    fn build(layout: &RowLayout, plan: &Plan, ext: &'a FrozenExtent) -> ExtPlan<'a> {
        if ext.column(OPAQUE_COLUMN).is_some() {
            return ExtPlan::Materialize;
        }
        let col = |fi: usize| -> Option<&'a Column> {
            let (name, _) = &layout.fields[fi];
            let c = ext.column(name)?;
            matches!(c, Column::U64(_)).then_some(c)
        };
        let mut filters = Vec::with_capacity(plan.filters.len());
        let mut prune = false;
        for &(fi, lo, hi) in &plan.filters {
            let Some(c) = col(fi) else {
                return ExtPlan::Materialize;
            };
            if let Some((cmin, cmax)) = c.min_max() {
                if cmax < lo || cmin > hi {
                    prune = true;
                }
            }
            filters.push((c, lo, hi));
        }
        let mut sums = Vec::with_capacity(plan.sums.len());
        for &fi in &plan.sums {
            let Some(c) = col(fi) else {
                return ExtPlan::Materialize;
            };
            sums.push(c);
        }
        ExtPlan::Columnar {
            filters,
            sums,
            prune,
        }
    }
}

impl Engine {
    /// Run a filtered-aggregate scan over `table` at `snap`'s snapshot.
    /// Requires the table to declare a [`RowLayout`].
    pub fn analytic_scan(
        &self,
        snap: &SnapshotTxn,
        table: &TableDesc,
        spec: &ScanSpec,
    ) -> Result<ScanResult> {
        let sh = &self.sh;
        let op_start = sh.obs.start();
        let layout = table.layout.as_ref().ok_or_else(|| {
            BtrimError::Invalid(format!(
                "analytic scan over {} requires a declared row layout",
                table.name
            ))
        })?;
        let mut plan = Plan::build(layout, spec)?;
        let mut out = ScanResult {
            sums: vec![0u128; spec.sums.len()],
            ..ScanResult::default()
        };
        let mut seen = RowBitmap::default();
        let (snapshot, reader) = (snap.handle.snapshot, snap.handle.id);

        // Phases 1 and 3: sweep the RID-Map a batch at a time and
        // evaluate every resident row of the table not yet seen where
        // its image lives. A row that moved between the sweep's read
        // and the store access becomes a candidate for the settled read.
        let sweep = |seen: &mut RowBitmap,
                     plan: &mut Plan,
                     out: &mut ScanResult,
                     candidates: &mut Vec<RowId>|
         -> Result<()> {
            out.sweeps += 1;
            let parts = table.partitions.iter().map(|p| p.id);
            let mut rows = sh.store.sweep(snapshot, reader).only(parts);
            let mut want =
                |rid, partition| table.partition(partition).is_some() && seen.insert(rid);
            while rows.next_batch(&mut want)? {
                rows.read(|rid, _, _, swept| match swept {
                    Swept::Visible(_, image) => {
                        plan.eval_row(image, out)?;
                        out.imrs_rows += 1;
                        Ok(())
                    }
                    Swept::Hidden => Ok(()),
                    Swept::Moved => {
                        out.moved_rows += 1;
                        candidates.push(rid);
                        Ok(())
                    }
                })?;
            }
            Ok(())
        };

        // Every extent that had a live row while the scan ran is still in
        // the directory at phase 4: no extent leaves it while a scan is
        // pinned (`ExtentStore::remove_empty`).
        let _pin = sh.extents.pin();

        // Phase 1: IMRS residents.
        let mut candidates: Vec<RowId> = Vec::new();
        let arrivals = sh.ridmap.arrivals();
        sweep(&mut seen, &mut plan, &mut out, &mut candidates)?;

        // Phase 2: page residents + side-store tombstones. Empty heaps
        // (fully frozen or memory-resident partitions) cost nothing —
        // not even a buffer-cache fetch.
        for partition in &table.partitions {
            let heap = &partition.heap;
            if heap.live_rows() == 0 {
                continue;
            }
            heap.scan(&sh.cache, |_, _, payload| {
                if let Ok((rid, _)) = crate::engine::unwrap_row(payload) {
                    if seen.insert(rid) {
                        candidates.push(rid);
                    }
                }
                true
            })?;
        }
        if sh.side.entries() > 0 {
            for rid in sh.side.tombstoned_rows() {
                if seen.contains(rid) {
                    continue;
                }
                // Membership check: the stash does not know its table,
                // the tombstone's page does.
                let Some(RowLocation::Tombstone(page, _)) = sh.ridmap.get(rid) else {
                    continue;
                };
                let guard = sh.cache.fetch(page)?;
                let partition = guard.with_page_read(|p| p.partition());
                if table.partition(partition).is_some() && seen.insert(rid) {
                    candidates.push(rid);
                }
            }
        }

        // Phase 3: rows that migrated page→IMRS during phase 2 — none
        // unless a row arrived from a page since phase 1 began.
        if sh.ridmap.arrivals() != arrivals {
            sweep(&mut seen, &mut plan, &mut out, &mut candidates)?;
        }

        // Resolve every candidate at the snapshot. The read path
        // handles whatever location the row has moved to by now —
        // including into an extent.
        let eval_at_snapshot = |rid: RowId, plan: &mut Plan, out: &mut ScanResult| {
            let (row, from_imrs) =
                self.read_view(table, Some(rid), &snap.handle, View::Snapshot)?;
            let verdict = row.map(|row| plan.eval_row(&row, out));
            tally(verdict, from_imrs, out)
        };
        for rid in candidates {
            eval_at_snapshot(rid, &mut plan, &mut out)?;
        }

        // Phase 4: frozen extents, columnar. Runs last: freeze installs
        // the extent before emptying the pages, so a row that froze
        // mid-scan is visible here; a row that thawed mid-scan — its
        // extent is still listed, the scan's pin holds it — falls back
        // to snapshot resolution.
        let mut exts: Vec<Arc<FrozenExtent>> = Vec::new();
        sh.extents.for_each(|ext| {
            if ext.table() == table.id {
                exts.push(Arc::clone(ext));
            }
        });
        for ext in &exts {
            let ext_plan = ExtPlan::build(layout, &plan, ext);
            for i in 0..ext.row_count() {
                let Some(rid) = ext.row_id(i) else { continue };
                if !seen.insert(rid) {
                    continue;
                }
                let frozen_here = ext.is_live(i)
                    && sh.ridmap.get(rid) == Some(RowLocation::Frozen(ext.id(), i as u16));
                if !frozen_here {
                    // Thawed (or deleted) since freezing: resolve like
                    // any other candidate.
                    eval_at_snapshot(rid, &mut plan, &mut out)?;
                    continue;
                }
                // Frozen fast path: the horizon gate at freeze time
                // guarantees the extent image is the visible version
                // for every snapshot.
                out.frozen_rows += 1;
                match &ext_plan {
                    ExtPlan::Columnar {
                        filters,
                        sums,
                        prune,
                    } => {
                        out.rows_scanned += 1;
                        if *prune {
                            continue;
                        }
                        let matched = filters
                            .iter()
                            .all(|&(c, lo, hi)| c.get_u64(i).is_some_and(|v| lo <= v && v <= hi));
                        if matched {
                            out.rows_matched += 1;
                            for (si, c) in sums.iter().enumerate() {
                                out.sums[si] += c.get_u64(i).unwrap_or(0) as u128;
                            }
                        }
                    }
                    ExtPlan::Materialize => {
                        let Some(row) = crate::freeze::extent_row_bytes(Some(layout), ext, i)
                        else {
                            return Err(BtrimError::Corrupt(format!(
                                "extent {} slot {i} unreadable",
                                ext.id()
                            )));
                        };
                        plan.eval_row(&row, &mut out)?;
                    }
                }
            }
        }

        sh.obs.record_since(OpClass::AnalyticScan, op_start);
        Ok(out)
    }
}
