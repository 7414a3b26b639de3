//! HTAP freeze: promote cold page-resident rows into immutable,
//! compressed, columnar extents.
//!
//! The paper's life cycle ends at the page store; the freeze step adds
//! a third, colder tier for analytic workloads. Page residency is
//! itself the coldness signal — pack only evicts rows the ILM rules
//! declared cold, and a frozen candidate must additionally have no
//! snapshot-visible history above the horizon (same gate as
//! migration). This module is the policy — which rows, how many, under
//! conditional row locks; the batch itself is one
//! [`crate::movement::relocate`] call with N sources and one extent as
//! its destination, in one background mini-transaction.
//!
//! Crash safety mirrors pack: the batch's `PageLogRecord::Delete`
//! records and the `ImrsLogRecord::Freeze` record (which carries the
//! full encoded extent) are gated on the internal transaction's commit
//! verdict. A loser leaves the rows on their slotted pages; a winner
//! re-installs the extent at recovery and repoints the RID-Map.
//!
//! Visibility: the horizon gate guarantees every active snapshot (and
//! every future one) sees exactly the frozen image, so frozen rows are
//! served unconditionally to all snapshots. A later update or delete
//! first *thaws* the row back to a slotted page (the same `relocate`,
//! extent → page), after which the ordinary page-path MVCC machinery
//! takes over.
//!
//! The tier keeps only rows that stay cold, and gives back what leaves
//! it (DESIGN.md "Frozen extents & analytic scans"):
//!
//! * **verdict** — a partition stops freezing once more than a quarter
//!   of the rows it ever froze have left its extents ([`keeps_freezing`]);
//! * **dissolve** — an extent with fewer than a quarter of its rows
//!   live thaws them to pages in one batch ([`dissolve`]): a thaw, so no
//!   new movement or log record;
//! * **removal** — an extent with no live row leaves the directory
//!   (`ExtentStore::remove_empty`), and its memory goes with it.

use std::sync::Arc;

use btrim_common::RowId;
use btrim_imrs::RowLocation;
use btrim_obs::{DissolveTrace, FreezeTrace, FreezeVerdictTrace, IlmTraceEvent};
use btrim_pagestore::{ColumnData, FrozenExtent};

use crate::catalog::{FieldValue, Partition, RowLayout, TableDesc};
use crate::engine::{unwrap_row, Engine};
use crate::movement::{relocate, Moved, To};

/// Column name used when a batch is frozen opaquely (no declared
/// layout, or a row that does not parse as the layout): one bytes
/// column holding the full row images.
pub const OPAQUE_COLUMN: &str = "__row";

/// Reassemble the row image stored at slot `i` of a frozen extent,
/// using the table's declared layout (or the opaque fallback column).
pub(crate) fn extent_row_bytes(
    layout: Option<&RowLayout>,
    ext: &FrozenExtent,
    i: usize,
) -> Option<Vec<u8>> {
    if let Some(col) = ext.column(OPAQUE_COLUMN) {
        return col.get_bytes(i).map(<[u8]>::to_vec);
    }
    let layout = layout?;
    let mut values = Vec::with_capacity(layout.fields.len());
    for (name, kind) in &layout.fields {
        let col = ext.column(name)?;
        if kind.is_numeric() {
            values.push(FieldValue::U64(col.get_u64(i)?));
        } else {
            values.push(FieldValue::Bytes(col.get_bytes(i)?.to_vec()));
        }
    }
    layout.assemble(&values)
}

/// Split a batch of row images into per-field columns. Falls back to
/// the opaque single-column shape unless *every* row parses as the
/// layout and reassembles byte-identically — the frozen form must
/// never lose information.
pub(crate) fn build_columns(
    layout: Option<&RowLayout>,
    rows: &[&[u8]],
) -> Vec<(String, ColumnData)> {
    'schema: {
        let Some(layout) = layout else {
            break 'schema;
        };
        let mut split: Vec<Vec<FieldValue>> = Vec::with_capacity(rows.len());
        for row in rows {
            let Some(values) = layout.split(row) else {
                break 'schema;
            };
            if layout.assemble(&values).as_deref() != Some(*row) {
                break 'schema;
            }
            split.push(values);
        }
        let mut columns = Vec::with_capacity(layout.fields.len());
        for (fi, (name, kind)) in layout.fields.iter().enumerate() {
            let data = if kind.is_numeric() {
                ColumnData::U64(
                    split
                        .iter()
                        .map(|vs| match &vs[fi] {
                            FieldValue::U64(v) => *v,
                            FieldValue::Bytes(_) => 0, // unreachable: kind is numeric
                        })
                        .collect(),
                )
            } else {
                ColumnData::Bytes(
                    split
                        .iter()
                        .map(|vs| match &vs[fi] {
                            FieldValue::Bytes(b) => b.clone(),
                            FieldValue::U64(_) => Vec::new(), // unreachable
                        })
                        .collect(),
                )
            };
            columns.push((name.clone(), data));
        }
        return columns;
    }
    vec![(
        OPAQUE_COLUMN.to_string(),
        ColumnData::Bytes(rows.iter().map(|r| r.to_vec()).collect()),
    )]
}

/// One freeze tick: dissolve the mostly-dead extents, freeze at most
/// one extent per non-pinned partition that still freezes, then take
/// the extents left with no live row out of the directory. Returns rows
/// frozen or dissolved.
pub(crate) fn freeze_tick(engine: &Engine) -> u64 {
    let sh = &engine.sh;
    if !sh.cfg.freeze_enabled || sh.health.check_writable().is_err() {
        return 0;
    }
    let mut total = dissolve(engine);
    for table in sh.catalog.tables() {
        if table.pinned {
            continue;
        }
        for partition in &table.partitions {
            total += freeze_partition(engine, &table, partition);
        }
    }
    sh.extents.remove_empty();
    total
}

/// Freeze's verdict: whether `partition` still freezes. It stops once
/// more than a quarter of the rows it ever froze have left its extents
/// (thawed for a write, or dissolved) — those rows were not cold, and a
/// partition whose frozen rows keep coming back pays for each of them
/// twice. The counts are cumulative, the stable denominator pack's TSF
/// applicability rate uses too, so the verdict never flaps: a stopped
/// partition freezes nothing more, and its thaws only add. Traced once,
/// when the partition stops, with the counts it read.
pub(crate) fn keeps_freezing(engine: &Engine, partition: &Partition) -> bool {
    let m = &partition.metrics;
    let (rows_frozen, rows_thawed) = (m.rows_frozen.load(), m.rows_thawed.load());
    if rows_thawed.saturating_mul(4) <= rows_frozen {
        return true;
    }
    let trace = &engine.sh.obs.trace;
    if !partition.freeze_stopped.swap(true) && trace.is_enabled() {
        trace.push(IlmTraceEvent::FreezeVerdict(FreezeVerdictTrace {
            partition: partition.id.0 as u64,
            rows_frozen,
            rows_thawed,
        }));
    }
    false
}

/// Dissolve every extent with fewer than a quarter of its rows live: its
/// live rows thaw to pages in one [`relocate`] batch under conditional
/// locks (a busy row stays, and a later tick retries it), and the
/// emptied extent then leaves the directory. A dissolve is a thaw, not
/// a rewrite into a smaller extent: the rows that left were not cold,
/// and the partition's verdict now counts them. Returns rows thawed.
pub(crate) fn dissolve(engine: &Engine) -> u64 {
    let sh = &engine.sh;
    let mut mostly_dead: Vec<Arc<FrozenExtent>> = Vec::new();
    sh.extents.for_each(|ext| {
        let live = ext.live_count();
        if live > 0 && live.saturating_mul(4) < ext.row_count() as u64 {
            mostly_dead.push(Arc::clone(ext));
        }
    });
    let mut total = 0;
    for ext in mostly_dead {
        let Some(table) = sh.catalog.table_of_partition(ext.partition()) else {
            continue;
        };
        let Some(partition) = table.partition(ext.partition()) else {
            continue;
        };
        let rows: Vec<(RowId, RowLocation)> = (0..ext.row_count())
            .filter(|&i| ext.is_live(i))
            .filter_map(|i| Some((ext.row_id(i)?, RowLocation::Frozen(ext.id(), i as u16))))
            .collect();
        // A thaw waits at the move gate while a syslogs sync holds it.
        let _pass = sh.moves.pass(To::Page);
        let moved = match relocate(engine, &table, partition, &rows, To::Page, true) {
            Ok(moved) => moved,
            Err(e) => {
                sh.health.note_storage_error("dissolve", &e);
                break;
            }
        };
        partition.metrics.rows_dissolved.add(moved.rows);
        if sh.obs.trace.is_enabled() {
            sh.obs.trace.push(IlmTraceEvent::Dissolve(DissolveTrace {
                extent: ext.id() as u64,
                partition: partition.id.0 as u64,
                rows: ext.row_count() as u64,
                rows_live: rows.len() as u64,
                rows_thawed: moved.rows,
                rows_skipped_hot: moved.contended,
            }));
        }
        total += moved.rows;
    }
    total
}

/// Freeze up to `freeze_max_rows` cold rows of one partition into a
/// single extent, unless its verdict stopped it. Returns rows frozen (0
/// when the batch was too small or everything was hot/recent).
pub fn freeze_partition(engine: &Engine, table: &TableDesc, partition: &Partition) -> u64 {
    let sh = &engine.sh;
    let cfg = &sh.cfg;
    let heap = &partition.heap;
    if !keeps_freezing(engine, partition) || heap.live_rows() < cfg.freeze_min_rows as u64 {
        return 0;
    }
    // Candidate pass: page-resident rows, coldest-first by virtue of
    // pack having already evicted them. Addresses only — the payload is
    // re-read under the row lock.
    let mut candidates: Vec<(RowId, RowLocation)> = Vec::new();
    let scan = heap.scan(&sh.cache, |page, slot, payload| {
        if let Ok((row_id, _)) = unwrap_row(payload) {
            candidates.push((row_id, RowLocation::Page(page, slot)));
        }
        candidates.len() < cfg.freeze_max_rows
    });
    if scan.is_err() || candidates.len() < cfg.freeze_min_rows {
        return 0;
    }

    // Conditional locks, as in pack: busy rows are simply not cold.
    let to = To::Extent {
        min_rows: cfg.freeze_min_rows,
    };
    let moved = relocate(engine, table, partition, &candidates, to, true).unwrap_or_else(|e| {
        sh.health.note_storage_error("freeze", &e);
        Moved::default()
    });
    let Some(ext) = moved.extent else {
        return 0;
    };

    partition.metrics.rows_frozen.add(moved.rows);
    if sh.obs.trace.is_enabled() {
        sh.obs.trace.push(IlmTraceEvent::Freeze(FreezeTrace {
            extent: ext.id() as u64,
            partition: partition.id.0 as u64,
            rows: moved.rows,
            raw_bytes: ext.raw_len(),
            encoded_bytes: ext.encoded_len(),
            rows_skipped_hot: moved.contended,
            rows_skipped_recent: moved.gated,
            schema_columns: ext.column(OPAQUE_COLUMN).is_none(),
        }));
    }
    moved.rows
}
