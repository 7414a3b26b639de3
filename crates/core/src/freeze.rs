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

use btrim_common::atomics::Relaxed;
use btrim_common::RowId;
use btrim_imrs::RowLocation;
use btrim_obs::{FreezeTrace, IlmTraceEvent};
use btrim_pagestore::{ColumnData, FrozenExtent};

use crate::catalog::{FieldValue, Partition, RowLayout, TableDesc};
use crate::engine::{unwrap_row, Engine};
use crate::movement::{relocate, Moved, To};

/// Column name used when a batch is frozen opaquely (no declared
/// layout, or a row that does not parse as the layout): one bytes
/// column holding the full row images.
pub const OPAQUE_COLUMN: &str = "__row";

/// Freeze/thaw lifetime counters.
#[derive(Default)]
pub struct FreezeStats {
    /// Extents built and installed.
    pub extents_frozen: Relaxed<u64>,
    /// Rows frozen into extents.
    pub rows_frozen: Relaxed<u64>,
    /// Raw bytes of the row images that were frozen.
    pub raw_bytes: Relaxed<u64>,
    /// Encoded (compressed) bytes of the installed extents.
    pub encoded_bytes: Relaxed<u64>,
    /// Frozen rows moved back to slotted pages by updates/deletes.
    pub rows_thawed: Relaxed<u64>,
    /// Candidates skipped because their row lock was held.
    pub rows_skipped_hot: Relaxed<u64>,
    /// Candidates skipped because they carry snapshot history newer
    /// than the horizon.
    pub rows_skipped_recent: Relaxed<u64>,
}

impl FreezeStats {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }
}

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

/// One freeze tick: visit every non-pinned table partition and freeze
/// at most one extent per partition. Returns rows frozen.
pub(crate) fn freeze_tick(engine: &Engine) -> u64 {
    let sh = &engine.sh;
    if !sh.cfg.freeze_enabled || sh.health.check_writable().is_err() {
        return 0;
    }
    let mut total = 0u64;
    for table in sh.catalog.tables() {
        if table.pinned {
            continue;
        }
        for partition in &table.partitions {
            total += freeze_partition(engine, &table, partition);
        }
    }
    total
}

/// Freeze up to `freeze_max_rows` cold rows of one partition into a
/// single extent. Returns rows frozen (0 when the batch was too small
/// or everything was hot/recent).
pub fn freeze_partition(engine: &Engine, table: &TableDesc, partition: &Partition) -> u64 {
    let sh = &engine.sh;
    let cfg = &sh.cfg;
    let heap = &partition.heap;
    if heap.live_rows() < cfg.freeze_min_rows as u64 {
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
    sh.freeze.rows_skipped_hot.fetch_add(moved.contended);
    sh.freeze.rows_skipped_recent.fetch_add(moved.gated);
    let Some(ext) = moved.extent else {
        return 0;
    };

    sh.freeze.extents_frozen.fetch_add(1);
    sh.freeze.rows_frozen.fetch_add(moved.rows);
    sh.freeze.raw_bytes.fetch_add(ext.raw_len());
    sh.freeze.encoded_bytes.fetch_add(ext.encoded_len());
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
