//! Fixture for the wal-before-mutation rule. Checked under a
//! `crates/core/src/…` path (the only crate the rule gates). Not
//! compiled — the tests `include_str!` it and lint the text.

// BAD: destructive RID-Map write with no WAL append anywhere.
pub fn mutate_unlogged(&self, row: RowId, loc: RowLocation) {
    self.sh.ridmap.set(row, loc);
}

// BAD: the append happens AFTER the page mutation — a crash between
// the two leaves an unlogged change.
pub fn log_after(&self, page: PageId, slot: SlotId) -> Result<()> {
    heap.delete(&self.sh.cache, page, slot)?;
    self.sh.append_sys(&rec)?;
    Ok(())
}

// BAD: the append only dominates the then-branch; on the fall-through
// path the mutation is unlogged.
pub fn log_sometimes(&self, big: bool, row: RowId, loc: RowLocation) {
    if big {
        self.sh.append_sys(&rec);
    }
    self.sh.ridmap.set(row, loc);
}

// GOOD: log first, mutate second.
pub fn log_first(&self, row: RowId, loc: RowLocation) {
    self.sh.append_sys(&rec);
    self.sh.ridmap.set(row, loc);
}

// GOOD: every arm of the exhaustive branch appends before the
// mutation joins the paths.
pub fn log_both(&self, big: bool, page: PageId, slot: SlotId) {
    if big {
        self.sh.append_sys(&big_rec);
    } else {
        self.sh.append_sys(&small_rec);
    }
    heap.try_update_in_place(&self.sh.cache, page, slot, data);
}

// GOOD: replay context — recovery re-applies already-durable records.
pub fn apply_undo(&self, row: RowId) {
    self.sh.ridmap.remove(row);
}

// GOOD: a reasoned escape for a mutation whose record is durable.
pub fn purge_like(&self, row: RowId) {
    // lint: allow(wal-before-mutation) -- fixture: the delete record
    // fell below the snapshot horizon, so it is already durable
    self.sh.ridmap.remove(row);
}

// Helper that seeds the appender index: its body calls a WAL append.
pub fn log_helper(&self) {
    self.sh.append_sys(&rec);
}

// Dominated through the one-level call graph: `log_helper` is an
// appender, so with a workspace index this is clean; without one
// (default index) it fires.
pub fn via_helper(&self, row: RowId, loc: RowLocation) {
    self.log_helper();
    self.sh.ridmap.set(row, loc);
}
