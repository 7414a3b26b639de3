//! The analytic scan's row evaluator against [`RowLayout::split`].
//!
//! A scan reads a row-format image (an IMRS row in its sweep, a page
//! row or side-store image as a candidate) with one walk of the layout
//! and no copy. It must apply `split`'s exact-layout rule: a row
//! `split` rejects is `Corrupt` to the scan, and any other row yields
//! the numeric values `split` reads. Random layouts mix every
//! [`FieldKind`]; rows are built with [`RowLayout::assemble`] and then
//! truncated, extended or given a wrong string length. Each row sits
//! alone in its own table, so a scan's verdict is that row's, and is
//! taken twice: with the row in the IMRS, and on a page.
//!
//! The scan compiles its spec against the layout: it hops the `Str`s,
//! noting where each run of fixed-width fields starts, and reads every
//! field at a fixed offset into its run. So a third of the cases are
//! all-fixed layouts (one run), a third put numeric fields on both
//! sides of a `Str`, and half the specs read only the fields before the
//! first `Str`.

use std::sync::Arc;

use proptest::prelude::*;

use btrim_core::catalog::{FieldKind, FieldValue, RowLayout, TableOpts};
use btrim_core::{BtrimError, Engine, EngineConfig, EngineMode, ScanSpec};

const KINDS: [FieldKind; 5] = [
    FieldKind::BeU32,
    FieldKind::U32,
    FieldKind::U64,
    FieldKind::F64Bits,
    FieldKind::Str,
];
const ROWS_PER_CASE: usize = 6;

/// 16 cases, or what `PROPTEST_CASES` asks for (CI: 48).
fn cases() -> u32 {
    let asked = std::env::var("PROPTEST_CASES").ok();
    asked.and_then(|n| n.parse().ok()).unwrap_or(16)
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A row of `layout`, assembled from random values, then damaged (or
/// not) in one of the ways a layout mismatch can show.
fn random_row(layout: &RowLayout, rng: &mut u64) -> Vec<u8> {
    let mut str_prefixes = Vec::new();
    let mut off = 0usize;
    let values: Vec<FieldValue> = layout
        .fields
        .iter()
        .map(|(_, kind)| {
            let r = xorshift(rng);
            let (value, width) = match kind {
                FieldKind::BeU32 | FieldKind::U32 => (FieldValue::U64(r >> 32), 4),
                FieldKind::U64 | FieldKind::F64Bits => (FieldValue::U64(r), 8),
                FieldKind::Str => {
                    str_prefixes.push(off);
                    let len = (r % 12) as usize;
                    (FieldValue::Bytes(vec![0xA5; len]), 4 + len)
                }
            };
            off += width;
            value
        })
        .collect();
    let mut row = layout.assemble(&values).expect("values fit the layout");
    match xorshift(rng) % 5 {
        0 if !row.is_empty() => {
            let cut = 1 + (xorshift(rng) as usize) % row.len();
            row.truncate(row.len() - cut);
        }
        1 => row.extend(std::iter::repeat_n(0, 1 + (xorshift(rng) % 4) as usize)),
        2 if !str_prefixes.is_empty() => {
            let at = str_prefixes[(xorshift(rng) as usize) % str_prefixes.len()];
            let len = u32::from_le_bytes(row[at..at + 4].try_into().unwrap());
            let wrong = match xorshift(rng) % 3 {
                0 => len + 1 + (xorshift(rng) % 8) as u32,
                1 => len.saturating_sub(1 + (xorshift(rng) % 8) as u32),
                _ => xorshift(rng) as u32,
            };
            row[at..at + 4].copy_from_slice(&wrong.to_le_bytes());
        }
        _ => {}
    }
    row
}

/// What the scan of a table holding only `row` must return: its
/// filtered count and sums from `split`'s values, or `None` for a
/// row `split` rejects.
fn expected(layout: &RowLayout, row: &[u8], spec: &Spec) -> Option<(u64, Vec<u128>)> {
    let values = layout.split(row)?;
    let num = |i: usize| match values[i] {
        FieldValue::U64(v) => v,
        FieldValue::Bytes(_) => panic!("plan fields are numeric"),
    };
    let matched = spec
        .filter
        .is_none_or(|(f, lo, hi)| (lo..=hi).contains(&num(f)));
    let sums = spec
        .sums
        .iter()
        .map(|&f| if matched { num(f) as u128 } else { 0 })
        .collect();
    Some((matched as u64, sums))
}

struct Spec {
    filter: Option<(usize, u64, u64)>,
    sums: Vec<usize>,
}

impl Spec {
    fn scan_spec(&self, layout: &RowLayout) -> ScanSpec {
        let name = |f: usize| layout.fields[f].0.clone();
        ScanSpec {
            filters: self
                .filter
                .iter()
                .map(|&(f, lo, hi)| (name(f), lo, hi))
                .collect(),
            sums: self.sums.iter().map(|&f| name(f)).collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    fn scan_evaluator_agrees_with_split(seed in any::<u64>()) {
        let mut rng = seed | 1;
        // 0: any mix; 1: all fixed-width; 2: a `Str` in the middle.
        let shape = xorshift(&mut rng) % 3;
        let width = 1 + (xorshift(&mut rng) % 6) as usize;
        let width = if shape == 2 { width.max(3) } else { width };
        let fields: Vec<(String, FieldKind)> = (0..width)
            .map(|i| {
                let kind = match shape {
                    2 if i == width / 2 => FieldKind::Str,
                    1 | 2 => KINDS[(xorshift(&mut rng) % 4) as usize],
                    _ => KINDS[(xorshift(&mut rng) % 5) as usize],
                };
                (format!("f{i}"), kind)
            })
            .collect();
        let layout = RowLayout { fields };
        let first_str = layout.fields.iter().position(|f| f.1 == FieldKind::Str);
        let before_str_only = xorshift(&mut rng).is_multiple_of(2);
        let numeric: Vec<usize> = (0..width)
            .filter(|&i| layout.fields[i].1.is_numeric())
            .filter(|&i| !before_str_only || first_str.is_none_or(|s| i < s))
            .collect();
        let spec = Spec {
            filter: numeric.first().map(|&f| {
                let (a, b) = (xorshift(&mut rng), xorshift(&mut rng));
                (f, a.min(b), a.max(b))
            }),
            sums: numeric.clone(),
        };

        // The same rows twice: IMRS-resident (evaluated in the scan's
        // sweep) and page-resident (resolved as candidates).
        let rows: Vec<Vec<u8>> =
            (0..ROWS_PER_CASE).map(|_| random_row(&layout, &mut rng)).collect();
        for (mode, tier) in [(EngineMode::IlmOn, "imrs"), (EngineMode::PageOnly, "page")] {
            let e = Engine::new(EngineConfig {
                mode,
                imrs_budget: 256 * 1024,
                imrs_chunk_size: 64 * 1024,
                buffer_frames: 64,
                maintenance_interval_txns: u64::MAX / 2,
                ..Default::default()
            });
            let tables: Vec<_> = rows
                .iter()
                .enumerate()
                .map(|(t, row)| {
                    let key = Arc::new(|row: &[u8]| row.to_vec());
                    let opts = TableOpts::new(&format!("t{t}"), key).with_layout(layout.clone());
                    let table = e.create_table(opts).unwrap();
                    let mut txn = e.begin();
                    e.insert(&mut txn, &table, row).unwrap();
                    e.commit(txn).unwrap();
                    (table, row)
                })
                .collect();
            let snap = e.begin_snapshot();
            for (table, row) in tables {
                let got = e.analytic_scan(&snap, &table, &spec.scan_spec(&layout));
                match (expected(&layout, row, &spec), got) {
                    (None, Err(BtrimError::Corrupt(_))) => {}
                    (Some((matched, sums)), Ok(res)) => {
                        prop_assert_eq!(res.rows_scanned, 1, "{}: {:?}", tier, row);
                        prop_assert_eq!(res.rows_matched, matched, "{}: {:?}", tier, row);
                        prop_assert_eq!(res.sums, sums, "{}: {:?}", tier, row);
                        let served = if tier == "imrs" { res.imrs_rows } else { res.page_rows };
                        prop_assert_eq!(served, 1, "{}: {:?}", tier, res);
                    }
                    (want, got) => prop_assert!(
                        false,
                        "{}: split says {:?}, the scan {:?}, row {:?}",
                        tier,
                        want,
                        got,
                        row
                    ),
                }
            }
            e.end_snapshot(snap);
        }
    }
}
