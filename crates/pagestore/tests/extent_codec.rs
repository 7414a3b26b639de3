//! Satellite: codec proptests for the frozen-extent encodings.
//!
//! Dictionary and bit-packed encode/decode must roundtrip for every
//! bit width 1–64 and for the degenerate column shapes (empty,
//! single-value, all-equal, max-cardinality), and decoding any
//! truncated or bit-flipped extent must return a typed error — never
//! panic (`btrim-pagestore` denies clippy's panic family).

use btrim_common::{BtrimError, PartitionId, RowId, TableId};
use btrim_pagestore::extent::{
    bits_needed, pack_bits, packed_len, unpack_bits_at, ColumnData, FrozenExtent,
};
use proptest::prelude::*;

/// Build an extent around a single u64 column and return it with its
/// encoding.
fn encode_u64_column(values: Vec<u64>) -> (FrozenExtent, Vec<u8>) {
    let row_ids: Vec<RowId> = (0..values.len() as u64).map(RowId).collect();
    let ext = FrozenExtent::build(
        1,
        TableId(1),
        PartitionId(1),
        row_ids,
        vec![("v".into(), ColumnData::U64(values))],
        0,
    )
    .expect("build");
    let bytes = ext.encode();
    (ext, bytes)
}

fn encode_bytes_column(values: Vec<Vec<u8>>) -> (FrozenExtent, Vec<u8>) {
    let row_ids: Vec<RowId> = (0..values.len() as u64).map(RowId).collect();
    let ext = FrozenExtent::build(
        1,
        TableId(1),
        PartitionId(1),
        row_ids,
        vec![("v".into(), ColumnData::Bytes(values))],
        0,
    )
    .expect("build");
    let bytes = ext.encode();
    (ext, bytes)
}

fn assert_u64_roundtrip(values: &[u64]) {
    let (_, bytes) = encode_u64_column(values.to_vec());
    let back = FrozenExtent::decode(&bytes).expect("decode");
    let col = back.column("v").expect("column");
    assert_eq!(col.len(), values.len());
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(col.get_u64(i), Some(v), "index {i}");
    }
    if !values.is_empty() {
        let min = values.iter().copied().min().unwrap();
        let max = values.iter().copied().max().unwrap();
        assert_eq!(col.min_max(), Some((min, max)), "zone map recomputed");
    } else {
        assert_eq!(col.min_max(), None);
    }
}

/// Every bit width 1–64 (0 is the all-equal case below): values that
/// exactly span the width so FOR packs at precisely that width.
#[test]
fn roundtrip_every_bit_width_1_to_64() {
    for width in 1u8..=64 {
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut values: Vec<u64> = (0..131u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
            .collect();
        // Pin the endpoints so the width is exactly `width`.
        values.push(0);
        values.push(mask);
        assert_eq!(bits_needed(mask), width);
        assert_u64_roundtrip(&values);
    }
}

#[test]
fn roundtrip_degenerate_column_shapes() {
    // Empty.
    assert_u64_roundtrip(&[]);
    let (_, bytes) = encode_bytes_column(Vec::new());
    assert_eq!(FrozenExtent::decode(&bytes).expect("decode").row_count(), 0);
    // Single value.
    assert_u64_roundtrip(&[u64::MAX]);
    assert_u64_roundtrip(&[0]);
    // All-equal (width-0 packing).
    assert_u64_roundtrip(&[0xABCD; 4096]);
    // Max-cardinality: every value distinct — dictionary gains nothing
    // and the adaptive choice must fall back to FOR without loss.
    let distinct: Vec<u64> = (0..4096u64).map(|i| i * 1_000_003).collect();
    assert_u64_roundtrip(&distinct);
    // Max-cardinality bytes: all strings distinct.
    let distinct_b: Vec<Vec<u8>> = (0..512)
        .map(|i| format!("unique-{i:05}").into_bytes())
        .collect();
    let (_, bytes) = encode_bytes_column(distinct_b.clone());
    let back = FrozenExtent::decode(&bytes).expect("decode");
    let col = back.column("v").expect("column");
    for (i, v) in distinct_b.iter().enumerate() {
        assert_eq!(col.get_bytes(i), Some(v.as_slice()));
    }
}

#[test]
fn bit_packing_primitives_roundtrip_at_every_width() {
    for width in 0u8..=64 {
        let mask = if width >= 64 {
            u64::MAX
        } else if width == 0 {
            0
        } else {
            (1u64 << width) - 1
        };
        let values: Vec<u64> = (0..257u64)
            .map(|i| i.wrapping_mul(0x0123_4567_89AB_CDEF) & mask)
            .collect();
        let packed = pack_bits(&values, width);
        assert_eq!(packed.len(), packed_len(values.len(), width));
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(unpack_bits_at(&packed, width, i), v, "width {width}");
        }
    }
}

/// Narrow-alphabet payloads (unique per row, so the value dictionary
/// gains nothing) must take the charset-packed wire path: digits pack
/// at 4 bits per byte, so the encoding must land well under the raw
/// payload size — and still roundtrip exactly.
#[test]
fn charset_packing_compresses_narrow_alphabet_strings() {
    let values: Vec<Vec<u8>> = (0..400u64)
        .map(|i| format!("{:024}", i * 7_919).into_bytes())
        .collect();
    let raw: usize = values.iter().map(Vec::len).sum();
    let (_, bytes) = encode_bytes_column(values.clone());
    assert!(
        bytes.len() < raw * 7 / 10,
        "10-symbol alphabet should pack at ~4 bits/byte: {} encoded vs {raw} raw",
        bytes.len()
    );
    let back = FrozenExtent::decode(&bytes).expect("decode");
    let col = back.column("v").expect("column");
    for (i, v) in values.iter().enumerate() {
        assert_eq!(col.get_bytes(i), Some(v.as_slice()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Payloads drawn from a small random alphabet roundtrip whichever
    /// wire path (PLAIN, DICT, or charset-packed) the cost model picks.
    #[test]
    fn narrow_alphabet_bytes_roundtrip(
        alpha in proptest::collection::vec(any::<u8>(), 1..12),
        rows in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..32), 0..120),
    ) {
        let values: Vec<Vec<u8>> = rows
            .iter()
            .map(|r| r.iter().map(|&x| alpha[(x % alpha.len() as u64) as usize]).collect())
            .collect();
        let (_, bytes) = encode_bytes_column(values.clone());
        let back = FrozenExtent::decode(&bytes).expect("decode");
        let col = back.column("v").expect("column");
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(col.get_bytes(i), Some(v.as_slice()));
        }
    }

    /// Arbitrary u64 columns roundtrip exactly (the adaptive FOR/DICT
    /// choice must be lossless whichever branch it takes).
    #[test]
    fn u64_columns_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..300)) {
        assert_u64_roundtrip(&values);
    }

    /// Low-cardinality u64 columns (dictionary territory) roundtrip.
    #[test]
    fn low_cardinality_u64_columns_roundtrip(
        dict in proptest::collection::vec(any::<u64>(), 1..8),
        picks in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        let values: Vec<u64> = picks.iter().map(|p| dict[(*p % dict.len() as u64) as usize]).collect();
        assert_u64_roundtrip(&values);
    }

    /// Arbitrary bytes columns roundtrip through PLAIN or DICT.
    #[test]
    fn bytes_columns_roundtrip(
        values in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..150),
    ) {
        let (_, bytes) = encode_bytes_column(values.clone());
        let back = FrozenExtent::decode(&bytes).expect("decode");
        let col = back.column("v").expect("column");
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(col.get_bytes(i), Some(v.as_slice()));
        }
        prop_assert_eq!(col.get_bytes(values.len()), None);
    }

    /// Truncating an encoded extent at any point yields a typed error,
    /// never a panic.
    #[test]
    fn truncated_extents_error_cleanly(
        values in proptest::collection::vec(any::<u64>(), 1..60),
        strs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..60),
        cut in any::<u64>(),
    ) {
        let n = values.len().min(strs.len());
        let row_ids: Vec<RowId> = (0..n as u64).map(RowId).collect();
        let ext = FrozenExtent::build(
            2,
            TableId(4),
            PartitionId(9),
            row_ids,
            vec![
                ("nums".into(), ColumnData::U64(values[..n].to_vec())),
                ("blobs".into(), ColumnData::Bytes(strs[..n].to_vec())),
            ],
            64,
        ).expect("build");
        let bytes = ext.encode();
        let cut = (cut % bytes.len() as u64) as usize;
        let err = FrozenExtent::decode(&bytes[..cut]);
        prop_assert!(matches!(err, Err(BtrimError::Corrupt(_))), "cut at {cut}: {err:?}");
    }

    /// Flipping any single bit of an encoded extent is detected by the
    /// checksum trailer and reported as a typed error.
    #[test]
    fn bit_flipped_extents_error_cleanly(
        values in proptest::collection::vec(any::<u64>(), 1..60),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let (_, mut bytes) = encode_u64_column(values);
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        let err = FrozenExtent::decode(&bytes);
        prop_assert!(matches!(err, Err(BtrimError::Corrupt(_))), "flip at {pos}: {err:?}");
    }

    /// Decoding arbitrary byte soup never panics.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = FrozenExtent::decode(&bytes);
    }
}
