//! Frozen columnar extents: the cold end of the row life cycle.
//!
//! Pack (§VI) normally relocates cold IMRS rows into ordinary slotted
//! pages. The HTAP freeze step goes one stage further: rows that the
//! ILM signal marks as frozen-in-practice are re-encoded into an
//! immutable, compressed, *columnar* *extent* — per-column dictionary
//! or frame-of-reference bit-packed encodings with min/max zone maps —
//! which analytic scans can aggregate over without touching the buffer
//! cache or acquiring any ranked lock.
//!
//! Wire format (`encode`/`decode`, a [`btrim_common::checksum`] trailer
//! over everything before it):
//!
//! ```text
//! u32 magic "BTFZ" | u16 version | u32 extent id | u32 table
//! u32 partition    | u32 row count n | u64 raw input bytes
//! row-id column (adaptive u64 encoding, n values)
//! u32 column count
//! per column: name (length-prefixed) | u8 kind (0=u64, 1=bytes) | payload
//! u32 checksum
//! ```
//!
//! A u64 column payload is either frame-of-reference (`base` + deltas
//! bit-packed at the narrowest width that covers `max - min`) or a
//! sorted dictionary (itself FOR-encoded) plus bit-packed indices —
//! whichever encodes smaller. A bytes column is plain (lengths as a
//! FOR-encoded u64 subcolumn + concatenated payload), charset-packed
//! (same lengths, payload bytes bit-packed at log2 of the distinct
//! byte alphabet — the win for a-strings and digit fields), or a
//! sorted dictionary of distinct values plus bit-packed indices —
//! again whichever encodes smaller. Zone maps are
//! *recomputed at decode time*, never trusted from the wire, which
//! removes a whole class of corrupt-but-plausible inputs.
//!
//! Decoding is total: any truncated or bit-flipped input yields a typed
//! [`BtrimError::Corrupt`]/[`BtrimError::Invalid`] error, never a panic
//! — this crate denies clippy's panic family. Every width, count,
//! index and length read from the wire is validated before use, so the
//! accessors on a decoded column are infallible.

use std::sync::Arc;

use btrim_common::atomics::{AcqRel, Relaxed};
use btrim_common::checksum::checksum;
use btrim_common::codec::{Decoder, Encoder};
use btrim_common::{BtrimError, LazyDir, PartitionId, Result, RowId, TableId};
use parking_lot::RwLock;

/// Hard cap on rows per extent: a frozen row is addressed by
/// `(extent id, u16 slot index)` in the RID-Map's packed word, so an
/// extent can never hold more than `u16` range + 1 rows.
pub const MAX_EXTENT_ROWS: usize = 65_536;

/// Magic prefix of an encoded extent: `b"BTFZ"` read as LE u32.
pub const EXTENT_MAGIC: u32 = u32::from_le_bytes(*b"BTFZ");

/// Extent wire-format version.
pub const EXTENT_VERSION: u16 = 2;

/// Directory geometry: 4096 chunks of 256 slots each, built as ids
/// reach them.
const DIR_CHUNK_SLOTS: usize = 256;
const DIR_CHUNKS: usize = 4096;

/// Bits required to represent `v` (0 for `v == 0`).
#[inline]
pub fn bits_needed(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Encoded size in bytes of `count` values bit-packed at `width`.
#[inline]
pub fn packed_len(count: usize, width: u8) -> usize {
    (count * width as usize).div_ceil(8)
}

/// Mask covering the low `width` bits (total for any width 0–64).
#[inline]
fn width_mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Bit-pack `values` LSB-first at `width` bits each. Values wider than
/// `width` are masked down — callers pick `width` to cover the range.
pub fn pack_bits(values: &[u64], width: u8) -> Vec<u8> {
    if width == 0 {
        return Vec::new();
    }
    let w = width as usize;
    let mut out = vec![0u8; packed_len(values.len(), width)];
    let mut bit = 0usize;
    for &raw in values {
        let v = raw & width_mask(width);
        // Up to 64 payload bits shifted by up to 7 → 71 bits, so the
        // accumulator must be wider than u64.
        let mut acc = (v as u128) << (bit % 8);
        let mut byte = bit / 8;
        while acc != 0 {
            if let Some(slot) = out.get_mut(byte) {
                *slot |= (acc & 0xFF) as u8;
            }
            acc >>= 8;
            byte += 1;
        }
        bit += w;
    }
    out
}

/// Extract value `i` from an LSB-first bit-packed buffer. Reads past
/// the end of `packed` yield zero bits; decode-time validation pins the
/// buffer to the exact packed length, so in-bounds indices never hit
/// that fallback.
#[inline]
pub fn unpack_bits_at(packed: &[u8], width: u8, i: usize) -> u64 {
    if width == 0 {
        return 0;
    }
    let w = width as usize;
    let bit = i * w;
    let first = bit / 8;
    let shift = bit % 8;
    let nbytes = (shift + w).div_ceil(8);
    let mut acc: u128 = 0;
    for k in 0..nbytes {
        let b = packed.get(first + k).copied().unwrap_or(0);
        acc |= (b as u128) << (8 * k);
    }
    ((acc >> shift) as u64) & width_mask(width)
}

/// Column input handed to [`FrozenExtent::build`]: one entry per row.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Fixed-width numeric column (integers, or f64 bit patterns).
    U64(Vec<u64>),
    /// Variable-length byte-string column.
    Bytes(Vec<Vec<u8>>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::U64(v) => v.len(),
            ColumnData::Bytes(v) => v.len(),
        }
    }
}

/// Physical encoding of a u64 column.
#[derive(Debug)]
enum U64Enc {
    /// Frame-of-reference: `value[i] = base + unpack(packed, i)`.
    For {
        base: u64,
        width: u8,
        packed: Vec<u8>,
    },
    /// Sorted dictionary + bit-packed indices into it.
    Dict {
        dict: Vec<u64>,
        width: u8,
        packed: Vec<u8>,
    },
}

/// A decoded (or freshly built) u64 column with its zone map.
#[derive(Debug)]
pub struct U64Column {
    len: usize,
    min: u64,
    max: u64,
    enc: U64Enc,
}

impl U64Column {
    /// Build from raw values, choosing the smaller of FOR and DICT.
    pub fn build(values: &[u64]) -> U64Column {
        let n = values.len();
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);

        let for_width = bits_needed(max - min);
        // 8 base + 1 width + 4 length prefix + packed payload.
        let for_cost = 13 + packed_len(n, for_width);

        let mut dict: Vec<u64> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let dict_width = bits_needed(dict.len().saturating_sub(1) as u64);
        let dict_value_width =
            bits_needed(dict.last().copied().unwrap_or(0) - dict.first().copied().unwrap_or(0));
        // 4 dict len + dict FOR subcolumn + 1 idx width + 4 prefix + indices.
        let dict_cost =
            4 + 13 + packed_len(dict.len(), dict_value_width) + 5 + packed_len(n, dict_width);

        let enc = if dict_cost < for_cost {
            let indices: Vec<u64> = values
                .iter()
                .map(|v| dict.partition_point(|d| d < v) as u64)
                .collect();
            U64Enc::Dict {
                packed: pack_bits(&indices, dict_width),
                width: dict_width,
                dict,
            }
        } else {
            let deltas: Vec<u64> = values.iter().map(|v| v - min).collect();
            U64Enc::For {
                base: min,
                width: for_width,
                packed: pack_bits(&deltas, for_width),
            }
        };
        U64Column {
            len: n,
            min,
            max,
            enc,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zone-map minimum (0 for an empty column).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Zone-map maximum (0 for an empty column).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at row `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<u64> {
        if i >= self.len {
            return None;
        }
        match &self.enc {
            U64Enc::For {
                base,
                width,
                packed,
            } => Some(base.wrapping_add(unpack_bits_at(packed, *width, i))),
            U64Enc::Dict {
                dict,
                width,
                packed,
            } => dict
                .get(unpack_bits_at(packed, *width, i) as usize)
                .copied(),
        }
    }

    /// Sequential iterator over all values.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(|i| self.get(i).unwrap_or(0))
    }

    fn encode(&self, e: &mut Encoder) {
        match &self.enc {
            U64Enc::For {
                base,
                width,
                packed,
            } => {
                e.put_u8(0);
                e.put_u64(*base);
                e.put_u8(*width);
                e.put_bytes(packed);
            }
            U64Enc::Dict {
                dict,
                width,
                packed,
            } => {
                e.put_u8(1);
                e.put_u32(dict.len() as u32);
                let sub = U64Column::build_for_only(dict);
                sub.encode_for_only(e);
                e.put_u8(*width);
                e.put_bytes(packed);
            }
        }
    }

    /// FOR-only build for dictionary subcolumns (the dictionary is
    /// already deduplicated; nesting dictionaries would be circular).
    fn build_for_only(values: &[u64]) -> U64Column {
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        let width = bits_needed(max - min);
        let deltas: Vec<u64> = values.iter().map(|v| v - min).collect();
        U64Column {
            len: values.len(),
            min,
            max,
            enc: U64Enc::For {
                base: min,
                width,
                packed: pack_bits(&deltas, width),
            },
        }
    }

    fn encode_for_only(&self, e: &mut Encoder) {
        if let U64Enc::For {
            base,
            width,
            packed,
        } = &self.enc
        {
            e.put_u64(*base);
            e.put_u8(*width);
            e.put_bytes(packed);
        }
    }

    /// Decode a FOR-encoded run of `n` values (no enc-tag byte); used
    /// for dictionary and length subcolumns as well as FOR columns.
    fn decode_for_run(d: &mut Decoder<'_>, n: usize) -> Result<(u64, u8, Vec<u8>)> {
        let base = d.get_u64()?;
        let width = d.get_u8()?;
        if width > 64 {
            return Err(BtrimError::Corrupt(format!(
                "extent: bit width {width} > 64"
            )));
        }
        let packed = d.get_bytes()?;
        if packed.len() != packed_len(n, width) {
            return Err(BtrimError::Corrupt(format!(
                "extent: packed run is {} bytes, want {} for {n} x {width}-bit",
                packed.len(),
                packed_len(n, width)
            )));
        }
        Ok((base, width, packed))
    }

    fn decode(d: &mut Decoder<'_>, n: usize) -> Result<U64Column> {
        match d.get_u8()? {
            0 => {
                let (base, width, packed) = Self::decode_for_run(d, n)?;
                let mut min = u64::MAX;
                let mut max = 0u64;
                for i in 0..n {
                    let delta = unpack_bits_at(&packed, width, i);
                    let v = base.checked_add(delta).ok_or_else(|| {
                        BtrimError::Corrupt("extent: FOR value overflows u64".into())
                    })?;
                    min = min.min(v);
                    max = max.max(v);
                }
                if n == 0 {
                    min = 0;
                }
                Ok(U64Column {
                    len: n,
                    min,
                    max,
                    enc: U64Enc::For {
                        base,
                        width,
                        packed,
                    },
                })
            }
            1 => {
                let dlen = d.get_u32()? as usize;
                if dlen > MAX_EXTENT_ROWS {
                    return Err(BtrimError::Corrupt(format!(
                        "extent: dictionary of {dlen} entries exceeds {MAX_EXTENT_ROWS}"
                    )));
                }
                let (base, dwidth, dpacked) = Self::decode_for_run(d, dlen)?;
                let mut dict = Vec::with_capacity(dlen);
                for i in 0..dlen {
                    let v = base
                        .checked_add(unpack_bits_at(&dpacked, dwidth, i))
                        .ok_or_else(|| {
                            BtrimError::Corrupt("extent: dict value overflows u64".into())
                        })?;
                    if let Some(&prev) = dict.last() {
                        if v <= prev {
                            return Err(BtrimError::Corrupt(
                                "extent: dictionary not strictly ascending".into(),
                            ));
                        }
                    }
                    dict.push(v);
                }
                let width = d.get_u8()?;
                if width > 64 {
                    return Err(BtrimError::Corrupt(format!(
                        "extent: bit width {width} > 64"
                    )));
                }
                let packed = d.get_bytes()?;
                if packed.len() != packed_len(n, width) {
                    return Err(BtrimError::Corrupt(
                        "extent: dict index run has wrong packed length".into(),
                    ));
                }
                for i in 0..n {
                    let idx = unpack_bits_at(&packed, width, i) as usize;
                    if idx >= dlen {
                        return Err(BtrimError::Corrupt(format!(
                            "extent: dict index {idx} out of range ({dlen} entries)"
                        )));
                    }
                }
                let min = dict.first().copied().unwrap_or(0);
                let max = dict.last().copied().unwrap_or(0);
                Ok(U64Column {
                    len: n,
                    min,
                    max,
                    enc: U64Enc::Dict {
                        dict,
                        width,
                        packed,
                    },
                })
            }
            t => Err(BtrimError::Corrupt(format!(
                "extent: bad u64 encoding tag {t}"
            ))),
        }
    }
}

/// Physical encoding of a bytes column.
#[derive(Debug)]
enum BytesEnc {
    /// Concatenated payload addressed by prefix-sum offsets.
    Plain { offsets: Vec<u32>, data: Vec<u8> },
    /// Sorted dictionary of distinct values + bit-packed indices.
    Dict {
        dict_offsets: Vec<u32>,
        dict_data: Vec<u8>,
        width: u8,
        packed: Vec<u8>,
    },
}

/// A decoded (or freshly built) variable-length bytes column.
#[derive(Debug)]
pub struct BytesColumn {
    len: usize,
    enc: BytesEnc,
}

impl BytesColumn {
    /// Build from raw values, choosing the smaller of PLAIN and DICT.
    pub fn build(values: &[Vec<u8>]) -> BytesColumn {
        let n = values.len();
        let total: usize = values.iter().map(Vec::len).sum();
        let lengths: Vec<u64> = values.iter().map(|v| v.len() as u64).collect();
        let min_len = lengths.iter().copied().min().unwrap_or(0);
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let len_width = bits_needed(max_len - min_len);
        let plain_cost = 13 + packed_len(n, len_width) + 4 + total;

        let mut dict: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
        dict.sort_unstable();
        dict.dedup();
        let dict_total: usize = dict.iter().map(|v| v.len()).sum();
        let dlens: Vec<u64> = dict.iter().map(|v| v.len() as u64).collect();
        let dmin = dlens.iter().copied().min().unwrap_or(0);
        let dmax = dlens.iter().copied().max().unwrap_or(0);
        let dlen_width = bits_needed(dmax - dmin);
        let idx_width = bits_needed(dict.len().saturating_sub(1) as u64);
        let dict_cost = 4
            + 13
            + packed_len(dict.len(), dlen_width)
            + 4
            + dict_total
            + 5
            + packed_len(n, idx_width);

        let enc = if dict_cost < plain_cost {
            let indices: Vec<u64> = values
                .iter()
                .map(|v| dict.partition_point(|d| *d < v.as_slice()) as u64)
                .collect();
            let mut dict_offsets = Vec::with_capacity(dict.len() + 1);
            let mut dict_data = Vec::with_capacity(dict_total);
            dict_offsets.push(0u32);
            for v in &dict {
                dict_data.extend_from_slice(v);
                dict_offsets.push(dict_data.len() as u32);
            }
            BytesEnc::Dict {
                dict_offsets,
                dict_data,
                width: idx_width,
                packed: pack_bits(&indices, idx_width),
            }
        } else {
            let mut offsets = Vec::with_capacity(n + 1);
            let mut data = Vec::with_capacity(total);
            offsets.push(0u32);
            for v in values {
                data.extend_from_slice(v);
                offsets.push(data.len() as u32);
            }
            BytesEnc::Plain { offsets, data }
        };
        BytesColumn { len: n, enc }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value at row `i` as a borrowed slice, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        if i >= self.len {
            return None;
        }
        match &self.enc {
            BytesEnc::Plain { offsets, data } => {
                let start = offsets.get(i).copied()? as usize;
                let end = offsets.get(i + 1).copied()? as usize;
                data.get(start..end)
            }
            BytesEnc::Dict {
                dict_offsets,
                dict_data,
                width,
                packed,
            } => {
                let idx = unpack_bits_at(packed, *width, i) as usize;
                let start = dict_offsets.get(idx).copied()? as usize;
                let end = dict_offsets.get(idx + 1).copied()? as usize;
                dict_data.get(start..end)
            }
        }
    }

    fn slices_to_runs(offsets: &[u32]) -> Vec<u64> {
        offsets
            .windows(2)
            .map(|w| {
                let a = w.first().copied().unwrap_or(0);
                let b = w.last().copied().unwrap_or(0);
                (b - a) as u64
            })
            .collect()
    }

    /// The byte alphabet of `data`, ascending, and the per-symbol bit
    /// width charset packing would use.
    fn charset_of(data: &[u8]) -> (Vec<u8>, u8) {
        let mut seen = [false; 256];
        for &b in data {
            seen[b as usize] = true;
        }
        let charset: Vec<u8> = (0..=255u8).filter(|&b| seen[b as usize]).collect();
        let width = bits_needed(charset.len().saturating_sub(1) as u64);
        (charset, width)
    }

    fn encode(&self, e: &mut Encoder) {
        match &self.enc {
            BytesEnc::Plain { offsets, data } => {
                // Charset packing: when the payload uses a narrow byte
                // alphabet (TPC-C a-strings, digits, hex), each byte
                // goes on the wire at log2(|alphabet|) bits. Wire-level
                // only — the decoded column is Plain again.
                let (charset, sym_width) = Self::charset_of(data);
                let plain_cost = 4 + data.len();
                let packed_cost = 4 + charset.len() + 1 + 4 + packed_len(data.len(), sym_width);
                let lengths = Self::slices_to_runs(offsets);
                let sub = U64Column::build_for_only(&lengths);
                if sym_width < 8 && packed_cost < plain_cost {
                    e.put_u8(2);
                    sub.encode_for_only(e);
                    e.put_bytes(&charset);
                    e.put_u8(sym_width);
                    let mut rank = [0u64; 256];
                    for (i, &b) in charset.iter().enumerate() {
                        rank[b as usize] = i as u64;
                    }
                    let symbols: Vec<u64> = data.iter().map(|&b| rank[b as usize]).collect();
                    e.put_bytes(&pack_bits(&symbols, sym_width));
                } else {
                    e.put_u8(0);
                    sub.encode_for_only(e);
                    e.put_bytes(data);
                }
            }
            BytesEnc::Dict {
                dict_offsets,
                dict_data,
                width,
                packed,
            } => {
                e.put_u8(1);
                e.put_u32((dict_offsets.len() - 1) as u32);
                let dlens = Self::slices_to_runs(dict_offsets);
                let sub = U64Column::build_for_only(&dlens);
                sub.encode_for_only(e);
                e.put_bytes(dict_data);
                e.put_u8(*width);
                e.put_bytes(packed);
            }
        }
    }

    /// Decode a FOR-encoded length run and turn it into validated
    /// prefix-sum offsets for `data_len` bytes of payload.
    fn decode_offsets(d: &mut Decoder<'_>, n: usize) -> Result<Vec<u32>> {
        let (base, width, packed) = U64Column::decode_for_run(d, n)?;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total: u64 = 0;
        for i in 0..n {
            let len = base
                .checked_add(unpack_bits_at(&packed, width, i))
                .ok_or_else(|| BtrimError::Corrupt("extent: length overflows u64".into()))?;
            total = total
                .checked_add(len)
                .filter(|t| *t <= u32::MAX as u64)
                .ok_or_else(|| BtrimError::Corrupt("extent: bytes column exceeds 4 GiB".into()))?;
            offsets.push(total as u32);
        }
        Ok(offsets)
    }

    fn decode(d: &mut Decoder<'_>, n: usize) -> Result<BytesColumn> {
        match d.get_u8()? {
            0 => {
                let offsets = Self::decode_offsets(d, n)?;
                let data = d.get_bytes()?;
                if offsets.last().copied().unwrap_or(0) as usize != data.len() {
                    return Err(BtrimError::Corrupt(
                        "extent: bytes payload length disagrees with length run".into(),
                    ));
                }
                Ok(BytesColumn {
                    len: n,
                    enc: BytesEnc::Plain { offsets, data },
                })
            }
            1 => {
                let dlen = d.get_u32()? as usize;
                if dlen > MAX_EXTENT_ROWS {
                    return Err(BtrimError::Corrupt(format!(
                        "extent: bytes dictionary of {dlen} entries exceeds {MAX_EXTENT_ROWS}"
                    )));
                }
                let dict_offsets = Self::decode_offsets(d, dlen)?;
                let dict_data = d.get_bytes()?;
                if dict_offsets.last().copied().unwrap_or(0) as usize != dict_data.len() {
                    return Err(BtrimError::Corrupt(
                        "extent: bytes dictionary payload disagrees with length run".into(),
                    ));
                }
                for w in dict_offsets.windows(3) {
                    if let [a, b, c] = w {
                        let prev = dict_data.get(*a as usize..*b as usize);
                        let next = dict_data.get(*b as usize..*c as usize);
                        if prev >= next {
                            return Err(BtrimError::Corrupt(
                                "extent: bytes dictionary not strictly ascending".into(),
                            ));
                        }
                    }
                }
                let width = d.get_u8()?;
                if width > 64 {
                    return Err(BtrimError::Corrupt(format!(
                        "extent: bit width {width} > 64"
                    )));
                }
                let packed = d.get_bytes()?;
                if packed.len() != packed_len(n, width) {
                    return Err(BtrimError::Corrupt(
                        "extent: bytes index run has wrong packed length".into(),
                    ));
                }
                for i in 0..n {
                    let idx = unpack_bits_at(&packed, width, i) as usize;
                    if idx >= dlen {
                        return Err(BtrimError::Corrupt(format!(
                            "extent: bytes dict index {idx} out of range ({dlen} entries)"
                        )));
                    }
                }
                Ok(BytesColumn {
                    len: n,
                    enc: BytesEnc::Dict {
                        dict_offsets,
                        dict_data,
                        width,
                        packed,
                    },
                })
            }
            2 => {
                let offsets = Self::decode_offsets(d, n)?;
                let charset = d.get_bytes()?;
                if charset.len() > 256 {
                    return Err(BtrimError::Corrupt(format!(
                        "extent: charset of {} symbols exceeds 256",
                        charset.len()
                    )));
                }
                if charset.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(BtrimError::Corrupt(
                        "extent: charset not strictly ascending".into(),
                    ));
                }
                let sym_width = d.get_u8()?;
                if sym_width != bits_needed(charset.len().saturating_sub(1) as u64) {
                    return Err(BtrimError::Corrupt(format!(
                        "extent: symbol width {sym_width} does not fit a {}-symbol charset",
                        charset.len()
                    )));
                }
                let total = offsets.last().copied().unwrap_or(0) as usize;
                let packed = d.get_bytes()?;
                if packed.len() != packed_len(total, sym_width) {
                    return Err(BtrimError::Corrupt(
                        "extent: charset-packed payload has wrong length".into(),
                    ));
                }
                let mut data = Vec::with_capacity(total);
                for i in 0..total {
                    let idx = unpack_bits_at(&packed, sym_width, i) as usize;
                    data.push(*charset.get(idx).ok_or_else(|| {
                        BtrimError::Corrupt(format!(
                            "extent: symbol {idx} out of range ({} charset entries)",
                            charset.len()
                        ))
                    })?);
                }
                Ok(BytesColumn {
                    len: n,
                    enc: BytesEnc::Plain { offsets, data },
                })
            }
            t => Err(BtrimError::Corrupt(format!(
                "extent: bad bytes encoding tag {t}"
            ))),
        }
    }
}

/// One column of a frozen extent.
#[derive(Debug)]
pub enum Column {
    /// Numeric column with a zone map.
    U64(U64Column),
    /// Variable-length bytes column.
    Bytes(BytesColumn),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::U64(c) => c.len(),
            Column::Bytes(c) => c.len(),
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zone map, for u64 columns only.
    pub fn min_max(&self) -> Option<(u64, u64)> {
        match self {
            Column::U64(c) if !c.is_empty() => Some((c.min(), c.max())),
            _ => None,
        }
    }

    /// Numeric value at row `i` (u64 columns only).
    #[inline]
    pub fn get_u64(&self, i: usize) -> Option<u64> {
        match self {
            Column::U64(c) => c.get(i),
            Column::Bytes(_) => None,
        }
    }

    /// Byte-string value at row `i` (bytes columns only).
    #[inline]
    pub fn get_bytes(&self, i: usize) -> Option<&[u8]> {
        match self {
            Column::Bytes(c) => c.get(i),
            Column::U64(_) => None,
        }
    }
}

/// A named column within an extent.
#[derive(Debug)]
pub struct ExtentColumn {
    /// Field name, matching the table's declared row layout.
    pub name: String,
    /// The column data.
    pub col: Column,
}

/// An immutable, compressed, columnar run of frozen rows.
///
/// The encoded payload — magic through checksum — is the unit the freeze
/// step WAL-logs and recovery replays. Per-slot liveness (a row thawed
/// back to the IMRS, or deleted) is *runtime* state rebuilt from
/// `ExtentRowGone` log records, deliberately not part of the wire
/// image, which stays immutable from the moment it is encoded.
#[derive(Debug)]
pub struct FrozenExtent {
    id: u32,
    table: TableId,
    partition: PartitionId,
    raw_len: u64,
    encoded_len: Relaxed<u64>,
    row_ids: Vec<RowId>,
    columns: Vec<ExtentColumn>,
    live: Vec<AcqRel<u64>>,
    /// Live slots. It only ever falls; a reader that sees 0 reads after
    /// every `mark_gone`, and so after each row's move out.
    live_count: AcqRel<u64>,
}

impl FrozenExtent {
    /// Build an extent from per-row column data. `raw_len` is the total
    /// byte size of the input row images, kept for compression
    /// accounting (it survives the encode/decode roundtrip).
    pub fn build(
        id: u32,
        table: TableId,
        partition: PartitionId,
        row_ids: Vec<RowId>,
        columns: Vec<(String, ColumnData)>,
        raw_len: u64,
    ) -> Result<FrozenExtent> {
        let n = row_ids.len();
        if n > MAX_EXTENT_ROWS {
            return Err(BtrimError::Invalid(format!(
                "extent holds at most {MAX_EXTENT_ROWS} rows, got {n}"
            )));
        }
        let mut built = Vec::with_capacity(columns.len());
        for (name, data) in columns {
            if data.len() != n {
                return Err(BtrimError::Invalid(format!(
                    "extent column {name} has {} rows, extent has {n}",
                    data.len()
                )));
            }
            if built.iter().any(|c: &ExtentColumn| c.name == name) {
                return Err(BtrimError::Invalid(format!(
                    "duplicate extent column {name}"
                )));
            }
            let col = match data {
                ColumnData::U64(v) => Column::U64(U64Column::build(&v)),
                ColumnData::Bytes(v) => Column::Bytes(BytesColumn::build(&v)),
            };
            built.push(ExtentColumn { name, col });
        }
        Ok(FrozenExtent {
            id,
            table,
            partition,
            raw_len,
            encoded_len: Relaxed::new(0),
            live: new_live_bitmap(n),
            live_count: AcqRel::new(n as u64),
            row_ids,
            columns: built,
        })
    }

    /// Serialize to the wire format (records the encoded size on the
    /// extent as a side effect, for compression accounting).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64 + self.raw_len as usize / 2);
        e.put_u32(EXTENT_MAGIC);
        e.put_u16(EXTENT_VERSION);
        e.put_u32(self.id);
        e.put_u32(self.table.0);
        e.put_u32(self.partition.0);
        e.put_u32(self.row_ids.len() as u32);
        e.put_u64(self.raw_len);
        let ids: Vec<u64> = self.row_ids.iter().map(|r| r.0).collect();
        U64Column::build(&ids).encode(&mut e);
        e.put_u32(self.columns.len() as u32);
        for c in &self.columns {
            e.put_str(&c.name);
            match &c.col {
                Column::U64(col) => {
                    e.put_u8(0);
                    col.encode(&mut e);
                }
                Column::Bytes(col) => {
                    e.put_u8(1);
                    col.encode(&mut e);
                }
            }
        }
        let mut out = e.into_vec();
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        self.encoded_len.store(out.len() as u64);
        out
    }

    /// Decode and fully validate an encoded extent. Every row starts
    /// live; recovery re-applies `ExtentRowGone` records on top.
    pub fn decode(bytes: &[u8]) -> Result<FrozenExtent> {
        if bytes.len() < 4 {
            return Err(BtrimError::Corrupt("extent: too short for checksum".into()));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = tail
            .first_chunk::<4>()
            .map(|b| u32::from_le_bytes(*b))
            .unwrap_or(0);
        let actual = checksum(body);
        if stored != actual {
            return Err(BtrimError::Corrupt(format!(
                "extent: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        let mut d = Decoder::new(body);
        let magic = d.get_u32()?;
        if magic != EXTENT_MAGIC {
            return Err(BtrimError::Corrupt(format!(
                "extent: bad magic {magic:#010x}"
            )));
        }
        let version = d.get_u16()?;
        if version != EXTENT_VERSION {
            return Err(BtrimError::Corrupt(format!(
                "extent: unknown version {version}"
            )));
        }
        let id = d.get_u32()?;
        let table = TableId(d.get_u32()?);
        let partition = PartitionId(d.get_u32()?);
        let n = d.get_u32()? as usize;
        if n > MAX_EXTENT_ROWS {
            return Err(BtrimError::Corrupt(format!(
                "extent: {n} rows exceeds {MAX_EXTENT_ROWS}"
            )));
        }
        let raw_len = d.get_u64()?;
        let ids = U64Column::decode(&mut d, n)?;
        let row_ids: Vec<RowId> = ids.iter().map(RowId).collect();
        let ncols = d.get_u32()? as usize;
        if ncols > 4096 {
            return Err(BtrimError::Corrupt(format!("extent: {ncols} columns")));
        }
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name = d.get_str()?;
            let col = match d.get_u8()? {
                0 => Column::U64(U64Column::decode(&mut d, n)?),
                1 => Column::Bytes(BytesColumn::decode(&mut d, n)?),
                t => {
                    return Err(BtrimError::Corrupt(format!("extent: bad column kind {t}")));
                }
            };
            if columns.iter().any(|c: &ExtentColumn| c.name == name) {
                return Err(BtrimError::Corrupt(format!(
                    "extent: duplicate column {name}"
                )));
            }
            columns.push(ExtentColumn { name, col });
        }
        if !d.is_exhausted() {
            return Err(BtrimError::Corrupt(format!(
                "extent: {} trailing bytes",
                d.remaining()
            )));
        }
        Ok(FrozenExtent {
            id,
            table,
            partition,
            raw_len,
            encoded_len: Relaxed::new(bytes.len() as u64),
            live: new_live_bitmap(n),
            live_count: AcqRel::new(n as u64),
            row_ids,
            columns,
        })
    }

    /// Extent id (its slot in the [`ExtentStore`] directory).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Owning table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Owning partition.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Number of rows frozen into this extent (live or not).
    pub fn row_count(&self) -> usize {
        self.row_ids.len()
    }

    /// Row id at slot `i`.
    pub fn row_id(&self, i: usize) -> Option<RowId> {
        self.row_ids.get(i).copied()
    }

    /// All row ids in slot order.
    pub fn row_ids(&self) -> &[RowId] {
        &self.row_ids
    }

    /// The named columns.
    pub fn columns(&self) -> &[ExtentColumn] {
        &self.columns
    }

    /// Look up a column by field name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name).map(|c| &c.col)
    }

    /// Total byte size of the row images that went in.
    pub fn raw_len(&self) -> u64 {
        self.raw_len
    }

    /// Encoded wire size (0 until first encoded or decoded).
    pub fn encoded_len(&self) -> u64 {
        self.encoded_len.load()
    }

    /// Whether slot `i` still holds the current version of its row.
    #[inline]
    pub fn is_live(&self, i: usize) -> bool {
        self.live
            .get(i / 64)
            .map(|live_word| live_word.load() >> (i % 64) & 1 == 1)
            .unwrap_or(false)
    }

    /// Mark slot `i` gone (row thawed or deleted). Returns whether this
    /// call made the transition.
    pub fn mark_gone(&self, i: usize) -> bool {
        let Some(live_word) = self.live.get(i / 64) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        let prev = live_word.fetch_and(!bit);
        if prev & bit != 0 {
            self.live_count.fetch_sub(1);
            true
        } else {
            false
        }
    }

    /// Number of live slots.
    pub fn live_count(&self) -> u64 {
        self.live_count.load()
    }
}

fn new_live_bitmap(n: usize) -> Vec<AcqRel<u64>> {
    let words = n.div_ceil(64);
    let mut live = Vec::with_capacity(words);
    for w in 0..words {
        let bits_here = (n - w * 64).min(64);
        let word = if bits_here == 64 {
            u64::MAX
        } else {
            (1u64 << bits_here) - 1
        };
        live.push(AcqRel::new(word));
    }
    live
}

/// One directory slot: the extent installed at its id, until every row
/// left it. An unranked leaf latch: held only to clone or swap the
/// `Arc`, never around another lock.
type Slot = RwLock<Option<Arc<FrozenExtent>>>;

/// The global frozen-extent directory: extent id → extent, in chunks of
/// slots built as ids reach them ([`LazyDir`]).
///
/// An extent leaves the directory once it holds no live row
/// ([`ExtentStore::remove_empty`]); its memory goes with the last `Arc`,
/// so a reader that already holds one reads it intact, and a lookup of
/// its id returns `None` from then on — ids are never reused. No
/// operation takes a ranked lock: a lookup takes its slot's latch
/// shared, an install or removal exclusive, and analytic scans stay at
/// zero ranked locks.
#[derive(Debug)]
pub struct ExtentStore {
    chunks: LazyDir<Box<[Slot]>>,
    next: AcqRel<u32>,
    /// Analytic scans in flight ([`ExtentStore::pin`]): an empty extent
    /// leaves the directory only while none is.
    scans: AcqRel<u64>,
    count: Relaxed<u64>,
    raw_bytes: Relaxed<u64>,
    encoded_bytes: Relaxed<u64>,
}

/// An analytic scan in flight: while one is pinned, no extent leaves the
/// directory ([`ExtentStore::pin`]).
pub struct ScanPin<'s>(&'s ExtentStore);

impl Drop for ScanPin<'_> {
    fn drop(&mut self) {
        self.0.scans.fetch_sub(1);
    }
}

impl Default for ExtentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ExtentStore {
    /// Create an empty directory.
    pub fn new() -> ExtentStore {
        ExtentStore {
            chunks: LazyDir::new(DIR_CHUNKS),
            next: AcqRel::new(0),
            scans: AcqRel::new(0),
            count: Relaxed::new(0),
            raw_bytes: Relaxed::new(0),
            encoded_bytes: Relaxed::new(0),
        }
    }

    /// Reserve the next extent id.
    pub fn allocate_id(&self) -> u32 {
        self.next.fetch_add(1)
    }

    /// Raise the id allocator past `id` (recovery replays extents at
    /// their logged ids and must keep later allocations above them).
    pub fn bump_floor(&self, id: u32) {
        self.next.fetch_max(id.saturating_add(1));
    }

    fn slot(&self, id: u32) -> Option<&Slot> {
        let id = id as usize;
        self.chunks
            .get(id / DIR_CHUNK_SLOTS)?
            .get(id % DIR_CHUNK_SLOTS)
    }

    /// Publish an extent at its id. Fails if the slot is taken or the
    /// id is beyond the directory.
    pub fn install(&self, ext: Arc<FrozenExtent>) -> Result<()> {
        let id = ext.id() as usize;
        if id / DIR_CHUNK_SLOTS >= self.chunks.capacity() {
            return Err(BtrimError::Invalid(format!(
                "extent directory full at id {id}"
            )));
        }
        let slots = (self.chunks).get_or_init(id / DIR_CHUNK_SLOTS, || {
            (0..DIR_CHUNK_SLOTS).map(|_| RwLock::new(None)).collect()
        });
        let mut slot = slots[id % DIR_CHUNK_SLOTS].write();
        if slot.is_some() {
            return Err(BtrimError::Invalid(format!(
                "extent {id} already installed"
            )));
        }
        self.count.fetch_add(1);
        self.raw_bytes.fetch_add(ext.raw_len());
        self.encoded_bytes.fetch_add(ext.encoded_len());
        *slot = Some(ext);
        Ok(())
    }

    /// Lookup by extent id: `None` for an id never installed, or one
    /// whose extent left the directory.
    #[inline]
    pub fn get(&self, id: u32) -> Option<Arc<FrozenExtent>> {
        self.slot(id)?.read().clone()
    }

    /// Visit every installed extent in id order.
    pub fn for_each(&self, mut f: impl FnMut(&Arc<FrozenExtent>)) {
        let hi = self.next.load();
        for id in 0..hi {
            if let Some(ext) = self.get(id) {
                f(&ext);
            }
        }
    }

    /// Hold every extent in the directory until the pin drops. An
    /// analytic scan pins before its first pass: an extent that had a
    /// live row when the scan began is still listed at its last pass.
    pub fn pin(&self) -> ScanPin<'_> {
        self.scans.fetch_add(1);
        ScanPin(self)
    }

    /// Take every extent with no live row out of the directory, unless
    /// a scan is pinned (then nothing, and a later call retries).
    /// Returns the ids removed.
    ///
    /// The empty extents are listed first, and the scan count is read
    /// after, with a read-modify-write: an extent empty at the listing
    /// stays empty (a slot, once gone, never comes back), and a scan
    /// that pins after the read-modify-write reads from it, so it sees
    /// every row of the listed extents already in its new home and
    /// never needs them. An extent that empties after the listing waits
    /// for a later call: a scan pinned beside its last thaw may still
    /// have to serve that row from it.
    pub fn remove_empty(&self) -> Vec<u32> {
        let is_empty = |slot: &Slot| slot.read().as_ref().is_some_and(|e| e.live_count() == 0);
        let mut empty: Vec<u32> = (0..self.next.load())
            .filter(|&id| self.slot(id).is_some_and(is_empty))
            .collect();
        if empty.is_empty() || self.scans.compare_exchange(0, 0).is_err() {
            return Vec::new();
        }
        empty.retain(|&id| {
            let taken = self.slot(id).and_then(|slot| slot.write().take());
            if taken.is_some() {
                self.count.fetch_sub(1);
            }
            taken.is_some()
        });
        empty
    }

    /// Number of installed extents.
    pub fn count(&self) -> u64 {
        self.count.load()
    }

    /// Total raw bytes of every extent ever installed.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes.load()
    }

    /// Total encoded bytes of every extent ever installed.
    pub fn encoded_bytes(&self) -> u64 {
        self.encoded_bytes.load()
    }

    /// One past the highest allocated extent id.
    pub fn next_id(&self) -> u32 {
        self.next.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_extent() -> FrozenExtent {
        sample_extent_at(7)
    }

    fn sample_extent_at(id: u32) -> FrozenExtent {
        let n = 100usize;
        let row_ids: Vec<RowId> = (0..n as u64).map(|i| RowId(1000 + i)).collect();
        let quantity = vec![5u64; n];
        let amount: Vec<u64> = (0..n as u64)
            .map(|i| if i % 3 == 0 { 0 } else { (i * 7919) ^ 0xDEAD })
            .collect();
        let info: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("dist-{:04}", i % 10).into_bytes())
            .collect();
        FrozenExtent::build(
            id,
            TableId(3),
            PartitionId(12),
            row_ids,
            vec![
                ("quantity".into(), ColumnData::U64(quantity)),
                ("amount".into(), ColumnData::U64(amount)),
                ("dist_info".into(), ColumnData::Bytes(info)),
            ],
            n as u64 * 80,
        )
        .unwrap()
    }

    #[test]
    fn pack_unpack_roundtrip_all_widths() {
        for width in 0u8..=64 {
            let mask = width_mask(width);
            let values: Vec<u64> = (0..37u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask)
                .collect();
            let packed = pack_bits(&values, width);
            assert_eq!(packed.len(), packed_len(values.len(), width));
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(
                    unpack_bits_at(&packed, width, i),
                    v,
                    "width {width} index {i}"
                );
            }
        }
    }

    /// On-disk format pin: length and trailer of the sample extent. A
    /// change to the checksum or the layout must bump `EXTENT_VERSION`
    /// and re-pin.
    #[test]
    fn encoded_trailer_of_the_sample_extent_is_pinned() {
        let bytes = sample_extent().encode();
        assert_eq!(bytes.len(), 623);
        assert_eq!(bytes[619..], 0x2262_D45Du32.to_le_bytes());
    }

    #[test]
    fn extent_roundtrips_and_checks_its_checksum() {
        let ext = sample_extent();
        let bytes = ext.encode();
        assert_eq!(ext.encoded_len(), bytes.len() as u64);

        let back = FrozenExtent::decode(&bytes).unwrap();
        assert_eq!(back.id(), 7);
        assert_eq!(back.table(), TableId(3));
        assert_eq!(back.partition(), PartitionId(12));
        assert_eq!(back.row_count(), 100);
        assert_eq!(back.row_ids(), ext.row_ids());
        for (a, b) in ext.columns().iter().zip(back.columns()) {
            assert_eq!(a.name, b.name);
            for i in 0..ext.row_count() {
                assert_eq!(a.col.get_u64(i), b.col.get_u64(i));
                assert_eq!(a.col.get_bytes(i), b.col.get_bytes(i));
            }
            assert_eq!(a.col.min_max(), b.col.min_max());
        }

        // Any single flipped bit must be caught by the checksum.
        let mut bad = bytes.clone();
        bad[10] ^= 0x40;
        assert!(matches!(
            FrozenExtent::decode(&bad),
            Err(BtrimError::Corrupt(_))
        ));
        // Truncation too.
        assert!(FrozenExtent::decode(&bytes[..bytes.len() - 9]).is_err());
        assert!(FrozenExtent::decode(&[]).is_err());
    }

    #[test]
    fn zone_maps_are_recomputed_at_decode() {
        let ext = sample_extent();
        let bytes = ext.encode();
        let back = FrozenExtent::decode(&bytes).unwrap();
        let qty = back.column("quantity").unwrap();
        assert_eq!(qty.min_max(), Some((5, 5)));
        assert!(back.column("amount").unwrap().min_max().is_some());
        assert!(back.column("dist_info").unwrap().min_max().is_none());
        assert!(back.column("nope").is_none());
    }

    #[test]
    fn all_equal_column_packs_to_zero_width() {
        let col = U64Column::build(&[42; 5000]);
        let mut e = Encoder::new();
        col.encode(&mut e);
        // enc tag + base + width + empty length-prefixed packed run.
        assert!(
            e.len() <= 14,
            "all-equal column should cost ~nothing, got {}",
            e.len()
        );
        assert_eq!(col.get(4999), Some(42));
        assert_eq!(col.get(5000), None);
    }

    #[test]
    fn dictionary_wins_on_low_cardinality_wide_values() {
        // Two distinct huge values: FOR width would be ~64 bits/row,
        // dictionary needs 1 bit/row.
        let values: Vec<u64> = (0..1000)
            .map(|i| if i % 2 == 0 { 0 } else { u64::MAX - 1 })
            .collect();
        let col = U64Column::build(&values);
        assert!(matches!(col.enc, U64Enc::Dict { .. }));
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(col.get(i), Some(v));
        }
        let mut e = Encoder::new();
        col.encode(&mut e);
        assert!(e.len() < 1000 / 8 + 64);
    }

    #[test]
    fn bytes_dictionary_wins_on_repeats() {
        let values: Vec<Vec<u8>> = (0..300)
            .map(|i| format!("warehouse-{}", i % 4).into_bytes())
            .collect();
        let col = BytesColumn::build(&values);
        assert!(matches!(col.enc, BytesEnc::Dict { .. }));
        for (i, v) in values.iter().enumerate() {
            assert_eq!(col.get(i), Some(v.as_slice()));
        }
    }

    #[test]
    fn liveness_bitmap_tracks_transitions() {
        let ext = sample_extent();
        assert_eq!(ext.live_count(), 100);
        assert!(ext.is_live(99));
        assert!(!ext.is_live(100));
        assert!(ext.mark_gone(99));
        assert!(!ext.mark_gone(99), "second mark is a no-op");
        assert!(!ext.is_live(99));
        assert_eq!(ext.live_count(), 99);
        assert!(!ext.mark_gone(100_000), "out of range is a no-op");
    }

    #[test]
    fn store_install_get_and_floor() {
        let store = ExtentStore::new();
        assert_eq!(store.allocate_id(), 0);
        assert_eq!(store.allocate_id(), 1);
        store.bump_floor(9);
        assert_eq!(store.allocate_id(), 10);

        let ext = sample_extent();
        let _ = ext.encode();
        let raw = ext.raw_len();
        let encoded = ext.encoded_len();
        let ext = Arc::new(ext);
        store.install(Arc::clone(&ext)).unwrap();
        assert!(store.install(ext).is_err(), "double install rejected");
        let got = store.get(7).unwrap();
        assert_eq!(got.row_count(), 100);
        assert!(store.get(8).is_none());
        assert_eq!(store.count(), 1);
        assert_eq!(store.raw_bytes(), raw);
        assert_eq!(store.encoded_bytes(), encoded);

        let mut seen = Vec::new();
        store.bump_floor(7);
        store.for_each(|e| seen.push(e.id()));
        assert_eq!(seen, vec![7]);
    }

    #[test]
    fn an_extent_with_no_live_row_leaves_the_directory() {
        let store = ExtentStore::new();
        let mut held = Vec::new();
        for _ in 0..3 {
            let id = store.allocate_id();
            let ext = Arc::new(sample_extent_at(id));
            let _ = ext.encode();
            store.install(Arc::clone(&ext)).unwrap();
            held.push(ext);
        }
        assert_eq!(store.count(), 3);
        for i in 0..100 {
            held[1].mark_gone(i);
        }
        // A pinned scan holds every extent in place.
        let pin = store.pin();
        assert!(store.remove_empty().is_empty());
        assert!(store.get(1).is_some());
        drop(pin);
        assert_eq!(store.remove_empty(), vec![1]);
        assert_eq!(store.count(), 2);
        assert!(store.get(1).is_none(), "a removed slot looks up as None");
        assert_eq!(
            store.encoded_bytes(),
            3 * held[0].encoded_len(),
            "cumulative"
        );
        // A reader that held the Arc across the removal reads it intact.
        assert_eq!(held[1].row_count(), 100);
        assert_eq!(held[1].column("quantity").unwrap().get_u64(7), Some(5));
        let mut seen = Vec::new();
        store.for_each(|e| seen.push(e.id()));
        assert_eq!(seen, vec![0, 2]);
        assert_eq!(store.allocate_id(), 3, "a dropped id is never reused");
        assert!(store.remove_empty().is_empty());
    }

    #[test]
    fn build_rejects_mismatched_and_duplicate_columns() {
        let err = FrozenExtent::build(
            0,
            TableId(0),
            PartitionId(0),
            vec![RowId(1), RowId(2)],
            vec![("a".into(), ColumnData::U64(vec![1]))],
            0,
        );
        assert!(err.is_err());
        let err = FrozenExtent::build(
            0,
            TableId(0),
            PartitionId(0),
            vec![RowId(1)],
            vec![
                ("a".into(), ColumnData::U64(vec![1])),
                ("a".into(), ColumnData::U64(vec![2])),
            ],
            0,
        );
        assert!(err.is_err());
    }

    #[test]
    fn empty_extent_roundtrips() {
        let ext = FrozenExtent::build(
            3,
            TableId(1),
            PartitionId(2),
            Vec::new(),
            vec![
                ("a".into(), ColumnData::U64(Vec::new())),
                ("b".into(), ColumnData::Bytes(Vec::new())),
            ],
            0,
        )
        .unwrap();
        let bytes = ext.encode();
        let back = FrozenExtent::decode(&bytes).unwrap();
        assert_eq!(back.row_count(), 0);
        assert_eq!(back.live_count(), 0);
        assert_eq!(back.columns().len(), 2);
        assert!(back.column("a").unwrap().min_max().is_none());
    }
}
