//! CRC-32 (IEEE 802.3, reflected): the checksum of every on-disk
//! format — page headers, frozen-extent trailers, WAL frames.
//!
//! One-shot: [`crc32`]. Streaming, for input that is not one slice (a
//! page is summed with its checksum field read as zero): start from
//! [`INIT`], fold each piece in with [`update`], close with [`finish`].

/// Slice-by-8 lookup tables, computed at compile time. Table 0 is the
/// classic byte-at-a-time table; table k folds a byte that sits k
/// positions ahead of the current CRC window, letting the hot loop
/// consume 8 bytes per iteration with 8 independent table reads and no
/// data dependency between them.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The state a streaming checksum starts from.
pub const INIT: u32 = 0xFFFF_FFFF;

/// Fold `data` into a running checksum state. Splitting the input
/// anywhere gives the same state as feeding it whole.
pub fn update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        // `chunks_exact(8)` guarantees 8 bytes; the `else` is dead code
        // kept so this stays panic-free by construction.
        let (Some(lo4), Some(hi4)) = (c.first_chunk::<4>(), c.last_chunk::<4>()) else {
            continue;
        };
        let lo = u32::from_le_bytes(*lo4) ^ crc;
        let hi = u32::from_le_bytes(*hi4);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The checksum a running state stands for.
pub fn finish(crc: u32) -> u32 {
    !crc
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    finish(update(INIT, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table-free bitwise form, kept as the reference the
    /// slice-by-8 version is cross-checked against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn matches_ieee_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn matches_bitwise_on_awkward_lengths() {
        // Exercise every remainder length around the 8-byte chunking.
        for n in 0..=33usize {
            let data: Vec<u8> = (0..n as u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
            assert_eq!(crc32(&data), crc32_bitwise(&data), "len {n}");
        }
    }

    proptest! {
        #[test]
        fn any_split_into_updates_matches_one_shot_and_bitwise(
            data in proptest::collection::vec(any::<u8>(), 0..512),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let (mut state, mut from) = (INIT, 0);
            for cut in cuts {
                state = update(state, &data[from..cut]);
                from = cut;
            }
            let streamed = finish(update(state, &data[from..]));
            prop_assert_eq!(streamed, crc32(&data));
            prop_assert_eq!(streamed, crc32_bitwise(&data));
        }
    }
}
