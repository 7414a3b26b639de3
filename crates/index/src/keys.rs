//! Order-preserving binary key encoding.
//!
//! Composite keys (e.g. TPC-C `(w_id, d_id, o_id)`) are encoded
//! big-endian so that lexicographic comparison of the encoded bytes
//! matches the tuple ordering. Strings are padded/terminated with a
//! 0x00 byte so that a prefix orders before any extension.

/// Builder for composite, order-preserving keys.
#[derive(Debug, Default, Clone)]
pub struct KeyBuilder {
    buf: Vec<u8>,
}

impl KeyBuilder {
    /// Start an empty key.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a u32 component (big-endian).
    pub fn push_u32(mut self, v: u32) -> Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a string component, 0x00-terminated. Embedded NULs are
    /// rejected by debug assertion (they would break ordering).
    pub fn push_str(mut self, v: &str) -> Self {
        debug_assert!(!v.as_bytes().contains(&0), "NUL in key component");
        self.buf.extend_from_slice(v.as_bytes());
        self.buf.push(0);
        self
    }

    /// Finish the key.
    pub fn build(self) -> Vec<u8> {
        self.buf
    }
}

/// Smallest key strictly greater than every key having `prefix` as a
/// prefix (for exclusive-upper-bound range scans). Returns `None` when
/// the prefix is all-0xFF (no such key exists).
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_components_order_correctly() {
        let k = |a: u32, b: u32| KeyBuilder::new().push_u32(a).push_u32(b).build();
        assert!(k(1, 2) < k(1, 3));
        assert!(k(1, 900) < k(2, 0));
        assert!(k(0, u32::MAX) < k(1, 0));
    }

    #[test]
    fn string_prefix_orders_before_extension() {
        let k = |s: &str| KeyBuilder::new().push_u32(1).push_str(s).build();
        assert!(k("BAR") < k("BARBAR"));
        assert!(k("ABLE") < k("BAKER"));
    }

    #[test]
    fn prefix_successor_covers_prefix_range() {
        let p = KeyBuilder::new().push_u32(5).build();
        let succ = prefix_successor(&p).unwrap();
        let inside = KeyBuilder::new().push_u32(5).push_u32(u32::MAX).build();
        let outside = KeyBuilder::new().push_u32(6).build();
        assert!(inside < succ);
        assert!(outside >= succ);
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
    }
}
