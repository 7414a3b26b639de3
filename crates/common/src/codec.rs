//! Minimal binary encoding layer.
//!
//! Row images, index keys, and WAL records are all encoded with this
//! little-endian, length-prefixed format. It is deliberately hand-rolled:
//! a database engine wants exact control over its on-disk byte layout,
//! and the decoder must be robust against truncated input (recovery reads
//! a log tail that may end mid-record).

use bytes::{Buf, BufMut, Bytes};

use crate::error::{BtrimError, Result};

/// Encoding helper over a growable buffer: its own (`Encoder::new`),
/// or the end of a caller's ([`Encoder::append_to`]).
#[derive(Debug, Default)]
pub struct Encoder<B = Vec<u8>> {
    buf: B,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// New encoder with a capacity hint.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finish into a plain vector (the buffer itself, not a copy).
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

impl<'a> Encoder<&'a mut Vec<u8>> {
    /// Encode onto the end of `out`, after whatever it already holds.
    pub fn append_to(out: &'a mut Vec<u8>) -> Self {
        Encoder { buf: out }
    }
}

impl<B: AsRef<Vec<u8>> + AsMut<Vec<u8>>> Encoder<B> {
    fn out(&mut self) -> &mut Vec<u8> {
        self.buf.as_mut()
    }

    /// Append a fixed-width u8.
    pub fn put_u8(&mut self, v: u8) {
        self.out().put_u8(v);
    }

    /// Append a fixed-width u16 (LE).
    pub fn put_u16(&mut self, v: u16) {
        self.out().put_u16_le(v);
    }

    /// Append a fixed-width u32 (LE).
    pub fn put_u32(&mut self, v: u32) {
        self.out().put_u32_le(v);
    }

    /// Append a fixed-width u64 (LE).
    pub fn put_u64(&mut self, v: u64) {
        self.out().put_u64_le(v);
    }

    /// Append an f64 as its LE bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.out().put_u64_le(v.to_bits());
    }

    /// Append a length-prefixed (u32) byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.out().put_u32_le(v.len() as u32);
        self.out().put_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Number of bytes in the buffer (for [`Encoder::append_to`], its
    /// earlier contents included).
    pub fn len(&self) -> usize {
        self.buf.as_ref().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.as_ref().is_empty()
    }
}

/// Decoding cursor over a byte slice. Every read is bounds-checked and
/// returns [`BtrimError::Corrupt`] on underflow.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf }
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.buf.remaining() < n {
            Err(BtrimError::Corrupt(format!(
                "decode underflow: need {n} bytes, have {}",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    /// Read a u8.
    pub fn get_u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Read a u16 (LE).
    pub fn get_u16(&mut self) -> Result<u16> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Read a u32 (LE).
    pub fn get_u32(&mut self) -> Result<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a u64 (LE).
    pub fn get_u64(&mut self) -> Result<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read an f64 from its LE bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let out = self.buf[..len].to_vec();
        self.buf.advance(len);
        Ok(out)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw).map_err(|e| BtrimError::Corrupt(format!("invalid utf8: {e}")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Whether the input is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(300);
        e.put_u32(70_000);
        e.put_u64(u64::MAX - 1);
        e.put_f64(3.25);
        e.put_bytes(b"abc");
        e.put_str("héllo");
        let data = e.finish();

        let mut d = Decoder::new(&data);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u16().unwrap(), 300);
        assert_eq!(d.get_u32().unwrap(), 70_000);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_f64().unwrap(), 3.25);
        assert_eq!(d.get_bytes().unwrap(), b"abc");
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert!(d.is_exhausted());
    }

    #[test]
    fn underflow_is_an_error_not_a_panic() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(d.get_u32(), Err(BtrimError::Corrupt(_))));
    }

    #[test]
    fn truncated_length_prefixed_bytes_error() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello world");
        let data = e.into_vec();
        // Chop mid-payload.
        let mut d = Decoder::new(&data[..6]);
        assert!(d.get_bytes().is_err());
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let data = e.finish();
        let mut d = Decoder::new(&data);
        assert!(matches!(d.get_str(), Err(BtrimError::Corrupt(_))));
    }

    #[test]
    fn into_vec_moves_and_append_to_continues() {
        let mut e = Encoder::with_capacity(64);
        e.put_u32(7);
        let len = e.len();
        let mut out = e.into_vec();
        assert_eq!((out.len(), out.capacity()), (len, 64), "moved, not copied");
        let mut more = Encoder::append_to(&mut out);
        more.put_bytes(b"xy");
        assert_eq!(more.len(), 4 + 4 + 2);
        let mut d = Decoder::new(&out);
        assert_eq!(d.get_u32().unwrap(), 7);
        assert_eq!(d.get_bytes().unwrap(), b"xy");
    }

    #[test]
    fn empty_encoder_reports_empty() {
        let e = Encoder::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The decoder is total: any byte soup yields values or a clean
        /// `Corrupt` error, never a panic or out-of-bounds access.
        #[test]
        fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut d = Decoder::new(&bytes);
            // Exercise every accessor until the input runs out.
            loop {
                let before = d.remaining();
                let _ = d.get_u8();
                let _ = d.get_u16();
                let _ = d.get_u32();
                let _ = d.get_u64();
                let _ = d.get_bytes();
                let _ = d.get_str();
                if d.remaining() == before || d.is_exhausted() {
                    break;
                }
            }
        }

        /// Encode-then-decode is the identity for arbitrary sequences of
        /// primitive values.
        #[test]
        fn mixed_roundtrip(
            a in any::<u64>(), f in any::<f64>(),
            s in "[^\u{0}]{0,64}",
            v in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let mut e = Encoder::new();
            e.put_u64(a);
            e.put_f64(f);
            e.put_str(&s);
            e.put_bytes(&v);
            let data = e.finish();
            let mut d = Decoder::new(&data);
            prop_assert_eq!(d.get_u64().unwrap(), a);
            let f2 = d.get_f64().unwrap();
            prop_assert!(f2 == f || (f.is_nan() && f2.is_nan()));
            prop_assert_eq!(d.get_str().unwrap(), s);
            prop_assert_eq!(d.get_bytes().unwrap(), v);
            prop_assert!(d.is_exhausted());
        }
    }
}
