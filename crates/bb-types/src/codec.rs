//! Deterministic binary encoding.
//!
//! Blocks and transactions are hashed over their encodings, so the encoding
//! must be canonical: fixed-width big-endian integers and length-prefixed
//! byte strings, no padding, no optionality. This plays the role LevelDB's
//! RLP plays in Ethereum — but simpler, since we control both ends.

use std::fmt;

/// Appends canonical encodings to a growable buffer.
#[derive(Default, Debug)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: Vec::with_capacity(cap) }
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian i64 (two's complement).
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Append raw bytes with no length prefix (fixed-width fields only).
    pub fn put_raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Finish and take the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Nothing written yet?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Error produced when decoding malformed or truncated bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the field was complete.
    Truncated,
    /// A length prefix exceeded the remaining input.
    BadLength,
    /// A byte string was not valid UTF-8 where a string was required.
    BadUtf8,
    /// An enum discriminant or flag byte had an unexpected value.
    BadTag(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadLength => write!(f, "length prefix exceeds input"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::BadTag(t) => write!(f, "unexpected tag byte {t:#04x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reads canonical encodings back out of a byte slice.
pub struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Decode from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a big-endian i64.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        if self.rest.len() < len {
            return Err(DecodeError::BadLength);
        }
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Read `n` raw bytes (fixed-width field).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Assert the input is fully consumed.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::BadLength)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(7).put_u32(1234).put_u64(u64::MAX).put_i64(-5);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 1234);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -5);
        d.expect_end().unwrap();
    }

    #[test]
    fn round_trip_strings_and_bytes() {
        let mut e = Encoder::new();
        e.put_bytes(b"\x00\x01\x02").put_str("smallbank").put_bytes(b"");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.bytes().unwrap(), b"\x00\x01\x02");
        assert_eq!(d.str().unwrap(), "smallbank");
        assert_eq!(d.bytes().unwrap(), b"");
        d.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Encoder::new();
        e.put_u64(9);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..4]);
        assert_eq!(d.u64().unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn bad_length_prefix_errors() {
        let mut e = Encoder::new();
        e.put_u32(1000); // claims 1000 bytes follow
        e.put_raw(b"short");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.bytes().unwrap_err(), DecodeError::BadLength);
    }

    #[test]
    fn bad_utf8_errors() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.str().unwrap_err(), DecodeError::BadUtf8);
    }

    #[test]
    fn expect_end_rejects_trailing_garbage() {
        let mut e = Encoder::new();
        e.put_u8(1).put_u8(2);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.u8().unwrap();
        assert!(d.expect_end().is_err());
        assert_eq!(d.remaining(), 1);
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = |x: u64, s: &str| {
            let mut e = Encoder::new();
            e.put_u64(x).put_str(s);
            e.finish()
        };
        assert_eq!(enc(1, "a"), enc(1, "a"));
        assert_ne!(enc(1, "a"), enc(2, "a"));
    }

    #[test]
    fn errors_display() {
        assert_eq!(DecodeError::Truncated.to_string(), "input truncated");
        assert!(DecodeError::BadTag(3).to_string().contains("0x03"));
    }
}

/// Seeded round trips: any sequence of `u64`s, and any sequence of byte
/// chunks, decodes back to itself and leaves the decoder at the end.
#[cfg(test)]
mod seeded_props {
    use super::*;
    use bb_sim::SimRng;

    #[test]
    fn scalar_sequences_round_trip_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0003);
        for i in 0..100 {
            let vals: Vec<u64> = (0..rng.below(64)).map(|_| rng.next_u64()).collect();
            let mut e = Encoder::new();
            for &v in &vals {
                e.put_u64(v);
            }
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            for &v in &vals {
                assert_eq!(d.u64().unwrap(), v, "case {i}");
            }
            assert!(d.expect_end().is_ok(), "case {i}");
        }
    }

    #[test]
    fn byte_chunks_round_trip_seeded() {
        let mut rng = SimRng::seed_from_u64(0x5EED_0004);
        for i in 0..100 {
            let chunks: Vec<Vec<u8>> = (0..rng.below(16))
                .map(|_| {
                    let mut c = vec![0u8; rng.below(128) as usize];
                    rng.fill_bytes(&mut c);
                    c
                })
                .collect();
            let mut e = Encoder::new();
            for c in &chunks {
                e.put_bytes(c);
            }
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            for c in &chunks {
                assert_eq!(d.bytes().unwrap(), &c[..], "case {i}");
            }
            assert!(d.expect_end().is_ok(), "case {i}");
        }
    }
}
