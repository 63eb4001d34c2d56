//! The encode/decode traits and the byte-level reader/writer plumbing.
//!
//! Encodings are **canonical**: one value has exactly one byte string, every
//! integer is big-endian, every variable-length sequence carries a `u32`
//! length prefix, and decoders reject non-canonical inputs (trailing bytes,
//! unsorted sets, over-long lengths) instead of normalising them. This makes
//! `encode → decode` lossless, digests/signatures over encodings unambiguous,
//! and a message's size on the wire one number: `encode().len()`, which
//! `encoded_len()` reports without allocating.

use crate::error::WireError;

/// Hard cap on the element count of any length-prefixed sequence. Protocol
/// sequences are bounded by the system size `n` (witness sets, vote
/// certificates, dealer lists); this cap is far above any simulated system
/// while keeping a hostile length prefix from driving allocations.
pub const MAX_SEQUENCE_LEN: usize = 1 << 16;

/// Hard cap on the dimension of a commitment matrix / vector (`t + 1`).
pub const MAX_COMMITMENT_DIM: usize = 1 << 10;

/// A byte sink for encoders. Implemented by `Vec<u8>` (real encoding) and
/// [`LenCounter`] (exact-length computation without allocating).
pub trait WireWrite {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Appends a single byte.
    fn put_u8(&mut self, byte: u8) {
        self.put(&[byte]);
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, value: u32) {
        self.put(&value.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, value: u64) {
        self.put(&value.to_be_bytes());
    }

    /// Appends a sequence length as a `u32` prefix. Panics (in debug builds)
    /// if the length exceeds [`MAX_SEQUENCE_LEN`]; honest encoders never
    /// produce such sequences.
    fn put_len(&mut self, len: usize) {
        debug_assert!(len <= MAX_SEQUENCE_LEN, "sequence too long to encode");
        self.put_u32(len as u32);
    }
}

impl WireWrite for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`WireWrite`] that only counts bytes — the engine behind
/// [`WireEncode::encoded_len`], so exact wire sizes cost no allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct LenCounter(pub usize);

impl WireWrite for LenCounter {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_u8(&mut self, _byte: u8) {
        self.0 += 1;
    }

    fn put_u32(&mut self, _value: u32) {
        self.0 += 4;
    }

    fn put_u64(&mut self, _value: u64) {
        self.0 += 8;
    }
}

/// A cursor over untrusted input bytes. All reads are bounds-checked and
/// return [`WireError`] — never panic — on truncated input.
///
/// Internally the reader holds only the unread suffix and shrinks it with
/// the checked slicing helpers (`split_at_checked`, `split_first_chunk`),
/// so there is no offset arithmetic anywhere on the hostile-input path —
/// a representation dkg-lint's R1 rule can verify mechanically.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether the input is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// Consumes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        match self.rest.split_at_checked(n) {
            Some((head, tail)) => {
                self.rest = tail;
                Ok(head)
            }
            None => Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.rest.len(),
            }),
        }
    }

    /// Consumes a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        match self.rest.split_first_chunk::<N>() {
            Some((head, tail)) => {
                self.rest = tail;
                Ok(*head)
            }
            None => Err(WireError::UnexpectedEof {
                needed: N,
                remaining: self.rest.len(),
            }),
        }
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        match self.rest.split_first() {
            Some((&byte, tail)) => {
                self.rest = tail;
                Ok(byte)
            }
            None => Err(WireError::UnexpectedEof {
                needed: 1,
                remaining: 0,
            }),
        }
    }

    /// Consumes a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Consumes a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Consumes a `u32` sequence-length prefix, rejecting lengths above
    /// `max` and lengths that declare more elements than the remaining input
    /// could hold (each element occupying at least `min_elem_size` bytes) —
    /// the standard defence against allocation-amplification frames.
    pub fn len(
        &mut self,
        context: &'static str,
        max: usize,
        min_elem_size: usize,
    ) -> Result<usize, WireError> {
        let declared = self.u32()? as usize;
        if declared > max {
            return Err(WireError::LengthOverflow {
                context,
                declared: declared as u64,
                max: max as u64,
            });
        }
        let floor = declared.saturating_mul(min_elem_size.max(1));
        if floor > self.remaining() {
            return Err(WireError::LengthOverflow {
                context,
                declared: declared as u64,
                max: (self.remaining() / min_elem_size.max(1)) as u64,
            });
        }
        Ok(declared)
    }

    /// Asserts the input is fully consumed (canonical encodings are exact).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// A value with a canonical wire encoding.
pub trait WireEncode {
    /// Appends this value's canonical encoding to `w`.
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W);

    /// The canonical encoding as a fresh byte vector.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_to(&mut out);
        out
    }

    /// The exact length of [`WireEncode::encode`] — computed by running the
    /// encoder against a counting sink, so it can never drift from the real
    /// encoding.
    fn encoded_len(&self) -> usize {
        let mut counter = LenCounter(0);
        self.encode_to(&mut counter);
        counter.0
    }
}

/// A value decodable from its canonical wire encoding.
pub trait WireDecode: Sized {
    /// A lower bound on the encoded size of any value of this type, in
    /// bytes. Sequence decoders multiply a declared element count by this
    /// bound before allocating, so a hostile length prefix cannot reserve
    /// more memory than the input it arrived in could possibly fill.
    /// Conservative (too-small) values are safe; too-large values would
    /// reject valid input.
    const MIN_WIRE_LEN: usize = 1;

    /// Decodes one value from the reader, leaving the cursor after it.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decodes a value that must occupy the entire input.
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        decode_exact(bytes, Self::decode_from)
    }
}

/// Runs `decode` over `bytes` and requires it to consume all of them —
/// [`WireDecode::decode`] for decoders that take context the trait cannot
/// carry.
pub fn decode_exact<T>(
    bytes: &[u8],
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.remaining(), 2);
        assert_eq!(
            r.u64(),
            Err(WireError::UnexpectedEof {
                needed: 8,
                remaining: 2
            })
        );
        assert_eq!(r.take(2).unwrap(), &[2, 3]);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = Reader::new(&[0]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn length_prefixes_are_capped() {
        // Declared length over the cap.
        let mut bytes = Vec::new();
        bytes.put_u32(u32::MAX);
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.len("test", 16, 1),
            Err(WireError::LengthOverflow { declared, .. }) if declared == u64::from(u32::MAX)
        ));
        // Declared length larger than the input could hold.
        let mut bytes = Vec::new();
        bytes.put_u32(10);
        bytes.put(&[0u8; 5]);
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.len("test", 100, 2),
            Err(WireError::LengthOverflow { .. })
        ));
        // A fitting length passes.
        let mut bytes = Vec::new();
        bytes.put_u32(2);
        bytes.put(&[0u8; 4]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.len("test", 100, 2).unwrap(), 2);
    }

    #[test]
    fn len_counter_matches_real_encoding() {
        let mut real = Vec::new();
        real.put_u8(7);
        real.put_u32(9);
        real.put_u64(11);
        real.put(&[1, 2, 3]);
        let mut counter = LenCounter(0);
        counter.put_u8(7);
        counter.put_u32(9);
        counter.put_u64(11);
        counter.put(&[1, 2, 3]);
        assert_eq!(real.len(), counter.0);
    }
}
