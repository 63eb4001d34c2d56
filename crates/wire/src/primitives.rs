//! Codec implementations for the primitive protocol fields: integers,
//! digests, scalars, group elements, signatures, polynomials and Feldman
//! commitments.

use crate::codec::{Reader, WireDecode, WireEncode, WireWrite, MAX_COMMITMENT_DIM};
use crate::error::WireError;
use dkg_arith::{GroupElement, PrimeField, Scalar};
use dkg_crypto::{Digest, Signature};
use dkg_poly::{CommitmentMatrix, CommitmentVector, Univariate};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

impl WireEncode for u8 {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u8(*self);
    }
}

impl WireDecode for u8 {
    const MIN_WIRE_LEN: usize = 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

/// Booleans are a strict `0`/`1` byte; anything else is rejected so every
/// value has exactly one encoding.
impl WireEncode for bool {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u8(u8::from(*self));
    }
}

impl WireDecode for bool {
    const MIN_WIRE_LEN: usize = 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag {
                context: "bool",
                tag,
            }),
        }
    }
}

impl WireEncode for u32 {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u32(*self);
    }
}

impl WireDecode for u32 {
    const MIN_WIRE_LEN: usize = 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl WireEncode for u64 {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_u64(*self);
    }
}

impl WireDecode for u64 {
    const MIN_WIRE_LEN: usize = 8;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

/// Digests (and any other fixed 32-byte field) travel raw.
impl WireEncode for [u8; 32] {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put(self);
    }
}

impl WireDecode for [u8; 32] {
    const MIN_WIRE_LEN: usize = 32;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.array()
    }
}

/// Scalars are 32 big-endian bytes; non-canonical values (≥ the group order)
/// are rejected on decode.
impl WireEncode for Scalar {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put(&self.to_be_bytes());
    }
}

impl WireDecode for Scalar {
    const MIN_WIRE_LEN: usize = 32;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Scalar::from_be_bytes(&r.array()?).ok_or(WireError::InvalidScalar)
    }
}

/// Group elements use the 33-byte compressed SEC1 encoding (identity is
/// `0x00` + 32 zero bytes); anything off-curve is rejected on decode.
impl WireEncode for GroupElement {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put(&self.to_bytes());
    }
}

impl WireDecode for GroupElement {
    const MIN_WIRE_LEN: usize = 33;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        GroupElement::from_bytes(&r.array()?).ok_or(WireError::InvalidPoint)
    }
}

/// Schnorr signatures are 65 bytes: compressed nonce commitment + response
/// scalar.
impl WireEncode for Signature {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put(&self.to_bytes());
    }
}

impl WireDecode for Signature {
    const MIN_WIRE_LEN: usize = 65;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Signature::from_bytes(&r.array()?).ok_or(WireError::InvalidSignature)
    }
}

/// `Option<T>` is a presence byte (`0`/`1`) followed by the value.
impl<T: WireEncode> WireEncode for Option<T> {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        match self {
            None => w.put_u8(0),
            Some(value) => {
                w.put_u8(1);
                value.encode_to(w);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    const MIN_WIRE_LEN: usize = 1;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            tag => Err(WireError::UnknownTag {
                context: "option",
                tag,
            }),
        }
    }
}

/// Sequences carry a `u32` length prefix capped at
/// [`crate::MAX_SEQUENCE_LEN`].
impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_len(self.len());
        for item in self {
            item.encode_to(w);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    const MIN_WIRE_LEN: usize = 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_sequence(r, T::MIN_WIRE_LEN, T::decode_from)
    }
}

/// Decodes a `u32`-prefixed sequence whose elements `element` decodes —
/// `Vec<T>::decode_from` for element decoders that need context the
/// [`WireDecode`] trait cannot carry. `min_elem_size` bounds the allocation
/// as [`WireDecode::MIN_WIRE_LEN`] does.
pub fn decode_sequence<T>(
    r: &mut Reader<'_>,
    min_elem_size: usize,
    mut element: impl FnMut(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let len = r.len("sequence", crate::MAX_SEQUENCE_LEN, min_elem_size)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(element(r)?);
    }
    Ok(out)
}

/// Tuples encode their elements back to back.
impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.0.encode_to(w);
        self.1.encode_to(w);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    const MIN_WIRE_LEN: usize = A::MIN_WIRE_LEN + B::MIN_WIRE_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

impl<A: WireEncode, B: WireEncode, C: WireEncode> WireEncode for (A, B, C) {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        self.0.encode_to(w);
        self.1.encode_to(w);
        self.2.encode_to(w);
    }
}

impl<A: WireDecode, B: WireDecode, C: WireDecode> WireDecode for (A, B, C) {
    const MIN_WIRE_LEN: usize = A::MIN_WIRE_LEN + B::MIN_WIRE_LEN + C::MIN_WIRE_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?, C::decode_from(r)?))
    }
}

/// An ordered map is a `u32` entry count followed by its `(key, value)`
/// entries in ascending key order — the bytes of the key-sorted
/// `Vec<(K, V)>`. Decoding refuses keys that are not strictly ascending,
/// so a map has exactly one encoding.
impl<K: WireEncode, V: WireEncode> WireEncode for BTreeMap<K, V> {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_len(self.len());
        for (key, value) in self {
            key.encode_to(w);
            value.encode_to(w);
        }
    }
}

impl<K: WireDecode + Ord, V: WireDecode> WireDecode for BTreeMap<K, V> {
    const MIN_WIRE_LEN: usize = 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        decode_map(r, V::MIN_WIRE_LEN, |_, r| V::decode_from(r))
    }
}

/// Decodes an ordered map whose values `value` decodes, given their key —
/// `BTreeMap<K, V>::decode_from` for value decoders that need context the
/// [`WireDecode`] trait cannot carry. `min_value_size` bounds the
/// allocation as [`WireDecode::MIN_WIRE_LEN`] does.
pub fn decode_map<K: WireDecode + Ord, V>(
    r: &mut Reader<'_>,
    min_value_size: usize,
    mut value: impl FnMut(&K, &mut Reader<'_>) -> Result<V, WireError>,
) -> Result<BTreeMap<K, V>, WireError> {
    let min_entry_size = K::MIN_WIRE_LEN.saturating_add(min_value_size);
    let len = r.len("map", crate::MAX_SEQUENCE_LEN, min_entry_size)?;
    let mut out = BTreeMap::new();
    for _ in 0..len {
        let key = K::decode_from(r)?;
        if out.last_key_value().is_some_and(|(last, _)| *last >= key) {
            return Err(WireError::InvalidValue {
                context: "map keys not strictly ascending",
            });
        }
        let entry = value(&key, r)?;
        out.insert(key, entry);
    }
    Ok(out)
}

/// An ordered set is a `u32` element count followed by its elements in
/// ascending order — the bytes of the sorted `Vec<T>`. Decoding refuses
/// elements that are not strictly ascending, so a set has exactly one
/// encoding.
impl<T: WireEncode> WireEncode for BTreeSet<T> {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_len(self.len());
        for item in self {
            item.encode_to(w);
        }
    }
}

impl<T: WireDecode + Ord> WireDecode for BTreeSet<T> {
    const MIN_WIRE_LEN: usize = 4;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.len("set", crate::MAX_SEQUENCE_LEN, T::MIN_WIRE_LEN)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            let item = T::decode_from(r)?;
            if out.last().is_some_and(|last| *last >= item) {
                return Err(WireError::InvalidValue {
                    context: "set elements not strictly ascending",
                });
            }
            out.insert(item);
        }
        Ok(out)
    }
}

/// A shared value encodes as the value itself.
impl<T: WireEncode> WireEncode for Arc<T> {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        (**self).encode_to(w);
    }
}

impl<T: WireDecode> WireDecode for Arc<T> {
    const MIN_WIRE_LEN: usize = T::MIN_WIRE_LEN;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode_from(r).map(Arc::new)
    }
}

/// A univariate polynomial is its `u32` coefficient count followed by the
/// coefficients in ascending degree order. The declared degree (the security
/// threshold `t`) is preserved exactly: trailing zero coefficients travel.
impl WireEncode for Univariate {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_len(self.coefficients().len());
        for coeff in self.coefficients() {
            coeff.encode_to(w);
        }
    }
}

impl WireDecode for Univariate {
    const MIN_WIRE_LEN: usize = 4 + 32;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.len("polynomial", MAX_COMMITMENT_DIM, 32)?;
        if len == 0 {
            return Err(WireError::InvalidValue {
                context: "polynomial with zero coefficients",
            });
        }
        let mut coeffs = Vec::with_capacity(len);
        for _ in 0..len {
            coeffs.push(Scalar::decode_from(r)?);
        }
        Ok(Univariate::from_coefficients(coeffs))
    }
}

/// A commitment matrix is its `u32` dimension (`t + 1`) followed by the
/// `(t+1)²` compressed points in row-major order.
impl WireEncode for CommitmentMatrix {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        let dim = self.threshold() + 1;
        w.put_len(dim);
        for row in self.entries() {
            for entry in row {
                entry.encode_to(w);
            }
        }
    }
}

impl WireDecode for CommitmentMatrix {
    const MIN_WIRE_LEN: usize = 4 + 33;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (dim, points) = matrix_span(r)?;
        decode_matrix_points(dim, points)
    }
}

/// Consumes one encoded commitment matrix without decompressing anything:
/// returns its dimension and the `dim² × 33` bytes of its points, after
/// every length check of the matrix decoder.
fn matrix_span<'a>(r: &mut Reader<'a>) -> Result<(usize, &'a [u8]), WireError> {
    let dim = r.len("commitment matrix", MAX_COMMITMENT_DIM, 33)?;
    if dim == 0 {
        return Err(WireError::InvalidValue {
            context: "empty commitment matrix",
        });
    }
    // The length guard above only proves `dim` rows fit; a square matrix
    // needs dim² entries.
    let span = dim.saturating_mul(dim).saturating_mul(33);
    if span > r.remaining() {
        return Err(WireError::LengthOverflow {
            context: "commitment matrix",
            declared: (dim * dim) as u64,
            max: (r.remaining() / 33) as u64,
        });
    }
    Ok((dim, r.take(span)?))
}

/// Decompresses the `dim²` points of a span returned by [`matrix_span`].
fn decode_matrix_points(dim: usize, points: &[u8]) -> Result<CommitmentMatrix, WireError> {
    let mut r = Reader::new(points);
    let mut entries = Vec::with_capacity(dim);
    for _ in 0..dim {
        let mut row = Vec::with_capacity(dim);
        for _ in 0..dim {
            row.push(GroupElement::decode_from(&mut r)?);
        }
        entries.push(row);
    }
    CommitmentMatrix::from_entries(entries).ok_or(WireError::InvalidValue {
        context: "commitment matrix",
    })
}

/// Decodes a commitment matrix, resolving it by digest against matrices the
/// caller already holds.
///
/// The matrix's point bytes are hashed (SHA-256 — the digest that
/// identifies a commitment everywhere in the protocol, i.e. the hash of
/// `CommitmentMatrix::to_bytes`) and `known` is asked for that digest. On a
/// hit the span is skipped and the held matrix handed out; on a miss every
/// point is decompressed and validated, with exactly the errors of
/// [`CommitmentMatrix::decode_from`]. Either way the digest is returned, so
/// callers need not re-encode the matrix to name it.
///
/// `known` must only return a matrix that itself passed a full decode and
/// whose point bytes hash to the digest it is asked for. A hit is then as
/// good as a decode: by collision resistance the received bytes *are* the
/// canonical encoding of the held matrix.
pub fn decode_matrix_resolved(
    r: &mut Reader<'_>,
    known: impl FnOnce(&Digest) -> Option<Arc<CommitmentMatrix>>,
) -> Result<(Arc<CommitmentMatrix>, Digest), WireError> {
    let (dim, points) = matrix_span(r)?;
    let digest = dkg_crypto::sha256(points);
    let matrix = match known(&digest) {
        Some(matrix) => matrix,
        None => Arc::new(decode_matrix_points(dim, points)?),
    };
    Ok((matrix, digest))
}

/// A commitment vector is its `u32` length (`t + 1`) followed by the
/// compressed points.
impl WireEncode for CommitmentVector {
    fn encode_to<W: WireWrite + ?Sized>(&self, w: &mut W) {
        w.put_len(self.entries().len());
        for entry in self.entries() {
            entry.encode_to(w);
        }
    }
}

impl WireDecode for CommitmentVector {
    const MIN_WIRE_LEN: usize = 4 + 33;

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.len("commitment vector", MAX_COMMITMENT_DIM, 33)?;
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            entries.push(GroupElement::decode_from(r)?);
        }
        CommitmentVector::from_entries(entries).ok_or(WireError::InvalidValue {
            context: "empty commitment vector",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkg_poly::SymmetricBivariate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = value.encode();
        assert_eq!(
            bytes.len(),
            value.encoded_len(),
            "encoded_len must be exact"
        );
        let back = T::decode(&bytes).expect("round-trip decodes");
        assert_eq!(&back, value);
    }

    #[test]
    fn primitive_roundtrips() {
        let mut rng = StdRng::seed_from_u64(1);
        roundtrip(&0u8);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&[7u8; 32]);
        roundtrip(&Scalar::random(&mut rng));
        roundtrip(&GroupElement::random(&mut rng));
        roundtrip(&GroupElement::identity());
        roundtrip(&Some(Scalar::one()));
        roundtrip(&Option::<Scalar>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<u64>::new());
    }

    #[test]
    fn map_set_and_shared_roundtrips() {
        let mut rng = StdRng::seed_from_u64(5);
        roundtrip(&BTreeMap::from([
            (3u64, Scalar::random(&mut rng)),
            (9, Scalar::one()),
        ]));
        roundtrip(&BTreeMap::<u64, Vec<u8>>::new());
        roundtrip(&BTreeMap::from([
            ((1u64, 2u32), vec![7u8]),
            ((1, 3), Vec::new()),
        ]));
        roundtrip(&BTreeSet::from([(0u8, 4u64, 2u8), (1, 2, 0)]));
        roundtrip(&BTreeSet::<u64>::new());
        roundtrip(&Arc::new(GroupElement::random(&mut rng)));
    }

    #[test]
    fn maps_and_sets_encode_as_their_sorted_lists() {
        let map = BTreeMap::from([(9u64, 90u32), (2, 20), (5, 50)]);
        assert_eq!(map.encode(), vec![(2u64, 20u32), (5, 50), (9, 90)].encode());
        let set = BTreeSet::from([(3u64, vec![1u8]), (1, vec![2, 3]), (1, vec![])]);
        let sorted = vec![(1u64, vec![]), (1, vec![2u8, 3]), (3, vec![1])];
        assert_eq!(set.encode(), sorted.encode());
        let nested = BTreeMap::from([(2u64, BTreeSet::from([7u64, 1])), (1, BTreeSet::new())]);
        let lists: Vec<(u64, Vec<u64>)> = vec![(1, vec![]), (2, vec![1, 7])];
        assert_eq!(nested.encode(), lists.encode());
    }

    #[test]
    fn maps_and_sets_refuse_keys_out_of_order() {
        let map_error = Some(WireError::InvalidValue {
            context: "map keys not strictly ascending",
        });
        let set_error = Some(WireError::InvalidValue {
            context: "set elements not strictly ascending",
        });
        for keys in [[5u64, 2], [4, 4]] {
            let entries: Vec<(u64, u8)> = keys.iter().map(|&k| (k, 1)).collect();
            let map = BTreeMap::<u64, u8>::decode(&entries.encode());
            assert_eq!(map.err(), map_error);
            let set = BTreeSet::<u64>::decode(&keys.to_vec().encode());
            assert_eq!(set.err(), set_error);
        }
        // Out of order deep inside a nested value, too.
        let nested: Vec<(u64, Vec<u64>)> = vec![(1, vec![3, 3])];
        let map = BTreeMap::<u64, BTreeSet<u64>>::decode(&nested.encode());
        assert_eq!(map.err(), set_error);
        // A hostile count is refused before anything is allocated.
        let mut bytes = Vec::new();
        bytes.put_u32(1000);
        bytes.put_u64(1);
        assert!(matches!(
            BTreeMap::<u64, u64>::decode(&bytes),
            Err(WireError::LengthOverflow { context: "map", .. })
        ));
        assert!(matches!(
            BTreeSet::<u64>::decode(&bytes),
            Err(WireError::LengthOverflow { context: "set", .. })
        ));
    }

    #[test]
    fn signature_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let key = dkg_crypto::SigningKey::generate(&mut rng);
        roundtrip(&key.sign(&mut rng, b"wire"));
    }

    #[test]
    fn polynomial_and_commitment_roundtrips() {
        let mut rng = StdRng::seed_from_u64(3);
        let poly = Univariate::random(&mut rng, 4);
        roundtrip(&poly);
        // Declared degree survives (trailing zeros travel).
        roundtrip(&Univariate::zero(3));
        let f = SymmetricBivariate::random_with_secret(&mut rng, 3, Scalar::from_u64(9));
        let matrix = CommitmentMatrix::commit(&f);
        roundtrip(&matrix);
        let vector: CommitmentVector = matrix.share_polynomial_commitment();
        roundtrip(&vector);
    }

    #[test]
    fn signature_decode_rejects_garbage() {
        // 65 bytes of 0xFF: neither a valid nonce point nor a canonical
        // response scalar.
        assert_eq!(
            Signature::decode(&[0xffu8; 65]),
            Err(WireError::InvalidSignature)
        );
    }

    #[test]
    fn scalar_decode_rejects_noncanonical() {
        // The group order itself is not a canonical scalar.
        let bytes = [0xffu8; 32];
        assert_eq!(Scalar::decode(&bytes), Err(WireError::InvalidScalar));
    }

    #[test]
    fn point_decode_rejects_garbage() {
        let mut bytes = [0u8; 33];
        bytes[0] = 0x07;
        assert_eq!(GroupElement::decode(&bytes), Err(WireError::InvalidPoint));
        // Non-zero identity body.
        let mut bytes = [0u8; 33];
        bytes[32] = 1;
        assert_eq!(GroupElement::decode(&bytes), Err(WireError::InvalidPoint));
    }

    #[test]
    fn matrix_decode_rejects_oversized_dimension() {
        let mut bytes = Vec::new();
        bytes.put_u32(500); // plausible cap-wise, but the body is missing
        bytes.put(&[0u8; 40]);
        assert!(matches!(
            CommitmentMatrix::decode(&bytes),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn resolved_matrix_decode_hits_by_digest_and_misses_like_a_plain_decode() {
        let mut rng = StdRng::seed_from_u64(4);
        let f = SymmetricBivariate::random_with_secret(&mut rng, 2, Scalar::from_u64(9));
        let held = Arc::new(CommitmentMatrix::commit(&f));
        let digest = dkg_crypto::sha256(&held.to_bytes());
        let mut bytes = held.encode();
        bytes.push(0xaa); // the cursor must stop after the matrix
        let known = |d: &Digest| (*d == digest).then(|| Arc::clone(&held));

        // Hit: the held handle comes back and the span is skipped.
        let mut r = Reader::new(&bytes);
        let (matrix, named) = decode_matrix_resolved(&mut r, known).unwrap();
        assert!(Arc::ptr_eq(&matrix, &held));
        assert_eq!((named, r.remaining()), (digest, 1));
        // Miss: an equal matrix is decoded afresh under the same digest.
        let mut r = Reader::new(&bytes);
        let (matrix, named) = decode_matrix_resolved(&mut r, |_| None).unwrap();
        assert!(!Arc::ptr_eq(&matrix, &held) && matrix == held);
        assert_eq!((named, r.remaining()), (digest, 1));

        // Any other bytes miss the honest lookup and fail exactly as the
        // context-free decoder fails: an off-curve point, a short body.
        let mut off_curve = held.encode();
        off_curve[4 + 1..4 + 33].fill(0); // x = 0: 0³ + 7 is not a square
        let mut r = Reader::new(&off_curve);
        assert_eq!(
            decode_matrix_resolved(&mut r, known).err(),
            Some(WireError::InvalidPoint)
        );
        assert_eq!(
            CommitmentMatrix::decode(&off_curve),
            Err(WireError::InvalidPoint)
        );
        let short = &bytes[..bytes.len() - 40];
        assert_eq!(
            decode_matrix_resolved(&mut Reader::new(short), known).err(),
            CommitmentMatrix::decode(short).err()
        );
    }

    #[test]
    fn option_decode_rejects_bad_presence_byte() {
        assert_eq!(
            Option::<u64>::decode(&[2]),
            Err(WireError::UnknownTag {
                context: "option",
                tag: 2
            })
        );
    }
}
