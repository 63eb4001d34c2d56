//! Schnorr signatures over the secp256k1 group.
//!
//! The paper (§2.3) assumes "message authentication with any digital
//! signature scheme secure against adaptive chosen-message attack" backed by
//! a PKI. Nodes sign `echo`, `ready` and `lead-ch` messages so that the
//! leader can present third parties with a transferable validity proof for
//! its proposal (Fig. 2 and Fig. 3). This module provides that signature
//! scheme from scratch: classic Schnorr (commit–challenge–response) with the
//! challenge derived by hashing the nonce commitment, the public key and the
//! message.

use crate::sha256::sha256_parts;
use dkg_arith::{generator_table, GroupElement, PrimeField, ProjectivePoint, Scalar};
use rand::Rng;

/// A Schnorr signing key (the discrete log of the corresponding
/// [`PublicKey`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SigningKey {
    secret: Scalar,
}

// The discrete log IS the secret: a derived Debug would print it into any
// log or panic message that formats a key holder (dkg-lint rule R2).
impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SigningKey(<redacted>)")
    }
}

/// A Schnorr verification key `g^x`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey {
    point: GroupElement,
}

/// A Schnorr signature `(R, s)` with `s = k + H(R, pk, m)·x`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Signature {
    nonce_commitment: GroupElement,
    response: Scalar,
}

/// Errors returned by signature verification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SignatureError {
    /// The signature equation does not hold for this key and message.
    Invalid,
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::Invalid => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for SignatureError {}

impl SigningKey {
    /// Generates a fresh random signing key.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let secret = Scalar::random(rng);
            if !secret.is_zero() {
                return SigningKey { secret };
            }
        }
    }

    /// Builds a signing key from an existing secret scalar.
    ///
    /// Returns `None` for the zero scalar, which has no usable public key.
    pub fn from_scalar(secret: Scalar) -> Option<Self> {
        if secret.is_zero() {
            None
        } else {
            Some(SigningKey { secret })
        }
    }

    /// Returns the corresponding public key `g^x`.
    pub fn public_key(&self) -> PublicKey {
        PublicKey {
            point: GroupElement::commit(&self.secret),
        }
    }

    /// Signs a message.
    pub fn sign<R: Rng + ?Sized>(&self, rng: &mut R, message: &[u8]) -> Signature {
        let nonce = loop {
            let k = Scalar::random(rng);
            if !k.is_zero() {
                break k;
            }
        };
        let nonce_commitment = GroupElement::commit(&nonce);
        let challenge = challenge(&nonce_commitment, &self.public_key(), message);
        Signature {
            nonce_commitment,
            response: nonce + challenge * self.secret,
        }
    }

    /// Exposes the secret scalar (used by the key directory for tests and by
    /// the proactive rekeying protocol when rotating certificates).
    pub fn secret(&self) -> Scalar {
        self.secret
    }
}

impl PublicKey {
    /// Builds a verification key directly from a group element — the path
    /// threshold protocols use, where the group key `g^{f(0)}` comes out of
    /// a DKG rather than a locally held secret. Returns `None` for the
    /// identity (which has no discrete log to sign under).
    pub fn from_point(point: GroupElement) -> Option<Self> {
        if point.is_identity() {
            None
        } else {
            Some(PublicKey { point })
        }
    }

    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), SignatureError> {
        self.verify_with(message, signature, |acc, challenge| {
            *acc += -self.point.mul_projective(challenge);
        })
    }

    /// The one verification predicate, `g^s · pk^(−c) == R` — the textbook
    /// `g^s == R · pk^c` rearranged so that the left side accumulates in a
    /// single Jacobian point and is compared with the affine `R` without a
    /// field inversion. `add_key_power(acc, c)` must add `pk^(−c)` to `acc`:
    /// a ladder here, a table walk in [`crate::TabledKey::verify`].
    pub(crate) fn verify_with(
        &self,
        message: &[u8],
        signature: &Signature,
        add_key_power: impl FnOnce(&mut ProjectivePoint, &Scalar),
    ) -> Result<(), SignatureError> {
        let challenge = challenge(&signature.nonce_commitment, self, message);
        let mut acc = generator_table().mul_projective(&signature.response);
        add_key_power(&mut acc, &challenge);
        if acc.eq_affine(&signature.nonce_commitment) {
            Ok(())
        } else {
            Err(SignatureError::Invalid)
        }
    }

    /// Returns the underlying group element.
    pub fn point(&self) -> GroupElement {
        self.point
    }

    /// Serializes to 33 bytes.
    pub fn to_bytes(&self) -> [u8; 33] {
        self.point.to_bytes()
    }

    /// Parses a 33-byte encoding. Returns `None` for invalid encodings or the
    /// identity element (which is not a valid public key).
    pub fn from_bytes(bytes: &[u8; 33]) -> Option<Self> {
        let point = GroupElement::from_bytes(bytes)?;
        if point.is_identity() {
            None
        } else {
            Some(PublicKey { point })
        }
    }
}

impl Signature {
    /// Assembles a signature from its parts — used by threshold signing,
    /// where `R` is the aggregated nonce commitment and `s` the Lagrange
    /// combination of partial responses. The result is an ordinary Schnorr
    /// signature; [`PublicKey::verify`] neither knows nor cares that many
    /// signers produced it.
    pub fn from_parts(nonce_commitment: GroupElement, response: Scalar) -> Self {
        Signature {
            nonce_commitment,
            response,
        }
    }

    /// The nonce commitment `R`.
    pub fn nonce_commitment(&self) -> GroupElement {
        self.nonce_commitment
    }

    /// The response scalar `s`.
    pub fn response(&self) -> Scalar {
        self.response
    }

    /// Serializes to 65 bytes (33-byte nonce commitment + 32-byte response).
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..33].copy_from_slice(&self.nonce_commitment.to_bytes());
        out[33..].copy_from_slice(&self.response.to_be_bytes());
        out
    }

    /// Parses the 65-byte encoding.
    pub fn from_bytes(bytes: &[u8; 65]) -> Option<Self> {
        let mut point_bytes = [0u8; 33];
        point_bytes.copy_from_slice(&bytes[..33]);
        let mut scalar_bytes = [0u8; 32];
        scalar_bytes.copy_from_slice(&bytes[33..]);
        Some(Signature {
            nonce_commitment: GroupElement::from_bytes(&point_bytes)?,
            response: Scalar::from_be_bytes(&scalar_bytes)?,
        })
    }

    /// The byte length of an encoded signature, used for wire-size accounting
    /// in the experiments.
    pub const ENCODED_LEN: usize = 65;
}

/// The Schnorr challenge `c = H(R, pk, m)` this module signs and verifies
/// under, exposed so threshold signers can produce partial responses whose
/// Lagrange combination verifies as an ordinary [`Signature`] — every party
/// to a threshold signing round must derive exactly this scalar.
pub fn schnorr_challenge(
    nonce_commitment: &GroupElement,
    public_key: &PublicKey,
    message: &[u8],
) -> Scalar {
    challenge(nonce_commitment, public_key, message)
}

fn challenge(nonce_commitment: &GroupElement, public_key: &PublicKey, message: &[u8]) -> Scalar {
    let digest = sha256_parts(&[
        b"dkg-schnorr-v1",
        &nonce_commitment.to_bytes(),
        &public_key.to_bytes(),
        message,
    ]);
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&digest);
    wide[32..].copy_from_slice(&sha256_parts(&[b"dkg-schnorr-v1-ext", &digest]));
    Scalar::from_uniform_bytes(&wide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn sign_and_verify() {
        let mut r = rng();
        let sk = SigningKey::generate(&mut r);
        let sig = sk.sign(&mut r, b"hello dkg");
        assert!(sk.public_key().verify(b"hello dkg", &sig).is_ok());
    }

    #[test]
    fn rejects_wrong_message() {
        let mut r = rng();
        let sk = SigningKey::generate(&mut r);
        let sig = sk.sign(&mut r, b"message one");
        assert_eq!(
            sk.public_key().verify(b"message two", &sig),
            Err(SignatureError::Invalid)
        );
    }

    #[test]
    fn rejects_wrong_key() {
        let mut r = rng();
        let sk1 = SigningKey::generate(&mut r);
        let sk2 = SigningKey::generate(&mut r);
        let sig = sk1.sign(&mut r, b"message");
        assert!(sk2.public_key().verify(b"message", &sig).is_err());
    }

    #[test]
    fn rejects_tampered_signature() {
        let mut r = rng();
        let sk = SigningKey::generate(&mut r);
        let sig = sk.sign(&mut r, b"message");
        let tampered = Signature {
            nonce_commitment: sig.nonce_commitment,
            response: sig.response + Scalar::one(),
        };
        assert!(sk.public_key().verify(b"message", &tampered).is_err());
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let mut r = rng();
        let sk = SigningKey::generate(&mut r);
        let sig = sk.sign(&mut r, b"roundtrip");
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), Signature::ENCODED_LEN);
        let parsed = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, sig);
        assert!(sk.public_key().verify(b"roundtrip", &parsed).is_ok());
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let mut r = rng();
        let pk = SigningKey::generate(&mut r).public_key();
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), Some(pk));
        // The identity is rejected.
        let id = GroupElement::identity().to_bytes();
        assert!(PublicKey::from_bytes(&id).is_none());
    }

    #[test]
    fn signatures_are_randomized() {
        let mut r = rng();
        let sk = SigningKey::generate(&mut r);
        let sig1 = sk.sign(&mut r, b"same message");
        let sig2 = sk.sign(&mut r, b"same message");
        assert_ne!(sig1, sig2);
        assert!(sk.public_key().verify(b"same message", &sig1).is_ok());
        assert!(sk.public_key().verify(b"same message", &sig2).is_ok());
    }

    #[test]
    fn externally_assembled_signature_verifies() {
        // A signature assembled from its parts via the public challenge —
        // the shape threshold signing produces — is indistinguishable from
        // a locally signed one.
        let mut r = rng();
        let sk = SigningKey::generate(&mut r);
        let pk = sk.public_key();
        let nonce = Scalar::random(&mut r);
        let commitment = GroupElement::commit(&nonce);
        let c = schnorr_challenge(&commitment, &pk, b"assembled");
        let sig = Signature::from_parts(commitment, nonce + c * sk.secret());
        assert_eq!(sig.nonce_commitment(), commitment);
        assert_eq!(sig.response(), nonce + c * sk.secret());
        assert!(pk.verify(b"assembled", &sig).is_ok());
        assert!(pk.verify(b"other", &sig).is_err());
    }

    #[test]
    fn public_key_from_point_rejects_identity() {
        let mut r = rng();
        let pk = SigningKey::generate(&mut r).public_key();
        assert_eq!(PublicKey::from_point(pk.point()), Some(pk));
        assert!(PublicKey::from_point(GroupElement::identity()).is_none());
    }

    #[test]
    fn zero_secret_is_rejected() {
        assert!(SigningKey::from_scalar(Scalar::zero()).is_none());
        assert!(SigningKey::from_scalar(Scalar::one()).is_some());
    }
}
