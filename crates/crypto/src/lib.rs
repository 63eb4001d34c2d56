//! # dkg-crypto
//!
//! Cryptographic toolkit for the hybrid DKG reproduction of
//! *Distributed Key Generation for the Internet* (Kate & Goldberg,
//! ICDCS 2009), implemented from scratch on top of [`dkg_arith`]:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (digests, challenges, Merkle
//!   nodes),
//! * [`schnorr`] — Schnorr signatures used for the signed `echo` / `ready` /
//!   `lead-ch` messages of the DKG's leader-based agreement (§4),
//! * [`merkle`] — Merkle commitment digests implementing the O(κn³)
//!   communication optimisation referenced in §3,
//! * [`keyring`] — the node key directory modelling the paper's PKI/CA
//!   assumption (§2.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod keyring;
pub mod merkle;
pub mod schnorr;
pub mod sha256;

pub use keyring::{generate_keyring, KeyDirectory, KeyringError, NodeId, TabledKey};
pub use merkle::{MerkleProof, MerkleTree};
pub use schnorr::{schnorr_challenge, PublicKey, Signature, SignatureError, SigningKey};
pub use sha256::{sha256, sha256_parts, Digest, Sha256};
