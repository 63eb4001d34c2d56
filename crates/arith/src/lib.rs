//! # dkg-arith
//!
//! From-scratch arithmetic substrate for the hybrid DKG reproduction of
//! *Distributed Key Generation for the Internet* (Kate & Goldberg,
//! ICDCS 2009).
//!
//! The paper assumes a cyclic group `G` of κ-bit prime order `q` with
//! generator `g` in which computing discrete logarithms is infeasible
//! (§2.3). This crate provides that substrate without external
//! cryptographic dependencies:
//!
//! * [`U256`] / [`U512`] — fixed-width big integers,
//! * [`Fp`] and [`Scalar`] — the secp256k1 base field (canonical residues,
//!   special-form reduction) and scalar field (Montgomery form; the
//!   paper's `Z_q`),
//! * [`GroupElement`] — the secp256k1 group written as the paper's `G`,
//!   with [`GroupElement::commit`] playing the role of `g^s`,
//! * [`mod@multiexp`] — sequential Pippenger multi-exponentiation used by
//!   commitment verification, with cost-model window selection.
//!
//! ## Example
//!
//! ```
//! use dkg_arith::{GroupElement, PrimeField, Scalar};
//!
//! let secret = Scalar::from_u64(1234567);
//! let commitment = GroupElement::commit(&secret); // g^s
//! assert_eq!(commitment, GroupElement::generator().mul(&secret));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod field;
pub mod fixed_base;
pub mod mont;
pub mod multiexp;
pub mod ops;
pub mod parallel;
pub mod u256;
pub mod u512;

pub use curve::{GroupElement, ProjectivePoint};
pub use field::{Fp, PrimeField, Scalar};
pub use fixed_base::{generator_table, FixedBaseTable};
pub use multiexp::{multiexp, multiexp_powers, pippenger_window};
pub use ops::OpCount;
pub use u256::U256;
pub use u512::U512;
