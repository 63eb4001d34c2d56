//! # dkg-poly
//!
//! Polynomial algebra for the hybrid DKG reproduction of *Distributed Key
//! Generation for the Internet* (Kate & Goldberg, ICDCS 2009):
//!
//! * [`Univariate`] — degree-`t` polynomials over `Z_q` (the rows `a_j(y)`
//!   of the dealer's polynomial, Lagrange interpolation, share recovery),
//! * [`SymmetricBivariate`] — the dealer's symmetric bivariate polynomial
//!   `f(x, y)` from Fig. 1,
//! * [`CommitmentMatrix`] / [`CommitmentVector`] — Feldman commitments with
//!   the paper's `verify-poly` and `verify-point` predicates and the
//!   entry-wise combination rules used by the DKG, share renewal and node
//!   addition,
//! * [`batch`] — the batched verification engine: `verify-point` claims
//!   judged against the verifier's row projection of the matrix, and
//!   random-linear-combination folding of many point / share checks into a
//!   single Pippenger multi-exponentiation,
//! * [`job`] — [`CryptoJob`] / [`CryptoVerdict`]: the same checks packaged
//!   as owned, schedulable units of pure computation, so protocol state
//!   machines can hand verification work to an executor (inline, worker
//!   pool, …) and apply the deterministic verdict later.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bivariate;
pub mod commitment;
pub mod job;
pub mod univariate;

pub use batch::{
    verify_points_batch, verify_shares_batch, verify_vector_shares_batch, PartialSigClaim,
};
pub use bivariate::SymmetricBivariate;
pub use commitment::{CommitmentError, CommitmentMatrix, CommitmentVector};
pub use job::{
    CryptoJob, CryptoVerdict, JobQueue, ShareCollector, ShareProgress, SignatureCheck, Submission,
};
pub use univariate::{
    interpolate_at, interpolate_polynomial, interpolate_secret, lagrange_weights_at_zero,
    Univariate,
};
