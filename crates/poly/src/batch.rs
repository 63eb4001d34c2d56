//! Batched commitment verification.
//!
//! The hottest check the paper identifies is `verify-point` (Fig. 1),
//! `g^α = Π_{j,ℓ} (C_{jℓ})^{m^j i^ℓ}`, due once per `echo` and per `ready`.
//! A node that already holds its verified row under a symmetric matrix
//! answers it in the field (`dkg-vss`, `VssNode::submit_points`) and never
//! comes here; what follows is the group check for every other case — the
//! points that outrun the dealer's `send`, the node that never gets one, an
//! asymmetric matrix.
//! The verifier index `i` is the checking node's own id in every claim it
//! ever judges, so the node regroups the product once per matrix into the
//! row projection `R_j = Π_ℓ (C_{jℓ})^{i^ℓ}`
//! ([`CommitmentMatrix::project`]) and each claim `(m, α)` becomes
//! `g^α = Π_j R_j^{m^j}`: `t + 1` points with small exponents instead of
//! `(t+1)²`. That makes a point check the same shape as the other checks
//! here — a share against a commitment *vector* — and
//! [`verify_points_batch`], [`verify_shares_batch`] and
//! [`verify_vector_shares_batch`] are one fold under three domain tags.
//!
//! When a node holds many claims against the same vector — a buffered batch
//! of echo points, a reconstruction quorum, the `t + 1` sub-shares of node
//! addition — the checks are *folded* into a single multi-exponentiation by
//! a random linear combination (RLC): with random coefficients `e_k`, every
//! claim `g^{α_k} = Π_j V_j^{m_k^j}` holds iff
//! `g^{Σ e_k α_k} = Π_j V_j^{Σ e_k m_k^j}` except with probability `1/q`
//! per forged claim, because a cheating tuple would have to guess the `e_k`
//! drawn *after* the claims are fixed. One multiexp over the `t + 1` vector
//! entries then replaces `n` separate ones. The generator side `g^{Σ e_k
//! α_k}` never enters that multiexp: `fold_holds` computes it through the
//! fixed-base generator table (additions only) and compares, instead of
//! paying 256 doublings to carry `g` as one more variable-base input.
//!
//! Folding pays only *within* one vector. Merging claims against different
//! projections into one multiexp would turn every small exponent `m^j` into
//! a full-width `e_k · m^j`, which costs more than it saves, so there is no
//! cross-matrix point fold.
//!
//! The coefficients are derived **Fiat–Shamir style** inside this module:
//! each `e_k` is the full-width hash of a transcript committing to the
//! vector entries and every queued claim. A sender fixing its claim
//! therefore fixes the coefficients that will judge it; finding a bad batch
//! that still folds to the identity requires finding a hash preimage
//! relation, so callers cannot weaken soundness by passing a predictable
//! randomness source — there is nothing to pass.
//!
//! A failed batch identifies *that* a bad tuple exists, not which one;
//! [`crate::CryptoJob::run`] falls back to per-claim verification to
//! attribute blame. The expected cost stays on the fast path because
//! failures only occur under active misbehaviour.
//!
//! Threshold-Schnorr partial signatures ([`PartialSigClaim`]) have no fold
//! here: the signing coordinator's batch check *is* the aggregate signature
//! (`dkg-tss` verifies `(R, Σ s_k)` under the group key), and the claims
//! are judged one by one only after that failed.

use dkg_arith::{multiexp, GroupElement, PrimeField, Scalar};
use dkg_crypto::sha256;

use crate::commitment::{CommitmentMatrix, CommitmentVector};

/// Fiat–Shamir coefficient stream: `e_k = H(H(transcript) ∥ k)` expanded to
/// 64 uniform bytes, so each coefficient has the scalar field's full width
/// (no 64-bit seed bottleneck to grind against).
struct CoefficientStream {
    transcript_digest: [u8; 32],
    next: u64,
}

impl CoefficientStream {
    fn new(transcript: &[u8]) -> Self {
        CoefficientStream {
            transcript_digest: sha256(transcript),
            next: 0,
        }
    }

    fn next_coefficient(&mut self) -> Scalar {
        // The first coefficient can be fixed to 1: scaling the whole linear
        // combination by e_0⁻¹ shows soundness is unaffected, and it saves
        // a hash.
        let k = self.next;
        self.next += 1;
        if k == 0 {
            return Scalar::one();
        }
        let mut wide = [0u8; 64];
        for (half, tag) in [(0usize, 0u8), (32, 1)] {
            let mut block = Vec::with_capacity(32 + 9);
            block.extend_from_slice(&self.transcript_digest);
            block.extend_from_slice(&k.to_be_bytes());
            block.push(tag);
            wide[half..half + 32].copy_from_slice(&sha256(&block));
        }
        Scalar::from_uniform_bytes(&wide)
    }
}

/// The closing comparison of every fold: `Π points^weights = g^exponent`.
/// The generator term goes through the fixed-base table
/// ([`GroupElement::commit`]) rather than into the multiexp.
fn fold_holds(points: &[GroupElement], weights: &[Scalar], exponent: &Scalar) -> bool {
    multiexp(points, weights) == GroupElement::commit(exponent)
}

/// Batch-verifies `verify-point` claims `(m, α)` of one verifier `P_i`
/// against `projection = matrix.project(i)`: each must satisfy
/// `g^α = Π_j R_j^{m^j}`. Equivalent to `claims.iter().all(|&(m, α)|
/// matrix.verify_point(i, m, α))` up to RLC soundness error.
pub fn verify_points_batch(projection: &CommitmentVector, claims: &[(u64, Scalar)]) -> bool {
    verify_column_batch(b"dkg-batch-verify-point-v2", projection.entries(), claims)
}

/// Batch-verifies reconstruction shares: each `(m, s_m)` must satisfy
/// `g^{s_m} = Π_j (C_{j0})^{m^j}` (the `share_commitment` check of `Rec`).
/// Folds all shares into one multiexp over the matrix's first column.
pub fn verify_shares_batch(matrix: &CommitmentMatrix, shares: &[(u64, Scalar)]) -> bool {
    let column = matrix.share_polynomial_commitment();
    verify_column_batch(b"dkg-batch-share-commitment-v1", column.entries(), shares)
}

/// Batch-verifies univariate-commitment shares: each `(i, s_i)` must satisfy
/// `g^{s_i} = Π_ℓ V_ℓ^{i^ℓ}` (`CommitmentVector::verify_share`). Used by the
/// node-addition sub-share combine step.
pub fn verify_vector_shares_batch(vector: &CommitmentVector, shares: &[(u64, Scalar)]) -> bool {
    verify_column_batch(b"dkg-batch-vector-share-v1", vector.entries(), shares)
}

/// One threshold-Schnorr partial-signature claim: signer `P_i` answered a
/// signing request with response `s_i` over its effective nonce commitment
/// `R_i`, and must satisfy
///
/// `g^{s_i} = R_i · A_i^{cλ_i}`
///
/// where `A_i = Π_j (C_{j0})^{i^j}` is the signer's share commitment read
/// off the agreed DKG matrix's first column, and `scaled_challenge = c·λ_i`
/// folds the Schnorr challenge with the signer's Lagrange coefficient (both
/// recomputable by any verifier, so only their product travels here).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PartialSigClaim {
    /// The signing node's index `i`.
    pub signer: u64,
    /// `c·λ_i`: the request's Schnorr challenge times the signer's Lagrange
    /// coefficient at zero over the participating quorum.
    pub scaled_challenge: Scalar,
    /// `R_i`: the signer's effective (binding-adjusted) nonce commitment.
    pub nonce: GroupElement,
    /// `s_i`: the claimed partial-signature response.
    pub response: Scalar,
}

impl PartialSigClaim {
    /// Convenience constructor.
    pub fn new(
        signer: u64,
        scaled_challenge: Scalar,
        nonce: GroupElement,
        response: Scalar,
    ) -> Self {
        PartialSigClaim {
            signer,
            scaled_challenge,
            nonce,
            response,
        }
    }

    /// Verifies this claim: `g^{s_i} = R_i · A_i^{cλ_i}`.
    pub fn verify(&self, matrix: &CommitmentMatrix) -> bool {
        let lhs = GroupElement::commit(&self.response);
        let rhs = self.nonce + matrix.share_commitment(self.signer) * self.scaled_challenge;
        lhs == rhs
    }
}

/// What the coefficients of a column fold are bound to: the domain tag,
/// the column being judged against and every `(index, share)` claim.
fn column_transcript(domain: &[u8], column: &[GroupElement], shares: &[(u64, Scalar)]) -> Vec<u8> {
    let mut transcript = domain.to_vec();
    for entry in column {
        transcript.extend_from_slice(&entry.to_bytes());
    }
    for (index, share) in shares {
        transcript.extend_from_slice(&index.to_be_bytes());
        transcript.extend_from_slice(&share.to_be_bytes());
    }
    transcript
}

/// Shared fold: checks `g^{s_k} = Π_j column_j^{k^j}` for every `(k, s_k)`
/// with one multiexp over `column`.
fn verify_column_batch(domain: &[u8], column: &[GroupElement], shares: &[(u64, Scalar)]) -> bool {
    if shares.is_empty() {
        return true;
    }
    let mut coefficients = CoefficientStream::new(&column_transcript(domain, column, shares));

    let mut weights = vec![Scalar::zero(); column.len()];
    let mut share_fold = Scalar::zero();
    for (index, share) in shares.iter() {
        let e = coefficients.next_coefficient();
        share_fold += e * *share;
        let x = Scalar::from_u64(*index);
        let mut term = e;
        for w in weights.iter_mut() {
            *w += term;
            term *= x;
        }
    }
    fold_holds(column, &weights, &share_fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bivariate::SymmetricBivariate;
    use crate::univariate::Univariate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(t: usize, seed: u64) -> (SymmetricBivariate, CommitmentMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = Scalar::random(&mut rng);
        let poly = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let commitment = CommitmentMatrix::commit(&poly);
        (poly, commitment)
    }

    /// The `(m, f(m, i))` claims verifier `i` receives from senders `1..=senders`.
    fn honest_claims(poly: &SymmetricBivariate, verifier: u64, senders: u64) -> Vec<(u64, Scalar)> {
        (1..=senders)
            .map(|m| {
                let value = poly.evaluate(Scalar::from_u64(m), Scalar::from_u64(verifier));
                (m, value)
            })
            .collect()
    }

    #[test]
    fn accepts_honest_point_batches() {
        let (poly, commitment) = setup(3, 1);
        let claims = honest_claims(&poly, 2, 7);
        assert!(verify_points_batch(&commitment.project(2), &claims));
        // The same claims under another verifier's projection are wrong.
        assert!(!verify_points_batch(&commitment.project(3), &claims));
    }

    #[test]
    fn rejects_any_single_corruption() {
        let (poly, commitment) = setup(2, 2);
        let projection = commitment.project(3);
        for bad in 0..5 {
            let mut claims = honest_claims(&poly, 3, 5);
            claims[bad].1 += Scalar::one();
            assert!(
                !verify_points_batch(&projection, &claims),
                "corrupted claim {bad} slipped through"
            );
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let (poly, commitment) = setup(2, 3);
        let projection = commitment.project(1);
        assert!(verify_points_batch(&projection, &[]));
        let claims = honest_claims(&poly, 1, 1);
        assert!(verify_points_batch(&projection, &claims));
        let bad = [(1, claims[0].1 + Scalar::one())];
        assert!(!verify_points_batch(&projection, &bad));
    }

    #[test]
    fn share_batches_match_share_commitment() {
        let (poly, commitment) = setup(3, 6);
        let shares: Vec<(u64, Scalar)> = (1..=6u64)
            .map(|m| (m, poly.row(m).constant_term()))
            .collect();
        assert!(verify_shares_batch(&commitment, &shares));
        let mut bad = shares.clone();
        bad[4].1 += Scalar::one();
        assert!(!verify_shares_batch(&commitment, &bad));
    }

    #[test]
    fn vector_share_batches_match_verify_share() {
        let mut rng = StdRng::seed_from_u64(7);
        let poly = Univariate::random(&mut rng, 3);
        let vector = CommitmentVector::commit(&poly);
        let shares: Vec<(u64, Scalar)> =
            (1..=5u64).map(|i| (i, poly.evaluate_at_index(i))).collect();
        assert!(verify_vector_shares_batch(&vector, &shares));
        let mut bad = shares.clone();
        bad[0].1 += Scalar::one();
        assert!(!verify_vector_shares_batch(&vector, &bad));
    }

    fn honest_partial_sigs(
        poly: &SymmetricBivariate,
        signers: &[u64],
        seed: u64,
    ) -> Vec<PartialSigClaim> {
        let mut rng = StdRng::seed_from_u64(seed);
        signers
            .iter()
            .map(|&i| {
                let share = poly.row(i).constant_term();
                let nonce = Scalar::random(&mut rng);
                let scaled = Scalar::random(&mut rng);
                PartialSigClaim::new(
                    i,
                    scaled,
                    dkg_arith::GroupElement::commit(&nonce),
                    nonce + scaled * share,
                )
            })
            .collect()
    }

    #[test]
    fn accepts_honest_partial_sig_batches() {
        let (poly, commitment) = setup(3, 10);
        let claims = honest_partial_sigs(&poly, &[1, 3, 4, 6], 20);
        assert!(claims.iter().all(|c| c.verify(&commitment)));
        let job = crate::CryptoJob::partial_sig_batch(commitment.clone(), claims);
        assert_eq!(job.run(), crate::CryptoVerdict::accept_all(4));
        let empty = crate::CryptoJob::partial_sig_batch(commitment, Vec::new());
        assert!(empty.run().is_empty());
    }

    #[test]
    fn rejects_any_single_corrupted_partial_sig() {
        let (poly, commitment) = setup(2, 11);
        for bad in 0..4 {
            let mut claims = honest_partial_sigs(&poly, &[2, 4, 5, 7], 21);
            claims[bad].response += Scalar::one();
            let verdicts: Vec<bool> = claims.iter().map(|c| c.verify(&commitment)).collect();
            let expected: Vec<bool> = (0..4).map(|k| k != bad).collect();
            assert_eq!(verdicts, expected);
        }
        // A tampered nonce commitment is just as fatal as a bad response.
        let mut claims = honest_partial_sigs(&poly, &[2, 4], 22);
        claims[0].nonce += dkg_arith::GroupElement::generator();
        assert!(!claims[0].verify(&commitment));
        assert!(claims[1].verify(&commitment));
    }

    #[test]
    fn coefficients_are_bound_to_the_claims() {
        // Changing the projection or any part of a claim changes the
        // Fiat–Shamir coefficient stream; this pins the derivation so an
        // accidental transcript omission (e.g. dropping the projection
        // bytes) would be caught.
        let (poly, commitment) = setup(2, 9);
        let claims = honest_claims(&poly, 3, 3);
        let domain = b"dkg-batch-verify-point-v2";
        let second = |column: &CommitmentVector, claims: &[(u64, Scalar)]| {
            let mut stream =
                CoefficientStream::new(&column_transcript(domain, column.entries(), claims));
            assert_eq!(stream.next_coefficient(), Scalar::one()); // fixed to 1
            stream.next_coefficient()
        };
        let reference = second(&commitment.project(3), &claims);
        assert_eq!(reference, second(&commitment.project(3), &claims));
        assert_ne!(reference, second(&commitment.project(4), &claims));
        let mut other_sender = claims.clone();
        other_sender[2].0 += 1;
        assert_ne!(reference, second(&commitment.project(3), &other_sender));
        let mut other_value = claims.clone();
        other_value[2].1 += Scalar::one();
        assert_ne!(reference, second(&commitment.project(3), &other_value));
    }
}
