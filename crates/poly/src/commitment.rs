//! Feldman commitments to polynomials.
//!
//! The dealer commits to its symmetric bivariate polynomial with the matrix
//! `C` where `C_{jℓ} = g^{f_{jℓ}}` (Fig. 1). Receivers validate the pieces
//! they are sent with the two predicates from the paper:
//!
//! * `verify-poly(C, i, a)` — the row polynomial `a` claimed for node `P_i`
//!   is consistent with `C`: `g^{a_ℓ} = Π_j (C_{jℓ})^{i^j}` for all `ℓ`.
//! * `verify-point(C, i, m, α)` — the single evaluation `α` claimed to be
//!   `f(m, i)`: `g^{α} = Π_{j,ℓ} (C_{jℓ})^{m^j i^ℓ}`.
//!
//! [`CommitmentVector`] is the univariate analogue (`V_ℓ = g^{a_ℓ}`) used by
//! the share-renewal and node-addition protocols (§5.2, §6.2) and by the
//! synchronous Feldman VSS baseline.

use crate::bivariate::SymmetricBivariate;
use crate::univariate::Univariate;
use dkg_arith::{
    generator_table, multiexp, multiexp_many, multiexp_powers, GroupElement, PrimeField,
    ProjectivePoint, Scalar,
};

/// Errors arising when combining or validating commitments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitmentError {
    /// The two commitments have different dimensions and cannot be combined.
    DimensionMismatch,
    /// An empty set of commitments was supplied where at least one is needed.
    Empty,
}

impl std::fmt::Display for CommitmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitmentError::DimensionMismatch => write!(f, "commitment dimensions do not match"),
            CommitmentError::Empty => write!(f, "no commitments supplied"),
        }
    }
}

impl std::error::Error for CommitmentError {}

/// The `(t+1) × (t+1)` Feldman commitment matrix `C` to a symmetric bivariate
/// polynomial.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommitmentMatrix {
    entries: Vec<Vec<GroupElement>>,
}

impl CommitmentMatrix {
    /// Commits to a symmetric bivariate polynomial: `C_{jℓ} = g^{f_{jℓ}}`.
    ///
    /// All `(t+1)²` fixed-base multiplications are normalised to affine with
    /// a *single* batched field inversion (`FixedBaseTable::mul_batch`)
    /// instead of one inversion per entry.
    pub fn commit(poly: &SymmetricBivariate) -> Self {
        let rows = poly.coefficients();
        let flat: Vec<Scalar> = rows.iter().flatten().copied().collect();
        let mut committed = generator_table().mul_batch(&flat).into_iter();
        let entries = rows
            .iter()
            .map(|row| committed.by_ref().take(row.len()).collect())
            .collect();
        CommitmentMatrix { entries }
    }

    /// Builds a matrix from raw entries. Returns `None` unless the matrix is
    /// square and non-empty (untrusted input from `send` messages).
    pub fn from_entries(entries: Vec<Vec<GroupElement>>) -> Option<Self> {
        let n = entries.len();
        if n == 0 || entries.iter().any(|row| row.len() != n) {
            return None;
        }
        Some(CommitmentMatrix { entries })
    }

    /// The threshold `t` this matrix commits to (dimension minus one).
    pub fn threshold(&self) -> usize {
        self.entries.len() - 1
    }

    /// The matrix entries.
    pub fn entries(&self) -> &[Vec<GroupElement>] {
        &self.entries
    }

    /// Entry `C_{jℓ}`.
    pub fn entry(&self, j: usize, l: usize) -> GroupElement {
        self.entries[j][l]
    }

    /// The commitment to the shared secret, `C_{00} = g^s`. After a DKG this
    /// is the distributed public key.
    pub fn public_key(&self) -> GroupElement {
        self.entries[0][0]
    }

    /// Whether `C_{jℓ} = C_{ℓj}` for all `j, ℓ` — what an honest dealer's
    /// matrix always is (it commits to a *symmetric* bivariate polynomial)
    /// and what an untrusted one has to be shown to be before `verify-poly`
    /// on row `i` says anything about the *row* projection
    /// ([`Self::project`]): `verify-poly` binds the row polynomial to the
    /// column products `Π_j (C_{jℓ})^{i^j}`, which equal the projection's
    /// `Π_j (C_{ℓj})^{i^j}` exactly when the matrix is symmetric.
    /// `(t+1)t/2` affine-point comparisons, no group operation.
    pub fn is_symmetric(&self) -> bool {
        self.entries
            .iter()
            .enumerate()
            .all(|(j, row)| (0..j).all(|l| row[l] == self.entries[l][j]))
    }

    /// `verify-poly(C, i, a)` from Fig. 1.
    pub fn verify_poly(&self, i: u64, a: &Univariate) -> bool {
        if a.degree() != self.threshold() {
            return false;
        }
        let x = Scalar::from_u64(i);
        a.coefficients().iter().enumerate().all(|(l, coeff)| {
            let column: Vec<GroupElement> = self.entries.iter().map(|row| row[l]).collect();
            GroupElement::commit(coeff) == multiexp_powers(&column, x)
        })
    }

    /// `verify-point(C, i, m, α)` from Fig. 1: checks that `α = f(m, i)`.
    pub fn verify_point(&self, i: u64, m: u64, alpha: Scalar) -> bool {
        let t = self.threshold();
        let mi = Scalar::from_u64(m);
        let xi = Scalar::from_u64(i);
        // exponents m^j · i^ℓ, flattened alongside the matrix entries.
        let mut points = Vec::with_capacity((t + 1) * (t + 1));
        let mut scalars = Vec::with_capacity((t + 1) * (t + 1));
        let mut m_pow = Scalar::one();
        for j in 0..=t {
            let mut i_pow = Scalar::one();
            for l in 0..=t {
                points.push(self.entries[j][l]);
                scalars.push(m_pow * i_pow);
                i_pow *= xi;
            }
            m_pow *= mi;
        }
        GroupElement::commit(&alpha) == multiexp(&points, &scalars)
    }

    /// The commitment to node `P_i`'s share `s_i = f(i, 0)`:
    /// `g^{s_i} = Π_j (C_{j0})^{i^j}`. Used to validate shares during `Rec`.
    pub fn share_commitment(&self, i: u64) -> GroupElement {
        self.share_polynomial_commitment().evaluate_in_exponent(i)
    }

    /// The row projection of `C` for verifier `P_i`: `R_j = Π_ℓ (C_{jℓ})^{i^ℓ}`,
    /// the inner product over `ℓ` of `verify-point` with `i` fixed. For
    /// every matrix (symmetric or not) and every `(m, α)`,
    /// `project(i).verify_share(m, α) == verify_point(i, m, α)`, because
    /// `Π_{j,ℓ} (C_{jℓ})^{m^j i^ℓ} = Π_j R_j^{m^j}` is a regrouping of the
    /// same product. A node checks every point it ever receives as verifier
    /// `i` = itself, so it projects each matrix once and pays `t + 1`
    /// points per check instead of `(t+1)²`.
    pub fn project(&self, i: u64) -> CommitmentVector {
        let x = Scalar::from_u64(i);
        CommitmentVector {
            entries: self
                .entries
                .iter()
                .map(|row| multiexp_powers(row, x))
                .collect(),
        }
    }

    /// Entry-wise product of several matrices: the DKG's final commitment
    /// `C_{p,q} = Π_{P_d ∈ Q} (C_d)_{p,q}` (Fig. 2). Each entry accumulates
    /// with mixed additions and all of them are normalised with one
    /// inversion. When every input [`Self::is_symmetric`], so is the
    /// product: only the lower triangle is computed, and mirrored.
    pub fn combine(matrices: &[&CommitmentMatrix]) -> Result<CommitmentMatrix, CommitmentError> {
        Self::combine_cells(matrices, |cells| {
            let sums: Vec<ProjectivePoint> = cells
                .iter()
                .map(|&(j, l)| {
                    matrices
                        .iter()
                        .fold(ProjectivePoint::identity(), |acc, m| acc + m.entries[j][l])
                })
                .collect();
            ProjectivePoint::batch_to_affine(&sums)
        })
    }

    /// Entry-wise weighted product `Π_d (C_d)^{λ_d}` of several matrices:
    /// the share-renewal combine (§5.2), with `weights[d]` the Lagrange
    /// weight of `matrices[d]`. Every entry shares the weights, so the whole
    /// matrix is one [`multiexp_many`]. Symmetric inputs compute the lower
    /// triangle only, as in [`Self::combine`]; `weights` must hold one
    /// weight per matrix.
    pub fn combine_weighted(
        matrices: &[&CommitmentMatrix],
        weights: &[Scalar],
    ) -> Result<CommitmentMatrix, CommitmentError> {
        if weights.len() != matrices.len() {
            return Err(CommitmentError::DimensionMismatch);
        }
        Self::combine_cells(matrices, |cells| {
            let sets: Vec<Vec<GroupElement>> = cells
                .iter()
                .map(|&(j, l)| matrices.iter().map(|m| m.entries[j][l]).collect())
                .collect();
            multiexp_many(&sets, weights)
        })
    }

    /// The walk both combines share: checks that `matrices` is non-empty and
    /// of one dimension, asks `values` for the combined entry of every cell
    /// `(j, ℓ)` it lists, and assembles the matrix. When every input
    /// `is_symmetric()` so is any entry-wise combination of them, so the
    /// cells are the lower triangle `ℓ ≤ j` and each value is mirrored to
    /// `(ℓ, j)`; otherwise the cells are all `(t+1)²` entries, each written
    /// once.
    fn combine_cells(
        matrices: &[&CommitmentMatrix],
        values: impl FnOnce(&[(usize, usize)]) -> Vec<GroupElement>,
    ) -> Result<CommitmentMatrix, CommitmentError> {
        let first = matrices.first().ok_or(CommitmentError::Empty)?;
        let t = first.threshold();
        if matrices.iter().any(|m| m.threshold() != t) {
            return Err(CommitmentError::DimensionMismatch);
        }
        let symmetric = matrices.iter().all(|m| m.is_symmetric());
        let cells: Vec<(usize, usize)> = (0..=t)
            .flat_map(|j| (0..=t).map(move |l| (j, l)))
            .filter(|&(j, l)| !symmetric || l <= j)
            .collect();
        let mut entries = vec![vec![GroupElement::identity(); t + 1]; t + 1];
        for (&(j, l), value) in cells.iter().zip(values(&cells)) {
            entries[j][l] = value;
            if symmetric {
                entries[l][j] = value;
            }
        }
        Ok(CommitmentMatrix { entries })
    }

    /// The column-0 commitment vector `(C_{00}, …, C_{t0})`, i.e. the Feldman
    /// commitment to the univariate share polynomial `f(x, 0)`. Share renewal
    /// and node addition build their `V_ℓ` vectors from these columns.
    pub fn share_polynomial_commitment(&self) -> CommitmentVector {
        let t = self.threshold();
        CommitmentVector {
            entries: (0..=t).map(|j| self.entries[j][0]).collect(),
        }
    }

    /// Serialized size in bytes (each entry is a 33-byte compressed point),
    /// used for communication-complexity accounting in the experiments.
    pub fn encoded_len(&self) -> usize {
        let dim = self.entries.len();
        dim * dim * 33
    }

    /// Serializes the matrix (row-major compressed points) for hashing.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        for row in &self.entries {
            for e in row {
                out.extend_from_slice(&e.to_bytes());
            }
        }
        out
    }
}

/// A Feldman commitment vector `V_ℓ = g^{a_ℓ}` to a univariate polynomial.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommitmentVector {
    entries: Vec<GroupElement>,
}

impl CommitmentVector {
    /// Commits to a univariate polynomial (one batched affine
    /// normalisation for all `t+1` entries, like `CommitmentMatrix`).
    pub fn commit(poly: &Univariate) -> Self {
        CommitmentVector {
            entries: generator_table().mul_batch(poly.coefficients()),
        }
    }

    /// Builds a vector from raw entries (untrusted input). Returns `None`
    /// for an empty vector.
    pub fn from_entries(entries: Vec<GroupElement>) -> Option<Self> {
        if entries.is_empty() {
            None
        } else {
            Some(CommitmentVector { entries })
        }
    }

    /// The committed polynomial degree.
    pub fn degree(&self) -> usize {
        self.entries.len() - 1
    }

    /// The entries `V_0, …, V_t`.
    pub fn entries(&self) -> &[GroupElement] {
        &self.entries
    }

    /// The commitment to the constant term (`g^{a_0}`).
    pub fn public_key(&self) -> GroupElement {
        self.entries[0]
    }

    /// Verifies that `share` is the evaluation of the committed polynomial at
    /// node index `i`: `g^{share} = Π_ℓ V_ℓ^{i^ℓ}`.
    pub fn verify_share(&self, i: u64, share: Scalar) -> bool {
        GroupElement::commit(&share) == self.evaluate_in_exponent(i)
    }

    /// Computes `Π_ℓ V_ℓ^{i^ℓ} = g^{a(i)}` without knowing the polynomial.
    pub fn evaluate_in_exponent(&self, i: u64) -> GroupElement {
        multiexp_powers(&self.entries, Scalar::from_u64(i))
    }

    /// Combines vectors with Lagrange weights: `V_ℓ = Π_d (V_{d,ℓ})^{λ_d}`.
    /// This is the commitment update rule of the share-renewal and
    /// node-addition protocols (§5.2, §6.2).
    pub fn combine_weighted(
        vectors: &[(&CommitmentVector, Scalar)],
    ) -> Result<CommitmentVector, CommitmentError> {
        let first = vectors.first().ok_or(CommitmentError::Empty)?;
        let degree = first.0.degree();
        if vectors.iter().any(|(v, _)| v.degree() != degree) {
            return Err(CommitmentError::DimensionMismatch);
        }
        let sets: Vec<Vec<GroupElement>> = (0..=degree)
            .map(|l| vectors.iter().map(|(v, _)| v.entries[l]).collect())
            .collect();
        let weights: Vec<Scalar> = vectors.iter().map(|&(_, w)| w).collect();
        Ok(CommitmentVector {
            entries: multiexp_many(&sets, &weights),
        })
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.entries.len() * 33
    }

    /// Serializes the vector (compressed points) for hashing.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        for e in &self.entries {
            out.extend_from_slice(&e.to_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    fn sample(t: usize, secret: u64, r: &mut StdRng) -> (SymmetricBivariate, CommitmentMatrix) {
        let f = SymmetricBivariate::random_with_secret(r, t, Scalar::from_u64(secret));
        let c = CommitmentMatrix::commit(&f);
        (f, c)
    }

    #[test]
    fn verify_poly_accepts_honest_rows() {
        let mut r = rng();
        let (f, c) = sample(3, 17, &mut r);
        for i in 1..=6u64 {
            assert!(c.verify_poly(i, &f.row(i)), "row {i}");
        }
    }

    #[test]
    fn verify_poly_rejects_wrong_rows() {
        let mut r = rng();
        let (f, c) = sample(3, 17, &mut r);
        // Row for the wrong index.
        assert!(!c.verify_poly(2, &f.row(3)));
        // Tampered coefficient.
        let mut coeffs = f.row(2).coefficients().to_vec();
        coeffs[1] += Scalar::one();
        assert!(!c.verify_poly(2, &Univariate::from_coefficients(coeffs)));
        // Wrong degree.
        assert!(!c.verify_poly(2, &Univariate::zero(5)));
    }

    #[test]
    fn verify_point_accepts_honest_points() {
        let mut r = rng();
        let (f, c) = sample(2, 5, &mut r);
        for i in 1..=4u64 {
            for m in 1..=4u64 {
                let alpha = f.evaluate(Scalar::from_u64(m), Scalar::from_u64(i));
                assert!(c.verify_point(i, m, alpha));
            }
        }
    }

    #[test]
    fn verify_point_rejects_wrong_points() {
        let mut r = rng();
        let (f, c) = sample(2, 5, &mut r);
        let alpha = f.evaluate(Scalar::from_u64(3), Scalar::from_u64(2));
        assert!(!c.verify_point(2, 3, alpha + Scalar::one()));
        assert!(!c.verify_point(3, 2, alpha + Scalar::one()));
    }

    #[test]
    fn share_commitment_matches_row_constant_term() {
        let mut r = rng();
        let (f, c) = sample(3, 12345, &mut r);
        for i in 1..=5u64 {
            let share = f.row(i).constant_term();
            assert_eq!(c.share_commitment(i), GroupElement::commit(&share));
        }
    }

    #[test]
    fn public_key_commits_to_secret() {
        let mut r = rng();
        let (f, c) = sample(4, 999, &mut r);
        assert_eq!(c.public_key(), GroupElement::commit(&f.secret()));
    }

    #[test]
    fn combine_is_entrywise_product() {
        let mut r = rng();
        let (f1, c1) = sample(2, 10, &mut r);
        let (f2, c2) = sample(2, 20, &mut r);
        let combined = CommitmentMatrix::combine(&[&c1, &c2]).unwrap();
        // The combined matrix commits to the sum polynomial.
        assert_eq!(
            combined.public_key(),
            GroupElement::commit(&(f1.secret() + f2.secret()))
        );
        for i in 1..=3u64 {
            let share_sum = f1.row(i).constant_term() + f2.row(i).constant_term();
            assert_eq!(
                combined.share_commitment(i),
                GroupElement::commit(&share_sum)
            );
        }
    }

    #[test]
    fn combine_rejects_mismatched_dimensions() {
        let mut r = rng();
        let (_, c1) = sample(2, 1, &mut r);
        let (_, c2) = sample(3, 1, &mut r);
        assert_eq!(
            CommitmentMatrix::combine(&[&c1, &c2]),
            Err(CommitmentError::DimensionMismatch)
        );
        assert_eq!(CommitmentMatrix::combine(&[]), Err(CommitmentError::Empty));
        let two = [Scalar::one(), Scalar::one()];
        assert_eq!(
            CommitmentMatrix::combine_weighted(&[&c1, &c2], &two),
            Err(CommitmentError::DimensionMismatch)
        );
        assert_eq!(
            CommitmentMatrix::combine_weighted(&[&c1], &two),
            Err(CommitmentError::DimensionMismatch)
        );
        assert_eq!(
            CommitmentMatrix::combine_weighted(&[], &[]),
            Err(CommitmentError::Empty)
        );
    }

    #[test]
    fn combine_weighted_interpolates_the_dealt_polynomials() {
        // Renewal rule on matrices: Π_d (C_d)^{λ_d} commits to
        // Σ_d λ_d · f_d(x, y), checked on every row through verify-poly.
        let mut r = rng();
        let dealt: Vec<_> = (0..3).map(|s| sample(2, 40 + s, &mut r)).collect();
        let indices = [2u64, 5, 6];
        let weights: Vec<Scalar> = indices
            .iter()
            .map(|&d| Scalar::lagrange_coefficient(&indices, d, Scalar::zero()).unwrap())
            .collect();
        let matrices: Vec<&CommitmentMatrix> = dealt.iter().map(|(_, c)| c).collect();
        let combined = CommitmentMatrix::combine_weighted(&matrices, &weights).unwrap();
        assert!(combined.is_symmetric());
        for i in 1..=4u64 {
            let row = dealt
                .iter()
                .zip(&weights)
                .map(|((f, _), w)| f.row(i).scale(*w))
                .reduce(|a, b| a.add(&b))
                .unwrap();
            assert!(combined.verify_poly(i, &row), "row {i}");
        }
    }

    #[test]
    fn from_entries_validates_shape() {
        assert!(CommitmentMatrix::from_entries(vec![]).is_none());
        assert!(CommitmentMatrix::from_entries(vec![
            vec![GroupElement::generator()],
            vec![GroupElement::generator()]
        ])
        .is_none());
        assert!(CommitmentMatrix::from_entries(vec![vec![GroupElement::generator()]]).is_some());
    }

    #[test]
    fn commitment_vector_verifies_shares() {
        let mut r = rng();
        let poly = Univariate::random(&mut r, 3);
        let v = CommitmentVector::commit(&poly);
        for i in 1..=5u64 {
            assert!(v.verify_share(i, poly.evaluate_at_index(i)));
            assert!(!v.verify_share(i, poly.evaluate_at_index(i) + Scalar::one()));
        }
        assert_eq!(v.public_key(), GroupElement::commit(&poly.constant_term()));
        assert_eq!(v.degree(), 3);
    }

    #[test]
    fn commitment_vector_weighted_combination() {
        // Renewal rule: new commitment = Π_d (V_d)^{λ_d} where the λ are
        // Lagrange coefficients for index 0. Check it against the directly
        // computed renewed polynomial commitment.
        let mut r = rng();
        let polys: Vec<Univariate> = (0..3).map(|_| Univariate::random(&mut r, 2)).collect();
        let vectors: Vec<CommitmentVector> = polys.iter().map(CommitmentVector::commit).collect();
        let indices = [1u64, 2, 3];
        let weighted: Vec<(&CommitmentVector, Scalar)> = vectors
            .iter()
            .zip(indices)
            .map(|(v, idx)| {
                (
                    v,
                    Scalar::lagrange_coefficient(&indices, idx, Scalar::zero()).unwrap(),
                )
            })
            .collect();
        let combined = CommitmentVector::combine_weighted(&weighted).unwrap();
        // The combined vector commits to Σ_d λ_d · p_d(x).
        let mut expected_secret = Scalar::zero();
        for (poly, idx) in polys.iter().zip(indices) {
            let lambda = Scalar::lagrange_coefficient(&indices, idx, Scalar::zero()).unwrap();
            expected_secret += lambda * poly.constant_term();
        }
        assert_eq!(
            combined.public_key(),
            GroupElement::commit(&expected_secret)
        );
    }

    #[test]
    fn encoded_lengths() {
        let mut r = rng();
        let (_, c) = sample(3, 1, &mut r);
        assert_eq!(c.encoded_len(), 16 * 33);
        assert_eq!(c.to_bytes().len(), c.encoded_len());
        let v = c.share_polynomial_commitment();
        assert_eq!(v.encoded_len(), 4 * 33);
        assert_eq!(v.to_bytes().len(), v.encoded_len());
    }
}
