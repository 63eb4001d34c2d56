//! Property-based tests for polynomial algebra and Feldman commitments.

use dkg_arith::{GroupElement, PrimeField, Scalar};
use dkg_poly::{
    interpolate_secret, verify_points_batch, verify_vector_shares_batch, CommitmentMatrix,
    CommitmentVector, CryptoJob, SymmetricBivariate, Univariate,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scalar_from(seed: u64) -> Scalar {
    Scalar::from_u64(seed)
}

/// The `(m, f(m, i))` claims verifier `i` receives from senders `1..=n`.
fn honest_claims(f: &SymmetricBivariate, i: u64, n: usize) -> Vec<(u64, Scalar)> {
    (1..=n as u64)
        .map(|m| (m, f.evaluate(Scalar::from_u64(m), Scalar::from_u64(i))))
        .collect()
}

/// Any `(t+1) × (t+1)` coefficients `c_{jℓ}`, committed entry by entry:
/// the "polynomial" `g(x, y) = Σ c_{jℓ} x^j y^ℓ` is not symmetric.
fn arbitrary_matrix(rng: &mut StdRng, t: usize) -> (Vec<Vec<Scalar>>, CommitmentMatrix) {
    let coefficients: Vec<Vec<Scalar>> = (0..=t)
        .map(|_| (0..=t).map(|_| Scalar::random(rng)).collect())
        .collect();
    let entries = coefficients
        .iter()
        .map(|row| row.iter().map(GroupElement::commit).collect())
        .collect();
    let matrix = CommitmentMatrix::from_entries(entries).expect("square");
    (coefficients, matrix)
}

/// `g(x, y)` for the coefficients of [`arbitrary_matrix`].
fn evaluate_bivariate(coefficients: &[Vec<Scalar>], x: Scalar, y: Scalar) -> Scalar {
    coefficients.iter().rev().fold(Scalar::zero(), |acc, row| {
        acc * x
            + row
                .iter()
                .rev()
                .fold(Scalar::zero(), |inner, &c| inner * y + c)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any t+1 distinct shares of a degree-t polynomial reconstruct the
    /// secret; this is the core Shamir property the whole system rests on.
    #[test]
    fn shares_reconstruct_secret(
        seed in any::<u64>(),
        t in 1usize..6,
        secret in any::<u64>(),
        offset in 1u64..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = Univariate::random_with_constant(&mut rng, t, scalar_from(secret));
        let shares: Vec<(u64, Scalar)> = (0..=t as u64)
            .map(|k| {
                let idx = offset + 2 * k; // distinct, not necessarily contiguous
                (idx, poly.evaluate_at_index(idx))
            })
            .collect();
        prop_assert_eq!(interpolate_secret(&shares), Some(scalar_from(secret)));
    }

    /// Fewer than t+1 shares give no information: interpolating t shares of a
    /// degree-t polynomial yields the wrong secret except with negligible
    /// probability (here: just assert it doesn't panic and returns a value,
    /// and that adding the missing share fixes it).
    #[test]
    fn too_few_shares_do_not_reconstruct(seed in any::<u64>(), t in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = Univariate::random(&mut rng, t);
        let shares: Vec<(u64, Scalar)> =
            (1..=t as u64).map(|i| (i, poly.evaluate_at_index(i))).collect();
        let guess = interpolate_secret(&shares).unwrap();
        // With overwhelming probability the degree-(t-1) fit misses.
        prop_assume!(guess != poly.constant_term());
        let mut full = shares.clone();
        full.push((t as u64 + 1, poly.evaluate_at_index(t as u64 + 1)));
        prop_assert_eq!(interpolate_secret(&full), Some(poly.constant_term()));
    }

    /// The dealer's symmetric polynomial satisfies f(x,y) = f(y,x) and its
    /// rows cross-verify, for arbitrary parameters.
    #[test]
    fn bivariate_symmetry(seed in any::<u64>(), t in 1usize..5, secret in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, scalar_from(secret));
        for i in 1..=(t as u64 + 2) {
            for m in 1..=(t as u64 + 2) {
                prop_assert_eq!(
                    f.row(i).evaluate_at_index(m),
                    f.row(m).evaluate_at_index(i)
                );
            }
        }
    }

    /// verify-poly accepts exactly the dealer's rows (completeness) and
    /// rejects rows for a different index (soundness, overwhelming prob.).
    #[test]
    fn verify_poly_completeness_and_soundness(
        seed in any::<u64>(), t in 1usize..4, i in 1u64..8, j in 1u64..8
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = Scalar::random(&mut rng);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let c = CommitmentMatrix::commit(&f);
        prop_assert!(c.verify_poly(i, &f.row(i)));
        if i != j {
            prop_assert!(!c.verify_poly(i, &f.row(j)));
        }
    }

    /// verify-point accepts exactly the true evaluations.
    #[test]
    fn verify_point_completeness_and_soundness(
        seed in any::<u64>(), t in 1usize..4, i in 1u64..6, m in 1u64..6
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = Scalar::random(&mut rng);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let c = CommitmentMatrix::commit(&f);
        let alpha = f.evaluate(Scalar::from_u64(m), Scalar::from_u64(i));
        prop_assert!(c.verify_point(i, m, alpha));
        prop_assert!(!c.verify_point(i, m, alpha + Scalar::one()));
    }

    /// Summing dealers' polynomials and multiplying their commitment matrices
    /// entry-wise stay consistent — the DKG share/commitment aggregation.
    #[test]
    fn aggregation_consistency(seed in any::<u64>(), t in 1usize..4, dealers in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let polys: Vec<SymmetricBivariate> = (0..dealers)
            .map(|_| {
                let secret = Scalar::random(&mut rng);
                SymmetricBivariate::random_with_secret(&mut rng, t, secret)
            })
            .collect();
        let matrices: Vec<CommitmentMatrix> = polys.iter().map(CommitmentMatrix::commit).collect();
        let refs: Vec<&CommitmentMatrix> = matrices.iter().collect();
        let combined = CommitmentMatrix::combine(&refs).unwrap();
        for i in 1..=(t as u64 + 1) {
            let share_sum: Scalar = polys.iter().map(|f| f.row(i).constant_term()).sum();
            prop_assert!(combined.share_commitment(i) == dkg_arith::GroupElement::commit(&share_sum));
        }
    }

    /// Both combines, entry by entry, against the naive product computed one
    /// term at a time — `Σ_d (C_d)_{jℓ}` and `Σ_d λ_d·(C_d)_{jℓ}` — on
    /// honest (symmetric) matrices, whose lower triangle is mirrored, and
    /// with one matrix's transposed pair disturbed, which makes every entry
    /// computed on its own: a mirror that wrote `(ℓ, j)` regardless would
    /// leave `(0, t)` holding `(t, 0)`'s product.
    #[test]
    fn combines_match_the_naive_product_on_asymmetric_input(
        seed in any::<u64>(), t in 1usize..5, dealers in 1usize..5, disturbed in any::<usize>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let honest: Vec<CommitmentMatrix> = (0..dealers)
            .map(|_| {
                let secret = Scalar::random(&mut rng);
                CommitmentMatrix::commit(&SymmetricBivariate::random_with_secret(&mut rng, t, secret))
            })
            .collect();
        let weights: Vec<Scalar> = (0..dealers).map(|_| Scalar::random(&mut rng)).collect();
        let mut asymmetric = honest.clone();
        let one = &mut asymmetric[disturbed % dealers];
        let mut entries = one.entries().to_vec();
        entries[t][0] += GroupElement::generator();
        *one = CommitmentMatrix::from_entries(entries).expect("square");

        for matrices in [honest, asymmetric] {
            let refs: Vec<&CommitmentMatrix> = matrices.iter().collect();
            let sum = CommitmentMatrix::combine(&refs).unwrap();
            let weighted = CommitmentMatrix::combine_weighted(&refs, &weights).unwrap();
            let symmetric = refs.iter().all(|m| m.is_symmetric());
            prop_assert_eq!(sum.is_symmetric(), symmetric);
            prop_assert_eq!(weighted.is_symmetric(), symmetric);
            for j in 0..=t {
                for l in 0..=t {
                    let terms: Vec<GroupElement> = refs.iter().map(|m| m.entry(j, l)).collect();
                    prop_assert_eq!(sum.entry(j, l), terms.iter().copied().sum::<GroupElement>());
                    let product: GroupElement =
                        terms.iter().zip(&weights).map(|(p, w)| p.mul(w)).sum();
                    prop_assert_eq!(weighted.entry(j, l), product);
                }
            }
        }
    }

    /// Commitment vectors verify exactly the committed polynomial's values.
    #[test]
    fn commitment_vector_share_verification(seed in any::<u64>(), t in 1usize..5, i in 1u64..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = Univariate::random(&mut rng, t);
        let v = CommitmentVector::commit(&poly);
        prop_assert!(v.verify_share(i, poly.evaluate_at_index(i)));
        prop_assert!(!v.verify_share(i, poly.evaluate_at_index(i) + Scalar::one()));
    }

    /// The row projection regroups `verify-point`'s product and nothing
    /// else: on honest matrices and on arbitrary (non-symmetric) ones, for
    /// the true evaluation, an off-by-one and a random value, both
    /// predicates give the same answer.
    #[test]
    fn projection_agrees_with_verify_point(
        seed in any::<u64>(), t in 1usize..4, i in 1u64..9, m in 1u64..9
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (xi, xm) = (Scalar::from_u64(i), Scalar::from_u64(m));
        let secret = Scalar::random(&mut rng);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let honest = (CommitmentMatrix::commit(&f), f.evaluate(xm, xi));
        let (coefficients, matrix) = arbitrary_matrix(&mut rng, t);
        let arbitrary = (matrix, evaluate_bivariate(&coefficients, xm, xi));
        prop_assert!(arbitrary.0.entry(0, 1) != arbitrary.0.entry(1, 0));

        for (c, alpha) in [honest, arbitrary] {
            let projection = c.project(i);
            prop_assert_eq!(projection.degree(), t);
            prop_assert!(c.verify_point(i, m, alpha));
            for candidate in [alpha, alpha + Scalar::one(), Scalar::random(&mut rng)] {
                prop_assert_eq!(
                    projection.verify_share(m, candidate),
                    c.verify_point(i, m, candidate)
                );
            }
        }
    }

    /// Under a symmetric matrix the field test a node runs once it holds
    /// its row — `row(i)(m) == α` — is the same predicate as `verify-point`
    /// and as the projected check, for every verifier, every sender and the
    /// true evaluation, an off-by-one and a random value.
    #[test]
    fn field_check_is_the_group_check_under_a_symmetric_matrix(
        seed in any::<u64>(), t in 1usize..4
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = Scalar::random(&mut rng);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let c = CommitmentMatrix::commit(&f);
        prop_assert!(c.is_symmetric());
        let n = t as u64 + 3;
        for i in 1..=n {
            let row = f.row(i);
            prop_assert!(c.verify_poly(i, &row));
            let projection = c.project(i);
            // verify-poly ties the row to the projection entry by entry.
            prop_assert_eq!(&CommitmentVector::commit(&row), &projection);
            for m in 1..=n {
                let alpha = f.evaluate(Scalar::from_u64(m), Scalar::from_u64(i));
                for candidate in [alpha, alpha + Scalar::one(), Scalar::random(&mut rng)] {
                    let in_field = row.evaluate_at_index(m) == candidate;
                    prop_assert_eq!(in_field, candidate == alpha);
                    prop_assert_eq!(in_field, c.verify_point(i, m, candidate));
                    prop_assert_eq!(in_field, projection.verify_share(m, candidate));
                }
            }
        }
    }

    /// What `is_symmetric` gates. A matrix committing to a non-symmetric
    /// `g(x, y)` still has a row that passes `verify-poly` for verifier `i`
    /// — `g(i, ·)`, bound to the *column* products — while `verify-point`
    /// accepts `g(m, i)`. The field test against that row would accept
    /// `g(i, m)` instead, so it must not be used; `is_symmetric` says so,
    /// and says so for a single disturbed transposed pair.
    #[test]
    fn asymmetric_matrices_are_detected_and_would_mislead_the_field_check(
        seed in any::<u64>(), t in 1usize..4, i in 1u64..9, m in 1u64..9
    ) {
        prop_assume!(i != m);
        let mut rng = StdRng::seed_from_u64(seed);
        let (xi, xm) = (Scalar::from_u64(i), Scalar::from_u64(m));
        let (coefficients, c) = arbitrary_matrix(&mut rng, t);
        let g = |x, y| evaluate_bivariate(&coefficients, x, y);
        prop_assert!(!c.is_symmetric());

        // a_ℓ = Σ_j c_{jℓ} i^j, the coefficients of g(i, ·).
        let row = Univariate::from_coefficients(
            (0..=t)
                .map(|l| coefficients.iter().rev().fold(Scalar::zero(), |acc, r| acc * xi + r[l]))
                .collect(),
        );
        prop_assert!(c.verify_poly(i, &row));
        prop_assert_eq!(row.evaluate_at_index(m), g(xi, xm));
        prop_assume!(g(xi, xm) != g(xm, xi));
        prop_assert!(c.verify_point(i, m, g(xm, xi)));
        prop_assert!(!c.verify_point(i, m, row.evaluate_at_index(m)));

        // One transposed pair of an honest matrix disturbed.
        let secret = Scalar::random(&mut rng);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let honest = CommitmentMatrix::commit(&f);
        let mut entries = honest.entries().to_vec();
        entries[t][0] += GroupElement::generator();
        let disturbed = CommitmentMatrix::from_entries(entries).expect("square");
        prop_assert!(honest.is_symmetric());
        prop_assert!(!disturbed.is_symmetric());
    }

    /// Batched verification accepts exactly when every per-share
    /// `verify-point` accepts: complete agreement on honest batches.
    #[test]
    fn batch_accepts_iff_individual_accepts(
        seed in any::<u64>(), t in 1usize..4, i in 1u64..8, n in 1usize..12
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = Scalar::random(&mut rng);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let c = CommitmentMatrix::commit(&f);
        let claims = honest_claims(&f, i, n);
        prop_assert!(claims.iter().all(|&(m, alpha)| c.verify_point(i, m, alpha)));
        prop_assert!(verify_points_batch(&c.project(i), &claims));
    }

    /// A single corrupted tuple makes the batch reject — the RLC fold must
    /// not mask a bad share behind good ones — and per-share verification
    /// pinpoints exactly the corrupted tuple.
    #[test]
    fn batch_rejects_single_corrupted_share(
        seed in any::<u64>(),
        t in 1usize..4,
        i in 1u64..8,
        n in 1usize..10,
        bad in any::<usize>(),
        delta in 1u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = Scalar::random(&mut rng);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let c = CommitmentMatrix::commit(&f);
        let mut claims = honest_claims(&f, i, n);
        let bad = bad % n;
        claims[bad].1 += Scalar::from_u64(delta);
        prop_assert!(!verify_points_batch(&c.project(i), &claims));
        for (k, &(m, alpha)) in claims.iter().enumerate() {
            prop_assert_eq!(c.verify_point(i, m, alpha), k != bad);
        }
    }

    /// The point-batch job's verdict is, bit for bit, what Fig. 1's
    /// `verify-point` says about each claim: for an all-good batch, with one
    /// bad claim at every position, and with every claim bad.
    #[test]
    fn point_batch_verdicts_match_the_per_claim_oracle(
        seed in any::<u64>(), t in 1usize..4, i in 1u64..8, n in 1usize..7
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = Scalar::random(&mut rng);
        let f = SymmetricBivariate::random_with_secret(&mut rng, t, secret);
        let c = CommitmentMatrix::commit(&f);
        let projection = std::sync::Arc::new(c.project(i));
        let good = honest_claims(&f, i, n);
        let all_bad: Vec<(u64, Scalar)> =
            good.iter().map(|&(m, alpha)| (m, alpha + Scalar::one())).collect();
        let mut batches = vec![good.clone(), all_bad];
        for bad in 0..n {
            let mut claims = good.clone();
            claims[bad].1 = Scalar::random(&mut rng);
            batches.push(claims);
        }
        for (k, claims) in batches.into_iter().enumerate() {
            let oracle: Vec<bool> =
                claims.iter().map(|&(m, alpha)| c.verify_point(i, m, alpha)).collect();
            match k {
                0 => prop_assert!(oracle.iter().all(|&ok| ok)),
                1 => prop_assert!(oracle.iter().all(|&ok| !ok)),
                _ => prop_assert_eq!(oracle.iter().filter(|&&ok| !ok).count(), 1),
            }
            let job = CryptoJob::point_batch(projection.clone(), claims);
            prop_assert_eq!(job.run().valid, oracle);
        }
    }

    /// The univariate (commitment-vector) batch agrees with `verify_share`
    /// on valid shares and rejects any single corruption.
    #[test]
    fn vector_batch_agrees_with_verify_share(
        seed in any::<u64>(), t in 1usize..5, n in 1usize..10, bad in any::<usize>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let poly = Univariate::random(&mut rng, t);
        let v = CommitmentVector::commit(&poly);
        let shares: Vec<(u64, Scalar)> = (1..=n as u64)
            .map(|idx| (idx, poly.evaluate_at_index(idx)))
            .collect();
        prop_assert!(verify_vector_shares_batch(&v, &shares));
        let mut corrupted = shares.clone();
        corrupted[bad % n].1 += Scalar::one();
        prop_assert!(!verify_vector_shares_batch(&v, &corrupted));
    }
}
