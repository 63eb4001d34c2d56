//! Tests for the batched arithmetic paths: Montgomery-trick batch
//! inversion, batched affine normalisation, the multiexp window sweep
//! (every window-width crossover against the per-point sum, and pinned op
//! counts), and `multiexp_many`'s shared-scalar sets against the per-point
//! sum. There is no parallel path: a multiexp runs on the calling thread.

use dkg_arith::{
    multiexp, ops, pippenger_window, Fp, GroupElement, OpCount, PrimeField, ProjectivePoint, Scalar,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    any::<[u64; 4]>().prop_map(|limbs| Scalar::from_u256(dkg_arith::U256::from_limbs(limbs)))
}

fn arb_fp() -> impl Strategy<Value = Fp> {
    any::<[u64; 4]>().prop_map(|limbs| Fp::from_u256(dkg_arith::U256::from_limbs(limbs)))
}

/// Scalars with zeros injected at pseudo-random positions (derived from the
/// generated values, since the shim has no tuple strategies), so batch
/// inversion's skip path is exercised in the middle of batches, not just at
/// the edges.
fn arb_scalars_with_zeros() -> impl Strategy<Value = Vec<Scalar>> {
    proptest::collection::vec(arb_scalar(), 0..24).prop_map(|scalars| {
        scalars
            .into_iter()
            .map(|s| {
                if s.to_be_bytes()[31] % 3 == 0 {
                    Scalar::zero()
                } else {
                    s
                }
            })
            .collect()
    })
}

fn arb_projective() -> impl Strategy<Value = ProjectivePoint> {
    // Mix of identity representations and accumulated (z != 1) points,
    // selected by a byte of the generated scalar.
    arb_scalar().prop_map(|s| {
        if s.to_be_bytes()[30] % 4 == 0 {
            ProjectivePoint::identity()
        } else {
            ProjectivePoint::generator().mul_scalar(&s).double()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scalar_batch_invert_matches_elementwise(values in arb_scalars_with_zeros()) {
        let batch = Scalar::batch_invert(&values);
        prop_assert_eq!(batch.len(), values.len());
        for (v, inv) in values.iter().zip(batch) {
            prop_assert_eq!(inv, v.invert());
        }
    }

    #[test]
    fn fp_batch_invert_matches_elementwise(values in proptest::collection::vec(arb_fp(), 0..16)) {
        let batch = Fp::batch_invert(&values);
        for (v, inv) in values.iter().zip(batch) {
            prop_assert_eq!(inv, v.invert());
        }
    }

    #[test]
    fn batch_to_affine_matches_per_point(points in proptest::collection::vec(arb_projective(), 0..16)) {
        let batch = ProjectivePoint::batch_to_affine(&points);
        prop_assert_eq!(batch.len(), points.len());
        for (p, affine) in points.iter().zip(batch) {
            prop_assert_eq!(affine, p.to_affine());
        }
    }
}

#[test]
fn all_zero_batch_inverts_to_all_none() {
    let zeros = vec![Scalar::zero(); 7];
    assert!(Scalar::batch_invert(&zeros).iter().all(Option::is_none));
}

#[test]
fn batch_invert_empty_input() {
    assert!(Scalar::batch_invert(&[]).is_empty());
    assert!(Fp::batch_invert(&[]).is_empty());
}

/// Sizes 0, 1, 2 and both sides of every window crossover up to 244, each
/// against the naive per-point sum `Σ p_i·s_i`.
#[test]
fn multiexp_bit_identity_at_crossover_boundaries() {
    let mut sizes = vec![0usize, 1, 2];
    for n in [3usize, 11, 33, 109, 244] {
        sizes.push(n - 1);
        sizes.push(n);
    }
    for n in sizes {
        let scalars: Vec<Scalar> = (0..n)
            .map(|i| Scalar::from_u64(0x9E37_79B9 ^ (i as u64 * 0x85EB_CA6B + 1)))
            .collect();
        let points: Vec<GroupElement> = (0..n)
            .map(|i| GroupElement::commit(&Scalar::from_u64(i as u64 + 1)))
            .collect();
        // Window width changes exactly at the tabled crossovers.
        if n > 0 {
            assert!(pippenger_window(n) >= pippenger_window(n - 1), "n={n}");
        }
        let naive: GroupElement = points.iter().zip(&scalars).map(|(p, s)| p.mul(s)).sum();
        assert_eq!(
            multiexp(&points, &scalars).to_bytes(),
            naive.to_bytes(),
            "n={n}"
        );
    }
}

/// `Σ_d s_d · P_d` one term at a time: the oracle for `multiexp_many`.
fn naive(points: &[GroupElement], scalars: &[Scalar]) -> GroupElement {
    points.iter().zip(scalars).map(|(p, s)| p.mul(s)).sum()
}

/// Scalars whose digits stress the NAF recoding: 0, 1, −1, q − 1 (the same
/// residue as −1, built from the modulus), q − 2, 2^255, small integers.
fn edge_scalars() -> Vec<Scalar> {
    let q = Scalar::modulus();
    vec![
        Scalar::zero(),
        Scalar::one(),
        -Scalar::one(),
        Scalar::from_u256(q.wrapping_sub(&dkg_arith::U256::ONE)),
        Scalar::from_u256(q.wrapping_sub(&dkg_arith::U256::from_u64(2))),
        Scalar::from_u256(dkg_arith::U256::ONE.shl(255)),
        Scalar::from_u64(2),
        Scalar::from_u64(15),
        Scalar::from_u64(16),
        Scalar::from_u64(17),
        Scalar::from_u64(31),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every set of `multiexp_many` against the naive sum, for every number
    /// of shared scalars from 0 to 9 (random, about half of them replaced
    /// by edge scalars) over one to four sets: random points, an identity
    /// point, a repeated point and a point beside its own negation.
    #[test]
    fn multiexp_many_matches_naive(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = edge_scalars();
        for m in 0..=9usize {
            let scalars: Vec<Scalar> = (0..m)
                .map(|d| match (seed >> d) & 1 {
                    1 => edges[(seed as usize + d) % edges.len()],
                    _ => Scalar::random(&mut rng),
                })
                .collect();
            let mut sets: Vec<Vec<GroupElement>> = (0..1 + (seed >> 16) % 4)
                .map(|_| (0..m).map(|_| GroupElement::random(&mut rng)).collect())
                .collect();
            if m >= 2 {
                sets[0][m - 1] = GroupElement::identity();
                if let Some(set) = sets.get_mut(1) {
                    set[1] = set[0];
                }
                if let Some(set) = sets.get_mut(2) {
                    set[1] = -set[0];
                }
            }
            let combined = dkg_arith::multiexp_many(&sets, &scalars);
            prop_assert_eq!(combined.len(), sets.len());
            for (set, sum) in sets.iter().zip(combined) {
                prop_assert_eq!(sum, naive(set, &scalars));
            }
        }
    }
}

/// The empty cases: no scalars gives the identity for every set, no sets
/// gives no outputs.
#[test]
fn multiexp_many_of_nothing() {
    let identities = dkg_arith::multiexp_many(&[vec![], vec![]], &[]);
    assert_eq!(identities, vec![GroupElement::identity(); 2]);
    assert!(dkg_arith::multiexp_many(&[], &edge_scalars()).is_empty());
}

/// A point repeated under equal digits meets itself in the accumulator:
/// the mixed addition takes its doubling branch. Likewise a point and its
/// negation cancel to the identity mid-chain. Every edge scalar is tried.
#[test]
fn multiexp_many_doubles_and_cancels_inside_a_set() {
    let mut rng = StdRng::seed_from_u64(17);
    let p = GroupElement::random(&mut rng);
    let q = GroupElement::random(&mut rng);
    for s in edge_scalars() {
        let scalars = [s, s, Scalar::from_u64(3)];
        let sets = vec![vec![p, p, q], vec![p, -p, q], vec![q, p, p]];
        let sums = dkg_arith::multiexp_many(&sets, &scalars);
        for (set, sum) in sets.iter().zip(sums) {
            assert_eq!(sum, naive(set, &scalars), "{s:?}");
        }
    }
}

#[test]
#[should_panic(expected = "one scalar per point of every set")]
fn multiexp_many_rejects_a_short_set() {
    let g = GroupElement::generator();
    let _ = dkg_arith::multiexp_many(&[vec![g, g], vec![g]], &[Scalar::one(), Scalar::one()]);
}

/// The exact group-operation count of the renewal combine's shape at
/// t = 4: the 15 lower-triangle entries of five agreed matrices under five
/// shared Lagrange weights, at under a third of the 25 five-point
/// Pippenger runs the full walk cost before.
#[test]
fn multiexp_many_op_count_is_pinned_for_the_renewal_shape() {
    let mut rng = StdRng::seed_from_u64(2009);
    let weights: Vec<Scalar> = (0..5).map(|_| Scalar::random(&mut rng)).collect();
    let sets: Vec<Vec<GroupElement>> = (0..15)
        .map(|_| (0..5).map(|_| GroupElement::random(&mut rng)).collect())
        .collect();
    let (_, counted) = ops::measure(|| dkg_arith::multiexp_many(&sets, &weights));
    assert_eq!(
        counted,
        OpCount {
            adds: 3_780,
            doubles: 3_915
        }
    );
    let (_, pippenger) = ops::measure(|| {
        for set in sets.iter().cycle().take(25) {
            multiexp(set, &weights);
        }
    });
    assert!(counted.total() * 3 < pippenger.total(), "{pippenger:?}");
}

/// The exact group-operation totals of the `multiexp` bench's seeded
/// instances (seed = n). A recoding or combine change that moved one
/// addition or doubling shows here.
#[test]
fn multiexp_op_counts_are_pinned() {
    for (n, adds, doubles) in [
        (64usize, 4_726, 254),
        (256, 13_443, 254),
        (1024, 42_063, 252),
    ] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let scalars: Vec<Scalar> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
        let points: Vec<GroupElement> = (0..n)
            .map(|_| GroupElement::commit(&Scalar::random(&mut rng)))
            .collect();
        let (_, counted) = ops::measure(|| multiexp(&points, &scalars));
        assert_eq!(counted, OpCount { adds, doubles }, "n={n}");
    }
}
