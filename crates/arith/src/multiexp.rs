//! Multi-exponentiation (multi-scalar multiplication).
//!
//! Commitment verification in the VSS layer repeatedly evaluates products of
//! the form `Π_j C_j^{e_j}` (e.g. `verify-poly` and `verify-point` in Fig. 1
//! of the paper). Evaluating each term separately costs one full scalar
//! multiplication per term; the Pippenger bucket method below shares the
//! doublings across all terms and is several times faster for the matrix
//! sizes that appear in practice (`t+1` up to a few dozen terms).
//!
//! ## Decomposition
//!
//! Pippenger splits each 256-bit scalar into `⌈256/c⌉` windows of `c` bits.
//! For one window `w`, every point whose window-`w` digit is `d ≠ 0` is
//! added into bucket `d`; the bucket sums are then folded with the
//! running-sum trick into the *window sum* `Σ_d d·bucket_d`, and the result
//! is the Horner combine `Σ_w 2^{cw} · windowsum_w` (c doublings per window
//! plus one addition), most significant window first. Everything runs on
//! the calling thread: the commitment columns and nonce sets the protocols
//! check are `t + 1` to `2(t + 1)` points, and the engine's job-level pool
//! already keeps the cores busy with whole checks.
//!
//! ## Window width
//!
//! The window width is chosen per input size from a group-operation cost
//! model ([`pippenger_cost`]) via a precomputed crossover table
//! ([`pippenger_window`]), replacing the old hand-tuned step function. A
//! unit test pins the table to the model's argmin.
//!
//! ## Many sets, one set of scalars
//!
//! [`multiexp_many`] is the second algorithm, for many products that share
//! their exponents: `Σ_d s_d · P_{k,d}` for every set `k`. A weighted
//! combination of commitments has this shape — the renewal combine raises
//! every entry `(j, ℓ)` of the agreed matrices to the same Lagrange
//! weights `λ_d`, and the node-addition combine every entry of the
//! commitment vectors. Pippenger pays its bucket set-up and a normalising
//! inversion per product and recodes the scalars each time; here the
//! scalars are recoded **once** into width-[`SHARED_WINDOW`] NAF (odd
//! signed digits, at least `w − 1` zeros between two of them), each point
//! gets a table of its odd multiples `P, 3P, …, 15P`, and all tables are
//! normalised to affine with one inversion. Each set is then one
//! interleaved (Straus) loop: 257 digit positions, each a doubling of one
//! accumulator plus a mixed addition of a table entry (negated for a
//! negative digit) for every non-zero digit. A last inversion normalises
//! all the outputs. [`shared_cost`] is the model; at five points a set
//! costs ≈ 510 group operations against Pippenger's ≈ 960.
//!
//! Which applies: [`multiexp`] for one product (a `verify-poly` column, a
//! projection row, a signing nonce set), [`multiexp_many`] for a batch of
//! products under one vector of scalars.

use crate::curve::{GroupElement, ProjectivePoint};
use crate::field::{PrimeField, Scalar};
use crate::u256::U256;

/// Computes `Σ_i [scalars_i] points_i` (written multiplicatively:
/// `Π_i points_i ^ scalars_i`).
///
/// Returns the identity element for empty input. Mismatched slice lengths
/// are a programming error and panic.
pub fn multiexp(points: &[GroupElement], scalars: &[Scalar]) -> GroupElement {
    assert_eq!(
        points.len(),
        scalars.len(),
        "multiexp requires one scalar per point"
    );
    match (points, scalars) {
        ([], _) => GroupElement::identity(),
        ([p], [s]) => p.mul(s),
        _ => multiexp_pippenger(points, scalars).to_affine(),
    }
}

/// Crossover table for [`pippenger_window`]: entry `(n, c)` means "from `n`
/// points (inclusive) the best window width is `c` bits". Derived as the
/// argmin of [`pippenger_cost`] over `c ∈ 1..=16`; `crossover_table_matches_
/// cost_model` pins it to the model.
const PIPPENGER_CROSSOVERS: &[(usize, usize)] = &[
    (1, 1),
    (3, 2),
    (11, 3),
    (33, 4),
    (109, 5),
    (244, 6),
    (664, 7),
    (1385, 8),
    (4440, 9),
    (7853, 10),
    (22531, 11),
    (40963, 12),
    (73731, 13),
    (294915, 14),
];

/// Group-operation cost model for an `n`-point Pippenger multiexp with a
/// `c`-bit window: each of the `⌈256/c⌉` windows pays at most `n` bucket
/// additions plus `2·(2^c − 1)` running-sum additions. The Horner combine
/// pays `c·⌈256/c⌉` doublings plus `⌈256/c⌉` additions, which the model
/// charges as a flat 256. Additions and doublings are close enough in cost
/// on this curve to weigh equally.
pub fn pippenger_cost(n: usize, c: usize) -> u64 {
    let windows = 256u64.div_ceil(c as u64);
    let buckets = (1u64 << c) - 1;
    windows * (n as u64 + 2 * buckets) + 256
}

/// The window width (in bits) minimising [`pippenger_cost`] for an
/// `n`-point multiexp, via the precomputed `PIPPENGER_CROSSOVERS` table.
pub fn pippenger_window(n: usize) -> usize {
    let mut window = 1;
    for &(from, c) in PIPPENGER_CROSSOVERS {
        if n >= from {
            window = c;
        } else {
            break;
        }
    }
    window
}

/// The bucket phase for the window of `c` bits at bit `start`: accumulates
/// each point into the bucket selected by its digit, then folds the buckets
/// into `Σ_d d·bucket_d` with the running-sum trick.
fn window_sum(
    points: &[GroupElement],
    scalars: &[U256],
    start: usize,
    c: usize,
) -> ProjectivePoint {
    let mut buckets = vec![ProjectivePoint::identity(); (1usize << c) - 1];
    for (point, k) in points.iter().zip(scalars) {
        let digit = k.window(start, c);
        if let Some(slot) = digit.checked_sub(1).and_then(|d| buckets.get_mut(d)) {
            *slot += *point;
        }
    }
    let mut running = ProjectivePoint::identity();
    let mut sum = ProjectivePoint::identity();
    for bucket in buckets.iter().rev() {
        running += *bucket;
        sum += running;
    }
    sum
}

/// Pippenger with the window width [`pippenger_window`] picks: each window
/// sum is computed once and folded into the Horner combine, most
/// significant window first (c doublings then one addition per window).
fn multiexp_pippenger(points: &[GroupElement], scalars: &[Scalar]) -> ProjectivePoint {
    let c = pippenger_window(points.len());
    let scalars: Vec<U256> = scalars.iter().map(Scalar::to_u256).collect();
    let mut result = ProjectivePoint::identity();
    for w in (0..256usize.div_ceil(c)).rev() {
        for _ in 0..c {
            result = result.double();
        }
        result += window_sum(points, &scalars, w * c, c);
    }
    result
}

/// Computes `Π_i points_i ^ (base^i)` for `i = 0..points.len()`, i.e. a
/// multi-exponentiation with successive powers of a fixed base. This is the
/// access pattern of every per-claim commitment check in `dkg-poly`:
/// `verify-poly`'s columns, the row projection, share commitments and
/// commitment-vector evaluation all raise their points to `1, x, x², …`.
pub fn multiexp_powers(points: &[GroupElement], base: Scalar) -> GroupElement {
    let mut scalars = Vec::with_capacity(points.len());
    let mut acc = Scalar::one();
    for _ in 0..points.len() {
        scalars.push(acc);
        acc *= base;
    }
    multiexp(points, &scalars)
}

/// The NAF width of [`multiexp_many`]: the argmin over `w` of
/// [`shared_cost`] for every set size from 1 to 128 (the model is linear in
/// the set size, so one width serves them all), pinned by
/// `shared_window_matches_cost_model`.
pub const SHARED_WINDOW: usize = 5;

/// The odd multiples `P, 3P, …, (2^{w−1} − 1)P` a width-`w` NAF digit
/// selects from.
const ODD_MULTIPLES: usize = 1 << (SHARED_WINDOW - 2);

/// Digit positions of a NAF of a 256-bit scalar: one more than its bits,
/// for the recoding's last carry.
const NAF_DIGITS: usize = 257;

/// A scalar recoded into width-[`SHARED_WINDOW`] NAF; entry `i` is the
/// digit of `2^i`.
type Naf = [i8; NAF_DIGITS];

/// Group-operation cost model for one `m`-point set of [`multiexp_many`]
/// with a `w`-bit NAF (`w ≥ 2`): `2^{w−2}` operations per point for its odd
/// multiples (a doubling, then additions), 256 doublings, and one mixed
/// addition per non-zero digit, at the NAF's density `1/(w + 1)` over 257
/// positions.
pub fn shared_cost(m: usize, w: usize) -> u64 {
    let m = m as u64;
    m * (1u64 << (w - 2)) + 256 + m * 257u64.div_ceil(w as u64 + 1)
}

/// Recodes `k` into width-[`SHARED_WINDOW`] NAF: `k = Σ_i naf_i · 2^i`, each
/// non-zero digit odd and in `(−2^{w−1}, 2^{w−1})`. A window whose top bit is
/// set becomes negative and carries one into the bits above it.
fn naf(k: &Scalar) -> Naf {
    let k = k.to_u256();
    let mut digits = [0i8; NAF_DIGITS];
    let mut carry = 0;
    let mut bit = 0;
    while bit < NAF_DIGITS {
        if k.window(bit, 1) == carry {
            bit += 1;
            continue;
        }
        let width = SHARED_WINDOW.min(NAF_DIGITS - bit);
        let word = k.window(bit, width) + carry;
        carry = (word >> (SHARED_WINDOW - 1)) & 1;
        if let Some(digit) = digits.get_mut(bit) {
            *digit = (word as i16 - ((carry as i16) << SHARED_WINDOW)) as i8;
        }
        bit += width;
    }
    digits
}

/// Computes `Σ_d scalars_d · sets_k,d` for every set `k` (written
/// multiplicatively: `Π_d sets_k,d ^ scalars_d`), each scalar recoded once
/// for all sets, one inversion for all the point tables and one for all the
/// outputs. Output order matches `sets`; each element equals what
/// [`multiexp`] returns for that set and `scalars`.
///
/// Empty `scalars` give the identity for every set. A set whose length is
/// not `scalars.len()` is a programming error and panics.
pub fn multiexp_many(sets: &[Vec<GroupElement>], scalars: &[Scalar]) -> Vec<GroupElement> {
    for set in sets {
        assert_eq!(
            set.len(),
            scalars.len(),
            "multiexp_many requires one scalar per point of every set"
        );
    }
    let digits: Vec<Naf> = scalars.iter().map(naf).collect();
    let mut multiples = Vec::with_capacity(sets.len() * scalars.len() * ODD_MULTIPLES);
    for point in sets.iter().flatten() {
        let mut odd = ProjectivePoint::from(*point);
        let twice = odd.double();
        multiples.push(odd);
        for _ in 1..ODD_MULTIPLES {
            odd += twice;
            multiples.push(odd);
        }
    }
    let tables = ProjectivePoint::batch_to_affine(&multiples);
    let mut tables = tables.chunks(ODD_MULTIPLES);
    let sums: Vec<ProjectivePoint> = sets
        .iter()
        .map(|_| {
            let set: Vec<&[GroupElement]> = tables.by_ref().take(scalars.len()).collect();
            interleaved_sum(&set, &digits)
        })
        .collect();
    ProjectivePoint::batch_to_affine(&sums)
}

/// One set of [`multiexp_many`]: a single chain of doublings, most
/// significant digit first, with a mixed addition of `±|d|·P` from `P`'s odd
/// multiples for every non-zero digit `d`.
fn interleaved_sum(tables: &[&[GroupElement]], digits: &[Naf]) -> ProjectivePoint {
    let mut acc = ProjectivePoint::identity();
    for bit in (0..NAF_DIGITS).rev() {
        acc = acc.double();
        for (odd, naf) in tables.iter().zip(digits) {
            let digit = naf.get(bit).copied().unwrap_or(0);
            if digit == 0 {
                continue;
            }
            if let Some(&entry) = odd.get(usize::from(digit.unsigned_abs() / 2)) {
                acc += if digit < 0 { -entry } else { entry };
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive(points: &[GroupElement], scalars: &[Scalar]) -> GroupElement {
        points.iter().zip(scalars).map(|(p, s)| p.mul(s)).sum()
    }

    #[test]
    fn empty_input_is_identity() {
        assert!(multiexp(&[], &[]).is_identity());
    }

    #[test]
    fn single_term_matches_scalar_mul() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = GroupElement::random(&mut rng);
        let s = Scalar::random(&mut rng);
        assert_eq!(multiexp(&[p], &[s]), p.mul(&s));
    }

    #[test]
    fn matches_naive_for_various_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [2usize, 3, 5, 13, 41] {
            let points: Vec<_> = (0..n).map(|_| GroupElement::random(&mut rng)).collect();
            let scalars: Vec<_> = (0..n).map(|_| Scalar::random(&mut rng)).collect();
            assert_eq!(
                multiexp(&points, &scalars),
                naive(&points, &scalars),
                "n={n}"
            );
        }
    }

    #[test]
    fn handles_zero_and_small_scalars() {
        let mut rng = StdRng::seed_from_u64(3);
        let points: Vec<_> = (0..4).map(|_| GroupElement::random(&mut rng)).collect();
        let scalars = vec![
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(2),
            Scalar::from_u64(u64::MAX),
        ];
        assert_eq!(multiexp(&points, &scalars), naive(&points, &scalars));
    }

    #[test]
    fn powers_variant_matches_naive() {
        let mut rng = StdRng::seed_from_u64(4);
        let points: Vec<_> = (0..6).map(|_| GroupElement::random(&mut rng)).collect();
        let base = Scalar::from_u64(7);
        let mut scalars = Vec::new();
        let mut acc = Scalar::one();
        for _ in 0..points.len() {
            scalars.push(acc);
            acc *= base;
        }
        assert_eq!(multiexp_powers(&points, base), naive(&points, &scalars));
    }

    #[test]
    #[should_panic(expected = "one scalar per point")]
    fn mismatched_lengths_panic() {
        let _ = multiexp(&[GroupElement::generator()], &[]);
    }

    #[test]
    fn crossover_table_matches_cost_model() {
        let argmin_cost = |n: usize| (1..=16).map(|c| pippenger_cost(n, c)).min().unwrap();
        // Dense sweep over the small-n region where every verify-poly /
        // verify-point size lives, plus both sides of each tabled crossover.
        for n in 0..=2048usize {
            assert_eq!(
                pippenger_cost(n, pippenger_window(n)),
                argmin_cost(n),
                "n={n}"
            );
        }
        for &(from, _) in PIPPENGER_CROSSOVERS {
            for n in [from.saturating_sub(1), from, from + 1] {
                assert_eq!(
                    pippenger_cost(n, pippenger_window(n)),
                    argmin_cost(n),
                    "crossover n={n}"
                );
            }
        }
    }

    #[test]
    fn shared_window_matches_cost_model() {
        for m in 1..=128usize {
            let argmin = (2..=16).min_by_key(|&w| shared_cost(m, w)).unwrap();
            assert_eq!(argmin, SHARED_WINDOW, "m={m}");
        }
        // Five points — a t = 4 commitment entry — for under half of what
        // Pippenger's model charges.
        assert_eq!(shared_cost(5, SHARED_WINDOW), 511);
        assert!(2 * shared_cost(5, SHARED_WINDOW) < pippenger_cost(5, pippenger_window(5)));
    }

    #[test]
    fn naf_recodes_every_scalar_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        let half = 1i8 << (SHARED_WINDOW - 1);
        let mut scalars = vec![
            Scalar::zero(),
            Scalar::one(),
            -Scalar::one(),
            Scalar::from_u64(15),
            Scalar::from_u64(16),
            Scalar::from_u64(u64::MAX),
            Scalar::from_u256(U256::MAX.shr(1)),
            Scalar::from_u256(U256::ONE.shl(255)),
        ];
        scalars.extend((0..32).map(|_| Scalar::random(&mut rng)));
        for k in scalars {
            let digits = naf(&k);
            let value = digits.iter().rev().fold(Scalar::zero(), |acc, &d| {
                let digit = Scalar::from_u64(u64::from(d.unsigned_abs()));
                acc.double() + if d < 0 { -digit } else { digit }
            });
            assert_eq!(value, k);
            let set: Vec<usize> = (0..NAF_DIGITS).filter(|&i| digits[i] != 0).collect();
            assert!(set
                .iter()
                .all(|&i| digits[i] % 2 != 0 && digits[i].abs() < half));
            assert!(set
                .windows(2)
                .all(|pair| pair[1] - pair[0] >= SHARED_WINDOW));
        }
    }

    #[test]
    fn window_grows_with_input_size() {
        assert_eq!(pippenger_window(0), 1);
        assert_eq!(pippenger_window(2), 1);
        assert_eq!(pippenger_window(3), 2);
        assert_eq!(pippenger_window(121), 5);
        assert_eq!(pippenger_window(300), 6);
        assert!(pippenger_window(10_000) >= 9);
        for w in 1..PIPPENGER_CROSSOVERS.len() {
            let (prev, pc) = PIPPENGER_CROSSOVERS[w - 1];
            let (next, nc) = PIPPENGER_CROSSOVERS[w];
            assert!(prev < next && pc < nc);
        }
    }
}
